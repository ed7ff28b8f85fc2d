"""Command-line front end.

Subcommands: ``simulate`` (config in, stream files out) and ``analyze``
(stream in, report JSON out, plus the pulsed histogram CSV with its
analytic overlay or the stationary pc curve CSV).  ``analyze`` is one
library call per light, `estimate.analyze_stream` or
`estimate.analyze_stationary`, which hold the default binning, the flags
and the overlay, and then the writes.  Each command takes only its flags;
one INI file drives both.  Exit codes: 0 success, 1 config/usage error,
2 I/O or stream format error (a simulated stream that fails its
time-order check included; it leaves no sidecar), 3 estimation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import estimate as _est
from . import simulate as _sim
from .config import ExperimentConfig, _read_settings, _whole
from .errors import ConfigError, EstimationError, StreamFormatError
from .streams import _MAX_PULSES, _open_stream, _write_table, sidecar_path, write_stream

__all__ = ["main", "entrypoint"]


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route usage problems to exit code 1 instead
    def error(self, message):
        raise ConfigError(message)


def _flag_type(parse, ok, rule):
    """argparse type of a settings flag: the text ``parse``d and held to
    ``ok``; either failure is the usage error "must be ``rule``"."""
    def convert(text):
        try:
            if ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return convert


_POSITIVE = _flag_type(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
# the settings flags, by name; each dest is the attribute it sets
_FLAGS = {
    "--seed": {"type": int, "dest": "seed"},
    "--pulses": {"type": _flag_type(_whole, lambda n: 1 <= n <= _MAX_PULSES,
                                    f"a whole number in [1, {_MAX_PULSES}]"),
                 "dest": "num_pulses", "help": "override pulse count"},
    "--state": {"dest": "state_spec", "help": "state spec, e.g. thermal:0.5"},
    "--mode": {"dest": "mode_spec", "help": "mode spec, e.g. gauss:1e-9"},
    "--bin-width": {"type": _POSITIVE, "dest": "bin_width"},
    "--max-tau": {"type": _POSITIVE, "dest": "max_tau"},
    "--sidecar": {"dest": "out_sidecar", "help": "metadata sidecar path"},
}
# the settings flags each command reads
_READS = {
    "simulate": ("--seed", "--pulses", "--state", "--mode"),
    "analyze": ("--sidecar", "--pulses", "--state", "--mode", "--bin-width", "--max-tau"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="pulseg2", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _READS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", help="output path")
        if name == "analyze":
            p.add_argument("stream", help="click-stream file to analyze")
    return parser


def _settings(args) -> dict:
    """The keys the INI file sets, by attribute, overlaid by every flag set."""
    given = _read_settings(args.config) if args.config else {}
    for spec in _FLAGS.values():
        if getattr(args, spec["dest"], None) is not None:
            given[spec["dest"]] = getattr(args, spec["dest"])
    return given


def _cmd_simulate(args) -> int:
    cfg = ExperimentConfig(**_settings(args)).validate()
    out = args.out or cfg.out_stream
    detector = cfg.detector()
    # slice by slice: memory follows the slice, not the record
    if cfg.kind == "pulsed":
        slices = _sim._pulse_train_slices(cfg.state(), detector, cfg.train(), cfg.seed)
    else:
        slices = _sim._stationary_thermal_slices(cfg.stationary(), detector, cfg.seed)
    clicks = write_stream(slices, out, fmt=cfg.stream_format,
                          sidecar=cfg.out_sidecar or sidecar_path(out))
    print(f"wrote {clicks} clicks to {out}")
    return 0


def _cmd_analyze(args) -> int:
    # the keys a file or flag sets override the sidecar; defaults never do
    given = _settings(args)
    cfg = ExperimentConfig(**given).validate()
    side = cfg.out_sidecar or sidecar_path(args.stream)
    # only the default sidecar is optional
    if cfg.out_sidecar and not os.path.exists(side):
        raise StreamFormatError(f"{side}: no such sidecar")
    stream = _open_stream(args.stream, sidecar=side)
    report_path = args.out or cfg.out_report
    pulsed = stream.is_pulsed
    bandwidth = (cfg.stationary().spectral_bandwidth
                 if not pulsed and "spectral_bandwidth" in given else None)
    try:
        if pulsed:
            report = _est.analyze_stream(
                stream, num_pulses=given.get("num_pulses"),
                mode=cfg.mode() if "mode_spec" in given else None,
                state=cfg.state() if "state_spec" in given else None,
                bin_width=cfg.bin_width, max_tau=cfg.max_tau)
        else:
            report = _est.analyze_stationary(stream, cfg.bin_width, cfg.max_tau, bandwidth)
    except ValueError as exc:
        # a bin width and max tau that each pass but that no histogram holds
        if not (pulsed or given.keys() & {"spectral_bandwidth", "bin_width", "max_tau"}):
            # a binning the sidecar's bandwidth alone set
            raise StreamFormatError(f"{side}: stationary.spectral_bandwidth: {exc}") from exc
        keys = "[estimator] bin_width / [estimator] max_tau" + (
            "" if pulsed else " / [stationary] spectral_bandwidth")
        raise ConfigError(f"--bin-width / --max-tau ({keys}): {exc}") from exc
    if not pulsed:
        curve_path = os.path.splitext(report_path)[0] + "_pc.csv"
        _write_table(curve_path, "tau_seconds,pc_per_second",
                     [report.curve.tau, report.curve.pc])
        print(f"wrote curve to {curve_path}")
    elif cfg.out_histogram and report.histogram is not None:
        report.histogram.to_csv(cfg.out_histogram, expected=report.expected)
    report.to_json(report_path)
    print(f"wrote report to {report_path}")
    for line in json.loads(report.to_json()).items():
        print(f"  {line[0]} = {line[1]}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return {"simulate": _cmd_simulate, "analyze": _cmd_analyze}[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (StreamFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 3


def entrypoint():  # console_scripts hook
    sys.exit(main())
