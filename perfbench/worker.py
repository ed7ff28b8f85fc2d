"""One benchmark run in its own process; perfbench/run.py starts it.

Set-up is timed from the moment the parent started this process until
pulseg2 is imported and the workload config is parsed into state, mode
and train.  The run then takes the user path: `pulseg2 simulate` writes
the stream file, `pulseg2 analyze` reads it and writes the report, and on
pulsed workloads the side-peak estimate, which the CLI report lacks,
reads the stream again.  Both CLI steps run in this process through
`pulseg2.cli.main`, so peak RSS is this run's alone.

With --trace 1 the package's layer entry points are wrapped from here,
so every call into them records a span; the package itself is not
changed.  After the timed run, untimed probes count pairs and measure
peak allocations, whose tracking would slow the spans.  The result,
spans included, goes to --out as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import resource
import sys
import time
import tracemalloc

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Tracer:
    """Spans kept in memory: name, start, end, parent and run id."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"name": name, "run": self.run_id, "id": len(self.spans),
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        """``fn`` recording a span per call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus what their children cover."""
        out = 0.0
        for s in self.spans:
            if s["name"] == name:
                children = [c for c in self.spans if c["parent"] == s["id"]]
                out += (s["end"] - s["start"]) - sum(c["end"] - c["start"]
                                                     for c in children)
        return out


def install_tracing(tracer: Tracer, cli, estimate, modes, simulate, streams) -> None:
    """Wrap every layer entry point in each module namespace that calls it.

    The process exits after one run, so the wrappers are never removed.
    """
    targets = [
        ((simulate,), "simulate_pulse_train", "simulate.pulse_train"),
        ((simulate,), "simulate_stationary_thermal", "simulate.stationary_thermal"),
        ((streams, cli), "write_stream", "streams.write"),
        ((streams, cli), "read_stream", "streams.read"),
        ((modes,), "eta_numeric", "modes.eta"),
        ((estimate,), "tau_histogram", "estimate.tau_histogram"),
        ((estimate,), "estimate_D0", "estimate.D0"),
        ((estimate,), "pn_histogram_g2q", "estimate.pn"),
        ((estimate,), "analyze_stream", "estimate.analyze_stream"),
        ((estimate,), "g2_sidepeak", "estimate.sidepeak"),
        ((estimate,), "stationary_conditional_probability", "estimate.stationary_pc"),
        ((estimate,), "stationary_g2_zero", "estimate.stationary_g2_zero"),
    ]
    for modules, attr, name in targets:
        traced = tracer.wrap(getattr(modules[0], attr), name)
        for module in modules:
            setattr(module, attr, traced)


def peak_alloc_mb(fn, *args, **kwargs) -> float:
    """Peak memory one call of ``fn`` allocates, by tracemalloc.

    numpy reports its array buffers to tracemalloc, so the peak covers
    the arrays the call holds at once.
    """
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def sidepeak(estimate, stream, train):
    """The side-peak g2q the benchmark adds to the CLI report."""
    return estimate.g2_sidepeak(stream, train,
                                wl.SIDEPEAK_WINDOW_PERIODS * train.repetition_period,
                                n_side=wl.SIDEPEAK_PEAKS)


def pair_walk_stats(times, reach: float) -> tuple[int, int]:
    """Pairs closer than ``reach`` and the passes a lag walk makes over them.

    The package's lag walks compare ``t[d:]`` with ``t[:-d]`` for d = 1, 2,
    ... and stop at the first d whose differences all reach ``reach``, so
    they make one pass per lag up to the longest run of close clicks, plus
    the pass that stops them.
    """
    import numpy as np

    n = times.size
    if n < 2:
        return 0, 0
    close = np.searchsorted(times, times + reach, side="left") - np.arange(1, n + 1)
    return int(close.sum()), min(int(close.max()) + 1, n - 1)


_PULSED_FIELDS = ("g2q_analytic", "g2q_eta", "g2q_eta_sigma", "g2q_pn", "g2q_pn_sigma",
                  "g2p", "g2p_sigma", "eta0_per_second", "Ip", "N", "D0_per_second",
                  "D0_sigma", "fitted_width_seconds")
_STATIONARY_FIELDS = ("pc_peak_per_second", "pc_baseline_per_second", "g2_zero",
                      "g2_zero_sigma", "excess_fwhm_seconds", "total_clicks")


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def correctness_gate(name: str, expected: float, exit_codes, report: dict,
                     sidepeak) -> list[str]:
    """Reasons the run is wrong; empty when it passes.

    Both CLI steps exit 0, every report field is a finite number, and each
    recovered coherence lies within GATE_SIGMAS reported sigmas of
    ``expected``: g2q on pulsed workloads (eta route, photon-number route
    and side peaks), g2(0) on the stationary one.
    """
    problems = []
    if tuple(exit_codes) != (0, 0):
        problems.append(f"CLI exit codes (simulate, analyze) = {tuple(exit_codes)}")
    pulsed = wl.WORKLOADS[name]["kind"] == "pulsed"
    for key in _PULSED_FIELDS if pulsed else _STATIONARY_FIELDS:
        if not _finite(report.get(key)):
            problems.append(f"report field {key} = {report.get(key)!r} is not finite")
    if problems:
        return problems
    if pulsed:
        if abs(report["g2q_analytic"] - expected) > 1e-6 * expected:
            problems.append(f"g2q_analytic {report['g2q_analytic']} != expected {expected}")
        routes = [("g2q_eta", report["g2q_eta"], report["g2q_eta_sigma"]),
                  ("g2q_pn", report["g2q_pn"], report["g2q_pn_sigma"])]
        if sidepeak is None:
            problems.append("no side-peak estimate")
        else:
            routes.append(("g2q_sidepeak", *sidepeak))
    else:
        routes = [("g2_zero", report["g2_zero"], report["g2_zero_sigma"])]
    for label, value, sigma in routes:
        if not (_finite(value) and _finite(sigma)
                and abs(value - expected) <= wl.GATE_SIGMAS * sigma):
            problems.append(f"{label} = {value} +- {sigma} is not within "
                            f"{wl.GATE_SIGMAS:g} sigma of {expected}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--config", required=True, help="INI config the CLI receives")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--expected-g2", type=float,
                    help="override the workload's expected g2 (gate test)")
    ap.add_argument("--out", required=True, help="result JSON path")
    args = ap.parse_args(argv)

    # ---- set-up: import the package and parse the workload config
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pulseg2
    from pulseg2 import cli, estimate, modes, simulate, streams
    from pulseg2.config import ExperimentConfig

    cfg = ExperimentConfig.from_file(args.config)
    pulsed = cfg.kind == "pulsed"
    cfg.state()
    cfg.mode()
    train = cfg.train() if pulsed else cfg.stationary()
    setup_s = time.monotonic() - args.t0

    tracer = Tracer(args.run_id, bool(args.trace))
    if args.trace:
        install_tracing(tracer, cli, estimate, modes, simulate, streams)
    stream = cfg.out_stream

    # ---- the timed run
    g2q_sidepeak, sidepeak_error = None, None
    with tracer.span("run"):
        t1 = time.perf_counter()
        with tracer.span("cli.simulate"):
            rc_sim = cli.main(["simulate", "--config", args.config])
        t2 = time.perf_counter()
        with tracer.span("cli.analyze"):
            rc_an = cli.main(["analyze", stream, "--config", args.config])
        if pulsed and rc_sim == 0:
            with tracer.span("sidepeak"):
                try:
                    g2q_sidepeak = sidepeak(estimate, streams.read_stream(stream), train)
                except pulseg2.EstimationError as exc:
                    sidepeak_error = str(exc)
        t3 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- correctness, counts and provenance, outside the timed run
    try:
        with open(cfg.out_report) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = {}
    expected = (args.expected_g2 if args.expected_g2 is not None
                else wl.WORKLOADS[args.workload]["expected_g2"])
    problems = correctness_gate(args.workload, expected, (rc_sim, rc_an), report,
                                g2q_sidepeak)
    if sidepeak_error:
        problems.append(f"side-peak estimate failed: {sidepeak_error}")
    try:
        with open(streams.sidecar_path(stream)) as fh:
            clicks = int(json.load(fh)["n_clicks"])
    except (OSError, ValueError, KeyError):
        clicks = 0

    import numpy
    import scipy

    result = {
        "run_id": args.run_id,
        "traced": bool(args.trace),
        "problems": problems,
        "report": report,
        "sidepeak": list(g2q_sidepeak) if g2q_sidepeak else None,
        "setup_s": setup_s,
        "simulate_s": t2 - t1,
        "analyze_s": t3 - t2,
        "run_s": t3 - t1,
        "clicks": clicks,
        "clicks_per_s": clicks / (t3 - t1),
        "peak_rss_mb": peak_rss_mb,
        "provenance": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "pulseg2": pulseg2.__version__,
            "_PULSE_BLOCK": simulate._PULSE_BLOCK,
            "_FIELD_CHUNK": simulate._FIELD_CHUNK,
        },
    }
    if args.trace:
        tracer.enabled = False  # the probes below are not part of the run
        result["layers"] = layer_metrics(tracer, args.workload, cfg, estimate,
                                         simulate, streams)
        result["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def layer_metrics(tracer: Tracer, name: str, cfg, estimate, simulate, streams) -> dict:
    """Per-layer metrics of one traced run, keyed by BENCHMARK.json name.

    Counts come from the stream read back after the run.  Peak
    allocations come from repeating the simulation and the side-peak
    estimate on the same inputs.
    """
    import numpy as np

    s = streams.read_stream(cfg.out_stream)
    pairs, passes = pair_walk_stats(s.times, wl.pair_walk_reach(name))
    if cfg.kind == "pulsed":
        nonempty = np.unique(s.pulse_index).size / cfg.num_pulses
        sim_alloc = peak_alloc_mb(simulate.simulate_pulse_train, cfg.state(),
                                  cfg.detector(), cfg.train(), cfg.seed)
        sidepeak_alloc = peak_alloc_mb(sidepeak, estimate, s, cfg.train())
    else:
        nonempty = sidepeak_alloc = 0.0
        sim_alloc = peak_alloc_mb(simulate.simulate_stationary_thermal,
                                  cfg.stationary(), cfg.detector(), cfg.seed)
    return {
        "simulate.pulse_train_s": tracer.total("simulate.pulse_train"),
        "simulate.stationary_thermal_s": tracer.total("simulate.stationary_thermal"),
        "simulate.clicks": s.n_clicks,
        "simulate.nonempty_pulse_frac": nonempty,
        "simulate.peak_alloc_mb": sim_alloc,
        "streams.write_s": tracer.total("streams.write"),
        "streams.read_s": tracer.total("streams.read"),
        "streams.bytes": os.path.getsize(cfg.out_stream),
        "modes.eta_s": tracer.total("modes.eta"),
        "estimate.tau_histogram_s": tracer.total("estimate.tau_histogram"),
        "estimate.D0_s": tracer.total("estimate.D0"),
        "estimate.analyze_stream_s": tracer.total("estimate.analyze_stream"),
        "estimate.pairs": pairs,
        "estimate.pair_walk_passes": passes,
        "estimate.pair_walk_yield": pairs / (passes * s.n_clicks) if passes else 0.0,
        "estimate.pn_s": tracer.total("estimate.pn"),
        "estimate.sidepeak_s": tracer.total("estimate.sidepeak"),
        "estimate.sidepeak_peak_alloc_mb": sidepeak_alloc,
        "estimate.stationary_pc_s": tracer.total("estimate.stationary_pc"),
        "estimate.stationary_g2_zero_s": tracer.total("estimate.stationary_g2_zero"),
        "cli.simulate_self_s": tracer.self_time("cli.simulate"),
        "cli.analyze_self_s": tracer.self_time("cli.analyze"),
    }


if __name__ == "__main__":
    sys.exit(main())
