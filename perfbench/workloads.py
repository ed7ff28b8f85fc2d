"""Workloads of the pulseg2 benchmark and the configs the CLI receives.

Each workload is one fixed experiment; only the seed changes between
invocations.  `write_config` turns a workload into the INI file that
`pulseg2 simulate` and `pulseg2 analyze` read, so the program sees
nothing but that file.  The reason for each workload is its `why` in
BENCHMARK.json.

There are two workloads, each measured for 60 s per invocation: on a
shared 2-vCPU machine shorter runs were too noisy, and more workloads
would make a full round of runs too long (see README.md).  No workload uses
a CSV stream, thermal pulses or a Gaussian pulse mode: a change to those
paths first adds a workload that runs them, in a benchmark change of
its own.
"""

from __future__ import annotations

import configparser
import os

# A recovered coherence passes the correctness gate when it lies within
# this many of its own reported one-sigma uncertainties of the expected
# value.  Five sigma keeps a correct program from failing by chance over
# thousands of gated runs while still catching a biased estimator.
GATE_SIGMAS = 5.0

# Side-peak estimate run after `pulseg2 analyze` on pulsed workloads: the
# coincidence window as a share of the repetition period, and the number
# of side peaks (the default of `g2_sidepeak`).
SIDEPEAK_WINDOW_PERIODS = 0.4
SIDEPEAK_PEAKS = 3

WORKLOADS = {
    "pulsed_sparse": {
        "kind": "pulsed",
        "state": "coherent:0.02",
        "mode": "hg:1:5e-10",
        "repetition_period": 12.5e-9,
        "efficiency": 0.5,
        "num_pulses": 20_000_000,
        "format": "binary",
        "expected_g2": 1.0,
    },
    "stationary": {
        "kind": "stationary",
        "mean_rate": 1e6,
        "spectral_bandwidth": 1e6,
        "duration": 1.0,
        "efficiency": 0.5,
        "format": "binary",
        "expected_g2": 2.0,
    },
}


def write_config(name: str, seed: int, workdir: str, scale: float = 1.0) -> str:
    """Write the workload's INI config into ``workdir``; return its path.

    ``scale`` shrinks the pulse count or the duration, for smoke tests.
    Paths are relative to the checkout root, where every run starts.
    """
    w = WORKLOADS[name]
    sections = {
        "run": {"kind": w["kind"], "seed": str(seed)},
        "detector": {"efficiency": repr(w["efficiency"])},
        "output": {
            "stream": os.path.join(workdir, "stream." + w["format"]),
            "report": os.path.join(workdir, "report.json"),
            "histogram": os.path.join(workdir, "histogram.csv"),
            "format": w["format"],
        },
    }
    if w["kind"] == "pulsed":
        sections["state"] = {"spec": w["state"]}
        sections["mode"] = {"spec": w["mode"]}
        sections["pulsed"] = {
            "num_pulses": str(max(int(w["num_pulses"] * scale), 1000)),
            "repetition_period": repr(w["repetition_period"]),
        }
    else:
        sections["stationary"] = {
            "mean_rate": repr(w["mean_rate"]),
            "spectral_bandwidth": repr(w["spectral_bandwidth"]),
            "duration": repr(w["duration"] * scale),
        }
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    path = os.path.join(workdir, "experiment.ini")
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def pair_walk_reach(name: str) -> float:
    """Largest time difference the workload's widest lag walk pairs.

    Pulsed: the side-peak walk out to the last side peak's window.
    Stationary: the all-pairs walk out to `pulseg2 analyze`'s default
    max_tau of five correlation times.
    """
    w = WORKLOADS[name]
    if w["kind"] == "pulsed":
        period = w["repetition_period"]
        return SIDEPEAK_PEAKS * period + SIDEPEAK_WINDOW_PERIODS * period
    return 5.0 / w["spectral_bandwidth"]
