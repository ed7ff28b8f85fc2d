"""Benchmark of pulseg2: `pulseg2 simulate` -> stream file -> `pulseg2 analyze`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pulsed_sparse --seed 1 --seconds 60 --trace 0

Closed loop with a single client: runs follow one another, each in a
fresh Python process (perfbench/worker.py), until --seconds have passed.
Every run uses the inputs --seed fixes and passes through a correctness
gate; a run that fails it counts in `failed` and its timings still count.

--trace 0 reports the medians of the end-to-end metrics of BENCHMARK.json.
--trace 1 alternates untraced and traced runs and reports the medians of
the per-layer metrics over the traced runs, plus the tracing overhead
(median traced run_s minus median untraced run_s).  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  The
lines before it name every metric with its unit, sample count and
quartiles, and the provenance.  `--workload all` runs every workload in
turn.  The full record, every sample and span included, is written to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
# Every invocation must end within 180 s; runs still going then are killed.
DEADLINE_S = 170.0
# Runs import the package from cached bytecode, as an installed package
# does, whatever the caller's environment says.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def git_commit(root: str) -> str:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_once(workload, ini, workdir, run_id, traced, expected, started) -> dict:
    """One run in a fresh process; a crash or timeout is a failed run."""
    out = os.path.join(workdir, run_id + ".json")
    timeout = max(DEADLINE_S - (time.monotonic() - started), 5.0)
    cmd = [sys.executable, WORKER, "--workload", workload, "--config", ini,
           "--trace", str(int(traced)), "--run-id", run_id, "--out", out]
    if expected is not None:
        cmd += ["--expected-g2", repr(expected)]
    try:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=ENV, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        return {"run_id": run_id, "traced": traced,
                "problems": [f"run killed after {timeout:.0f} s"]}
    if proc.returncode != 0 or not os.path.exists(out):
        return {"run_id": run_id, "traced": traced,
                "problems": [f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"]}
    with open(out) as fh:
        return json.load(fh)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def bench(workload, seed, seconds, trace, scale, expected, spec) -> dict:
    """Closed loop of runs for ``seconds``; medians and the full record."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    # relative to ROOT, where every run starts
    workdir = os.path.join(os.path.basename(OUT_DIR), f"{tag}-{os.getpid()}")
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    ini = wl.write_config(workload, seed, workdir, scale)
    started = time.monotonic()
    # compile the package's bytecode and warm the file cache before timing
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import pulseg2.cli"], cwd=ROOT, env=ENV, check=True)
    samples, walls = [], []
    measuring = time.monotonic()
    while True:
        traced = bool(trace) and len(samples) % 2 == 1
        t = time.monotonic()
        samples.append(run_once(workload, ini, workdir, f"{tag}-run{len(samples)}",
                                traced, expected, started))
        walls.append(time.monotonic() - t)
        # start no run that would end after the measuring time
        end = time.monotonic() + _median(walls)
        enough = len(samples) >= (2 if trace else 1)
        if enough and (end > measuring + seconds or end > started + DEADLINE_S - 60.0):
            break
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)

    timed = [s for s in samples if "run_s" in s]
    untraced = [s for s in timed if not s["traced"]]
    traced_runs = [s for s in timed if s["traced"]]
    names = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, stats = {}, {}
    for m in names:
        name = m["name"]
        if name == "trace.overhead_s":
            values = [_median([s["run_s"] for s in traced_runs])
                      - _median([s["run_s"] for s in untraced])]
        elif trace:
            values = [s["layers"][name] for s in traced_runs]
        else:
            values = [s[name] for s in untraced]
        metrics[name] = {"value": _median(values), "unit": m["unit"]}
        stats[name] = values
    failed = sum(1 for s in samples if s["problems"])
    provenance = dict(timed[0]["provenance"]) if timed else {}
    provenance.update(commit=git_commit(ROOT), seed=seed, workload=workload,
                      scale=scale, seconds=seconds, trace=trace)
    record = {"provenance": provenance, "metrics": metrics, "samples": samples,
              "attempted": len(samples), "failed": failed}
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return {"metrics": metrics, "stats": stats, "attempted": len(samples),
            "failed": failed, "provenance": provenance,
            "problems": [p for s in samples for p in s["problems"]]}


def print_summary(workload, res) -> None:
    print(f"{workload}: {res['attempted']} runs, {res['failed']} failed the gate")
    for name, m in res["metrics"].items():
        values = res["stats"][name]
        if values and all(v == v for v in values):
            q1, q3 = _quartiles(values)
            print(f"  {name:32s} {m['value']:.6g} {m['unit']:9s} "
                  f"n={len(values)}  q1={q1:.6g}  q3={q3:.6g}")
        else:
            print(f"  {name:32s} no samples")
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':32s} {frac:.6g} {'fraction':9s} n={res['attempted']}")
    for p in res["problems"][:5]:
        print(f"  gate: {p}")
    print("  provenance: " + json.dumps(res["provenance"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *wl.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink pulse counts and durations (smoke tests)")
    ap.add_argument("--expected-g2", type=float, default=None,
                    help="override the expected g2 the gate checks (gate test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pulseg2", "__init__.py")):
        print(f"no pulseg2 sources under {ROOT}/src: run from a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        res = bench(workload, args.seed, seconds, args.trace, args.scale,
                    args.expected_g2, spec)
        print_summary(workload, res)
        prefix = "" if len(names) == 1 else workload + "/"
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][prefix + name] = m
    if any(m["value"] != m["value"] for m in combined["metrics"].values()):
        print("a metric has no finished run to report; no result", file=sys.stderr)
        return 1
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
