"""End-to-end acceptance checks.

Each test covers one release criterion at its stated tolerance and prints
one PASS/FAIL line (visible on the terminal even under pytest capture).
The simulated configurations are fixed-seed, so every band below is a
deterministic check, with sizes chosen so the bands sit at >= 3 standard
errors.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

import pulseg2 as pg
from pulseg2 import estimate as est
from pulseg2 import modes as md
from pulseg2 import simulate as sim
from pulseg2 import states as st

SEED = 20260810
WIDTH = 1e-9
PERIOD = 12.5e-9
EFFICIENCY = 0.5
N_BIG = 10**6

MODE = md.gaussian_mode(WIDTH)
DET = sim.DetectorModel(efficiency=EFFICIENCY)


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def run_checks(checks):
    """Evaluate (label, ok) pairs; return overall flag and a summary string."""
    bad = [label for label, ok in checks if not ok]
    return not bad, ("all good" if not bad else "failed: " + "; ".join(bad))


@pytest.fixture(scope="module")
def big_streams():
    """One million-pulse stream per source state, with per-state timings."""
    out = {}
    specs = {
        "thermal": st.thermal(0.5),
        "coherent": st.coherent(1.0),
        "fock2": st.fock(2),
        "fock1": st.fock(1),
    }
    train = sim.PulseTrainConfig(N_BIG, PERIOD, MODE)
    for name, state in specs.items():
        t0 = time.perf_counter()
        stream = sim.simulate_pulse_train(state, DET, train, seed=SEED)
        hist = est.tau_histogram(stream, WIDTH / 20.0, 6.0 * WIDTH)
        g2_eta = est.recover_g2q_gaussian(stream, hist, N_BIG, WIDTH)
        g2_pn = est.pn_histogram_g2q(stream, N_BIG)
        elapsed = time.perf_counter() - t0
        out[name] = dict(state=state, stream=stream, hist=hist,
                         g2_eta=g2_eta, g2_pn=g2_pn, seconds=elapsed)
    return out


def test_criterion_1_analytic_identities(capsys):
    t0 = time.perf_counter()
    checks = []

    tau = np.linspace(-5 * WIDTH, 5 * WIDTH, 201)
    num = np.asarray(md.eta_numeric(MODE, tau))
    ref = np.asarray(md.eta_gaussian(WIDTH, tau))
    err_eta = float(np.max(np.abs(num - ref) / ref))
    checks.append((f"eta numeric vs closed form ({err_eta:.1e})", err_eta < 1e-8))

    state = st.thermal(0.7)
    grid = np.linspace(-4 * WIDTH, 4 * WIDTH, 101)
    lhs = sim.analytic_D(state, DET, MODE, 1000, grid)
    rhs = sim.analytic_Ip(state, DET, 1000) ** 2 * st.g2q_from_moments(state) \
        * np.asarray(md.eta_numeric(MODE, grid)) / 1000
    err_closure = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    checks.append((f"pair-density closure ({err_closure:.1e})", err_closure < 1e-10))

    train = sim.PulseTrainConfig(20000, PERIOD, MODE)
    stream = sim.simulate_pulse_train(st.thermal(1.0), DET, train, seed=SEED)
    hist = est.tau_histogram(stream, WIDTH / 20.0, 6.0 * WIDTH)
    eta0 = md.eta_numeric(MODE, 0.0)
    v_p, _ = est.g2p(stream, hist, MODE)
    v_gen, _ = est.recover_g2q_general(stream, hist, 20000, MODE)
    v_gauss, _ = est.recover_g2q_gaussian(stream, hist, 20000, WIDTH)
    err_13 = abs(v_p * 20000 / eta0 - v_gen) / v_gen
    err_15 = abs(v_gauss - v_gen) / v_gen
    checks.append((f"bunching/recovery consistency ({err_13:.1e})", err_13 < 1e-12))
    checks.append((f"gaussian vs general recovery ({err_15:.1e})", err_15 < 1e-8))

    elapsed = time.perf_counter() - t0
    checks.append((f"runtime {elapsed:.2f}s", elapsed < 1.0))
    ok, msg = run_checks(checks)
    report(capsys, 1, ok, f"analytic identities ({msg}; {elapsed:.2f}s)")


def test_criterion_2_state_identification(capsys, big_streams):
    targets = {
        "thermal": (2.0, 0.05),
        "coherent": (1.0, 0.03),
        "fock2": (0.5, 0.03),
        "fock1": (0.0, 0.01),
    }
    checks = []
    details = []
    for name, (target, band) in targets.items():
        data = big_streams[name]
        for route in ("g2_eta", "g2_pn"):
            val, _ = data[route]
            checks.append((f"{name}/{route} {val:.3f} vs {target}",
                           abs(val - target) <= band))
        checks.append((f"{name} runtime {data['seconds']:.1f}s",
                       data["seconds"] < 60.0))
        details.append(f"{name}: eta {data['g2_eta'][0]:.3f}, "
                       f"pn {data['g2_pn'][0]:.3f} (want {target}+-{band})")
    ok, msg = run_checks(checks)
    report(capsys, 2, ok, "state identification - " + "; ".join(details)
           if ok else f"state identification ({msg})")


def test_criterion_3_pulse_shape_law(capsys, big_streams):
    fitted = est.fit_pulse_width(big_streams["thermal"]["hist"])
    err = abs(fitted - WIDTH) / WIDTH
    ok = err < 0.02
    report(capsys, 3, ok,
           f"time-difference width {fitted:.4g}s vs pulse width {WIDTH:g}s "
           f"({100 * err:.2f}% off, tolerance 2%)")


def test_criterion_4_bunching_vs_state_coherence(capsys):
    state = st.coherent(2.0)
    eta0 = float(md.eta_numeric(MODE, 0.0))
    runs = {}
    for n in (10**3, 10**4, 10**5):
        train = sim.PulseTrainConfig(n, PERIOD, MODE)
        stream = sim.simulate_pulse_train(state, DET, train, seed=SEED + n)
        hist = est.tau_histogram(stream, WIDTH / 20.0, 6.0 * WIDTH)
        runs[n] = {
            "g2p": est.g2p(stream, hist, MODE),
            "g2q_eta": est.recover_g2q_general(stream, hist, n, MODE),
            "g2q_pn": est.pn_histogram_g2q(stream, n),
        }
    checks = []
    for n, r in runs.items():
        v_eta, s_eta = r["g2q_eta"]
        v_pn, s_pn = r["g2q_pn"]
        gap = abs(v_eta - v_pn)
        checks.append((f"N={n}: corrected bunching {v_eta:.3f} vs photon-number "
                       f"{v_pn:.3f}", gap <= 3 * math.hypot(s_eta, s_pn)))
        # raw g2p differs from g2q by eta(0)/N (a rate, not the state value)
        v_p, _ = r["g2p"]
        checks.append((f"N={n}: g2p carries the eta(0)/N factor",
                       abs(v_p - v_pn * eta0 / n) <= 3 * math.hypot(s_eta, s_pn) * eta0 / n))

    for n1, n2 in ((10**3, 10**4), (10**4, 10**5)):
        v1, s1 = runs[n1]["g2p"]
        v2, s2 = runs[n2]["g2p"]
        ratio = v1 / v2
        sig = ratio * math.hypot(s1 / v1, s2 / v2)
        checks.append((f"g2p({n1})/g2p({n2}) = {ratio:.2f} vs {n2 // n1}",
                       abs(ratio - n2 / n1) <= 3 * sig))

    half_mode = md.gaussian_mode(WIDTH / 2.0)
    n = 10**4
    train = sim.PulseTrainConfig(n, PERIOD, half_mode)
    stream = sim.simulate_pulse_train(state, DET, train, seed=SEED + 5)
    hist = est.tau_histogram(stream, WIDTH / 40.0, 3.0 * WIDTH)
    v_half, s_half = est.g2p(stream, hist, half_mode)
    v_full, s_full = runs[n]["g2p"]
    ratio = v_half / v_full
    sig = ratio * math.hypot(s_half / v_half, s_full / v_full)
    checks.append((f"halving the width: g2p ratio {ratio:.2f} vs 2",
                   abs(ratio - 2.0) <= 3 * sig))

    ok, msg = run_checks(checks)
    report(capsys, 4, ok, f"pulsed bunching vs state coherence ({msg})")


def test_criterion_5_stationary_baseline(capsys):
    t0 = time.perf_counter()
    bandwidth = 1e6
    cfg = sim.StationaryThermalConfig(mean_rate=5e5, spectral_bandwidth=bandwidth,
                                      duration=3.0)
    stream = sim.simulate_stationary_thermal(cfg, sim.DetectorModel(), seed=SEED)
    curve = est.stationary_conditional_probability(
        stream, 1.0 / (50 * bandwidth), 5.0 / bandwidth)
    ratio = curve.g2_zero(3.0 / bandwidth)[0]
    tail = float(curve.pc[curve.tau > 3.5 / bandwidth].mean()) \
        / curve.baseline(2.5 / bandwidth)
    fwhm = curve.excess_fwhm(3.0 / bandwidth)

    control = pg.simulate_stationary_poisson(5e5, 3.0, seed=SEED)
    flat = est.stationary_conditional_probability(
        control, 1.0 / (50 * bandwidth), 5.0 / bandwidth)
    flat_ratio = flat.g2_zero(3.0 / bandwidth)[0]
    elapsed = time.perf_counter() - t0

    checks = [
        (f"bunching peak ratio {ratio:.3f} vs 2.00+-0.05", abs(ratio - 2.0) <= 0.05),
        (f"long-lag ratio {tail:.3f} vs 1.00+-0.03", abs(tail - 1.0) <= 0.03),
        (f"peak width {fwhm:.2e}s within 2x of {1 / bandwidth:.0e}s",
         0.5 / bandwidth <= fwhm <= 2.0 / bandwidth),
        (f"flat control ratio {flat_ratio:.3f} vs 1.00+-0.03",
         abs(flat_ratio - 1.0) <= 0.03),
        (f"runtime {elapsed:.1f}s", elapsed < 60.0),
    ]
    ok, msg = run_checks(checks)
    report(capsys, 5, ok,
           f"stationary source: peak {ratio:.3f}, tail {tail:.3f}, "
           f"fwhm {fwhm:.2e}s, control {flat_ratio:.3f} ({elapsed:.1f}s)"
           if ok else f"stationary source ({msg})")


def test_criterion_6_property_suites(capsys):
    checks = []

    # independent loss cannot move g2q (exact transform)
    states = [st.thermal(1.3), st.coherent(0.8), st.fock(3),
              st.mixture([0.4, 0.6], [st.fock(1), st.thermal(0.5)])]
    worst = 0.0
    for state in states:
        ref = st.g2q_from_moments(state)
        for s in (0.25, 0.6, 1.0):
            thinned = st.g2q_from_pn(st.binomial_loss_pn(state.pn, s))
            worst = max(worst, abs(thinned - ref))
    checks.append((f"loss invariance analytic ({worst:.1e})", worst < 1e-10))

    # and a monte-carlo version through the full pipeline
    n = 4 * 10**5
    train = sim.PulseTrainConfig(n, PERIOD, MODE)
    v1, s1 = est.pn_histogram_g2q(
        sim.simulate_pulse_train(st.thermal(1.0), sim.DetectorModel(), train,
                                 seed=SEED + 11), n)
    v2, s2 = est.pn_histogram_g2q(
        sim.simulate_pulse_train(st.thermal(1.0), sim.DetectorModel(efficiency=0.3),
                                 train, seed=SEED + 12), n)
    checks.append((f"loss invariance MC ({v1:.3f} vs {v2:.3f})",
                   abs(v1 - v2) <= 3 * math.hypot(s1, s2)))

    # pulse-shape overlap: unit mass, peak at zero delay, even in the delay
    for mode in (MODE, md.hermite_gauss_mode(2, WIDTH)):
        profile = md.eta_profile(mode)
        eta0 = md.eta_numeric(mode, 0.0)
        checks.append((f"{mode.label} unit integral",
                       abs(profile.integral() - 1.0) <= 1e-6))
        checks.append((f"{mode.label} peak dominance",
                       bool(np.all(profile.eta <= eta0 * (1 + 1e-12)))))
        sym = max(abs(md.eta_numeric(mode, x) - md.eta_numeric(mode, -x))
                  for x in (0.7 * WIDTH, 2.3 * WIDTH))
        checks.append((f"{mode.label} symmetry", sym <= 1e-10 * eta0))

    # determinism: reruns cannot move a single bit, and the whole pulse
    # blocks at the head of a train click as a train of just those blocks
    train = sim.PulseTrainConfig(2 * 10**5, PERIOD, MODE)
    a = sim.simulate_pulse_train(st.thermal(1.0), DET, train, seed=SEED)
    b = sim.simulate_pulse_train(st.thermal(1.0), DET, train, seed=SEED)
    whole_blocks = (train.num_pulses - 1) // sim._PULSE_BLOCK * sim._PULSE_BLOCK
    head = sim.PulseTrainConfig(whole_blocks, PERIOD, MODE)
    c = sim.simulate_pulse_train(st.thermal(1.0), DET, head, seed=SEED)
    keep = a.pulse_index < head.num_pulses
    checks.append(("bit-identical rerun", np.array_equal(a.times, b.times)
                   and np.array_equal(a.pulse_index, b.pulse_index)))
    checks.append(("block-prefix invariance", np.array_equal(a.times[keep], c.times)
                   and np.array_equal(a.pulse_index[keep], c.pulse_index)))

    # two-photon pulses: arrival times are independent draws from |v|^2
    n = 150000
    train = sim.PulseTrainConfig(n, PERIOD, MODE)
    stream = sim.simulate_pulse_train(st.fock(2), sim.DetectorModel(), train,
                                      seed=SEED + 13)
    order = np.lexsort((stream.times, stream.pulse_index))
    t = stream.times[order].reshape(n, 2)
    offs = t - (np.arange(n)[:, None] + 0.5) * PERIOD
    rng = np.random.default_rng(SEED)
    flip = rng.random(n) < 0.5
    first = np.where(flip, offs[:, 1], offs[:, 0])
    second = np.where(flip, offs[:, 0], offs[:, 1])
    lim = 2.5 * WIDTH / math.sqrt(2.0)
    box = (np.abs(first) < lim) & (np.abs(second) < lim)
    grid = np.linspace(-lim, lim, 9)
    table, _, _ = np.histogram2d(first[box], second[box], bins=(grid, grid))
    pvalue = sps.chi2_contingency(table).pvalue
    checks.append((f"two-photon factorization (p={pvalue:.3f})", pvalue > 0.01))

    ok, msg = run_checks(checks)
    report(capsys, 6, ok, f"property suites ({msg})")


def test_criterion_7_side_peak_normalization(capsys, big_streams):
    train = sim.PulseTrainConfig(N_BIG, PERIOD, MODE)
    targets = {"coherent": 1.0, "thermal": 2.0, "fock1": 0.0}
    checks = []
    details = []
    for name, target in targets.items():
        stream = big_streams[name]["stream"]
        val, sig = est.g2_sidepeak(stream, train, window=3.0 * WIDTH)
        if name == "fock1":
            ok = val == 0.0 and sig <= 0.01
        else:
            ok = abs(val - target) <= 3 * sig
        checks.append((f"{name} side-peak {val:.3f} vs {target}", ok))
        details.append(f"{name}: {val:.3f}+-{sig:.3f}")
    ok, msg = run_checks(checks)
    report(capsys, 7, ok, "side-peak normalization - " + "; ".join(details)
           if ok else f"side-peak normalization ({msg})")
