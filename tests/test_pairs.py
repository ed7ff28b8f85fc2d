"""The pair enumerator and the linearized sigmas against references.

The four lag-walk ``_ref_*`` functions below are the walks the estimators
used before they shared one pair enumerator, kept verbatim up to their
value and per-block pair counts; the same-pulse walk pairs the lexsorted
clicks of each pulse, apart from the estimators' one time-sorted walk,
the all-pairs and stationary g2(0) walks count into the time blocks of
``_ref_time_blocks``, and the g2(0) walk takes its baseline from the bins
whose centres lie at or past baseline_from.  Histogram counts, per-block
counts and block clicks and the side-peak and stationary g2(0) values
must equal them exactly; each sigma must equal the delta-method
spread recomputed here from the reference's per-block counts, and agree
with a many-replicate block bootstrap of the same blocks.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from pulseg2 import estimate as est
from pulseg2 import modes as md
from pulseg2 import simulate as sim
from pulseg2 import states as st
from pulseg2 import streams
from pulseg2.errors import EstimationError
from pulseg2.streams import ClickStream

PERIOD = 12.5e-9


# ---------------------------------------------------------------------------
# reference lag walks


def _ref_bin_pairs_same_pulse(pulse, times, edges, num_pulses):
    """Same-pulse counts per pulse block, (blocks, bins), and the clicks of
    each block: at most 200 contiguous blocks of max(num_pulses, largest
    index + 1) pulses.  It walks the lexsorted clicks of each pulse."""
    n_pulses = max(num_pulses or 1, int(pulse.max(initial=0)) + 1)
    n_blocks = min(200, n_pulses)
    block_of = pulse * n_blocks // n_pulses
    nbins = edges.size - 1
    counts = np.zeros((n_blocks, nbins), dtype=np.int64)
    order = np.lexsort((times, pulse))
    t = times[order]
    p = pulse[order]
    b = block_of[order]
    bw = edges[1] - edges[0]
    d = 1
    while d < t.size:
        same = p[d:] == p[:-d]
        if not same.any():
            break
        dt = t[d:][same] - t[:-d][same]
        k = (dt / bw).astype(np.int64)
        keep = (dt >= 0) & (k < nbins)
        flat = b[:-d][same][keep] * nbins + k[keep]
        counts += np.bincount(flat, minlength=counts.size).reshape(n_blocks, nbins)
        d += 1
    return counts, np.bincount(block_of, minlength=n_blocks)


def _ref_bin_pairs_all(times, edges, max_tau):
    """All-pairs counts per time block of the first click, (blocks, bins)."""
    block_of, n_blocks = _ref_time_blocks(times, max_tau)
    nbins = edges.size - 1
    counts = np.zeros((n_blocks, nbins), dtype=np.int64)
    bw = edges[1] - edges[0]
    top = edges[-1]
    d = 1
    while d < times.size:
        dt = times[d:] - times[:-d]
        if dt.min() >= top:
            break
        k = (dt / bw).astype(np.int64)
        keep = k < nbins
        flat = block_of[:-d][keep] * nbins + k[keep]
        counts += np.bincount(flat, minlength=counts.size).reshape(n_blocks, nbins)
        d += 1
    return counts


def _ref_g2_sidepeak(stream, train, window, n_side=3):
    period = train.repetition_period
    n_pulses = train.num_pulses
    if not 0 < window <= period / 2:
        raise ValueError("window must lie in (0, repetition_period/2]")
    if n_pulses < n_side + 1:
        raise EstimationError(
            f"train of {n_pulses} pulses is too short for {n_side} side peaks")
    if stream.n_clicks and stream.pulse_index.min() < 0:
        raise ValueError("g2_sidepeak requires a pulsed stream")

    central = np.zeros(n_pulses, dtype=np.int64)      # per-pulse central pairs
    side = np.zeros((n_pulses, n_side), dtype=np.int64)
    t = stream.times
    p = stream.pulse_index
    top = n_side * period + window
    d = 1
    while d < t.size:
        dt = t[d:] - t[:-d]
        if dt.size == 0 or dt.min() >= top:
            break
        first = p[:-d]
        in_central = (dt < window) & (p[d:] == first)
        if in_central.any():
            central += np.bincount(first[in_central], minlength=n_pulses)
        k = np.round(dt / period).astype(np.int64)
        in_side = (k >= 1) & (k <= n_side) & (np.abs(dt - k * period) < window)
        if in_side.any():
            flat = first[in_side] * n_side + (k[in_side] - 1)
            side += np.bincount(flat, minlength=n_pulses * n_side) \
                .reshape(n_pulses, n_side)
        d += 1

    corr = n_pulses / (n_pulses - np.arange(1, n_side + 1, dtype=float))

    def statistic(c_tot, s_tot):
        s_mean = float(np.mean(s_tot * corr))
        if s_mean <= 0:
            return math.nan
        return 2.0 * c_tot / s_mean

    val = statistic(float(central.sum()), side.sum(axis=0).astype(float))
    if math.isnan(val):
        raise EstimationError("no side-peak pairs found; stream too sparse")

    n_blocks = min(200, n_pulses)
    block_of = (np.arange(n_pulses, dtype=np.int64) * n_blocks) // n_pulses
    cb = np.bincount(block_of, weights=central, minlength=n_blocks)
    sb = np.column_stack([
        np.bincount(block_of, weights=side[:, j], minlength=n_blocks)
        for j in range(n_side)])
    return val, cb, sb, corr


def _ref_time_blocks(t, max_tau):
    """Block of each click: whole max_tau slices from the first click (the
    last slice takes the remainder), grouped into at most 200 blocks."""
    n_slices = max(int((t[-1] - t[0]) / max_tau), 1) if t.size else 1
    slice_of = np.minimum(((t - t[:1]) / max_tau).astype(np.int64), n_slices - 1)
    n_blocks = min(200, n_slices)
    return slice_of * n_blocks // n_slices, n_blocks


def _ref_stationary_g2_zero(stream, bin_width, max_tau, baseline_from):
    if stream.n_clicks < 2:
        raise EstimationError("g2(0) undefined: need at least two clicks")
    if not 0 < bin_width <= baseline_from < max_tau:
        raise ValueError("need bin_width <= baseline_from < max_tau")
    t = stream.times
    block_of, n_blocks = _ref_time_blocks(t, max_tau)
    nbins = max(int(math.ceil(max_tau / bin_width - 1e-9)), 1)
    edges = np.arange(nbins + 1) * bin_width
    in_base = 0.5 * (edges[:-1] + edges[1:]) >= baseline_from   # bin centres
    k_base = int(in_base.sum())
    central = np.zeros(n_blocks)
    base = np.zeros(n_blocks)
    d = 1
    while d < t.size:
        dt = t[d:] - t[:-d]
        if dt.min() >= edges[-1]:
            break
        k = (dt / bin_width).astype(np.int64)
        first = block_of[:-d]
        sel_c = k == 0
        if sel_c.any():
            central += np.bincount(first[sel_c], minlength=n_blocks)
        sel_b = (k < nbins) & in_base[np.minimum(k, nbins - 1)]
        if sel_b.any():
            base += np.bincount(first[sel_b], minlength=n_blocks)
        d += 1
    if base.sum() <= 0:
        raise EstimationError("no baseline pairs; increase max_tau or duration")
    val = float(central.sum() * k_base / base.sum())
    return val, central, base, k_base


# ---------------------------------------------------------------------------
# the two ways of spreading a ratio over blocks


def _delta_sigma(grad, blocks):
    """sqrt(sum over blocks of (grad . (x_b - mean x))^2), blocks as rows.

    A single block has no spread to measure: its sigma is inf.
    """
    if blocks.shape[0] < 2:
        return math.inf
    centred = blocks - blocks.mean(axis=0)
    return math.sqrt(float(np.sum((centred @ np.asarray(grad)) ** 2)))


def _bootstrap_sigma(ratio, blocks, n_boot=4000, seed=0):
    """Standard deviation of ``ratio`` over block-resampled column sums."""
    rng = np.random.default_rng(seed)
    n = blocks.shape[0]
    reps = np.concatenate([
        blocks[rng.integers(0, n, size=(250, n))].sum(axis=1)
        for _ in range(n_boot // 250)])
    return float(np.std(ratio(reps.T), ddof=1))


def _sidepeak_ref_sigma(stream, train, window, n_side=3, bootstrap=False):
    """The side-peak value and a sigma from the reference's block counts."""
    val, cb, sb, corr = _ref_g2_sidepeak(stream, train, window, n_side=n_side)
    blocks = np.column_stack([cb, sb])
    if bootstrap:
        return val, _bootstrap_sigma(
            lambda x: 2.0 * x[0] / np.mean(x[1:] * corr[:, None], axis=0), blocks)
    s_bar = float(np.mean(sb.sum(axis=0) * corr))
    if not cb.sum():            # no central pair: the value one pair would give
        return val, 2.0 / s_bar
    grad = np.concatenate([[2.0 / s_bar], -2.0 * cb.sum() * corr / (n_side * s_bar**2)])
    return val, _delta_sigma(grad, blocks)


def _g2_zero_ref_sigma(*args, bootstrap=False, **kwargs):
    """The stationary g2(0) and a sigma from the reference's block counts."""
    val, central, base, k_base = _ref_stationary_g2_zero(*args, **kwargs)
    blocks = np.column_stack([central, base])
    if bootstrap:
        return val, _bootstrap_sigma(lambda x: x[0] * k_base / x[1], blocks)
    c, b = central.sum(), base.sum()
    if not c:                   # no central pair: the value one pair would give
        return val, k_base / b
    return val, _delta_sigma((k_base / b, -c * k_base / b**2), blocks)


def _outcome(fn, *args, **kwargs):
    """The returned (value, sigma), or the exception type and message."""
    try:
        return fn(*args, **kwargs)
    except (EstimationError, ValueError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="module")
def jittered_thermal():
    """Thermal Gaussian pulses whose 4 ns jitter moves clicks across slots."""
    train = sim.PulseTrainConfig(20000, PERIOD, md.gaussian_mode(1e-9))
    det = sim.DetectorModel(efficiency=0.5, timing_jitter_sigma=4e-9)
    return sim.simulate_pulse_train(st.thermal(1.0), det, train, seed=21), train


@pytest.fixture(scope="module")
def sparse_hg1():
    """A reduced-N version of the sparse coherent HG1 benchmark train."""
    train = sim.PulseTrainConfig(400000, PERIOD, md.hermite_gauss_mode(1, 5e-10))
    det = sim.DetectorModel(efficiency=0.5)
    return sim.simulate_pulse_train(st.coherent(0.02), det, train, seed=22), train


@pytest.fixture(scope="module", params=["gaussian", "lorentzian"])
def stationary_stream(request):
    cfg = sim.StationaryThermalConfig(2e5, 1e6, 0.02, spectral_shape=request.param)
    return sim.simulate_stationary_thermal(cfg, sim.DetectorModel(), seed=23)


def _tiny(times, pulses):
    return ClickStream(np.asarray(pulses, dtype=np.int64),
                       np.asarray(times, dtype=float), {"kind": "pulsed"})


TINY = {
    "none": _tiny([], []),
    "one": _tiny([5e-9], [0]),
    "two_same_pulse": _tiny([5e-9, 6e-9], [0, 0]),
    "two_side_peak": _tiny([5e-9, 5e-9 + PERIOD], [0, 1]),
    "pairs_in_two_blocks": _tiny(
        [5e-9, 5.05e-9, 5e-9 + PERIOD, 5e-9 + 3 * PERIOD, 5e-9 + 4 * PERIOD],
        [0, 0, 1, 3, 4]),
    # gaps in the last bin of max_tau = 2 periods (bins of 0.1 ns), then one
    # bin past it, which the walk's reach still pairs
    "one_bin_past_max_tau": _tiny([5e-9, 29.95e-9, 55e-9], [0, 2, 4]),
    # at a window of period / 2, clicks 3.75 periods apart pass the window
    # test of peak n_side + 1 = 4 within the walk's reach of 4 periods
    "one_peak_past_the_last": _tiny(
        [5e-9, 5.1e-9, 5e-9 + PERIOD, 5e-9 + 3.75 * PERIOD], [0, 0, 1, 4]),
}


# ---------------------------------------------------------------------------
# exact agreement with the references


def _assert_histograms_match(stream, bin_width, max_tau,
                             scopes=("same_pulse", "all_pairs")):
    for scope in scopes:
        hist = est.tau_histogram(stream, bin_width, max_tau, scope=scope)
        if scope == "same_pulse":
            blocks, clicks = _ref_bin_pairs_same_pulse(
                stream.pulse_index, stream.times, hist.bin_edges,
                stream.metadata.get("train", {}).get("num_pulses"))
        else:
            blocks = _ref_bin_pairs_all(stream.times, hist.bin_edges, max_tau)
            block_of, n_blocks = _ref_time_blocks(stream.times, max_tau)
            clicks = np.bincount(block_of, minlength=n_blocks)
        assert np.array_equal(hist.block_counts, blocks), scope
        assert np.array_equal(hist.block_clicks, clicks), scope
        ref = blocks.sum(axis=0)
        assert hist.counts.dtype == ref.dtype
        assert np.array_equal(hist.counts, ref), scope


@pytest.mark.parametrize("bin_width,max_tau", [
    (5e-11, 6e-9), (2e-10, 4 * PERIOD), (1e-9, 40 * PERIOD)])
def test_histograms_jittered_thermal(jittered_thermal, bin_width, max_tau):
    _assert_histograms_match(jittered_thermal[0], bin_width, max_tau)


@pytest.mark.parametrize("bin_width,max_tau", [(2.5e-11, 3e-9), (5e-10, 4 * PERIOD)])
def test_histograms_sparse_hg1(sparse_hg1, bin_width, max_tau):
    _assert_histograms_match(sparse_hg1[0], bin_width, max_tau)


def test_histograms_stationary(stationary_stream):
    _assert_histograms_match(stationary_stream, 2e-8, 5e-6, scopes=("all_pairs",))


@pytest.mark.parametrize("name", sorted(TINY))
def test_histograms_tiny_streams(name):
    _assert_histograms_match(TINY[name], 1e-10, 2 * PERIOD)


def _assert_value_and_sigma(got, ref):
    assert got[0] == ref[0]
    assert got[1] == pytest.approx(ref[1], rel=1e-12)


def _assert_same_outcome(got, ref):
    """Equal value and sigma, or the same exception (see ``_outcome``)."""
    if isinstance(ref[0], type):
        assert got == ref
    else:
        _assert_value_and_sigma(got, ref)


@pytest.mark.parametrize("window,n_side", [(3e-9, 3), (0.4 * PERIOD, 2), (PERIOD / 2, 5)])
def test_sidepeak_jittered_thermal(jittered_thermal, window, n_side):
    stream, train = jittered_thermal
    _assert_value_and_sigma(est.g2_sidepeak(stream, train, window, n_side=n_side),
                            _sidepeak_ref_sigma(stream, train, window, n_side=n_side))


def test_sidepeak_sparse_hg1(sparse_hg1):
    stream, train = sparse_hg1
    _assert_value_and_sigma(est.g2_sidepeak(stream, train, 0.4 * PERIOD),
                            _sidepeak_ref_sigma(stream, train, 0.4 * PERIOD))


def test_sidepeak_sigma_matches_bootstrap(jittered_thermal):
    stream, train = jittered_thermal
    got = est.g2_sidepeak(stream, train, 3e-9)
    ref = _sidepeak_ref_sigma(stream, train, 3e-9, bootstrap=True)
    assert got[1] == pytest.approx(ref[1], rel=0.1)


@pytest.mark.parametrize("name", sorted(TINY))
def test_sidepeak_tiny_streams(name):
    # 10 pulses are 10 one-pulse blocks: a pair counted one column past the
    # last side peak would land in the next block's central peak
    train = sim.PulseTrainConfig(10, PERIOD, md.gaussian_mode(1e-10))
    for window in (3e-9, PERIOD / 2):
        _assert_same_outcome(_outcome(est.g2_sidepeak, TINY[name], train, window),
                             _outcome(_sidepeak_ref_sigma, TINY[name], train, window))


@pytest.mark.parametrize("args", [
    (2e-8, 5e-6, 3e-6),
    (1e-8, 2e-6, 1e-6),
    (5e-8, 8e-6, 6e-6),            # 40 baseline bins; int((8e-6 - 6e-6) / 5e-8) is 39
    (1e-6, 3e-4, 1e-4),            # 66 slices, one block each
])
def test_g2_zero_stationary(stationary_stream, args):
    got = est.stationary_g2_zero(stationary_stream, *args)
    _assert_value_and_sigma(got, _g2_zero_ref_sigma(stationary_stream, *args))


def test_g2_zero_sigma_matches_bootstrap(stationary_stream):
    got = est.stationary_g2_zero(stationary_stream, 2e-8, 5e-6, 3e-6)
    ref = _g2_zero_ref_sigma(stationary_stream, 2e-8, 5e-6, 3e-6, bootstrap=True)
    assert got[1] == pytest.approx(ref[1], rel=0.1)


def test_g2_zero_single_block_sigma_is_infinite(stationary_stream):
    # a record shorter than 2 max_tau is one slice, so one block
    max_tau = 2e-3
    t = stationary_stream.times
    cut = t < t[0] + 1.9 * max_tau
    short = ClickStream(stationary_stream.pulse_index[cut], t[cut],
                        stationary_stream.metadata)
    val, sigma = est.stationary_g2_zero(short, 2e-5, max_tau, 1e-3)
    assert val == _ref_stationary_g2_zero(short, 2e-5, max_tau, 1e-3)[0]
    assert sigma == math.inf


@pytest.mark.parametrize("name", sorted(TINY))
def test_g2_zero_tiny_streams(name):
    args = (TINY[name], 1e-10, 2e-8, 1e-8)
    _assert_same_outcome(_outcome(est.stationary_g2_zero, *args),
                         _outcome(_g2_zero_ref_sigma, *args))


def test_start_stop_is_the_adjacent_gaps(stationary_stream):
    bw, max_tau = 5e-7, 2e-5
    hist = est.tau_histogram(stationary_stream, bw, max_tau, scope="start_stop")
    ref = np.histogram(np.diff(stationary_stream.times), hist.bin_edges)[0]
    assert np.array_equal(hist.counts, ref)
    assert np.array_equal(hist.block_counts.sum(axis=0), hist.counts)


# ---------------------------------------------------------------------------
# the walk in slices of first clicks


def _assert_start_stop_match(stream, bin_width, max_tau):
    # each click with the next; the blocks as the walk in one slice counts them
    hist = est.tau_histogram(stream, bin_width, max_tau, scope="start_stop")
    assert np.array_equal(hist.counts, np.histogram(np.diff(stream.times), hist.bin_edges)[0])
    with pytest.MonkeyPatch.context() as mp:
        for module in (streams, est):
            mp.setattr(module, "_SLICE", stream.n_clicks + 1)
        whole = est.tau_histogram(stream, bin_width, max_tau, scope="start_stop")
    assert np.array_equal(hist.block_counts, whole.block_counts)
    assert np.array_equal(hist.block_clicks, whole.block_clicks)


@pytest.mark.parametrize("slice_len", [7, 64])
def test_sliced_walk_jittered_thermal(set_slice, jittered_thermal, slice_len):
    # adjacent pulses interleave, so pairs cross every slice boundary
    set_slice(slice_len)
    stream, train = jittered_thermal
    _assert_histograms_match(stream, 2e-10, 4 * PERIOD)
    _assert_start_stop_match(stream, 2e-10, 4 * PERIOD)
    _assert_value_and_sigma(est.g2_sidepeak(stream, train, 3e-9),
                            _sidepeak_ref_sigma(stream, train, 3e-9))


def test_sliced_sidepeak_window_starting_above_its_lowest_block(set_slice):
    # 200 pulses are 200 one-pulse blocks, and 6 ns of jitter puts a later
    # pulse's click first in some 7-click window: its block offsets must
    # start from the window's least block, not from its first click's
    train = sim.PulseTrainConfig(200, PERIOD, md.gaussian_mode(1e-9))
    det = sim.DetectorModel(efficiency=0.5, timing_jitter_sigma=6e-9)
    stream = sim.simulate_pulse_train(st.thermal(3.0), det, train, seed=24)
    p = stream.pulse_index
    assert any(p[lo] > p[lo:lo + 7].min() for lo in range(0, p.size, 7))
    set_slice(7)
    _assert_value_and_sigma(est.g2_sidepeak(stream, train, 3e-9),
                            _sidepeak_ref_sigma(stream, train, 3e-9))


@pytest.mark.parametrize("slice_len", [7, 64])
def test_sliced_walk_stationary(set_slice, stationary_stream, slice_len):
    set_slice(slice_len)
    _assert_histograms_match(stationary_stream, 2e-8, 5e-6, scopes=("all_pairs",))
    _assert_start_stop_match(stationary_stream, 2e-8, 5e-6)
    _assert_value_and_sigma(est.stationary_g2_zero(stationary_stream, 2e-8, 5e-6, 3e-6),
                            _g2_zero_ref_sigma(stationary_stream, 2e-8, 5e-6, 3e-6))


# ---------------------------------------------------------------------------
# the enumerator against brute force


def _enumerated(keys, reach, n=None):
    got = []
    for first, second in est._pairs(keys, reach, n):
        assert np.all(second - first == second[0] - first[0])   # one lag a pass
        got.extend(zip(first.tolist(), second.tolist()))
    assert len(got) == len(set(got))
    return set(got)


@settings(max_examples=200, deadline=None)
@given(hs.lists(hs.integers(0, 30), max_size=40).flatmap(
    lambda v: hs.tuples(hs.just(v), hs.integers(0, len(v)))), hs.integers(0, 12))
@example(([], 0), 3)
@example(([4], 0), 3)
@example(([4], 1), 3)
@example(([4, 5], 1), 3)
@example(([4, 5], 2), 3)
def test_pairs_within_reach_match_brute_force(values_and_n, reach):
    # integer-valued times make t[i] + reach exact, ties included; the first
    # clicks are the first n, any number from none to every click
    values, n = values_and_n
    t = np.sort(np.asarray(values, dtype=float))
    want = {(i, j) for i in range(n) for j in range(i + 1, t.size)
            if t[j] < t[i] + reach}
    assert _enumerated(t, float(reach), n) == want
