import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy import stats as sps
from scipy.integrate import simpson

import pulseg2 as pg
from pulseg2 import modes as md
from pulseg2 import simulate as sim
from pulseg2 import states as st
from pulseg2.rngutil import block_generator, block_generators, derive_roots

WIDTH = 1e-9
PERIOD = 12.5e-9
MODE = md.gaussian_mode(WIDTH)
IDEAL = sim.DetectorModel()
JITTERED = sim.DetectorModel(efficiency=0.8, timing_jitter_sigma=0.3e-9)
HG1 = md.hermite_gauss_mode(1, WIDTH)
_X = np.linspace(-6.0, 8.0, 1401)
# asymmetric and complex: a Gaussian plus a narrower quadrature bump at +2 widths
SAMPLED = md.sampled_mode(_X * WIDTH,
                          np.exp(-_X**2 / 2) + 0.6j * np.exp(-2 * (_X - 2)**2))
ARRIVAL_MODES = {"gauss": MODE, "hg1": HG1, "hg3": md.hermite_gauss_mode(3, WIDTH),
                 "sampled": SAMPLED}


def _chisquare_pvalue(obs, exp):
    """Chi-square p-value over click numbers, bins pooled so each expects >= 5.

    Bins expecting fewer than 5 counts are pooled; a pool still below 5
    joins the last well-filled bin.
    """
    assert not np.any(obs[exp == 0])
    big = np.flatnonzero(exp >= 5)
    f_obs, f_exp = obs[big].astype(float), exp[big]
    small = exp < 5
    if exp[small].sum() >= 5:
        f_obs = np.append(f_obs, obs[small].sum())
        f_exp = np.append(f_exp, exp[small].sum())
    else:
        f_obs[-1] += obs[small].sum()
        f_exp[-1] += exp[small].sum()
    if f_exp.size < 2:  # a single outcome: every pulse must show it
        return float(f_obs[0] == round(f_exp[0]))
    return sps.chisquare(f_obs, f_exp).pvalue


class TestPulseTrain:
    def test_fock1_unit_efficiency_one_click_per_pulse(self):
        train = sim.PulseTrainConfig(20000, PERIOD, MODE)
        stream = sim.simulate_pulse_train(st.fock(1), IDEAL, train, seed=1)
        assert stream.n_clicks == 20000
        assert np.all(stream.counts_per_pulse(20000) == 1)

    @pytest.mark.parametrize("spec", [
        "thermal:1", "coherent:0.5", "fock:3", "mix:0.3*thermal:0.5+0.7*fock:2"])
    @pytest.mark.parametrize("s", [0.3, 1.0])
    def test_click_numbers_follow_thinned_distribution(self, spec, s):
        # clicks per pulse are distributed as P_n behind a binomial loss s:
        # P'_m = sum_n P_n Binomial(n, s)(m), from scipy, not the simulator's pmf
        n = 60000
        state = st.parse_state_spec(spec)
        train = sim.PulseTrainConfig(n, PERIOD, MODE)
        stream = sim.simulate_pulse_train(state, sim.DetectorModel(efficiency=s),
                                          train, seed=1)
        photons = np.arange(state.pn.size)
        expected = n * state.pn @ sps.binom.pmf(photons, photons[:, None], s)
        obs = np.bincount(stream.counts_per_pulse(n), minlength=expected.size)
        assert obs.size == expected.size
        assert _chisquare_pvalue(obs, expected) > 0.01

    @pytest.mark.parametrize("state,det,per_pulse", [
        (st.thermal(2.0), sim.DetectorModel(efficiency=0.0), 0),
        (st.fock(0), IDEAL, 0),
        (st.fock(2), IDEAL, 2),
    ], ids=["efficiency0", "fock0", "fock2"])
    def test_exact_clicks_per_pulse(self, state, det, per_pulse):
        n = 3 * sim._PULSE_BLOCK
        train = sim.PulseTrainConfig(n, PERIOD, MODE)
        stream = sim.simulate_pulse_train(state, det, train, seed=4)
        assert np.all(stream.counts_per_pulse(n) == per_pulse)

    def test_arrival_envelope_built_once_per_train(self, monkeypatch):
        calls = []
        grid = md._grid
        monkeypatch.setattr(md, "_grid", lambda mode: calls.append(mode) or grid(mode))
        mode = md.hermite_gauss_mode(1, WIDTH)
        train = sim.PulseTrainConfig(3 * sim._PULSE_BLOCK, 25e-9, mode)
        stream = sim.simulate_pulse_train(st.coherent(0.5), IDEAL, train, seed=2)
        assert stream.n_clicks > 0
        assert len(calls) == 1

    def test_one_philox_for_all_pulse_blocks(self, monkeypatch):
        calls = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox",
                            lambda *a, **k: calls.append(k) or philox(*a, **k))
        train = sim.PulseTrainConfig(4 * sim._PULSE_BLOCK, PERIOD, MODE)
        stream = sim.simulate_pulse_train(st.coherent(0.5), IDEAL, train, seed=2)
        assert stream.n_clicks > 0
        assert len(calls) == 2          # one re-keyed for the blocks, one for arrivals

    def test_click_pmf_built_once_per_train(self, monkeypatch):
        calls = []
        thin = st.binomial_loss_pn
        monkeypatch.setattr(st, "binomial_loss_pn",
                            lambda pn, s: calls.append(s) or thin(pn, s))
        train = sim.PulseTrainConfig(3 * sim._PULSE_BLOCK, PERIOD, MODE)
        det = sim.DetectorModel(efficiency=0.5)
        stream = sim.simulate_pulse_train(st.thermal(1.0), det, train, seed=2)
        assert stream.n_clicks > 0
        assert calls == [0.5]

    def test_total_counts_band(self):
        # binomially thinned Poisson: mean N s mu, checked at 5 sigma over seeds
        n, s, mu = 10**5, 0.5, 0.2
        train = sim.PulseTrainConfig(n, PERIOD, MODE)
        det = sim.DetectorModel(efficiency=s)
        for seed in range(5):
            stream = sim.simulate_pulse_train(st.coherent(mu), det, train, seed=seed)
            mean = n * s * mu
            assert abs(stream.n_clicks - mean) < 5 * math.sqrt(mean)

    def test_bit_identical_reruns(self):
        train = sim.PulseTrainConfig(50000, PERIOD, MODE)
        a = sim.simulate_pulse_train(st.thermal(1.0), IDEAL, train, seed=9)
        b = sim.simulate_pulse_train(st.thermal(1.0), IDEAL, train, seed=9)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.pulse_index, b.pulse_index)

    @pytest.mark.parametrize("mode,det", [
        (MODE, IDEAL), (MODE, JITTERED), (HG1, IDEAL), (HG1, JITTERED),
        (SAMPLED, IDEAL), (SAMPLED, JITTERED),
    ], ids=["ideal", "jittered", "hg1-ideal", "hg1-jittered", "sampled-ideal",
            "sampled-jittered"])
    def test_block_prefix_invariance(self, mode, det):
        # whole pulse blocks click the same whatever follows them
        short = sim.PulseTrainConfig(2 * sim._PULSE_BLOCK, 50e-9, mode)
        longer = sim.PulseTrainConfig(3 * sim._PULSE_BLOCK + 5000, 50e-9, mode)
        a = sim.simulate_pulse_train(st.thermal(1.0), det, short, seed=9)
        b = sim.simulate_pulse_train(st.thermal(1.0), det, longer, seed=9)
        head = b.pulse_index < short.num_pulses
        assert 0 < a.n_clicks < b.n_clicks
        np.testing.assert_array_equal(a.times, b.times[head])
        np.testing.assert_array_equal(a.pulse_index, b.pulse_index[head])

    def test_different_seeds_differ(self):
        train = sim.PulseTrainConfig(5000, PERIOD, MODE)
        a = sim.simulate_pulse_train(st.coherent(1.0), IDEAL, train, seed=1)
        b = sim.simulate_pulse_train(st.coherent(1.0), IDEAL, train, seed=2)
        assert a.n_clicks != b.n_clicks or not np.array_equal(a.times, b.times)

    def test_pulses_are_independent(self):
        train = sim.PulseTrainConfig(200000, PERIOD, MODE)
        stream = sim.simulate_pulse_train(st.thermal(1.0), IDEAL, train, seed=3)
        m = stream.counts_per_pulse(train.num_pulses).astype(float)
        m -= m.mean()
        sigma = m.var() / math.sqrt(m.size)
        for lag in (1, 2, 3):
            cov = float(np.mean(m[:-lag] * m[lag:]))
            assert abs(cov) < 5 * sigma

    def test_arrival_times_follow_intensity_profile(self):
        # fock(2), s=1: every pulse yields one unordered pair whose time
        # difference has density 2*eta(tau) on tau >= 0
        n = 100000
        train = sim.PulseTrainConfig(n, PERIOD, MODE)
        stream = sim.simulate_pulse_train(st.fock(2), IDEAL, train, seed=17)
        order = np.lexsort((stream.times, stream.pulse_index))
        t = stream.times[order].reshape(n, 2)
        diffs = t[:, 1] - t[:, 0]
        bw = WIDTH / 10.0
        edges = np.arange(0.0, 4e-9 + bw / 2, bw)
        obs, _ = np.histogram(diffs, edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        probs = 2.0 * np.asarray(md.eta_numeric(MODE, centers)) * bw
        f_obs = np.append(obs, n - obs.sum())
        f_exp = n * np.append(probs, 1.0 - probs.sum())
        assert sps.chisquare(f_obs, f_exp).pvalue > 0.01

    @pytest.mark.parametrize("mode", ARRIVAL_MODES.values(), ids=ARRIVAL_MODES.keys())
    def test_arrival_offsets_follow_intensity(self, mode):
        # one-click pulses land with density |v(t)|^2 on the mode's grid: each
        # bin's probability is a Simpson integral over 128 sub-intervals, exact
        # far below the counting noise (the midpoint rule is up to 24 % low
        # near the zero of hg:1)
        n, period = 80000, 50e-9
        train = sim.PulseTrainConfig(n, period, mode)
        stream = sim.simulate_pulse_train(st.fock(1), IDEAL, train, seed=23)
        offs = stream.times - (stream.pulse_index + 0.5) * period
        t, _ = md._grid(mode)
        edges = np.linspace(t[0], t[-1], int((t[-1] - t[0]) / (WIDTH / 5.0)) + 1)
        fine = np.linspace(edges[:-1], edges[1:], 129, axis=1)
        mass = simpson(md.intensity_profile(mode, fine), x=fine, axis=1)
        obs, _ = np.histogram(offs, edges)
        assert obs.sum() == n
        assert _chisquare_pvalue(obs, n * mass / mass.sum()) > 0.01

    @pytest.mark.parametrize("mode", [*ARRIVAL_MODES.values(),
                                      md.hermite_gauss_mode(30, WIDTH)],
                             ids=[*ARRIVAL_MODES.keys(), "hg30"])
    def test_arrival_envelope_bounds_intensity(self, mode):
        # |v|^2 at 64 points inside each grid cell stays under the cell's bound;
        # a sampled mode's interpolated |v|^2 is convex in each cell, so the
        # larger endpoint alone bounds it
        t, step, bound = sim._arrival_envelope(mode)
        inside = t[:-1, None] + step[:, None] * (np.arange(1, 65) / 65.0)
        values = md.intensity_profile(mode, inside)
        assert np.all(values <= bound[:, None])
        if mode.kind == "sampled":
            ends = md.intensity_profile(mode, t)
            larger = np.maximum(ends[:-1], ends[1:])
            assert np.all(values <= larger[:, None] * (1 + 1e-12))

    def test_jitter_broadens_in_quadrature(self):
        jitter = 1e-9
        period = 50e-9
        det = sim.DetectorModel(timing_jitter_sigma=jitter)
        train = sim.PulseTrainConfig(100000, period, MODE)
        stream = sim.simulate_pulse_train(st.fock(1), det, train, seed=5)
        offs = (stream.times - (stream.pulse_index + 0.5) * period) * 1e9
        expect = (WIDTH**2 / 2 + jitter**2) * 1e18
        assert np.var(offs) == pytest.approx(expect, rel=0.05)

    def test_dead_time_enforced(self):
        det = sim.DetectorModel(dead_time=0.5e-9)
        train = sim.PulseTrainConfig(20000, PERIOD, MODE)
        stream = sim.simulate_pulse_train(st.thermal(3.0), det, train, seed=6)
        assert stream.n_clicks > 0
        assert np.min(np.diff(stream.times)) >= 0.5e-9

    def test_overlapping_pulses_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            sim.PulseTrainConfig(100, 5e-9, MODE)  # period barely 5 widths

    def test_metadata_recorded(self):
        train = sim.PulseTrainConfig(100, PERIOD, MODE)
        stream = sim.simulate_pulse_train(st.coherent(0.5), IDEAL, train, seed=8)
        meta = stream.metadata
        assert meta["kind"] == "pulsed"
        assert meta["state"] == "coherent:0.5"
        assert meta["mode"] == MODE.label
        assert meta["train"] == {"num_pulses": 100, "repetition_period": PERIOD}


# a 150-sample pulse on a 20,001-sample grid: few cells above the mean
_SPIKE = np.arange(-10000, 10001)
SPARSE = md.sampled_mode(_SPIKE * 1e-12, np.exp(-(_SPIKE / 150.0)**2 / 2) + 0j)


class TestArrivalSampler:
    @pytest.mark.parametrize("mode", [MODE, HG1, md.hermite_gauss_mode(30, WIDTH),
                                      SAMPLED, SPARSE],
                             ids=["gauss", "hg1", "hg30", "sampled", "sparse"])
    def test_alias_table_implies_the_cell_masses(self, mode):
        # cell i is picked with prob[i] / n directly and (1 - prob[j]) / n
        # from every column j aliased to it
        t, step, bound = sim._arrival_envelope(mode)
        mass = bound * step
        prob, alias = sim._alias_table(mass)
        assert np.all((prob >= 0) & (prob <= 1))
        implied = (prob + np.bincount(alias, 1.0 - prob, mass.size)) / mass.size
        np.testing.assert_allclose(implied, mass / mass.sum(), rtol=1e-12, atol=0)

    def test_offsets_do_not_depend_on_the_row_chunk(self, monkeypatch):
        # 50,000 offsets take 4 chunks of 2^14 rows or about 100 of 2^9
        root = derive_roots(41)[4]
        want = sim._arrival_sampler(HG1, block_generator(root, 0))[0](50000)
        monkeypatch.setattr(sim, "_ARRIVAL_ROWS", 1 << 9)
        got = sim._arrival_sampler(HG1, block_generator(root, 0))[0](50000)
        assert np.array_equal(got, want)

    def test_offsets_do_not_depend_on_the_draws(self):
        # rows accepted past one draw's count serve the next draw first
        root = derive_roots(41)[4]
        want = sim._arrival_sampler(HG1, block_generator(root, 0))[0](50000)
        draw, earliest = sim._arrival_sampler(HG1, block_generator(root, 0))
        got = np.concatenate([draw(k) for k in (1, 0, 7000, 3, 20000, 22996)])
        assert np.array_equal(got, want)
        assert want.min() >= earliest

    def test_sparse_train_peak_allocation(self):
        # the sparse benchmark train (2e7 pulses, ~2e5 clicks): the arrival
        # rows stay at _ARRIVAL_ROWS, not _PULSE_BLOCK (9.3 MB against 16.5 MB)
        train = sim.PulseTrainConfig(20_000_000, PERIOD, md.parse_mode_spec("hg:1:5e-10"))
        det = sim.DetectorModel(efficiency=0.5)
        tracemalloc.start()
        try:
            sim.simulate_pulse_train(st.coherent(0.02), det, train, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20


def _ref_dead_time_filter(pulse_idx, times, dead):
    """The per-click walk the simulator used before it skipped wide gaps."""
    if dead <= 0 or times.size == 0:
        return pulse_idx, times
    keep = np.ones(times.size, dtype=bool)
    last = -math.inf
    for i, t in enumerate(times):
        if t - last < dead:
            keep[i] = False
        else:
            last = t
    return pulse_idx[keep], times[keep]


def _draws(rng):
    return [rng.integers(2**32, size=3, dtype=np.uint32), rng.random(5),
            rng.binomial(16384, 0.01, 4), rng.choice(16384, 40, replace=False),
            rng.choice(100, 60, replace=False, shuffle=False),
            rng.standard_normal(7)]


@pytest.mark.parametrize("block", [0, 1, 77, 12345])
def test_rekeyed_generator_draws_as_a_new_one(block):
    root = derive_roots(31)[0]
    at = block_generators(root)
    rng = at(block + 5)
    rng.integers(2**32, dtype=np.uint32)    # leaves a buffered uint32 half
    rng.standard_normal()                   # and a partly used Philox output
    got = _draws(at(block))
    fresh = np.random.Generator(np.random.Philox(key=np.array([root, block], np.uint64)))
    for want in (_draws(fresh), _draws(block_generator(root, block))):
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)


@settings(max_examples=300, deadline=None)
@given(hs.lists(hs.one_of(hs.integers(0, 40).map(float),
                          hs.floats(0.0, 40.0, allow_subnormal=False)), max_size=60),
       hs.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0, 7.0, 1e-9]))
def test_dead_time_filter_matches_per_click_walk(values, dead):
    # integer-valued times give ties and gaps exactly equal to the dead time
    times = np.sort(np.asarray(values, dtype=float))
    pulse_idx = np.arange(times.size, dtype=np.int64)
    got = sim._dead_time_filter(pulse_idx, times, dead)
    want = _ref_dead_time_filter(pulse_idx, times, dead)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("last,dead", [(1.0, 1e-17), (0.1, 0.2), (3.0, 1e-9),
                                       (1e-20, 1.0), (7.0, 0.1), (0.7, 0.3)])
def test_dead_time_filter_rounds_as_the_walk(last, dead):
    # times a few ulps around last + dead, where t - last >= dead and
    # t >= last + dead may differ by rounding: the walk's test decides
    near = (last + dead) + np.arange(-3, 4) * np.spacing(last + dead)
    times = np.concatenate([[last], near[near >= last]])
    pulse_idx = np.arange(times.size, dtype=np.int64)
    got = sim._dead_time_filter(pulse_idx, times, dead)
    want = _ref_dead_time_filter(pulse_idx, times, dead)
    assert np.array_equal(got[0], want[0])


def test_dead_time_end_steps_down_when_the_sum_rounds_up():
    # last + dead lands one ulp above the smallest t with t - last >= dead
    last, dead = 9.378398401958933e-09, 3.822793335511966e-08
    end = sim._dead_time_end(np.array([last]), dead)[0]
    below = np.nextafter(end, -np.inf)
    assert end < last + dead
    assert end - last >= dead and below - last < dead
    _, kept, _ = sim._dead_time_filter(None, np.array([last, below, end]), dead)
    assert kept.tolist() == [last, end]


@pytest.mark.parametrize("dead", [0.5, 1.0, 3.0, 1e-9])
@pytest.mark.parametrize("carried", [-1.0, 2.0, 2.5, 4.0])
def test_dead_time_filter_carries_the_last_kept_time(dead, carried):
    # a carried last kept time drops the clicks closer to it than the dead
    # time, as if the walk had kept it just before the first click
    times = np.array([4.0, 4.0, 4.25, 4.5, 5.0, 6.0, 6.0, 7.5, 9.0, 9.2])
    pulse_idx = np.arange(times.size, dtype=np.int64)
    got = sim._dead_time_filter(pulse_idx, times, dead, carried)
    want = _ref_dead_time_filter(np.append(-1, pulse_idx), np.append(carried, times), dead)
    assert np.array_equal(got[0], want[0][1:])
    assert np.array_equal(got[1], want[1][1:])
    assert got[2] == want[1][-1]
    # None indices stay None, and a piece with nothing kept carries the last
    assert sim._dead_time_filter(None, times, dead, carried)[0] is None
    _, kept, last = sim._dead_time_filter(None, times[:1], 10.0, 3.9)
    assert kept.size == 0 and last == 3.9


class TestSlices:
    """The sliced stream is the whole train sorted at once."""

    def _train(self, monkeypatch, clicks, detector):
        # a slice ends at the first block at which it holds ``clicks`` clicks
        monkeypatch.setattr(sim, "_SLICE_CLICKS", clicks)
        train = sim.PulseTrainConfig(300_000, PERIOD, MODE)
        return sim.simulate_pulse_train(st.thermal(2.0), detector, train, seed=13)

    @pytest.mark.parametrize("jitter", [0.0, 0.4e-9, sim._PULSE_BLOCK * PERIOD],
                             ids=["ideal", "jitter", "slice-wide"])
    def test_one_block_slices_give_the_one_slice_stream(self, monkeypatch, jitter):
        # 300,000 pulses are 3 blocks; the widest jitter is one block's span
        det = sim.DetectorModel(efficiency=0.6, timing_jitter_sigma=jitter, dead_time=1.5e-9)
        whole = self._train(monkeypatch, 1 << 62, det)
        sliced = self._train(monkeypatch, 1, det)
        assert sliced.n_clicks == whole.n_clicks > 150_000
        assert np.array_equal(sliced.pulse_index, whole.pulse_index)
        assert np.array_equal(sliced.times, whole.times)
        assert sliced.metadata == whole.metadata

    @pytest.mark.parametrize("clicks,slices", [(1 << 17, 3), (1 << 18, 2), (1 << 20, 1)])
    def test_click_budget_ends_a_slice_after_its_block(self, monkeypatch, clicks, slices):
        # ~157,000 clicks per block: a slice ends after the first block that
        # brings it to the budget, and the stream stays the one-slice one
        det = sim.DetectorModel(efficiency=0.6, timing_jitter_sigma=0.4e-9, dead_time=1.5e-9)
        whole = self._train(monkeypatch, 1 << 62, det)
        monkeypatch.setattr(sim, "_SLICE_CLICKS", clicks)
        train = sim.PulseTrainConfig(300_000, PERIOD, MODE)
        parts = list(sim._pulse_train_slices(st.thermal(2.0), det, train, 13))
        assert len(parts) == slices
        assert np.array_equal(np.concatenate([p.pulse_index for p in parts]),
                              whole.pulse_index)
        assert np.array_equal(np.concatenate([p.times for p in parts]), whole.times)

    def test_slices_are_the_global_stable_sort(self, monkeypatch):
        # the whole train's clicks in generation order, jittered, stably
        # sorted and filtered at once, as the simulator did before slices
        monkeypatch.setattr(sim, "_SLICE_CLICKS", 1)
        det = sim.DetectorModel(efficiency=0.6, timing_jitter_sigma=0.4e-9, dead_time=1.5e-9)
        train = sim.PulseTrainConfig(300_000, PERIOD, MODE)
        roots = derive_roots(13)
        cdf = np.cumsum(st.binomial_loss_pn(st.thermal(2.0).pn, det.efficiency))
        at = block_generators(roots[0])
        idx = np.concatenate([sim._pulse_block(cdf, lo, min(lo + sim._PULSE_BLOCK, 300_000),
                                               at(lo // sim._PULSE_BLOCK))
                              for lo in range(0, 300_000, sim._PULSE_BLOCK)])
        times = sim._arrival_sampler(MODE, block_generator(roots[4], 0))[0](idx.size)
        times += (idx + 0.5) * PERIOD
        times = times + block_generator(roots[3], 0).standard_normal(idx.size) * 0.4e-9
        order = np.argsort(times, kind="stable")
        want = _ref_dead_time_filter(idx[order], times[order], det.dead_time)
        got = sim.simulate_pulse_train(st.thermal(2.0), det, train, seed=13)
        assert np.array_equal(got.pulse_index, want[0])
        assert np.array_equal(got.times, want[1])

    def test_held_clicks_go_before_tied_later_ones(self):
        # a held click and a later slice's click at the same time keep
        # generation order, as the global stable sort does
        raw = iter([(np.array([0, 1]), np.array([1.0, 3.0]), 2.0),
                    (np.array([2]), np.array([3.0]), math.inf)])
        parts = list(sim._ordered_slices(raw, IDEAL, 0, "pulsed", None, None))
        assert [part.pulse_index.tolist() for part in parts] == [[0], [1, 2]]

    def test_a_click_before_an_emitted_one_stops_the_stream(self, monkeypatch):
        # with no margin, a jittered click of the next slice lands before
        # the last click emitted: the slices raise instead of reordering
        monkeypatch.setattr(sim, "_JITTER_MARGIN", 0.0)
        with pytest.raises(pg.StreamFormatError, match="precedes"):
            self._train(monkeypatch, 1, sim.DetectorModel(timing_jitter_sigma=5 * PERIOD))

    def test_stationary_chunks_are_slices(self):
        # 0.06 s of field is two chunks, each one slice; a 5 us dead time
        # (5 mean gaps) carried across them gives the per-click walk's
        # result on the whole jittered stream (on this seed the carried
        # time drops the first click after the boundary)
        cfg = sim.StationaryThermalConfig(1e6, 1e6, 0.06)
        det = sim.DetectorModel(timing_jitter_sigma=1e-8, dead_time=5e-6)
        parts = list(sim._stationary_thermal_slices(cfg, det, 11))
        free = sim.simulate_stationary_thermal(
            cfg, sim.DetectorModel(timing_jitter_sigma=1e-8), 11)
        want = _ref_dead_time_filter(free.pulse_index, free.times, 5e-6)[1]
        assert len(parts) == 2 and want.size < 0.2 * free.n_clicks
        assert np.array_equal(np.concatenate([p.times for p in parts]), want)
        for stream in (*parts, free):
            assert stream.pulse_index.strides == (0,) and stream.pulse_index[0] == -1
            assert not stream.pulse_index.flags.writeable


class TestStationaryPoisson:
    def test_dead_time_and_jitter_applied(self):
        det = sim.DetectorModel(timing_jitter_sigma=1e-9, dead_time=1e-6)
        stream = sim.simulate_stationary_poisson(1e6, 0.01, seed=3, detector=det)
        assert stream.n_clicks > 1000
        assert np.min(np.diff(stream.times)) >= 1e-6
        assert stream.metadata["detector"] == {
            "efficiency": 1.0, "timing_jitter_sigma": 1e-9, "dead_time": 1e-6}

    @pytest.mark.parametrize("det", [None, IDEAL, sim.DetectorModel(efficiency=0.3)])
    def test_ideal_timing_stream_unchanged(self, det):
        # the stream before the shared finisher: one Poisson total, sorted uniforms
        rng = block_generator(derive_roots(7)[0], 0)
        s = det.efficiency if det is not None else 1.0
        total = int(rng.poisson(1e5 * s * 0.1))
        reference = np.sort(rng.random(total)) * 0.1
        stream = sim.simulate_stationary_poisson(1e5, 0.1, seed=7, detector=det)
        np.testing.assert_array_equal(stream.times, reference)
        assert np.all(stream.pulse_index == -1) and stream.pulse_index.strides == (0,)

    def test_times_sort_alone(self):
        # 1e6 clicks: the times (8 MB) and the sort's scratch, no index array
        tracemalloc.start()
        try:
            stream = sim.simulate_stationary_poisson(1e6, 1.0, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stream.n_clicks > 990_000
        assert peak <= 1.3 * stream.n_clicks * 8


def test_sidecar_records_package_version(tmp_path):
    train = sim.PulseTrainConfig(100, PERIOD, MODE)
    stream = sim.simulate_pulse_train(st.coherent(0.5), IDEAL, train, seed=8)
    pg.write_stream(stream, tmp_path / "s.bin", fmt="binary")
    assert pg.read_stream(tmp_path / "s.bin").metadata["pulseg2"] == pg.__version__


def test_package_version_matches_project():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == pg.__version__


def test_numpy_floor_has_fft_out():
    # the field filter's np.fft.fft/ifft(..., out=) needs numpy 2.0
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    floor = [d[len("numpy>="):] for d in deps if d.startswith("numpy>=")]
    assert len(floor) == 1 and int(floor[0].split(".")[0]) >= 2


class TestDetectorValidation:
    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            sim.DetectorModel(efficiency=1.2)
        with pytest.raises(ValueError):
            sim.DetectorModel(efficiency=-0.1)

    def test_negative_jitter(self):
        with pytest.raises(ValueError):
            sim.DetectorModel(timing_jitter_sigma=-1.0)


@pytest.mark.parametrize("make,name", [
    (lambda: sim.DetectorModel(dead_time=math.nan), "dead_time"),
    (lambda: sim.PulseTrainConfig(100, math.inf, MODE), "repetition_period"),
    (lambda: sim.StationaryThermalConfig(math.nan, 1e6, 1.0), "mean_rate"),
    pytest.param(lambda: sim.simulate_stationary_poisson(math.inf, 1.0, seed=0),
                 "mean_rate", id="poisson-mean_rate"),
    pytest.param(lambda: sim.simulate_stationary_poisson(1e5, math.nan, seed=0),
                 "duration", id="poisson-duration"),
])
def test_non_finite_config_rejected(make, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make()


@pytest.mark.parametrize("make,message", [
    (lambda: sim.PulseTrainConfig(100, -1e-9, MODE), "repetition_period must be positive"),
    (lambda: sim.StationaryThermalConfig(-1.0, 1e6, 1.0), "rate must be >= 0"),
    (lambda: sim.StationaryThermalConfig(2e5, 1e6, 0.0), "duration positive"),
    (lambda: sim.simulate_stationary_poisson(-1.0, 1.0, seed=0), "rate must be >= 0"),
    (lambda: sim.simulate_stationary_poisson(1e5, 0.0, seed=0), "duration positive"),
], ids=["period", "thermal_rate", "thermal_duration", "poisson_rate", "poisson_duration"])
def test_out_of_range_config_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestAnalyticCurves:
    def test_pair_density_identity(self):
        # D(tau) must equal Ip^2 g2q eta(tau) / N bin for bin
        state = st.thermal(0.8)
        det = sim.DetectorModel(efficiency=0.6)
        n = 1000
        tau = np.linspace(-4 * WIDTH, 4 * WIDTH, 81)
        lhs = sim.analytic_D(state, det, MODE, n, tau)
        rhs = sim.analytic_Ip(state, det, n) ** 2 * st.g2q_from_moments(state) \
            * np.asarray(md.eta_numeric(MODE, tau)) / n
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_pair_density_single_photon_vanishes(self):
        tau = np.linspace(-3 * WIDTH, 3 * WIDTH, 11)
        assert np.all(sim.analytic_D(st.fock(1), IDEAL, MODE, 100, tau) == 0.0)

    def test_pair_density_reference_value(self):
        # thermal nbar=1, s=1, N=1 at tau=0: 2 * eta(0) = 2/sqrt(2 pi), width 1s
        val = sim.analytic_D(st.thermal(1.0), IDEAL, md.gaussian_mode(1.0), 1, 0.0)
        assert val == pytest.approx(0.7978845608028654, rel=1e-8)

    def test_total_intensity(self):
        det = sim.DetectorModel(efficiency=0.5)
        assert sim.analytic_Ip(st.coherent(0.2), det, 10**6) == pytest.approx(1e5)
        assert sim.analytic_Ip(st.fock(1), IDEAL, 1) == 1.0
        assert sim.analytic_Ip(st.thermal(2.0), sim.DetectorModel(efficiency=0.0), 10) == 0.0
