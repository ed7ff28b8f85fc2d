import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats as sps

import pulseg2 as pg
from pulseg2 import estimate as est
from pulseg2 import modes as md
from pulseg2 import simulate as sim
from pulseg2 import states as st
from pulseg2.errors import EstimationError
from pulseg2.streams import _MAX_PULSES

WIDTH = 1e-9
PERIOD = 12.5e-9
MODE = md.gaussian_mode(WIDTH)
IDEAL = sim.DetectorModel()
SAMPLED_T = np.arange(-6e-9, 6e-9, 1e-11)     # a sampled mode's grid, width/50 fine


def run_train(state, n, seed, s=1.0, mode=MODE, period=PERIOD):
    train = sim.PulseTrainConfig(n, period, mode)
    det = sim.DetectorModel(efficiency=s)
    return sim.simulate_pulse_train(state, det, train, seed=seed), train


def standard_hist(stream, mode=MODE):
    return est.tau_histogram(stream, mode.width / 20.0, 6.0 * mode.width)


def block_sums(stream, n, bin_width, max_tau):
    """Same-pulse pair counts per bin and clicks of the min(200, N)
    contiguous pulse blocks, each block histogrammed from its own clicks."""
    n_blocks = min(200, n)
    block = stream.pulse_index * n_blocks // n
    pairs = np.array([est.tau_histogram(
        pg.ClickStream(stream.pulse_index[block == b], stream.times[block == b],
                       {"kind": "pulsed"}), bin_width, max_tau).counts
        for b in range(n_blocks)])
    return pairs, np.bincount(block, minlength=n_blocks)


def delta_sigma(grad, columns):
    """sqrt(sum_u (grad . (x_u - mean x))^2) over the unit columns."""
    lin = np.asarray(grad) @ (columns - columns.mean(axis=1, keepdims=True))
    return math.sqrt(float(lin @ lin))


def eta_route_sigmas(stream, n, hist, shape, eta0):
    """D(0) and g2p sigmas of the shape fit, spread over the pulse blocks'
    shape-weighted pair sums and clicks."""
    pairs, clicks = block_sums(stream, n, hist.bin_width, hist.bin_edges[-1])
    assert np.array_equal(pairs.sum(axis=0), hist.counts)
    gain = eta0 / (hist.bin_width * float(shape @ shape))
    total = stream.n_clicks
    g2p = gain * float(shape @ hist.counts) / total**2
    stats = np.vstack([pairs @ shape, clicks])
    return (delta_sigma([gain, 0.0], stats),
            delta_sigma([gain / total**2, -2.0 * g2p / total], stats))


class TestTauHistogram:
    def test_single_photon_pulses_give_empty_histogram(self):
        stream, _ = run_train(st.fock(1), 20000, seed=1)
        hist = standard_hist(stream)
        assert hist.is_empty
        assert hist.counts.sum() == 0

    def test_empty_stream_is_valid_and_flagged(self):
        stream = pg.ClickStream(np.empty(0, np.int64), np.empty(0), {"kind": "pulsed"})
        hist = est.tau_histogram(stream, 1e-10, 1e-9)
        assert hist.is_empty
        assert hist.counts.size == 10

    def test_total_pair_count(self):
        # unordered same-pulse pairs: N s^2 F2 / 2 in expectation
        n, s = 200000, 0.7
        stream, _ = run_train(st.thermal(1.0), n, seed=2, s=s)
        hist = est.tau_histogram(stream, WIDTH / 20.0, 20.0 * WIDTH)
        expect = n * s**2 * st.second_factorial_moment(st.thermal(1.0)) / 2.0
        # variance of the per-pulse pair count dominates the band
        per_pulse = np.bincount(stream.pulse_index, minlength=n)
        pairs = per_pulse * (per_pulse - 1) / 2.0
        sigma = math.sqrt(n * pairs.var())
        assert abs(hist.counts.sum() - expect) < 5 * sigma

    def test_bin_expectations_match_pair_density(self):
        # pointwise 5 sigma plus a goodness-of-fit check at 1%
        n = 200000
        stream, train = run_train(st.coherent(1.0), n, seed=3)
        hist = standard_hist(stream)
        expect = sim.analytic_D(st.coherent(1.0), IDEAL, MODE, n, hist.centers) \
            * hist.bin_width
        resid = np.abs(hist.counts - expect) / np.sqrt(np.maximum(expect, 1.0))
        assert resid.max() < 5.0
        big = expect >= 10.0
        chi2 = float(((hist.counts[big] - expect[big]) ** 2 / expect[big]).sum())
        p = sps.chi2.sf(chi2, int(big.sum()))
        assert p > 0.01

    def test_same_pulse_needs_pulse_indices(self):
        stream = pg.simulate_stationary_poisson(1e5, 0.005, seed=1)
        with pytest.raises(ValueError, match="pulsed"):
            est.tau_histogram(stream, 1e-8, 1e-6, scope="same_pulse")

    @pytest.mark.parametrize("source", ["given", "sidecar"])
    def test_same_pulse_index_past_n_rejected(self, source):
        # an N below the largest index + 1 is an EstimationError naming N,
        # as in the pn route, not blocks widened to the indices
        stream, _ = run_train(st.coherent(0.5), 2000, seed=4)
        assert stream.pulse_index.max() >= 1000
        if source == "sidecar":
            stream = pg.ClickStream(stream.pulse_index, stream.times,
                                    {"kind": "pulsed", "train": {"num_pulses": 1000}})
        given = 1000 if source == "given" else None
        with pytest.raises(EstimationError, match="N = 1000 pulses"):
            est.tau_histogram(stream, 5e-11, 6e-9, num_pulses=given)
        with pytest.raises(EstimationError, match="N = 1000 pulses"):
            est.pn_histogram_g2q(stream, 1000)

    def test_scope_alias(self):
        # the all_pairs_within_max_tau alias is gone; it is one more unknown scope
        stream, _ = run_train(st.coherent(0.5), 1000, seed=4)
        with pytest.raises(ValueError):
            est.tau_histogram(stream, 1e-9, 50e-9, scope="all_pairs_within_max_tau")

    def test_bad_scope_rejected(self):
        stream, _ = run_train(st.coherent(0.5), 100, seed=4)
        with pytest.raises(ValueError):
            est.tau_histogram(stream, 1e-9, 1e-8, scope="adjacent")

    @pytest.mark.parametrize("name,args", [
        ("bin_width", (math.inf, 1e-8)), ("bin_width", (math.nan, 1e-8)),
        ("max_tau", (1e-9, math.inf)), ("max_tau", (1e-9, math.nan)),
        ("max_tau", (1e-9, -1e-8))])
    def test_non_finite_binning_names_it(self, name, args):
        stream, _ = run_train(st.coherent(0.5), 100, seed=4)
        with pytest.raises(ValueError, match=name):
            est.tau_histogram(stream, *args)

    @pytest.mark.parametrize("bin_width,max_tau", [(1e-30, 6e-9), (5e-11, 1e300),
                                                   (1.0, est._MAX_BINS + 1.0)])
    def test_bin_count_above_the_cap_rejected(self, bin_width, max_tau):
        stream, _ = run_train(st.coherent(0.5), 100, seed=4)
        assert est.tau_histogram(stream, 1.0, est._MAX_BINS).counts.size == est._MAX_BINS
        with pytest.raises(ValueError, match=f"more than {est._MAX_BINS}"):
            est.tau_histogram(stream, bin_width, max_tau)

    @pytest.mark.parametrize("scope,pulse,times,max_tau,units", [
        # a pulse index of 5e16, no sidecar pulse count
        ("same_pulse", [0, 5 * 10**16], [0.0, 1e-9], 1e-15, 5 * 10**16 + 1),
        # a 1000 s record cut into max_tau slices: 1e18, then inf, counted as 2**63
        ("all_pairs", [-1, -1], [0.0, 1000.0], 1e-15, int(1000.0 / 1e-15)),
        ("all_pairs", [-1, -1], [0.0, 1000.0], 1e-310, 2**63),
    ], ids=["pulse_units", "time_units", "time_units_inf"])
    def test_unit_count_above_the_bound_rejected(self, scope, pulse, times, max_tau,
                                                 units):
        # a unit index times 200 blocks would leave int64
        stream = pg.ClickStream(np.array(pulse, np.int64), np.array(times), {})
        with pytest.raises(ValueError, match=f"^{units} .* more than {_MAX_PULSES}$"):
            est.tau_histogram(stream, max_tau / 10.0, max_tau, scope=scope)

    @pytest.mark.parametrize("n", [0, -5, 2.5, 10**30])
    @pytest.mark.parametrize("call", [
        lambda stream, n: est.tau_histogram(stream, 5e-11, 6e-9, num_pulses=n),
        lambda stream, n: est.pn_histogram_g2q(stream, n),
        lambda stream, n: est.analyze_stream(stream, num_pulses=n, mode=MODE),
        # no walk runs on an empty stream, so its report checks N itself
        lambda stream, n: est.analyze_stream(
            pg.ClickStream(stream.pulse_index[:0], stream.times[:0], stream.metadata),
            num_pulses=n),
    ], ids=["tau_histogram", "pn_histogram_g2q", "analyze_stream", "analyze_empty_stream"])
    def test_pulse_count_outside_the_bound_named(self, call, n):
        # every walk's N is checked once, where its blocks are made: an N of
        # 0 no longer falls back to the sidecar's, nor a fraction to its floor
        stream, _ = run_train(st.coherent(0.5), 20000, seed=4)
        rule = f"more than {_MAX_PULSES}" if n == 10**30 else "N must be an integer >= 1"
        with pytest.raises(ValueError, match=re.escape(f"{n} pulse or time units") + ".*" + rule):
            call(stream, n)

    def test_unit_count_at_the_bound_walks(self):
        stream = pg.ClickStream(np.array([0, _MAX_PULSES - 1]), np.array([0.0, 1e-9]), {})
        hist = est.tau_histogram(stream, 1e-16, 1e-15)
        assert hist.block_clicks.tolist() == [1] + [0] * 198 + [1]

    def test_csv_export_with_expected_column(self, tmp_path):
        stream, _ = run_train(st.thermal(0.7), 5000, seed=5)
        hist = standard_hist(stream)
        expect = sim.analytic_D(st.thermal(0.7), IDEAL, MODE, 5000, hist.centers) \
            * hist.bin_width
        path = tmp_path / "hist.csv"
        hist.to_csv(path, expected=expect)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau_seconds,count,expected_analytic"
        assert len(lines) == 1 + hist.counts.size


class TestTotalCounts:
    def test_empty(self):
        stream = pg.ClickStream(np.empty(0, np.int64), np.empty(0), {"kind": "pulsed"})
        assert stream.n_clicks == 0

    def test_deterministic_source(self):
        stream, _ = run_train(st.fock(1), 100, seed=1)
        assert stream.n_clicks == 100

    def test_binomial_band(self):
        stream, _ = run_train(st.coherent(1.0), 10**5, seed=2, s=0.3)
        assert abs(stream.n_clicks - 3e4) < 5 * math.sqrt(3e4)


def analytic_filled_histogram(state, n, mode=MODE, bw=WIDTH / 20.0, max_tau=6.0 * WIDTH):
    nbins = int(round(max_tau / bw))
    edges = np.arange(nbins + 1) * bw
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = sim.analytic_D(state, IDEAL, mode, n, centers) * bw
    return est.TauHistogram(edges, counts, "same_pulse", counts[None],
                            np.zeros(1, dtype=np.int64))


class TestEstimateD0:
    def test_exact_on_its_own_model(self):
        hist = analytic_filled_histogram(st.thermal(1.0), 1000)
        d0, _ = est.estimate_D0(hist, MODE)
        truth = float(sim.analytic_D(st.thermal(1.0), IDEAL, MODE, 1000, 0.0))
        assert d0 == pytest.approx(truth, rel=1e-6)

    def test_hintless_fit_close_on_analytic_fill(self):
        # no hint: the Gaussian of the histogram's fitted width
        hist = analytic_filled_histogram(st.thermal(1.0), 1000)
        d0, _ = est.estimate_D0(hist)
        truth = float(sim.analytic_D(st.thermal(1.0), IDEAL, MODE, 1000, 0.0))
        assert d0 == pytest.approx(truth, rel=2e-3)

    def test_monte_carlo_within_three_sigma(self):
        n = 200000
        stream, _ = run_train(st.thermal(1.0), n, seed=6)
        d0, sig = est.estimate_D0(standard_hist(stream), MODE)
        truth = float(sim.analytic_D(st.thermal(1.0), IDEAL, MODE, n, 0.0))
        assert abs(d0 - truth) < 3 * sig

    def test_empty_histogram_zero_with_infinite_uncertainty(self):
        stream, _ = run_train(st.fock(1), 1000, seed=7)
        d0, sig = est.estimate_D0(standard_hist(stream))
        assert d0 == 0.0 and math.isinf(sig)

    def test_zero_fit_on_pairs_has_infinite_uncertainty(self):
        # a hint 1000x too narrow: every pair sits where its eta underflows,
        # so D(0) is exactly 0 on a nonempty histogram: three pulses of one
        # pair each, 1 ns apart, where the 1 ps hint's eta is 0
        pulse = np.repeat(np.arange(3), 2)
        times = (pulse + 0.5) * PERIOD + np.tile([0.0, 1e-9], 3)
        stream = pg.ClickStream(pulse, times, {"kind": "pulsed",
                                               "train": {"num_pulses": 3}})
        hist = est.tau_histogram(stream, 5e-11, 6e-9)
        hint = md.gaussian_mode(1e-12)
        assert hist.counts.sum() > 0
        assert est.estimate_D0(hist, hint) == (0.0, math.inf)
        assert est.g2p(stream, hist, hint) == (0.0, math.inf)

    def test_degenerate_fit_shape_rejected(self):
        # a 1 fs hint's eta underflows to 0 at every bin centre: no shape to fit
        stream, _ = run_train(st.thermal(1.0), 2000, seed=7)
        with pytest.raises(EstimationError, match="degenerate fit shape"):
            est.estimate_D0(standard_hist(stream), md.gaussian_mode(1e-15))

    def test_requires_same_pulse_scope(self):
        stream, _ = run_train(st.coherent(1.0), 1000, seed=8)
        hist = est.tau_histogram(stream, 1e-9, 50e-9, scope="all_pairs")
        with pytest.raises(ValueError):
            est.estimate_D0(hist)


class TestG2p:
    def test_reference_value_coherent(self):
        # g2q * eta(0) / N with width 1 s: 0.39894/1e4 per second
        n = 10000
        mode = md.gaussian_mode(1.0)
        stream, _ = run_train(st.coherent(1.0), n, seed=9, mode=mode, period=12.5)
        hist = standard_hist(stream, mode)
        val, sig = est.g2p(stream, hist, mode)
        assert abs(val - 3.989422804014327e-05) < 3 * sig
        assert sig < 0.15 * val

    def test_doubling_width_halves_g2p(self):
        n = 50000
        wide = md.gaussian_mode(2.0 * WIDTH)
        s1, _ = run_train(st.thermal(1.0), n, seed=10)
        s2, _ = run_train(st.thermal(1.0), n, seed=10, mode=wide, period=25e-9)
        v1, e1 = est.g2p(s1, standard_hist(s1), MODE)
        v2, e2 = est.g2p(s2, standard_hist(s2, wide), wide)
        ratio = v1 / v2
        sigma = ratio * math.hypot(e1 / v1, e2 / v2)
        assert abs(ratio - 2.0) < 3 * sigma

    def test_doubling_pulse_count_halves_g2p(self):
        s1, _ = run_train(st.thermal(1.0), 40000, seed=11)
        s2, _ = run_train(st.thermal(1.0), 80000, seed=12)
        v1, e1 = est.g2p(s1, standard_hist(s1), MODE)
        v2, e2 = est.g2p(s2, standard_hist(s2), MODE)
        ratio = v1 / v2
        sigma = ratio * math.hypot(e1 / v1, e2 / v2)
        assert abs(ratio - 2.0) < 3 * sigma

    def test_no_clicks_rejected(self):
        stream = pg.ClickStream(np.empty(0, np.int64), np.empty(0), {"kind": "pulsed"})
        hist = est.tau_histogram(stream, 1e-10, 1e-9)
        with pytest.raises(EstimationError):
            est.g2p(stream, hist)


class TestG2qRecovery:
    def test_gaussian_route_thermal(self):
        n = 200000
        stream, _ = run_train(st.thermal(0.5), n, seed=13, s=0.7)
        val, sig = est.recover_g2q_gaussian(stream, standard_hist(stream), n, WIDTH)
        assert abs(val - 2.0) < 3.5 * sig
        assert sig < 0.05

    def test_gaussian_route_with_fitted_width(self):
        n = 200000
        stream, _ = run_train(st.coherent(1.0), n, seed=14, s=0.8)
        val, sig = est.recover_g2q_gaussian(stream, standard_hist(stream), n)
        assert abs(val - 1.0) < 3.5 * sig

    def test_general_equals_gaussian_for_gaussian_mode(self):
        n = 50000
        stream, _ = run_train(st.thermal(1.0), n, seed=15)
        hist = standard_hist(stream)
        a, _ = est.recover_g2q_gaussian(stream, hist, n, WIDTH)
        b, _ = est.recover_g2q_general(stream, hist, n, MODE)
        assert a == pytest.approx(b, rel=1e-8)

    def test_gaussian_route_matches_closed_form(self):
        # eta(0) = 1 / (sqrt(2 pi) dt_p): quadrature agrees to 1e-8 relative
        n = 50000
        stream, _ = run_train(st.thermal(1.0), n, seed=15)
        hist = standard_hist(stream)
        total = stream.n_clicks
        d0, _ = est.estimate_D0(hist, MODE)
        eta0 = 1.0 / (math.sqrt(2.0 * math.pi) * WIDTH)
        _, g2p_sigma = eta_route_sigmas(stream, n, hist,
                                        md.eta_gaussian(WIDTH, hist.centers), eta0)
        factor = n / eta0
        want = (factor * d0 / total**2, factor * g2p_sigma)
        got = est.recover_g2q_gaussian(stream, hist, n, WIDTH)
        assert got == pytest.approx(want, rel=1e-8)

    def test_pulsed_bunching_identity_is_algebraic(self):
        n = 50000
        stream, _ = run_train(st.thermal(1.0), n, seed=16)
        hist = standard_hist(stream)
        eta0 = md.eta_numeric(MODE, 0.0)
        v_p, _ = est.g2p(stream, hist, MODE)
        v_q, _ = est.recover_g2q_general(stream, hist, n, MODE)
        assert abs(v_p * n / eta0 - v_q) <= 1e-12 * v_q

    def test_hermite_gauss_mode_recovery(self):
        n = 200000
        mode = md.hermite_gauss_mode(1, WIDTH)
        stream, _ = run_train(st.thermal(1.0), n, seed=17, period=25e-9, mode=mode)
        hist = est.tau_histogram(stream, WIDTH / 20.0, 10.0 * WIDTH)
        val, sig = est.recover_g2q_general(stream, hist, n, mode)
        assert abs(val - 2.0) < max(3.5 * sig, 0.1)

    def test_sampled_asymmetric_mode_recovery(self):
        h = 2e-11
        t = np.arange(-8e-9, 8e-9 + h / 2, h)
        v = np.exp(-((t - 1e-9) ** 2) / (2 * (0.8e-9) ** 2)) \
            + 0.5 * np.exp(-((t + 1.5e-9) ** 2) / (2 * (0.5e-9) ** 2))
        mode = md.sampled_mode(t, v.astype(complex))
        n = 200000
        stream, _ = run_train(st.coherent(1.0), n, seed=18, period=40e-9, mode=mode)
        hist = est.tau_histogram(stream, 1e-10, 8e-9)
        val, sig = est.recover_g2q_general(stream, hist, n, mode)
        assert abs(val - 1.0) < max(3.5 * sig, 0.05)

    @pytest.mark.parametrize("mode", [
        MODE, md.gaussian_mode(WIDTH, center=3e-10), md.hermite_gauss_mode(3, WIDTH),
        md.sampled_mode(SAMPLED_T, np.exp(-SAMPLED_T**2 / (2 * WIDTH**2))),
    ], ids=["gauss", "gauss_off_centre", "hg3", "sampled"])
    def test_recovery_takes_the_reports_eta0(self, mode):
        # one evaluation of eta gives the fit shape and eta(0), in both
        n = 20000
        stream, _ = run_train(st.thermal(1.0), n, seed=19, period=40e-9, mode=mode)
        report = est.analyze_stream(stream, mode=mode)
        assert est.recover_g2q_general(stream, report.histogram, n, mode) == \
            (report.g2q_eta, report.g2q_eta_sigma)

    def test_error_paths(self):
        stream = pg.ClickStream(np.empty(0, np.int64), np.empty(0), {"kind": "pulsed"})
        hist = est.tau_histogram(stream, 1e-10, 1e-9)
        with pytest.raises(EstimationError, match="width"):
            est.recover_g2q_gaussian(stream, hist, 100)


class TestPnHistogram:
    def test_single_photon_source(self):
        n = 200000
        stream, _ = run_train(st.fock(1), n, seed=19, s=0.4)
        val, sig = est.pn_histogram_g2q(stream, n)
        assert val == 0.0
        assert sig <= 0.01
        # no pair: the sigma is the value one pair would give, 2N/M^2
        assert 0.0 < sig == pytest.approx(2.0 * n / stream.n_clicks**2, rel=1e-12)

    def test_loss_does_not_bias_thermal(self):
        n = 200000
        stream, _ = run_train(st.thermal(1.0), n, seed=20, s=0.3)
        val, sig = est.pn_histogram_g2q(stream, n)
        assert abs(val - 2.0) < 3.5 * sig
        assert sig < 0.1

    def test_coherent(self):
        n = 200000
        stream, _ = run_train(st.coherent(2.0), n, seed=21, s=0.5)
        val, sig = est.pn_histogram_g2q(stream, n)
        assert abs(val - 1.0) < 3.5 * sig
        assert sig < 0.02

    def test_accepts_train_config(self):
        stream, train = run_train(st.coherent(1.0), 5000, seed=22)
        v1, _ = est.pn_histogram_g2q(stream, train)
        v2, _ = est.pn_histogram_g2q(stream, 5000)
        assert v1 == v2

    def test_no_clicks_rejected(self):
        stream = pg.ClickStream(np.empty(0, np.int64), np.empty(0), {"kind": "pulsed"})
        with pytest.raises(EstimationError):
            est.pn_histogram_g2q(stream, 100)

    def test_single_pulse_sigma_is_infinite(self):
        stream = pg.ClickStream(np.zeros(3, np.int64), np.array([1e-9, 2e-9, 3e-9]),
                                {"kind": "pulsed"})
        assert est.pn_histogram_g2q(stream, 1) == (6.0 / 9.0, math.inf)

    def test_index_beyond_train_names_n(self):
        stream, _ = run_train(st.coherent(1.0), 5000, seed=22)
        with pytest.raises(EstimationError, match="N = 1000 "):
            est.pn_histogram_g2q(stream, 1000)

    @staticmethod
    def reference(stream, n_pulses):
        """The route over the `_blocks` pulse blocks, each block's pairs
        sum m(m-1)/2 and clicks sum m from np.unique's click numbers m."""
        pulses, m = np.unique(stream.pulse_index, return_counts=True)
        block, n_blocks = est._blocks(pulses, n_pulses)
        stats = np.array([np.bincount(block, m * (m - 1) // 2, n_blocks),
                          np.bincount(block, m, n_blocks)])
        pairs, clicks = 2.0 * stats[0].sum(), stats[1].sum()
        val = float(pairs / n_pulses / (clicks / n_pulses) ** 2)
        grad = (2.0 * n_pulses / clicks**2, -2.0 * n_pulses * pairs / clicks**3)
        return val, est._linearized_sigma(grad, stats)

    @pytest.mark.parametrize("slice_len", [1, 7, 64, None])
    @pytest.mark.parametrize("n_pulses,jitter", [
        (20000, 0.0), (20000, 4e-9), (150, 0.0), (150, 4e-9), (1237, 0.0), (1237, 4e-9),
    ], ids=["sorted", "jittered", "150_sorted", "150_jittered", "1237_sorted",
            "1237_jittered"])
    def test_runs_in_slices_match_unique_counts(self, monkeypatch, slice_len, n_pulses,
                                                jitter):
        # 4 ns jitter reorders the pulse indices of a 12.5 ns train; 150
        # pulses make 150 one-pulse blocks, and 1237 is no multiple of 200
        train = sim.PulseTrainConfig(n_pulses, PERIOD, MODE)
        det = sim.DetectorModel(efficiency=0.5, timing_jitter_sigma=jitter)
        state = st.thermal(2.0 if n_pulses == 20000 else 20.0)
        stream = sim.simulate_pulse_train(state, det, train, seed=23)
        assert (np.any(np.diff(stream.pulse_index) < 0)) == (jitter > 0)
        if slice_len is not None:
            monkeypatch.setattr(est, "_PAIR_SLICE", slice_len)
        assert est.pn_histogram_g2q(stream, train) == self.reference(stream, n_pulses)
        # the report's one walk gives the same rows
        report = est.analyze_stream(stream, mode=MODE)
        assert (report.g2q_pn, report.g2q_pn_sigma) == self.reference(stream, n_pulses)

    def test_clicks_row_is_the_histogram_blocks(self):
        # the sidecar's N gives the pn route and the eta route one set of blocks
        stream, train = run_train(st.thermal(1.0), 30011, seed=29, s=0.5)
        counts, pairs, clicks = est._same_pulse_counts(stream, train.num_pulses)
        assert counts.shape == (200, 0) and pairs.shape == clicks.shape == (200,)
        assert np.array_equal(clicks, standard_hist(stream).block_clicks)

    def test_report_blocks_both_routes_by_its_n(self):
        # no sidecar N and a last click in pulse 30,009 of 30,011: the
        # report's histogram blocks by the N it reports, as the pn route
        # does, not by the largest index + 1
        stream, _ = run_train(st.thermal(1.0), 30011, seed=29, s=0.5)
        keep = stream.pulse_index < 30010
        bare = pg.ClickStream(stream.pulse_index[keep], stream.times[keep],
                              {"kind": "pulsed"})
        assert bare.pulse_index.max() == 30009
        report = est.analyze_stream(bare, num_pulses=30011, mode=MODE)
        clicks = est._same_pulse_counts(bare, 30011)[2]
        assert report.N == 30011
        assert np.array_equal(report.histogram.block_clicks, clicks)
        assert not np.array_equal(standard_hist(bare).block_clicks, clicks)

    def test_pulse_count_above_the_bound_rejected(self):
        stream = pg.ClickStream(np.array([0, 0, 1]), np.array([1e-9, 2e-9, 3e-8]),
                                {"kind": "pulsed"})
        with pytest.raises(ValueError, match="more than"):
            est.pn_histogram_g2q(stream, _MAX_PULSES + 1)
        assert est.pn_histogram_g2q(stream, _MAX_PULSES)[0] > 0


class TestSidePeak:
    def test_coherent(self):
        n = 200000
        stream, train = run_train(st.coherent(1.0), n, seed=23, s=0.5)
        val, sig = est.g2_sidepeak(stream, train, window=3e-9)
        assert abs(val - 1.0) < max(3.5 * sig, 0.04)

    def test_single_photon_central_peak_absent(self):
        n = 200000
        stream, train = run_train(st.fock(1), n, seed=24, s=0.5)
        val, sig = est.g2_sidepeak(stream, train, window=3e-9)
        assert val == 0.0
        assert sig <= 0.01
        # no central pair: the sigma is the value one pair would give, 2/S
        # with S ~ N s^2 = N/4 side-peak pairs
        assert 0.0 < sig == pytest.approx(8.0 / n, rel=0.03)

    def test_window_validation(self):
        stream, train = run_train(st.coherent(1.0), 1000, seed=25)
        with pytest.raises(ValueError):
            est.g2_sidepeak(stream, train, window=10e-9)  # > period/2

    @pytest.mark.parametrize("n_side", [0, -1, 2.5, 3.0, "3", None])
    def test_n_side_must_be_a_positive_integer(self, n_side):
        stream, train = run_train(st.coherent(1.0), 1000, seed=25)
        with pytest.raises(ValueError, match="n_side"):
            est.g2_sidepeak(stream, train, window=3e-9, n_side=n_side)

    def test_short_train_rejected(self):
        stream, train = run_train(st.coherent(1.0), 3, seed=26)
        with pytest.raises(EstimationError, match="side"):
            est.g2_sidepeak(stream, train, window=3e-9, n_side=3)

    def test_stationary_stream_rejected(self):
        stream = sim.simulate_stationary_poisson(2e5, 0.01, seed=27)
        train = sim.PulseTrainConfig(1000, PERIOD, MODE)
        with pytest.raises(ValueError, match="requires a pulsed stream"):
            est.g2_sidepeak(stream, train, window=3e-9)

    def test_train_config_required(self):
        stream, _ = run_train(st.coherent(1.0), 1000, seed=25)
        with pytest.raises(TypeError, match="PulseTrainConfig"):
            est.g2_sidepeak(stream, 1000, window=3e-9)

    def test_index_beyond_train_names_n(self):
        stream, _ = run_train(st.coherent(1.0), 5000, seed=22)
        short = sim.PulseTrainConfig(1000, PERIOD, MODE)
        with pytest.raises(EstimationError, match="N = 1000 "):
            est.g2_sidepeak(stream, short, window=3e-9)


class TestCoverage:
    """Pulls (estimate - truth) / sigma over seeds: calibrated sigmas give
    mean ~ 0 and standard deviation ~ 1, on the pn, side-peak and eta routes."""

    # coherent:0.02 at 4e5 pulses leaves ~20 pairs a record, where the
    # linearized sigmas are first trusted
    @pytest.mark.parametrize("spec,truth,n", [("thermal:0.5", 2.0, 100000),
                                              ("coherent:1", 1.0, 100000),
                                              ("coherent:0.02", 1.0, 400000)],
                             ids=["thermal:0.5-2.0", "coherent:1-1.0", "coherent:0.02-1.0"])
    def test_pn_and_sidepeak_pulls(self, spec, truth, n):
        state = st.parse_state_spec(spec)
        pulls = {"pn": [], "sidepeak": [], "eta": []}
        for seed in range(400):
            stream, train = run_train(state, n, seed=seed, s=0.5)
            val, sig = est.pn_histogram_g2q(stream, train)
            pulls["pn"].append((val - truth) / sig)
            val, sig = est.g2_sidepeak(stream, train, window=3e-9)
            pulls["sidepeak"].append((val - truth) / sig)
            val, sig = est.recover_g2q_general(stream, standard_hist(stream), n, MODE)
            pulls["eta"].append((val - truth) / sig)
        for route, p in pulls.items():
            assert abs(np.mean(p)) < 0.3, route
            assert 0.8 <= np.std(p, ddof=1) <= 1.2, route

    def test_stationary_g2_zero_pulls(self):
        # chaotic light: g2(0) = 2; sigmas spread over the time blocks.  200
        # seeds put |mean| < 0.3 at 4.2 standard errors of a unit-s.d. pull
        # (178 seeds for 4), where 60 seeds put it at 2.3, which about one
        # stream layout in 50 failed by chance
        pulls = []
        for seed in range(200):
            cfg = sim.StationaryThermalConfig(5e5, 1e6, 0.02)
            stream = sim.simulate_stationary_thermal(cfg, IDEAL, seed=seed)
            val, sig = est.stationary_conditional_probability(stream, 2e-8, 5e-6) \
                .g2_zero(3e-6)
            pulls.append((val - 2.0) / sig)
        assert abs(np.mean(pulls)) < 0.3
        assert 0.8 <= np.std(pulls, ddof=1) <= 1.2


class TestOrdering:
    def test_states_order_correctly(self):
        n = 200000
        results = {}
        for name, state in [("fock2", st.fock(2)), ("coherent", st.coherent(1.0)),
                            ("thermal", st.thermal(1.0))]:
            stream, _ = run_train(state, n, seed=27, s=0.5)
            val, sig = est.recover_g2q_gaussian(stream, standard_hist(stream), n, WIDTH)
            results[name] = (val, sig)
        f, c, t = results["fock2"], results["coherent"], results["thermal"]
        assert f[0] + math.hypot(f[1], c[1]) < c[0]
        assert c[0] + math.hypot(c[1], t[1]) < t[0]


class TestAnalyzeStream:
    def test_report_fields_and_self_consistency(self):
        n = 100000
        stream, _ = run_train(st.thermal(0.5), n, seed=28, s=0.5)
        report = est.analyze_stream(stream)
        payload = json.loads(report.to_json())
        for key in ("g2q_analytic", "g2q_eta", "g2q_pn", "g2p", "eta0_per_second",
                    "Ip", "N", "D0_per_second"):
            assert key in payload
        assert payload["N"] == n
        assert payload["g2q_analytic"] == pytest.approx(2.0, rel=1e-10)
        # the eta route is by construction g2p * N / eta(0)
        assert report.g2q_eta == pytest.approx(
            report.g2p * n / report.eta0_per_second, rel=1e-12)
        assert abs(report.g2q_eta - report.g2q_pn) \
            < 3.5 * math.hypot(report.g2q_eta_sigma, report.g2q_pn_sigma)

    def test_empty_stream_flagged_not_fatal(self):
        stream = pg.ClickStream(np.empty(0, np.int64), np.empty(0),
                                {"kind": "pulsed", "train": {"num_pulses": 100,
                                                             "repetition_period": PERIOD}})
        report = est.analyze_stream(stream)
        assert report.N == 100 and report.flags == ["empty_stream"]
        assert est.analyze_stream(stream, num_pulses=100).N == 100
        assert report.Ip == 0.0
        assert report.g2p is None
        json.loads(report.to_json())  # serializable with nulls

    def test_stationary_stream_rejected(self):
        stream = sim.simulate_stationary_poisson(2e5, 0.01, seed=27)
        with pytest.raises(ValueError, match="handles pulsed streams"):
            est.analyze_stream(stream, num_pulses=1000, mode=MODE)

    def test_wrong_width_hint_flags_and_biases(self):
        from scipy.integrate import quad
        n = 100000
        stream, _ = run_train(st.coherent(1.0), n, seed=29)
        wrong = md.gaussian_mode(2.0 * WIDTH)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # the flag is the only report
            report = est.analyze_stream(stream, mode=wrong)
        assert "width_mismatch" in report.flags
        # a wrong hint corrupts g2q_eta multiplicatively: the least-squares
        # amplitude picks up the overlap of the assumed and true shapes
        eta_t = lambda u: math.exp(-u**2 / (2 * WIDTH**2))
        eta_w = lambda u: math.exp(-u**2 / (2 * (2 * WIDTH) ** 2))
        top, _ = quad(lambda u: eta_w(u) * eta_t(u), 0, 6 * WIDTH)
        bot, _ = quad(lambda u: eta_w(u) ** 2, 0, 6 * WIDTH)
        bias = 2.0 * top / bot  # peak-height ratio of the shapes times overlap
        assert bias == pytest.approx(2.0 * math.sqrt(0.4), rel=1e-3)
        assert report.g2q_eta == pytest.approx(bias, rel=0.05)
        # hg:0 is the same mode: the same width check, flag and bias
        hg0 = est.analyze_stream(stream, mode=md.hermite_gauss_mode(0, 2.0 * WIDTH))
        assert "width_mismatch" in hg0.flags
        assert hg0.g2q_eta == pytest.approx(report.g2q_eta, rel=1e-6)

    @pytest.mark.parametrize("dead_time", [0.0, 2e-10])
    def test_dead_time_flagged(self, dead_time):
        # thermal:1 (g2q = 2): 0.2 ns of dead time drops the close pairs and
        # reads both routes low, with no other flag to say so
        train = sim.PulseTrainConfig(20000, PERIOD, MODE)
        det = sim.DetectorModel(dead_time=dead_time)
        stream = sim.simulate_pulse_train(st.thermal(1.0), det, train, seed=32)
        report = est.analyze_stream(stream)
        assert ("dead_time_biased" in report.flags) == (dead_time > 0)
        if dead_time:
            assert report.g2q_pn < 2.0 - 10 * report.g2q_pn_sigma
        empty = pg.ClickStream(np.empty(0, np.int64), np.empty(0), stream.metadata)
        assert ("dead_time_biased" in est.analyze_stream(empty).flags) == (dead_time > 0)

    def test_overlay_models_the_sidecar_light(self):
        # D(tau) * bin_width for the stream's own light and N, whatever state
        # or N the report is given
        stream, _ = run_train(st.thermal(0.5), 20000, seed=33, s=0.5)
        report = est.analyze_stream(stream)
        hist = report.histogram
        assert np.array_equal(report.expected, sim.analytic_D(
            st.thermal(0.5), sim.DetectorModel(efficiency=0.5), MODE, 20000,
            hist.centers) * hist.bin_width)
        hinted = est.analyze_stream(stream, state=st.coherent(1.0), num_pulses=30000)
        assert np.array_equal(hinted.expected, report.expected)
        # an in-memory detector that does not build gives none, and no flag
        bad = pg.ClickStream(stream.pulse_index, stream.times,
                             {**stream.metadata, "detector": {"gain": 1.0}})
        broken = est.analyze_stream(bad)
        assert broken.expected is None and broken.flags == report.flags

    def test_unparsed_sidecar_mode_label_flagged(self):
        # an API-built sampled mode is labelled "sampled:<array>"
        t = np.linspace(-8e-9, 8e-9, 1601)
        mode = md.sampled_mode(t, np.exp(-t**2 / (2 * WIDTH**2)))
        stream, _ = run_train(st.coherent(1.0), 20000, seed=31, mode=mode,
                              period=40e-9)
        report = est.analyze_stream(stream)
        assert "mode_label_unparsed" in report.flags
        assert "width_fitted_from_histogram" in report.flags
        assert report.expected is None
        assert abs(report.g2q_eta - 1.0) < 4 * report.g2q_eta_sigma

    def test_round_trip_from_disk(self, tmp_path):
        n = 50000
        stream, _ = run_train(st.coherent(1.0), n, seed=30, s=0.6)
        path = tmp_path / "s.csv"
        pg.write_stream(stream, path)
        back = pg.read_stream(path)
        report = est.analyze_stream(back)
        assert abs(report.g2q_eta - 1.0) < 3.5 * report.g2q_eta_sigma


def composed_report(stream, n, mode, bin_width, max_tau):
    """The report's numbers from public calls on the formulas of the
    separate routes: D(0) fitted per route, g2q_eta = N D0 / (Ip^2 eta(0)),
    the D(0) and g2p sigmas as delta-method spreads over the pulse blocks'
    shape-weighted pairs and clicks, the pn histogram from per-pulse
    counts and its sigma as the delta-method spread of N F / M^2 over
    the same pulse blocks' pairs and clicks, eta(0) of a fitted width in
    closed form."""
    hist = est.tau_histogram(stream, bin_width, max_tau)
    fitted = est.fit_pulse_width(hist)
    hint = mode or md.gaussian_mode(fitted)
    # estimate_D0 evaluates eta once on [0, centers...]; equal to two calls
    assert np.array_equal(
        md.eta_numeric(hint, np.concatenate([[0.0], hist.centers])),
        np.concatenate([[md.eta_numeric(hint, 0.0)], md.eta_numeric(hint, hist.centers)]))
    d0, _ = est.estimate_D0(hist, hint)
    total = stream.n_clicks
    g2p = d0 / total**2
    eta0 = md.eta_numeric(hint, 0.0)
    sd, g2p_sigma = eta_route_sigmas(stream, n, hist,
                                     md.eta_numeric(hint, hist.centers), eta0)
    g2q_eta = n * d0 / (total**2 * eta0)
    g2q_eta_sigma = (n / eta0) * g2p_sigma
    m = stream.counts_per_pulse(n)
    h = np.bincount(m).astype(float)
    nn = np.arange(h.size, dtype=float)
    pair_w = nn * (nn - 1.0)
    pn = float((pair_w @ h) / n / ((nn @ h) / n) ** 2)
    f, mm = float(np.sum(m * (m - 1.0))), float(np.sum(m))
    n_blocks = min(200, n)
    block = np.arange(n) * n_blocks // n
    per_block = np.array([np.bincount(block, m * (m - 1.0) / 2.0, n_blocks),
                          np.bincount(block, m, n_blocks)])
    pn_sigma = delta_sigma([2.0 * n / mm**2, -2.0 * n * f / mm**3], per_block)
    return dict(hist=hist, D0=(d0, sd), g2p=(g2p, g2p_sigma),
                g2q_eta=(g2q_eta, g2q_eta_sigma), pn=(pn, pn_sigma),
                eta0=eta0 if mode else md.eta_gaussian(fitted, 0.0))


class TestAnalyzeStreamReference:
    """analyze_stream fits D(0) once and rescales g2p for g2q_eta; the
    composed routes give the same numbers."""

    def check(self, report, ref, eta0_rel):
        assert np.array_equal(report.histogram.bin_edges, ref["hist"].bin_edges)
        assert np.array_equal(report.histogram.counts, ref["hist"].counts)
        assert report.D0_per_second == ref["D0"][0]
        assert report.D0_sigma == pytest.approx(ref["D0"][1], rel=1e-12)
        assert report.g2p == ref["g2p"][0]
        assert report.g2p_sigma == pytest.approx(ref["g2p"][1], rel=1e-12)
        assert report.g2q_pn == ref["pn"][0]
        assert report.g2q_pn_sigma == pytest.approx(ref["pn"][1], rel=1e-12)
        assert (report.g2q_eta, report.g2q_eta_sigma) == pytest.approx(
            ref["g2q_eta"], rel=1e-12)
        assert report.eta0_per_second == pytest.approx(ref["eta0"], rel=eta0_rel, abs=0)

    def test_thermal_gaussian(self):
        n = 50000
        stream, _ = run_train(st.thermal(0.5), n, seed=40, s=0.5)
        report = est.analyze_stream(stream)
        self.check(report, composed_report(stream, n, MODE, WIDTH / 20.0, 6.0 * WIDTH), 0)

    def test_coherent_hermite_gauss(self):
        n = 50000
        mode = md.hermite_gauss_mode(1, WIDTH)
        stream, _ = run_train(st.coherent(1.0), n, seed=41, period=25e-9, mode=mode)
        report = est.analyze_stream(stream)
        self.check(report, composed_report(stream, n, mode, WIDTH / 20.0, 6.0 * WIDTH), 0)

    def test_fitted_width_without_mode(self):
        n = 50000
        stream, _ = run_train(st.thermal(0.5), n, seed=42, s=0.5)
        meta = {k: v for k, v in stream.metadata.items() if k != "mode"}
        bare = pg.ClickStream(stream.pulse_index, stream.times, meta)
        report = est.analyze_stream(bare, bin_width=WIDTH / 20.0, max_tau=6.0 * WIDTH)
        assert "width_fitted_from_histogram" in report.flags
        self.check(report, composed_report(bare, n, None, WIDTH / 20.0, 6.0 * WIDTH),
                   1e-8)


class TestStationaryCurve:
    def test_poisson_control_is_flat(self):
        stream = pg.simulate_stationary_poisson(2e5, 1.0, seed=31)
        curve = est.stationary_conditional_probability(stream, 2e-8, 5e-6)
        ratio = curve.g2_zero(2e-6)[0]
        assert abs(ratio - 1.0) < 0.05
        assert curve.baseline(2e-6) == pytest.approx(2e5, rel=0.02)

    def test_empty_stream_rejected(self):
        stream = pg.ClickStream(np.empty(0, np.int64), np.empty(0),
                                {"kind": "stationary"})
        with pytest.raises(EstimationError):
            est.stationary_conditional_probability(stream, 1e-8, 1e-6)

    def test_peak_to_baseline_is_the_g2_zero_value(self):
        stream = pg.simulate_stationary_poisson(2e5, 0.05, seed=35)
        curve = est.stationary_conditional_probability(stream, 2e-8, 5e-6)
        for tau_from in (2e-6, 3e-6, 4.5e-6):
            peak_to_baseline = curve.pc[0] / curve.baseline(tau_from)
            assert curve.g2_zero(tau_from)[0] == pytest.approx(peak_to_baseline, rel=1e-12)

    def test_zero_baseline_is_estimation_error(self):
        stream = pg.ClickStream(np.full(2, -1, np.int64), np.array([0.1, 0.9]),
                                {"kind": "stationary"})
        curve = est.stationary_conditional_probability(stream, 2e-8, 5e-6)
        with pytest.raises(EstimationError, match="baseline"):
            curve.g2_zero(3e-6)

    def test_no_central_pair_sigma_is_the_one_pair_value(self):
        # 1,910 clicks at 2e3/s leave the 10 ns bin 0 empty: the sigma is K/B,
        # the value one pair gives, as on the pn and side-peak routes
        stream = pg.simulate_stationary_poisson(2e3, 1.0, seed=5)
        val, sig = est.stationary_g2_zero(stream, 1e-8, 1e-4, 5e-5)
        curve = est.stationary_conditional_probability(stream, 1e-8, 1e-4)
        sel = curve.tau >= 5e-5
        assert val == 0.0
        assert math.isfinite(sig) and sig > 0
        k_over_b = sel.sum() / curve.block_counts[:, sel].sum()
        assert sig == pytest.approx(k_over_b, rel=1e-12)

    def test_baseline_must_start_past_bin_zero(self):
        stream = pg.simulate_stationary_poisson(2e5, 0.01, seed=36)
        curve = est.stationary_conditional_probability(stream, 2e-8, 5e-6)
        with pytest.raises(ValueError, match="baseline_from"):
            curve.g2_zero(1e-8)

    def test_start_stop_mode_shows_exponential_bias(self):
        # adjacent gaps of a constant-rate process have density
        # rate * exp(-rate * tau), so the start-stop curve decays where
        # the all-pairs curve stays flat: the documented high-rate bias
        rate = 2e5
        stream = pg.simulate_stationary_poisson(rate, 2.0, seed=33)
        bw, max_tau = 2e-7, 2e-5
        ss = est.tau_histogram(stream, bw, max_tau, scope="start_stop")
        ss_pc = ss.counts / (stream.n_clicks * bw)
        expect = rate * np.exp(-rate * ss.centers)
        sigma = np.sqrt(expect / (bw * stream.n_clicks))  # Poisson bin errors
        sel = expect * bw * stream.n_clicks > 100
        assert np.all(np.abs(ss_pc[sel] - expect[sel]) < 5 * sigma[sel])
        ap = est.stationary_conditional_probability(stream, bw, max_tau)
        assert ap.pc[sel].mean() == pytest.approx(rate, rel=0.02)
        assert ss_pc[-1] < 0.1 * ap.pc[-1]

    def test_infinite_max_tau_names_it(self):
        stream = pg.simulate_stationary_poisson(1e4, 0.01, seed=34)
        with pytest.raises(ValueError, match="max_tau"):
            est.stationary_g2_zero(stream, 1e-7, math.inf, 1e-6)



class TestSlicedStreams:
    """A binary stream on disk, read a slice at a time, against the same
    stream in memory: every count, value and sigma is the same."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sliced")
        jittered = sim.simulate_pulse_train(
            st.thermal(1.0), sim.DetectorModel(efficiency=0.8, timing_jitter_sigma=4e-9),
            sim.PulseTrainConfig(4000, PERIOD, MODE), seed=31)
        light = sim.StationaryThermalConfig(2e5, 1e6, 0.02, spectral_shape="lorentzian")
        stationary = sim.simulate_stationary_thermal(light, sim.DetectorModel(efficiency=0.5),
                                                     seed=32)
        streams = {"jittered": jittered, "stationary": stationary}
        for name, stream in streams.items():
            pg.write_stream(stream, out / f"{name}.bin", fmt="binary")
        return {name: (stream, out / f"{name}.bin") for name, stream in streams.items()}

    @staticmethod
    def outcomes(stream, train=None):
        """Every estimator's arrays and values on ``stream``."""
        out = []
        if train is not None:
            for scope in ("same_pulse", "all_pairs", "start_stop"):
                hist = est.tau_histogram(stream, 1e-10, 4 * PERIOD, scope, train.num_pulses)
                out += [hist.counts, hist.block_counts, hist.block_clicks]
            report = est.analyze_stream(stream)
            out += [report.to_json(), report.histogram.block_counts,
                    est.g2_sidepeak(stream, train, 3e-9), est.pn_histogram_g2q(stream, train),
                    est._within_pulse_spread(stream)]
        else:
            curve = est.stationary_conditional_probability(stream, 2e-8, 5e-6)
            out += [curve.pc, curve.block_counts, curve.g2_zero(3e-6),
                    est.stationary_g2_zero(stream, 2e-8, 5e-6, 3e-6)]
        return out

    @pytest.mark.parametrize("name", ["jittered", "stationary"])
    @pytest.mark.parametrize("slice_len", [7, 64, 1000])
    def test_sliced_file_gives_the_in_memory_results(self, monkeypatch, files, name,
                                                     slice_len):
        stream, path = files[name]
        train = (sim.PulseTrainConfig(4000, PERIOD, MODE) if name == "jittered" else None)
        want = self.outcomes(stream, train)
        monkeypatch.setattr(pg.streams, "_IO_SLICE", slice_len)
        monkeypatch.setattr(est, "_PAIR_SLICE", slice_len)
        for got in (self.outcomes(pg.streams._open_stream(path), train),
                    self.outcomes(stream, train)):
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

    def test_within_pulse_spread_is_numpys(self, monkeypatch, files):
        # every offset, then every k-th record's: numpy's bits at any slicing
        stream, path = files["jittered"]
        offsets = stream.times - (stream.pulse_index + 0.5) * PERIOD
        k = -(-stream.n_clicks // 1000)
        assert k > 1
        for sample, want in ((est._SPREAD_SAMPLE, offsets), (1000, offsets[::k])):
            monkeypatch.setattr(est, "_SPREAD_SAMPLE", sample)
            for slice_len in (7, 129, 1 << 16):
                monkeypatch.setattr(pg.streams, "_IO_SLICE", slice_len)
                for s in (stream, pg.streams._open_stream(path)):
                    assert est._within_pulse_spread(s) == float(np.std(want)) * math.sqrt(2)

    def test_index_behind_a_counted_pulse_named(self, monkeypatch):
        # read 4 records at a time, pulse 1 is counted once the second slice
        # starts at pulse 2, and its last click comes in the third: its m
        # would split, so the pn route refuses
        pulse = np.array([0, 0, 1, 2, 2, 3, 3, 3, 1, 4])
        stream = pg.ClickStream(pulse, np.arange(10) * 1e-9, {"kind": "pulsed"})
        monkeypatch.setattr(pg.streams, "_IO_SLICE", 4)
        with pytest.raises(EstimationError, match="record 8: pulse index 1 comes after"):
            est.pn_histogram_g2q(stream, 5)
        with pytest.raises(EstimationError, match="record 8: pulse index 1 comes after"):
            est.tau_histogram(stream, 1e-9, 5e-9, num_pulses=5)
        monkeypatch.setattr(pg.streams, "_IO_SLICE", 8)    # within one slice: sorted
        _, pairs, clicks = est._same_pulse_counts(stream, 5)
        assert [pairs.tolist(), clicks.tolist()] == [[1, 1, 1, 3, 0], [2, 2, 2, 3, 1]]
