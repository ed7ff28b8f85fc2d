import math

import numpy as np
import pytest
from scipy import stats as sps

import pulseg2 as pg
from pulseg2 import modes as md
from pulseg2 import simulate as sim
from pulseg2 import states as st

WIDTH = 1e-9
PERIOD = 12.5e-9
MODE = md.gaussian_mode(WIDTH)
IDEAL = sim.DetectorModel()


class TestPulseTrain:
    def test_fock1_unit_efficiency_one_click_per_pulse(self):
        train = sim.PulseTrainConfig(20000, PERIOD, MODE)
        stream = sim.simulate_pulse_train(st.fock(1), IDEAL, train, seed=1)
        assert stream.n_clicks == 20000
        assert np.all(stream.counts_per_pulse(20000) == 1)

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

    def test_block_prefix_invariance(self):
        # whole pulse blocks click the same whatever follows them
        short = sim.PulseTrainConfig(2 * sim._PULSE_BLOCK, PERIOD, MODE)
        longer = sim.PulseTrainConfig(3 * sim._PULSE_BLOCK + 5000, PERIOD, MODE)
        a = sim.simulate_pulse_train(st.thermal(1.0), IDEAL, short, seed=9)
        b = sim.simulate_pulse_train(st.thermal(1.0), IDEAL, longer, seed=9)
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

    def test_hermite_gauss_rejection_sampler(self):
        # one-click pulses land with density |v(t)|^2 for the j=1 mode
        mode = md.hermite_gauss_mode(1, WIDTH)
        n = 80000
        period = 25e-9  # j=1 intensity is sqrt(3) wider than the envelope
        train = sim.PulseTrainConfig(n, period, mode)
        stream = sim.simulate_pulse_train(st.fock(1), IDEAL, train, seed=23)
        offs = stream.times - (stream.pulse_index + 0.5) * period
        bw = WIDTH / 5.0
        edges = np.arange(-4e-9, 4e-9 + bw / 2, bw)
        obs, _ = np.histogram(offs, edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        probs = md.intensity_profile(mode, centers) * bw
        f_obs = np.append(obs, n - obs.sum())
        f_exp = n * np.append(probs, max(1.0 - probs.sum(), 1e-12))
        assert sps.chisquare(f_obs, f_exp).pvalue > 0.01

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
])
def test_non_finite_config_rejected(make, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make()


class TestAnalyticCurves:
    def test_pc_thermal_at_peak(self):
        val = sim.analytic_pc(st.thermal(1.0), IDEAL, MODE, 0.0)
        assert val == pytest.approx(2.0 * md.intensity_profile(MODE, 0.0), rel=1e-10)

    def test_pc_single_photon_is_zero(self):
        assert sim.analytic_pc(st.fock(1), IDEAL, MODE, 0.3e-9) == 0.0

    def test_pc_coherent(self):
        det = sim.DetectorModel(efficiency=0.4)
        val = sim.analytic_pc(st.coherent(1.7), det, MODE, 0.0)
        assert val == pytest.approx(0.4 * 1.7 * md.intensity_profile(MODE, 0.0), rel=1e-10)

    def test_pc_vacuum_rejected(self):
        with pytest.raises(ValueError):
            sim.analytic_pc(st.fock(0), IDEAL, MODE, 0.0)

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
