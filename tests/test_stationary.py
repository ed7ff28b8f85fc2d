import math

import numpy as np
import pytest
from scipy.signal import oaconvolve

import pulseg2 as pg
from pulseg2 import estimate as est
from pulseg2 import simulate as sim
from pulseg2.rngutil import block_generator, derive_roots

BANDWIDTH = 1e6  # 1 MHz -> 1 us correlation time


def thermal_stream(rate=5e5, duration=2.0, seed=40, shape="gaussian"):
    cfg = sim.StationaryThermalConfig(mean_rate=rate, spectral_bandwidth=BANDWIDTH,
                                      duration=duration, spectral_shape=shape)
    return sim.simulate_stationary_thermal(cfg, sim.DetectorModel(), seed)


class TestConfigValidation:
    def test_coarse_timestep_rejected(self):
        with pytest.raises(ValueError, match="field_timestep"):
            sim.StationaryThermalConfig(1e5, BANDWIDTH, 1.0, field_timestep=1e-6)

    def test_short_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            sim.StationaryThermalConfig(1e5, BANDWIDTH, 5e-6)

    def test_default_timestep(self):
        cfg = sim.StationaryThermalConfig(1e5, BANDWIDTH, 1.0)
        assert cfg.field_timestep == pytest.approx(1.0 / (20 * BANDWIDTH))

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="spectral_shape"):
            sim.StationaryThermalConfig(1e5, BANDWIDTH, 1.0, spectral_shape="boxcar")


class TestCountStatistics:
    def test_total_counts_near_rate_times_duration(self):
        stream = thermal_stream(rate=1e5, duration=1.0, seed=41)
        # Poisson term plus the bunching excess from rate fluctuations
        sigma = math.sqrt(1e5 + 1e5**2 * 1.0 / BANDWIDTH)
        assert abs(stream.n_clicks - 1e5) < 5 * sigma

    def test_efficiency_scales_counts(self):
        cfg = sim.StationaryThermalConfig(1e5, BANDWIDTH, 0.5)
        half = sim.simulate_stationary_thermal(cfg, sim.DetectorModel(efficiency=0.5), 42)
        mean = 0.5 * 1e5 * 0.5
        assert abs(half.n_clicks - mean) < 5 * math.sqrt(2 * mean)

    def test_deterministic(self):
        a = thermal_stream(rate=1e5, duration=0.2, seed=43)
        b = thermal_stream(rate=1e5, duration=0.2, seed=43)
        np.testing.assert_array_equal(a.times, b.times)


@pytest.fixture(scope="module")
def curve():
    stream = thermal_stream()
    return est.stationary_conditional_probability(
        stream, 1.0 / (50 * BANDWIDTH), 5.0 / BANDWIDTH)


class TestBunchingPeak:
    def test_peak_to_baseline_is_two(self, curve):
        assert curve.peak_to_baseline(3.0 / BANDWIDTH) == pytest.approx(2.0, abs=0.05)

    def test_long_lag_ratio_is_one(self, curve):
        tail = curve.pc[curve.tau > 3.5 / BANDWIDTH]
        base = curve.baseline(2.5 / BANDWIDTH)
        assert float(tail.mean()) / base == pytest.approx(1.0, abs=0.03)

    def test_baseline_equals_detected_rate(self, curve):
        assert curve.baseline(3.0 / BANDWIDTH) == pytest.approx(5e5, rel=0.02)

    def test_peak_width_of_order_coherence_time(self, curve):
        fwhm = curve.excess_fwhm(3.0 / BANDWIDTH)
        assert 0.5 / BANDWIDTH < fwhm < 2.0 / BANDWIDTH

    def test_siegert_relation(self, curve):
        # chaotic light: g2(tau) = 1 + |g1|^2 with the synthesized
        # |g1(tau)|^2 = exp(-pi tau^2 bw^2), checked pointwise to 5%
        base = curve.baseline(3.0 / BANDWIDTH)
        g2 = curve.pc / base
        ref = 1.0 + np.exp(-math.pi * curve.tau**2 * BANDWIDTH**2)
        sel = curve.tau < 3.0 / BANDWIDTH
        assert np.max(np.abs(g2[sel] - ref[sel]) / ref[sel]) < 0.05


class TestLorentzianOption:
    def test_peak_and_exponential_decay(self):
        stream = thermal_stream(rate=5e5, duration=1.0, seed=44, shape="lorentzian")
        curve = est.stationary_conditional_probability(
            stream, 1.0 / (50 * BANDWIDTH), 5.0 / BANDWIDTH)
        base = curve.baseline(3.0 / BANDWIDTH)
        assert curve.pc[0] / base == pytest.approx(2.0, abs=0.08)
        # |g1|^2 = exp(-2 bw tau): excess at tau = 1/(2 bw) should be 1/e
        g2 = curve.pc / base
        at = np.searchsorted(curve.tau, 0.5 / BANDWIDTH)
        assert g2[at] - 1.0 == pytest.approx(math.exp(-1.0), abs=0.05)


class TestG2ZeroWithUncertainty:
    def test_thermal_within_band(self):
        stream = thermal_stream(rate=3e5, duration=1.0, seed=47)
        val, sig = est.stationary_g2_zero(stream, 1.0 / (50 * BANDWIDTH),
                                          5.0 / BANDWIDTH, 3.0 / BANDWIDTH)
        assert abs(val - 2.0) < 4 * sig
        assert 0.01 < sig < 0.15

    def test_poisson_control(self):
        stream = pg.simulate_stationary_poisson(3e5, 1.0, seed=48)
        val, sig = est.stationary_g2_zero(stream, 1.0 / (50 * BANDWIDTH),
                                          5.0 / BANDWIDTH, 3.0 / BANDWIDTH)
        assert abs(val - 1.0) < 4 * sig

    def test_validation(self):
        stream = pg.simulate_stationary_poisson(3e5, 0.01, seed=49)
        with pytest.raises(ValueError, match="baseline"):
            est.stationary_g2_zero(stream, 1e-6, 5e-6, 1e-7)
        with pytest.raises(ValueError, match="baseline"):
            est.stationary_g2_zero(stream, 2e-8, 5e-6, 5e-6)


class TestPoissonControl:
    def test_flat_curve(self):
        stream = pg.simulate_stationary_poisson(5e5, 2.0, seed=45)
        curve = est.stationary_conditional_probability(
            stream, 1.0 / (50 * BANDWIDTH), 5.0 / BANDWIDTH)
        assert curve.peak_to_baseline(3.0 / BANDWIDTH) == pytest.approx(1.0, abs=0.03)

    def test_counts(self):
        stream = pg.simulate_stationary_poisson(1e4, 1.0, seed=46)
        assert abs(stream.n_clicks - 1e4) < 5 * math.sqrt(1e4)


def oaconvolve_intensity_chunks(kernel, root_noise, n_grid):
    """The field generator as it was with scipy.signal.oaconvolve."""
    carry = np.zeros(kernel.size - 1, dtype=complex)
    for c in range(0, (n_grid + sim._FIELD_CHUNK - 1) // sim._FIELD_CHUNK):
        lo = c * sim._FIELD_CHUNK
        length = min(sim._FIELD_CHUNK, n_grid - lo)
        rng = block_generator(root_noise, c)
        noise = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        y = oaconvolve(noise, kernel, mode="full")
        if carry.size:
            y[:carry.size] += carry
        carry = y[length:]
        seg = y[:length]
        yield lo, (seg.real**2 + seg.imag**2)


# default Gaussian and Lorentzian kernels, and one too long for the default FFT size
FILTER_KERNELS = pytest.mark.parametrize(
    "shape,timestep", [("gaussian", None), ("lorentzian", None), ("gaussian", 1e-9)],
    ids=["gaussian", "lorentzian", "long_kernel"])


class TestOverlapAddFilter:
    @FILTER_KERNELS
    @pytest.mark.parametrize("length", [50, 4000, 123457])
    def test_matches_oaconvolve(self, shape, timestep, length):
        cfg = sim.StationaryThermalConfig(1e5, BANDWIDTH, 1.0, field_timestep=timestep,
                                          spectral_shape=shape)
        kernel = sim._field_kernel(cfg, cfg.field_timestep)
        nfft = 1 << (4 * kernel.size).bit_length()   # many blocks for short kernels
        rng = np.random.default_rng(length)
        x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        got = sim._overlap_add(x, np.fft.fft(kernel, nfft), kernel.size)
        ref = oaconvolve(x, kernel, mode="full")
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1e-13

    @FILTER_KERNELS
    def test_chunks_match_oaconvolve_with_partial_last_chunk(self, monkeypatch, shape,
                                                             timestep):
        monkeypatch.setattr(sim, "_FIELD_CHUNK", 5000)
        cfg = sim.StationaryThermalConfig(1e5, BANDWIDTH, 1.0, field_timestep=timestep,
                                          spectral_shape=shape)
        kernel = sim._field_kernel(cfg, cfg.field_timestep)
        root = derive_roots(17)[1]
        got = list(sim._field_intensity_chunks(cfg, kernel, root, 12345))
        ref = list(oaconvolve_intensity_chunks(kernel, root, 12345))
        assert [lo for lo, _ in got] == [lo for lo, _ in ref] == [0, 5000, 10000]
        assert got[-1][1].size == 2345
        for (_, a), (_, b) in zip(got, ref):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)
