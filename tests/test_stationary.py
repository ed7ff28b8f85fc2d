import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
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
        assert curve.g2_zero(3.0 / BANDWIDTH)[0] == pytest.approx(2.0, abs=0.05)

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
        assert curve.g2_zero(3.0 / BANDWIDTH)[0] == pytest.approx(1.0, abs=0.03)

    def test_counts(self):
        stream = pg.simulate_stationary_poisson(1e4, 1.0, seed=46)
        assert abs(stream.n_clicks - 1e4) < 5 * math.sqrt(1e4)


def field_chunks(kernel, m, roots, n_grid):
    """(first cell, |E|^2) of each chunk, its row groups copied out of the
    filter's one buffer, which holds zeros past the record."""
    chunks = {}
    for c, lo, part in sim._field_intensity_groups(kernel, m, roots, n_grid):
        assert part.dtype == np.float32 and not np.any(part.reshape(-1)[n_grid - lo:])
        chunks.setdefault(c, (lo, []))[1].append(part.reshape(-1)[:n_grid - lo].copy())
    return [(lo, np.concatenate(parts)) for lo, parts in chunks.values()]


def filter_step(kernel, m):
    """Cells per row of the field filter, read off its first row group."""
    return next(sim._field_intensity_groups(kernel, m, derive_roots(0), 1 << 30))[2].shape[1]


def polar_noise(roots, c, count):
    """Chunk c's first ``count`` noise samples as the layout defines them,
    sqrt(2X) e^(2 pi i U) in double precision: X one float32 Exp(1) draw of
    root 1, U one float32 uniform draw of root 5, both keyed by the chunk."""
    x = block_generator(roots[1], c).standard_exponential(count, dtype=np.float32)
    u = block_generator(roots[5], c).random(count, dtype=np.float32)
    return np.sqrt(2.0 * x) * np.exp(2j * np.pi * u.astype(np.float64))


def assert_intensity_close(got, want):
    """|E|^2 of the complex64 filter within its float32 rounding of a
    double-precision reference: 1e-5 of the mean intensity E|E|^2 = 2,
    the scale of the rows' rounding even where the field is still rising
    from the record's start (up to 5e-6 seen)."""
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * 2.0)


class TestPolarNoise:
    """The field noise sqrt(2X) e^(2 pi i U): a circular complex Gaussian
    whose Re and Im are independent unit normals."""

    N = 100_000

    @pytest.fixture(scope="class", params=[3, 4, 5])
    def noise(self, request):
        roots = derive_roots(request.param)
        z = np.empty(self.N, np.complex64)
        sim._polar_noise(block_generator(roots[1], 0), block_generator(roots[5], 0), z,
                         self.N)
        # the layout's draws, to float32 rounding of the angle and radius
        np.testing.assert_allclose(z, polar_noise(roots, 0, self.N), rtol=1e-6, atol=0)
        return z.real.astype(np.float64), z.imag.astype(np.float64)

    def test_unit_variance_uncorrelated_quadratures(self, noise):
        re, im = noise
        # sd of the mean of x^2 is sqrt(2 / N) for a unit normal, of re im sqrt(1 / N)
        assert abs(np.mean(re**2) - 1.0) < 5 * math.sqrt(2.0 / self.N)
        assert abs(np.mean(im**2) - 1.0) < 5 * math.sqrt(2.0 / self.N)
        assert abs(np.mean(re * im)) < 5 * math.sqrt(1.0 / self.N)

    def test_power_is_exponential_and_phase_uniform(self, noise):
        re, im = noise
        assert stats.kstest((re**2 + im**2) / 2.0, "expon").pvalue > 1e-3
        phase = np.mod(np.arctan2(im, re), 2.0 * math.pi)
        assert stats.kstest(phase, "uniform", args=(0.0, 2.0 * math.pi)).pvalue > 1e-3

    def test_zeros_after_the_count_in_row_order(self):
        # a (rows, columns) view of a wider buffer, filled as the filter's
        # noise rows are: the first samples in row order, zeros after
        roots = derive_roots(3)
        buffer = np.full((3, 8), 7 + 7j, np.complex64)
        sim._polar_noise(block_generator(roots[1], 0), block_generator(roots[5], 0),
                         buffer[:, :5], 12)
        z = np.empty(12, np.complex64)
        sim._polar_noise(block_generator(roots[1], 0), block_generator(roots[5], 0), z, 12)
        assert np.array_equal(buffer[:, :5].reshape(-1)[:12], z)
        assert not np.any(buffer[:, :5].reshape(-1)[12:]) and np.all(buffer[:, 5:] == 7 + 7j)

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7])
    def test_phase_root_leaves_the_first_five_roots(self, seed):
        # seven roots: the click places' root 6 leaves the six before it
        roots = derive_roots(seed)
        sequence = np.random.SeedSequence(seed)
        assert roots.size == 7
        assert np.array_equal(roots[:6], sequence.generate_state(6, dtype=np.uint64))
        assert np.array_equal(roots[:5], sequence.generate_state(5, dtype=np.uint64))


def convolved_intensity(chunks, kernel, roots):
    """|E|^2 of the whole record from one direct np.convolve of its noise."""
    noise = np.concatenate([polar_noise(roots, c, part.size)
                            for c, (_, part) in enumerate(chunks)])
    y = np.convolve(noise, kernel)[:noise.size]
    return y.real**2 + y.imag**2


def field_config(bandwidth=BANDWIDTH, timestep=None, shape="gaussian"):
    return sim.StationaryThermalConfig(1e5, bandwidth, 1.0, field_timestep=timestep,
                                       spectral_shape=shape)


def field_kernel(shape, timestep):
    cfg = field_config(timestep=timestep, shape=shape)
    return sim._field_kernel(cfg, cfg.field_timestep)


# default Gaussian and Lorentzian kernels, and one too long for the default FFT size
FILTER_KERNELS = pytest.mark.parametrize(
    "shape,timestep", [("gaussian", None), ("lorentzian", None), ("gaussian", 1e-9)],
    ids=["gaussian", "lorentzian", "long_kernel"])


class TestOverlapAddFilter:
    """The chunked FFT overlap-add filter against the full linear
    convolution (scipy's `oaconvolve` in the test names), here computed
    directly by np.convolve over the whole record."""

    @FILTER_KERNELS
    @pytest.mark.parametrize("length", [50, 4000, 123457])
    def test_matches_oaconvolve(self, shape, timestep, length):
        kernel = field_kernel(shape, timestep)
        roots = derive_roots(length)
        got = field_chunks(kernel, 1, roots, length)
        assert [(lo, part.size) for lo, part in got] == [(0, length)]
        assert_intensity_close(got[0][1], convolved_intensity(got, kernel, roots))

    @FILTER_KERNELS
    def test_chunks_match_oaconvolve_with_partial_last_chunk(self, monkeypatch, shape,
                                                             timestep):
        monkeypatch.setattr(sim, "_FIELD_CHUNK", 5000)
        kernel = field_kernel(shape, timestep)
        roots = derive_roots(17)
        got = field_chunks(kernel, 1, roots, 61234)
        sizes = [part.size for _, part in got]
        # whole chunks of one size, a shorter last one, laid end to end
        assert len(sizes) >= 3 and set(sizes[:-1]) == {sizes[0]} and sizes[-1] < sizes[0]
        assert [lo for lo, _ in got] == list(np.cumsum([0] + sizes[:-1]))
        assert sum(sizes) == 61234
        assert_intensity_close(np.concatenate([part for _, part in got]),
                               convolved_intensity(got, kernel, roots))


def reference_intensity_chunks(kernel, roots, n_grid):
    """The filter in one batch per chunk and in double precision, the
    reference for the grouped one: each chunk's noise in one draw, then all
    its rows filtered at once."""
    nfft = max(sim._FILTER_FFT, 1 << (4 * kernel.size).bit_length())
    step = filter_step(kernel, 1)
    chunk = max(sim._FIELD_CHUNK // step, 1) * step
    kernel_fft = np.fft.fft(kernel, nfft)
    carry = np.zeros(nfft - step, dtype=complex)
    for c, lo in enumerate(range(0, n_grid, chunk)):
        length = min(chunk, n_grid - lo)
        noise = np.zeros((-(-length // step), step), complex)   # last row padded
        noise.reshape(-1)[:length] = polar_noise(roots, c, length)
        y = np.fft.fft(noise, nfft)
        del noise
        y *= kernel_fft
        np.fft.ifft(y, out=y)
        y[1:, :nfft - step] += y[:-1, step:]
        y[0, :nfft - step] += carry
        carry = y[-1, step:].copy()
        intensity = np.square(y[:, :step].real)
        intensity += np.square(y[:, :step].imag)
        yield lo, intensity.reshape(-1)[:length]


class TestGroupedFilter:
    """Filtering a chunk in row groups, each group's noise one draw into the
    group's buffer, changes no bit of the field, and matches the one-batch
    filter to float32 rounding."""

    CHUNK = 1 << 17

    @FILTER_KERNELS
    @pytest.mark.parametrize("rows", [1, 7, "chunk", "beyond_chunk"])
    def test_groups_match_one_batch_filter(self, monkeypatch, shape, timestep, rows):
        kernel = field_kernel(shape, timestep)
        step = filter_step(kernel, 1)
        monkeypatch.setattr(sim, "_FIELD_CHUNK", self.CHUNK)
        # the last chunk ends a third into a row, inside a group
        chunk = self.CHUNK // step * step
        n_grid = 2 * chunk + chunk // 2 + step // 3
        roots = derive_roots(61)
        monkeypatch.setattr(sim, "_FIELD_GROUP", self.CHUNK)
        one_group = field_chunks(kernel, 1, roots, n_grid)
        monkeypatch.setattr(sim, "_FIELD_GROUP", {"chunk": self.CHUNK,
                                                  "beyond_chunk": 4 * self.CHUNK
                                                  }.get(rows, rows * step))
        got = field_chunks(kernel, 1, roots, n_grid)
        want = list(reference_intensity_chunks(kernel, roots, n_grid))
        assert [lo for lo, _ in got] == [lo for lo, _ in want] == [0, chunk, 2 * chunk]
        for (_, part), (_, one), (_, ref) in zip(got, one_group, want):
            assert np.array_equal(part, one)
            assert_intensity_close(part, ref)


def test_short_record_allocates_one_row():
    # the row group is capped by the record: 50 cells take one (1, nfft) row,
    # not the 17 rows of a _FIELD_GROUP group (0.55 MB in complex64)
    kernel = field_kernel("gaussian", None)
    roots = derive_roots(5)
    field_chunks(kernel, 4, roots, 50)      # warms numpy's FFT
    tracemalloc.start()
    try:
        got = field_chunks(kernel, 4, roots, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(lo, part.size) for lo, part in got] == [(0, 50)]
    assert peak < 2**19


class _TopUniform:
    """A generator stand-in: ``count`` candidates a block, and uniforms all
    numpy's largest, 1 - 2^-53."""

    def __init__(self, count):
        self.count = count

    def poisson(self, lam):
        return np.full(lam.shape, self.count)

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


class TestChunkClicks:
    """A chunk's clicks, drawn row group by row group by `_group_clicks`:
    thinned from candidates under each block's largest intensity."""

    # a zero run, a ramp, zeros, a step and trailing zeros, padded with
    # zeros to whole blocks
    INTENSITY = np.concatenate([np.zeros(5), np.linspace(0.1, 2.0, 40), np.zeros(5),
                                np.full(30, 0.5), np.full(30, 3.0),
                                np.zeros(5 + 2 * sim._FIELD_BLOCK - 115)]).astype(np.float32)
    MEAN_PER_CELL = 0.4
    SEEDS = 2000

    @pytest.fixture(scope="class")
    def draws(self):
        return [sim._group_clicks(self.INTENSITY, 0, self.MEAN_PER_CELL,
                                  np.random.default_rng([seed, 0]),
                                  np.random.default_rng([seed, 1]))
                for seed in range(self.SEEDS)]

    def test_sorted_and_never_in_zero_cells(self, draws):
        for pos in draws:
            assert np.all(np.diff(pos) >= 0)
            assert np.all(self.INTENSITY[np.floor(pos).astype(np.int64)] > 0)

    def test_cell_totals_match_rate(self, draws):
        counts = sum(np.bincount(np.floor(pos).astype(np.int64),
                                 minlength=self.INTENSITY.size) for pos in draws)
        lam = self.SEEDS * self.MEAN_PER_CELL * self.INTENSITY.astype(np.float64)
        live = lam > 0
        chi2 = float(np.sum((counts[live] - lam[live]) ** 2 / lam[live]))
        dof = int(live.sum())
        assert chi2 < dof + 5.0 * math.sqrt(2.0 * dof)

    def test_counts_per_cell_are_poisson(self, draws):
        # the step's high cells, 30 per seed, each Poisson(1.2) on its own
        mean = self.MEAN_PER_CELL * 3.0
        high = np.concatenate([
            np.bincount(np.floor(pos).astype(np.int64), minlength=self.INTENSITY.size)[80:110]
            for pos in draws])
        k_max = 5                      # k >= k_max pooled into the last class
        observed = np.bincount(np.minimum(high, k_max), minlength=k_max + 1)
        pmf = np.array([math.exp(-mean) * mean**k / math.factorial(k) for k in range(k_max)])
        expected = high.size * np.append(pmf, 1.0 - pmf.sum())
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2 < k_max + 5.0 * math.sqrt(2.0 * k_max)

    def test_positions_uniform_within_cells(self, draws):
        pos = np.concatenate(draws)
        frac = np.sort(pos - np.floor(pos))
        n = frac.size
        ks = max(np.max(np.arange(1, n + 1) / n - frac), np.max(frac - np.arange(n) / n))
        assert ks < 1.95 / math.sqrt(n)            # p ~ 0.001

    @pytest.mark.parametrize("scale", [1e-300, 1e-3, 1.0, 3.0, 7.77, 1e6, 1e300])
    def test_largest_uniform_stays_in_last_live_cell(self, scale):
        # three blocks, live only in the second's last two cells: its top
        # candidates' places (1 + u) * 64 round up to 128, the third block's
        # first cell, which is 0; each stays in cell 127, its largest, and is
        # kept, while the other blocks' top candidates fall in zero cells
        block = sim._FIELD_BLOCK
        intensity = np.zeros(3 * block)
        intensity[2 * block - 2:2 * block] = np.array([1.0, 2.0]) * scale
        pos = sim._group_clicks(intensity, 0, 1.0, _TopUniform(3), _TopUniform(3))
        assert pos.size == 3
        assert np.all((pos >= 2 * block - 1) & (pos <= 2 * block))


def test_stationary_chunk_prefix_invariance(monkeypatch):
    # the clicks of the first k whole chunks of a longer record are the
    # stream of the k-chunk record, bit for bit, with the noise on the
    # 4x coarser grid of the default Gaussian field, and chunks of five
    # rows in groups of three, so each chunk's generators run on across a
    # group boundary
    cfg = field_config()
    dt = cfg.field_timestep
    m = sim._field_decimation(cfg, dt)
    assert m == 4
    step = filter_step(field_kernel("gaussian", None), m)
    monkeypatch.setattr(sim, "_FIELD_CHUNK", 5 * step)
    monkeypatch.setattr(sim, "_FIELD_GROUP", 3 * step)
    chunk = 5 * step
    short = thermal_stream(duration=3 * chunk * dt, seed=50)
    longer = thermal_stream(duration=5.5 * chunk * dt, seed=50)
    prefix = longer.times[longer.times < 3 * chunk * dt]
    assert short.n_clicks > 1000 and longer.n_clicks > prefix.size
    assert np.array_equal(short.times, prefix)


class TestFieldDecimation:
    """m, the fine cells per white-noise sample, follows from the kernel."""

    @pytest.mark.parametrize("bandwidth,timestep,shape,want", [
        (BANDWIDTH, None, "gaussian", 4), (BANDWIDTH, 1e-9, "gaussian", 128),
        (3e5, 23e-9, "gaussian", 16), (1e7, None, "gaussian", 4),
        (BANDWIDTH, None, "lorentzian", 1), (BANDWIDTH, 1e-9, "lorentzian", 1)])
    def test_power_of_two_dividing_the_fft(self, bandwidth, timestep, shape, want):
        cfg = field_config(bandwidth, timestep, shape)
        dt = cfg.field_timestep
        m = sim._field_decimation(cfg, dt)
        taps = sim._field_kernel(cfg, dt).size
        assert m == want and m & (m - 1) == 0
        assert max(sim._FILTER_FFT, 1 << (4 * taps).bit_length()) % m == 0
        # rows of whole noise samples and whole click blocks
        step = filter_step(sim._field_kernel(cfg, dt), m)
        assert step % m == 0 and step % sim._FIELD_BLOCK == 0
        if shape == "gaussian":
            # the largest power of two with m dt <= pi sigma_h / 6
            sigma_h = 1.0 / (math.sqrt(2.0 * math.pi) * bandwidth)
            assert m * dt <= math.pi * sigma_h / 6.0 < 2 * m * dt

    @pytest.mark.parametrize("bandwidth,timestep", [(BANDWIDTH, None), (BANDWIDTH, 1e-9),
                                                    (3e5, 23e-9)],
                             ids=["default", "fine_grid", "bandwidth_3e5"])
    def test_phase_covariance_matches_kernel_autocorrelation(self, bandwidth, timestep):
        # a cell of phase p = n mod m sees the taps j = p (mod m) of g =
        # sqrt(m) h, so its lag-l covariance is 2 sum_k g[p+mk] g[p+mk+l]; the
        # noise on the fine grid gives 2 sum_j h[j] h[j+l] at every phase
        cfg = field_config(bandwidth, timestep)
        h = sim._field_kernel(cfg, cfg.field_timestep)
        m = sim._field_decimation(cfg, cfg.field_timestep)
        g = math.sqrt(m) * h
        want = np.correlate(h, h, "full")[h.size - 1:]
        for lag in range(h.size):
            phases = np.bincount(np.arange(h.size - lag) % m,
                                 weights=g[:h.size - lag] * g[lag:], minlength=m)
            np.testing.assert_allclose(phases, want[lag], rtol=0, atol=1e-8)


class TestPolyphaseFilter:
    """Noise drawn at every m-th cell: the chunks are the zero-stuffed
    noise convolved with sqrt(m) times the kernel."""

    N_GRID = 223457         # the last chunk ends between two noise samples

    @FILTER_KERNELS
    @pytest.mark.parametrize("m", [2, 4])
    def test_chunks_match_oaconvolve_of_zero_stuffed_noise(self, monkeypatch, shape,
                                                            timestep, m):
        monkeypatch.setattr(sim, "_FIELD_CHUNK", 50000)
        monkeypatch.setattr(sim, "_FIELD_GROUP", 20000)
        kernel = field_kernel(shape, timestep)
        roots = derive_roots(23)
        got = field_chunks(kernel, m, roots, self.N_GRID)
        sizes = [part.size for _, part in got]
        assert len(sizes) >= 3 and sum(sizes) == self.N_GRID and sizes[-1] % m
        stuffed = np.zeros(self.N_GRID, complex)
        for c, (lo, part) in enumerate(got):
            stuffed[lo:lo + part.size:m] = polar_noise(roots, c, -(-part.size // m))
        y = oaconvolve(stuffed, math.sqrt(m) * kernel)[:self.N_GRID]
        assert_intensity_close(np.concatenate([part for _, part in got]),
                               y.real**2 + y.imag**2)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_field_does_not_depend_on_group_size(self, monkeypatch, rows):
        # 16-row chunks in groups of 1 or 7 rows, against one group per
        # chunk: the field, and the clicks drawn from it, bit for bit
        kernel = field_kernel("gaussian", None)
        roots = derive_roots(29)
        monkeypatch.setattr(sim, "_FIELD_CHUNK", 1 << 16)
        n_grid = 150001
        duration = n_grid * field_config().field_timestep
        want = field_chunks(kernel, 4, roots, n_grid)
        want_clicks = thermal_stream(duration=duration, seed=29)
        monkeypatch.setattr(sim, "_FIELD_GROUP", rows * filter_step(kernel, 4))
        got = field_chunks(kernel, 4, roots, n_grid)
        assert len(got) == len(want) == 3
        for (lo, part), (lo_ref, ref) in zip(got, want):
            assert lo == lo_ref and np.array_equal(part, ref)
        clicks = thermal_stream(duration=duration, seed=29)
        assert clicks.n_clicks > 1000 and np.array_equal(clicks.times, want_clicks.times)
