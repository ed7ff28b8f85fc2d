import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.special import eval_hermite

from pulseg2 import modes as md


def make_asymmetric_sampled(h=0.01, span=10.0):
    """Two unequal Gaussian humps; nothing symmetric about it."""
    t = np.arange(-span, span + h / 2, h)
    v = np.exp(-((t - 1.0) ** 2) / (2 * 0.8**2)) \
        + 0.5 * np.exp(-((t + 1.5) ** 2) / (2 * 0.5**2))
    return md.sampled_mode(t, v.astype(complex), label="sampled:test")


class TestIntensityProfile:
    def test_gaussian_peak_value(self):
        mode = md.gaussian_mode(1.0)
        # oracle: normalize exp(-t^2/(2 dt^2))^2 by quadrature, evaluate at 0
        norm, _ = quad(lambda t: math.exp(-t * t), -50, 50)
        assert norm == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert md.intensity_profile(mode, 0.0) == pytest.approx(1.0 / norm, rel=1e-10)
        assert md.intensity_profile(mode, 0.0) == pytest.approx(0.5641895835477563, rel=1e-10)

    @pytest.mark.parametrize("mode", [
        md.gaussian_mode(1.0),
        md.gaussian_mode(2.5, center=3.0),
        md.hermite_gauss_mode(1, 1.0),
        md.hermite_gauss_mode(3, 0.7),
        make_asymmetric_sampled(),
    ], ids=lambda m: m.label)
    def test_unit_integral(self, mode):
        t, h = md._grid(mode)
        total = np.trapezoid(md.intensity_profile(mode, t), dx=h)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_odd_order_vanishes_at_center(self):
        assert md.intensity_profile(md.hermite_gauss_mode(1, 1.0), 0.0) == 0.0

    def test_zero_outside_sampled_grid(self):
        mode = make_asymmetric_sampled()
        assert md.intensity_profile(mode, 99.0) == 0.0
        assert md.amplitude(mode, -99.0) == 0.0

    def test_hermite_gauss_orthonormality(self):
        width = 1.3
        ms = [md.hermite_gauss_mode(j, width) for j in range(6)]
        for i, a in enumerate(ms):
            for j, b in enumerate(ms):
                val, _ = quad(lambda t, a=a, b=b: md.amplitude(a, t) * md.amplitude(b, t),
                              -30 * width, 30 * width, limit=200)
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-6)


class TestEta:
    @pytest.mark.parametrize("width", [1.0, 3.0e-9])
    def test_matches_gaussian_closed_form(self, width):
        mode = md.gaussian_mode(width)
        tau = np.linspace(-5 * width, 5 * width, 101)
        num = np.asarray(md.eta_numeric(mode, tau))
        ref = np.asarray(md.eta_gaussian(width, tau))
        assert np.max(np.abs(num - ref) / ref) < 1e-8

    def test_value_one_width_out(self):
        mode = md.gaussian_mode(2.0)
        assert md.eta_numeric(mode, 2.0) == pytest.approx(
            md.eta_numeric(mode, 0.0) * math.exp(-0.5), rel=1e-8)

    def test_closed_form_reference_points(self):
        assert md.eta_gaussian(1.0, 0.0) == pytest.approx(0.39894, abs=1e-5)
        assert md.eta_gaussian(2.0, 0.0) == pytest.approx(0.19947, abs=1e-5)
        assert md.eta_gaussian(1.0, 80.0) == 0.0

    def test_against_independent_quadrature(self):
        # oracle: scipy adaptive quadrature on the closed-form intensity of
        # an off-center hermite-gauss mode
        width, j, tau = 0.9, 2, 0.37

        def intensity(t):
            x = t / width
            h2 = 4 * x * x - 2.0
            norm = 2**j * math.factorial(j) * math.sqrt(math.pi) * width
            return (h2 * math.exp(-0.5 * x * x)) ** 2 / norm

        num, _ = quad(lambda t: intensity(t + tau) * intensity(t), -40, 40, limit=400)
        mode = md.hermite_gauss_mode(j, width)
        assert md.eta_numeric(mode, tau) == pytest.approx(num, rel=1e-7)

    @pytest.mark.parametrize("mode", [
        md.gaussian_mode(1.5),
        md.hermite_gauss_mode(2, 1.0),
    ], ids=lambda m: m.label)
    def test_symmetry_parametric(self, mode):
        eta0 = md.eta_numeric(mode, 0.0)
        for tau in (0.3, 1.1, 2.7):
            a = md.eta_numeric(mode, tau)
            b = md.eta_numeric(mode, -tau)
            assert abs(a - b) <= 1e-10 * eta0

    def test_symmetry_sampled(self):
        mode = make_asymmetric_sampled()
        eta0 = md.eta_numeric(mode, 0.0)
        for tau in (0.7, 1.9):
            assert abs(md.eta_numeric(mode, tau) - md.eta_numeric(mode, -tau)) \
                <= 1e-7 * eta0

    @pytest.mark.parametrize("mode", [
        md.gaussian_mode(1.0),
        md.hermite_gauss_mode(2, 1.0),
        make_asymmetric_sampled(),
    ], ids=lambda m: m.label)
    def test_unit_integral_and_peak_dominance(self, mode):
        profile = md.eta_profile(mode)
        assert profile.integral() == pytest.approx(1.0, abs=1e-6)
        eta0 = md.eta_numeric(mode, 0.0)
        assert np.all(profile.eta <= eta0 * (1 + 1e-12))

    def test_peak_scales_inversely_with_width(self):
        a = md.eta_numeric(md.gaussian_mode(1.0), 0.0)
        b = md.eta_numeric(md.gaussian_mode(2.0), 0.0)
        assert b == pytest.approx(a / 2.0, rel=1e-9)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            md.eta_gaussian(0.0, 1.0)
        with pytest.raises(ValueError):
            md.eta_gaussian(-1.0, 1.0)


class TestSampledValidation:
    def test_nonuniform_grid_rejected(self):
        t = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        with pytest.raises(ValueError, match="uniform"):
            md.sampled_mode(t, np.ones(9, complex))

    def test_too_coarse_rejected(self):
        t = np.linspace(-4, 4, 17)  # spacing 0.5 vs rms ~0.7
        v = np.exp(-t**2 / 2).astype(complex)
        with pytest.raises(ValueError, match="coarse"):
            md.sampled_mode(t, v)

    @pytest.mark.parametrize("t,v,message", [
        (np.arange(5.0), np.ones(5), "at least 9 samples"),
        (np.arange(9.0)[::-1], np.ones(9), "strictly increasing"),
        (np.arange(9.0), np.r_[np.ones(8), np.nan], "finite"),
        # one lit sample at t = 0: the profile has no width
        (np.linspace(-1, 1, 11), np.eye(11)[5], "degenerate intensity profile"),
    ], ids=["too_few", "decreasing", "nan_sample", "one_sample_lit"])
    def test_bad_samples_named(self, t, v, message):
        with pytest.raises(ValueError, match=message):
            md.sampled_mode(t, v.astype(complex))

    @pytest.mark.parametrize("order", [-1, 1.5, md._MAX_HG_ORDER + 1])
    def test_hg_order_out_of_range(self, order):
        with pytest.raises(ValueError, match="order must be an integer"):
            md.hermite_gauss_mode(order, 1.0)

    def test_zero_energy_rejected(self):
        t = np.linspace(-1, 1, 51)
        with pytest.raises(ValueError):
            md.sampled_mode(t, np.zeros(51, complex))


class TestSpecGrammar:
    def test_gauss(self):
        mode = md.parse_mode_spec("gauss:2e-9")
        assert mode.kind == "gaussian" and mode.width == 2e-9 and mode.center == 0.0

    def test_gauss_with_center(self):
        mode = md.parse_mode_spec("gauss:1e-9@5e-9")
        assert mode.center == 5e-9

    def test_hg(self):
        mode = md.parse_mode_spec("hg:2:1e-9")
        assert mode.kind == "hermite_gauss" and mode.order == 2

    def test_sampled_csv(self, tmp_path):
        h = 0.01
        t = np.arange(-8, 8 + h / 2, h)
        v = np.exp(-t**2 / 2.0)
        path = tmp_path / "mode.csv"
        rows = np.column_stack([t, v, np.zeros_like(t)])
        path.write_text("t,re,im\n" + "\n".join(",".join(f"{x:.9g}" for x in r) for r in rows))
        mode = md.parse_mode_spec(f"sampled:{path}")
        assert mode.kind == "sampled"
        assert md.eta_numeric(mode, 0.0) == pytest.approx(md.eta_gaussian(1.0, 0.0), rel=1e-4)

    @pytest.mark.parametrize("spec,label", [
        ("gauss:1.0000001e-9", "gauss:1.0000001e-09"),
        ("gauss:1e-9@3.0000000001e-10", "gauss:1e-09@3.0000000001e-10"),
        ("hg:3:0.1@0.30000000000000004", "hg:3:0.1@0.30000000000000004"),
        ("hg:1:5e-10", "hg:1:5e-10"),
        ("gauss:2e-9@5e-9", "gauss:2e-09@5e-09"),
        ("gauss:1", "gauss:1"),
    ])
    def test_label_parses_back_to_the_mode(self, spec, label):
        # widths and centres keep every digit; round ones keep their short form
        mode = md.parse_mode_spec(spec)
        back = md.parse_mode_spec(mode.label)
        assert mode.label == label
        assert (back.kind, back.order, back.width, back.center) == (
            mode.kind, mode.order, mode.width, mode.center)

    @pytest.mark.parametrize("bad", ["gauss", "gauss:-1", "hg:1", "box:1", "hg:a:1"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            md.parse_mode_spec(bad)


def simpson_eta_reference(mode, tau):
    """The 256-tau Simpson sweep that computed eta before the Gauss-Hermite rule."""
    t, h = md._grid(mode)
    base = md.intensity_profile(mode, t)
    denom = float(simpson(base, dx=h)) ** 2
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    out = np.empty(taus.size)
    for i in range(0, taus.size, 256):
        block = taus[i:i + 256, None] + t[None, :]
        shifted = md.intensity_profile(mode, block)
        out[i:i + 256] = simpson(shifted * base[None, :], dx=h, axis=-1)
    out /= denom
    return out if np.ndim(tau) else float(out[0])


class TestGaussHermiteEta:
    @pytest.mark.parametrize("mode", [
        md.gaussian_mode(1e-9),
        md.gaussian_mode(5e-10, center=2e-9),
        md.hermite_gauss_mode(0, 1e-9),
        md.hermite_gauss_mode(1, 5e-10),
        md.hermite_gauss_mode(2, 1e-9, center=-3e-9),
        md.hermite_gauss_mode(3, 0.7),
        md.hermite_gauss_mode(7, 1e-9),
        md.hermite_gauss_mode(30, 2e-10, center=1e-9),
    ], ids=lambda m: m.label)
    def test_matches_simpson_reference(self, mode):
        t, _ = md._grid(mode)
        span = t[-1] - t[0]
        spread = mode.width * math.sqrt(2 * mode.order + 1)
        tau = np.concatenate([np.linspace(-5 * spread, 5 * spread, 121),
                              [0.3 * span, -0.6 * span, 0.95 * span]])
        eta0 = simpson_eta_reference(mode, 0.0)
        got = md.eta_numeric(mode, tau)
        assert np.max(np.abs(got - simpson_eta_reference(mode, tau))) <= 1e-12 * eta0
        assert md.eta_numeric(mode, 0.0) == pytest.approx(eta0, rel=1e-12)

    def test_shape_follows_tau(self):
        mode = md.hermite_gauss_mode(2, 1.0)
        tau = np.linspace(-3, 3, 12).reshape(3, 4)
        np.testing.assert_array_equal(md.eta_numeric(mode, tau),
                                      md.eta_numeric(mode, tau.ravel()).reshape(3, 4))
        assert isinstance(md.eta_numeric(mode, 0.5), float)

    def test_far_tail_is_zero_not_nan(self):
        mode = md.hermite_gauss_mode(30, 1.0)
        far = md.eta_numeric(mode, np.array([50.0, 1e3, 1e5, 1e11]))
        assert np.all(np.isfinite(far)) and np.all(far >= 0)
        assert np.all(far[1:] == 0.0)
        assert np.all(md.amplitude(mode, np.array([1e11, -1e300])) == 0.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 15, 61])
    def test_rule_matches_numpy_hermgauss(self, m):
        u, w = md._gauss_hermite(m)
        ref_u, ref_w = np.polynomial.hermite.hermgauss(m)
        np.testing.assert_allclose(u, ref_u, rtol=0, atol=1e-14)
        np.testing.assert_allclose(w, ref_w, rtol=1e-12)

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 30])
    def test_hermite_matches_scipy(self, order):
        x = np.concatenate([np.linspace(-40, 40, 2001),
                            np.random.default_rng(order).normal(0, 3, 2000)])
        np.testing.assert_array_equal(md._hermite(order, x), eval_hermite(order, x))


class TestSimpson:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 100, 101])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        y = rng.normal(size=(3, n)) + 2.0
        for got, ref in [(md._simpson(y, dx=0.3), simpson(y, dx=0.3, axis=-1)),
                         (md._simpson(y[0], dx=0.7), simpson(y[0], dx=0.7))]:
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-14)
