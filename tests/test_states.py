import math

import numpy as np
import pytest
from scipy import stats as sps

from pulseg2 import states as st
from pulseg2.rngutil import block_generator, derive_roots


def brute_poisson_pn(mu, nmax):
    """Independent oracle: direct Poisson pmf, no scipy, no truncation logic."""
    return np.array([math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))
                     for n in range(nmax + 1)])


def brute_thermal_pn(nbar, nmax):
    q = nbar / (1.0 + nbar)
    return np.array([(1.0 - q) * q**n for n in range(nmax + 1)])


def brute_factorial_moment(pn, order):
    out = 0.0
    for n, p in enumerate(pn):
        w = 1.0
        for j in range(order):
            w *= n - j
        out += w * p
    return out


PARAMETRIC_STATES = [
    st.coherent(0.3),
    st.coherent(2.0),
    st.thermal(0.5),
    st.thermal(1.7),
    st.fock(1),
    st.fock(4),
    st.mixture([0.3, 0.7], [st.fock(0), st.thermal(1.0)]),
    st.mixture([0.5, 0.5], [st.coherent(1.0), st.fock(3)]),
]


class TestMoments:
    def test_mean_coherent(self):
        assert st.mean_photon_number(st.coherent(0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_mean_fock(self):
        assert st.mean_photon_number(st.fock(3)) == 3.0

    def test_mean_mixture_linearity(self):
        mix = st.mixture([0.5, 0.5], [st.fock(0), st.fock(2)])
        assert st.mean_photon_number(mix) == pytest.approx(1.0, abs=1e-12)

    def test_pair_moment_fock2(self):
        assert st.second_factorial_moment(st.fock(2)) == 2.0

    def test_pair_moment_coherent(self):
        assert st.second_factorial_moment(st.coherent(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_pair_moment_thermal_against_direct_sum(self):
        # geometric series gives 2*nbar^2; check the stored vector against a
        # brute-force sum over an independently computed pmf
        direct = brute_factorial_moment(brute_thermal_pn(1.0, 400), 2)
        assert direct == pytest.approx(2.0, rel=1e-12)
        assert st.second_factorial_moment(st.thermal(1.0)) == pytest.approx(direct, rel=1e-11)


class TestG2q:
    def test_thermal_is_two(self):
        assert st.g2q_from_moments(st.thermal(0.7)) == pytest.approx(2.0, rel=1e-11)

    def test_coherent_is_one(self):
        assert st.g2q_from_moments(st.coherent(2.0)) == pytest.approx(1.0, rel=1e-11)

    def test_fock2_is_half(self):
        assert st.g2q_from_moments(st.fock(2)) == 0.5

    @pytest.mark.parametrize("vacuum", [st.fock(0), st.coherent(0.0), st.thermal(0.0)])
    def test_vacuum_rejected(self, vacuum):
        with pytest.raises(ValueError, match="vacuum"):
            st.g2q_from_moments(vacuum)


class TestG2FromPn:
    def test_single_photon(self):
        assert st.g2q_from_pn([0.0, 1.0]) == 0.0

    def test_half_vacuum_half_two(self):
        # by hand: pair moment 2*0.5 = 1, mean 1 -> ratio 1
        assert st.g2q_from_pn([0.5, 0.0, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_truncated_poissonian(self):
        p = brute_poisson_pn(0.3, 30)
        p = p / p.sum()
        assert st.g2q_from_pn(p) == pytest.approx(1.0, abs=1e-9)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            st.g2q_from_pn([0.5, 0.2])

    def test_vacuum_rejected(self):
        with pytest.raises(ValueError, match="vacuum"):
            st.g2q_from_pn([1.0])


class TestInvariants:
    @pytest.mark.parametrize("state", PARAMETRIC_STATES, ids=lambda s: s.label)
    def test_normalized_and_nonnegative(self, state):
        assert abs(state.pn.sum() - 1.0) <= 1e-12
        assert np.all(state.pn >= 0)

    @pytest.mark.parametrize("state", PARAMETRIC_STATES, ids=lambda s: s.label)
    def test_moment_and_pn_routes_agree(self, state):
        a = st.g2q_from_moments(state)
        b = st.g2q_from_pn(state.pn)
        assert abs(a - b) <= 1e-12 * max(a, 1.0)

    @pytest.mark.parametrize("state", PARAMETRIC_STATES, ids=lambda s: s.label)
    @pytest.mark.parametrize("s", [0.1, 0.45, 0.9, 1.0])
    def test_loss_invariance_analytic(self, state, s):
        ref = st.g2q_from_moments(state)
        thinned = st.binomial_loss_pn(state.pn, s)
        assert st.g2q_from_pn(thinned) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_mixture_convexity(self):
        a, b = st.thermal(0.8), st.coherent(1.5)
        mix = st.mixture([0.25, 0.75], [a, b])
        size = mix.pn.size
        expect = np.zeros(size)
        expect[:a.pn.size] += 0.25 * a.pn
        expect[:b.pn.size] += 0.75 * b.pn
        np.testing.assert_allclose(mix.pn, expect, rtol=0, atol=1e-15)

    def test_lower_bound_saturated_at_fock(self):
        for n in (1, 2, 5):
            state = st.fock(n)
            assert st.g2q_from_moments(state) == pytest.approx(1.0 - 1.0 / n, abs=1e-12)

    def test_lower_bound_random_states(self):
        rng = block_generator(derive_roots(123)[0], 0)
        for _ in range(50):
            p = rng.random(8)
            p[0] = 0.1  # keep the mean well away from zero
            state = st.from_pn(p)
            nbar = st.mean_photon_number(state)
            assert st.g2q_from_moments(state) >= 1.0 - 1.0 / nbar - 1e-12

    def test_thermal_g2_independent_of_mean(self):
        for nbar in (0.05, 0.7, 3.0, 12.0):
            assert st.g2q_from_moments(st.thermal(nbar)) == pytest.approx(2.0, rel=1e-10)

    def test_truncation_keeps_tail_tiny(self):
        state = st.coherent(5.0)
        c = state.pn.size - 1
        oracle = brute_poisson_pn(5.0, c + 200)
        assert oracle[c + 1:].sum() < 1e-12


class TestCustomStates:
    def test_renormalization_flag(self):
        state = st.from_pn([2.0, 2.0])
        assert state.renormalized
        np.testing.assert_allclose(state.pn, [0.5, 0.5])
        assert not st.from_pn([0.5, 0.5]).renormalized

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            st.from_pn([0.5, -0.5, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            st.from_pn([0.0, 0.0])

    def test_vacuum_constructible_but_g2_rejects(self):
        state = st.fock(0)
        assert state.pn.tolist() == [1.0]
        with pytest.raises(ValueError):
            st.g2q_from_moments(state)


class TestSpecGrammar:
    @pytest.mark.parametrize("spec,mean", [
        ("coherent:0.5", 0.5),
        ("thermal:1.25", 1.25),
        ("fock:2", 2.0),
        ("mix:0.5*fock:0+0.5*fock:2", 1.0),
        ("mix:0.5*thermal:1e+0+0.5*coherent:1", 1.0),   # '+' in an exponent
    ])
    def test_parse_and_mean(self, spec, mean):
        state = st.parse_state_spec(spec)
        assert st.mean_photon_number(state) == pytest.approx(mean, abs=1e-12)
        assert state.label == spec

    def test_pn_csv(self, tmp_path):
        path = tmp_path / "pn.csv"
        path.write_text("n,P_n\n0,0.5\n2,0.5\n")
        state = st.parse_state_spec(f"pn:{path}")
        assert st.mean_photon_number(state) == pytest.approx(1.0)

    def test_pn_csv_headerless(self, tmp_path):
        path = tmp_path / "pn.csv"
        path.write_text("0,0.25\n1,0.75\n")
        state = st.parse_state_spec(f"pn:{path}")
        assert st.mean_photon_number(state) == pytest.approx(0.75)

    @pytest.mark.parametrize("bad", [
        "coherent",
        "coherent:-1",
        "fock:1.5",
        "squeezed:1",
        "mix:fock:1+fock:2",
        "mix:0.5*mix:1*fock:1+0.5*fock:0",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            st.parse_state_spec(bad)


@pytest.mark.parametrize("make,message", [
    (lambda path: st.QuantumState("custom", [[0.5, 0.5]], "l"), "nonempty 1-D"),
    (lambda path: st.QuantumState("custom", [1.5, -0.5], "l"), "finite and nonnegative"),
    (lambda path: st.QuantumState("custom", [0.5, 0.2], "l"), "sum to one"),
    (lambda path: st.thermal(-1.0), "finite and >= 0"),
    (lambda path: st.fock(-1), "nonnegative integer"),
    (lambda path: st.mixture([1.0], [st.fock(1), st.fock(2)]), "one weight per component"),
    (lambda path: st.mixture([-1.0, 2.0], [st.fock(1), st.fock(2)]), "positive sum"),
    (lambda path: st.from_pn([0.5, np.nan]), "nonempty and finite"),
    (lambda path: st.g2q_from_pn([-0.5, 1.5]), "finite and nonnegative"),
    (lambda path: st.binomial_loss_pn([1.0], 1.5), "survival"),
    (lambda path: (path.write_text("n,P_n\n-1,1\n"), st.parse_state_spec(f"pn:{path}")),
     "nonnegative integers"),
], ids=["not_1d", "negative_entry", "unnormalized", "negative_thermal_mean",
        "negative_fock", "weight_count", "negative_weight", "nan_pn", "negative_g2_pn",
        "survival_above_1", "negative_photon_number"])
def test_out_of_range_input_named(tmp_path, make, message):
    with pytest.raises(ValueError, match=message):
        make(tmp_path / "pn.csv")


def test_apply_loss_matches_binomial_oracle():
    # thin fock(3) by hand: P(m) = C(3,m) s^m (1-s)^(3-m)
    s = 0.4
    lost = st.binomial_loss_pn(st.fock(3).pn, s)
    expect = np.array([math.comb(3, m) * s**m * (1 - s) ** (3 - m) for m in range(4)])
    np.testing.assert_allclose(lost, expect, rtol=1e-12)


def dense_loss_reference(p, s):
    """The dense (size x size) binomial matrix the thinning used to build."""
    n = np.arange(p.size)
    out = sps.binom.pmf(n[:, None], n[None, :], s) @ p
    return out / out.sum()


class TestBinomialLoss:
    @pytest.mark.parametrize("state", [
        st.thermal(1.0), st.coherent(3.0), st.fock(5),
        st.parse_state_spec("mix:0.3*thermal:0.5+0.7*fock:2"),
    ], ids=lambda s: s.label)
    @pytest.mark.parametrize("s", [0.0, 1e-3, 0.3, 0.5, 0.999, 1.0])
    def test_matches_dense_reference(self, state, s):
        got = st.binomial_loss_pn(state.pn, s)
        np.testing.assert_allclose(got, dense_loss_reference(state.pn, s),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("make", [st.thermal, st.coherent], ids=["thermal", "coherent"])
    @pytest.mark.parametrize("mean,s", [(0.5, 0.3), (4.0, 0.7), (30.0, 0.1)])
    def test_thinned_family_stays_in_family(self, make, mean, s):
        got = st.binomial_loss_pn(make(mean).pn, s)
        ref = make(s * mean).pn
        m = min(got.size, ref.size)
        np.testing.assert_allclose(got[:m], ref[:m], rtol=0, atol=1e-10)
        assert got[m:].sum() < 1e-10 and ref[m:].sum() < 1e-10

    def test_thermal_1000_in_linear_memory(self):
        pn = st.thermal(1000.0).pn
        assert pn.size > 50000        # the dense matrix would need ~20 GiB
        got = st.binomial_loss_pn(pn, 0.2)
        ref = st.thermal(200.0).pn
        np.testing.assert_allclose(got[:ref.size], ref, rtol=0, atol=1e-10)
        assert st.g2q_from_pn(got) == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("mean", [1e-3, 0.02, 0.5, 1.0, 3.0, 12.5, 100.0, 2500.0])
def test_coherent_pn_matches_scipy_poisson(mean):
    pn = st.coherent(mean).pn
    ref = sps.poisson.pmf(np.arange(pn.size), mean)
    np.testing.assert_allclose(pn, ref / ref.sum(), rtol=1e-10, atol=1e-300)
    assert 1.0 - sps.poisson.cdf(pn.size - 1, mean) < 1e-13
