import math
import re

import numpy as np
import pytest
from scipy.stats import binom, poisson

from snspd_stats import (ConsistencyError, DetectorConfig, DomainError,
                         EfficiencyProfile, PhotonNumberDist, StateSpec,
                         photon_number_dist, squeezed_click_density)
from snspd_stats.states import (TAIL_BOUND, _scaled_legendre, check_tail,
                                squeezed_density_from_weights, within_tail)

SQUEEZED_P0_R15 = 0.4250960349422805  # 1/cosh(1.5)


def loss_channel_oracle(r, eta, m_max, k_max=400):
    """Binomial loss applied to the exact even-number expansion."""
    w = np.zeros(k_max + 1)
    lt = math.log(math.tanh(r) / 2.0)
    lc = math.log(math.cosh(r))
    for k in range(k_max // 2):
        w[2 * k] = math.exp(math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1)
                            + 2 * k * lt - lc)
    out = np.zeros(m_max + 1)
    for k in range(k_max + 1):
        if w[k] == 0.0:
            continue
        top = min(k, m_max)
        out[:top + 1] += w[k] * binom.pmf(np.arange(top + 1), k, eta)
    return out


class TestFock:
    def test_binomial_examples(self):
        d = photon_number_dist(StateSpec.fock(4), eta=0.8, nu=0.0)
        assert d.probs[4] == pytest.approx(0.4096, abs=1e-12)
        assert d.probs[3] == pytest.approx(0.4096, abs=1e-12)

    def test_unit_efficiency_is_point_mass(self):
        d = photon_number_dist(StateSpec.fock(3), eta=1.0, nu=0.0)
        assert d.probs[3] == 1.0 and d.tail == 0.0

    def test_dark_convolution_mean(self):
        d = photon_number_dist(StateSpec.fock(2), eta=0.7, nu=0.4, m_max=40)
        assert d.mean() == pytest.approx(0.7 * 2 + 0.4, abs=1e-6)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    def test_binomial_matches_scipy(self, eta):
        d = photon_number_dist(StateSpec.fock(12), eta=eta, nu=0.0)
        np.testing.assert_allclose(d.probs, binom.pmf(np.arange(13), 12, eta),
                                   rtol=1e-12, atol=0.0)

    def test_dark_convolution_is_poisson_exactly(self):
        # a point mass convolved with the dark pmf is the shifted dark pmf
        for k in (0, 2):
            d = photon_number_dist(StateSpec.fock(k), eta=1.0, nu=0.3, m_max=30)
            assert np.array_equal(d.probs[k:], poisson.pmf(np.arange(31 - k), 0.3))
            assert np.all(d.probs[:k] == 0.0)

    def test_large_dark_rate_reaches_the_cap(self):
        d = photon_number_dist(StateSpec.fock(2), eta=0.5, nu=40.0)
        assert d.m_max == 64 and d.tail > 0

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -0.1])
    def test_bad_dark_rate_is_rejected(self, nu):
        with pytest.raises(DomainError, match="nu must be finite and nonnegative"):
            photon_number_dist(StateSpec.fock(2), eta=0.5, nu=nu)
        spec = StateSpec(kind="fock", k=2, nu=nu)
        with pytest.raises(DomainError, match="nu must be finite and nonnegative"):
            photon_number_dist(spec, eta=0.5)


class TestCoherent:
    def test_poisson_termwise(self):
        d = photon_number_dist(StateSpec.coherent(2.0), eta=0.9, nu=0.05, m_max=30)
        mean = 0.9 * 4.0 + 0.05
        ref = poisson.pmf(np.arange(31), mean)
        assert np.array_equal(d.probs, ref)

    @pytest.mark.parametrize("alpha0, eta, nu", [
        (0.0, 1.0, 0.0), (0.0, 0.5, 0.3), (5.0, 0.8, 0.1), (1e-7, 1.0, 0.0), (7.0, 1.0, 2.0)])
    def test_poisson_matches_scipy_exactly(self, alpha0, eta, nu):
        d = photon_number_dist(StateSpec.coherent(alpha0), eta=eta, nu=nu, m_max=64)
        assert np.array_equal(d.probs, poisson.pmf(np.arange(65), eta * alpha0**2 + nu))

    def test_default_m_max_tail(self):
        d = photon_number_dist(StateSpec.coherent(2.0), eta=1.0, nu=0.0)
        assert d.tail < 1e-8

    def test_records_its_poisson_mean(self):
        d = photon_number_dist(StateSpec.coherent(2.0), eta=0.9, nu=0.05, m_max=3)
        assert d.poisson_mean == 0.9 * 4.0 + 0.05

    @pytest.mark.parametrize("alpha0", [1e200, -1e160, math.inf, math.nan])
    def test_amplitude_without_a_finite_mean_is_rejected(self, alpha0):
        # |alpha0|^2 overflows a float: the mean photon number is not finite
        with pytest.raises(DomainError, match="coherent amplitude"):
            StateSpec.coherent(alpha0)
        with pytest.raises(DomainError, match="coherent amplitude"):
            StateSpec.from_json_dict({"kind": "coherent", "alpha0": alpha0})

    def test_largest_amplitudes_still_build(self):
        assert StateSpec.coherent(1e150).alpha0 == 1e150


@pytest.mark.parametrize("state", [StateSpec.fock(3), StateSpec.squeezed(0.5),
                                   StateSpec.custom([0.5, 0.5])])
def test_only_coherent_states_record_a_poisson_mean(state):
    assert photon_number_dist(state, eta=0.9, nu=0.1).poisson_mean is None


@pytest.mark.parametrize("state", [StateSpec.coherent(1.0), StateSpec.fock(3),
                                   StateSpec.squeezed(0.5), StateSpec.custom([0.5, 0.5])])
@pytest.mark.parametrize("m_max", [2.5, 3.0, -1, True, "4", np.float64(4.0)])
def test_explicit_m_max_must_be_a_nonnegative_integer(state, m_max):
    with pytest.raises(DomainError, match="m_max must be (an integer|nonnegative)"):
        photon_number_dist(state, eta=0.9, nu=0.1, m_max=m_max)


@pytest.mark.parametrize("m_max", [0, 3, np.int64(3)])
def test_explicit_m_max_sets_the_length(m_max):
    d = photon_number_dist(StateSpec.coherent(1.0), eta=1.0, nu=0.0, m_max=m_max)
    assert d.m_max == m_max and len(d.probs) == m_max + 1
    assert d.tail == pytest.approx(1.0 - d.probs.sum())


class TestSqueezed:
    def test_vacuum_weight(self):
        d = photon_number_dist(StateSpec.squeezed(1.5), eta=1.0, nu=0.0, m_max=20)
        assert d.probs[0] == pytest.approx(SQUEEZED_P0_R15, abs=1e-14)

    def test_odd_numbers_vanish_at_unit_efficiency(self):
        d = photon_number_dist(StateSpec.squeezed(1.5), eta=1.0, nu=0.0, m_max=30)
        assert np.max(d.probs[1::2]) <= 1e-12

    @pytest.mark.parametrize("eta", [1.0, 0.8, 0.55])
    def test_matches_loss_channel(self, eta):
        d = photon_number_dist(StateSpec.squeezed(1.5), eta=eta, nu=0.0, m_max=24)
        ref = loss_channel_oracle(1.5, eta, 24)
        assert np.max(np.abs(d.probs - ref)) < 1e-12

    def test_even_default_cutoff(self):
        d = photon_number_dist(StateSpec.squeezed(0.8), eta=1.0, nu=0.0)
        assert d.m_max % 2 == 0
        assert d.tail < 1e-8

    def test_heavy_tail_hits_cap(self):
        d = photon_number_dist(StateSpec.squeezed(1.5), eta=0.8, nu=0.0)
        assert d.m_max == 64  # cap reached; tail stays explicit
        assert d.tail > 0

    # at 400 and 800 sinh(r)^2 overflows a float: the mean photon number is not finite
    @pytest.mark.parametrize("r", [math.nan, math.inf, -0.5, 400.0, 800.0])
    def test_bad_squeezing_is_rejected(self, r):
        with pytest.raises(DomainError):
            StateSpec.squeezed(r)
        with pytest.raises(DomainError):
            StateSpec.parse(f"squeezed:{r}")

    def test_largest_squeezing_still_builds(self):
        d = photon_number_dist(StateSpec.squeezed(355.0), eta=1.0, nu=0.0, m_max=8)
        assert np.all(np.isfinite(d.probs)) and d.tail == pytest.approx(1.0)

    def test_long_cutoff_is_the_even_expansion(self):
        # P_2k = (2k)! / (2^k k!)^2 tanh^2k(r) / cosh(r), far past where a
        # separate power and denominator would overflow
        r = 3.0
        d = photon_number_dist(StateSpec.squeezed(r), eta=1.0, nu=0.0, m_max=512)
        k = np.arange(257)
        from scipy.special import gammaln
        even = np.exp(gammaln(2 * k + 1) - 2 * gammaln(k + 1) - 2 * k * math.log(2.0)
                      + 2 * k * math.log(math.tanh(r)) - math.log(math.cosh(r)))
        np.testing.assert_allclose(d.probs[::2], even, rtol=1e-12, atol=0.0)
        assert np.all(d.probs[1::2] == 0.0)
        assert d.probs.sum() + d.tail == pytest.approx(1.0, abs=1e-12)
        assert d.tail == pytest.approx(0.0240, abs=1e-4)

    def test_strong_squeezing_keeps_its_tail(self):
        d = photon_number_dist(StateSpec.squeezed(12.0), eta=1.0, nu=0.0)
        assert d.m_max == 64 and np.all(np.isfinite(d.probs))
        assert d.tail > 0.999

    @pytest.mark.parametrize("r, eta", [(0.5, 0.4), (2.7, 0.1), (3.0, 0.55)])
    def test_long_cutoff_with_loss_matches_high_precision(self, r, eta):
        # the closed form at 60 digits, where the values span hundreds of decades
        mp = pytest.importorskip("mpmath")
        d = photon_number_dist(StateSpec.squeezed(r), eta=eta, nu=0.0, m_max=511)
        with mp.workdps(60):
            s, e = mp.sinh(mp.mpf(r)), mp.mpf(eta)
            big_d = 1 + (2 - e) * e * s * s
            y = s * (e - 1) / mp.sqrt(big_d)
            for m in (1, 40, 123, 300, 444, 490, 511):
                ref = mp.re((1j * e * s) ** m / big_d ** (mp.mpf(m + 1) / 2)
                            * mp.legendre(m, 1j * y))
                assert d.probs[m] == pytest.approx(float(ref), rel=1e-12, abs=0.0)


class TestCustom:
    def test_validation(self):
        with pytest.raises(DomainError):
            StateSpec.custom([0.5, 0.6])
        with pytest.raises(DomainError):
            StateSpec.custom([0.5, -0.5, 1.0])
        for bad in ([0.5, math.nan], [0.5, math.inf], [math.nan]):
            with pytest.raises(DomainError):
                StateSpec.custom(bad)

    def test_loss_thinning(self):
        d = photon_number_dist(StateSpec.custom([0.0, 0.0, 1.0]), eta=0.5, nu=0.0)
        assert d.probs == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_loss_thinning_of_many_photons_matches_scipy(self):
        probs = np.zeros(201)
        probs[180:] = np.linspace(1.0, 2.0, 21)
        probs /= probs.sum()
        d = photon_number_dist(StateSpec.custom(probs), eta=0.7, nu=0.0)
        ref = sum(p * binom.pmf(np.arange(201), k, 0.7) for k, p in enumerate(probs) if p)
        assert d.m_max == 200
        np.testing.assert_allclose(d.probs, ref, rtol=1e-12, atol=0.0)


class TestStateSpecParsing:
    def test_parse_shorthand(self):
        assert StateSpec.parse("coherent:2").alpha0 == 2.0
        assert StateSpec.parse("fock:4").k == 4
        assert StateSpec.parse("squeezed:1.5").r == 1.5
        assert StateSpec.parse("vacuum").k == 0
        with pytest.raises(DomainError):
            StateSpec.parse("thermal:1")

    @pytest.mark.parametrize("text", ["coherent:abc", "coherent:", "fock:abc", "fock:2.5",
                                      "squeezed:", "squeezed:x"])
    def test_malformed_number_is_a_domain_error(self, text):
        with pytest.raises(DomainError, match="cannot parse state"):
            StateSpec.parse(text)

    def test_json_round_trip(self):
        spec = StateSpec.from_json_dict({"kind": "squeezed_vacuum", "r": 1.5, "eta": 0.8})
        assert spec.r == 1.5 and spec.eta == 0.8
        assert spec.to_json_dict()["eta"] == 0.8

    @pytest.mark.parametrize("k", [2.5, 2.0, np.float64(2.0), True, "2", None])
    def test_non_integer_fock_number_is_rejected(self, k):
        with pytest.raises(DomainError, match="Fock number must be an integer"):
            StateSpec.fock(k)
        with pytest.raises(DomainError, match="Fock number must be an integer"):
            StateSpec.from_json_dict({"kind": "fock", "k": k})

    @pytest.mark.parametrize("k", [3, np.int64(3), np.uint8(3)])
    def test_integer_fock_numbers_build(self, k):
        spec = StateSpec.fock(k)
        assert spec.k == 3 and type(spec.k) is int
        assert StateSpec.from_json_dict({"kind": "fock", "k": k}) == spec


class TestSqueezedClickDensity:
    def setup_method(self):
        self.cfg = DetectorConfig(
            tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2))

    def test_zero_clicks_is_vacuum_weight(self):
        val = squeezed_click_density(self.cfg, (), 1.5)
        assert val == pytest.approx(SQUEEZED_P0_R15, abs=1e-14)

    @pytest.mark.parametrize("r", [math.nan, -0.5, 400.0, 800.0])
    def test_bad_squeezing_is_rejected(self, r):
        with pytest.raises(DomainError, match="squeezing parameter"):
            squeezed_click_density(self.cfg, (0.3,), r)

    def test_no_squeezing_no_clicks(self):
        assert squeezed_click_density(self.cfg, (0.3,), 0.0) == 0.0
        assert squeezed_click_density(self.cfg, (0.2, 0.6), 0.0) == 0.0

    def test_matches_number_sum_route(self):
        # same quantity through the conditional-probability sum
        from snspd_stats.weights import pulse_weights
        times = (0.3, 0.6)
        r, eta = 1.5, 0.8
        cfg = DetectorConfig(tau_m=1.0, eta=eta,
                             efficiency=EfficiencyProfile.exponential(0.05, 0.2))
        val = squeezed_click_density(cfg, times, r)
        w = pulse_weights(cfg, times)
        dist = photon_number_dist(StateSpec.squeezed(r), eta=eta, nu=0.0, m_max=220)
        ref = sum(dist.probs[m] * math.perm(m, 2) * w.density_factor
                  * (1 - w.exposure) ** (m - 2) for m in range(2, 221))
        assert val == pytest.approx(ref, rel=1e-10)
        assert val > 0

    def test_negative_probability_guard(self):
        with pytest.raises(ConsistencyError):
            PhotonNumberDist(probs=np.array([0.5, -1e-3]), tail=0.0, eta=1.0, nu=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_guard(self, bad):
        with pytest.raises(ConsistencyError, match="not finite"):
            PhotonNumberDist(probs=np.array([0.5, bad]), tail=0.0, eta=1.0, nu=0.0)

    @pytest.mark.parametrize("n, nu", [(1, 0.0), (3, 0.0), (2, 0.4)])
    def test_exposure_past_one_by_round_off(self, n, nu):
        # eta*X = 1 zeroes the Legendre argument; just past it no term turns negative
        at_one = squeezed_density_from_weights(np.array([2.0]), np.array([1.0]), n, 1.5,
                                               nu=nu)
        past = squeezed_density_from_weights(np.array([2.0]), np.array([1.0 + 4e-16]), n,
                                             1.5, nu=nu)
        assert past[0] >= 0.0 and past[0] == pytest.approx(at_one[0], rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("u, rho", [(0.0, 1.0), (0.7, 0.3), (2.5, 1.2)])
    def test_scaled_recurrence_is_the_imaginary_legendre(self, u, rho):
        from scipy.special import eval_legendre
        k = np.arange(12)
        ref = rho**k * np.real(1j**k * eval_legendre(k, -1j * u))
        np.testing.assert_allclose(_scaled_legendre(11, u, rho), ref, rtol=1e-13, atol=1e-15)
        grid = _scaled_legendre(11, np.full((2, 3), u), np.full((2, 3), rho))
        assert grid.shape == (12, 2, 3) and np.allclose(grid[:, 1, 2], ref, rtol=1e-13)


class TestTailRule:
    @pytest.mark.parametrize("m_max", [20, 64])
    @pytest.mark.parametrize("eta", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_refusal_names_a_cutoff_that_meets_the_bound(self, r, eta, m_max):
        dist = photon_number_dist(StateSpec.squeezed(r), eta=eta, nu=0.0, m_max=m_max)
        if dist.tail <= TAIL_BOUND:
            check_tail(dist)
            return
        with pytest.raises(DomainError, match="exceeds") as refusal:
            check_tail(dist)
        message = refusal.value.args[0]
        named = int(re.search(r"m_max (?:up )?to (\d+)", message).group(1))
        wider = photon_number_dist(StateSpec.squeezed(r), eta=eta, nu=0.0, m_max=named)
        if "increase m_max" in message:
            assert named > m_max and wider.tail <= TAIL_BOUND
        else:
            assert "no m_max up to" in message and wider.tail > TAIL_BOUND
            assert named >= 1024

    @pytest.mark.parametrize("r, eta, m_max, named", [
        (1.5, 0.8, None, 256), (1.5, 1.0, 20, 320), (2.0, 1.0, 20, 640)])
    def test_search_doubles_from_the_cutoff(self, r, eta, m_max, named):
        dist = photon_number_dist(StateSpec.squeezed(r), eta=eta, nu=0.0, m_max=m_max)
        assert within_tail(dist).m_max == named
        with pytest.raises(DomainError, match=f"increase m_max to {named}$"):
            check_tail(dist)

    def test_no_cutoff_holds_a_huge_squeezing(self):
        dist = photon_number_dist(StateSpec.squeezed(300.0), eta=1.0, nu=0.0)
        with pytest.raises(DomainError, match="no m_max up to 1024 brings it within"):
            check_tail(dist)

    def test_a_hand_built_distribution_has_no_state_to_widen(self):
        dist = PhotonNumberDist(probs=np.array([0.5, 0.4]), tail=0.1, eta=1.0, nu=0.0)
        assert within_tail(dist) is dist and dist.label == "" and dist.poisson_mean is None
        with pytest.raises(DomainError, match="records no state to rebuild"):
            check_tail(dist)

    def test_a_search_from_zero_photons_starts_at_one(self):
        dist = photon_number_dist(StateSpec.coherent(1.0), eta=1.0, nu=0.0, m_max=0)
        assert within_tail(dist).m_max == 16
