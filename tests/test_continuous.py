import math
from dataclasses import replace

import numpy as np
import pytest

from snspd_stats import (CwConfig, DetectorConfig, ModeProfile,
                         DomainError, EfficiencyProfile, MemoryKernels,
                         QuadratureSpec, StateSpec, carryover_matrix,
                         click_distribution_cw, click_distribution_independent,
                         coherent_click_probability,
                         coherent_click_probability_after_gap, cond_prob_matrix,
                         last_click_density, last_click_density_fock,
                         memory_kernels, memory_probability_q, no_count_exposure,
                         photon_number_dist, resolve_delta)
from snspd_stats.independent import fock_row, regular_irregular_split
from snspd_stats.quadrature import _gauss

SPEC = QuadratureSpec()
EXP = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2))
IDEAL = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.ideal())
CW = CwConfig(delta=0.3, window_count=3)


@pytest.fixture(autouse=True)
def _silence_delta_warning(recwarn):
    import warnings
    warnings.simplefilter("always")
    yield


@pytest.fixture(scope="module")
def exp_kernels():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return memory_kernels(EXP, CW, m_max=6, spec=SPEC)


class TestNoCountExposure:
    def test_ideal_always_one(self):
        for tau in (0.0, 0.1, 3.0):
            assert no_count_exposure(IDEAL, tau) == 1.0

    def test_recovered_detector(self):
        assert no_count_exposure(EXP, 10.0) == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_at_dead_time(self):
        expect = 1 - 0.2 * (1 - math.exp(-5.0))
        assert no_count_exposure(EXP, 0.05) == pytest.approx(expect, abs=1e-12)


class TestConditionedProbability:
    def test_no_click_formula(self):
        val = coherent_click_probability_after_gap(EXP, 0, 4.0, 0.1, SPEC)
        assert val == pytest.approx(
            math.exp(-4.0 * float(no_count_exposure(EXP, 0.1))), abs=1e-12)

    def test_markovian_boundary(self):
        horizon = 0.05 + 20 * 0.2
        for n in range(4):
            free = coherent_click_probability(EXP, n, 4.0, SPEC)
            cond = coherent_click_probability_after_gap(EXP, n, 4.0, horizon, SPEC)
            assert abs(free - cond) < 1e-6

    def test_ideal_ignores_carry(self):
        val = coherent_click_probability_after_gap(IDEAL, 2, 4.0, 0.0, SPEC)
        assert val == pytest.approx(math.exp(-4) * 8, abs=1e-12)


class TestCarryoverMatrix:
    def test_ideal_equals_plain_matrix(self):
        D = carryover_matrix(IDEAL, CW, m_max=5, spec=SPEC)
        P = cond_prob_matrix(IDEAL, m_max=5, spec=SPEC)
        assert np.array_equal(D.entries, P.entries)

    def test_vacuum_column(self, exp_kernels):
        assert exp_kernels.d_matrix.entries[0, 0] == 1.0

    def test_memory_suppresses_single_click(self, exp_kernels):
        assert exp_kernels.d_matrix.entries[1, 1] < 1.0

    def test_columns_normalize(self, exp_kernels):
        sums = exp_kernels.d_matrix.column_sums()
        assert np.max(np.abs(sums - 1.0)) < 1e-4

    def test_no_more_clicks_than_photons(self, exp_kernels):
        D = exp_kernels.d_matrix.entries
        for n in range(D.shape[0]):
            for m in range(n):
                assert D[n, m] == 0.0


class TestMemoryKernels:
    def test_vacuum_values(self, exp_kernels):
        assert exp_kernels.a_m[0] == 1.0
        assert exp_kernels.b_m[0] == 1.0
        assert exp_kernels.c_m[0] == 0.0

    def test_difference_identity_exact(self, exp_kernels):
        assert np.array_equal(exp_kernels.c_m,
                              exp_kernels.a_m - exp_kernels.b_m)

    def test_ideal_memoryless(self):
        kern = memory_kernels(IDEAL, CW, m_max=20, spec=SPEC)
        assert np.all(kern.c_m == 0.0)
        assert np.array_equal(kern.a_m, kern.b_m)
        # every photon has to arrive before the last Delta
        ref = (1.0 - CW.delta / IDEAL.tau_m) ** np.arange(21)
        assert np.abs(kern.a_m - ref).max() <= 1e-15

    def test_fresh_kernel_against_pinned_density(self, exp_kernels):
        # independent route: integrate the nested-Gauss last-click density
        # over the memory interval (under auto it reads the kernels' chain)
        x, w = _gauss(16)
        total = 0.0
        for lo, hi in [(0.0, 0.05), (0.05, 0.1), (0.1, 0.2), (0.2, 0.3)]:
            taus = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
            vals = last_click_density_fock(EXP, 4, taus, replace(SPEC, method="nested_gauss"))
            total += 0.5 * (hi - lo) * float(w @ vals)
        assert 1.0 - exp_kernels.a_m[4] == pytest.approx(total, abs=1e-6)

    def test_bounds(self, exp_kernels):
        assert np.all(exp_kernels.a_m >= 0) and np.all(exp_kernels.a_m <= 1)
        assert np.all(exp_kernels.b_m >= 0) and np.all(exp_kernels.b_m <= 1)
        assert np.all(np.abs(exp_kernels.c_m) < 1)


class TestMemoryProbability:
    def test_no_history(self, exp_kernels):
        cw1 = CwConfig(delta=0.3, window_count=1)
        assert memory_probability_q(exp_kernels, [], cw1) == 1.0
        vac = photon_number_dist(StateSpec.fock(0), eta=1.0, nu=0.0)
        assert memory_probability_q(exp_kernels, [vac], cw1) == 1.0

    def test_all_vacuum_history(self, exp_kernels):
        vac = photon_number_dist(StateSpec.fock(0), eta=1.0, nu=0.0)
        q = memory_probability_q(exp_kernels, [vac], CwConfig(delta=0.3, window_count=9))
        assert q == 1.0

    def test_geometric_limit(self, exp_kernels):
        dist = photon_number_dist(StateSpec.coherent(1.5), eta=1.0, nu=0.0, m_max=6)
        b = float(dist.probs @ exp_kernels.b_m)
        c = float(dist.probs @ exp_kernels.c_m)
        cw = CwConfig(delta=0.3, window_count=10, memory_depth="geometric_limit")
        assert memory_probability_q(exp_kernels, [dist], cw) == pytest.approx(
            b / (1 - c), abs=1e-14)

    def test_truncation_close_to_limit(self, exp_kernels):
        dist = photon_number_dist(StateSpec.coherent(1.5), eta=1.0, nu=0.0, m_max=6)
        c = float(dist.probs @ exp_kernels.c_m)
        lim = memory_probability_q(exp_kernels, [dist], CwConfig(
            delta=0.3, window_count=60, memory_depth="geometric_limit"))
        dep8 = memory_probability_q(exp_kernels, [dist], CwConfig(
            delta=0.3, window_count=60, memory_depth=8))
        assert abs(lim - dep8) <= max(abs(c) ** 8, 1e-15)

    def test_exact_short_history(self, exp_kernels):
        dist = photon_number_dist(StateSpec.coherent(1.5), eta=1.0, nu=0.0, m_max=6)
        b = float(dist.probs @ exp_kernels.b_m)
        c = float(dist.probs @ exp_kernels.c_m)
        q3 = memory_probability_q(exp_kernels, [dist], CwConfig(delta=0.3, window_count=3))
        assert q3 == pytest.approx(b + c * (b + c), abs=1e-14)

    def test_divergent_kernels_refused(self, exp_kernels):
        bad = MemoryKernels(a_m=np.array([1.0, 2.5]), b_m=np.array([1.0, 0.5]),
                            c_m=np.array([0.0, 2.0]),
                            d_matrix=exp_kernels.d_matrix, delta=0.3)
        one = photon_number_dist(StateSpec.fock(1), eta=1.0, nu=0.0)
        with pytest.raises(DomainError, match="diverges"):
            memory_probability_q(bad, [one], CW)

    def test_history_length_validation(self, exp_kernels):
        one = photon_number_dist(StateSpec.fock(1), eta=1.0, nu=0.0)
        with pytest.raises(DomainError):
            memory_probability_q(exp_kernels, [one, one],
                                 CwConfig(delta=0.3, window_count=5))

    def test_geometric_limit_needs_one_state(self, exp_kernels):
        one = photon_number_dist(StateSpec.fock(1), eta=1.0, nu=0.0)
        cw = CwConfig(delta=0.3, window_count=5, memory_depth="geometric_limit")
        with pytest.raises(DomainError, match="single i.i.d. state"):
            memory_probability_q(exp_kernels, [one, one], cw)

    def test_state_beyond_the_kernels_is_refused(self, exp_kernels):
        eight = photon_number_dist(StateSpec.fock(8), eta=1.0, nu=0.0)
        with pytest.raises(DomainError, match="exceeds the kernel range"):
            memory_probability_q(exp_kernels, [eight], CW)


class TestCwDistribution:
    def test_ideal_reduces_to_independent(self):
        dist = photon_number_dist(StateSpec.coherent(2.0), eta=1.0, nu=0.0)
        cw_out = click_distribution_cw(dist, IDEAL, CW, SPEC)
        ind = click_distribution_independent(dist, IDEAL, SPEC)
        assert np.max(np.abs(cw_out.probs - ind.probs)) <= 1e-10

    def test_lambda_normalization_linearity(self, exp_kernels):
        P = cond_prob_matrix(EXP, m_max=6, spec=SPEC)
        D = exp_kernels.d_matrix
        for q in (0.0, 0.37, 1.0):
            mix = q * P.entries + (1 - q) * D.entries
            assert np.max(np.abs(mix.sum(axis=0) - 1.0)) < 1e-4

    def test_distribution_normalizes(self, exp_kernels):
        dist = photon_number_dist(StateSpec.fock(3), eta=0.9, nu=0.0)
        P = cond_prob_matrix(EXP, m_max=6, spec=SPEC)
        out = click_distribution_cw(dist, EXP, CW, SPEC, kernels=exp_kernels, matrix=P)
        assert out.total() + dist.tail == pytest.approx(1.0, abs=1e-4)
        assert 0.0 <= out.meta["q"] <= 1.0

    def test_precomputed_tables_must_cover_the_state(self, exp_kernels):
        eight = photon_number_dist(StateSpec.fock(8), eta=1.0, nu=0.0)
        P6 = cond_prob_matrix(EXP, m_max=6, spec=SPEC)
        P8 = cond_prob_matrix(EXP, m_max=8, spec=SPEC)
        for kernels, matrix in ((exp_kernels, P8), (None, P6)):
            with pytest.raises(DomainError, match="do not cover the state's m_max"):
                click_distribution_cw(eight, EXP, CW, SPEC, kernels=kernels, matrix=matrix)

    def test_window_dependence_decays(self, exp_kernels):
        dist = photon_number_dist(StateSpec.fock(3), eta=0.9, nu=0.0)
        P = cond_prob_matrix(EXP, m_max=6, spec=SPEC)
        tv = []
        prev = None
        for l in range(1, 9):
            out = click_distribution_cw(
                dist, EXP, CwConfig(delta=0.3, window_count=l), SPEC,
                kernels=exp_kernels, matrix=P)
            if prev is not None:
                tv.append(0.5 * np.abs(out.probs - prev).sum())
            prev = out.probs
        assert tv[0] > 0
        # geometric decay of the window-number dependence
        for early, late in zip(tv, tv[1:]):
            assert late <= early + 1e-15

    def test_ergodicity_l6_vs_l7(self, exp_kernels):
        dist = photon_number_dist(StateSpec.coherent(2.0), eta=1.0, nu=0.0)
        kern = memory_kernels(EXP, CW, m_max=dist.m_max, spec=SPEC) \
            if dist.m_max > 6 else exp_kernels
        P = cond_prob_matrix(EXP, m_max=dist.m_max, spec=SPEC)
        six = click_distribution_cw(dist, EXP, CwConfig(delta=0.3, window_count=6),
                                    SPEC, kernels=kern, matrix=P)
        seven = click_distribution_cw(dist, EXP, CwConfig(delta=0.3, window_count=7),
                                      SPEC, kernels=kern, matrix=P)
        tv = 0.5 * float(np.abs(six.probs - seven.probs).sum())
        assert tv < 1e-3


class TestLastClickDensity:
    def test_ideal_closed_form(self):
        taus = np.array([0.1, 0.25, 0.6])
        vals = last_click_density(IDEAL, 4.0, taus, SPEC)
        assert np.max(np.abs(vals - 4.0 * np.exp(-4.0 * taus))) < 1e-12

    def test_vacuum_has_no_clicks(self):
        assert last_click_density(EXP, 0.0, 0.2, SPEC) == 0.0

    def test_fock_vacuum_zero(self):
        assert last_click_density_fock(EXP, 0, 0.2, SPEC) == 0.0

    def test_normalization_coarse(self):
        # quick version of the first-window identity
        x, w = _gauss(4)
        total = 0.0
        edges = np.arange(0.0, 1.0 + 1e-9, 0.05)
        fast = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-8, qmc_samples=1 << 13)
        for lo, hi in zip(edges[:-1], edges[1:]):
            taus = 0.5 * (hi - lo) * x + 0.5 * (lo + hi)
            vals = last_click_density(EXP, 1.0, taus, fast)
            total += 0.5 * (hi - lo) * float(w @ vals)
        assert math.exp(-1.0) + total == pytest.approx(1.0, abs=1e-4)

    def test_n_cut_checked(self):
        # 2.5 broke the row range; 0 and -3 summed no rows and gave 0.0
        for config in (EXP, IDEAL):
            for n_cut in (2.5, 0, -3):
                with pytest.raises(DomainError):
                    last_click_density(config, 4.0, 0.2, SPEC, n_cut=n_cut)
        assert last_click_density(EXP, 4.0, 0.2, SPEC, n_cut=np.int64(1)) > 0.0

    def test_offset_domain_checked(self):
        with pytest.raises(DomainError):
            last_click_density(EXP, 4.0, 1.2, SPEC)
        for density, arg in ((last_click_density, 4.0), (last_click_density_fock, 3)):
            with pytest.raises(DomainError):
                density(EXP, arg, math.nan, SPEC)
            with pytest.raises(DomainError):
                density(EXP, arg, 0.2, SPEC, carry=-0.1)
        # the split is by the last click's time, and needs a click number
        with pytest.raises(DomainError):
            regular_irregular_split(EXP, -1, 2, SPEC)


class TestDeltaResolution:
    def test_defaults(self):
        assert resolve_delta(DetectorConfig(
            tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.04)),
            CwConfig()) == pytest.approx(0.04)
        capped = resolve_delta(EXP, CwConfig())
        assert capped == pytest.approx(0.3)

    def test_tabulated_default_is_the_first_recovered_knot(self):
        curve = [(0.0, 0.0), (0.1, 0.5), (0.15, 0.995), (0.2, 0.98), (0.4, 1.0)]
        config = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.tabulated(curve))
        assert resolve_delta(config, CwConfig()) == 0.15
        late = [(0.0, 0.0), (0.8, 0.99), (2.0, 1.0)]  # capped at 0.3 tau_m
        config = DetectorConfig(tau_m=2.0, efficiency=EfficiencyProfile.tabulated(late))
        assert resolve_delta(config, CwConfig()) == pytest.approx(0.6)

    def test_ideal_default(self):
        assert resolve_delta(IDEAL, CwConfig()) == pytest.approx(1e-3)
        assert resolve_delta(replace(IDEAL, tau_m=4.0), CwConfig()) == pytest.approx(4e-3)

    def test_warning_on_unrecovered_delta(self):
        with pytest.warns(UserWarning, match="uniform-distribution"):
            resolve_delta(EXP, CwConfig(delta=0.3))

    def test_kernels_warn_once(self):
        import warnings
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            memory_kernels(EXP, CwConfig(delta=0.1), m_max=2, spec=SPEC)
        assert len([w for w in caught if issubclass(w.category, UserWarning)]) == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            CwConfig(delta=-0.1)
        with pytest.raises(DomainError):
            CwConfig(window_count=0)
        with pytest.raises(DomainError):
            CwConfig(memory_depth="sometimes")
        with pytest.raises(DomainError):
            CwConfig(memory_depth=2.5)
        with pytest.raises(DomainError):
            resolve_delta(EXP, CwConfig(delta=1.5))


def test_carry_average_against_scanned_simulation(exp_kernels):
    # weigh fixed-carry simulations with the same average the matrix uses
    from snspd_stats import SimSpec, StateSpec, empirical_distribution
    taus, wts = [], []
    for lo, hi in [(0.0, 0.05), (0.05, 0.3)]:
        x, w = _gauss(4)
        taus.extend(0.5 * (hi - lo) * x + 0.5 * (lo + hi))
        wts.extend(0.5 * (hi - lo) * w / 0.3)
    trials = 50_000
    acc = 0.0
    for tau, wt in zip(taus, wts):
        mc = empirical_distribution(
            StateSpec.fock(1), EXP,
            SimSpec(trials=trials, seed=int(tau * 1e7) % 99991,
                    carry_in="fixed_tau", fixed_tau=float(tau)))
        acc += wt * mc.probs[1]
    d11 = exp_kernels.d_matrix.entries[1, 1]
    assert d11 < 1.0
    se = math.sqrt(d11 * (1 - d11) / trials)  # correlated nodes, conservative
    assert abs(acc - d11) < 4 * se


def test_kernels_serialize(exp_kernels):
    d = exp_kernels.to_json_dict()
    assert len(d["a_m"]) == 7
    assert float(d["c_m"][0]) == 0.0
    assert d["carry_averaged_matrix"]["digest"]


def test_first_window_has_no_memory(exp_kernels):
    dist = photon_number_dist(StateSpec.fock(3), eta=0.9, nu=0.0)
    P = cond_prob_matrix(EXP, m_max=6, spec=SPEC)
    first = click_distribution_cw(dist, EXP, CwConfig(delta=0.3, window_count=1),
                                  SPEC, kernels=exp_kernels, matrix=P)
    ind = click_distribution_independent(dist, EXP, SPEC)
    pad = max(len(first.probs), len(ind.probs))
    a = np.pad(first.probs, (0, pad - len(first.probs)))
    b = np.pad(ind.probs, (0, pad - len(ind.probs)))
    assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("method, n", [("nested_gauss", 1), ("nested_gauss", 3),
                                       ("qmc_sobol", 6)])
@pytest.mark.parametrize("last_click", [None, (0.7, 1.0), 0.8], ids=["fresh", "range", "pin"])
def test_fock_row_carry_average_matches_one_carry_rows(method, n, last_click):
    # two carries inside the dead time, which keep their own support under
    # nested Gauss, and two past it, which share one integrand
    spec = QuadratureSpec(method=method, qmc_samples=4096)
    taus, weights = np.array([0.01, 0.04, 0.05, 0.3]), np.array([0.1, 0.2, 0.3, 0.4])
    exps = np.arange(4)
    value, err = fock_row(EXP, n, exps, spec, (taus, weights), last_click)
    assert value.shape == err.shape == exps.shape
    rows = [fock_row(EXP, n, exps, spec, ([c], [1.0]), last_click) for c in taus]
    np.testing.assert_allclose(value, weights @ [row for row, _ in rows],
                               rtol=spec.rel_tol, atol=spec.abs_tol)


TAB_MODE = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2),
                          mode=ModeProfile.tabulated(
                              [(t, 1.0 + math.sin(3.0 * t)) for t in np.linspace(0, 1, 11)]))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("carry", [None, 0.02])
@pytest.mark.parametrize("config, rtol", [
    (EXP, 1e-12),
    (DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.05)), 1e-12),
    (TAB_MODE, 1e-4),
], ids=["exp", "deadtime", "tabulated_mode"])
def test_pinned_rows_integrate_to_last_click_range(config, rtol, n, carry):
    # the pinned density in the last-click time integrates to the range row
    exps = np.arange(3)
    carries = None if carry is None else ([carry], [1.0])
    x, w = _gauss(16)
    lo, hi = 0.7, 0.9
    pinned = sum(0.5 * (hi - lo) * wk
                 * fock_row(config, n, exps, SPEC, carries,
                            0.5 * (hi - lo) * xk + 0.5 * (hi + lo))[0]
                 for xk, wk in zip(x, w))
    ranged, _ = fock_row(config, n, exps, SPEC, carries, (lo, hi))
    np.testing.assert_allclose(pinned, ranged, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("config", [
    IDEAL, DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.05))],
    ids=["ideal", "deadtime"])
def test_after_gap_rejects_negative_click_number(config):
    with pytest.raises(DomainError):
        coherent_click_probability_after_gap(config, -1, 1.0, 0.1)
