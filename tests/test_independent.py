import math
from dataclasses import replace

import numpy as np
import pytest

from snspd_stats import (DetectorConfig, DomainError,
                         EfficiencyProfile, ModeProfile, QuadratureSpec,
                         SimSpec, StateSpec, click_distribution_independent,
                         coherent_click_probability, cond_prob_matrix,
                         deadtime_closed_form, empirical_distribution, photon_number_dist,
                         regular_irregular_split, same_count_probability,
                         squeezed_distribution_direct)
from snspd_stats import independent, weights

SPEC = QuadratureSpec()
EXP = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2))
DT = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.05))
IDEAL = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.ideal())

SAME_COUNT_N2 = 0.6018078643837503  # hand evaluation at tau_d=.05, tau_r=.2


def binom_weight(m, k, eta):
    return math.comb(m, k) * eta**k * (1 - eta) ** (m - k)


class TestCoherentClickProbability:
    def test_ideal_poisson(self):
        val = coherent_click_probability(IDEAL, 4, 4.0, SPEC)
        assert val == pytest.approx(math.exp(-4) * 4**4 / 24, abs=1e-12)

    def test_no_click_element(self):
        assert coherent_click_probability(EXP, 0, 4.0, SPEC) == pytest.approx(
            math.exp(-4), abs=1e-14)

    def test_beyond_max_clicks_zero(self):
        assert coherent_click_probability(DT, 22, 50.0, SPEC) == 0.0
        # the window is an exact multiple of the dead time here, so even
        # the nominal extra click carries no measure
        assert coherent_click_probability(DT, 21, 50.0, SPEC) == 0.0

    def test_replacement_rule_applied(self):
        lossy = DetectorConfig(tau_m=1.0, eta=0.5, nu=0.2,
                               efficiency=EfficiencyProfile.ideal())
        a = 0.5 * 4.0 + 0.2
        assert coherent_click_probability(lossy, 3, 4.0, SPEC) == pytest.approx(
            math.exp(-a) * a**3 / 6, abs=1e-12)

    def test_cross_route_against_matrix(self):
        # number-basis route with a Poisson mixture must reproduce the
        # coherent-state route
        alpha_sq = 4.0
        dist = photon_number_dist(StateSpec.coherent(2.0), eta=1.0, nu=0.0)
        M = cond_prob_matrix(EXP, m_max=dist.m_max, spec=SPEC)
        mixed = M.entries @ dist.probs
        for n in range(7):
            direct = coherent_click_probability(EXP, n, alpha_sq, SPEC)
            assert abs(mixed[n] - direct) < 1e-5


class TestConditionalMatrix:
    def test_vacuum_column(self):
        M = cond_prob_matrix(DT, m_max=4, spec=SPEC)
        assert M.entries[0, 0] == 1.0
        assert np.all(M.entries[0, 1:] == 0.0)

    def test_one_click_one_photon_any_profile(self):
        for cfg in (DT, EXP):
            M = cond_prob_matrix(cfg, m_max=2, spec=SPEC)
            assert M.entries[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_dead_time_example_value(self):
        M = cond_prob_matrix(DT, m_max=2, spec=SPEC)
        assert M.entries[1, 2] == pytest.approx(0.0975, abs=1e-10)

    def test_no_more_clicks_than_photons(self):
        M = cond_prob_matrix(EXP, n_max=5, m_max=5, spec=SPEC)
        assert np.all(M.entries[np.triu_indices(6, k=1)[::-1]] >= 0)
        for n in range(6):
            for m in range(n):
                assert M.entries[n, m] == 0.0

    def test_pnr_reduction_is_exact_identity(self):
        M = cond_prob_matrix(IDEAL, m_max=8, spec=SPEC)
        assert np.array_equal(M.entries, np.eye(9))

    @pytest.mark.parametrize("cfg", [DT, EXP])
    def test_completeness(self, cfg):
        M = cond_prob_matrix(cfg, m_max=6, spec=SPEC)
        assert np.max(np.abs(M.column_sums() - 1.0)) < 1e-5

    def test_m_max_below_n_max_rejected(self):
        with pytest.raises(DomainError):
            cond_prob_matrix(EXP, n_max=5, m_max=3, spec=SPEC)
        with pytest.raises(DomainError):
            cond_prob_matrix(EXP, m_max=-1, spec=SPEC)

    def test_serialization_embeds_digest(self):
        M = cond_prob_matrix(DT, m_max=2, spec=SPEC)
        csv = M.to_csv()
        assert "digest=" in csv and "n\\m,0,1,2" in csv
        assert M.to_json_dict()["digest"] == M.digest()


class TestDeadtimeClosedForm:
    def test_example_value(self):
        assert deadtime_closed_form(DT, 1, 2) == pytest.approx(0.0975, abs=1e-15)

    def test_pnr_limit(self):
        cfg = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.0))
        assert deadtime_closed_form(cfg, 3, 3) == 1.0
        assert deadtime_closed_form(cfg, 2, 3) == 0.0

    def test_maximal_click_number_completeness(self):
        # last admissible click number absorbs whatever remains
        cfg = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.3))
        for m in range(9):
            total = sum(deadtime_closed_form(cfg, n, m) for n in range(5))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_exact_division_edge(self):
        # 21 dead times never fit a window of 20, even as a boundary case
        assert deadtime_closed_form(DT, 21, 21) == 0.0

    def test_contract_errors(self):
        with pytest.raises(DomainError):
            deadtime_closed_form(EXP, 1, 1)  # nonzero relaxation time
        tab = DetectorConfig(
            tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.05),
            mode=ModeProfile.tabulated([(0.0, 1.0), (1.0, 1.0)]))
        with pytest.raises(DomainError):
            deadtime_closed_form(tab, 1, 1)

    def test_quadrature_agrees(self):
        M = cond_prob_matrix(DT, m_max=4, spec=SPEC)
        for n in range(5):
            for m in range(5):
                assert M.entries[n, m] == pytest.approx(
                    deadtime_closed_form(DT, n, m), abs=1e-8)

    def test_near_zero_relaxation_matches(self):
        # a relaxation time far below the dead time is operationally a pure
        # dead time
        fast = DetectorConfig(
            tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 5e-6))
        M = cond_prob_matrix(fast, n_max=4, m_max=4, spec=SPEC)
        for n in range(5):
            for m in range(5):
                assert abs(M.entries[n, m] - deadtime_closed_form(DT, n, m)) < 1e-4


class TestRegularIrregularSplit:
    def test_parts_sum_to_total(self):
        M = cond_prob_matrix(EXP, m_max=3, spec=SPEC)
        for n in (1, 2, 3):
            for m in range(n, 4):
                reg, irr = regular_irregular_split(EXP, n, m, SPEC)
                assert reg + irr == pytest.approx(M.entries[n, m], abs=2e-6)

    def test_chain_matches_nested_gauss(self, monkeypatch):
        # under auto both spans come off the renewal chain; an explicit
        # method bypasses it, so the two routes check each other
        tables_of, engines = independent.number_tables, []

        def spy(*args):
            tables = tables_of(*args)
            engines.extend(meta["engines"] for _, meta in tables)
            return tables

        monkeypatch.setattr(independent, "number_tables", spy)
        gauss = replace(SPEC, method="nested_gauss")
        for cfg in (EXP, DT):
            for n, m in ((1, 1), (2, 5), (3, 6)):
                engines.clear()
                chain = regular_irregular_split(cfg, n, m, SPEC)
                assert engines == [["closed_form"] + ["renewal"] * n] * 2
                ref = regular_irregular_split(cfg, n, m, gauss)
                assert np.abs(np.subtract(chain, ref)).max() < 1e-10

    def test_single_click_balance(self):
        reg, irr = regular_irregular_split(EXP, 1, 1, SPEC)
        assert reg + irr == pytest.approx(1.0, abs=1e-10)

    def test_dead_time_regular_is_binomial(self):
        # with zero relaxation the regular part is the plain thinning weight
        # at the adjusting efficiency (tau_m - 2 tau_d)/tau_m = 0.9
        for m in (2, 3, 5):
            reg, _ = regular_irregular_split(DT, 2, m, SPEC)
            assert reg == pytest.approx(binom_weight(m, 2, 0.9), abs=1e-9)

    def test_maximal_click_number_has_no_regular_part(self):
        cfg = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.3))
        reg, irr = regular_irregular_split(cfg, 4, 5, SPEC)
        assert reg == 0.0
        assert irr == pytest.approx(deadtime_closed_form(cfg, 4, 5), abs=1e-9)

    def test_requires_monochromatic(self):
        cfg = DetectorConfig(
            tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.05),
            mode=ModeProfile.tabulated([(0.0, 1.0), (1.0, 1.0)]))
        with pytest.raises(DomainError):
            regular_irregular_split(cfg, 1, 1, SPEC)


class TestSameCount:
    def test_pinned_value(self):
        assert same_count_probability(EXP, 2) == pytest.approx(SAME_COUNT_N2, abs=1e-12)

    def test_quadrature_agrees(self):
        M = cond_prob_matrix(EXP, n_max=3, m_max=3, spec=SPEC)
        for n in (2, 3):
            assert same_count_probability(EXP, n) == pytest.approx(
                M.entries[n, n], abs=1e-6)

    def test_trivial_small_numbers(self):
        assert same_count_probability(EXP, 0) == 1.0
        assert same_count_probability(EXP, 1) == 1.0

    def test_zero_relaxation_limit(self):
        cfg = DetectorConfig(
            tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 1e-9))
        assert same_count_probability(cfg, 2) == pytest.approx(0.9025, abs=1e-6)

    def test_pnr_limit(self):
        cfg = DetectorConfig(
            tau_m=1.0, efficiency=EfficiencyProfile.exponential(1e-12, 1e-9))
        assert same_count_probability(cfg, 3) == pytest.approx(1.0, abs=1e-6)

    def test_beyond_cap_zero(self):
        cfg = DetectorConfig(
            tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.3, 0.1))
        assert same_count_probability(cfg, 5) == 0.0

    def test_contract_errors(self):
        with pytest.raises(DomainError):
            same_count_probability(DT, 2)


class TestClickDistribution:
    def test_vacuum(self):
        dist = photon_number_dist(StateSpec.fock(0), eta=1.0, nu=0.0)
        out = click_distribution_independent(dist, EXP, SPEC)
        assert out.probs[0] == 1.0

    def test_ideal_is_poisson(self):
        dist = photon_number_dist(StateSpec.coherent(2.0), eta=1.0, nu=0.0)
        out = click_distribution_independent(dist, IDEAL, SPEC)
        assert np.max(np.abs(out.probs - dist.probs)) == 0.0

    def test_fock_relaxation_spreads_down(self):
        dist = photon_number_dist(StateSpec.fock(4), eta=1.0, nu=0.0)
        out = click_distribution_independent(dist, EXP, SPEC)
        assert out.probs[:4].sum() > 0.4  # big weight below the photon number
        assert out.total() == pytest.approx(1.0, abs=1e-6)

    def test_tail_refusal_names_required_size(self):
        heavy = photon_number_dist(StateSpec.squeezed(1.5), eta=0.8, nu=0.0)
        with pytest.raises(DomainError, match="increase m_max"):
            click_distribution_independent(heavy, EXP, SPEC)

    def test_metadata_records_provenance(self):
        dist = photon_number_dist(StateSpec.fock(2), eta=0.9, nu=0.0)
        out = click_distribution_independent(dist, EXP, SPEC)
        assert out.meta["eta"] == 0.9
        assert out.config["efficiency"]["kind"] == "exponential_recovery"

    @pytest.mark.parametrize("eta", [1.0, 0.8])
    def test_suggested_m_max_brings_the_tail_below_the_bound(self, eta):
        # at eta = 1 every odd entry is zero
        heavy = photon_number_dist(StateSpec.squeezed(1.5), eta=eta, nu=0.0)
        with pytest.raises(DomainError, match=r"increase m_max to (\d+)$") as refusal:
            click_distribution_independent(heavy, EXP, SPEC)
        suggested = int(refusal.value.args[0].rsplit(" ", 1)[1])
        assert heavy.tail > 1e-8 and suggested == 256
        enough = photon_number_dist(StateSpec.squeezed(1.5), eta=eta, nu=0.0, m_max=suggested)
        assert enough.tail <= 1e-8


_KNOTS = np.linspace(0.0, 1.0, 501)
LATTICE = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.tabulated(
    list(zip(_KNOTS, EXP.efficiency.value(_KNOTS)))))
PEAKED_MODE = replace(EXP, mode=ModeProfile.tabulated([(0.0, 1.0), (0.5, 2.0), (1.0, 1.0)]))
QUAD_ROWS = QuadratureSpec(gauss_order=8, qmc_samples=1 << 12, seed=3)


class TestCoherentRoute:
    @pytest.mark.parametrize("config, alpha0, spec", [
        (EXP, 1.0, SPEC), (EXP, 3.0, SPEC), (DT, 2.0, SPEC), (LATTICE, 1.5, SPEC),
        (PEAKED_MODE, 0.5, QUAD_ROWS)], ids=["exp", "exp_past_cap", "dead", "lattice", "mode"])
    def test_matches_the_number_basis(self, config, alpha0, spec):
        dist = photon_number_dist(StateSpec.coherent(alpha0), eta=1.0, nu=0.0)
        out = click_distribution_independent(dist, config, spec)
        basis = cond_prob_matrix(config, m_max=dist.m_max, spec=spec).entries @ dist.probs
        assert out.meta["route"] == "coherent" and out.probs.shape == basis.shape
        assert np.max(np.abs(out.probs - basis)) <= dist.tail + 1e-9
        served = config.mode.kind == "monochromatic"
        assert ("renewal" in out.meta["engines"]) == served
        assert (out.meta["renewal_err"] is None) != served
        assert (out.meta["quad_err"] is None) == served

    def test_lossy_state_takes_its_poisson_mean(self):
        dist = photon_number_dist(StateSpec.coherent(2.0), eta=0.7, nu=0.1)
        out = click_distribution_independent(dist, EXP, SPEC)
        want = [coherent_click_probability(replace(EXP, eta=0.7, nu=0.1), n, 4.0, SPEC)
                for n in range(len(out.probs))]
        assert np.max(np.abs(out.probs - want)) < 1e-15

    def test_rows_to_the_click_cap_are_exact_in_the_photon_number(self):
        # the default cutoff of coherent(6) leaves a tail of 8.8e-6
        dist = photon_number_dist(StateSpec.coherent(6.0), eta=1.0, nu=0.0)
        assert dist.tail > 1e-8 and dist.m_max == 64
        out = click_distribution_independent(dist, EXP, SPEC)
        assert len(out.probs) == EXP.max_clicks() + 1
        assert out.total() == pytest.approx(1.0, abs=1e-8)
        trials = 200_000
        mc = empirical_distribution(StateSpec.coherent(6.0), EXP, SimSpec(trials=trials, seed=11))
        # bins expecting fewer than 25 counts are pooled at each end, where a
        # normal z would misread a single count
        lo, hi = np.nonzero(out.probs * trials >= 25)[0][[0, -1]]
        pa, pe = ([p[:lo].sum(), *p[lo:hi + 1], p[hi + 1:].sum()] for p in (out.probs, mc.probs))
        pa, pe = np.array(pa), np.array(pe)
        z = np.abs(pa - pe) / np.sqrt(pa * (1 - pa) / trials)
        assert z.max() < 4

    @pytest.mark.parametrize("config, m_max", [(EXP, 10), (LATTICE, None)],
                             ids=["below_cap", "no_cap"])
    def test_tail_refusal_stands_short_of_the_cap(self, config, m_max):
        dist = photon_number_dist(StateSpec.coherent(6.0 if m_max is None else 2.0),
                                  eta=1.0, nu=0.0, m_max=m_max)
        with pytest.raises(DomainError, match="increase m_max"):
            click_distribution_independent(dist, config, SPEC)

    def test_vacuum(self):
        dist = photon_number_dist(StateSpec.coherent(0.0), eta=1.0, nu=0.0)
        out = click_distribution_independent(dist, EXP, SPEC)
        assert out.probs.tolist() == [1.0] and out.meta["route"] == "coherent"
        longer = photon_number_dist(StateSpec.coherent(0.0), eta=1.0, nu=0.0, m_max=4)
        assert click_distribution_independent(longer, EXP, SPEC).probs.tolist() == [1.0] + [0.0] * 4

    @pytest.mark.parametrize("state", [StateSpec.fock(3), StateSpec.squeezed(0.5)])
    def test_other_states_keep_the_number_basis(self, state):
        dist = photon_number_dist(state, eta=0.9, nu=0.0)
        out = click_distribution_independent(dist, EXP, SPEC)
        matrix = cond_prob_matrix(EXP, m_max=dist.m_max, spec=SPEC)
        assert np.array_equal(out.probs, matrix.entries @ dist.probs)
        assert out.meta["route"] == "number_basis"
        assert out.meta["engines"] == matrix.meta["engines"]

    def test_ideal_profile_keeps_the_tail_refusal(self):
        # an ideal profile returns the photon numbers themselves, tail and all
        dist = photon_number_dist(StateSpec.coherent(6.0), eta=1.0, nu=0.0)
        with pytest.raises(DomainError, match="increase m_max"):
            click_distribution_independent(dist, IDEAL, SPEC)


class TestSqueezedDirectRoute:
    def test_routes_agree_with_independent_budgets(self):
        cfg = DetectorConfig(tau_m=1.0, eta=0.8,
                             efficiency=EfficiencyProfile.exponential(0.05, 0.2))
        direct = squeezed_distribution_direct(cfg, 1.5, n_max=3, spec=SPEC)
        dist = photon_number_dist(StateSpec.squeezed(1.5), eta=0.8, nu=0.0, m_max=150)
        other = QuadratureSpec(gauss_order=24, seed=3)
        fock = click_distribution_independent(dist, EXP, other)
        assert np.max(np.abs(direct - fock.probs[:4])) < 1e-6

    @pytest.mark.parametrize("r", [math.nan, -0.5, 800.0])
    def test_bad_squeezing_is_rejected(self, r):
        with pytest.raises(DomainError, match="squeezing parameter"):
            squeezed_distribution_direct(EXP, r, n_max=2, spec=SPEC)


class TestPickRows:
    # a synthetic renewal table: row 1 passes its tolerance, row 2 misses it
    # with an estimate below the integrated row's (1e-4), row 3 above it
    VALUE = np.array([[0.0, 0.0], [0.5, 0.25], [0.3, 0.2], [0.1, 0.05]])
    ERR = np.array([[0.0, 0.0], [1e-9, 1e-10], [1e-5, 1e-7], [1e-2, 1e-3]])

    @staticmethod
    def _integrator(calls):
        def integrate(n):
            calls.append(n)
            return np.full(2, 10.0 * n), 1e-4
        return integrate

    def test_rule(self):
        calls = []
        chosen, meta = independent._pick_rows(range(1, 4), self.VALUE, self.ERR, SPEC,
                                              self._integrator(calls), None)
        assert calls == [2, 3]  # only the rejected rows are integrated
        assert np.array_equal(chosen[0], self.VALUE[1])
        assert np.array_equal(chosen[1], self.VALUE[2])  # rejected, but the better row
        assert np.array_equal(chosen[2], [30.0, 30.0])
        assert meta == {"engines": ["renewal", "renewal", "nested_gauss"],
                        "renewal_err": 1e-5, "quad_err": 1e-4}

    def test_scalar_rows_and_a_subset(self):
        # coherent tables hold one value per row; only the rows asked for are read
        calls = []

        def integrate(n):
            calls.append(n)
            return 10.0 * n, 1e-4

        chosen, meta = independent._pick_rows([2, 3], self.VALUE[:, 0], self.ERR[:, 0], SPEC,
                                              integrate, None)
        assert calls == [2, 3]
        assert chosen == [0.3, 30.0]
        assert meta == {"engines": ["renewal", "nested_gauss"], "renewal_err": 1e-5,
                        "quad_err": 1e-4}

    def test_without_a_table_every_row_is_integrated(self):
        calls = []
        chosen, meta = independent._pick_rows(range(1, 8), None, None, SPEC,
                                              self._integrator(calls), 0.9)
        assert calls == list(range(1, 8))
        assert [row[0] for row in chosen] == [10.0 * n for n in range(1, 8)]
        # a pinned row integrates n - 1 free times: Sobol from row 7
        assert meta == {"engines": ["nested_gauss"] * 6 + ["qmc_sobol"],
                        "renewal_err": None, "quad_err": 1e-4}


def test_single_coherent_row_integrates_only_that_row(monkeypatch):
    # the engine does not serve a tabulated curve with a knot off its grid
    # (0.3003); row 5 alone is integrated
    config = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.tabulated(
        [(0.0, 0.0), (0.05, 0.0), (0.3003, 0.9), (1.0, 1.0)]))
    spec = QuadratureSpec(gauss_order=8)
    integral, calls = independent.window_integral, []

    def spy(config, n, *args, **kwargs):
        calls.append(n)
        return integral(config, n, *args, **kwargs)

    monkeypatch.setattr(independent, "window_integral", spy)
    value = coherent_click_probability(config, 5, 2.0, spec)
    assert calls == [5]
    ref, _ = integral(config, 5, lambda dens, expo: dens * np.exp(-2.0 * expo), spec)
    assert value == 2.0**5 * ref


# the exp curve sampled at step 0.02 with the knot 0.3 moved to 0.3003, off
# the chain's lattice: every carried row is a quadrature row
_KNOTS = np.linspace(0.0, 1.0, 51)
_KNOTS[15] = 0.3003
OFF_LATTICE = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.tabulated(
    list(zip(_KNOTS, EXP.efficiency.value(_KNOTS)))))
COARSE = QuadratureSpec(gauss_order=8)


def test_carries_take_one_checked_form():
    carries = ([0.0213, 0.1], [0.25, 0.75])
    (listed, meta), = independent.number_tables(OFF_LATTICE, 3, 4, COARSE, [None], carries)
    assert "renewal" not in meta["engines"]
    (arrays, _), = independent.number_tables(OFF_LATTICE, 3, 4, COARSE, [None],
                                             tuple(map(np.array, carries)))
    assert np.array_equal(listed, arrays)
    for bad in (([math.nan], [1.0]), ([math.inf], [1.0]), ([-0.1], [1.0]),
                ([0.1, 0.2], [1.0]), ([0.1], [math.nan])):
        with pytest.raises(DomainError):
            independent.number_tables(OFF_LATTICE, 3, 4, COARSE, [None], bad)
        with pytest.raises(DomainError):
            independent.coherent_rows(OFF_LATTICE, [1, 2], 1.0, COARSE, [None], bad)


def test_off_lattice_coherent_carry_average_matches_one_carry_rows():
    taus, wts = [0.0213, 0.1, 0.3], [0.2, 0.3, 0.5]
    (value, meta), = independent.coherent_rows(OFF_LATTICE, range(1, 4), 1.0, COARSE,
                                               [None], (taus, wts))
    assert "renewal" not in meta["engines"]
    ref = sum(w * independent.coherent_rows(OFF_LATTICE, range(1, 4), 1.0, COARSE,
                                            [None], ([c], [1.0]))[0][0]
              for c, w in zip(taus, wts))
    np.testing.assert_allclose(value, ref, rtol=COARSE.rel_tol, atol=COARSE.abs_tol)


@pytest.mark.parametrize("method, sobol", [("nested_gauss", False), ("auto", True)])
def test_near_carry_runs_sobol_only_under_auto(monkeypatch, method, sobol):
    # a carry inside the dead time keeps its own support; at five free
    # times only ``auto`` hands it to Sobol
    spec = QuadratureSpec(method=method, gauss_order=8)
    integrate, engines = weights.integrate_ordered, []

    def spy(n, tau_m, f, spec, **kwargs):
        engines.append(spec.resolve_method(n))
        return integrate(n, tau_m, f, spec, **kwargs)

    monkeypatch.setattr(weights, "integrate_ordered", spy)
    independent.fock_row(EXP, 5, np.arange(3), spec, ([0.02, 0.2], [0.5, 0.5]))
    assert ("qmc_sobol" in engines) == sobol
    if not sobol:
        (_, meta), = independent.number_tables(EXP, 5, 5, spec, [None], ([0.02, 0.2], [0.5, 0.5]))
        assert set(engines) == {"nested_gauss"}
        assert meta["engines"][1:] == ["nested_gauss"] * 5
