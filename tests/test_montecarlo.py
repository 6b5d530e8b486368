import math

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from snspd_stats import (DetectorConfig, DomainError, EfficiencyProfile,
                         QuadratureSpec, SimSpec, StateSpec,
                         coherent_click_probability_after_gap,
                         deadtime_closed_form, empirical_distribution,
                         sample_window, simulate_interpulse_gaps)

EXP = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2))
DT = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.05))
IDEAL = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.ideal())


def test_single_photon_always_clicks():
    res = empirical_distribution(StateSpec.fock(1), EXP, SimSpec(trials=2000, seed=1))
    assert res.counts[1] == 2000


def test_vacuum_never_clicks():
    res = empirical_distribution(StateSpec.fock(0), DT, SimSpec(trials=500, seed=2))
    assert res.probs[0] == 1.0


def test_same_seed_identical():
    sim = SimSpec(trials=20_000, seed=33, collect_gaps=True)
    a = empirical_distribution(StateSpec.coherent(2.0), EXP, sim)
    b = empirical_distribution(StateSpec.coherent(2.0), EXP, sim)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.interpulse_gaps, b.interpulse_gaps)


def test_contiguous_deterministic():
    sim = SimSpec(trials=500, seed=7, carry_in="contiguous", windows_per_trial=12)
    a = empirical_distribution(StateSpec.coherent(2.0), EXP, sim)
    b = empirical_distribution(StateSpec.coherent(2.0), EXP, sim)
    assert np.array_equal(a.counts, b.counts)
    assert a.n_windows == 500 * 8  # warm-up windows discarded


def test_mean_clicks_ideal():
    trials = 1_000_000
    res = empirical_distribution(StateSpec.coherent(2.0), IDEAL,
                                 SimSpec(trials=trials, seed=11))
    se = 2.0 / math.sqrt(trials)
    assert abs(res.mean_clicks() - 4.0) < 3 * se  # 4.000 +- 0.006


def test_thinning_matches_poisson():
    trials = 200_000
    res = empirical_distribution(StateSpec.coherent(2.0), IDEAL,
                                 SimSpec(trials=trials, seed=13))
    n_top = len(res.counts)
    expected = poisson.pmf(np.arange(n_top), 4.0) * trials
    expected[-1] += trials * (1 - poisson.cdf(n_top - 1, 4.0))
    counts = res.counts.astype(float)
    keep = expected > 10
    stat = chisquare(counts[keep], expected[keep] * counts[keep].sum()
                     / expected[keep].sum())
    assert stat.pvalue > 1e-3


def test_click_cap_under_bright_light():
    res = empirical_distribution(StateSpec.coherent(10.0), DT,
                                 SimSpec(trials=30_000, seed=17))
    max_observed = len(res.counts) - 1
    assert max_observed <= 21
    assert max_observed <= 20  # exact-division window, the extra click has no measure


def test_dead_time_separates_clicks():
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(200):
        clicks, offset = sample_window(StateSpec.coherent(8.0), DT, rng=rng)
        t = clicks.as_array()
        if len(t) >= 2:
            assert np.min(np.diff(t)) >= DT.efficiency.tau_d
        if len(t):
            assert offset == pytest.approx(1.0 - t[-1])
        else:
            assert offset is None


def test_fixed_carry_matches_conditioned_probabilities():
    spec = QuadratureSpec()
    trials = 150_000
    res = empirical_distribution(StateSpec.coherent(2.0), EXP,
                                 SimSpec(trials=trials, seed=19,
                                         carry_in="fixed_tau", fixed_tau=0.0))
    for n in range(6):
        ana = coherent_click_probability_after_gap(EXP, n, 4.0, 0.0, spec)
        emp = res.probs[n] if n < len(res.counts) else 0.0
        se = math.sqrt(max(ana * (1 - ana), 1e-12) / trials)
        assert abs(ana - emp) < 4 * se


def test_conditional_click_matrix_oracle():
    # m photons at unit efficiency against the zero-relaxation closed form
    trials = 120_000
    res = empirical_distribution(StateSpec.fock(3), DT, SimSpec(trials=trials, seed=23))
    for n in range(4):
        ref = deadtime_closed_form(DT, n, 3)
        se = math.sqrt(max(ref * (1 - ref), 1e-12) / trials)
        assert abs(res.probs[n] - ref) < 4 * se


def test_contiguous_stationarity():
    # two disjoint window ranges of the same chain should agree post warm-up
    state = StateSpec.coherent(2.0)
    early = empirical_distribution(state, EXP, SimSpec(
        trials=40_000, seed=29, carry_in="contiguous", windows_per_trial=6, warm_up=4))
    late = empirical_distribution(state, EXP, SimSpec(
        trials=40_000, seed=31, carry_in="contiguous", windows_per_trial=8, warm_up=6))
    n_top = min(len(early.counts), len(late.counts))
    for n in range(n_top):
        se = math.sqrt(early.stderr[n] ** 2 + late.stderr[n] ** 2)
        assert abs(early.probs[n] - late.probs[n]) < 4 * max(se, 1e-6)


def test_counts_accounting():
    sim = SimSpec(trials=1234, seed=3, carry_in="contiguous", windows_per_trial=7)
    res = empirical_distribution(StateSpec.fock(2), EXP, sim)
    assert res.counts.sum() == res.n_windows == 1234 * (7 - sim.warm_up)


def test_offsets_collected():
    sim = SimSpec(trials=300, seed=41, carry_in="contiguous", windows_per_trial=6,
                  collect_offsets=True)
    res = empirical_distribution(StateSpec.coherent(2.0), EXP, sim)
    assert len(res.last_offsets) == res.n_windows
    assert np.all(res.last_offsets > 0)


def test_sim_spec_validation():
    with pytest.raises(DomainError):
        SimSpec(trials=0)
    with pytest.raises(DomainError):
        SimSpec(trials=10, carry_in="warm")
    with pytest.raises(DomainError):
        SimSpec(trials=10, carry_in="fixed_tau", fixed_tau=-1.0)
    with pytest.raises(DomainError):
        SimSpec(trials=10, carry_in="fixed_tau", fixed_tau=math.nan)
    with pytest.raises(DomainError):
        SimSpec(trials=10, carry_in="contiguous", windows_per_trial=3, warm_up=4)


class TestInterpulseGaps:
    def test_gaps_respect_dead_time(self):
        gaps = simulate_interpulse_gaps(DT, rate=0.5, n_gaps=20_000, seed=5)
        assert gaps.min() >= 0.05

    def test_deterministic(self):
        a = simulate_interpulse_gaps(EXP, rate=0.2, n_gaps=5000, seed=9)
        b = simulate_interpulse_gaps(EXP, rate=0.2, n_gaps=5000, seed=9)
        assert np.array_equal(a, b)

    def test_ideal_gaps_exponential(self):
        rate = 0.4
        gaps = simulate_interpulse_gaps(IDEAL, rate, n_gaps=200_000, seed=13)
        assert gaps.mean() == pytest.approx(1 / rate, rel=0.01)
        assert np.var(gaps) == pytest.approx(1 / rate**2, rel=0.03)

    def test_rate_validation(self, monkeypatch):
        # rejected at entry: no generator is ever built
        monkeypatch.setattr(np.random, "Generator", None)
        for rate in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                simulate_interpulse_gaps(EXP, rate=rate, n_gaps=10_000_000)


def test_result_serialization():
    res = empirical_distribution(StateSpec.fock(1), EXP, SimSpec(trials=100, seed=3))
    d = res.to_json_dict()
    assert d["counts"][1] == 100 and d["n_windows"] == 100
    assert res.to_csv().splitlines()[0] == "n,count,prob,stderr"
