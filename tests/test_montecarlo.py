import math

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from snspd_stats import (DetectorConfig, DomainError, EfficiencyProfile,
                         QuadratureSpec, SimSpec, StateSpec,
                         coherent_click_probability_after_gap,
                         deadtime_closed_form, empirical_distribution,
                         sample_window, simulate_interpulse_gaps)
from snspd_stats import montecarlo

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


@pytest.mark.parametrize("field", ["trials", "windows_per_trial", "warm_up"])
@pytest.mark.parametrize("value", [2.5, 6.0, True, "6", None])
def test_sim_spec_counts_must_be_integers(field, value):
    with pytest.raises(DomainError, match=f"{field} must be an integer"):
        SimSpec(**{"trials": 10, "carry_in": "contiguous", "windows_per_trial": 8,
                   field: value})


def test_sim_spec_rejects_negative_warm_up():
    with pytest.raises(DomainError, match="warm_up must be nonnegative"):
        SimSpec(trials=10, carry_in="contiguous", windows_per_trial=8, warm_up=-1)


def test_sim_spec_takes_numpy_integers():
    sim = SimSpec(trials=np.int64(10), carry_in="contiguous", windows_per_trial=np.int32(6),
                  warm_up=np.int64(0))
    res = empirical_distribution(StateSpec.coherent(1.0), EXP, sim)
    assert res.n_windows == 60


# Poisson means above numpy's sampler limit (about 9.2e18): the coherent
# mean eta*alpha0^2 = 1e20 and the dark-count mean nu = 1e19
HUGE_MEANS = [(StateSpec.coherent(1e10), EXP, "alpha0"),
              (StateSpec.fock(1), DetectorConfig(tau_m=1.0, nu=1e19), "nu")]


@pytest.mark.parametrize("state, config, name", HUGE_MEANS, ids=["coherent", "dark"])
@pytest.mark.parametrize("run", [
    lambda state, config: empirical_distribution(state, config, SimSpec(trials=10)),
    lambda state, config: sample_window(state, config)], ids=["empirical", "sample_window"])
def test_poisson_mean_past_the_sampler_limit_is_rejected(state, config, name, run):
    with pytest.raises(DomainError, match=name):
        run(state, config)


def _scalar_walk(prof, tau_m, times, uniforms, counts, carry, keep_from):
    """Reference for the stream walk: one arrival at a time, in plain Python."""
    rows, windows = counts.shape
    clicks = np.zeros((rows, windows), dtype=np.int64)
    offsets = np.empty((rows, windows))
    gaps = []
    for r in range(rows):
        t_last, i = -carry[r], 0
        for w in range(windows):
            for _ in range(counts[r, w]):
                gap = times[r, i] - t_last
                if uniforms[r, i] < prof.value(np.array([gap]))[0]:
                    if w >= keep_from and math.isfinite(gap):
                        gaps.append((i, r, gap))
                    clicks[r, w] += 1
                    t_last = times[r, i]
                i += 1
            offsets[r, w] = (w + 1) * tau_m - t_last
    return clicks, offsets, [g for _, _, g in sorted(gaps)]


def _streams_of(rows, windows, tau_m=1.0):
    """Padded sorted arrival times and counts from per-row (window, local time) lists."""
    counts = np.zeros((len(rows), windows), dtype=np.int64)
    width = max([len(r) for r in rows] + [0])
    times = np.full((len(rows), width), np.inf)
    for i, arrivals in enumerate(rows):
        for w, _ in arrivals:
            counts[i, w] += 1
        times[i, :len(arrivals)] = sorted(w * tau_m + t for w, t in arrivals)
    return times, counts


@pytest.mark.parametrize("windows, keep_from", [(1, 0), (3, 0), (3, 1)])
def test_walk_matches_scalar_loop(windows, keep_from):
    rng = np.random.Generator(np.random.Philox(61))
    rows = [
        [],                                                # no arrivals at all
        [(0, 0.01)],                                       # inside the carried dead time
        [(0, 0.97), (min(1, windows - 1), 0.01), (windows - 1, 0.5)],  # over a window edge
        [(0, 0.2), (windows - 1, 0.9)],                    # windows between them have no arrivals
    ]
    rows += [[(int(w), float(t)) for w, t in zip(rng.integers(0, windows, k),
                                                 rng.uniform(0.0, 1.0, k))]
             for k in rng.poisson(4.0 * windows, 40)]
    times, counts = _streams_of(rows, windows)
    uniforms = rng.uniform(size=times.shape)
    uniforms[1, 0] = uniforms[2, :2] = 0.0  # would click anywhere outside the dead time
    carry = np.where(rng.uniform(size=len(rows)) < 0.5, np.inf,
                     rng.uniform(0.0, 0.3, len(rows)))
    carry[:3] = [np.inf, 0.02, 0.1]
    for prof in (EXP.efficiency, DT.efficiency):
        streams = montecarlo._Streams(counts)
        gaps = []
        clicks, offsets = streams.walk(prof, 1.0, streams.lay_out(times, -carry),
                                       streams.lay_out(uniforms), keep_from, gaps)
        ref_clicks, ref_offsets, ref_gaps = _scalar_walk(prof, 1.0, times, uniforms, counts,
                                                         carry, keep_from)
        assert np.array_equal(clicks, ref_clicks)
        assert np.array_equal(offsets, ref_offsets)
        assert np.array_equal(np.concatenate(gaps), ref_gaps)
        assert clicks[1].sum() == 0  # u = 0, but 0.03 since the last click is < tau_d
        assert np.array_equal(offsets[1], np.arange(1, windows + 1) + 0.02)
        assert clicks[0].sum() == 0 and np.all(np.isinf(offsets[0]))
        if windows > 1:  # 0.04 from the click at 0.97 to the next window's first arrival
            assert clicks[2, 0] == 1 and clicks[2, 1] == 0


def test_contiguous_chunks_match_chained_windows(monkeypatch):
    # Blocks of 3000 trials walk one window per chunk, the last block of 1000
    # three, so chunk edges cut every trial's windows, warm-up included.
    monkeypatch.setattr(montecarlo, "_BLOCK", 3000)
    state = StateSpec.coherent(2.0)
    sim = SimSpec(trials=4000, seed=43, carry_in="contiguous", windows_per_trial=11, warm_up=4)
    res = empirical_distribution(state, EXP, sim)
    assert res.n_windows == 4000 * 7
    # the independent reference: one long trial, chained through sample_window
    rng = np.random.Generator(np.random.Philox(44))
    carry, ref = None, []
    for w in range(28_004):
        clicks, offset = sample_window(state, EXP, carry_tau=carry, rng=rng)
        carry = offset if offset is not None else (None if carry is None else carry + 1.0)
        if w >= 4:
            ref.append(len(clicks.as_array()))
    top = max(len(res.counts), max(ref) + 1)
    ref = np.bincount(ref, minlength=top) / len(ref)
    sim_p = np.zeros(top)
    sim_p[:len(res.counts)] = res.probs
    for n, (p, q) in enumerate(zip(sim_p, ref)):
        se = math.sqrt((p * (1 - p) + q * (1 - q)) / res.n_windows)
        assert abs(p - q) < 4 * max(se, 1e-4), (n, p, q)


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
