import itertools
import math

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from snspd_stats import (DetectorConfig, DomainError, EfficiencyProfile,
                         QuadratureSpec, SimSpec, StateSpec, coherent_click_probability,
                         coherent_click_probability_after_gap,
                         deadtime_closed_form, empirical_distribution,
                         photon_number_dist, sample_window, simulate_interpulse_gaps)
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


def test_unsqueezed_vacuum_never_clicks():
    res = empirical_distribution(StateSpec.squeezed(0.0), EXP, SimSpec(trials=500, seed=2))
    assert res.probs.tolist() == [1.0]


def _assert_matches(res, ref):
    """Every bin of ``ref`` (the rest of the mass lumped at its end) within 4 sigma."""
    probs = np.zeros(max(len(ref), len(res.counts)))
    probs[:len(res.counts)] = res.probs
    probs[len(ref) - 1] = probs[len(ref) - 1:].sum()
    for n, q in enumerate(ref):
        se = math.sqrt(max(q * (1 - q), 1e-12) / res.n_windows)
        assert abs(probs[n] - q) < 4 * se, (n, probs[n], q)


def test_custom_state_is_thinned_like_its_photon_numbers():
    state = StateSpec.custom([0.2, 0.5, 0.3])
    cfg = DetectorConfig(tau_m=1.0, eta=0.7)
    res = empirical_distribution(state, cfg, SimSpec(trials=200_000, seed=3))
    _assert_matches(res, photon_number_dist(state, eta=0.7).probs)


@pytest.mark.parametrize("sim", [
    SimSpec(trials=200_000, seed=71),
    SimSpec(trials=200_000, seed=72, carry_in="fixed_tau", fixed_tau=0.01),
    SimSpec(trials=500, seed=73, carry_in="contiguous", windows_per_trial=404)],
    ids=["fresh", "fixed_tau", "contiguous"])
def test_dark_counts_alone_are_poisson(sim):
    # an ideal detector clicks on every dark arrival, across window edges too
    res = empirical_distribution(StateSpec.fock(0), DetectorConfig(tau_m=1.0, nu=1.5), sim)
    assert res.n_windows == 200_000
    assert abs(res.mean_clicks() - 1.5) < 4 * math.sqrt(1.5 / res.n_windows)
    ref = poisson.pmf(np.arange(9), 1.5)
    ref[-1] = poisson.sf(7, 1.5)
    _assert_matches(res, ref)


@pytest.mark.parametrize("carry", [None, 0.1])
def test_dark_counts_on_a_recovering_detector(carry):
    cfg = DetectorConfig(tau_m=1.0, nu=0.8, efficiency=EXP.efficiency)
    if carry is None:
        sim = SimSpec(trials=150_000, seed=74)
        ref = [coherent_click_probability(cfg, n, 0.0) for n in range(6)]
    else:
        sim = SimSpec(trials=150_000, seed=75, carry_in="fixed_tau", fixed_tau=carry)
        ref = [coherent_click_probability_after_gap(cfg, n, 0.0, carry) for n in range(6)]
    ref.append(1.0 - sum(ref))
    _assert_matches(empirical_distribution(StateSpec.fock(0), cfg, sim), ref)


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


def _walked(prof, times, uniforms, counts, carry, keep_from):
    """Clicks, offsets, gaps and segment count of the stream walk over padded arrays."""
    streams = montecarlo._Streams(counts)
    gaps = []
    clicks, offsets = streams.walk(prof, 1.0, streams.lay_out(times), streams.lay_out(uniforms),
                                   carry, keep_from, gaps)
    return clicks, offsets, np.concatenate(gaps), streams.segments


def _segments_of(monkeypatch, segment_min):
    """Cut every arrival row into segments of about ``segment_min`` arrivals."""
    if segment_min is not None:
        monkeypatch.setattr(montecarlo, "_WALK_ROWS", 1 << 20)
        monkeypatch.setattr(montecarlo, "_SEGMENT_MIN", segment_min)


@pytest.mark.parametrize("windows, keep_from", [(1, 0), (3, 0), (3, 1)])
def test_walk_matches_scalar_loop(windows, keep_from, monkeypatch):
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
    # whole rows, then segments of one arrival and of three
    for segment_min, prof in itertools.product([None, 1, 3], [EXP.efficiency, DT.efficiency]):
        with monkeypatch.context() as patch:
            _segments_of(patch, segment_min)
            clicks, offsets, gaps, segments = _walked(prof, times, uniforms, counts, carry,
                                                      keep_from)
        assert (segments > 1) == (segment_min is not None)
        ref_clicks, ref_offsets, ref_gaps = _scalar_walk(prof, 1.0, times, uniforms, counts,
                                                         carry, keep_from)
        assert np.array_equal(clicks, ref_clicks)
        assert np.array_equal(offsets, ref_offsets)
        assert np.array_equal(gaps, ref_gaps)
        assert clicks[1].sum() == 0  # u = 0, but 0.03 since the last click is < tau_d
        assert np.array_equal(offsets[1], np.arange(1, windows + 1) + 0.02)
        assert clicks[0].sum() == 0 and np.all(np.isinf(offsets[0]))
        if windows > 1:  # 0.04 from the click at 0.97 to the next window's first arrival
            assert clicks[2, 0] == 1 and clicks[2, 1] == 0


def test_segmented_walk_short_rows(monkeypatch):
    # rows of 0-3 arrivals next to rows of 40, cut into segments of 8
    _segments_of(monkeypatch, 8)
    rng = np.random.Generator(np.random.Philox(62))
    rows = [[(int(w), float(t)) for w, t in zip(rng.integers(0, 4, k), rng.uniform(0.0, 1.0, k))]
            for k in [40, 0, 1, 3, 40, 2, 39]]
    times, counts = _streams_of(rows, 4)
    uniforms = rng.uniform(size=times.shape)
    carry = rng.uniform(0.0, 0.2, len(rows))
    clicks, offsets, gaps, segments = _walked(EXP.efficiency, times, uniforms, counts, carry, 1)
    assert segments == 5
    ref_clicks, ref_offsets, ref_gaps = _scalar_walk(EXP.efficiency, 1.0, times, uniforms,
                                                     counts, carry, 1)
    assert np.array_equal(clicks, ref_clicks)
    assert np.array_equal(offsets, ref_offsets)
    assert np.array_equal(gaps, ref_gaps)


def test_segmented_walk_dead_time_over_a_segment_edge(monkeypatch):
    # one arrival per segment: the guess of a later segment (no click ever)
    # clicks at 0.21 and 0.22, but the click at 0.2 makes both dead
    _segments_of(monkeypatch, 1)
    times, counts = _streams_of([[(0, 0.2), (0, 0.21), (0, 0.22), (0, 0.3), (0, 0.31)]], 1)
    uniforms = np.zeros(times.shape)
    carry = np.array([np.inf])
    clicks, offsets, gaps, segments = _walked(DT.efficiency, times, uniforms, counts, carry, 0)
    assert segments == 5
    assert clicks.tolist() == [[2]]  # 0.2 and 0.3
    assert offsets.tolist() == [[0.7]]
    assert np.array_equal(gaps, [0.3 - 0.2])


def test_segmented_walk_mends_past_rows_that_already_agree(monkeypatch):
    # segments of three arrivals, u = 0 and a dead time of 0.05: from the true
    # start 0.3 the first trial's second segment agrees with its guess at once
    # (0.4 clicks either way), the second trial's only from its third arrival on
    # (0.32 is dead and 0.36 clicks, where the guess clicks at 0.32 only)
    _segments_of(monkeypatch, 3)
    times, counts = _streams_of([[(0, t) for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)],
                                 [(0, t) for t in (0.1, 0.2, 0.3, 0.32, 0.36, 0.45)]], 1)
    uniforms = np.zeros(times.shape)
    carry = np.full(2, np.inf)
    clicks, offsets, gaps, segments = _walked(DT.efficiency, times, uniforms, counts, carry, 0)
    assert segments == 2
    assert clicks.tolist() == [[6], [5]]
    assert offsets.tolist() == [[1.0 - 0.6], [1.0 - 0.45]]
    ref_clicks, ref_offsets, ref_gaps = _scalar_walk(DT.efficiency, 1.0, times, uniforms,
                                                     counts, carry, 0)
    assert np.array_equal(clicks, ref_clicks) and np.array_equal(offsets, ref_offsets)
    assert np.array_equal(gaps, ref_gaps) and 0.36 - 0.3 in gaps


def test_segmented_walk_without_coalescing(monkeypatch):
    # xi = 0: no row ever clicks, so no later segment meets its guess and the
    # true start, the carry, must be carried through every segment in turn
    _segments_of(monkeypatch, 2)
    never = EfficiencyProfile.tabulated([(0.0, 0.0), (1.0, 0.0)])
    rng = np.random.Generator(np.random.Philox(63))
    rows = [[(int(w), float(t)) for w, t in zip(rng.integers(0, 3, k), rng.uniform(0.0, 1.0, k))]
            for k in [21, 5, 0, 16]]
    times, counts = _streams_of(rows, 3)
    uniforms = rng.uniform(size=times.shape)
    carry = np.array([0.1, 0.3, 0.2, np.inf])
    clicks, offsets, gaps, segments = _walked(never, times, uniforms, counts, carry, 0)
    assert segments == 10
    ref_clicks, ref_offsets, _ = _scalar_walk(never, 1.0, times, uniforms, counts, carry, 0)
    assert np.array_equal(clicks, ref_clicks) and not clicks.any()
    assert np.array_equal(offsets, ref_offsets)
    assert np.array_equal(offsets, np.arange(1, 4) + carry[:, None])
    assert gaps.size == 0


def test_segmented_contiguous_run_collects_the_same_gaps(monkeypatch):
    state = StateSpec.coherent(2.0)
    sim = SimSpec(trials=60, seed=47, carry_in="contiguous", windows_per_trial=40,
                  collect_gaps=True, collect_offsets=True)
    whole = empirical_distribution(state, EXP, sim)
    _segments_of(monkeypatch, 4)
    cut = empirical_distribution(state, EXP, sim)
    assert len(whole.interpulse_gaps) > 1000
    assert np.array_equal(cut.counts, whole.counts)
    assert np.array_equal(cut.last_offsets, whole.last_offsets)
    assert np.array_equal(cut.interpulse_gaps, whole.interpulse_gaps)


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

    @pytest.mark.parametrize("n_gaps", [2.5, 6.0, True, "3", None])
    def test_n_gaps_must_be_an_integer(self, n_gaps, monkeypatch):
        # rejected at entry: no generator is ever built
        monkeypatch.setattr(np.random, "Generator", None)
        with pytest.raises(DomainError, match="n_gaps must be an integer"):
            simulate_interpulse_gaps(EXP, rate=0.2, n_gaps=n_gaps)

    def test_n_gaps_takes_numpy_integers(self):
        a = simulate_interpulse_gaps(EXP, rate=0.2, n_gaps=np.int32(500), seed=9)
        assert np.array_equal(a, simulate_interpulse_gaps(EXP, rate=0.2, n_gaps=500, seed=9))

    def test_slices_do_not_change_the_gaps(self, monkeypatch):
        whole = simulate_interpulse_gaps(EXP, rate=0.2, n_gaps=5000, seed=10)
        monkeypatch.setattr(montecarlo, "_SLICE", 7)
        assert np.array_equal(simulate_interpulse_gaps(EXP, rate=0.2, n_gaps=5000, seed=10),
                              whole)


def test_result_serialization():
    res = empirical_distribution(StateSpec.fock(1), EXP, SimSpec(trials=100, seed=3))
    d = res.to_json_dict()
    assert d["counts"][1] == 100 and d["n_windows"] == 100
    assert res.to_csv().splitlines()[0] == "n,count,prob,stderr"
