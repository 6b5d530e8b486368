import math

import numpy as np
import pytest
from scipy import integrate

from snspd_stats import (CwConfig, DetectorConfig, DomainError, EfficiencyProfile,
                         ModeProfile, QuadratureSpec, StateSpec,
                         coherent_click_probability_after_gap)


class TestEfficiencyProfile:
    def test_exponential_inside_dead_time(self):
        prof = EfficiencyProfile.exponential(0.05, 0.2)
        assert prof.value(0.04) == 0.0

    def test_exponential_recovery_value(self):
        prof = EfficiencyProfile.exponential(0.05, 0.2)
        assert prof.value(0.25) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_step_edge_right_continuous(self):
        assert EfficiencyProfile.dead_time(0.05).value(0.05) == 1.0
        assert EfficiencyProfile.exponential(0.05, 0.2).value(0.05) == 0.0

    def test_negative_time_is_zero_everywhere(self):
        for prof in (EfficiencyProfile.ideal(), EfficiencyProfile.dead_time(0.1),
                     EfficiencyProfile.exponential(0.1, 0.3),
                     EfficiencyProfile.tabulated([(0.0, 0.2), (1.0, 0.9)])):
            assert prof.value(-0.5) == 0.0

    def test_ideal_is_one(self):
        prof = EfficiencyProfile.ideal()
        assert np.all(np.asarray(prof.value(np.linspace(0, 10, 50))) == 1.0)

    @pytest.mark.parametrize("prof", [
        EfficiencyProfile.dead_time(0.07),
        EfficiencyProfile.exponential(0.05, 0.2),
        EfficiencyProfile.tabulated([(0.0, 0.0), (0.1, 0.3), (0.5, 1.0)]),
    ])
    def test_values_bounded(self, prof):
        t = np.linspace(0, 3, 301)
        v = np.asarray(prof.value(t))
        assert np.all(v >= 0) and np.all(v <= 1)

    def test_zero_relaxation_normalizes_to_dead_time(self):
        prof = EfficiencyProfile.exponential(0.05, 0.0)
        assert prof.kind == "dead_time_only"

    def test_exponential_converges_to_step(self):
        # pointwise limit away from the edge as the relaxation time shrinks
        step = EfficiencyProfile.dead_time(0.05)
        eps = 1e-3
        fast = EfficiencyProfile.exponential(0.05, eps * 0.05 / 20)
        grid = np.concatenate([np.linspace(0, 0.049, 20), np.linspace(0.051, 1, 30)])
        diff = np.abs(np.asarray(fast.value(grid)) - np.asarray(step.value(grid)))
        assert diff.max() < eps

    @pytest.mark.parametrize("prof", [
        EfficiencyProfile.dead_time(0.07),
        EfficiencyProfile.exponential(0.05, 0.2),
        EfficiencyProfile.tabulated([(0.0, 0.0), (0.08, 0.1), (0.3, 0.8), (0.6, 1.0)]),
    ])
    def test_cumulative_matches_quadrature(self, prof):
        for x in (0.03, 0.1, 0.45, 1.7):
            ref, _ = integrate.quad(lambda u: float(prof.value(u)), 0, x,
                                    points=[0.05, 0.07, 0.08, 0.3, 0.6], limit=200)
            assert prof.cumulative(x) == pytest.approx(ref, abs=1e-9)

    def test_tabulated_rejects_unsorted(self):
        with pytest.raises(DomainError):
            EfficiencyProfile.tabulated([(0.0, 0.1), (0.5, 0.2), (0.3, 0.4)])

    def test_tabulated_clamps_small_excursions(self):
        prof = EfficiencyProfile.tabulated([(0.0, -5e-7), (1.0, 1.0 + 5e-7)])
        assert prof.value(0.0) == 0.0
        assert prof.value(1.0) == 1.0

    def test_tabulated_rejects_large_excursions(self):
        with pytest.raises(DomainError):
            EfficiencyProfile.tabulated([(0.0, 0.0), (1.0, 1.1)])

    def test_tabulated_constant_extension(self):
        prof = EfficiencyProfile.tabulated([(0.1, 0.2), (0.5, 0.8)])
        assert prof.value(0.05) == pytest.approx(0.2)
        assert prof.value(2.0) == pytest.approx(0.8)

    def test_csv_round_trip(self, tmp_path):
        prof = EfficiencyProfile.tabulated([(0.0, 0.0), (0.25, 0.5), (1.0, 1.0)])
        path = tmp_path / "xi.csv"
        prof.to_csv(path)
        back = EfficiencyProfile.from_csv(path)
        assert back.table == prof.table

    def test_csv_time_scale(self, tmp_path):
        path = tmp_path / "xi.csv"
        path.write_text("t,xi\n0.0,0.0\n1e-9,1.0\n")
        prof = EfficiencyProfile.from_csv(path, time_scale=1e9)
        assert prof.table[1][0] == pytest.approx(1.0)

    def test_breakpoint_advertised(self):
        assert EfficiencyProfile.exponential(0.05, 0.2).breakpoint == 0.05
        assert EfficiencyProfile.ideal().breakpoint is None
        assert EfficiencyProfile.tabulated([(0, 0), (1, 1)]).breakpoint is None


class TestModeProfile:
    def test_monochromatic_normalization(self):
        mode = ModeProfile.monochromatic()
        assert mode.cumulative(0.0, 1.0, 1.0) == 1.0

    def test_monochromatic_uniform_density(self):
        mode = ModeProfile.monochromatic()
        assert mode.cumulative(0.2, 0.5, 1.0) == pytest.approx(0.3)

    def test_triangle_cumulative(self):
        # linear ramp I(t) proportional to t on [0, 1]; half the span holds a quarter
        mode = ModeProfile.tabulated([(0.0, 0.0), (1.0, 2.0)])
        assert mode.cumulative(0.0, 0.5, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_renormalized_on_load(self):
        mode = ModeProfile.tabulated([(0.0, 3.0), (2.0, 3.0)])
        assert mode.cumulative(0.0, 2.0, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_domain_errors(self):
        mode = ModeProfile.monochromatic()
        with pytest.raises(DomainError):
            mode.cumulative(-0.1, 0.5, 1.0)
        with pytest.raises(DomainError):
            mode.cumulative(0.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            mode.intensity(1.2, 1.0)

    def test_span_mismatch_rejected(self):
        mode = ModeProfile.tabulated([(0.0, 1.0), (0.5, 1.0)])
        with pytest.raises(DomainError):
            mode.cumulative(0.0, 0.5, 1.0)

    def test_sample_times_follow_density(self):
        mode = ModeProfile.tabulated([(0.0, 0.0), (1.0, 2.0)])
        rng = np.random.default_rng(4)
        t = mode.sample_times(200_000, 1.0, rng)
        # CDF of the ramp is t^2, so the median sits at sqrt(1/2)
        assert np.median(t) == pytest.approx(math.sqrt(0.5), abs=5e-3)


class TestDetectorConfig:
    def test_effective_mean_examples(self):
        cfg = DetectorConfig(tau_m=1.0, eta=1.0, nu=0.0)
        assert cfg.effective_mean(4.0) == 4.0
        cfg = DetectorConfig(tau_m=1.0, eta=0.8, nu=0.0)
        assert cfg.effective_mean(4.0) == pytest.approx(3.2)
        cfg = DetectorConfig(tau_m=1.0, eta=0.8, nu=0.1)
        assert cfg.effective_mean(0.0) == pytest.approx(0.1)

    def test_effective_mean_affine(self):
        cfg = DetectorConfig(tau_m=1.0, eta=0.73, nu=0.21)
        for x, y in [(0.5, 1.25), (2.0, 0.0), (3.3, 4.4)]:
            lhs = cfg.effective_mean(x + y) - cfg.effective_mean(y)
            assert lhs == pytest.approx(cfg.eta * x, abs=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            DetectorConfig(tau_m=0.0)
        with pytest.raises(DomainError):
            DetectorConfig(tau_m=1.0, eta=1.2)
        with pytest.raises(DomainError):
            DetectorConfig(tau_m=1.0, nu=-0.1)

    def test_max_clicks(self):
        exact = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.05))
        assert exact.max_clicks() == 20  # the window is an exact multiple
        loose = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.3))
        assert loose.max_clicks() == 4
        assert DetectorConfig(tau_m=1.0).max_clicks() is None

    def test_digest_stable(self):
        cfg = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2))
        assert cfg.digest() == DetectorConfig(
            tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2)).digest()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("build", [
    lambda x: DetectorConfig(tau_m=x),
    lambda x: DetectorConfig(tau_m=1.0, nu=x),
    lambda x: EfficiencyProfile.exponential(x, 0.2),
    lambda x: EfficiencyProfile.exponential(0.05, x),
    lambda x: QuadratureSpec(rel_tol=x),
    lambda x: QuadratureSpec(abs_tol=x),
    lambda x: CwConfig(delta=x),
    lambda x: CwConfig(window_count=x),
    lambda x: CwConfig(memory_depth=x),
    lambda x: DetectorConfig(tau_m=1.0).effective_mean(x),
    lambda x: coherent_click_probability_after_gap(DetectorConfig(tau_m=1.0), 1, 1.0, x),
    lambda x: StateSpec.coherent(x),
    lambda x: EfficiencyProfile.tabulated([(0.0, 0.1), (x, 0.5), (1.0, 1.0)]),
    lambda x: EfficiencyProfile.tabulated([(0.0, 0.1), (0.5, x), (1.0, 1.0)]),
    lambda x: ModeProfile.tabulated([(0.0, 1.0), (x, 1.0), (1.0, 1.0)]),
    lambda x: ModeProfile.tabulated([(0.0, 1.0), (0.5, x), (1.0, 1.0)]),
], ids=["tau_m", "nu", "tau_d", "tau_r", "rel_tol", "abs_tol", "delta", "window_count",
        "memory_depth", "effective_mean", "after_gap_carry", "coherent",
        "profile_knot_t", "profile_knot_xi", "mode_knot_t", "mode_knot_i"])
def test_non_finite_inputs_rejected(build, bad):
    with pytest.raises(DomainError):
        build(bad)


@pytest.mark.parametrize("curve", ["efficiency", "mode"])
def test_both_tabulated_curves_read_one_knot_integral(curve):
    samples = [(0.0, 0.5), (0.3, 1.0), (0.55, 0.75), (1.0, 1.0)]
    if curve == "efficiency":
        prof = EfficiencyProfile.tabulated(samples)
        at_knots = prof.cumulative(prof.knots.t)
    else:
        prof = ModeProfile.tabulated(samples)
        at_knots = prof.cumulative(0.0, prof.knots.t, 1.0)
    assert [t for t, _ in prof.table] == prof.knots.t.tolist()
    assert np.array_equal(at_knots, prof.knots.cum)
    # halfway to the second knot: the trapezoid under the linear interpolant
    v0, v1 = prof.knots.v[:2]
    assert prof.knots.integral(np.array(0.15)) == pytest.approx(0.15 * (v0 + (v0 + v1) / 2) / 2)
