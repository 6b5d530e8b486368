import math

import numpy as np
import pytest

from snspd_stats import (DetectorConfig, DomainError, EfficiencyProfile,
                         EstimationError, QuadratureSpec, ReconstructionSpec,
                         cond_prob_matrix, read_gaps, reconstruct_details,
                         reconstruct_efficiency, simulate_interpulse_gaps,
                         write_gaps_binary)

EXP_PROF = EfficiencyProfile.exponential(0.05, 0.2)
EXP = DetectorConfig(tau_m=1.0, efficiency=EXP_PROF)


@pytest.fixture(scope="module")
def exp_gaps():
    return simulate_interpulse_gaps(EXP, rate=0.25, n_gaps=2_000_000, seed=101)


def test_dead_time_bins_are_zero():
    cfg = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.05))
    gaps = simulate_interpulse_gaps(cfg, rate=0.2, n_gaps=500_000, seed=7)
    prof = reconstruct_efficiency(gaps, ReconstructionSpec(bin_width=0.01, t_max=1.2))
    table = dict(prof.table)
    for t, v in prof.table:
        if t < 0.045:
            assert v == 0.0


def test_ideal_reconstructs_flat():
    cfg = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.ideal())
    gaps = simulate_interpulse_gaps(cfg, rate=0.2, n_gaps=1_000_000, seed=11)
    res = reconstruct_details(gaps, ReconstructionSpec(bin_width=0.02, t_max=1.5))
    est = np.array([v for _, v in res.profile.table])
    assert np.abs(est - 1.0).max() < 0.08  # plateau noise only
    assert res.lambda_hat == pytest.approx(0.2, rel=0.02)


def test_exponential_recovery_curve(exp_gaps):
    res = reconstruct_details(exp_gaps, ReconstructionSpec(bin_width=0.02, t_max=1.6))
    t = res.centers
    est = np.array([v for _, v in res.profile.table])
    true = np.asarray(EXP_PROF.value(t))
    sel = t <= 0.65
    assert np.abs(est - true)[sel].max() < 0.05


def test_lambda_hint_bypasses_plateau(exp_gaps):
    res = reconstruct_details(exp_gaps, ReconstructionSpec(
        bin_width=0.02, t_max=1.6, lambda_hint=0.25))
    assert res.lambda_hat == 0.25


def test_tail_correction_improves_plateau(exp_gaps):
    raw = reconstruct_details(exp_gaps, ReconstructionSpec(
        bin_width=0.02, t_max=1.6, lambda_hint=0.25, tail_correction="none"))
    fixed = reconstruct_details(exp_gaps, ReconstructionSpec(
        bin_width=0.02, t_max=1.6, lambda_hint=0.25, tail_correction="self"))
    t = fixed.centers
    sel = (t > 0.9) & (t < 1.5)
    est_raw = np.array([v for _, v in raw.profile.table])[sel]
    est_fix = np.array([v for _, v in fixed.profile.table])[sel]
    # without the depletion correction the far tail sags below one
    assert est_fix.mean() > est_raw.mean()
    assert abs(est_fix.mean() - 1.0) < 0.02


def test_rate_tail_correction():
    # 10 bins of 0.1; 12 samples, two of them past the horizon
    samples = [0.01, 0.12, 0.13, 0.14, 0.31, 0.55, 0.72, 0.81, 0.83, 0.97, 1.5, 3.0]
    counts = np.array([1, 3, 0, 1, 0, 1, 0, 1, 2, 1])
    centers = np.arange(10) * 0.1 + 0.05
    density = counts / (12 * 0.1)
    res = reconstruct_details(samples, ReconstructionSpec(
        bin_width=0.1, t_max=1.0, lambda_hint=1.5, tail_correction="rate"))
    xi = np.array([v for _, v in res.profile.table])
    assert np.allclose(res.centers, centers, rtol=0, atol=1e-15)
    assert np.array_equal(res.density, density)
    assert res.lambda_hat == 1.5
    expected = np.clip(density * np.exp(1.5 * centers) / 1.5, 0.0, 1.0)
    assert np.allclose(xi, expected, rtol=1e-14, atol=0)
    assert xi[0] == pytest.approx(math.exp(0.075) / 1.8) and xi[1] == 1.0
    # without a hint lambda is read off the plateau, then again off the corrected one
    res = reconstruct_details(samples, ReconstructionSpec(
        bin_width=0.1, t_max=1.0, tail_correction="rate"))
    first = density[-2:].mean()
    corrected = density * np.exp(first * centers)
    assert res.lambda_hat == pytest.approx(corrected[-2:].mean(), rel=1e-14)
    assert res.lambda_hat > first
    assert np.allclose([v for _, v in res.profile.table],
                       np.clip(corrected / res.lambda_hat, 0.0, 1.0), rtol=1e-14, atol=0)


def test_rescaling_invariance(exp_gaps):
    base = reconstruct_details(exp_gaps[:200_000], ReconstructionSpec(
        bin_width=0.02, t_max=1.6))
    scaled = reconstruct_details(np.asarray(exp_gaps[:200_000]) * 2.0,
                                 ReconstructionSpec(bin_width=0.04, t_max=3.2))
    a = np.array([v for _, v in base.profile.table])
    b = np.array([v for _, v in scaled.profile.table])
    assert np.max(np.abs(a - b)) < 1e-12
    assert scaled.lambda_hat == pytest.approx(base.lambda_hat / 2.0, rel=1e-12)


def test_preceding_gap_filter():
    samples = np.array([0.55, 0.01, 0.65, 0.75, 0.02])
    res = reconstruct_details(samples, ReconstructionSpec(
        bin_width=0.1, t_max=1.0, lambda_hint=1.0,
        min_preceding_gap=0.1, tail_correction="none"))
    # 0.65 follows the 0.01 gap and is dropped; survivors: 0.55, 0.01, 0.75, 0.02
    expect = np.zeros(10)
    expect[0] = 2 / (4 * 0.1)
    expect[5] = 1 / (4 * 0.1)
    expect[7] = 1 / (4 * 0.1)
    assert np.array_equal(res.density, expect)


def test_round_trip_small(exp_gaps):
    spec = QuadratureSpec()
    prof = reconstruct_efficiency(exp_gaps, ReconstructionSpec(bin_width=0.02, t_max=1.6))
    got = cond_prob_matrix(DetectorConfig(tau_m=1.0, efficiency=prof),
                           n_max=3, m_max=3, spec=spec)
    want = cond_prob_matrix(EXP, n_max=3, m_max=3, spec=spec)
    assert np.abs(got.entries - want.entries).max() < 0.02


def test_errors():
    with pytest.raises(EstimationError):
        reconstruct_efficiency([], ReconstructionSpec(bin_width=0.1, t_max=1.0))
    with pytest.raises(DomainError):
        ReconstructionSpec(bin_width=1.0, t_max=0.5)
    with pytest.raises(DomainError):
        ReconstructionSpec(bin_width=0.1, t_max=1.0, tail_correction="spline")
    with pytest.raises(EstimationError):
        # everything piles up at small times, the plateau is empty
        reconstruct_efficiency(np.full(1000, 0.01),
                               ReconstructionSpec(bin_width=0.1, t_max=2.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["bin_width", "t_max", "lambda_hint", "min_preceding_gap"])
def test_non_finite_spec_rejected(field, bad):
    kwargs = dict(bin_width=0.1, t_max=1.0, lambda_hint=0.2, min_preceding_gap=0.1)
    kwargs[field] = bad
    with pytest.raises(DomainError):
        ReconstructionSpec(**kwargs)


def test_gap_io_round_trip(tmp_path):
    gaps = np.array([0.1, 0.2, 0.35])
    binpath = tmp_path / "gaps.f64"
    write_gaps_binary(binpath, gaps)
    assert np.array_equal(read_gaps(binpath), gaps)
    csvpath = tmp_path / "gaps.csv"
    csvpath.write_text("gap\n0.1\n0.2\n0.35\n")
    assert np.allclose(read_gaps(csvpath), gaps)
