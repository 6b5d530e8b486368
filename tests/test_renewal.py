import math
import warnings

import numpy as np
import pytest

from snspd_stats import (CwConfig, DetectorConfig, DomainError, EfficiencyProfile,
                         ModeProfile, QuadratureSpec, carryover_matrix,
                         coherent_click_probability, coherent_click_probability_after_gap,
                         cond_prob_matrix, last_click_density)
from snspd_stats.continuous import _carry_nodes, memory_kernels, resolve_delta
from snspd_stats.independent import (coherent_row, coherent_rows, deadtime_closed_form,
                                     fock_row, number_table, same_count_probability)
from snspd_stats.quadrature import _gauss
from snspd_stats.renewal import M_MAX, coherent_table, fock_table
from snspd_stats.weights import window_integral

SPEC = QuadratureSpec()
GAUSS = QuadratureSpec(method="nested_gauss")
EXP = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2))
DEAD = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.05))
CARRIES = (0.004, 0.02, 0.049, 0.1, 0.29)


def _config(kind, tau_d):
    prof = (EfficiencyProfile.exponential(tau_d, 0.2) if kind == "exp"
            else EfficiencyProfile.dead_time(tau_d))
    return DetectorConfig(tau_m=1.0, efficiency=prof)


def _gauss_rows(config, n_top, m_max, spec, carry=None, last_click=None):
    """perm * fock_row, the quadrature route, for rows 1..n_top."""
    out = np.zeros((n_top + 1, m_max + 1))
    for n in range(1, n_top + 1):
        ms = np.arange(n, m_max + 1)
        perm = np.array([math.perm(int(m), n) for m in ms], dtype=float)
        out[n, n:] = perm * fock_row(config, n, ms - n, spec, carry=carry,
                                     last_click=last_click)
    return out


@pytest.mark.parametrize("kind", ["exp", "dead"])
@pytest.mark.parametrize("tau_d", [0.05, 0.333])
@pytest.mark.parametrize("last_click", [None, (0.7, 1.0)])
def test_matches_nested_gauss(kind, tau_d, last_click):
    config = _config(kind, tau_d)
    top = min(5, config.max_clicks())
    value, _ = fock_table(config, top, 8, last_click=last_click)
    assert np.abs(value - _gauss_rows(config, top, 8, GAUSS, last_click=last_click)).max() < 1e-9
    block, block_err = fock_table(config, top, 8, carry=np.array(CARRIES),
                                  last_click=last_click)
    for c, row, row_err in zip(CARRIES, block, block_err):
        ref = _gauss_rows(config, top, 8, GAUSS, carry=c, last_click=last_click)
        assert np.abs(row - ref).max() < 1e-9
        single, _ = fock_table(config, top, 8, carry=c, last_click=last_click)
        np.testing.assert_allclose(single, row, rtol=1e-13, atol=1e-16)
        assert np.all(row_err <= SPEC.rel_tol * np.abs(row) + SPEC.abs_tol)


def test_dead_time_closed_form():
    value, err = fock_table(DEAD, 12, 12)
    closed = np.array([[deadtime_closed_form(DEAD, n, m) for m in range(13)]
                       for n in range(13)])
    assert np.abs(value[1:] - closed[1:]).max() < 1e-9
    assert np.all(err <= 1e-8)


def test_exp_columns_sum_to_one():
    mat = cond_prob_matrix(EXP, m_max=20, spec=SPEC)
    assert mat.meta["engines"] == ["closed_form"] + ["renewal"] * 20
    assert np.abs(mat.column_sums() - 1.0).max() < 1e-9
    assert 0.0 < mat.meta["renewal_err"] < 1e-8
    assert mat.meta["method"] == "auto"


def test_same_count_matches_renewal_diagonal():
    cap = EXP.max_clicks()
    value, _ = fock_table(EXP, cap, cap)
    for n in range(2, cap + 1):
        p = same_count_probability(EXP, n)
        assert 0.0 <= p <= 1.0
        assert abs(p - value[n, n]) < 1e-9


def test_exact_zeros():
    value, err = fock_table(EXP, 6, 9, carry=0.02, last_click=(0.7, 1.0))
    assert np.all(value[0] == 0.0) and np.all(err[0] == 0.0)
    for n in range(1, 7):
        assert np.all(value[n, :n] == 0.0)


def _clipped_gauss_rows(config, n_max, m_max, spec):
    out = _gauss_rows(config, n_max, m_max, spec)
    out[0, 0] = 1.0
    return np.clip(out, 0.0, 1.0)


def test_rejected_rows_fall_back_bit_for_bit():
    # a recovery far faster than the grid step: the estimate flags rows 2-4
    fast = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 5e-6))
    mat = cond_prob_matrix(fast, n_max=4, m_max=4, spec=SPEC)
    assert mat.meta["engines"][2:] == ["nested_gauss"] * 3
    ref = _clipped_gauss_rows(fast, 4, 4, SPEC)
    assert np.array_equal(mat.entries[2:], ref[2:])


def test_unserved_configurations_fall_back_bit_for_bit():
    mode = ModeProfile.tabulated([(0.0, 1.0), (0.5, 2.0), (1.0, 1.0)])
    cases = [
        (DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2),
                        mode=mode), 3, 4),
        (DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.tabulated(
            [(0.0, 0.0), (0.05, 0.0), (0.3, 0.9), (1.0, 1.0)])), 3, 4),
        (_config("dead", 0.333), 4, M_MAX + 8),
    ]
    for config, n_max, m_max in cases:
        spec = QuadratureSpec(gauss_order=8)
        mat = cond_prob_matrix(config, n_max=n_max, m_max=m_max, spec=spec)
        assert "renewal" not in mat.meta["engines"]
        assert mat.meta["renewal_err"] is None
        assert np.array_equal(mat.entries, _clipped_gauss_rows(config, n_max, m_max, spec))
        with pytest.raises(DomainError):
            fock_table(config, n_max, m_max)


def test_explicit_methods_bypass_the_engine():
    for method in ("nested_gauss", "qmc_sobol"):
        spec = QuadratureSpec(method=method, gauss_order=8, qmc_samples=1 << 12)
        mat = cond_prob_matrix(EXP, n_max=3, m_max=4, spec=spec)
        assert mat.meta["engines"] == ["closed_form"] + [method] * 3
        assert np.array_equal(mat.entries, _clipped_gauss_rows(EXP, 3, 4, spec))


def test_carryover_records_engines():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mat = carryover_matrix(EXP, CwConfig(delta=0.3), m_max=6, spec=SPEC)
    assert mat.meta["method"] == "auto"
    assert mat.meta["engines"] == ["closed_form"] + ["renewal"] * 6
    assert mat.meta["renewal_err"] < 1e-8


def test_kernel_meta_records_both_tables():
    cw = CwConfig(delta=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kern = memory_kernels(EXP, cw, m_max=6, spec=SPEC)
    last_click = (1.0 - cw.delta, 1.0)
    _, fresh = number_table(EXP, 6, 6, SPEC, last_click=last_click)
    _, carried = number_table(EXP, 6, 6, SPEC, last_click=last_click,
                              carries=_carry_nodes(EXP, cw.delta))
    assert kern.meta["seed"] == SPEC.seed
    assert kern.meta["engines"] == {"a": fresh["engines"], "b": carried["engines"]}
    assert kern.meta["engines"]["b"] == ["closed_form"] + ["renewal"] * 6
    assert kern.meta["renewal_err"] == {"a": fresh["renewal_err"], "b": carried["renewal_err"]}
    assert 0.0 < kern.meta["renewal_err"]["b"] < 1e-8


def test_dead_time_carryover_matches_exact_mixture():
    # after a click c before the window, photons in the first tau_d - c are
    # lost; the others see a dead-time window of length tau_m - (tau_d - c)
    def conditioned(n, m, c):
        lost = max(0.0, 0.05 - c)
        live = DetectorConfig(tau_m=1.0 - lost, efficiency=EfficiencyProfile.dead_time(0.05))
        return sum(math.comb(m, k) * (1.0 - lost) ** k * lost ** (m - k)
                   * deadtime_closed_form(live, n, k) for k in range(m + 1))

    mat = carryover_matrix(DEAD, CwConfig(), m_max=8, spec=SPEC)
    taus, tws = _carry_nodes(DEAD, resolve_delta(DEAD, CwConfig()))
    ref = np.array([[sum(w * conditioned(n, m, c) for c, w in zip(taus, tws))
                     for m in range(9)] for n in range(mat.n_max + 1)])
    assert np.abs(mat.entries - ref).max() < 1e-9


# -- fixed-mean coherent chain ----------------------------------------------

PINS = np.array([0.45, 0.9, 0.99])  # last-click times


@pytest.mark.parametrize("kind", ["exp", "dead"])
@pytest.mark.parametrize("carry", [None, 0.02, 0.3])
@pytest.mark.parametrize("a", [1.0, 4.0])
def test_coherent_chain_matches_nested_gauss(kind, carry, a):
    config = _config(kind, 0.05)
    rows = coherent_rows(config, 5, a, SPEC, carry=carry)
    pinned = coherent_rows(config, 5, a, SPEC, carry=carry, last_click=PINS)
    assert sorted(rows) == sorted(pinned) == [1, 2, 3, 4, 5]
    for n in range(1, 6):
        # a single row runs the chain up to n and gets the same value
        assert coherent_row(config, n, a, SPEC, carry=carry) == rows[n]
        ref = coherent_row(config, n, a, GAUSS, carry=carry)
        assert abs(rows[n] - ref) < 1e-10
        for t, value in zip(PINS, pinned[n]):
            ref = coherent_row(config, n, a, GAUSS, carry=carry, last_click=t)
            assert abs(value - ref) < 1e-10


@pytest.mark.parametrize("config", [EXP, DEAD], ids=["exp", "dead"])
def test_last_click_density_normalizes(config):
    # exp(-a) plus the last-click mass is one; panels end at every kink
    x, w = _gauss(16)
    edges = np.linspace(0.0, 1.0, 21)
    taus = np.concatenate([0.5 * (hi - lo) * x + 0.5 * (lo + hi)
                           for lo, hi in zip(edges[:-1], edges[1:])])
    wts = np.concatenate([0.5 * (hi - lo) * w for lo, hi in zip(edges[:-1], edges[1:])])
    for a in (1.0, 4.0):
        mass = float(wts @ last_click_density(config, a, taus, SPEC))
        assert abs(math.exp(-a) + mass - 1.0) < 1e-9


def test_vacuum_density_is_exactly_zero():
    assert last_click_density(EXP, 0.0, 0.2, SPEC) == 0.0
    assert last_click_density(EXP, 0.0, 0.2, SPEC, carry=0.02) == 0.0
    assert np.all(last_click_density(DEAD, 0.0, PINS, SPEC) == 0.0)


def _integral(config, n, a, spec, carry=None, last_click=None):
    """The quadrature route of a coherent row: a^n times window_integral."""
    val, _ = window_integral(config, n, lambda dens, expo: dens * np.exp(-a * expo),
                             spec, carry=carry, last_click=last_click)
    return a**n * float(val)


def _integral_density(config, a, tau, spec, carry, n_cut):
    total = 0.0
    for n in range(1, n_cut + 1):
        term = _integral(config, n, a, spec, carry=carry, last_click=1.0 - tau)
        total += term
        if n > a and term < 1e-9 * max(total, 1e-300):
            break
    return total


COARSE = QuadratureSpec(gauss_order=8)
FALLBACK_CASES = [
    (DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.tabulated(
        [(0.0, 0.0), (0.05, 0.0), (0.3, 0.9), (1.0, 1.0)])), COARSE),
    (DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2),
                    mode=ModeProfile.tabulated([(0.0, 1.0), (0.5, 2.0), (1.0, 1.0)])), COARSE),
    (EXP, QuadratureSpec(method="nested_gauss", gauss_order=8)),
    (EXP, QuadratureSpec(method="qmc_sobol", qmc_samples=1 << 12)),
]


@pytest.mark.parametrize("config, spec", FALLBACK_CASES,
                         ids=["tabulated_profile", "tabulated_mode", "nested_gauss", "qmc_sobol"])
def test_unserved_coherent_rows_fall_back_bit_for_bit(config, spec):
    assert coherent_rows(config, 3, 1.0, spec) == {}
    for n in range(1, 4):
        assert coherent_click_probability(config, n, 1.0, spec) == _integral(config, n, 1.0, spec)
        assert coherent_click_probability_after_gap(config, n, 1.0, 0.02, spec) == \
            _integral(config, n, 1.0, spec, carry=0.02)
    taus = np.array([0.1, 0.4])
    for carry in (None, 0.02):
        got = last_click_density(config, 1.0, taus, spec, carry=carry, n_cut=3)
        ref = [_integral_density(config, 1.0, t, spec, carry, 3) for t in taus]
        assert np.array_equal(got, ref)


def test_rejected_coherent_rows_fall_back_bit_for_bit():
    # a recovery far faster than the grid step: the estimate flags rows 2-3
    fast = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 5e-6))
    assert sorted(coherent_rows(fast, 3, 1.0, SPEC)) == [1]
    assert sorted(coherent_rows(fast, 3, 1.0, SPEC, last_click=np.array([0.6, 0.9]))) == [1]
    for n in (2, 3):
        assert coherent_click_probability(fast, n, 1.0, SPEC) == _integral(fast, n, 1.0, SPEC)
    taus = np.array([0.1, 0.4])
    value, _ = coherent_table(fast, 1, 1.0, last_click=1.0 - taus)
    got = last_click_density(fast, 1.0, taus, SPEC, n_cut=3)
    ref = [value[1, j] + _integral(fast, 2, 1.0, SPEC, last_click=1.0 - t)
           + _integral(fast, 3, 1.0, SPEC, last_click=1.0 - t) for j, t in enumerate(taus)]
    assert np.array_equal(got, ref)
