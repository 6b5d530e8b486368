import math
import warnings

import numpy as np
import pytest

from snspd_stats import (CwConfig, DetectorConfig, DomainError, EfficiencyProfile,
                         ModeProfile, QuadratureSpec, carryover_matrix,
                         coherent_click_probability, coherent_click_probability_after_gap,
                         cond_prob_matrix, last_click_density, renewal)
from snspd_stats.continuous import _carry_nodes, memory_kernels, resolve_delta
from snspd_stats.independent import (coherent_row, coherent_rows, deadtime_closed_form,
                                     fock_row, number_table, same_count_probability)
from snspd_stats.montecarlo import simulate_interpulse_gaps
from snspd_stats.quadrature import _gauss
from snspd_stats.reconstruct import ReconstructionSpec, reconstruct_details
from snspd_stats.renewal import M_MAX
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


def fock_table(config, n_max, m_max, carries=None, last_click=None):
    """One last click's table of ``renewal.fock_tables``."""
    return renewal.fock_tables(config, n_max, m_max, [last_click], carries)[0]


def _gauss_rows(config, n_top, m_max, spec, carry=None, last_click=None):
    """perm * fock_row, the quadrature route, for rows 1..n_top."""
    carries = None if carry is None else ([carry], [1.0])
    out = np.zeros((n_top + 1, m_max + 1))
    for n in range(1, n_top + 1):
        ms = np.arange(n, m_max + 1)
        perm = np.array([math.perm(int(m), n) for m in ms], dtype=float)
        out[n, n:] = perm * fock_row(config, n, ms - n, spec, carries, last_click)[0]
    return out


# (a, b, size) shapes of the series products: a chain step's table by gap
# factor, a one-point last axis on either side, a read-off's head by tail
# weight with a cut below both lengths, and the one-coefficient coherent chain
PRODUCTS = [((7, 3, 9), (8, 1, 9), 7), ((7, 3, 1), (8, 1, 9), 7), ((7, 3, 9), (8, 1, 1), 7),
            ((6, 2, 4), (8, 2, 4), 4), ((1, 3, 9), (1, 1, 9), 1)]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("a_shape, b_shape, size", PRODUCTS)
def test_series_product_matches_convolution(dtype, a_shape, b_shape, size):
    rng = np.random.default_rng(11)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    a, b = draw(a_shape), draw(b_shape)
    out = renewal._series_product(a, b, size)
    rows = np.broadcast_shapes(a_shape[1:], b_shape[1:])
    assert out.shape == (size,) + rows and out.dtype == np.dtype(dtype)
    wide_a = np.broadcast_to(a, a_shape[:1] + rows)
    wide_b = np.broadcast_to(b, b_shape[:1] + rows)
    for idx in np.ndindex(*rows):
        ra, rb = wide_a[(slice(None),) + idx], wide_b[(slice(None),) + idx]
        ref = np.convolve(ra, rb)[:size]
        terms = np.convolve(np.abs(ra), np.abs(rb))[:size]
        assert np.all(np.abs(out[(slice(None),) + idx] - ref) <= 1e-14 * terms)


@pytest.mark.parametrize("kind", ["exp", "dead"])
@pytest.mark.parametrize("tau_d", [0.05, 0.333])
@pytest.mark.parametrize("last_click", [None, (0.7, 1.0)])
def test_matches_nested_gauss(kind, tau_d, last_click):
    config = _config(kind, tau_d)
    top = min(5, config.max_clicks())
    value, _ = fock_table(config, top, 8, last_click=last_click)
    assert np.abs(value - _gauss_rows(config, top, 8, GAUSS, last_click=last_click)).max() < 1e-9
    for c in CARRIES:
        row, row_err = fock_table(config, top, 8, ([c], [1.0]), last_click)
        ref = _gauss_rows(config, top, 8, GAUSS, carry=c, last_click=last_click)
        assert np.abs(row - ref).max() < 1e-9
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
    assert mat.meta["quad_err"] is None
    assert mat.meta["method"] == "auto"


FAST = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 5e-6))


def test_quadrature_rows_report_their_error():
    # a recovery far faster than the grid step: rows 2-4 fall back to quadrature
    mat = cond_prob_matrix(FAST, n_max=4, m_max=4, spec=SPEC)
    fallback = [n for n, e in enumerate(mat.meta["engines"]) if e not in ("renewal", "closed_form")]
    assert fallback
    assert isinstance(mat.meta["quad_err"], float) and mat.meta["quad_err"] > 0.0


@pytest.fixture(scope="module", params=[40, 64])
def tilted_matrix(request):
    return cond_prob_matrix(EXP, m_max=request.param, spec=SPEC)


def test_tilted_tables_serve_every_row(tilted_matrix):
    # untilted, m_max = 40 rejects every row from 2 and its columns miss 1 by 7.6e-5
    cap = EXP.max_clicks()
    assert tilted_matrix.meta["engines"] == ["closed_form"] + ["renewal"] * cap
    assert tilted_matrix.meta["quad_err"] is None
    assert np.abs(tilted_matrix.column_sums() - 1.0).max() < 1e-7
    for n in range(2, cap + 1):
        assert abs(tilted_matrix.entries[n, n] - same_count_probability(EXP, n)) < 1e-8


@pytest.mark.parametrize("cases", [[None], [([0.02], [1.0])],
                                   [([0.004], [1.0]), ([0.29], [1.0])],
                                   [([0.004, 0.29], [0.5, 0.5])]],
                         ids=["fresh", "0.02", "batch", "weighted"])
@pytest.mark.parametrize("last_click", [None, (0.7, 1.0)])
def test_tilted_rows_match_nested_gauss(cases, last_click):
    # the tilt's discretisation error peaks on row 2 (5.5e-9 at P(2|2)),
    # far inside the tolerance the rows are taken at
    for carries in cases:
        value, err = fock_table(EXP, 5, 40, carries, last_click)
        assert np.all(SPEC.accepts(value, err))
        taus, tws = ([None], [1.0]) if carries is None else carries
        ref = sum(wt * _gauss_rows(EXP, 5, 40, GAUSS, carry=c, last_click=last_click)
                  for c, wt in zip(taus, tws))
        diff = np.abs(value - ref)
        assert diff.max() < 1e-8
        assert np.all(SPEC.accepts(value, diff))


def test_same_count_matches_renewal_diagonal():
    cap = EXP.max_clicks()
    value, _ = fock_table(EXP, cap, cap)
    for n in range(2, cap + 1):
        p = same_count_probability(EXP, n)
        assert 0.0 <= p <= 1.0
        assert abs(p - value[n, n]) < 1e-9


def test_exact_zeros():
    value, err = fock_table(EXP, 6, 9, ([0.02], [1.0]), (0.7, 1.0))
    assert np.all(value[0] == 0.0) and np.all(err[0] == 0.0)
    for n in range(1, 7):
        assert np.all(value[n, :n] == 0.0)


def _clipped_gauss_rows(config, n_max, m_max, spec):
    out = _gauss_rows(config, n_max, m_max, spec)
    out[0, 0] = 1.0
    return np.clip(out, 0.0, 1.0)


def test_rejected_rows_fall_back_bit_for_bit():
    # a recovery far faster than the grid step: the estimate flags rows 2-4
    # (renewal 2.8e-3 against the quadrature rows' 2.1e-5)
    fast = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 5e-6))
    mat = cond_prob_matrix(fast, n_max=4, m_max=4, spec=SPEC)
    assert mat.meta["engines"][2:] == ["nested_gauss"] * 3
    ref = _clipped_gauss_rows(fast, 4, 4, SPEC)
    assert np.array_equal(mat.entries[2:], ref[2:])


def test_dead_time_keeps_the_better_row():
    # the estimate rejects rows 14-19, but it is below their Sobol rows' (1e-3),
    # which are up to 7.2e-4 off the closed form
    mat = cond_prob_matrix(DEAD, m_max=64, spec=SPEC)
    closed = np.array([[deadtime_closed_form(DEAD, n, m) for m in range(65)]
                       for n in range(mat.n_max + 1)])
    assert np.abs(mat.entries - closed).max() < 1e-4
    assert mat.meta["engines"][1:19] == ["renewal"] * 18
    # the kept rows missed the tolerance; their estimates (up to 1.3e-5) are recorded
    assert 1e-6 < mat.meta["renewal_err"] < 1e-4


def test_unserved_configurations_fall_back_bit_for_bit():
    mode = ModeProfile.tabulated([(0.0, 1.0), (0.5, 2.0), (1.0, 1.0)])
    cases = [
        (DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2),
                        mode=mode), 3, 4),
        # the knot 0.3003 is off the lattice of multiples of tau_m/500
        (DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.tabulated(
            [(0.0, 0.0), (0.05, 0.0), (0.3003, 0.9), (1.0, 1.0)])), 3, 4),
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


def _carry_average(config, m_max, carries, last_click):
    """Carry-averaged fock_table and the weighted per-carry tables, each with its estimate."""
    taus, tws = carries
    top = min(8, config.max_clicks())
    value, err = fock_table(config, top, m_max, carries, last_click)
    block, block_err = zip(*(fock_table(config, top, m_max, ([c], [1.0]), last_click)
                             for c in taus))
    return value, err, np.tensordot(tws, block, 1), np.tensordot(tws, block_err, 1)


@pytest.mark.parametrize("kind", ["exp", "dead"])
@pytest.mark.parametrize("last_click", [None, (0.7, 1.0)])
def test_carry_average_matches_the_per_carry_batch(kind, last_click):
    # carries at or past the dead time share a grid and are summed into one
    # chain row; the average and its estimate follow the per-carry tables
    config = _config(kind, 0.05)
    carries = _carry_nodes(config, 0.3)
    value, err, ref, ref_err = _carry_average(config, 11, carries, last_click)
    assert np.abs(value - ref).max() < 1e-13
    assert np.all(err <= ref_err + 1e-13)  # both move by round-off
    top = len(value) - 1
    entries, meta = number_table(config, top, 11, SPEC, carries=carries, last_click=last_click)
    assert meta["engines"] == ["closed_form"] + ["renewal"] * top
    assert np.array_equal(entries[1:], value[1:])


@pytest.mark.parametrize("kind", ["exp", "dead"])
@pytest.mark.parametrize("last_click", [None, (0.7, 1.0)])
def test_tilted_carry_average_matches_the_per_carry_batch(kind, last_click):
    # the tilted chain's row-2 round-off (up to 3e-8 on dead time) depends on
    # whether carries are summed before or after it; the two agree inside
    # the tolerance the rows are taken at
    carries = np.array(CARRIES), np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    value, _, ref, _ = _carry_average(_config(kind, 0.05), 40, carries, last_click)
    diff = np.abs(value - ref)
    assert diff.max() < 1e-7
    assert np.all(SPEC.accepts(value, diff))


@pytest.mark.parametrize("config", [EXP, DEAD], ids=["exp", "dead"])
def test_kernels_share_one_carried_chain(config, monkeypatch):
    chain, rows = renewal._chain, []

    def spy(*args, **kwargs):
        for i, step in enumerate(chain(*args, **kwargs)):
            if i == 0:
                rows.append(step[2].shape[1])
            yield step

    monkeypatch.setattr(renewal, "_chain", spy)
    cw = CwConfig(delta=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kern = memory_kernels(config, cw, m_max=8, spec=SPEC)
    # fresh and carried chains on three grids each; 6 near carries and one
    # row for the 10 carries past the dead time
    assert sorted(rows) == [1, 1, 1, 7, 7, 7]
    monkeypatch.setattr(renewal, "_chain", chain)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        alone = carryover_matrix(config, cw, m_max=8, spec=SPEC)
    assert np.array_equal(kern.d_matrix.entries, alone.entries)
    assert kern.d_matrix.meta == alone.meta
    carried, _ = number_table(config, 8, 8, SPEC, last_click=(1.0 - cw.delta, 1.0),
                              carries=_carry_nodes(config, cw.delta))
    assert np.array_equal(kern.b_m, 1.0 - carried.sum(axis=0))


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


# -- pinned last clicks ------------------------------------------------------

PINS = np.array([0.45, 0.9, 0.99])  # last-click times


@pytest.mark.parametrize("kind", ["exp", "dead"])
@pytest.mark.parametrize("carry", [None, 0.02])
def test_pinned_rows_match_nested_gauss(kind, carry):
    config = _config(kind, 0.05)
    carries = None if carry is None else ([carry], [1.0])
    tables = renewal.fock_tables(config, 5, 8, list(PINS), carries)
    for t, (value, err) in zip(PINS, tables):
        # one pin alone reads the same chain
        alone = fock_table(config, 5, 8, carries, t)
        assert np.array_equal(alone[0], value) and np.array_equal(alone[1], err)
        assert np.all(value[0] == 0.0)
        ref = _gauss_rows(config, 5, 8, GAUSS, carry=carry, last_click=t)
        assert np.abs(value - ref).max() < 1e-10
    # tilted: every row the estimate accepts is within the tolerance
    for t, (value, err) in zip(PINS, renewal.fock_tables(config, 5, 40, list(PINS), carries)):
        ref = _gauss_rows(config, 5, 40, GAUSS, carry=carry, last_click=t)
        for n in range(1, 6):
            if np.all(SPEC.accepts(value[n], err[n])):
                assert np.all(SPEC.accepts(value[n], np.abs(value[n] - ref[n])))


@pytest.mark.parametrize("kind", ["exp", "dead"])
@pytest.mark.parametrize("carries", [None, ([0.02], [1.0])], ids=["fresh", "0.02"])
def test_pins_integrate_to_the_span(kind, carries):
    # Gauss panels split where the tail weight kinks, at 1 - tau_d
    x, w = _gauss(16)
    pins, wts = [], []
    for lo, hi in ((0.7, 0.95), (0.95, 1.0)):
        pins += list(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        wts += list(0.5 * (hi - lo) * w)
    *pinned, (span, _) = renewal.fock_tables(_config(kind, 0.05), 6, 8, pins + [(0.7, 1.0)],
                                             carries)
    total = sum(wt * value for wt, (value, _) in zip(wts, pinned))
    assert np.abs(total - span).max() < 1e-12


def test_carries_are_checked():
    with pytest.raises(DomainError):
        fock_table(EXP, 2, 2, ([-0.1], [1.0]))
    with pytest.raises(DomainError):
        renewal.fock_tables(EXP, 2, 2, [None], ([0.1, 0.2], [1.0]))
    for carry in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            fock_table(EXP, 2, 2, ([0.1, carry], [0.5, 0.5]))
        with pytest.raises(DomainError):
            renewal.coherent_tables(EXP, 2, 3.0, [None], ([carry], [1.0]))


def test_zero_rows_give_zero_tables():
    # n_max = 0 runs no chain step; row 0 is zero
    for value, err in renewal.coherent_tables(EXP, 0, 3.0, [None, 0.9], ([0.02], [1.0])):
        assert value.shape == err.shape == (1,) and not value.any() and not err.any()
    (entries, err), = renewal.fock_tables(EXP, 0, 2, [None])
    assert entries.shape == err.shape == (1, 3) and not entries.any() and not err.any()


def test_pinned_fallback_rows_record_their_free_times():
    # the pinned sixth row integrates five free times by nested Gauss
    spec = QuadratureSpec(method="nested_gauss", gauss_order=8)
    _, meta = number_table(EXP, 6, 6, spec, last_click=0.9)
    assert meta["engines"] == ["closed_form"] + ["nested_gauss"] * 6
    _, meta = number_table(EXP, 6, 6, QuadratureSpec(method="qmc_sobol"), last_click=0.9)
    assert meta["engines"] == ["closed_form"] + ["qmc_sobol"] * 6


# -- fixed-mean coherent chain ----------------------------------------------


@pytest.mark.parametrize("kind", ["exp", "dead"])
@pytest.mark.parametrize("carry", [None, 0.02, 0.3])
@pytest.mark.parametrize("a", [1.0, 4.0])
def test_coherent_chain_matches_nested_gauss(kind, carry, a):
    config = _config(kind, 0.05)
    carries = None if carry is None else ([carry], [1.0])
    (rows, meta), *pinned = coherent_rows(config, range(1, 6), a, SPEC, [None, *PINS], carries)
    for engines in [meta["engines"]] + [m["engines"] for _, m in pinned]:
        assert engines == ["renewal"] * 5
    for n in range(1, 6):
        # a single row runs the chain up to n and gets the same value
        assert coherent_row(config, n, a, SPEC, carry=carry) == rows[n - 1]
        ref = coherent_row(config, n, a, GAUSS, carry=carry)
        assert abs(rows[n - 1] - ref) < 1e-10
        for t, (values, _) in zip(PINS, pinned):
            ref = coherent_row(config, n, a, GAUSS, carry=carry, last_click=t)
            assert abs(values[n - 1] - ref) < 1e-10


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
    carries = None if carry is None else ([carry], [1.0])
    val, _ = window_integral(config, n, lambda dens, expo: dens * np.exp(-a * expo),
                             spec, carries, last_click)
    return a**n * float(val)


def _integral_density(config, a, tau, spec, carry, n_cut):
    """Rows 1..n_cut of the quadrature route at the pin 1 - tau, added in order."""
    return sum(_integral(config, n, a, spec, carry=carry, last_click=1.0 - tau)
               for n in range(1, n_cut + 1))


COARSE = QuadratureSpec(gauss_order=8)
FALLBACK_CASES = [  # the knot 0.3003 is off the lattice of multiples of tau_m/500
    (DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.tabulated(
        [(0.0, 0.0), (0.05, 0.0), (0.3003, 0.9), (1.0, 1.0)])), COARSE),
    (DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2),
                    mode=ModeProfile.tabulated([(0.0, 1.0), (0.5, 2.0), (1.0, 1.0)])), COARSE),
    (EXP, QuadratureSpec(method="nested_gauss", gauss_order=8)),
    (EXP, QuadratureSpec(method="qmc_sobol", qmc_samples=1 << 12)),
]


@pytest.mark.parametrize("config, spec", FALLBACK_CASES,
                         ids=["tabulated_profile", "tabulated_mode", "nested_gauss", "qmc_sobol"])
def test_unserved_coherent_rows_fall_back_bit_for_bit(config, spec):
    (_, meta), = coherent_rows(config, range(1, 4), 1.0, spec, [None])
    assert "renewal" not in meta["engines"] and meta["renewal_err"] is None
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
    # (the quadrature rows estimate 3e-9 to 6e-9, against the chain's 6e-5 to 1e-4)
    for _, meta in coherent_rows(fast, range(1, 4), 1.0, SPEC, [None, 0.6, 0.9]):
        assert meta["engines"] == ["renewal", "nested_gauss", "nested_gauss"]
        assert meta["quad_err"] < 1e-8
    for n in (2, 3):
        assert coherent_click_probability(fast, n, 1.0, SPEC) == _integral(fast, n, 1.0, SPEC)
    taus = np.array([0.1, 0.4])
    tables = renewal.coherent_tables(fast, 1, 1.0, list(1.0 - taus))
    got = last_click_density(fast, 1.0, taus, SPEC, n_cut=3)
    ref = [value[1] + _integral(fast, 2, 1.0, SPEC, last_click=1.0 - t)
           + _integral(fast, 3, 1.0, SPEC, last_click=1.0 - t)
           for (value, _), t in zip(tables, taus)]
    assert np.array_equal(got, ref)


# -- tabulated curves on the grid's lattice ---------------------------------

_KNOTS = np.linspace(0.0, 1.0, 501)  # the exp curve sampled at step 0.002
TAB = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.tabulated(
    list(zip(_KNOTS, EXP.efficiency.value(_KNOTS)))))


def _knot_panels(lo, hi, order=20):
    """Gauss nodes and weights on [lo, hi], one panel between each pair of knots."""
    edges = np.unique(np.concatenate([[lo, hi], _KNOTS[(_KNOTS > lo) & (_KNOTS < hi)]]))
    x, w = _gauss(order)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def test_tabulated_rows_match_knot_panel_gauss():
    # a fresh window's first click loses no exposure, so row 1 is one
    # integral over the tail s: P(1|m) = m int D(s)^(m-1), D(s) = s - C(s)
    prof = TAB.efficiency
    s, ws = _knot_panels(0.0, 1.0)
    mat = cond_prob_matrix(TAB, n_max=4, m_max=6, spec=SPEC)
    assert mat.meta["engines"] == ["closed_form"] + ["renewal"] * 4
    assert mat.meta["quad_err"] is None and mat.meta["renewal_err"] < 1e-9
    ref = [m * ws @ (s - prof.cumulative(s)) ** (m - 1) for m in range(1, 7)]
    assert np.abs(mat.entries[1, 1:] - ref).max() < 1e-10
    assert np.abs(mat.column_sums()[:5] - 1.0).max() < 1e-10
    for a in (0.5, 2.0, 4.0):
        (rows, meta), = coherent_rows(TAB, [1, 2], a, SPEC, [None])
        assert meta["engines"] == ["renewal"] * 2
        ref = ws @ (a * np.exp(-a * (1.0 - s) - a * prof.cumulative(s)))
        assert abs(rows[0] - ref) < 1e-10


@pytest.mark.parametrize("carry", [None, 0.02])
def test_tabulated_last_click_density_matches_knot_panel_gauss(carry):
    # rows 1 and 2 at a pin t: the first click's density in closed form and
    # the second's one integral over the first click, split at every knot
    # (the pin, the carry and the knots share the lattice)
    prof, a = TAB.efficiency, 4.0
    offsets = np.array([0.01, 0.1, 0.27, 0.6])
    carries = None if carry is None else ([carry], [1.0])
    for _, meta in coherent_rows(TAB, [1, 2], a, SPEC, list(1.0 - offsets), carries):
        assert meta["engines"] == ["renewal"] * 2

    def first(t):
        if carry is None:
            return a * np.exp(-a * t)
        return a * prof.value(carry + t) * np.exp(-a * (prof.cumulative(carry + t)
                                                        - prof.cumulative(carry)))

    got = last_click_density(TAB, a, offsets, SPEC, carry=carry, n_cut=2)
    for tau, value in zip(offsets, got):
        t = 1.0 - tau
        t1, w1 = _knot_panels(0.0, t)
        gap = t - t1
        second = w1 @ (first(t1) * a * prof.value(gap) * np.exp(-a * prof.cumulative(gap)))
        assert abs(value - (first(t) + second) * np.exp(-a * prof.cumulative(tau))) < 1e-10


_COARSE_KNOTS = np.linspace(0.0, 1.0, 51)  # step 0.02, on the lattice; quick quadrature
COARSE_TAB = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.tabulated(
    list(zip(_COARSE_KNOTS, EXP.efficiency.value(_COARSE_KNOTS)))))


# a knot off the lattice: the tabulated curve of the two ``unserved`` tests
@pytest.mark.parametrize("carry, last_click", [(0.0213, None), (None, 0.7003)],
                         ids=["carry", "pin"])
def test_off_lattice_tabulated_falls_back_bit_for_bit(carry, last_click):
    config = COARSE_TAB
    carries = None if carry is None else (np.array([carry]), np.array([1.0]))
    assert not renewal.serves(config, 4, [last_click], carries)
    with pytest.raises(DomainError):
        renewal.fock_tables(config, 3, 4, [last_click], carries)
    with pytest.raises(DomainError):
        renewal.coherent_tables(config, 3, 1.0, [last_click], carries)
    entries, meta = number_table(config, 3, 4, COARSE, carries=carries, last_click=last_click)
    assert "renewal" not in meta["engines"] and meta["renewal_err"] is None
    ref = _gauss_rows(config, 3, 4, COARSE, carry=carry, last_click=last_click)
    assert np.array_equal(entries[1:], ref[1:])
    (rows, meta), = coherent_rows(config, range(1, 4), 1.0, COARSE, [last_click], carries)
    assert "renewal" not in meta["engines"] and meta["renewal_err"] is None
    assert np.array_equal(rows, [_integral(config, n, 1.0, COARSE, carry=carry,
                                           last_click=last_click) for n in range(1, 4)])


def test_gauss_node_carries_are_off_the_lattice():
    # carryover_matrix and memory_kernels average over Gauss-node carries:
    # their carried tables keep falling back on a tabulated curve
    assert renewal.serves(TAB, 8, [None, (0.7, 1.0)], ([0.02, 0.3], [0.5, 0.5]))
    assert not renewal.serves(TAB, 8, [None, (0.7, 1.0)], _carry_nodes(TAB, 0.3))


def test_reconstructed_curve_is_served():
    # criterion 10's reconstruction has knots at the bin centres 0.01 + 0.02 k
    gaps = simulate_interpulse_gaps(EXP, rate=0.25, n_gaps=100_000, seed=42)
    res = reconstruct_details(gaps, ReconstructionSpec(bin_width=0.02, t_max=1.6))
    assert np.allclose(res.centers, 0.01 + 0.02 * np.arange(80))
    mat = cond_prob_matrix(DetectorConfig(tau_m=1.0, efficiency=res.profile),
                           n_max=4, m_max=4, spec=SPEC)
    assert mat.meta["engines"] == ["closed_form"] + ["renewal"] * 4
    assert np.abs(mat.column_sums() - 1.0).max() < 1e-10
