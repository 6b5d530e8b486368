"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s).  Shared
heavy artifacts (matrices, kernels, simulation runs) are session fixtures.
"""

import math
import time
import warnings

import numpy as np
import pytest

from snspd_stats import (CwConfig, DetectorConfig, EfficiencyProfile,
                         QuadratureSpec, ReconstructionSpec, SimSpec, StateSpec,
                         click_distribution_cw, click_distribution_independent,
                         coherent_click_probability, cond_prob_matrix,
                         deadtime_closed_form, empirical_distribution,
                         last_click_density, memory_kernels, photon_number_dist,
                         reconstruct_details, same_count_probability,
                         simulate_interpulse_gaps, squeezed_distribution_direct)
from snspd_stats.cli import main as cli_main
from snspd_stats.quadrature import _gauss
from snspd_stats.weights import (carry_adjust, no_count_exposure, qmc_tilt,
                                 support_plan, window_terms)
from snspd_stats.quadrature import integrate_ordered

SPEC = QuadratureSpec()
EXP = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2))
DT = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.05))
IDEAL = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.ideal())
CW3 = CwConfig(delta=0.3, window_count=3)

SAME_COUNT_N2 = 0.6018078643837503

warnings.filterwarnings("ignore", message=".*uniform-distribution.*")


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


def z_scores(analytic, empirical, n_windows):
    top = max(len(analytic), len(empirical))
    pa = np.pad(np.asarray(analytic, dtype=float), (0, top - len(analytic)))
    pe = np.pad(np.asarray(empirical, dtype=float), (0, top - len(empirical)))
    se = np.sqrt(np.maximum(pa * (1 - pa), 1e-12) / n_windows)
    return np.abs(pa - pe) / se


@pytest.fixture(scope="module")
def coherent_dist():
    return photon_number_dist(StateSpec.coherent(2.0), eta=1.0, nu=0.0)


@pytest.fixture(scope="module")
def coherent_matrix(coherent_dist):
    return cond_prob_matrix(EXP, m_max=coherent_dist.m_max, spec=SPEC)


@pytest.fixture(scope="module")
def fig3_kernels(coherent_dist):
    return memory_kernels(EXP, CW3, m_max=coherent_dist.m_max, spec=SPEC)


def test_criterion_1_pnr_reduction():
    t0 = time.perf_counter()
    matrix = cond_prob_matrix(IDEAL, m_max=12, spec=SPEC)
    assert np.array_equal(matrix.entries, np.eye(13))
    lossy = DetectorConfig(tau_m=1.0, eta=0.9, nu=0.05,
                           efficiency=EfficiencyProfile.ideal())
    mean = 0.9 * 4.0 + 0.05
    worst = 0.0
    for n in range(20):
        want = math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))
        got = coherent_click_probability(lossy, n, 4.0, SPEC)
        worst = max(worst, abs(want - got))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, ok, f"PNR reduction exact, poisson err {worst:.1e}, {elapsed:.2f} s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_2_deadtime_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    quad = cond_prob_matrix(DT, n_max=6, m_max=6, spec=SPEC)
    worst = 0.0
    for n in range(7):
        for m in range(7):
            worst = max(worst, abs(quad.entries[n, m] - deadtime_closed_form(DT, n, m)))
    assert quad.entries[1, 2] == pytest.approx(0.0975, abs=1e-8)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30
    report(2, ok, f"max |quad-closed| {worst:.2e} over n,m<=6, {elapsed:.1f} s")
    assert worst < 1e-4
    assert elapsed < 30


def test_criterion_3_same_count_closed_form():
    t0 = time.perf_counter()
    closed = same_count_probability(EXP, 2)
    quad = cond_prob_matrix(EXP, n_max=2, m_max=2, spec=SPEC).entries[2, 2]
    trials = 1_000_000
    mc = empirical_distribution(StateSpec.fock(2), EXP, SimSpec(trials=trials, seed=31))
    se = math.sqrt(closed * (1 - closed) / trials)
    z = abs(mc.probs[2] - closed) / se
    elapsed = time.perf_counter() - t0
    ok = (abs(closed - SAME_COUNT_N2) < 1e-5 and abs(closed - quad) < 1e-4
          and z < 4 and elapsed < 120)
    report(3, ok, f"value {closed:.7f} (pinned {SAME_COUNT_N2:.7f}), "
                  f"|closed-quad| {abs(closed-quad):.1e}, mc z {z:.2f}, {elapsed:.0f} s")
    assert abs(closed - SAME_COUNT_N2) < 1e-5
    assert abs(closed - quad) < 1e-4
    assert z < 4
    assert elapsed < 120


def test_criterion_4_normalization(coherent_dist, coherent_matrix):
    col = cond_prob_matrix(EXP, m_max=10, spec=SPEC)
    col_err = float(np.max(np.abs(col.column_sums() - 1.0)))

    out_c = click_distribution_independent(coherent_dist, EXP, SPEC)
    err_c = abs(out_c.total() + coherent_dist.tail - 1.0)

    fock = photon_number_dist(StateSpec.fock(4), eta=0.8, nu=0.0)
    out_f = click_distribution_independent(fock, EXP, SPEC)
    err_f = abs(out_f.total() - 1.0)

    cfg08 = DetectorConfig(tau_m=1.0, eta=0.8, efficiency=EXP.efficiency)
    direct = squeezed_distribution_direct(cfg08, 1.5, n_max=EXP.max_clicks(), spec=SPEC)
    err_s = abs(direct.sum() - 1.0)

    worst = max(col_err, err_c, err_f, err_s)
    ok = worst < 1e-5
    report(4, ok, f"columns m<=10 {col_err:.1e}; states coherent {err_c:.1e}, "
                  f"fock {err_f:.1e}, squeezed {err_s:.1e}")
    assert col_err < 1e-5
    assert err_c < 1e-5
    assert err_f < 1e-5
    assert err_s < 1e-5


def test_criterion_5_oracle_equivalence_independent(coherent_dist, coherent_matrix):
    t0 = time.perf_counter()
    trials = 1_000_000
    rows = []

    ana = coherent_matrix.entries @ coherent_dist.probs
    mc = empirical_distribution(StateSpec.coherent(2.0), EXP,
                                SimSpec(trials=trials, seed=11))
    rows.append(("coherent", float(z_scores(ana, mc.probs, mc.n_windows).max())))

    for eta, seed in [(1.0, 77), (0.8, 78)]:
        dist = photon_number_dist(StateSpec.fock(4), eta=eta, nu=0.0)
        ana = click_distribution_independent(dist, EXP, SPEC).probs
        cfg = DetectorConfig(tau_m=1.0, eta=eta, efficiency=EXP.efficiency)
        mc = empirical_distribution(StateSpec.fock(4), cfg,
                                    SimSpec(trials=trials, seed=seed))
        rows.append((f"fock4 eta={eta}", float(z_scores(ana, mc.probs, mc.n_windows).max())))

    cfg08 = DetectorConfig(tau_m=1.0, eta=0.8, efficiency=EXP.efficiency)
    direct = squeezed_distribution_direct(cfg08, 1.5, n_max=14, spec=SPEC)
    mc = empirical_distribution(StateSpec.squeezed(1.5), cfg08,
                                SimSpec(trials=trials, seed=99))
    rows.append(("squeezed", float(z_scores(direct, mc.probs, mc.n_windows).max())))

    elapsed = time.perf_counter() - t0
    worst = max(z for _, z in rows)
    ok = worst < 4 and elapsed < 600
    report(5, ok, "; ".join(f"{name} z={z:.2f}" for name, z in rows)
           + f"; {elapsed:.0f} s")
    assert worst < 4, rows
    assert elapsed < 600


@pytest.fixture(scope="module")
def cw_mc_run():
    return empirical_distribution(
        StateSpec.coherent(2.0), EXP,
        SimSpec(trials=2500, seed=23, carry_in="contiguous",
                windows_per_trial=404, warm_up=4, collect_offsets=True))


def test_cw_components_validated_against_oracle(cw_mc_run):
    """Companion diagnostic for criterion 6.

    Replaces the uniform model of the carried-over offset density by the
    simulator's measured histogram and rebuilds the distribution from the
    conditioned click probabilities.  Agreement within Monte-Carlo noise
    shows every ingredient (conditioned probabilities, carry threading,
    memory chain) is correct, isolating criterion 6's residual to the
    uniform-density model assumption itself.
    """
    mc = cw_mc_run
    a = 4.0
    off = mc.last_offsets
    nbins = 50
    edges = np.linspace(0.0, 1.0, nbins + 1)
    hist, _ = np.histogram(off, bins=edges)
    w_far = float(np.mean(off >= 1.0))
    w_bins = hist / len(off)
    centers = 0.5 * (edges[:-1] + edges[1:])

    n_top = 9
    probs = np.zeros(n_top + 1)
    probs[0] = w_far * math.exp(-a) + float(
        w_bins @ np.exp(-a * np.asarray(no_count_exposure(EXP, centers))))
    for n in range(1, n_top + 1):
        plan = support_plan(EXP, n)

        def f(T):
            terms = window_terms(EXP, T)
            cols = [terms.density * np.exp(-a * terms.exposure)]
            for tau in centers:
                dens, expo = carry_adjust(EXP, terms, float(tau))
                cols.append(dens * np.exp(-a * expo))
            return np.column_stack(cols)

        splits = [plan.outer_split] if plan.outer_split is not None else []
        val, _ = integrate_ordered(n, 1.0, f, SPEC, lower_gap=plan.lower_gap,
                                   first_offset=plan.first_offset,
                                   outer_splits=splits, gap_tilt=qmc_tilt(EXP))
        val = np.asarray(val) * a**n
        probs[n] = w_far * val[0] + float(w_bins @ val[1:])

    z = z_scores(probs, mc.probs[:n_top + 1], mc.n_windows)[:n_top + 1]
    print(f"exact-offset-density reconstruction: worst z = {z.max():.2f}")
    assert z.max() < 4.0


def test_criterion_6_cw_uniform_approximation_vs_oracle(
        coherent_dist, coherent_matrix, fig3_kernels, cw_mc_run):
    ana = click_distribution_cw(coherent_dist, EXP, CW3, SPEC,
                                kernels=fig3_kernels, matrix=coherent_matrix)
    z = z_scores(ana.probs, cw_mc_run.probs, cw_mc_run.n_windows)
    worst = float(z.max())
    ok = worst < 4
    report(6, ok, f"cw l=3 vs contiguous MC (1e6 windows): worst z = {worst:.1f}")
    table = "\n".join(
        f"  n={n}: analytic={ana.probs[n]:.5f} mc={cw_mc_run.probs[n]:.5f} z={z[n]:.1f}"
        for n in range(min(8, len(ana.probs))))
    assert worst < 4, (
        "The closed memory model (uniform carried-offset density on [0, Delta]) "
        "deviates from the exact contiguous simulation by more than 4 standard "
        "errors at these parameters:\n" + table + "\n"
        "Every component passes its own oracle (conditioned probabilities vs "
        "fixed-carry simulation, carry-averaged matrix vs offset-scanned "
        "simulation, memory probability q vs the measured offset mass, and the "
        "exact-offset-density reconstruction in the companion test). The "
        "residual is the uniform-density model itself: at these parameters the "
        "recovery at Delta is 0.71 rather than about 1, the regime the model "
        "itself warns about. Its bias (about 6e-3 peak) exceeds the 4-sigma "
        "resolution of 1e6 simulated windows (about 1.6e-3).")


def test_criterion_6_ergodicity(coherent_dist, coherent_matrix, fig3_kernels):
    six = click_distribution_cw(coherent_dist, EXP,
                                CwConfig(delta=0.3, window_count=6), SPEC,
                                kernels=fig3_kernels, matrix=coherent_matrix)
    seven = click_distribution_cw(coherent_dist, EXP,
                                  CwConfig(delta=0.3, window_count=7), SPEC,
                                  kernels=fig3_kernels, matrix=coherent_matrix)
    tv = 0.5 * float(np.abs(six.probs - seven.probs).sum())
    ok = tv < 1e-3
    report(6, ok, f"ergodicity: TV(l=6, l=7) = {tv:.2e}")
    assert tv < 1e-3


def test_criterion_7_kernel_identities(fig3_kernels):
    kern = fig3_kernels
    exact = np.array_equal(kern.c_m, kern.a_m - kern.b_m)
    vacuum = (kern.a_m[0], kern.b_m[0], kern.c_m[0]) == (1.0, 1.0, 0.0)

    ideal_kern = memory_kernels(IDEAL, CW3, m_max=6, spec=SPEC)
    ideal_c = float(np.max(np.abs(ideal_kern.c_m)))

    dist = photon_number_dist(StateSpec.coherent(2.0), eta=1.0, nu=0.0)
    cw_out = click_distribution_cw(dist, IDEAL, CW3, SPEC)
    ind = click_distribution_independent(dist, IDEAL, SPEC)
    reduction = float(np.max(np.abs(cw_out.probs - ind.probs)))

    ok = exact and vacuum and ideal_c == 0.0 and reduction <= 1e-10
    report(7, ok, f"C=A-B exact={exact}, vacuum={vacuum}, ideal C={ideal_c:.1e}, "
                  f"cw-vs-independent {reduction:.1e}")
    assert exact and vacuum
    assert ideal_c == 0.0
    assert reduction <= 1e-10


def test_criterion_8_squeezed_route_equivalence():
    cfg08 = DetectorConfig(tau_m=1.0, eta=0.8, efficiency=EXP.efficiency)
    direct = squeezed_distribution_direct(cfg08, 1.5, n_max=6, spec=SPEC)
    dist = photon_number_dist(StateSpec.squeezed(1.5), eta=0.8, nu=0.0, m_max=150)
    fock_route = click_distribution_independent(
        dist, EXP, QuadratureSpec(gauss_order=24, seed=3))
    gap = float(np.max(np.abs(direct - fock_route.probs[:7])))

    unit = photon_number_dist(StateSpec.squeezed(1.5), eta=1.0, nu=0.0, m_max=40)
    odd = float(np.max(unit.probs[1::2]))
    ok = gap < 1e-5 and odd < 1e-12
    report(8, ok, f"route gap {gap:.2e} (n<=6), odd-m at eta=1 {odd:.1e}")
    assert gap < 1e-5
    assert odd < 1e-12


def test_criterion_9_first_window_normalization():
    x, w = _gauss(4)
    total = 0.0
    edges = np.arange(0.0, 1.0 + 1e-9, 0.05)
    for lo, hi in zip(edges[:-1], edges[1:]):
        taus = 0.5 * (hi - lo) * x + 0.5 * (lo + hi)
        vals = last_click_density(EXP, 4.0, taus, SPEC)
        total += 0.5 * (hi - lo) * float(w @ vals)
    defect = abs(math.exp(-4.0) + total - 1.0)
    ok = defect < 1e-5
    report(9, ok, f"no-click weight plus last-click mass off by {defect:.1e}")
    assert defect < 1e-5


def test_criterion_10_reconstruction_round_trip():
    t0 = time.perf_counter()
    rate = 0.25
    gaps = simulate_interpulse_gaps(EXP, rate=rate, n_gaps=10_000_000, seed=42)
    res = reconstruct_details(gaps, ReconstructionSpec(bin_width=0.02, t_max=1.6))
    t = res.centers
    est = np.array([v for _, v in res.profile.table])
    true = np.asarray(EXP.efficiency.value(t))
    sel = t <= 0.05 + 3 * 0.2
    curve_err = float(np.abs(est - true)[sel].max())

    cfg_rec = DetectorConfig(tau_m=1.0, efficiency=res.profile)
    m_rec = cond_prob_matrix(cfg_rec, n_max=4, m_max=4, spec=SPEC)
    m_true = cond_prob_matrix(EXP, n_max=4, m_max=4, spec=SPEC)
    matrix_err = float(np.abs(m_rec.entries - m_true.entries).max())
    elapsed = time.perf_counter() - t0
    ok = curve_err < 0.02 and matrix_err < 0.01 and elapsed < 300
    report(10, ok, f"curve err {curve_err:.4f}, matrix err {matrix_err:.4f}, "
                   f"{elapsed:.0f} s")
    assert curve_err < 0.02
    assert matrix_err < 0.01
    assert elapsed < 300


def test_criterion_11_validate_determinism(tmp_path):
    first = tmp_path / "report1.txt"
    second = tmp_path / "report2.txt"
    code1 = cli_main(["validate", "--suite", "quick", "--seed", "7",
                      "--out", str(first)])
    code2 = cli_main(["validate", "--suite", "quick", "--seed", "7",
                      "--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    report(11, ok, f"exit codes {code1}/{code2}, byte-identical={identical}")
    assert code1 == 0 and code2 == 0
    assert identical
