"""Built-in cross-check suites behind the ``validate`` CLI command.

Each check compares two independent routes to the same quantity (closed
form vs quadrature, analytic vs simulation, series vs limit) and reports a
single pass/fail line.  All randomness is seeded, so a report is a pure
function of (suite, seed) and reruns are byte-identical.
"""

from __future__ import annotations

import io
import math
from dataclasses import replace

import numpy as np

from .continuous import (CwConfig, click_distribution_cw,
                         coherent_click_probability_after_gap, memory_kernels,
                         memory_probability_q)
from .detector import DetectorConfig, EfficiencyProfile
from .independent import (click_distribution_independent,
                          coherent_click_probability, cond_prob_matrix,
                          deadtime_closed_form, same_count_probability,
                          squeezed_distribution_direct)
from .montecarlo import SimSpec, empirical_distribution
from .quadrature import QuadratureSpec
from .states import StateSpec, photon_number_dist

SAME_COUNT_N2_REFERENCE = 0.6018078643837503  # hand evaluation, tau_d=.05 tau_r=.2


def _check(rows, name, observed, tol):
    rows.append((name, observed <= tol, observed, tol))


def run_suite(suite: str = "quick", seed: int = 7):
    """Run the named suite; returns (report_text, all_passed)."""
    if suite not in ("quick", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    heavy = suite == "full"
    spec = QuadratureSpec(gauss_order=32 if heavy else 16,
                          qmc_samples=(1 << 16) if heavy else 4096,
                          seed=seed)
    gauss_spec = replace(spec, method="nested_gauss")  # reference side of engine checks
    rows = []

    # photon-number-resolving reduction: Poisson statistics, identity matrix
    ideal = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.ideal())
    dist = photon_number_dist(StateSpec.coherent(2.0), eta=1.0, nu=0.0)
    clicks = click_distribution_independent(dist, ideal, spec)
    pois = np.array([math.exp(m * math.log(4.0) - 4.0 - math.lgamma(m + 1))
                     for m in range(len(clicks.probs))])
    _check(rows, "pnr_poisson_dist", float(np.max(np.abs(clicks.probs - pois))), 1e-12)
    eye = cond_prob_matrix(ideal, m_max=6, spec=spec).entries
    _check(rows, "pnr_identity_matrix", float(np.max(np.abs(eye - np.eye(7)))), 0.0)

    # zero-relaxation closed form against quadrature
    dt_cfg = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.05))
    top = 4 if heavy else 3
    quad = cond_prob_matrix(dt_cfg, n_max=top, m_max=top, spec=spec).entries
    closed = np.array([[deadtime_closed_form(dt_cfg, n, m) for m in range(top + 1)]
                       for n in range(top + 1)])
    _check(rows, "deadtime_closed_vs_quadrature",
           float(np.max(np.abs(quad - closed))), 1e-4)

    # same-count diagonal: pinned value and quadrature route
    exp_cfg = DetectorConfig(tau_m=1.0,
                             efficiency=EfficiencyProfile.exponential(0.05, 0.2))
    p22 = same_count_probability(exp_cfg, 2)
    _check(rows, "same_count_value", abs(p22 - SAME_COUNT_N2_REFERENCE), 1e-5)
    q22 = cond_prob_matrix(exp_cfg, n_max=2, m_max=2, spec=spec).entries[2, 2]
    _check(rows, "same_count_quadrature", abs(p22 - q22), 1e-4)

    # the default engine (renewal rows) against nested Gauss on the same table
    auto = cond_prob_matrix(exp_cfg, n_max=3, m_max=8, spec=spec).entries
    gauss = cond_prob_matrix(exp_cfg, n_max=3, m_max=8, spec=gauss_spec).entries
    _check(rows, "renewal_vs_nested_gauss", float(np.max(np.abs(auto - gauss))), 1e-6)

    # normalization of the click distribution for a coherent state
    alpha = 2.0 if heavy else 1.0
    dist2 = photon_number_dist(StateSpec.coherent(alpha), eta=1.0, nu=0.0)
    full = click_distribution_independent(dist2, exp_cfg, spec)
    _check(rows, "independent_normalization",
           abs(full.total() + dist2.tail - 1.0), 1e-5 if heavy else 1e-4)

    # the coherent route against the number basis it skips
    coh1 = photon_number_dist(StateSpec.coherent(1.0), eta=1.0, nu=0.0)
    route = click_distribution_independent(coh1, exp_cfg, spec).probs
    basis = cond_prob_matrix(exp_cfg, m_max=coh1.m_max, spec=spec).entries @ coh1.probs
    _check(rows, "coherent_route_vs_number_basis", float(np.max(np.abs(route - basis))), 1e-6)

    # simulation against analytic routes
    trials = 200_000 if heavy else 100_000
    mc = empirical_distribution(StateSpec.coherent(2.0), ideal,
                                SimSpec(trials=trials, seed=seed))
    se_mean = 2.0 / math.sqrt(trials)
    _check(rows, "mc_poisson_mean", abs(mc.mean_clicks() - 4.0), 4 * se_mean)

    dt2 = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.2))
    mc2 = empirical_distribution(StateSpec.fock(3), dt2,
                                 SimSpec(trials=trials, seed=seed + 1))
    worst = 0.0
    for n in range(len(mc2.counts)):
        ref = deadtime_closed_form(dt2, n, 3)
        se = math.sqrt(max(ref * (1 - ref), 1e-12) / trials)
        worst = max(worst, abs(mc2.probs[n] - ref) / (4 * se))
    _check(rows, "mc_deadtime_bins", worst, 1.0)

    # memory kernels: vacuum and memoryless detector
    cw = CwConfig(delta=0.3, window_count=3)
    kern = memory_kernels(exp_cfg, cw, m_max=4, spec=spec)
    _check(rows, "kernel_vacuum",
           abs(kern.a_m[0] - 1) + abs(kern.b_m[0] - 1) + abs(kern.c_m[0]), 1e-12)
    kern_pnr = memory_kernels(ideal, cw, m_max=3, spec=spec)
    _check(rows, "kernel_ideal_memoryless", float(np.max(np.abs(kern_pnr.c_m))), 1e-12)
    fock1 = photon_number_dist(StateSpec.fock(1), eta=1.0, nu=0.0)
    cw_pnr = click_distribution_cw(fock1, ideal, cw, spec)
    ind_pnr = click_distribution_independent(fock1, ideal, spec)
    pad = max(len(cw_pnr.probs), len(ind_pnr.probs))
    diff = (np.pad(cw_pnr.probs, (0, pad - len(cw_pnr.probs)))
            - np.pad(ind_pnr.probs, (0, pad - len(ind_pnr.probs))))
    _check(rows, "cw_ideal_equals_independent", float(np.max(np.abs(diff))), 1e-10)

    # Markovian boundary: a long carry gap forgets the previous window; the
    # fresh side is nested Gauss, so the chain is not checked against itself
    horizon = 0.05 + 20 * 0.2
    worst = 0.0
    for n in (0, 1, 2):
        base = coherent_click_probability(exp_cfg, n, 4.0, gauss_spec)
        cond = coherent_click_probability_after_gap(exp_cfg, n, 4.0, horizon, spec)
        worst = max(worst, abs(base - cond))
    _check(rows, "markovian_boundary", worst, 1e-6)

    # memory series: truncation against the geometric limit
    b = float(fock1.probs @ kern.b_m[:2])
    c = float(fock1.probs @ kern.c_m[:2])
    q_lim = memory_probability_q(kern, [fock1], CwConfig(
        delta=0.3, window_count=50, memory_depth="geometric_limit"))
    q_8 = memory_probability_q(kern, [fock1], CwConfig(
        delta=0.3, window_count=50, memory_depth=8))
    _check(rows, "memory_series_truncation", abs(q_lim - q_8),
           max(abs(c) ** 8, 1e-15))

    # squeezed vacuum: density route against the number-basis route
    sq_cfg = DetectorConfig(tau_m=1.0, eta=0.9,
                            efficiency=EfficiencyProfile.exponential(0.05, 0.2))
    sq_dist = photon_number_dist(StateSpec.squeezed(1.0), eta=0.9, nu=0.0)
    fock_route = click_distribution_independent(sq_dist, replace(sq_cfg, eta=1.0, nu=0.0), spec)
    top_n = 3 if heavy else 2
    direct = squeezed_distribution_direct(sq_cfg, 1.0, n_max=top_n, spec=spec)
    _check(rows, "squeezed_route_equivalence",
           float(np.max(np.abs(direct[:top_n + 1] - fock_route.probs[:top_n + 1]))),
           1e-4)

    buf = io.StringIO()
    buf.write("snspd-stats validation report\n")
    buf.write(f"suite={suite} seed={seed}\n")
    for name, ok, observed, tol in rows:
        buf.write("%s %-32s observed=%.6e tol=%.6e\n"
                  % ("PASS" if ok else "FAIL", name, observed, tol))
    passed = sum(1 for r in rows if r[1])
    ok_all = passed == len(rows)
    buf.write("RESULT: %s (%d/%d)\n" % ("PASS" if ok_all else "FAIL", passed, len(rows)))
    return buf.getvalue(), ok_all
