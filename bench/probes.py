"""Direct probes of single layers, run only in the traced run.

The probe suite is the same for every workload, so every traced run emits
the same per-layer metrics.  A few probes belong to one workload only
(``extra_probes``); they land in that workload's report.

The quadrature probes integrate the library's own row integrand,
density * (1 - exposure)^e, built from the public ``window_terms``,
``support_plan``, ``qmc_tilt`` and ``power_matrix``, through a wrapper
that counts integrand points.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

from snspd_stats import (QuadratureSpec, ReconstructionSpec, SimSpec, StateSpec,
                         coherent_click_probability_after_gap, cond_prob_matrix,
                         deadtime_closed_form, empirical_distribution,
                         integrate_ordered, photon_number_dist, read_gaps,
                         reconstruct_details, simulate_interpulse_gaps,
                         write_gaps_binary)
from snspd_stats.cli import main as cli_main
from snspd_stats.continuous import carryover_matrix
from snspd_stats.independent import power_matrix
from snspd_stats.weights import carry_adjust, qmc_tilt, support_plan, window_terms

import workloads as wl

QUAD_M_MAX = 20                 # rows of the exp m_max = 20 matrix
NESTED_NS = (1, 2, 3, 4, 5)
SOBOL_NS = (6, 10, 15, 20)
WEIGHTS_BATCH = 65536
MIN_TIMED = 0.2                 # seconds a short probe is repeated for


def timed(fn):
    """Median seconds per call of fn, repeating short calls; and its value."""
    times = []
    value = None
    start = time.perf_counter()
    while not times or (time.perf_counter() - start < MIN_TIMED and len(times) < 1000):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), value


def gauss_ladder(order: int):
    """The nested-Gauss order ladder integrate_ordered climbs for gauss_order."""
    return sorted({min(order, max(4, order // 4)), min(order, max(6, order // 2)), order})


def useful_fraction(points: int, n: int, panels: int, order: int):
    """Share of points in the last ladder pass, or None if no ladder fits."""
    total = 0
    for o in gauss_ladder(order):
        total += panels * o**n
        if total == points:
            return panels * o**n / points
    return None


def row_integral(config, n: int, spec: QuadratureSpec, m_max: int = QUAD_M_MAX):
    """One matrix row through integrate_ordered; (value, err, points, panels)."""
    exps = np.arange(m_max + 1 - n)
    plan = support_plan(config, n)
    count = [0]

    def f(T):
        count[0] += T.shape[0]
        terms = window_terms(config, T)
        return terms.density[:, None] * power_matrix(1.0 - terms.exposure, exps)

    splits = [plan.outer_split] if plan.outer_split is not None else []
    val, err = integrate_ordered(n, config.tau_m, f, spec, lower_gap=plan.lower_gap,
                                 first_offset=plan.first_offset, outer_splits=splits,
                                 gap_tilt=qmc_tilt(config))
    return np.atleast_1d(val), np.atleast_1d(err), count[0], 1 + len(splits)


def quadrature_probes(seed: int, span) -> dict:
    spec = wl.quad_spec(seed)
    exp, dead = wl.exp_config(), wl.dead_config()
    out = {}
    for n in NESTED_NS + SOBOL_NS:
        engine = spec.resolve_method(n)
        key = f"quadrature.{engine}.n{n}"
        with span("quadrature.integrate_ordered", engine=engine, n=n):
            out[f"{key}.s"], (_, _, points, panels) = timed(lambda: row_integral(exp, n, spec))
        out[f"{key}.points"] = float(points)
        if engine == "nested_gauss":
            frac = useful_fraction(points, n, panels, spec.gauss_order)
            if frac is not None:
                out[f"{key}.useful_frac"] = frac
        with span("quadrature.integrate_ordered", engine=engine, n=n, profile="deadtime"):
            val, err, _, _ = row_integral(dead, n, spec)
        perm = np.array([math.perm(m, n) for m in range(n, QUAD_M_MAX + 1)], dtype=float)
        closed = np.array([deadtime_closed_form(dead, n, m) for m in range(n, QUAD_M_MAX + 1)])
        out[f"{key}.abs_err"] = float(np.abs(perm * val - closed).max())
        out[f"{key}.err_est"] = float((perm * err).max())
    return out


def weights_probes(seed: int, span) -> dict:
    rng = np.random.default_rng(wl.derive(seed, "weights"))
    exp, tab = wl.exp_config(), wl.tabulated_config()
    out = {}

    def batch(n):
        return np.sort(rng.random((WEIGHTS_BATCH, n)), axis=1) * wl.TAU_M

    for n in (1, 5, 20):
        T = batch(n)
        with span("weights.window_terms", n=n):
            s, terms = timed(lambda: window_terms(exp, T))
        out[f"weights.window_terms.n{n}.points_per_s"] = WEIGHTS_BATCH / s
        if n == 5:
            terms5 = terms
    T = batch(4)
    with span("weights.window_terms", n=4, profile="tabulated"):
        s, _ = timed(lambda: window_terms(tab, T))
    out["weights.window_terms.tabulated.n4.points_per_s"] = WEIGHTS_BATCH / s
    with span("weights.carry_adjust", n=5):
        s, _ = timed(lambda: carry_adjust(exp, terms5, 0.1))
    out["weights.carry_adjust.points_per_s"] = WEIGHTS_BATCH / s
    return out


def states_probes(seed: int, span) -> dict:
    cases = {"coherent": (StateSpec.coherent(2.0), 1.0),
             "fock": (StateSpec.fock(4), 0.8),
             "squeezed": (StateSpec.squeezed(1.5), 0.8)}
    out = {}
    for kind, (state, eta) in cases.items():
        with span("states.photon_number_dist", kind=kind):
            s, _ = timed(lambda: photon_number_dist(state, eta=eta, nu=0.0))
        out[f"states.photon_number_dist.{kind}.s"] = s
    return out


def layer_probes(seed: int, workdir, span) -> dict:
    """Small calls into the remaining layers, so every traced run covers them."""
    exp = wl.exp_config()
    out = {}
    fresh = SimSpec(trials=1 << 18, seed=wl.derive(seed, "probe-fresh"))
    with span("montecarlo.empirical_distribution", probe="fresh"):
        s, _ = timed(lambda: empirical_distribution(StateSpec.coherent(2.0), exp, fresh))
    out["montecarlo.probe.fresh.windows_per_s"] = fresh.trials / s
    cont = SimSpec(trials=1024, seed=wl.derive(seed, "probe-contiguous"),
                   carry_in="contiguous", windows_per_trial=64)
    with span("montecarlo.empirical_distribution", probe="contiguous"):
        s, _ = timed(lambda: empirical_distribution(StateSpec.coherent(2.0), exp, cont))
    out["montecarlo.probe.contiguous.windows_per_s"] = cont.trials * cont.windows_per_trial / s
    n_gaps = 1 << 20
    with span("montecarlo.simulate_interpulse_gaps", probe=True):
        s, gaps = timed(lambda: simulate_interpulse_gaps(
            exp, wl.ORACLE_GAP_RATE, n_gaps, seed=wl.derive(seed, "probe-gaps")))
    out["montecarlo.probe.gaps_per_s"] = n_gaps / s
    rec = ReconstructionSpec(bin_width=0.02, t_max=1.6)
    with span("reconstruct.reconstruct_details", probe=True):
        s, _ = timed(lambda: reconstruct_details(gaps, rec))
    out["reconstruct.probe.samples_per_s"] = n_gaps / s
    path = workdir / "probe-gaps.f64"

    def round_trip():
        write_gaps_binary(path, gaps)
        return read_gaps(path)

    with span("reconstruct.gaps_round_trip", probe=True):
        s, _ = timed(round_trip)
    out["reconstruct.probe.io_mb_per_s"] = 2 * 8 * n_gaps / 1e6 / s
    with span("continuous.coherent_click_probability_after_gap", probe=True, n=2):
        s, _ = timed(lambda: coherent_click_probability_after_gap(
            exp, 2, 1.0, 0.1, wl.quad_spec(seed)))
    out["continuous.probe.after_gap.n2.s"] = s
    cli_out = workdir / "probe-cli-matrix.out"
    argv = ["matrix", "--profile", "deadtime", "--m-max", "12", "--closed-form",
            "--out", str(cli_out)]
    with span("cli.matrix", probe=True):
        s, _ = timed(lambda: cli_main(argv))
    out["cli.probe.matrix.s"] = s
    return out


def probe_suite(seed: int, workdir, span) -> dict:
    out = {}
    with span("probe.quadrature"):
        out.update(quadrature_probes(seed, span))
    with span("probe.weights"):
        out.update(weights_probes(seed, span))
    with span("probe.states"):
        out.update(states_probes(seed, span))
    with span("probe.layers"):
        out.update(layer_probes(seed, workdir, span))
    return out


# -- probes that belong to one workload -------------------------------------

def tabulated_row_probe(seed: int, span) -> dict:
    """An n = 5 row of the tabulated matrix (m <= 6): the slow tabulated path."""
    tab = wl.tabulated_config()
    with span("quadrature.integrate_ordered", engine="nested_gauss", n=5, profile="tabulated"):
        t0 = time.perf_counter()
        row_integral(tab, 5, wl.quad_spec(seed), m_max=6)
        s = time.perf_counter() - t0
    return {"quadrature.nested_gauss.n5.tabulated.s": s}


def parallel_probe(seed: int, span) -> dict:
    """Exp m_max = 20 matrix, serial against SNSPD_THREADS = nproc."""
    exp, spec = wl.exp_config(), wl.quad_spec(seed)
    workers = len(os.sched_getaffinity(0))
    saved = os.environ.get("SNSPD_THREADS")
    out = {}
    try:
        walls, cpus = {}, {}
        for threads in (1, workers):
            os.environ["SNSPD_THREADS"] = str(threads)
            with span("parallel.map_indexed", threads=threads):
                c0, t0 = time.process_time(), time.perf_counter()
                cond_prob_matrix(exp, m_max=QUAD_M_MAX, spec=spec)
                walls[threads] = time.perf_counter() - t0
                cpus[threads] = time.process_time() - c0
        out["parallel.thread_gain"] = walls[1] / walls[workers]
        out["parallel.cpu_per_wall"] = cpus[workers] / walls[workers]
        out["parallel.threads"] = float(workers)
    finally:
        if saved is None:
            os.environ.pop("SNSPD_THREADS", None)
        else:
            os.environ["SNSPD_THREADS"] = saved
    return out


def carryover_probe(seed: int, span, plan) -> dict:
    """carryover_matrix alone, to split memory_kernels into its two parts."""
    info = plan.info
    with span("continuous.carryover_matrix"):
        t0 = time.perf_counter()
        carryover_matrix(info["config"], info["cw"], m_max=info["m_max"], spec=info["spec"])
        s = time.perf_counter() - t0
    return {"continuous.carryover_matrix.s": s}


def extra_probes(workload: str, seed: int, span, plan) -> dict:
    if workload == "matrix":
        out = tabulated_row_probe(seed, span)
        out.update(parallel_probe(seed, span))
        return out
    if workload == "cw":
        return carryover_probe(seed, span, plan)
    return {}
