"""One workload process: set up from the seed, run passes, report JSON.

Started by run.py with the thread settings pinned in its environment.
``--t0`` is run.py's monotonic clock just before it started this
process, so ``setup_s`` covers interpreter start, imports and input
building.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import snspd_stats  # noqa: E402
import probes  # noqa: E402
import workloads as wl  # noqa: E402
from harness import Tracer, check_table, null_span, run_pass, summarize  # noqa: E402

THREAD_VARS = ("SNSPD_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

# per-layer metrics the workload's own spans give, and the workload owning them
LAYER_OWNERS = {
    "independent.cond_prob_matrix.exp.s": ("matrix", "cw"),
    "independent.cond_prob_matrix.deadtime.s": ("matrix",),
    "independent.cond_prob_matrix.tabulated.s": ("matrix",),
    "independent.click_distribution.s": ("matrix",),
    "independent.colsum_err": ("matrix",),
    "independent.deadtime_err": ("matrix",),
    "independent.same_count_err": ("matrix",),
    "quadrature.nested_gauss.n5.tabulated.s": ("matrix",),
    "parallel.thread_gain": ("matrix",),
    "parallel.cpu_per_wall": ("matrix",),
    "continuous.carryover_matrix.s": ("cw",),
    "continuous.memory_kernels.s": ("cw",),
    "continuous.tail_mass.s": ("cw",),
    "continuous.click_distribution_cw.s": ("cw",),
    "continuous.after_gap.s": ("cw",),
    "continuous.last_click_density.s_per_point": ("cw",),
    "continuous.ergodicity_tv": ("cw",),
    "continuous.norm_err": ("cw",),
    "montecarlo.fresh.windows_per_s": ("oracle",),
    "montecarlo.contiguous.windows_per_s": ("oracle",),
    "montecarlo.gaps_per_s": ("oracle",),
    "montecarlo.deadtime_z": ("oracle",),
    "montecarlo.renewal_z": ("oracle",),
    "reconstruct.samples_per_s": ("oracle",),
    "reconstruct.io_mb_per_s": ("oracle",),
    "reconstruct.curve_err": ("oracle",),
    "mc_windows_per_s": ("oracle",),
    "cli.figure.s": ("cli",),
    "cli.dist.s": ("cli",),
    "cli.matrix.s": ("cli",),
    "cli.simulate.s": ("cli",),
    "cli.reconstruct.s": ("cli",),
    "cli.validate.s": ("cli",),
    "cli.output_bytes": ("cli",),
    "validation.run_suite.quick.s": ("cli",),
}


MC_OPS = ("montecarlo.empirical_distribution.fresh_fock3",
          "montecarlo.empirical_distribution.fresh_coherent",
          "montecarlo.empirical_distribution.contiguous")


def environment(seed: int) -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: os.environ.get(k) for k in THREAD_VARS},
            "commit": git_commit(), "snspd_stats": str(Path(snspd_stats.__file__).parent)}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unavailable: not a git checkout"


def workload_metrics(name: str, tracer: Tracer, plan, extras: dict) -> dict:
    """The named per-layer figures that only this workload's spans give."""
    def dur(span_name):
        return tracer.totals(span_name)[0]

    info = plan.info
    out = {}
    if name in ("matrix", "cw"):
        out["independent.cond_prob_matrix.exp.s"] = dur("independent.cond_prob_matrix.exp")
    if name == "matrix":
        out["independent.cond_prob_matrix.deadtime.s"] = dur("independent.cond_prob_matrix.deadtime")
        out["independent.cond_prob_matrix.tabulated.s"] = dur("independent.cond_prob_matrix.tabulated")
        out["independent.click_distribution.s"] = (
            dur("independent.click_distribution.coherent")
            + dur("independent.click_distribution.fock"))
    elif name == "cw":
        kernels = dur("continuous.memory_kernels")
        out["continuous.memory_kernels.s"] = kernels
        out["continuous.tail_mass.s"] = kernels - extras["continuous.carryover_matrix.s"]
        out["continuous.click_distribution_cw.s"] = dur("continuous.click_distribution_cw.l1-7")
        out["continuous.after_gap.s"] = dur("continuous.coherent_click_probability_after_gap.n0-2")
        out["continuous.last_click_density.s_per_point"] = (
            dur("continuous.last_click_density") / len(wl.CW_OFFSETS))
    elif name == "oracle":
        fresh = (dur("montecarlo.empirical_distribution.fresh_fock3")
                 + dur("montecarlo.empirical_distribution.fresh_coherent"))
        contiguous = dur("montecarlo.empirical_distribution.contiguous")
        out["montecarlo.fresh.windows_per_s"] = 2 * wl.ORACLE_FRESH_TRIALS / fresh
        out["montecarlo.contiguous.windows_per_s"] = (
            wl.ORACLE_BLOCKS * wl.ORACLE_BLOCK_TRIALS * wl.ORACLE_WINDOWS / contiguous)
        out["mc_windows_per_s"] = info["simulated_windows"] / (fresh + contiguous)
        out["montecarlo.gaps_per_s"] = info["gaps"] / dur("montecarlo.simulate_interpulse_gaps")
        out["reconstruct.samples_per_s"] = info["gaps"] / dur("reconstruct.reconstruct_details")
        out["reconstruct.io_mb_per_s"] = (
            2 * info["gap_bytes"] / 1e6 / dur("reconstruct.gaps_round_trip"))
    elif name == "cli":
        for cmd in ("figure", "dist", "matrix", "simulate", "reconstruct", "validate"):
            out[f"cli.{cmd}.s"] = dur(f"cli.{cmd}")
        # run_suite dominates the validate call; spans inside the package come later
        out["validation.run_suite.quick.s"] = out["cli.validate.s"]
    return out


def release(plan, result) -> dict:
    """The report figures of a checked pass, then drop its values.

    Keeping every pass's arrays alive would make peak memory grow with
    the number of passes.
    """
    figures = plan.figures(result.values)
    result.values.clear()
    return figures


def run_timed(plan, seconds: float):
    """Passes until another would overrun ``seconds``; at least one.

    Returns every pass, all of them checked, and the passes that count
    for ``wall_s``: when three or more ran, the first one warmed the
    allocator and the package's caches and is left out of the timing.
    """
    passes = []
    start = time.monotonic()
    last = 0.0
    while not passes or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        passes.append(run_pass(plan.ops, wl.FAILURES))
        figures = release(plan, passes[-1])
        last = time.monotonic() - t0
    timed = passes[1:] if len(passes) >= 3 else passes
    return passes, timed, figures


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(wl.SETUP))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out-dir", required=True)
    args = p.parse_args(argv)
    # Delta = 0.3 sits where xi is 0.71, which resolve_delta warns about on
    # every call; the example figures use it on purpose.
    warnings.filterwarnings("ignore", message=".*uniform-distribution approximation.*")

    out_dir = Path(args.out_dir)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else None
    span = tracer.span if tracer else null_span
    try:
        with span("setup", workload=args.workload):
            plan = wl.SETUP[args.workload](args.seed, workdir, span)
        setup_s = time.monotonic() - args.t0
        result = {"workload": args.workload, "setup_s": setup_s}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        if not args.trace:
            passes, timed, figures = run_timed(plan, args.seconds)
        else:
            # the untraced pass is the baseline the tracing overhead is taken from
            passes = [run_pass(plan.ops, wl.FAILURES)]
            release(plan, passes[0])
            cpu0 = time.process_time()
            with span("pass", traced=True):
                traced = run_pass(plan.ops, wl.FAILURES, tracer)
            cpu = time.process_time() - cpu0
            passes.append(traced)
            timed = passes
            figures = release(plan, traced)
            with span("probes"):
                per_layer = probes.probe_suite(args.seed, workdir, span)
                extras = probes.extra_probes(args.workload, args.seed, span, plan)
            per_layer["process.cpu_s"] = cpu
            per_layer["trace.overhead_s"] = traced.ops_seconds - passes[0].ops_seconds
            per_layer["checks.err_ratio"] = summarize(passes)["err_ratio"]
            report = dict(extras)
            report.update(workload_metrics(args.workload, tracer, plan, extras))
            report.update(figures)
            report["trace.overhead_frac"] = per_layer["trace.overhead_s"] / passes[0].ops_seconds
            absent = {k: (f"measured on the {' and '.join(v)} workload only"
                          if args.workload not in v else "not produced on its own workload")
                      for k, v in LAYER_OWNERS.items() if k not in report}
            for n in probes.NESTED_NS:
                key = f"quadrature.nested_gauss.n{n}.useful_frac"
                if key not in per_layer:
                    absent[key] = "point count matches no nested-Gauss order ladder"
            trace_file = out_dir / f"trace-{run_id}.json"
            tracer.dump(trace_file, {"workload": args.workload, "seed": args.seed,
                                     "per_layer": per_layer, "report": report})
            result.update(per_layer=per_layer, report=report, absent=absent,
                          trace_file=str(trace_file.relative_to(ROOT)))

        result.update(summarize(passes))
        result["passes"] = len(passes)
        result["wall_s"] = [p.ops_seconds for p in timed]
        result["wall_s_median"] = statistics.median(result["wall_s"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["checks"] = check_table(passes)
        result["figures"] = figures
        if "simulated_windows" in plan.info:
            result["mc_windows_per_s"] = statistics.median(
                plan.info["simulated_windows"] / sum(
                    o.seconds for o in p.outcomes if o.name in MC_OPS) for p in timed)
        result["ops"] = [{"op": o.name, "s": o.seconds, "error": o.error}
                         for o in passes[-1].outcomes]
        result["env"] = environment(args.seed)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
