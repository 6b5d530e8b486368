"""Benchmark entry point.

    python3 bench/run.py --workload {matrix,cw,oracle,cli} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout against ``src/snspd_stats``.  With
``--trace 0`` it measures the end-to-end metrics: set-up time as the median
of three fresh processes, one before and one after the one that runs passes
of the workload, all within about ``--seconds`` seconds; ``wall_s`` is the
median pass time, the first pass left out as warm-up when three or more
ran.  With ``--trace 1`` it runs one untraced and one traced pass plus the
layer probes and reports the per-layer metrics.  Every workload process
runs with the thread counts pinned below.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("matrix", "cw", "oracle", "cli")
SETUP_PROBES = 1      # set-up-only processes on each side of the measured one
RUN_LIMIT = 170.0     # seconds; a run must end well within 180

# one thread everywhere: the documented SNSPD_THREADS default, and no
# BLAS/OpenMP pool larger than the process needs
PINNED = {"SNSPD_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def unit_of(name: str) -> str:
    if name.endswith("io_mb_per_s"):
        return "MB/s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s") or name.endswith("s_per_point"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(".points"):
        return "count"
    if name == "peak_rss_mb":
        return "MB"
    return "1"


class RunFailed(Exception):
    pass


def start_worker(args, env, out_dir, deadline, pass_seconds=0.0, setup_only=False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(pass_seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir),
           "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed("workload process overran the run limit and was stopped")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def report(res: dict, metrics: dict, setups) -> None:
    print(f"workload {res['workload']}  seed {res['env']['seed']}  passes {res['passes']}")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:.6g} {m['unit']}")
    if setups:
        print("  setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    print("  timed pass seconds: " + ", ".join(f"{s:.4f}" for s in res["wall_s"]))
    print(f"  err_ratio {res['err_ratio']:.4g}  ops_failed_frac {res['ops_failed_frac']:.4g}"
          f"  ({res['failed']} of {res['attempted']})")
    if "mc_windows_per_s" in res:
        print(f"  mc_windows_per_s {res['mc_windows_per_s']:.6g} 1/s")
    print("ops (last pass):")
    for o in res["ops"]:
        print(f"  {o['op']:<60} {o['s']:.4f} s" + (f"  {o['error']}" if o["error"] else ""))
    print("checks (worst over passes):")
    for c in res["checks"]:
        if "error" in c:
            print(f"  FAIL {c['check']}: {c['error']}")
        else:
            kind = "stat" if c["statistical"] else "det"
            print(f"  {'PASS' if c['ok'] else 'FAIL'} {c['check']:<60} "
                  f"{c['observed']:.3e} <= {c['tol']:.1e} ({kind})")
    if "report" not in res:
        print("accuracy figures:")
        for name, value in sorted(res["figures"].items()):
            print(f"  {name:<52} {value:.6g} {unit_of(name)}")
    else:
        print("workload layer figures:")
        for name, value in sorted(res["report"].items()):
            print(f"  {name:<52} {value:.6g} {unit_of(name)}")
        print("absent here:")
        for name, why in sorted(res["absent"].items()):
            print(f"  {name}: {why}")
        print(f"trace: {res['trace_file']}")
    print("env: " + json.dumps(res["env"], sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    package = ROOT / "src" / "snspd_stats" / "__init__.py"
    if not package.is_file():
        print(f"bench: no package source at {package.relative_to(ROOT)}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED)

    def setup_probes():
        return [start_worker(args, env, out_dir, deadline, setup_only=True)["setup_s"]
                for _ in range(0 if args.trace else SETUP_PROBES)]

    try:
        # set-up samples before and after the passes, so that one slow
        # stretch of the machine does not set the median alone.  The whole
        # run keeps to --seconds: the passes get what is left after the
        # probe before them, the measured process's own set-up and the
        # probe after them (about three times the probe before).
        start = time.monotonic()
        setups = setup_probes()
        pass_seconds = args.seconds - 3 * (time.monotonic() - start)
        res = start_worker(args, env, out_dir, deadline, pass_seconds)
        setups += [res["setup_s"]] + setup_probes()
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        values = {"setup_s": statistics.median(setups), "wall_s": res["wall_s_median"],
                  "peak_rss_mb": res["peak_rss_mb"]}
    else:
        values = res["per_layer"]
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    report(res, metrics, setups)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
