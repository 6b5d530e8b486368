"""The four benchmark workloads, built from a seed.

Each ``setup_<name>(seed, workdir, span)`` builds the workload's configs,
states and input files and returns its ops.  The package only ever sees
the generated inputs: quadrature seeds, simulation seeds and gap files
all derive from the workload seed through ``derive``.

Detector unless stated: tau_m = 1, tau_d = 0.05, tau_r = 0.2.  Why each
workload exists is written next to its setup and in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from snspd_stats import (CwConfig, DetectorConfig, EfficiencyProfile,
                         QuadratureSpec, ReconstructionSpec, SimSpec,
                         StateSpec, click_distribution_cw,
                         click_distribution_independent,
                         coherent_click_probability,
                         coherent_click_probability_after_gap,
                         cond_prob_matrix, deadtime_closed_form,
                         empirical_distribution, last_click_density,
                         memory_kernels, photon_number_dist, read_gaps,
                         reconstruct_details, same_count_probability,
                         simulate_interpulse_gaps, write_gaps_binary)
from snspd_stats.cli import main as cli_main
from snspd_stats.errors import ConsistencyError, DomainError, IntegrationError

import references as ref
from harness import Check, Op

FAILURES = (IntegrationError, ConsistencyError, DomainError)

TAU_M, TAU_D, TAU_R = 1.0, 0.05, 0.2
DELTA = 0.3          # the example figures' uniform-carry interval
FIG_WINDOWS = 3      # the example figures' window index l


def derive(seed: int, label: str) -> int:
    """A 32-bit seed for one consumer, fixed by the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def exp_config(**kw) -> DetectorConfig:
    return DetectorConfig(tau_m=TAU_M, efficiency=EfficiencyProfile.exponential(TAU_D, TAU_R), **kw)


def dead_config(tau_d: float = TAU_D) -> DetectorConfig:
    return DetectorConfig(tau_m=TAU_M, efficiency=EfficiencyProfile.dead_time(tau_d))


def tabulated_config(step: float = 0.002) -> DetectorConfig:
    """The exponential curve sampled on [0, tau_m] as a measured table."""
    t = np.linspace(0.0, TAU_M, int(round(TAU_M / step)) + 1)
    xi = exp_config().efficiency.value(t)
    return DetectorConfig(tau_m=TAU_M,
                          efficiency=EfficiencyProfile.tabulated(list(zip(t, xi))))


def quad_spec(seed: int) -> QuadratureSpec:
    return QuadratureSpec(seed=derive(seed, "quadrature"))


@dataclass
class Plan:
    """A workload ready to run: its ops and what the report reads off them."""

    ops: List[Op]
    figures: Callable[[Dict], Dict[str, float]] = lambda values: {}
    info: Dict = field(default_factory=dict)


def _norm_check(name, dist, tail):
    """Criterion 4: clicks plus the state's truncated tail sum to one."""
    return Check(name, abs(dist.total() + tail - 1.0), ref.TOL_NORM)


def _max_closed_form_err(config, entries):
    return max(abs(entries[n, m] - deadtime_closed_form(config, n, m))
               for n in range(entries.shape[0]) for m in range(entries.shape[1]))


def _same_count_err(config, entries, top):
    return max(abs(entries[n, n] - same_count_probability(config, n))
               for n in range(2, top + 1))


# -- matrix ----------------------------------------------------------------
# Independent windows in the number basis.  Nearly all time is ordered-domain
# quadrature (nested Gauss n <= 5, Sobol n >= 6) and the weights behind it,
# on the built-in profiles and on a tabulated curve (no support plan, no
# tilt).  No Monte Carlo at all.

def setup_matrix(seed: int, workdir, span) -> Plan:
    spec = quad_spec(seed)
    exp, dead, tab = exp_config(), dead_config(), tabulated_config()
    with span("states.photon_number_dist", kind="coherent"):
        coh = photon_number_dist(StateSpec.coherent(2.0), eta=1.0, nu=0.0)
    with span("states.photon_number_dist", kind="fock"):
        fock = photon_number_dist(StateSpec.fock(4), eta=0.8, nu=0.0)
    a = 4.0
    p_one = ref.fresh_one_click_probability(exp.efficiency, a, TAU_M)

    def check_exp(mat, values):
        return [ref.column_sum_check(mat.entries),
                Check("same_count_n2-6", _same_count_err(exp, mat.entries, 6),
                      ref.TOL_CLOSED_FORM)]

    def check_coherent(dist, values):
        return [_norm_check("normalization", dist, coh.tail),
                Check("p1_vs_quad_reference", abs(dist.probs[1] - p_one),
                      ref.TOL_CLOSED_FORM)]

    def check_fock(dist, values):
        p4 = 0.8**4 * same_count_probability(exp, 4)
        return [_norm_check("normalization", dist, fock.tail),
                Check("p4_vs_same_count", abs(dist.probs[4] - p4), ref.TOL_CLOSED_FORM)]

    def check_dead(mat, values):
        return [Check("closed_form", _max_closed_form_err(dead, mat.entries),
                      ref.TOL_CLOSED_FORM)]

    def check_tab(mat, values):
        base = values["independent.cond_prob_matrix.exp"].entries[:5, :7]
        return [Check("vs_exponential", float(np.abs(mat.entries - base).max()),
                      ref.TOL_TABULATED)]

    ops = [
        Op("independent.cond_prob_matrix.exp",
           lambda sp, v: cond_prob_matrix(exp, m_max=coh.m_max, spec=spec), check_exp),
        Op("independent.click_distribution.coherent",
           lambda sp, v: click_distribution_independent(coh, exp, spec), check_coherent),
        Op("independent.click_distribution.fock",
           lambda sp, v: click_distribution_independent(fock, exp, spec), check_fock),
        Op("independent.cond_prob_matrix.deadtime",
           lambda sp, v: cond_prob_matrix(dead, m_max=12, spec=spec), check_dead),
        Op("independent.cond_prob_matrix.tabulated",
           lambda sp, v: cond_prob_matrix(tab, n_max=4, m_max=6, spec=spec), check_tab,
           needs=("independent.cond_prob_matrix.exp",)),
    ]

    def figures(values):
        out = {}
        if "independent.cond_prob_matrix.exp" in values:
            e = values["independent.cond_prob_matrix.exp"].entries
            out["independent.colsum_err"] = float(np.abs(e.sum(axis=0) - 1.0).max())
            out["independent.same_count_err"] = _same_count_err(exp, e, 6)
        if "independent.cond_prob_matrix.deadtime" in values:
            out["independent.deadtime_err"] = _max_closed_form_err(
                dead, values["independent.cond_prob_matrix.deadtime"].entries)
        return out

    return Plan(ops, figures)


# -- cw --------------------------------------------------------------------
# The continuous-wave memory model at the figures' Delta and l.  It runs the
# quadrature uses matrix never enters: carry-conditioned rows, the near/far
# carry split, tail-window restricted passes and pinned integrals.

CW_OFFSETS = np.array([0.03, 0.09, 0.15, 0.21, 0.27])  # bin centres in [0, Delta]
CW_BIN = 0.02
CW_MC_TRIALS = 1_000_000


def setup_cw(seed: int, workdir, span) -> Plan:
    spec = quad_spec(seed)
    exp = exp_config()
    with span("states.photon_number_dist", kind="coherent"):
        coh = photon_number_dist(StateSpec.coherent(1.0), eta=1.0, nu=0.0)
    a = 1.0
    m_max = coh.m_max
    cw = CwConfig(delta=DELTA, window_count=FIG_WINDOWS)
    carry = TAU_D + 20 * TAU_R
    mc_seed = derive(seed, "cw-offsets")
    cache = {}

    def offsets_histogram():
        if "mc" not in cache:
            mc = empirical_distribution(StateSpec.coherent(1.0), exp,
                                        SimSpec(trials=CW_MC_TRIALS, seed=mc_seed,
                                                collect_offsets=True))
            off = mc.last_offsets
            cache["mc"] = [float(np.mean(np.abs(off - c) < CW_BIN / 2))
                           for c in CW_OFFSETS]
        return cache["mc"]

    def check_kernels(k, values):
        exact = float(np.max(np.abs(k.c_m - (k.a_m - k.b_m))))
        vacuum = abs(k.a_m[0] - 1.0) + abs(k.b_m[0] - 1.0) + abs(k.c_m[0])
        return [Check("c_equals_a_minus_b", exact, 0.0),
                Check("vacuum_row", float(vacuum), 0.0)]

    def run_cw(sp, values):
        out = []
        for l in range(1, 8):
            with sp("continuous.click_distribution_cw", l=l):
                out.append(click_distribution_cw(
                    coh, exp, CwConfig(delta=DELTA, window_count=l), spec,
                    kernels=values["continuous.memory_kernels"],
                    matrix=values["independent.cond_prob_matrix.exp"]))
        return out

    def check_cw(dists, values):
        norm = max(abs(d.total() + coh.tail - 1.0) for d in dists)
        tv = 0.5 * float(np.abs(dists[5].probs - dists[6].probs).sum())
        return [Check("normalization_l1-7", norm, ref.TOL_NORM),
                Check("ergodicity_tv_l6_l7", tv, ref.TOL_ERGODIC)]

    def check_density(dens, values):
        out = []
        for c, f, p in zip(CW_OFFSETS, dens, offsets_histogram()):
            expect = f * CW_BIN  # bin mass, curvature error far below MC noise
            out.append(Check(f"mc_offset_z_{c:.2f}",
                             ref.binomial_z(p, expect, CW_MC_TRIALS), ref.Z_MAX, True))
        return out

    def run_after_gap(sp, values):
        out = []
        for n in (0, 1, 2):
            with sp("continuous.coherent_click_probability_after_gap", n=n):
                out.append(coherent_click_probability_after_gap(exp, n, a, carry, spec))
        return out

    def check_after_gap(probs, values):
        if "fresh" not in cache:
            cache["fresh"] = [coherent_click_probability(exp, n, a, spec) for n in (0, 1, 2)]
        worst = max(abs(p - q) for p, q in zip(probs, cache["fresh"]))
        return [Check("markovian_boundary", worst, ref.TOL_MARKOV)]

    ops = [
        Op("independent.cond_prob_matrix.exp",
           lambda sp, v: cond_prob_matrix(exp, m_max=m_max, spec=spec),
           lambda mat, v: [ref.column_sum_check(mat.entries)]),
        Op("continuous.memory_kernels",
           lambda sp, v: memory_kernels(exp, cw, m_max=m_max, spec=spec), check_kernels),
        Op("continuous.click_distribution_cw.l1-7", run_cw, check_cw,
           needs=("continuous.memory_kernels", "independent.cond_prob_matrix.exp")),
        Op("continuous.last_click_density",
           lambda sp, v: last_click_density(exp, a, CW_OFFSETS, spec), check_density),
        Op("continuous.coherent_click_probability_after_gap.n0-2", run_after_gap,
           check_after_gap),
    ]

    def figures(values):
        dists = values.get("continuous.click_distribution_cw.l1-7")
        if not dists:
            return {}
        norm, tv = check_cw(dists, values)
        return {"continuous.norm_err": norm.observed, "continuous.ergodicity_tv": tv.observed}

    return Plan(ops, figures, {"m_max": m_max, "cw": cw, "config": exp, "spec": spec})


# -- oracle ----------------------------------------------------------------
# The simulator and reconstruction, with no quadrature at all: the
# prediction for any engine change is "no change" here.

ORACLE_FRESH_TRIALS = 1 << 18   # one simulator block; short passes, many per run
ORACLE_BLOCKS = 16          # independent trial blocks for the batch-means error
ORACLE_BLOCK_TRIALS = 160
ORACLE_WINDOWS = 404        # windows per trial, the first 4 are warm-up
ORACLE_GAP_RATE = 0.25
ORACLE_GAPS = 10_000_000    # criterion 10's sample size


def setup_oracle(seed: int, workdir, span) -> Plan:
    exp, dead02 = exp_config(), dead_config(0.2)
    fock3, coh2 = StateSpec.fock(3), StateSpec.coherent(2.0)
    a = 4.0
    gap_path = workdir / "oracle-gaps.f64"
    rec_spec = ReconstructionSpec(bin_width=0.02, t_max=1.6)
    fresh_fock = SimSpec(trials=ORACLE_FRESH_TRIALS, seed=derive(seed, "fresh-fock3"))
    fresh_coh = SimSpec(trials=ORACLE_FRESH_TRIALS, seed=derive(seed, "fresh-coherent"))
    blocks = [SimSpec(trials=ORACLE_BLOCK_TRIALS, seed=derive(seed, f"contiguous-{k}"),
                      carry_in="contiguous", windows_per_trial=ORACLE_WINDOWS)
              for k in range(ORACLE_BLOCKS)]
    gap_seed = derive(seed, "gaps")
    p_one = ref.fresh_one_click_probability(exp.efficiency, a, TAU_M)
    renewal = ref.renewal_mean_clicks(exp.efficiency, a, TAU_M)
    mean_gap = TAU_M / ref.renewal_mean_clicks(exp.efficiency, ORACLE_GAP_RATE * TAU_M, TAU_M)

    def check_fock(res, values):
        z = max(ref.binomial_z(res.probs[n] if n < len(res.probs) else 0.0,
                               deadtime_closed_form(dead02, n, 3), res.n_windows)
                for n in range(4))
        return [Check("deadtime_closed_form_z", z, ref.Z_MAX, True)]

    def check_coh(res, values):
        return [Check("p0_z", ref.binomial_z(res.probs[0], math.exp(-a), res.n_windows),
                      ref.Z_MAX, True),
                Check("p1_z", ref.binomial_z(res.probs[1], p_one, res.n_windows),
                      ref.Z_MAX, True)]

    def run_contiguous(sp, values):
        out = []
        for k, sim in enumerate(blocks):
            with sp("montecarlo.empirical_distribution", block=k):
                out.append(empirical_distribution(coh2, exp, sim))
        return out

    def check_contiguous(results, values):
        z = ref.batch_mean_z([r.mean_clicks() for r in results], renewal)
        return [Check("renewal_rate_z", z, ref.Z_MAX, True)]

    def check_gaps(gaps, values):
        se = float(gaps.std()) / math.sqrt(len(gaps))
        return [Check("mean_gap_z", abs(float(gaps.mean()) - mean_gap) / se, ref.Z_MAX, True)]

    def run_round_trip(sp, values):
        with sp("reconstruct.write_gaps_binary"):
            write_gaps_binary(gap_path, values["montecarlo.simulate_interpulse_gaps"])
        with sp("reconstruct.read_gaps"):
            return read_gaps(gap_path)

    def check_round_trip(back, values):
        same = np.array_equal(back, values["montecarlo.simulate_interpulse_gaps"])
        return [Check("bit_identical", 0.0 if same else 1.0, 0.0)]

    def check_curve(res, values):
        return [Check("curve_err", _curve_err(res, exp), ref.TOL_CURVE, True)]

    ops = [
        Op("montecarlo.empirical_distribution.fresh_fock3",
           lambda sp, v: empirical_distribution(fock3, dead02, fresh_fock), check_fock),
        Op("montecarlo.empirical_distribution.fresh_coherent",
           lambda sp, v: empirical_distribution(coh2, exp, fresh_coh), check_coh),
        Op("montecarlo.empirical_distribution.contiguous", run_contiguous, check_contiguous),
        Op("montecarlo.simulate_interpulse_gaps",
           lambda sp, v: simulate_interpulse_gaps(exp, ORACLE_GAP_RATE, ORACLE_GAPS,
                                                  seed=gap_seed), check_gaps),
        Op("reconstruct.gaps_round_trip", run_round_trip, check_round_trip,
           needs=("montecarlo.simulate_interpulse_gaps",)),
        Op("reconstruct.reconstruct_details",
           lambda sp, v: reconstruct_details(v["reconstruct.gaps_round_trip"], rec_spec),
           check_curve, needs=("reconstruct.gaps_round_trip",)),
    ]

    def figures(values):
        out = {}
        if "montecarlo.empirical_distribution.contiguous" in values:
            means = [r.mean_clicks() for r in values["montecarlo.empirical_distribution.contiguous"]]
            out["montecarlo.renewal_z"] = ref.batch_mean_z(means, renewal)
            out["montecarlo.renewal_mean"] = float(np.mean(means))
            out["montecarlo.renewal_reference"] = renewal
        if "montecarlo.empirical_distribution.fresh_fock3" in values:
            out["montecarlo.deadtime_z"] = check_fock(
                values["montecarlo.empirical_distribution.fresh_fock3"], values)[0].observed
        if "reconstruct.reconstruct_details" in values:
            out["reconstruct.curve_err"] = _curve_err(
                values["reconstruct.reconstruct_details"], exp)
        return out

    windows = (2 * ORACLE_FRESH_TRIALS
               + ORACLE_BLOCKS * ORACLE_BLOCK_TRIALS * ORACLE_WINDOWS)
    return Plan(ops, figures, {"simulated_windows": windows, "gaps": ORACLE_GAPS,
                               "gap_bytes": 8 * ORACLE_GAPS})


def _curve_err(res, config) -> float:
    t = res.centers
    est = np.array([v for _, v in res.profile.table])
    sel = t <= TAU_D + 3 * TAU_R
    return float(np.abs(est - config.efficiency.value(t))[sel].max())


# -- cli -------------------------------------------------------------------
# The command line as users run it, many small calls in one process.  Per
# call fixed costs dominate here (argument resolution, Gauss tables, Sobol
# engine construction, envelopes, digests), the opposite regime of matrix.

CLI_GAPS = 200_000


def setup_cli(seed: int, workdir, span) -> Plan:
    exp = exp_config()
    qseed = str(derive(seed, "quadrature"))
    gap_file = workdir / "cli-gaps.f64"
    write_gaps_binary(gap_file, simulate_interpulse_gaps(
        exp, ORACLE_GAP_RATE, CLI_GAPS, seed=derive(seed, "cli-gaps")))

    def call(name, argv):
        out = workdir / f"cli-{name}.out"

        def run(sp, values):
            code = cli_main(argv + ["--out", str(out)])
            return code, out.read_text() if out.exists() else ""
        return run

    def parsed(value, loader):
        code, text = value
        try:
            return code, loader(text)
        except ValueError:
            return code, None

    def base_checks(code, payload):
        return [Check("exit_code", float(abs(code)), 0.0),
                Check("parses", 0.0 if payload is not None else 1.0, 0.0)]

    fig_argv = ["figure", "4", "--seed", qseed]
    repeat = {}  # digest of a second figure call right after the process's first

    def check_figure(value, values):
        code, payload = parsed(value, json.loads)
        out = base_checks(code, payload)
        if payload is None:
            return out
        result = payload["result"]
        worst = 0.0
        for data in result["datasets"].values():
            for probs in data["models"].values():
                worst = max(worst, abs(sum(float(p) for p in probs) - 1.0))
        out.append(Check("model_normalization", worst, ref.TOL_NORM))
        if not repeat:
            # the first pass makes the second call itself; every later
            # pass's own figure call is one more repeat, which leaves the
            # run's time budget to timed passes
            again = workdir / "cli-figure-again.out"
            code2 = cli_main(fig_argv + ["--out", str(again)])
            repeat["digest"] = (json.loads(again.read_text())["result"]["digest"]
                                if code2 == 0 else None)
        out.append(Check("digest_repeats",
                         0.0 if repeat["digest"] == result["digest"] else 1.0, 0.0))
        return out

    def check_dist(value, values):
        code, payload = parsed(value, json.loads)
        out = base_checks(code, payload)
        if payload is not None:
            probs = [float(p) for p in payload["result"]["probs"]]
            p4 = 0.8**4 * same_count_probability(exp, 4)
            out += [Check("normalization", abs(sum(probs) - 1.0), ref.TOL_NORM),
                    Check("p4_vs_same_count", abs(probs[4] - p4), ref.TOL_CLOSED_FORM)]
        return out

    def check_matrix(value, values):
        code, payload = parsed(value, json.loads)
        out = base_checks(code, payload)
        if payload is not None:
            e = np.array([[float(x) for x in row] for row in payload["result"]["entries"]])
            out.append(Check("colsum", float(np.abs(e.sum(axis=0) - 1.0).max()),
                             ref.TOL_COLSUM))
        return out

    def check_simulate(value, values):
        code, payload = parsed(value, json.loads)
        out = base_checks(code, payload)
        if payload is not None:
            probs = [float(p) for p in payload["result"]["probs"]]
            # ideal detector, Fock 4: every window has exactly four clicks
            out.append(Check("pnr_four_clicks", abs(probs[4] - 1.0) if len(probs) > 4 else 1.0, 0.0))
        return out

    def load_curve(text):
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])

    def check_reconstruct(value, values):
        code, curve = parsed(value, load_curve)
        out = base_checks(code, curve)
        if curve is not None:
            header = value[1].splitlines()[0]
            n = int(header.rsplit("n_samples=", 1)[1])
            out += [Check("sample_count", float(abs(n - CLI_GAPS)), 0.0),
                    Check("curve_in_unit_interval",
                          float(np.clip(-curve[:, 1], 0, None).max()
                                + np.clip(curve[:, 1] - 1, 0, None).max()), 0.0)]
        return out

    def check_validate(value, values):
        code, text = value
        rows = []
        for line in text.splitlines():
            parts = line.split()
            if len(parts) == 4 and parts[0] in ("PASS", "FAIL"):
                obs = float(parts[2].split("=", 1)[1])
                tol = float(parts[3].split("=", 1)[1])
                # the suite's Monte-Carlo rows are z-type oracles
                rows.append(Check(f"validate:{parts[1]}", obs, tol, parts[1].startswith("mc_")))
        missed = [r for r in rows if not r.ok]
        stat_only = bool(missed) and all(r.statistical for r in missed)
        return [Check("exit_code", float(abs(code)), 0.0, stat_only),
                Check("result_pass", 0.0 if "RESULT: PASS" in text else 1.0, 0.0, stat_only),
                Check("rows_reported", 0.0 if rows else 1.0, 0.0)] + rows

    ops = [
        Op("cli.figure", call("figure", fig_argv), check_figure),
        Op("cli.dist", call("dist", ["dist", "--state", "fock:4", "--eta", "0.8",
                                     "--profile", "exp", "--seed", qseed]), check_dist),
        Op("cli.matrix", call("matrix", ["matrix", "--profile", "deadtime", "--m-max", "12",
                                         "--closed-form"]), check_matrix),
        Op("cli.simulate", call("simulate", ["simulate", "--state", "fock:4", "--trials",
                                             "100000", "--seed", str(derive(seed, "cli-sim"))]),
           check_simulate),
        Op("cli.reconstruct", call("reconstruct", ["reconstruct", "--gaps", str(gap_file),
                                                   "--bin-width", "0.02", "--t-max", "1.6"]),
           check_reconstruct),
        Op("cli.validate", call("validate", ["validate", "--suite", "quick", "--seed",
                                             str(derive(seed, "validate"))]),
           check_validate),
    ]

    def figures(values):
        return {"cli.output_bytes": float(sum(len(v[1].encode()) for k, v in values.items()
                                              if k.startswith("cli.")))}

    return Plan(ops, figures, {})


SETUP = {"matrix": setup_matrix, "cw": setup_cw, "oracle": setup_oracle, "cli": setup_cli}
