"""Print one digest per standard output of the package.

A digest is the first 16 hex digits of the sha256 of the comma-joined
``repr`` of every float of the output, the scheme of
``results._payload_digest``.  ``figure_payload(4)`` keeps the figure's own
digest and ``validate --suite quick`` hashes the report's bytes; their
floats are the click distributions of the figure's four models on both of
its datasets and each report row's observed value, as printed.  Every output
uses ``QuadratureSpec(seed=3)``, tau_m = 1, exp = (tau_d 0.05, tau_r 0.2),
dead = tau_d 0.05, fast = exp with tau_r 5e-6 and, for the memory model,
``CwConfig(delta=0.3)``.  A simulator row hashes the click counts, the
window count and, where the run collects them, the last-click offsets or
the inter-click gaps, in the order the run returns them; a gap sampler row
hashes the gaps.  A ``cli`` row hashes the bytes ``cli.main`` writes, and
its values are those bytes.  An output that raises one of the package's
errors reads ``raises <error>`` and has no floats.

Run it on two checkouts and compare the lines (timings go to stderr): a
digest moves only where a change means to move it.

    python tools/digests.py                 # every output
    python tools/digests.py matrix kernels  # outputs whose name contains a word
    PYTHONPATH=/path/to/other/src python tools/digests.py
    python tools/digests.py --against /path/to/other/src

The package is imported from ``PYTHONPATH`` when it is found there, else
from this checkout's ``src``.  With ``--against`` the same outputs are
also computed on the other checkout, in a subprocess that imports it
through ``PYTHONPATH``.  Each line then reads the other checkout's digest,
this one's, how many entries moved, the largest absolute move and the
largest relative move (against the larger magnitude of the pair).  A NaN
on both sides counts as unmoved and a NaN on one side as moved; the
largest moves are read over the entries finite on both sides.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from snspd_stats import (CwConfig, DetectorConfig, EfficiencyProfile,  # noqa: E402
                         QuadratureSpec, SimSpec, StateSpec, carryover_matrix,
                         click_distribution_independent, coherent_click_probability,
                         coherent_click_probability_after_gap, cond_prob_matrix,
                         empirical_distribution, last_click_density, photon_number_dist,
                         regular_irregular_split, simulate_interpulse_gaps,
                         squeezed_distribution_direct, write_gaps_binary)
from snspd_stats.cli import main as cli_main  # noqa: E402
from snspd_stats.continuous import last_click_density_fock, memory_kernels  # noqa: E402
from snspd_stats.errors import (ConsistencyError, DomainError,  # noqa: E402
                                EstimationError, IntegrationError)
try:
    from snspd_stats.figures import figure_payload  # noqa: E402
except ImportError:  # a checkout from before the figure code left the CLI
    from snspd_stats.cli import figure_payload  # noqa: E402
from snspd_stats.results import _payload_digest  # noqa: E402
from snspd_stats.validation import run_suite  # noqa: E402

SPEC = QuadratureSpec(seed=3)
CW = CwConfig(delta=0.3)
EXP = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2))
DEAD = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.05))
IDEAL = DetectorConfig(tau_m=1.0)
LOSSY = DetectorConfig(tau_m=1.0, eta=0.8, nu=0.1, efficiency=EXP.efficiency)
_KNOTS = np.linspace(0.0, 1.0, 501)  # the exp curve sampled at step 0.002
TABULATED = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.tabulated(
    list(zip(_KNOTS, EXP.efficiency.value(_KNOTS)))))
_STEPS = np.linspace(0.0, 1.0, 51)
_STEPS[15] = 0.3003  # one knot off the 1/500 lattice: the chain does not serve the curve
OFF_LATTICE = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.tabulated(
    list(zip(_STEPS, EXP.efficiency.value(_STEPS)))))
FAST = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 5e-6))
DEAD02 = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.2))
OFFSETS = np.array([0.01, 0.03, 0.1, 0.27, 0.6])
CARRIES = (0.0, 0.02, 0.05, 0.1, 0.3, 5.0)


def _figure(fig: int):
    """The figure's digest and the floats of its model distributions."""
    payload = figure_payload(fig, SPEC)
    models = [model for _, data in sorted(payload["datasets"].items())
              for _, model in sorted(data["models"].items())]
    return payload["digest"], np.array([float(x) for model in models for x in model])


def _validate_quick():
    """The report's text digest and each row's observed value, as printed."""
    report = run_suite("quick")[0]
    observed = [float(x) for x in re.findall(r"observed=(\S+)", report)]
    return hashlib.sha256(report.encode()).hexdigest()[:16], np.array(observed)


def _kernels(config, m_max):
    k = memory_kernels(config, CW, m_max=m_max, spec=SPEC)
    return np.concatenate([k.a_m, k.b_m, k.c_m, k.d_matrix.entries.ravel()])


def _coherent():
    cases = [(EXP, SPEC), (DEAD, SPEC), (LOSSY, SPEC),
             (TABULATED, QuadratureSpec(seed=3, gauss_order=8)), (IDEAL, SPEC)]
    return [coherent_click_probability(c, n, 3.0, s) for c, s in cases for n in range(8)]


def _after_gap():
    return [coherent_click_probability_after_gap(c, n, 3.0, g, SPEC)
            for c in (EXP, DEAD, IDEAL) for n in range(7) for g in CARRIES]


def _rejected_coherent():
    # the chain's estimate rejects rows 2-3 of this fast recovery
    return np.concatenate([
        [coherent_click_probability(FAST, n, 1.0, SPEC) for n in range(4)],
        [coherent_click_probability_after_gap(FAST, n, 1.0, 0.02, SPEC) for n in range(4)],
        last_click_density(FAST, 1.0, OFFSETS, SPEC, n_cut=3)])


def _fock_density(spec, ms):
    return np.concatenate([last_click_density_fock(c, m, OFFSETS, spec, carry=carry)
                           for c, carry in ((EXP, None), (DEAD, 0.02)) for m in ms])


def _photon_number_dists():
    cases = [(StateSpec.coherent(2.0), 0.9, 0.05), (StateSpec.fock(4), 0.8, 0.1),
             (StateSpec.squeezed(1.0), 1.0, 0.1),
             (StateSpec.custom([0.1, 0.2, 0.3, 0.4]), 0.7, 0.0)]
    return np.concatenate([photon_number_dist(s, eta=eta, nu=nu).probs for s, eta, nu in cases])


def _simulated(state, config, sim):
    res = empirical_distribution(state, config, sim)
    parts = [res.counts, [res.n_windows]]
    parts += [x for x in (res.last_offsets, res.interpulse_gaps) if x is not None]
    return np.concatenate(parts)


def _contiguous(state, config, seed, collect):
    return _simulated(state, config, SimSpec(trials=160, seed=seed, carry_in="contiguous",
                                             windows_per_trial=404, **{collect: True}))


def _split():
    return [part for c in (EXP, DEAD) for n in (1, 2, 3) for m in range(n, 7)
            for part in regular_irregular_split(c, n, m, SPEC)]


def _cli(*argv, gaps=False, config=None):
    """The digest and bytes of what ``cli.main`` writes for ``argv``.

    ``gaps`` adds ``--gaps`` with 10^5 exp gaps at rate 0.25, ``config``
    adds ``--config`` with that JSON object.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = list(argv) + ["--out", str(tmp / "out")]
        if gaps:
            write_gaps_binary(tmp / "gaps.f64", simulate_interpulse_gaps(EXP, 0.25, 100_000,
                                                                         seed=14))
            argv += ["--gaps", str(tmp / "gaps.f64")]
        if config is not None:
            (tmp / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp / "config.json")]
        if cli_main(argv) != 0:
            raise DomainError(f"cli exit code for {argv[0]}")
        out = (tmp / "out").read_bytes()
    return hashlib.sha256(out).hexdigest()[:16], np.frombuffer(out, dtype=np.uint8)


OUTPUTS = {
    "photon_number_dist coherent 2 eta 0.9 nu 0.05 | fock 4 eta 0.8 nu 0.1 | squeezed r 1 nu 0.1 "
    "| custom eta 0.7": _photon_number_dists,
    "matrix exp m_max 20": lambda: cond_prob_matrix(EXP, m_max=20, spec=SPEC).entries,
    "matrix exp m_max 40": lambda: cond_prob_matrix(EXP, m_max=40, spec=SPEC).entries,
    "matrix dead m_max 12": lambda: cond_prob_matrix(DEAD, m_max=12, spec=SPEC).entries,
    "matrix dead m_max 64": lambda: cond_prob_matrix(DEAD, m_max=64, spec=SPEC).entries,
    "matrix tabulated m_max 6":
        lambda: cond_prob_matrix(TABULATED, m_max=6, spec=SPEC).entries,
    "matrix tabulated off the lattice m_max 4, quadrature rows":
        lambda: cond_prob_matrix(OFF_LATTICE, m_max=4, spec=SPEC).entries,
    "carryover exp m_max 8": lambda: carryover_matrix(EXP, CW, m_max=8, spec=SPEC).entries,
    "carryover exp n_max 4 m_max 6 nested_gauss, near and far carries":
        lambda: carryover_matrix(EXP, CW, n_max=4, m_max=6,
                                 spec=replace(SPEC, method="nested_gauss")).entries,
    "carryover tabulated off the lattice m_max 4, carried quadrature rows":
        lambda: carryover_matrix(OFF_LATTICE, CW, m_max=4, spec=SPEC).entries,
    "kernels exp m_max 8 (a|b|c|D)": lambda: _kernels(EXP, 8),
    "kernels exp m_max 11 (a|b|c|D), the cw workload's": lambda: _kernels(EXP, 11),
    "kernels exp m_max 34 (a|b|c|D), a tilted carried chain read at two spans":
        lambda: _kernels(EXP, 34),
    "photon_number_dist squeezed r 3 eta 1 m_max 512":
        lambda: photon_number_dist(StateSpec.squeezed(3.0), eta=1.0, nu=0.0, m_max=512).probs,
    "photon_number_dist squeezed r 12 eta 1, default cutoff":
        lambda: photon_number_dist(StateSpec.squeezed(12.0), eta=1.0, nu=0.0).probs,
    "squeezed_distribution_direct exp eta 0.8 r 1.5 n 0-3 nested_gauss, the density route":
        lambda: squeezed_distribution_direct(replace(EXP, eta=0.8), 1.5, n_max=3,
                                             spec=replace(SPEC, method="nested_gauss")),
    "independent exp squeezed r 1 eta 0.9 m_max 56, validate's number-basis route":
        lambda: click_distribution_independent(
            photon_number_dist(StateSpec.squeezed(1.0), eta=0.9, nu=0.0), EXP, SPEC).probs,
    "independent exp coherent 2, the matrix workload's coherent route":
        lambda: click_distribution_independent(
            photon_number_dist(StateSpec.coherent(2.0), eta=1.0, nu=0.0), EXP, SPEC).probs,
    "independent exp coherent 6, default cutoff (tail 8.8e-6, rows to the click cap)":
        lambda: click_distribution_independent(
            photon_number_dist(StateSpec.coherent(6.0), eta=1.0, nu=0.0), EXP, SPEC).probs,
    "coherent exp/dead/lossy/tabulated/ideal n 0-7 alpha^2 3": _coherent,
    "after_gap exp/dead/ideal n 0-6 six carries alpha^2 3": _after_gap,
    "last_click exp a 4": lambda: last_click_density(EXP, 4.0, OFFSETS, SPEC),
    "last_click exp a 4 carry 0.02":
        lambda: last_click_density(EXP, 4.0, OFFSETS, SPEC, carry=0.02),
    "last_click dead a 4": lambda: last_click_density(DEAD, 4.0, OFFSETS, SPEC),
    "last_click dead a 4 carry 0.02":
        lambda: last_click_density(DEAD, 4.0, OFFSETS, SPEC, carry=0.02),
    "last_click exp a 1": lambda: last_click_density(EXP, 1.0, OFFSETS, SPEC),
    "last_click tabulated a 1 n_cut 4 | carry 0.02, pinned renewal rows":
        lambda: np.concatenate([
            last_click_density(TABULATED, 1.0, OFFSETS, QuadratureSpec(seed=3, gauss_order=8),
                               carry=c, n_cut=4) for c in (None, 0.02)]),
    "coherent | after_gap carry 0.02 | last_click n_cut 3, tau_r 5e-6 a 1, rejected rows":
        _rejected_coherent,
    "last_click_fock exp m 1,3,8 | dead carry 0.02 m 1,3,8":
        lambda: _fock_density(SPEC, (1, 3, 8)),
    "last_click_fock nested_gauss exp m 1,3,5 | dead carry 0.02 m 1,3,5, the kernel reference":
        lambda: _fock_density(replace(SPEC, method="nested_gauss"), (1, 3, 5)),
    "split exp/dead n 1-3 m n-6 (regular, irregular)": _split,
    "figure_payload(3)": lambda: _figure(3),
    "figure_payload(4)": lambda: _figure(4),
    "simulate fresh fock 3 dead 0.2, 2^16 trials (counts|offsets)":
        lambda: _simulated(StateSpec.fock(3), DEAD02,
                           SimSpec(trials=1 << 16, seed=5, collect_offsets=True)),
    "simulate fresh coherent 2 exp, 2^16 trials (counts|gaps)":
        lambda: _simulated(StateSpec.coherent(2.0), EXP,
                           SimSpec(trials=1 << 16, seed=6, collect_gaps=True)),
    "simulate fixed_tau 0.1 coherent 2 exp, 2^16 trials (counts|offsets)":
        lambda: _simulated(StateSpec.coherent(2.0), EXP,
                           SimSpec(trials=1 << 16, seed=7, carry_in="fixed_tau",
                                   fixed_tau=0.1, collect_offsets=True)),
    "simulate contiguous coherent 2 exp, 160 x 404 windows (counts|offsets)":
        lambda: _contiguous(StateSpec.coherent(2.0), EXP, 8, "collect_offsets"),
    "simulate contiguous coherent 2 exp, 160 x 404 windows (counts|gaps)":
        lambda: _contiguous(StateSpec.coherent(2.0), EXP, 9, "collect_gaps"),
    "simulate contiguous coherent 2 dead 0.2, 160 x 404 windows (counts|offsets)":
        lambda: _contiguous(StateSpec.coherent(2.0), DEAD02, 10, "collect_offsets"),
    "simulate contiguous coherent 2 tabulated, 160 x 404 windows (counts|offsets)":
        lambda: _contiguous(StateSpec.coherent(2.0), TABULATED, 11, "collect_offsets"),
    "simulate_interpulse_gaps exp rate 0.25, 10^6 gaps":
        lambda: simulate_interpulse_gaps(EXP, 0.25, 1_000_000, seed=12),
    "simulate_interpulse_gaps dead rate 0.25, 10^6 gaps":
        lambda: simulate_interpulse_gaps(DEAD, 0.25, 1_000_000, seed=13),
    "validate --suite quick": _validate_quick,
    "cli dist coherent:2 exp": lambda: _cli("dist", "--state", "coherent:2", "--profile", "exp",
                                            "--seed", "3"),
    "cli matrix --closed-form deadtime m_max 12":
        lambda: _cli("matrix", "--profile", "deadtime", "--m-max", "12", "--closed-form"),
    "cli cw fock:2 exp delta 0.3": lambda: _cli("cw", "--state", "fock:2", "--profile", "exp",
                                                "--delta", "0.3", "--seed", "3"),
    "cli simulate fock:3 deadtime tau_d 0.2, 2^14 trials":
        lambda: _cli("simulate", "--state", "fock:3", "--profile", "deadtime", "--tau-d", "0.2",
                     "--trials", "16384", "--seed", "5"),
    "cli reconstruct --rate-hint 0.25, tau_m 1":
        lambda: _cli("reconstruct", "--bin-width", "0.02", "--t-max", "1.0", "--rate-hint", "0.25",
                     gaps=True),
    "cli dist --config fock:2 exp tau_m 2 (window units)":
        lambda: _cli("dist", config={"state": "fock:2", "profile": "exp", "tau_m": 2.0,
                                     "tau_d": 0.05, "tau_r": 0.2, "seed": 3}),
}


def _outputs(words):
    """(name, digest, values) per output whose name contains a word."""
    for name, make in OUTPUTS.items():
        if words and not any(w in name for w in words):
            continue
        t0 = time.perf_counter()
        try:
            out = make()
        except (ConsistencyError, DomainError, EstimationError, IntegrationError) as exc:
            out = f"raises {type(exc).__name__}", np.zeros(0)
        digest, values = out if isinstance(out, tuple) else (None, np.asarray(out))
        print(f"  {name}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        yield name, digest or _payload_digest(values), values


def _against(src: str, words) -> dict:
    """{name: (digest, values)} of the outputs computed on the checkout at ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        dump = os.path.join(tmp, "outputs.pickle")
        subprocess.run([sys.executable, __file__, "--dump", dump, *words], check=True,
                       env=dict(os.environ, PYTHONPATH=os.path.abspath(src)))
        with open(dump, "rb") as fh:
            return pickle.load(fh)


def _moves(ours: np.ndarray, theirs: np.ndarray) -> str:
    """How many entries moved, the largest absolute and the largest relative move."""
    if ours.shape != theirs.shape:
        return f"shape {theirs.shape} -> {ours.shape}"
    a, b = ours.astype(float), theirs.astype(float)
    moved = (a != b) & ~(np.isnan(a) & np.isnan(b))
    finite = np.isfinite(a) & np.isfinite(b)
    diff, scale = np.abs(a - b)[finite], np.maximum(np.abs(a), np.abs(b))[finite]
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return (f"moved {np.count_nonzero(moved)}/{a.size}  "
            f"abs {diff.max(initial=0.0):.2g}  rel {rel.max(initial=0.0):.2g}")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Print one digest per standard output.")
    parser.add_argument("words", nargs="*", help="only outputs whose name contains a word")
    parser.add_argument("--against", metavar="SRC",
                        help="another checkout's src: print both digests and the moves")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv[1:])
    warnings.simplefilter("ignore")  # Delta = 0.3 is short of full recovery on exp
    if args.dump:
        outputs = {name: (digest, values) for name, digest, values in _outputs(args.words)}
        with open(args.dump, "wb") as fh:
            pickle.dump(outputs, fh)
        return 0
    theirs = _against(args.against, args.words) if args.against else None
    for name, digest, values in _outputs(args.words):
        if theirs is None:
            print(f"{digest}  {name}", flush=True)
            continue
        other, other_values = theirs[name]
        print(f"{other}  {digest}  {_moves(values, other_values)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
