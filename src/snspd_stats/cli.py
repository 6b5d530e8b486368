"""Command-line interface.

Commands
--------
dist        click distribution for independent windows
matrix      conditional click-given-photon matrix (quadrature or closed form)
cw          continuous-wave click distribution with window memory
simulate    Monte-Carlo empirical distribution (oracle side)
reconstruct recovery curve from inter-click gap samples
figure      bar data behind the three example figures (four detector models)
validate    built-in cross-check suite

Times are read in units of the window by default (``--time-unit taum``),
and ``--rate-hint`` per window; ``--time-unit seconds`` reads every time
flag in seconds and the hint per second.  One table, ``_OPTIONS``, gives
each flag its default, argparse settings and unit.  Every output
embeds the resolved run configuration plus a digest of the numeric
payload, so reruns with the same configuration are byte-identical.
Exit codes: 0 success, 2 usage error, 1 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import NamedTuple, Optional

import numpy as np

from .continuous import CwConfig, click_distribution_cw
from .detector import DetectorConfig, EfficiencyProfile, ModeProfile
from .errors import ConsistencyError, DomainError, EstimationError, IntegrationError
from .figures import figure_payload
from .independent import (click_distribution_independent, cond_prob_matrix,
                          deadtime_closed_form, resolve_n_max)
from .montecarlo import SimSpec, empirical_distribution
from .quadrature import QuadratureSpec
from .reconstruct import (ReconstructionSpec, read_gaps, reconstruct_details,
                          write_gaps_binary)
from .results import ClickDistribution, ConditionalMatrix
from .states import StateSpec, photon_number_dist
from .validation import run_suite


class _Option(NamedTuple):
    """A flag's default, argparse settings and unit ("time" or "rate", see ``_absolute``)."""

    default: object
    type: type
    unit: Optional[str] = None
    choices: Optional[list] = None
    help: Optional[str] = None


_OPTIONS = {
    "tau_m": _Option(1.0, float), "eta": _Option(1.0, float), "nu": _Option(0.0, float),
    "profile": _Option("ideal", str, "time", help="ideal | deadtime | exp | tabulated:FILE.csv"),
    "tau_d": _Option(0.05, float, "time"), "tau_r": _Option(0.2, float, "time"),
    "time_unit": _Option("taum", str, choices=["taum", "seconds"]),
    "method": _Option("auto", str, choices=["auto", "nested_gauss", "qmc_sobol"]),
    "rel_tol": _Option(1e-6, float), "abs_tol": _Option(1e-9, float),
    "gauss_order": _Option(32, int), "qmc_samples": _Option(1 << 16, int),
    "seed": _Option(0, int), "format": _Option("json", str, choices=["json", "csv"]),
    "state": _Option("coherent:2", str, help="coherent:A | fock:K | squeezed:R | vacuum"),
    "delta": _Option(None, float, "time"), "windows": _Option(3, int),
    "memory_depth": _Option("8", str), "trials": _Option(100_000, int),
    "carry": _Option("fresh", str, "time", help="fresh | fixed:TAU | contiguous"),
    "windows_per_trial": _Option(1, int), "n_max": _Option(None, int),
    "m_max": _Option(10, int), "bin_width": _Option(0.01, float, "time"),
    "t_max": _Option(1.0, float, "time"), "rate_hint": _Option(None, float, "rate"),
    "tail_correction": _Option("auto", str, choices=["auto", "none", "rate", "self"]),
    "min_preceding_gap": _Option(None, float, "time"),
}


def _add_common(p: argparse.ArgumentParser, *names):
    for name in names:
        opt = _OPTIONS[name]
        p.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                       type=opt.type, choices=opt.choices, help=opt.help)
    p.add_argument("--config", dest="config_file", default=None,
                   help="JSON file with flag values (explicit flags override)")
    p.add_argument("--out", dest="out", default=None)


def _resolve(args: argparse.Namespace) -> dict:
    resolved = {key: opt.default for key, opt in _OPTIONS.items()}
    if getattr(args, "config_file", None):
        with open(args.config_file) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"{args.config_file}: not valid JSON ({exc})") from None
        if not isinstance(file_cfg, dict):
            raise DomainError(f"{args.config_file}: needs a JSON object of flag values")
        unknown = set(file_cfg) - set(_OPTIONS)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            _check_type(key, val)
        resolved.update(file_cfg)
    for key in _OPTIONS:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    resolved["out"] = getattr(args, "out", None)
    return resolved


def _check_type(key: str, val) -> None:
    """A ``--config`` value must have its flag's type (an int passes for a float) and choices.

    Null is accepted where the default is null.
    """
    opt = _OPTIONS[key]
    if val is None and opt.default is None:
        return
    allowed = (int, float) if opt.type is float else opt.type
    if not isinstance(val, allowed) or isinstance(val, bool):
        raise DomainError(f"config key {key!r} needs a {opt.type.__name__}, got {val!r}")
    if opt.choices and val not in opt.choices:
        raise DomainError(f"config key {key!r} needs one of {opt.choices}, got {val!r}")


def _absolute(r: dict, name: str, value=None):
    """Flag ``name``'s value (its resolved one unless given) in absolute units.

    Under ``--time-unit taum`` a time is multiplied by tau_m and a rate divided by it.
    """
    value = r[name] if value is None else value
    unit = _OPTIONS[name].unit
    if value is None or unit is None or r["time_unit"] != "taum":
        return value
    return value * r["tau_m"] if unit == "time" else value / r["tau_m"]


def _build_profile(r: dict) -> EfficiencyProfile:
    name = r["profile"]
    if name == "ideal":
        return EfficiencyProfile.ideal()
    if name in ("deadtime", "dead_time_only"):
        return EfficiencyProfile.dead_time(_absolute(r, "tau_d"))
    if name in ("exp", "exponential_recovery"):
        return EfficiencyProfile.exponential(_absolute(r, "tau_d"), _absolute(r, "tau_r"))
    if name.startswith("tabulated:"):  # the file's time column, in the flags' unit
        return EfficiencyProfile.from_csv(name.split(":", 1)[1],
                                          time_scale=_absolute(r, "profile", 1.0))
    raise DomainError(f"unknown profile {name!r}")


def _build_config(r: dict) -> DetectorConfig:
    return DetectorConfig(tau_m=r["tau_m"], eta=r["eta"], nu=r["nu"],
                          efficiency=_build_profile(r),
                          mode=ModeProfile.monochromatic())


def _build_spec(r: dict) -> QuadratureSpec:
    return QuadratureSpec(method=r["method"], rel_tol=r["rel_tol"],
                          abs_tol=r["abs_tol"], gauss_order=r["gauss_order"],
                          qmc_samples=r["qmc_samples"], seed=r["seed"])


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_payload(obj, r: dict, command: str) -> None:
    if r["format"] == "csv":
        _emit(obj.to_csv(), r.get("out"))
    else:
        _emit_json(obj.to_json_dict(), r, command)


def _emit_json(payload: dict, r: dict, command: str) -> None:
    """Write a result inside the envelope that records the run configuration."""
    envelope = {"command": command, "run_config": {k: r[k] for k in sorted(_OPTIONS)},
                "result": payload}
    _emit(json.dumps(envelope, indent=1, sort_keys=True) + "\n", r.get("out"))


def _state_dist(r: dict):
    """The state's number distribution, and the detector at eta 1 and nu 0 (both in the state)."""
    config = _build_config(r)
    dist = photon_number_dist(StateSpec.parse(r["state"]), eta=config.eta, nu=config.nu)
    return dist, replace(config, eta=1.0, nu=0.0)


def _cmd_dist(args) -> int:
    r = _resolve(args)
    dist, unit_cfg = _state_dist(r)
    out = click_distribution_independent(dist, unit_cfg, _build_spec(r))
    _emit_payload(out, r, "dist")
    return 0


def _cmd_matrix(args) -> int:
    r = _resolve(args)
    config = _build_config(r)
    spec = _build_spec(r)
    m_max = r["m_max"]
    if args.closed_form:
        n_top = resolve_n_max(config, r["n_max"], m_max)
        entries = np.array([[deadtime_closed_form(config, n, m)
                             for m in range(m_max + 1)] for n in range(n_top + 1)])
        out = ConditionalMatrix(entries=entries, scenario="independent:closed-form",
                                config=config.to_json_dict(), meta={})
    else:
        out = cond_prob_matrix(config, n_max=r["n_max"], m_max=m_max, spec=spec)
    _emit_payload(out, r, "matrix")
    return 0


def _cmd_cw(args) -> int:
    r = _resolve(args)
    dist, unit_cfg = _state_dist(r)
    try:
        depth = int(r["memory_depth"])
    except ValueError:
        depth = r["memory_depth"]  # CwConfig takes no other word than "geometric_limit"
    cw = CwConfig(delta=_absolute(r, "delta"), window_count=r["windows"], memory_depth=depth)
    out = click_distribution_cw(dist, unit_cfg, cw, _build_spec(r))
    _emit_payload(out, r, "cw")
    return 0


def _cmd_simulate(args) -> int:
    r = _resolve(args)
    config = _build_config(r)
    state = StateSpec.parse(r["state"])
    carry = r["carry"]
    if carry.startswith("fixed:"):
        try:
            tau = _absolute(r, "carry", float(carry.split(":", 1)[1]))
        except ValueError:
            raise DomainError(f"carry fixed:TAU needs a number, got {carry!r}") from None
        mode = "fixed_tau"
    elif carry in ("fresh", "contiguous"):
        mode, tau = carry, 0.0
    else:
        raise DomainError(f"unknown carry mode {carry!r}")
    sim = SimSpec(trials=r["trials"], seed=r["seed"], carry_in=mode, fixed_tau=tau,
                  windows_per_trial=r["windows_per_trial"],
                  collect_gaps=args.gaps_out is not None)
    res = empirical_distribution(state, config, sim)
    if args.gaps_out:
        write_gaps_binary(args.gaps_out, res.interpulse_gaps)
    probs = res.probs
    payload = ClickDistribution(
        probs=probs, scenario=f"montecarlo:{mode}",
        config=config.to_json_dict(),
        meta={"trials": r["trials"], "seed": r["seed"],
              "n_windows": res.n_windows,
              "stderr": [repr(float(s)) for s in res.stderr]})
    _emit_payload(payload, r, "simulate")
    return 0


def _cmd_reconstruct(args) -> int:
    r = _resolve(args)
    gaps = read_gaps(args.gaps)
    spec = ReconstructionSpec(
        bin_width=_absolute(r, "bin_width"), t_max=_absolute(r, "t_max"),
        lambda_hint=_absolute(r, "rate_hint"), tail_correction=r["tail_correction"],
        min_preceding_gap=_absolute(r, "min_preceding_gap"))
    res = reconstruct_details(gaps, spec)
    lines = ["t,xi"] + [f"{repr(t)},{repr(v)}" for t, v in res.profile.table]
    text = "# lambda_hat=%s n_samples=%d\n%s\n" % (
        repr(res.lambda_hat), len(gaps), "\n".join(lines))
    _emit(text, r.get("out"))
    return 0


def _gnuplot_script(payload: dict) -> str:
    lines = ["set style data histograms", "set style fill solid 0.6",
             "set xlabel 'clicks n'", "set ylabel 'probability'"]
    for label, data in sorted(payload["datasets"].items()):
        lines.append(f"$data_{label.replace('=', '').replace('.', '')} << EOD")
        models = data["models"]
        names = sorted(models)
        lines.append("# n " + " ".join(names))
        for n in range(len(models[names[0]])):
            lines.append(" ".join([str(n)] + [models[k][n] for k in names]))
        lines.append("EOD")
    lines.append("# plot e.g.: plot $data_... using 2:xtic(1) title 'cw', ...")
    return "\n".join(lines) + "\n"


def _cmd_figure(args) -> int:
    r = _resolve(args)
    if args.number not in (3, 4, 5):
        raise DomainError("figure number must be 3, 4 or 5")
    payload = figure_payload(args.number, _build_spec(r), tau_m=r["tau_m"])
    if args.gnuplot:
        with open(args.gnuplot, "w") as fh:
            fh.write(_gnuplot_script(payload))
    if r["format"] == "csv":
        rows = ["figure,dataset,model,n,prob"]
        for label, data in sorted(payload["datasets"].items()):
            for model, probs in sorted(data["models"].items()):
                for n, p in enumerate(probs):
                    rows.append(f"{args.number},{label},{model},{n},{p}")
        _emit("\n".join(rows) + "\n", r.get("out"))
    else:
        _emit_json(payload, r, "figure")
    return 0


def _cmd_validate(args) -> int:
    r = _resolve(args)
    report, ok = run_suite(args.suite, seed=r["seed"])
    _emit(report, r.get("out"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snspd-stats", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="independent-window click distribution")
    _add_common(p, "state", "profile", "tau_d", "tau_r", "tau_m", "eta", "nu",
                "time_unit", "method", "rel_tol", "abs_tol", "gauss_order",
                "qmc_samples", "seed", "format")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("matrix", help="conditional click-given-photon matrix")
    _add_common(p, "profile", "tau_d", "tau_r", "tau_m", "time_unit", "n_max",
                "m_max", "method", "rel_tol", "abs_tol", "gauss_order",
                "qmc_samples", "seed", "format")
    p.add_argument("--closed-form", action="store_true",
                   help="use the zero-relaxation closed form (dead-time profile only)")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("cw", help="continuous-wave click distribution")
    _add_common(p, "state", "profile", "tau_d", "tau_r", "tau_m", "eta", "nu",
                "time_unit", "delta", "windows", "memory_depth", "method",
                "rel_tol", "abs_tol", "gauss_order", "qmc_samples", "seed", "format")
    p.set_defaults(func=_cmd_cw)

    p = sub.add_parser("simulate", help="Monte-Carlo empirical distribution")
    _add_common(p, "state", "profile", "tau_d", "tau_r", "tau_m", "eta", "nu",
                "time_unit", "trials", "carry", "windows_per_trial", "seed",
                "format")
    p.add_argument("--gaps-out", dest="gaps_out", default=None,
                   help="write inter-click gaps as little-endian f64")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="recovery curve from gap samples")
    p.add_argument("--gaps", required=True, help="binary f64 stream or CSV")
    _add_common(p, "bin_width", "t_max", "rate_hint", "tail_correction",
                "min_preceding_gap", "tau_m", "time_unit")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("figure", help="bar data of an example figure (3, 4 or 5)")
    p.add_argument("number", type=int)
    p.add_argument("--gnuplot", default=None, help="also write a gnuplot script")
    _add_common(p, "tau_m", "method", "rel_tol", "abs_tol", "gauss_order",
                "qmc_samples", "seed", "format")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("validate", help="run the cross-check suite")
    p.add_argument("--suite", choices=["quick", "full"], default="quick")
    _add_common(p, "seed")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:  # OSError: a file named on the command line
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, ConsistencyError, EstimationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
