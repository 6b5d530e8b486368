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

Times are read in units of the window by default (``--time-unit taum``);
``--time-unit seconds`` treats every time flag as absolute.  Every output
embeds the resolved run configuration plus a digest of the numeric
payload, so reruns with the same configuration are byte-identical.
Exit codes: 0 success, 2 usage error, 1 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional

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

_DEFAULTS = {
    "tau_m": 1.0, "eta": 1.0, "nu": 0.0, "profile": "ideal",
    "tau_d": 0.05, "tau_r": 0.2, "time_unit": "taum",
    "method": "auto", "rel_tol": 1e-6, "abs_tol": 1e-9,
    "gauss_order": 32, "qmc_samples": 1 << 16, "seed": 0,
    "format": "json", "delta": None, "windows": 3, "memory_depth": "8",
    "trials": 100_000, "carry": "fresh", "windows_per_trial": 1,
    "n_max": None, "m_max": 10, "state": "coherent:2",
    "bin_width": 0.01, "t_max": 1.0, "rate_hint": None,
    "tail_correction": "auto", "min_preceding_gap": None,
}


_FLAGS = {
    "tau_m": dict(type=float), "eta": dict(type=float), "nu": dict(type=float),
    "profile": dict(type=str, help="ideal | deadtime | exp | tabulated:FILE.csv"),
    "tau_d": dict(type=float), "tau_r": dict(type=float),
    "time_unit": dict(type=str, choices=["taum", "seconds"]),
    "method": dict(type=str, choices=["auto", "nested_gauss", "qmc_sobol"]),
    "rel_tol": dict(type=float), "abs_tol": dict(type=float),
    "gauss_order": dict(type=int), "qmc_samples": dict(type=int),
    "seed": dict(type=int), "format": dict(type=str, choices=["json", "csv"]),
    "state": dict(type=str, help="coherent:A | fock:K | squeezed:R | vacuum"),
    "delta": dict(type=float), "windows": dict(type=int),
    "memory_depth": dict(type=str), "trials": dict(type=int),
    "carry": dict(type=str, help="fresh | fixed:TAU | contiguous"),
    "windows_per_trial": dict(type=int), "n_max": dict(type=int),
    "m_max": dict(type=int), "bin_width": dict(type=float),
    "t_max": dict(type=float), "rate_hint": dict(type=float),
    "tail_correction": dict(type=str, choices=["auto", "none", "rate", "self"]),
    "min_preceding_gap": dict(type=float),
}


def _add_common(p: argparse.ArgumentParser, *names):
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       default=None, **_FLAGS[name])
    p.add_argument("--config", dest="config_file", default=None,
                   help="JSON file with flag values (explicit flags override)")
    p.add_argument("--out", dest="out", default=None)


def _resolve(args: argparse.Namespace) -> dict:
    resolved = dict(_DEFAULTS)
    if getattr(args, "config_file", None):
        with open(args.config_file) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"{args.config_file}: not valid JSON ({exc})") from None
        if not isinstance(file_cfg, dict):
            raise DomainError(f"{args.config_file}: needs a JSON object of flag values")
        unknown = set(file_cfg) - set(_DEFAULTS)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            _check_type(key, val)
        resolved.update(file_cfg)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    resolved["out"] = getattr(args, "out", None)
    return resolved


def _check_type(key: str, val) -> None:
    """A ``--config`` value must have its flag's type (an int passes for a float).

    Null is accepted where the default is null.
    """
    kind = _FLAGS[key]["type"]
    if val is None and _DEFAULTS[key] is None:
        return
    allowed = (int, float) if kind is float else kind
    if not isinstance(val, allowed) or isinstance(val, bool):
        raise DomainError(f"config key {key!r} needs a {kind.__name__}, got {val!r}")


def _time_scale(r: dict) -> float:
    return r["tau_m"] if r["time_unit"] == "taum" else 1.0

def _build_profile(r: dict) -> EfficiencyProfile:
    scale = _time_scale(r)
    name = r["profile"]
    if name == "ideal":
        return EfficiencyProfile.ideal()
    if name in ("deadtime", "dead_time_only"):
        return EfficiencyProfile.dead_time(r["tau_d"] * scale)
    if name in ("exp", "exponential_recovery"):
        return EfficiencyProfile.exponential(r["tau_d"] * scale, r["tau_r"] * scale)
    if name.startswith("tabulated:"):
        return EfficiencyProfile.from_csv(name.split(":", 1)[1], time_scale=scale)
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
    envelope = {"command": command, "run_config": {k: r[k] for k in sorted(_DEFAULTS)},
                "result": payload}
    _emit(json.dumps(envelope, indent=1, sort_keys=True) + "\n", r.get("out"))


def _state_dist(r: dict, config: DetectorConfig):
    state = StateSpec.parse(r["state"])
    eta = state.eta if state.eta is not None else config.eta
    nu = state.nu if state.nu is not None else config.nu
    return photon_number_dist(state, eta=eta, nu=nu)


def _cmd_dist(args) -> int:
    r = _resolve(args)
    config = _build_config(r)
    dist = _state_dist(r, config)
    unit_cfg = replace(config, eta=1.0, nu=0.0)  # eta and nu live in the state
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
    config = _build_config(r)
    dist = _state_dist(r, config)
    unit_cfg = replace(config, eta=1.0, nu=0.0)  # eta and nu live in the state
    md = str(r["memory_depth"])
    if md == "geometric_limit":
        depth = md
    else:
        try:
            depth = int(md)
        except ValueError:
            raise DomainError(f"memory_depth must be an integer or 'geometric_limit', got {md!r}")
    delta = r["delta"] * _time_scale(r) if r["delta"] is not None else None
    cw = CwConfig(delta=delta, window_count=r["windows"], memory_depth=depth)
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
            tau = float(carry.split(":", 1)[1]) * _time_scale(r)
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
    scale = _time_scale(r)
    gaps = read_gaps(args.gaps)
    spec = ReconstructionSpec(
        bin_width=r["bin_width"] * scale, t_max=r["t_max"] * scale,
        lambda_hint=r["rate_hint"], tail_correction=r["tail_correction"],
        min_preceding_gap=(r["min_preceding_gap"] * scale
                           if r["min_preceding_gap"] is not None else None))
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
