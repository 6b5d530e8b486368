"""Click statistics for independent measurement windows.

Between windows the detector input stays dark long enough for a full
recovery, so windows do not influence each other.  The probability of n
clicks given a coherent amplitude is an ordered-time integral of the pulse
density; in the number basis the probability of n clicks given m photons is

    P(n|m) = m!/(m-n)! * int over ordered times of
             density_factor * (1 - exposure)^(m-n),

zero for m < n (a detector cannot click more often than photons arrive).
With a hard dead time tau_d at most floor(tau_m/tau_d) + 1 clicks fit into
a window, so conditional matrices are banded from above as well.

Conditional probabilities are computed at unit efficiency and zero dark
rate; realistic eta and nu belong to the photon-number distribution of the
state (or, on the coherent route, to the effective mean), which leaves the
conditional matrix unchanged.

The dead-time-only detector admits closed forms built from binomial
weights with the adjusting efficiencies (tau_m - k*tau_d)/tau_m; they are
used both as a fast path and as an independent check on the quadrature.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from . import renewal
from .detector import DetectorConfig
from .errors import ConsistencyError, DomainError
from .parallel import map_indexed
from .quadrature import QuadratureSpec
from .results import ClickDistribution, ConditionalMatrix
from .states import PhotonNumberDist, squeezed_density_from_weights
from .weights import no_count_exposure, window_integral

DEFAULT_SPEC = QuadratureSpec()

_EXPOSURE_RAISE = 1e-9  # exposure above 1 by more than this is a hard error
_REDUCED_QMC = 8192      # Sobol budget floor for carried or restricted rows


def power_matrix(base: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """(1-exposure)^(m-n) table, computed in log space with guarded base."""
    if len(base) and float(base.min()) < -_EXPOSURE_RAISE:
        raise ConsistencyError(
            f"exposure exceeds 1 by {-float(base.min()):.3e} at a quadrature node")
    b = np.clip(base, 0.0, None)
    lb = np.log(np.where(b > 0, b, 1.0))
    out = np.exp(lb[:, None] * exps[None, :])
    zero = b == 0
    if zero.any():
        out[zero, :] = (exps == 0).astype(float)[None, :]
    return out


def fock_row(config: DetectorConfig, n: int, exps: np.ndarray,
             spec: QuadratureSpec, carry=None, last_click=None):
    """Integrals of density * (1-exposure)^e over the n-click support, per e.

    ``carry`` and ``last_click`` are passed on to ``window_integral``.
    The result has shape (len(exps),), or (len(carry), len(exps)) for a
    1-D array of carries.
    """

    def reduce(dens, expo):
        return dens[:, None] * power_matrix(1.0 - expo, exps)

    val, _ = window_integral(config, n, reduce, spec, carry=carry,
                             last_click=last_click)
    return np.broadcast_to(val, np.shape(carry) + (len(exps),))


def resolve_n_max(config: DetectorConfig, n_max: Optional[int], m_max: int) -> int:
    """Highest click row of an m_max matrix: the click cap unless given."""
    if n_max is None:
        cap = config.max_clicks()
        n_max = m_max if cap is None else min(cap, m_max)
    if not 0 <= n_max <= m_max:
        raise DomainError(f"need 0 <= n_max <= m_max, got n_max={n_max}, m_max={m_max}")
    return n_max


def reduced_spec(spec: QuadratureSpec, dims: int) -> QuadratureSpec:
    """Spec for a carried or last-click-restricted integral over ``dims`` click times.

    Up to five dimensions (nested Gauss under ``auto``) the spec is used as
    given; beyond, the Sobol budget is cut to a sixteenth, at least
    _REDUCED_QMC samples.
    """
    if dims <= 5:
        return spec
    return replace(spec, qmc_samples=max(_REDUCED_QMC, spec.qmc_samples // 16))


def _quadrature_row(config: DetectorConfig, n: int, exps: np.ndarray,
                    spec: QuadratureSpec, carries, last_click) -> np.ndarray:
    """Support integrals of row n for exponents ``exps``, averaged over ``carries``.

    Carries at or beyond the dead time share one support plan, so their
    integrands are evaluated jointly on shared quadrature nodes.  Shorter
    carries shrink the support; they are integrated per node (the plain
    Gauss ladder in low dimension, a tilted Sobol pass otherwise, which is
    plenty for their 1/6 share of the average).
    """
    if carries is None:
        use = spec if last_click is None else reduced_spec(spec, n)
        return fock_row(config, n, exps, use, last_click=last_click)
    taus, tws = carries
    td = config.efficiency.breakpoint or 0.0
    out = np.zeros(len(exps))
    near = taus < td if spec.resolve_method(n) == "nested_gauss" else np.zeros(len(taus), bool)
    for tau, wt in zip(taus[near], tws[near]):
        # per-node rows leave nested Gauss one dimension early
        use = spec if n <= 4 else reduced_spec(replace(spec, method="qmc_sobol"), n + 1)
        out += wt * fock_row(config, n, exps, use, carry=float(tau), last_click=last_click)
    far_t, far_w = taus[~near], tws[~near]
    block = max(1, 64 // max(1, len(exps)))
    use = reduced_spec(spec, n)
    for b0 in range(0, len(far_t), block):
        out += far_w[b0:b0 + block] @ fock_row(
            config, n, exps, use, carry=far_t[b0:b0 + block], last_click=last_click)
    return out


def number_table(config: DetectorConfig, n_max: int, m_max: int, spec: QuadratureSpec,
                 carries=None, last_click=None):
    """Number-basis table P(n|m), shape (n_max+1, m_max+1), of one window.

    The window is entered with the carry average ``carries`` (taus,
    weights), fresh when None; ``last_click`` (lo, hi) restricts its n-th
    click.  Under ``spec.method == "auto"`` a row comes from ``renewal.fock_table``
    when the engine serves the configuration and every entry of the row
    meets ``spec``'s tolerance against its error estimate.  Other rows
    n = 1..n_max are integrated independently (threaded when configured),
    at the ``reduced_spec`` budget when the window is carried or
    restricted.  Row 0 holds the no-click probability, zero under a
    last-click range; rows above the click cap stay zero.

    Returns ``(entries, meta)``; meta records the requested ``method``,
    the ``engines`` of rows 0..n_max ("closed_form" for the zero-click row
    and rows above the cap, else "renewal" or the resolved quadrature
    method) and ``renewal_err``, the largest error estimate of the renewal
    rows taken (None without any).
    """
    cap = config.max_clicks()
    top = n_max if cap is None else min(cap, n_max)
    entries = np.zeros((n_max + 1, m_max + 1))
    taus, tws = (None, None) if carries is None else carries
    if last_click is None and carries is None:
        entries[0, 0] = 1.0
    elif last_click is None:
        expo0 = np.asarray(no_count_exposure(config, taus))
        entries[0, :] = tws @ power_matrix(1.0 - expo0, np.arange(m_max + 1))
    done, renewal_err = {}, None
    if spec.method == "auto" and top >= 1 and renewal.serves(config, m_max):
        value, err = renewal.fock_table(config, top, m_max, carry=taus,
                                        last_click=last_click)
        if tws is not None:
            value, err = np.tensordot(tws, value, 1), np.tensordot(tws, err, 1)
        ok = np.all(spec.accepts(value, err), axis=1)
        done = {n: value[n, n:] for n in range(1, top + 1) if ok[n]}
        if done:
            renewal_err = float(max(err[n].max() for n in done))

    def compute_row(n):
        ms = np.arange(n, m_max + 1)
        perm = np.array([math.perm(int(m), n) for m in ms], dtype=float)
        return perm * _quadrature_row(config, n, ms - n, spec, carries, last_click)

    engines = ["closed_form"] * (n_max + 1)
    for n in range(1, top + 1):
        engines[n] = "renewal" if n in done else spec.resolve_method(n)
    todo = [n for n in range(1, top + 1) if n not in done]
    done.update(zip(todo, map_indexed(compute_row, todo)))
    for n, vals in done.items():
        entries[n, n:] = vals
    return entries, {"method": spec.method, "engines": engines, "renewal_err": renewal_err}


def poisson_weight(n: int, a: float) -> float:
    """Poisson probability of n at mean a: the ideal-profile click probability."""
    if a == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(a) - a - math.lgamma(n + 1))


def coherent_rows(config: DetectorConfig, n_max: int, a: float, spec: QuadratureSpec,
                  carry=None, last_click=None) -> dict:
    """Rows n = 1..n_max of ``renewal.coherent_table`` that meet ``spec``'s tolerance.

    Under ``spec.method == "auto"``, when the engine serves the
    configuration, row n is taken if every one of its values passes
    ``spec.accepts``, as in ``number_table``.
    ``last_click`` is None or the pinned time(s) of the n-th click.
    Returns ``{n: value}`` (a float, or an array over the pinned times);
    empty when the chain is not used.
    """
    if spec.method != "auto" or n_max < 1 or not renewal.serves(config):
        return {}
    value, err = renewal.coherent_table(config, n_max, a, carry=carry, last_click=last_click)
    ok = spec.accepts(value, err)
    return {n: value[n] for n in range(1, n_max + 1) if np.all(ok[n])}


def coherent_integral(config: DetectorConfig, n: int, a: float, spec: QuadratureSpec,
                      carry=None, last_click=None) -> float:
    """a^n times ``window_integral`` of density * exp(-a * exposure) over n >= 1 clicks.

    ``carry`` and ``last_click`` are passed on to ``window_integral``.
    """
    val, _ = window_integral(config, n, lambda dens, expo: dens * np.exp(-a * expo),
                             spec, carry=carry, last_click=last_click)
    return a**n * float(val)


def coherent_row(config: DetectorConfig, n: int, a: float, spec: QuadratureSpec,
                 carry=None, last_click=None) -> float:
    """a^n times the integral of density * exp(-a * exposure) over n clicks.

    This is the n-click probability at effective mean a, or with a float
    ``last_click`` its density in the time of the n-th click; ``carry``
    conditions the window on a click that long before its start.  Without
    a pinned click an ideal profile gives the Poisson weight.  Other rows
    n >= 1 come from ``coherent_rows`` when it serves them (the chain runs
    up to n) and from ``coherent_integral`` otherwise.
    """
    if n < 0:
        raise DomainError("click number must be nonnegative")
    if config.efficiency.kind == "ideal" and last_click is None:
        return poisson_weight(n, a)
    if n == 0:
        return math.exp(-a if carry is None else -a * float(no_count_exposure(config, carry)))
    served = coherent_rows(config, n, a, spec, carry=carry, last_click=last_click)
    if n in served:
        return float(served[n])
    return coherent_integral(config, n, a, spec, carry=carry, last_click=last_click)


def coherent_click_probability(config: DetectorConfig, n: int, alpha_sq: float,
                               spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Probability of n clicks given a coherent state of mean photon number alpha_sq.

    The detector's eta and nu are folded into the effective mean before the
    ordered-time integral is taken.  An ideal profile reduces to the Poisson
    weight without any quadrature.
    """
    cap = config.max_clicks()
    if cap is not None and n > cap:
        return 0.0
    return coherent_row(config, n, config.effective_mean(alpha_sq), spec)


def cond_prob_matrix(config: DetectorConfig, n_max: Optional[int] = None,
                     m_max: int = 0, spec: QuadratureSpec = DEFAULT_SPEC,
                     ) -> ConditionalMatrix:
    """Conditional click probabilities P(n|m) for n = 0..n_max, m = 0..m_max."""
    n_max = resolve_n_max(config, n_max, m_max)
    if config.efficiency.kind == "ideal":
        entries = np.eye(n_max + 1, m_max + 1)
        scenario = "independent:pnr"
        provenance = {"engines": ["closed_form"] * (n_max + 1), "renewal_err": None}
    else:
        entries, provenance = number_table(config, n_max, m_max, spec)
        scenario = "independent"

    entries = np.clip(entries, 0.0, 1.0)
    return ConditionalMatrix(entries=entries, scenario=scenario,
                             config=config.to_json_dict(),
                             meta={"method": spec.method, "seed": spec.seed,
                                   "rel_tol": spec.rel_tol, **provenance})


def regular_irregular_split(config: DetectorConfig, n: int, m: int,
                            spec: QuadratureSpec = DEFAULT_SPEC):
    """P(n|m) split by whether the last recovery interval fits in the window.

    Returns ``(regular, irregular)``.  The regular part collects histories
    whose final dead time closes before the window ends; it vanishes for
    the maximal click number.  Requires a monochromatic mode and a built-in
    profile (the split is defined through the dead-time structure).
    """
    if config.mode.kind != "monochromatic":
        raise DomainError("regular/irregular split requires a monochromatic mode")
    if n < 0 or m < 0:
        raise DomainError("n and m must be nonnegative")
    if config.efficiency.kind == "ideal":
        return (1.0 if n == m else 0.0), 0.0
    if config.efficiency.breakpoint is None:
        raise DomainError("regular/irregular split requires a built-in profile")
    if m < n:
        return 0.0, 0.0
    if n == 0:
        return (1.0 if m == 0 else 0.0), 0.0
    cap = config.max_clicks()
    if cap is not None and n > cap:
        return 0.0, 0.0

    boundary = config.tau_m - config.efficiency.tau_d  # latest regular last click
    perm = float(math.perm(m, n))
    exps = np.array([m - n])
    reg = fock_row(config, n, exps, spec, last_click=(0.0, boundary))
    irr = fock_row(config, n, exps, spec, last_click=(boundary, config.tau_m))
    return perm * float(reg[0]), perm * float(irr[0])


def _binom_weight(m: int, k: int, eta: float) -> float:
    if k > m:
        return 0.0
    return math.comb(m, k) * eta**k * (1.0 - eta) ** (m - k)


def deadtime_closed_form(config: DetectorConfig, n: int, m: int) -> float:
    """P(n|m) of the zero-relaxation detector, no quadrature.

    The regular part is the PNR weight at the adjusting efficiency
    (tau_m - n*tau_d)/tau_m; the irregular part telescopes between the
    adjusting efficiencies of n and n-1 dead times.  The maximal click
    number closes the family by completeness.
    """
    if config.efficiency.kind != "dead_time_only":
        raise DomainError("closed form requires a pure dead-time profile (tau_r = 0)")
    if config.mode.kind != "monochromatic":
        raise DomainError("closed form requires a monochromatic mode")
    if n < 0 or m < 0:
        raise DomainError("n and m must be nonnegative")
    if m < n:
        return 0.0
    td, tm = config.efficiency.tau_d, config.tau_m
    if td == 0.0:
        return 1.0 if n == m else 0.0
    n_dead = config.deadtime_count
    cap = config.max_clicks()
    if n > cap:
        return 0.0

    def eta_adj(j):
        return (tm - j * td) / tm

    if n <= n_dead:
        val = _binom_weight(m, n, eta_adj(n))
        for k in range(n):
            val += _binom_weight(m, k, eta_adj(n)) - _binom_weight(m, k, eta_adj(n - 1))
    else:
        val = 1.0 - sum(_binom_weight(m, k, eta_adj(n_dead)) for k in range(n_dead + 1))
    return min(1.0, max(0.0, val))


def same_count_probability(config: DetectorConfig, n: int) -> float:
    """Probability that n photons produce exactly n clicks (closed form).

    Valid for the exponential-recovery profile with a monochromatic mode.
    This diagonal measures how well the detector distinguishes photon
    numbers; it is 1 for a photon-number-resolving detector and decays as
    dead and relaxation times grow.  Zero and one photon are always fully
    resolved.  For n >= 2, with x = (tau_m - (n-1) tau_d)/tau_r,

        P(n|n) = n!/(2n-1)! x^(n-1) ((tau_m - (n-1) tau_d)/tau_m)^n
                 e^(-x) 1F1(n+1; 2n; x),

    evaluated in logs; the Kummer series has only positive terms, so the
    value keeps its digits at every n (an alternating-sum form loses them
    from n ~ 8).
    """
    if config.mode.kind != "monochromatic":
        raise DomainError("closed form requires a monochromatic mode")
    if config.efficiency.kind != "exponential_recovery":
        raise DomainError("closed form requires the exponential-recovery profile")
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n <= 1:
        return 1.0
    cap = config.max_clicks()
    if cap is not None and n > cap:
        return 0.0
    from scipy.special import gammaln, hyp1f1

    td, tr, tm = config.efficiency.tau_d, config.efficiency.tau_r, config.tau_m
    length = tm - (n - 1) * td
    if length <= 0:
        return 0.0
    x = length / tr
    if x < 700.0:
        # positive-term series; its growth like e^x is taken out in logs
        log_f = math.log(hyp1f1(n + 1, 2 * n, x)) - x
    else:
        # Kummer's transformation, where e^x would overflow:
        # e^(-x) 1F1(n+1; 2n; x) = 1F1(n-1; 2n; -x)
        f = hyp1f1(n - 1, 2 * n, -x)
        if f <= 0.0:
            raise DomainError(f"same-count closed form underflows at n={n}, "
                              f"(tau_m - (n-1) tau_d)/tau_r = {x:.3g}")
        log_f = math.log(f)
    log_p = (gammaln(n + 1) - gammaln(2 * n) + (n - 1) * math.log(x)
             + n * math.log(length / tm) + log_f)
    return min(1.0, math.exp(log_p))


def _required_m_max(state: PhotonNumberDist, bound: float) -> int:
    p = state.probs
    if len(p) >= 2 and p[-2] > 0 and 0 < p[-1] < p[-2]:
        ratio = p[-1] / p[-2]
        extra = math.log(bound * (1 - ratio) / max(state.tail, 1e-300)) / math.log(ratio)
        return state.m_max + max(1, int(math.ceil(extra)))
    return 2 * max(state.m_max, 1)


def click_distribution_independent(state: PhotonNumberDist, config: DetectorConfig,
                                   spec: QuadratureSpec = DEFAULT_SPEC,
                                   ) -> ClickDistribution:
    """Click-number distribution of ``state`` over independent windows."""
    if state.tail > 1e-8:
        raise DomainError(
            f"state tail mass {state.tail:.2e} exceeds 1e-8; "
            f"increase m_max to about {_required_m_max(state, 1e-8)}")
    meta = {"eta": state.eta, "nu": state.nu, "state": state.label,
            "seed": spec.seed}
    if config.efficiency.kind == "ideal":
        return ClickDistribution(probs=state.probs.copy(),
                                 scenario="independent:pnr",
                                 config=config.to_json_dict(), meta=meta)
    matrix = cond_prob_matrix(config, m_max=state.m_max, spec=spec)
    probs = matrix.entries @ state.probs
    total = float(probs.sum()) + state.tail
    if abs(total - 1.0) > 1e-3:
        raise ConsistencyError(
            f"click distribution sums to {total:.6f}; component sums "
            f"{[float(x) for x in probs[:5]]}...")
    return ClickDistribution(probs=probs, scenario="independent",
                             config=config.to_json_dict(), meta=meta)


def squeezed_distribution_direct(config: DetectorConfig, r: float,
                                 n_max: int, spec: QuadratureSpec = DEFAULT_SPEC,
                                 ) -> np.ndarray:
    """Squeezed-vacuum click probabilities via the click-time density route.

    Integrates the closed-form squeezed density over the ordered domain for
    each click number, using the detector's eta and nu.  Serves as the
    independent counterpart of the number-basis route.
    """
    probs = np.zeros(n_max + 1)
    probs[0] = squeezed_density_from_weights(
        np.array([1.0]), np.array([1.0]), 0, r, eta=config.eta, nu=config.nu)[0]
    cap = config.max_clicks()

    def compute(n):
        if cap is not None and n > cap:
            return 0.0

        def reduce(dens, expo):
            return squeezed_density_from_weights(dens, expo, n, r,
                                                 eta=config.eta, nu=config.nu)

        return float(window_integral(config, n, reduce, spec)[0])

    vals = map_indexed(compute, list(range(1, n_max + 1)))
    probs[1:] = vals
    return probs
