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

A click distribution goes through the number basis only when it must.
Summed over a Poisson distribution of mean a, the photon-number factors
of P(n|m) collapse to a^n e^(-a * exposure), so the click distribution of
a coherent state is its coherent rows at a (``coherent_rows``), exact in
the photon number: ``click_distribution_independent`` takes that route
whenever the state records its ``poisson_mean``, and drops only the
clicks past m_max, none when m_max reaches the click cap.  Fock, squeezed
and custom states contract ``cond_prob_matrix`` with their truncated
distribution.

The dead-time-only detector admits closed forms built from binomial
weights with the adjusting efficiencies (tau_m - k*tau_d)/tau_m.
``cond_prob_matrix`` never calls them: they give the figures' shifted
dead-time model and ``matrix --closed-form``, and they are the independent
check on the renewal and quadrature rows.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import renewal
from .detector import DetectorConfig
from .errors import ConsistencyError, DomainError
from .quadrature import QuadratureSpec
from .results import ClickDistribution, ConditionalMatrix
from .states import PhotonNumberDist, check_squeezing, squeezed_density_from_weights
from .weights import _free_times, carry_average, no_count_exposure, window_integral

DEFAULT_SPEC = QuadratureSpec()

_EXPOSURE_RAISE = 1e-9  # exposure above 1 by more than this is a hard error


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
             spec: QuadratureSpec, carries=None, last_click=None):
    """Integrals of density * (1-exposure)^e over the n-click support, per e.

    ``carries`` and ``last_click`` are passed on to ``window_integral``.
    Returns ``(value, error)``, each of shape (len(exps),).
    """

    def reduce(dens, expo):
        return dens[:, None] * power_matrix(1.0 - expo, exps)

    val, err = window_integral(config, n, reduce, spec, carries, last_click)
    return np.broadcast_to(val, exps.shape), np.broadcast_to(err, exps.shape)


def resolve_n_max(config: DetectorConfig, n_max: Optional[int], m_max: int) -> int:
    """Highest click row of an m_max matrix: the click cap unless given."""
    if n_max is None:
        cap = config.max_clicks()
        n_max = m_max if cap is None else min(cap, m_max)
    if not 0 <= n_max <= m_max:
        raise DomainError(f"need 0 <= n_max <= m_max, got n_max={n_max}, m_max={m_max}")
    return n_max


def number_table(config: DetectorConfig, n_max: int, m_max: int, spec: QuadratureSpec,
                 carries=None, last_click=None):
    """Number-basis table P(n|m), shape (n_max+1, m_max+1), of one window.

    The window is entered with the carry average ``carries`` (taus,
    weights), fresh when None; ``last_click`` (lo, hi) restricts its n-th
    click, and a float pins it there (each entry is then the density in
    that time).  Under ``spec.method == "auto"`` the rows come from
    ``renewal.fock_tables`` when the engine serves the configuration, and
    ``_pick_rows`` keeps or integrates each.  Row 0 holds the no-click
    probability, zero under a last click; rows above the click cap stay
    zero.

    Returns ``(entries, meta)``; meta records the requested ``method`` and
    ``_pick_rows``' ``engines`` of rows 0..n_max ("closed_form" for the
    zero-click row and rows above the cap), ``renewal_err`` and ``quad_err``.
    """
    return number_tables(config, n_max, m_max, spec, [last_click], carries)[0]


def number_tables(config: DetectorConfig, n_max: int, m_max: int, spec: QuadratureSpec,
                  last_clicks, carries=None):
    """``number_table`` for several last clicks (ranges or pins) of one window.

    The renewal rows of every last click come from one chain
    (``renewal.fock_tables``); each ``(entries, meta)`` equals
    ``number_table``'s for that range alone, bit for bit.
    """
    carries = None if carries is None else carry_average(carries)
    cap = config.max_clicks()
    top = n_max if cap is None else min(cap, n_max)
    tables = [(None, None)] * len(last_clicks)
    if spec.method == "auto" and top >= 1 and renewal.serves(config, m_max, last_clicks, carries):
        tables = renewal.fock_tables(config, top, m_max, last_clicks, carries)
    return [_number_table(config, n_max, m_max, spec, top, carries, last_click, value, err)
            for last_click, (value, err) in zip(last_clicks, tables)]


def _number_table(config: DetectorConfig, n_max: int, m_max: int, spec: QuadratureSpec,
                  top: int, carries, last_click, value, err):
    """``number_table`` from a renewal table (``value``, ``err``; None when not run)."""
    entries = np.zeros((n_max + 1, m_max + 1))
    if last_click is None and carries is None:
        entries[0, 0] = 1.0
    elif last_click is None:
        taus, tws = carries
        expo0 = np.asarray(no_count_exposure(config, taus))
        entries[0, :] = tws @ power_matrix(1.0 - expo0, np.arange(m_max + 1))

    def integrate(n):
        ms = np.arange(n, m_max + 1)
        perm = np.array([math.perm(int(m), n) for m in ms], dtype=float)
        val, row_err = fock_row(config, n, ms - n, spec, carries, last_click)
        row = np.zeros(m_max + 1)
        row[n:] = perm * val
        return row, float((perm * row_err).max())

    rows = range(1, top + 1)
    chosen, meta = _pick_rows(rows, value, err, spec, integrate, last_click)
    for n, row in zip(rows, chosen):
        entries[n, n:] = row[n:]
    engines = ["closed_form"] * (n_max + 1)
    engines[1:top + 1] = meta["engines"]
    return entries, {"method": spec.method, **meta, "engines": engines}


def _pick_rows(rows, value, err, spec: QuadratureSpec, integrate, last_click):
    """Rows ``rows`` of one table: renewal rows where they meet ``spec``, else integrated.

    ``value`` and ``err`` are the renewal table and its estimate by click
    number, None when the chain did not run.  A row whose entries all pass
    ``spec.accepts`` is taken.  The others are integrated by ``integrate(n)``,
    which gives ``(row, largest estimate)``; a rejected renewal row is kept
    when its largest estimate is below the integrated row's.  Returns the chosen rows and meta: their ``engines``
    ("renewal" or the quadrature method of their free times), and
    ``renewal_err`` and ``quad_err``, the largest estimate of each kind taken.
    """
    if value is None:
        todo = list(rows)
    else:
        ok = spec.accepts(value, err).reshape(len(value), -1).all(axis=1)
        worst = err.reshape(len(err), -1).max(axis=1)
        todo = [n for n in rows if not ok[n]]
    quad = {n: integrate(n) for n in todo}
    chosen, engines, renewal_errs, quad_errs = [], [], [], []
    for n in rows:
        if n in quad and (value is None or quad[n][1] <= worst[n]):
            row, row_err = quad[n]
            engines.append(spec.resolve_method(_free_times(n, last_click)))
            quad_errs.append(row_err)
        else:
            row = value[n]
            engines.append("renewal")
            renewal_errs.append(float(worst[n]))
        chosen.append(row)
    return chosen, {"engines": engines, "renewal_err": max(renewal_errs, default=None),
                    "quad_err": max(quad_errs, default=None)}


def poisson_weight(n: int, a: float) -> float:
    """Poisson probability of n at mean a: the ideal-profile click probability."""
    if a == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(a) - a - math.lgamma(n + 1))


def coherent_rows(config: DetectorConfig, rows, a: float, spec: QuadratureSpec,
                  last_clicks, carries=None):
    """Coherent rows ``rows`` (click numbers >= 1) at effective mean ``a``, per last click.

    ``last_clicks`` and ``carries`` take the forms of ``number_tables``.
    Under ``auto``, when the engine serves the configuration, one chain up
    to the highest row gives the renewal rows (``renewal.coherent_tables``)
    and ``_pick_rows`` picks each last click's rows.  An integrated row is
    a^n times ``window_integral`` of density * exp(-a * exposure), weighted
    over the carries like its estimate.  Returns one ``(values, meta)`` per
    last click, values[i] for rows[i].
    """
    carries = None if carries is None else carry_average(carries)
    tables = [(None, None)] * len(last_clicks)
    if spec.method == "auto" and renewal.serves(config, 0, last_clicks, carries):
        tables = renewal.coherent_tables(config, max(rows), a, last_clicks, carries)

    def pick(last_click, value, err):
        def integrate(n):
            val, row_err = window_integral(config, n, lambda dens, expo: dens * np.exp(-a * expo),
                                           spec, carries, last_click)
            return a**n * float(val), a**n * float(row_err)

        chosen, meta = _pick_rows(rows, value, err, spec, integrate, last_click)
        return np.array(chosen, dtype=float), meta

    return [pick(last_click, value, err) for last_click, (value, err) in zip(last_clicks, tables)]


def coherent_row(config: DetectorConfig, n: int, a: float, spec: QuadratureSpec,
                 carry=None, last_click=None) -> float:
    """a^n times the integral of density * exp(-a * exposure) over n clicks.

    This is the n-click probability at effective mean a, or with a float
    ``last_click`` its density in the time of the n-th click; ``carry``
    conditions the window on a click that long before its start.  Without
    a pinned click an ideal profile gives the Poisson weight.  Other rows
    n >= 1 are ``coherent_rows``' row n alone.
    """
    if n < 0:
        raise DomainError("click number must be nonnegative")
    if config.efficiency.kind == "ideal" and last_click is None:
        return poisson_weight(n, a)
    if n == 0:
        return math.exp(-a if carry is None else -a * float(no_count_exposure(config, carry)))
    carries = None if carry is None else ([carry], [1.0])
    (values, _), = coherent_rows(config, [n], a, spec, [last_click], carries)
    return float(values[0])


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
        provenance = {"engines": ["closed_form"] * (n_max + 1), "renewal_err": None,
                      "quad_err": None}
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
    (reg, _), (irr, _) = number_tables(config, n, m, spec,
                                       [(0.0, boundary), (boundary, config.tau_m)])
    return float(reg[n, m]), float(irr[n, m])


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
    """Cutoff at which the state's tail should fall to ``bound``.

    The tail is extrapolated as geometric from the last two positive
    entries, per index step: a lossless squeezed vacuum populates only
    even numbers, so these may be two steps apart.
    """
    positive = np.nonzero(state.probs > 0)[0][-2:]
    if len(positive) == 2:
        i, j = positive
        ratio = (state.probs[j] / state.probs[i]) ** (1.0 / (j - i))
        if ratio < 1:
            extra = math.log(bound * (1 - ratio) / max(state.tail, 1e-300)) / math.log(ratio)
            return state.m_max + max(1, int(math.ceil(extra)))
    return 2 * max(state.m_max, 1)


def click_distribution_independent(state: PhotonNumberDist, config: DetectorConfig,
                                   spec: QuadratureSpec = DEFAULT_SPEC,
                                   ) -> ClickDistribution:
    """Click-number distribution of ``state`` over independent windows.

    Three routes, recorded in ``meta["route"]``:

    * ``pnr``: an ideal profile gives the photon-number distribution itself.
    * ``coherent``: a coherent state (``state.poisson_mean`` set) skips the
      number basis.  Row 0 is e^(-a) at the Poisson mean a, and rows
      1..top, top = min(click cap, m_max), come from one fixed-mean chain
      (``coherent_rows``), summed over every photon number.
    * ``number_basis``: every other state contracts ``cond_prob_matrix``
      with its truncated distribution.

    The number basis drops the photons past m_max, so a state whose tail
    exceeds 1e-8 is refused.  The coherent route drops only the clicks past
    top, at most that tail, and is refused likewise; when top is the click
    cap its rows cover every click number, the result is exact in the
    photon number and the tail does not apply.  ``meta`` also records the
    rows' ``engines``, ``renewal_err`` and ``quad_err``.
    """
    meta = {"eta": state.eta, "nu": state.nu, "state": state.label, "seed": spec.seed}
    cap = config.max_clicks()
    top = state.m_max if cap is None else min(cap, state.m_max)
    coherent = config.efficiency.kind != "ideal" and state.poisson_mean is not None
    exact = coherent and top == cap
    if state.tail > 1e-8 and not exact:
        raise DomainError(
            f"state tail mass {state.tail:.2e} exceeds 1e-8; "
            f"increase m_max to about {_required_m_max(state, 1e-8)}")
    if config.efficiency.kind == "ideal":
        return ClickDistribution(probs=state.probs.copy(),
                                 scenario="independent:pnr",
                                 config=config.to_json_dict(), meta={**meta, "route": "pnr"})
    if coherent:
        a = state.poisson_mean
        values, rows = [], {"engines": [], "renewal_err": None, "quad_err": None}
        if top >= 1:
            (values, rows), = coherent_rows(config, range(1, top + 1), a, spec, [None])
        probs = np.concatenate([[math.exp(-a)], values])
        provenance = {"route": "coherent", **rows, "engines": ["closed_form"] + rows["engines"]}
    else:
        matrix = cond_prob_matrix(config, m_max=state.m_max, spec=spec)
        probs = matrix.entries @ state.probs
        provenance = {"route": "number_basis",
                      **{k: matrix.meta[k] for k in ("engines", "renewal_err", "quad_err")}}
    total = float(probs.sum()) + (0.0 if exact else state.tail)
    if abs(total - 1.0) > 1e-3:
        raise ConsistencyError(
            f"click distribution sums to {total:.6f}; component sums "
            f"{[float(x) for x in probs[:5]]}...")
    return ClickDistribution(probs=probs, scenario="independent",
                             config=config.to_json_dict(), meta={**meta, **provenance})


def squeezed_distribution_direct(config: DetectorConfig, r: float,
                                 n_max: int, spec: QuadratureSpec = DEFAULT_SPEC,
                                 ) -> np.ndarray:
    """Squeezed-vacuum click probabilities via the click-time density route.

    Integrates the closed-form squeezed density over the ordered domain for
    each click number, using the detector's eta and nu.  Serves as the
    independent counterpart of the number-basis route.
    """
    check_squeezing(r)
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

    probs[1:] = [compute(n) for n in range(1, n_max + 1)]
    return probs
