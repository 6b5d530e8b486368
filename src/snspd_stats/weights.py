"""Per-pulse weights entering every click-statistics integral.

For clicks at ordered times t_1 <= ... <= t_n inside one window the
unnormalized probability density factorizes into

* a density factor  I(t_1) * prod_i I(t_i) xi(t_i - t_{i-1}),  chaining the
  mode intensity with the recovery state left by the previous click, and
* an exposure       int_0^{t_1} I  +  sum_i int_{t_i}^{t_{i+1}} I xi(. - t_i)
                    + int_{t_n}^{tau_m} I xi(. - t_n),
  the accumulated detectable intensity that must produce no further click.

The exposure never exceeds the window normalization, so it lies in [0, 1].
A window that follows a click ``carry`` before its start uses the same
quantities with the first segment evaluated under the carried-over recovery
and the first pulse weighted by xi(carry + t_1).

For monochromatic modes every segment reduces to the closed-form cumulative
integral of xi, which keeps quadrature integrands cheap and smooth.  For
tabulated modes segments are integrated with a fixed Gauss rule split at
the advertised dead-time breakpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .detector import DetectorConfig
from .errors import DomainError
from .quadrature import OrderedTimes, QuadratureSpec, _gauss, integrate_ordered

ArrayLike = Union[float, np.ndarray]

# Sobol budget of a carried, restricted or pinned window: a sixteenth of the
# spec's, at least this many samples
_REDUCED_QMC = 8192


@dataclass(frozen=True)
class PulseWeights:
    """Density factor and exposure for one tuple of click times."""

    density_factor: float
    exposure: float


@dataclass(frozen=True)
class WindowTerms:
    """Vectorized weights for a batch of time tuples, split for reuse.

    ``first_exposure`` is the 0..t_1 portion of the exposure; conditioning
    on a carried-over click replaces only this term and multiplies the
    density by xi(carry + t_1).
    """

    density: np.ndarray
    exposure: np.ndarray
    first_time: np.ndarray
    first_exposure: np.ndarray


@dataclass(frozen=True)
class SupportPlan:
    """Change of variables confining quadrature to the support of the density."""

    first_offset: float
    lower_gap: float
    length: float
    outer_split: Optional[float]


def _mode_xi_segment(config: DetectorConfig, a, b, origin, order: int = 16):
    """int_a^b I(t) xi(t - origin) dt for tabulated modes (vectorized).

    The rule is paneled at the mode's knots (where the interpolant kinks)
    and at the dead-time edge, so piecewise-linear intensities against the
    built-in recovery shapes integrate to quadrature accuracy.
    """
    prof, mode, tm = config.efficiency, config.mode, config.tau_m
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    origin = np.broadcast_to(np.asarray(origin, dtype=float), a.shape)
    x, w = _gauss(order)
    hx = 0.5 * (x + 1.0)
    out = np.zeros_like(a)
    knots = mode.knots.t[1:-1] if mode.kind == "tabulated" else np.empty(0)
    ladder = [a] + [np.clip(np.broadcast_to(k, a.shape), a, b) for k in knots] + [b]
    bp = prof.breakpoint
    for lo0, hi0 in zip(ladder, ladder[1:]):
        if bp is None:
            bounds = [(lo0, hi0)]
        else:
            c = np.clip(origin + bp, lo0, hi0)
            bounds = [(lo0, c), (c, hi0)]
        for lo, hi in bounds:
            width = hi - lo
            t = lo[..., None] + width[..., None] * hx
            vals = mode.intensity(np.clip(t, 0.0, tm), tm) \
                * prof.value(t - origin[..., None])
            out = out + 0.5 * width * (vals @ w)
    return out


def window_terms(config: DetectorConfig, T: np.ndarray) -> WindowTerms:
    """Weights for a (P, n) batch of ordered time tuples, n >= 1."""
    prof, mode, tm = config.efficiency, config.mode, config.tau_m
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[1] < 1:
        raise DomainError("window_terms expects a (P, n) array with n >= 1")
    t1 = T[:, 0]
    tn = T[:, -1]
    gaps = np.diff(T, axis=1)

    if mode.kind == "monochromatic":
        density = prof.value(gaps).prod(axis=1) / tm ** T.shape[1]
        first = t1 / tm
        middle = prof.cumulative(gaps).sum(axis=1) / tm
    else:
        density = mode.intensity(t1, tm)
        for i in range(1, T.shape[1]):
            density = density * mode.intensity(T[:, i], tm) * prof.value(gaps[:, i - 1])
        first = mode.cumulative(np.zeros_like(t1), t1, tm)
        middle = np.zeros_like(t1)
        for i in range(gaps.shape[1]):
            middle = middle + _mode_xi_segment(config, T[:, i], T[:, i + 1], T[:, i])

    exposure = first + middle + tail_exposure(config, tn)
    return WindowTerms(density=density, exposure=exposure,
                       first_time=t1, first_exposure=first)


def carry_adjust(config: DetectorConfig, terms: WindowTerms, carry: ArrayLike):
    """Weights conditioned on a click ``carry`` before the window start."""
    carry = np.asarray(carry, dtype=float)
    density = terms.density * config.efficiency.value(carry + terms.first_time)
    first = lead_exposure(config, terms.first_time, carry)
    exposure = terms.exposure - terms.first_exposure + first
    return density, exposure


def no_count_exposure(config: DetectorConfig, carry: ArrayLike):
    """Exposure of a whole window that follows a click ``carry`` before it.

    This is the zero-click exponent: the no-click probability given a mean
    photon number a and carried-over gap carry is exp(-a * value).  A fresh
    window (carry beyond the recovery horizon) gives 1 by normalization.
    """
    carry = np.asarray(carry, dtype=float)
    if np.any(carry < 0):
        raise DomainError("carry gap must be nonnegative")
    shape = carry.shape if carry.ndim else (1,)
    out = lead_exposure(config, np.full(shape, config.tau_m), carry.reshape(shape))
    return out.reshape(carry.shape) if carry.ndim else float(out[0])


def pulse_weights(config: DetectorConfig, times) -> PulseWeights:
    """Density factor and exposure for one tuple of click times.

    The zero-click convention is (1, 1): no density prefactor and the full
    window exposure.
    """
    times = times if isinstance(times, OrderedTimes) else OrderedTimes(tuple(times))
    if len(times) == 0:
        return PulseWeights(1.0, 1.0)
    arr = times.as_array()
    if arr[-1] > config.tau_m * (1 + 1e-12):
        raise DomainError("click times must lie inside [0, tau_m]")
    terms = window_terms(config, arr[None, :])
    return PulseWeights(float(terms.density[0]), float(terms.exposure[0]))


def pulse_weights_after_gap(config: DetectorConfig, times, carry: float) -> PulseWeights:
    """As ``pulse_weights`` but conditioned on a click ``carry`` before the window."""
    if carry < 0:
        raise DomainError("carry gap must be nonnegative")
    times = times if isinstance(times, OrderedTimes) else OrderedTimes(tuple(times))
    if len(times) == 0:
        return PulseWeights(1.0, float(no_count_exposure(config, carry)))
    arr = times.as_array()
    if arr[-1] > config.tau_m * (1 + 1e-12):
        raise DomainError("click times must lie inside [0, tau_m]")
    terms = window_terms(config, arr[None, :])
    density, exposure = carry_adjust(config, terms, carry)
    return PulseWeights(float(density[0]), float(exposure[0]))


def lead_exposure(config: DetectorConfig, upto, carry):
    """Exposure of [0, upto] for a window entered with a click ``carry`` ago."""
    upto = np.asarray(upto, dtype=float)
    if config.mode.kind == "monochromatic":
        prof = config.efficiency
        return (prof.cumulative(carry + upto) - prof.cumulative(carry)) / config.tau_m
    return _mode_xi_segment(config, np.zeros_like(upto), upto,
                            np.broadcast_to(-carry, upto.shape))


def span_exposure(config: DetectorConfig, t_from, t_to):
    """Exposure of the stretch [t_from, t_to] after a click at t_from."""
    t_from = np.asarray(t_from, dtype=float)
    t_to = np.asarray(t_to, dtype=float)
    if config.mode.kind == "monochromatic":
        return config.efficiency.cumulative(t_to - t_from) / config.tau_m
    return _mode_xi_segment(config, t_from, t_to, t_from)


def tail_exposure(config: DetectorConfig, t_last):
    """Exposure from the last click to the end of the window."""
    t_last = np.asarray(t_last, dtype=float)
    return span_exposure(config, t_last, np.broadcast_to(config.tau_m, t_last.shape))


def qmc_tilt(config: DetectorConfig, pinned: bool = False):
    """Importance-sampling alphas for Sobol integration of the pulse density.

    The exponential-recovery density vanishes linearly in every inter-click
    gap, so gap coordinates get an alpha = 2 Dirichlet tilt (and the slack
    coordinate too when the last click is pinned, where it acts as a gap).
    Near-instant recovery behaves like a pure dead time (the density jumps
    rather than vanishes), where the tilt weight 1/gap would be heavy
    tailed, so such profiles sample the plain simplex like the other kinds.
    """
    prof = config.efficiency
    if prof.kind != "exponential_recovery" or prof.tau_r < 0.01 * prof.tau_d:
        return None
    return (1.0, 2.0, 2.0 if pinned else 1.0)


def support_plan(config: DetectorConfig, n: int, carry: Optional[float] = None) -> SupportPlan:
    """Support-restricting transform parameters for an n-click integral.

    Profiles with a hard dead time vanish unless consecutive clicks are at
    least tau_d apart (and, given a carried-over click, the first click is
    at least tau_d - carry into the window).  The returned plan shifts the
    ordered domain onto exactly that support; ``outer_split`` marks where
    the trailing exposure segment loses smoothness.
    """
    td = config.efficiency.breakpoint
    if td is None or n < 1:
        return SupportPlan(0.0, 0.0, config.tau_m, None)
    first = 0.0 if carry is None else max(0.0, td - carry)
    length = config.tau_m - first - (n - 1) * td
    split = config.tau_m - first - n * td
    return SupportPlan(first, td, length, split if 0 < split < length else None)


def _free_times(n: int, last_click) -> int:
    """Click times a row integrates over: n, or n - 1 with the n-th pinned."""
    return n - 1 if last_click is not None and np.ndim(last_click) == 0 else n


def carry_average(carries) -> Tuple[np.ndarray, np.ndarray]:
    """A carry average ``(taus, weights)`` as two checked 1-D float arrays.

    Raises ``DomainError`` for a carry that is negative or not finite, a
    weight that is not finite, or a weight count that does not match.
    """
    taus, weights = (np.asarray(part, dtype=float) for part in carries)
    if taus.ndim != 1 or weights.shape != taus.shape:
        raise DomainError("carry weights need one weight per carry")
    if not np.all(np.isfinite(taus) & (taus >= 0)):
        raise DomainError("carry gap must be finite and nonnegative")
    if not np.all(np.isfinite(weights)):
        raise DomainError("carry weights must be finite")
    return taus, weights


def window_integral(config: DetectorConfig, n: int,
                    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    spec: QuadratureSpec,
                    carries: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
                    last_click: Union[None, float, Tuple[float, float]] = None):
    """Integral of ``reduce(density, exposure)`` over the n-click support.

    Every full-window statistic is this one ordered-time integral with a
    different reducer of the pulse weights: (1 - exposure)^e for the number
    basis, exp(-a * exposure) for coherent light, the squeezed density.
    ``reduce`` maps the (P,) density and exposure of a batch of click
    tuples to (P,) or (P, K) values.  The support plan, its outer split
    and the Sobol tilt are chosen here.

    ``carries = (taus, weights)`` enters the window with that weighted
    average over clicks taus before its start (``carry_average``); value
    and error estimate are both weighted sums.  Carries that share the
    carry-free support are summed inside one integrand, sum of w *
    reduce(carry_adjust(terms, c)), on one set of nodes (each
    carry-adjusted density vanishes off its own narrower support): every
    carry under Sobol, every carry at or past the dead time under nested
    Gauss.  A carry inside the dead time under nested Gauss keeps its own
    support plan; under ``auto`` its rows with five free times run Sobol.
    ``last_click = (lo, hi)`` restricts the time of the n-th click to
    [lo, hi]; a float ``last_click`` pins it there and leaves the density
    in that time.  The n-1 free times of a pinned integral use the same
    plan up to the pin less the lower gap; for n = 1 the single tuple is
    evaluated.

    A carried, restricted or pinned window whose pass is Sobol runs at a
    sixteenth of ``spec.qmc_samples``, at least _REDUCED_QMC samples.

    Returns ``(value, error)`` like ``integrate_ordered``: a scalar zero
    pair when the support is empty.
    """
    narrowed = carries is not None or last_click is not None
    pin = None if last_click is None or np.ndim(last_click) else float(last_click)

    def integrate(spec, carry, integrand):
        """One pass of ``integrand(terms)`` on the support plan of ``carry``."""
        plan = support_plan(config, n, carry)

        def f(T):
            if pin is not None:
                T = np.column_stack([T, np.full(len(T), pin)])
            return integrand(window_terms(config, T))

        if pin is not None and n == 1:
            if pin < plan.first_offset:
                return 0.0, 0.0
            val = f(np.empty((1, 0)))[0]
            return val, 0.0 * val
        dims, length, outer_range, splits = n, config.tau_m, None, []
        if pin is not None:
            dims, length = n - 1, pin - plan.lower_gap
            if length <= 0:
                return 0.0, 0.0
        else:
            if last_click is not None:
                outer_range = tuple(t - plan.first_offset - (n - 1) * plan.lower_gap
                                    for t in last_click)
            if plan.outer_split is not None:
                splits = [plan.outer_split]
        if (narrowed and spec.method != "nested_gauss"
                and spec.resolve_method(dims) == "qmc_sobol"):
            spec = replace(spec, qmc_samples=max(_REDUCED_QMC, spec.qmc_samples // 16))
        return integrate_ordered(dims, length, f, spec,
                                 lower_gap=plan.lower_gap,
                                 first_offset=plan.first_offset,
                                 outer_range=outer_range, outer_splits=splits,
                                 gap_tilt=qmc_tilt(config, pinned=pin is not None))

    if carries is None:
        return integrate(spec, None, lambda terms: reduce(terms.density, terms.exposure))

    def carried(taus, weights):
        return lambda terms: sum(w * reduce(*carry_adjust(config, terms, c))
                                 for c, w in zip(taus, weights))

    taus, weights = carry_average(carries)
    free = _free_times(n, last_click)
    near = np.zeros(len(taus), bool)
    if spec.resolve_method(free) == "nested_gauss":
        near = taus < (config.efficiency.breakpoint or 0.0)
    # a pass per near carry leaves nested Gauss one dimension early under auto
    own_spec = replace(spec, method="qmc_sobol") if spec.method == "auto" and free == 5 else spec
    value = err = 0.0
    for c, w in zip(taus[near], weights[near]):
        v, e = integrate(own_spec, c, carried([c], [1.0]))
        value, err = value + w * v, err + w * e
    if not near.all():
        v, e = integrate(spec, None, carried(taus[~near], weights[~near]))
        value, err = value + v, err + e
    return value, err
