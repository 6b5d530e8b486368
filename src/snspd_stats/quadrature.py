"""Quadrature over the time-ordered domain 0 <= t_1 <= ... <= t_n <= tau_m.

Two engines are provided.

``nested_gauss`` iterates one-dimensional Gauss-Legendre rules over the
triangular limits.  The point count grows like order**n, so this engine is
restricted to n <= 5.

``qmc_sobol`` maps scrambled Sobol points u in [0,1]^n onto the ordered
domain by sorting each point; sorted uniforms are uniform on the simplex
with constant density n!/L^n, so the Jacobian is exact.  The error is
estimated from independent scramblings.

Both engines support a support-restricting change of variables for
integrands that vanish unless consecutive times are at least ``lower_gap``
apart (and the first time is at least ``first_offset``):

    t_i = s_i + first_offset + (i - 1) * lower_gap,   s in T_n(L),

with L = tau_m - first_offset - (n - 1) * lower_gap.  The map is volume
preserving and covers exactly the support, so integrating f(t(s)) over the
smaller simplex reproduces the original integral while removing the
Heaviside discontinuities from the integrand.  Remaining kinks along the
outermost coordinate can be registered via ``outer_splits`` (s_n values at
which the 1-D rule is split) or the integration of s_n can be restricted
to ``outer_range``.

Integrands are vectorized: f receives an (P, n) array of time tuples and
returns either (P,) or (P, K) values.  Evaluation and reduction follow a
fixed order, so identical specs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, IntegrationError, check_count

_CHUNK = 1 << 16  # max simultaneous integrand evaluations (keeps wide vector integrands in cache)
_QMC_REPLICATES = 8


@dataclass(frozen=True)
class QuadratureSpec:
    """Method selection and accuracy knobs for ordered-domain integrals."""

    method: str = "auto"
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    gauss_order: int = 32
    qmc_samples: int = 1 << 16
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("auto", "nested_gauss", "qmc_sobol"):
            raise DomainError(f"unknown quadrature method {self.method!r}")
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise DomainError("tolerances must be positive and finite")
        for name, minimum in (("gauss_order", 2), ("qmc_samples", 1 << 10), ("seed", 0)):
            check_count(getattr(self, name), name, minimum)

    def accepts(self, value, err) -> np.ndarray:
        """Elementwise test of an error estimate: err <= rel_tol * |value| + abs_tol."""
        return np.asarray(err) <= self.rel_tol * np.abs(np.asarray(value)) + self.abs_tol

    def resolve_method(self, n: int) -> str:
        if self.method == "auto":
            return "nested_gauss" if n <= 5 else "qmc_sobol"
        if self.method == "nested_gauss" and n > 5:
            raise DomainError("nested_gauss is only permitted for dimension n <= 5")
        return self.method


@dataclass(frozen=True)
class OrderedTimes:
    """Strictly ordered click times inside one window."""

    times: Tuple[float, ...]

    def __post_init__(self):
        t = tuple(float(x) for x in self.times)
        if any(b < a for a, b in zip(t, t[1:])):
            raise DomainError("times must be nondecreasing")
        if t and t[0] < 0:
            raise DomainError("times must be nonnegative")
        object.__setattr__(self, "times", t)

    def __len__(self):
        return len(self.times)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.times, dtype=float)


@lru_cache(maxsize=32)
def _gauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def simplex_volume(n: int, length: float) -> float:
    return length**n / math.factorial(n) if length > 0 else 0.0


def _check_finite(vals: np.ndarray, T: np.ndarray) -> None:
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = int(np.argwhere(bad.reshape(vals.shape[0], -1).any(axis=1))[0][0])
        raise IntegrationError(
            f"non-finite integrand value at t = {tuple(T[idx])}"
        )


def _panels(lo: float, hi: float, splits: Sequence[float]):
    pts = [lo] + sorted(s for s in splits if lo < s < hi) + [hi]
    return [(a, b) for a, b in zip(pts, pts[1:]) if b > a]


def _transform(S: np.ndarray, first_offset: float, lower_gap: float) -> np.ndarray:
    if first_offset == 0.0 and lower_gap == 0.0:
        return S
    n = S.shape[1]
    shift = first_offset + lower_gap * np.arange(n)
    return S + shift[None, :]


def _nested_pass(f, n, order, outer_panels, first_offset, lower_gap):
    """One nested Gauss sweep; returns the accumulated weighted sum."""
    x, w = _gauss(order)
    half_x = 0.5 * (x + 1.0)
    acc = None
    # outer nodes over every panel of s_n
    outs, outw = [], []
    for a, b in outer_panels:
        outs.append(0.5 * (b - a) * x + 0.5 * (a + b))
        outw.append(0.5 * (b - a) * w)
    outer_vals = np.concatenate(outs)
    outer_wts = np.concatenate(outw)
    depth = n - 1
    per_outer = order**depth
    group = max(1, _CHUNK // max(per_outer, 1))
    for start in range(0, len(outer_vals), group):
        S = outer_vals[start:start + group, None]
        W = outer_wts[start:start + group]
        for _ in range(depth):
            parent = S[:, -1]
            child = parent[:, None] * half_x[None, :]
            W = (W * 0.5 * parent)[:, None] * w[None, :]
            S = np.repeat(S, order, axis=0)
            S = np.column_stack([S, child.reshape(-1)])
            W = W.reshape(-1)
        T = _transform(S[:, ::-1], first_offset, lower_gap)
        vals = np.asarray(f(T), dtype=float)
        _check_finite(vals, T)
        contrib = W @ vals
        acc = contrib if acc is None else acc + contrib
    return acc


def _sorted_unit_points(n: int, count: int, seed_key) -> np.ndarray:
    from scipy.stats import qmc

    rng = np.random.default_rng(list(seed_key))
    sob = qmc.Sobol(d=n, scramble=True, seed=rng)
    u = sob.random(count)
    u.sort(axis=1)
    return u


def _tilted_points(n: int, L: float, alphas, count: int, seed_key):
    """Dirichlet-tilted simplex points and their inverse density.

    ``alphas`` weights the (first, gap..., slack) coordinates of the
    ordered tuple.  Integrands that vanish linearly in the inter-click
    gaps keep f/q bounded under alpha = 2 tilts, which collapses the
    variance that uniform simplex sampling suffers from.
    """
    from scipy.special import gammaincinv, gammaln
    from scipy.stats import qmc

    rng = np.random.default_rng(list(seed_key))
    sob = qmc.Sobol(d=n + 1, scramble=True, seed=rng)
    u = np.clip(sob.random(count), 1e-15, 1.0 - 1e-15)
    alphas = np.asarray(alphas, dtype=float)
    g = gammaincinv(alphas[None, :], u)
    x = g / g.sum(axis=1, keepdims=True) * L
    S = np.cumsum(x[:, :-1], axis=1)
    log_norm = gammaln(alphas.sum()) - gammaln(alphas).sum()
    log_q = (log_norm - n * math.log(L)
             + ((alphas - 1.0)[None, :] * np.log(np.maximum(x / L, 1e-300))).sum(axis=1))
    return S, np.exp(-log_q)


def _qmc_pass(f, n, L, n_rep, replicates, seed, first_offset, lower_gap, gap_tilt):
    vol = simplex_volume(n, L)
    use_tilt = gap_tilt is not None and n >= 2
    if use_tilt:
        a_first, a_gap, a_slack = gap_tilt
        alphas = np.array([a_first] + [a_gap] * (n - 1) + [a_slack])
    means = []
    for r in range(replicates):
        if use_tilt:
            S, W = _tilted_points(n, L, alphas, n_rep,
                                  (seed & 0xFFFFFFFF, n, 7 + r))
        else:
            S = _sorted_unit_points(n, n_rep, (seed & 0xFFFFFFFF, n, r)) * L
            W = None
        est = None
        for start in range(0, n_rep, _CHUNK):
            T = _transform(S[start:start + _CHUNK], first_offset, lower_gap)
            vals = np.asarray(f(T), dtype=float)
            _check_finite(vals, T)
            if W is not None:
                w = W[start:start + _CHUNK]
                vals = vals * (w if vals.ndim == 1 else w[:, None])
            s = vals.sum(axis=0)
            est = s if est is None else est + s
        scale = (1.0 / n_rep) if use_tilt else (vol / n_rep)
        means.append(est * scale)
    means = np.array(means)
    value = means.mean(axis=0)
    err = means.std(axis=0, ddof=1) / math.sqrt(replicates)
    return value, err


def _qmc_restricted_pass(f, n, outer_panels, order, n_rep, replicates, seed,
                         first_offset, lower_gap):
    """GL rule over the outermost coordinate, sorted QMC over the rest."""
    x, w = _gauss(order)
    inner = n - 1
    vol_fac = 1.0 / math.factorial(inner)
    totals = []
    for r in range(replicates):
        U = _sorted_unit_points(inner, n_rep, (seed & 0xFFFFFFFF, n, 101 + r)) \
            if inner > 0 else None
        total = None
        for a, b in outer_panels:
            nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
            wts = 0.5 * (b - a) * w
            for j, sn in enumerate(nodes):
                if inner > 0:
                    S = np.column_stack([U * sn, np.full(n_rep, sn)])
                    jac = sn**inner * vol_fac
                else:
                    S = np.full((1, 1), sn)
                    jac = 1.0
                T = _transform(S, first_offset, lower_gap)
                vals = np.asarray(f(T), dtype=float)
                _check_finite(vals, T)
                contrib = wts[j] * jac * vals.mean(axis=0)
                total = contrib if total is None else total + contrib
        totals.append(total)
    totals = np.array(totals)
    value = totals.mean(axis=0)
    if replicates > 1:
        err = totals.std(axis=0, ddof=1) / math.sqrt(replicates)
    else:
        err = np.zeros_like(value)
    return value, err


def integrate_ordered(
    n: int,
    tau_m: float,
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec,
    *,
    lower_gap: float = 0.0,
    first_offset: float = 0.0,
    outer_range: Optional[Tuple[float, float]] = None,
    outer_splits: Sequence[float] = (),
    gap_tilt: Optional[Tuple[float, float, float]] = None,
):
    """Integrate f over the ordered domain, optionally support-restricted.

    Returns ``(value, error_estimate)``.  Both are scalars when f returns a
    1-D array of point values and arrays of length K when f returns (P, K).
    With ``lower_gap``/``first_offset`` set, f must vanish off the shifted
    support for the value to equal the full-domain integral.  ``gap_tilt``
    (alpha weights for the first-time, gap and slack coordinates) switches
    the Sobol engine to Dirichlet importance sampling; only valid when f is
    integrable against the tilted density (any bounded f is).
    """
    if n < 1:
        raise DomainError("integrate_ordered requires n >= 1")
    if tau_m <= 0:
        raise DomainError("tau_m must be positive")
    L = tau_m - first_offset - (n - 1) * lower_gap
    if L <= 0:
        return 0.0, 0.0
    lo, hi = (0.0, L) if outer_range is None else outer_range
    lo, hi = max(0.0, lo), min(L, hi)
    if hi <= lo:
        return 0.0, 0.0

    method = spec.resolve_method(n)
    if method == "nested_gauss":
        panels = _panels(lo, hi, outer_splits)
        # order ladder: climb until the tolerance is met, gauss_order caps it
        g = spec.gauss_order
        ladder = sorted({min(g, max(4, g // 4)), min(g, max(6, g // 2)), g})
        value = _nested_pass(f, n, ladder[0], panels, first_offset, lower_gap)
        err = np.abs(np.asarray(value))
        for order in ladder[1:]:
            nxt = _nested_pass(f, n, order, panels, first_offset, lower_gap)
            err = np.abs(np.asarray(nxt) - np.asarray(value))
            value = nxt
            if np.all(spec.accepts(value, err)):
                break
    else:
        n_rep = 1 << max(10, int(round(math.log2(max(spec.qmc_samples, 1024) / _QMC_REPLICATES))))
        # outer splits only serve Gauss smoothness; Sobol needs them solely
        # when the outermost coordinate is genuinely range-restricted
        restricted = outer_range is not None
        if restricted:
            panels = _panels(lo, hi, outer_splits)
            value, err = _qmc_restricted_pass(
                f, n, panels, min(spec.gauss_order, 24), n_rep,
                _QMC_REPLICATES, spec.seed, first_offset, lower_gap)
        else:
            value, err = _qmc_pass(f, n, L, n_rep, _QMC_REPLICATES,
                                   spec.seed, first_offset, lower_gap, gap_tilt)

    if np.ndim(value) == 0:
        return float(value), float(err)
    return np.asarray(value, dtype=float), np.asarray(err, dtype=float)
