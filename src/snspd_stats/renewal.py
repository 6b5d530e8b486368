"""Renewal-convolution engine for number-basis and coherent rows of a monochromatic mode.

With a monochromatic mode every factor of the number-basis integrand
depends on a single inter-click gap.  Write D(g) = g - C(g) >= 0, with C
the cumulative recovery of ``EfficiencyProfile.cumulative``.  Then

    1 - exposure = [D_first(t_1) + sum_i D(g_i) + D(s)] / tau_m,

over the n - 1 gaps g_i and the tail s = tau_m - t_n.  A fresh first
segment contributes D_first = 0; after a click ``carry`` before the window
it contributes t_1 - (C(carry + t_1) - C(carry)), and the density gains
xi(carry + t_1).  Expanding (1 - exposure)^(m-n)/(m-n)! as the coefficient
of z^(m-n) in exp(z (1 - exposure)) gives

    P(n|m) = m! tau_m^(-n) [z^(m-n)] F_n,

where F_n is the convolution, taken at tau_m, of the first factor, n - 1
gap factors xi(g) e^(z D(g)/tau_m) and the tail factor e^(z D(s)/tau_m):
the counting structure of a renewal process (Cox, Renewal Theory, 1962;
Mueller, NIM 112, 47 (1973)).  Each factor is stored as a table of its
z-series coefficients (D/tau_m)^k/k! on a uniform grid, so every
coefficient is a sum of positive terms and all click numbers come out of
one chain of convolutions.

Gaps are shifted by the dead time b and the first click by the support
plan's offset, which leaves every gap factor smooth on the grid whatever b
is.  Convolutions are trapezoid sums taken by FFT; the last one, against
the tail factor that kinks at s = b, is a Gauss rule split there, with the
chained table read off a local interpolant.  Tables at three grid sizes
give a Richardson value and an error estimate.

At a fixed mean a, coherent light needs no z-series: e^(-a exposure)
factors into one number per gap and for the tail, so the same chain with
scalar factors gives the coherent rows and, before its last step, the
density of the n-th click at every time (``coherent_table``).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .detector import DetectorConfig
from .errors import DomainError
from .quadrature import _gauss

# Highest photon number served.  FFT round-off in the zero-padded series
# product grows like (max D / min D)^k with the series degree k.  For the
# exponential profile (tau_d = 0.05, tau_r = 0.2) every row passes its error
# test up to m_max = 24; at 28 the test rejects rows 10-11 and at 32 rows
# 8-14, which fall back to quadrature.  Past the cutoff the engine is skipped
# before it builds any series (figure 5 runs at m = 256).
M_MAX = 32

# Coarsest grid size over the window; the Richardson ladder uses N, 2N and
# 4N.  With N = 500 (tau_d = 0.05 tau_m, m <= 8, default tolerance) every
# row passes for tau_r down to 0.005 tau_m; from tau_r = 0.002 tau_m the
# estimate flags the rows the grid does not resolve, and they fall back to
# quadrature.
_GRID = 500

_LAGRANGE = 8      # points of the local interpolant of the chained table (degree 7)

# Gauss order per panel of the last convolution on the coarsest grid.  It
# doubles with the grid, so that a tail the rule does not resolve (a
# recovery much faster than the window) moves the Richardson error
# estimate instead of hiding inside every level alike.
_TAIL_ORDER = 24


def _powers(d: np.ndarray, size: int) -> np.ndarray:
    """Table of d^k/k! for k < size on a new last axis."""
    steps = d[..., None] / np.arange(1, size)
    return np.concatenate([np.ones(d.shape + (1,)), np.cumprod(steps, axis=-1)], axis=-1)


def _series_product(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """Cauchy product over the last axis, truncated to ``size`` coefficients."""
    out = a[..., :1] * b[..., :size]
    for j in range(1, min(size, a.shape[-1])):
        out[..., j:] += a[..., j:j + 1] * b[..., :size - j]
    return out


def _interpolate(table: np.ndarray, x: np.ndarray, grid: int) -> np.ndarray:
    """(C, P, K) values at points x (C, P) of a (C, grid + 1, K) grid table."""
    pos = x * grid
    start = np.clip(np.floor(pos).astype(int) - _LAGRANGE // 2 + 1, 0, grid + 1 - _LAGRANGE)
    r = pos - start
    nodes = np.arange(_LAGRANGE)
    # factor (j, i) of Lagrange weight j: (r - i)/(j - i), and 1 at i = j
    same = nodes[:, None] == nodes
    factors = (r[..., None, None] - nodes) / np.where(same, 1, nodes[:, None] - nodes)
    wts = np.where(same, 1.0, factors).prod(axis=-1)
    rows = table[np.arange(table.shape[0])[:, None, None], start[..., None] + nodes]
    return np.einsum("cpj,cpjk->cpk", wts, rows)


def _scaled(config: DetectorConfig):
    """Dead time, efficiency and cumulative recovery in window units."""
    tm, prof = config.tau_m, config.efficiency

    def xi(x):
        return prof.value(tm * x)

    def cum(x):
        return prof.cumulative(tm * x) / tm

    return (prof.breakpoint or 0.0) / tm, xi, cum


def _chain(config: DetectorConfig, carries: Sequence[Optional[float]],
           weight: Callable, click: float, n_max: int, grid: int):
    """Chained weight of the n-th click on one grid, for n = 1..n_max.

    ``weight(elapsed, exposed)`` is a factor's weight for a stretch of
    ``elapsed`` window time of which ``exposed`` was detectable, with the
    z-series coefficients (or a single value) on a new last axis.  Each
    click adds ``click`` times the efficiency at its gap.  The first
    stretch starts at the window start, fully detectable when fresh, or
    under the recovery from a click ``carry`` earlier.

    Yields ``(n, length, table)``: table[c, j] belongs to the n-th click at
    1 - length[c] + j/grid, so the grid starts at the click's earliest time
    and ``length`` is what remains of the window.  A table keeps
    max(1, K - n + 1) coefficients: all a series row n needs, or its one
    value.
    """
    tm = config.tau_m
    b, xi, cum = _scaled(config)
    h = 1.0 / grid
    u = np.arange(grid + 1) * h
    size = 1 << (2 * (grid + 1) - 1).bit_length()  # FFT length: linear convolution
    psi = click * xi(b + u)[:, None] * weight(b + u, cum(b + u))
    psi_hat = np.fft.rfft(psi, size, axis=0)

    offsets = np.array([0.0 if c is None else max(0.0, b - c / tm) for c in carries])
    table = np.stack([click * weight(u, u) if c is None else
                      click * xi(c / tm + t)[:, None] * weight(t, cum(c / tm + t) - cum(c / tm))
                      for c, t in zip(carries, offsets[:, None] + u)])
    for n in range(1, n_max + 1):
        yield n, 1.0 - offsets - (n - 1) * b, table
        if n < n_max:
            k = max(1, psi.shape[1] - n)
            table = table[..., :k]
            full = np.fft.irfft(_series_product(np.fft.rfft(table, size, axis=1),
                                                psi_hat, k), size, axis=1)[:, :grid + 1]
            table = h * full - 0.5 * h * (_series_product(table[:, :1], psi, k)
                                          + _series_product(table, psi[:1], k))


def _with_tail(config: DetectorConfig, table: np.ndarray, length: np.ndarray,
               s: np.ndarray, grid: int, weight: Callable) -> np.ndarray:
    """(C, P, k) chained table at tail lengths s (C, P) times the tail weight.

    The table is read off its local interpolant at 1 - s; a tail longer
    than ``length`` leaves no room for the click and gives zero.
    """
    _, _, cum = _scaled(config)
    pos = length[:, None] - s
    head = _interpolate(table, np.clip(pos, 0.0, 1.0), grid)
    k = table.shape[-1]
    return np.where((pos >= 0.0)[..., None],
                    _series_product(head, weight(s, cum(s))[..., :k], k), 0.0)


def _tail_integral(config: DetectorConfig, table: np.ndarray, length: np.ndarray,
                   span: Tuple[float, float], order: int, grid: int,
                   weight: Callable) -> Optional[np.ndarray]:
    """(C, k) integral of ``_with_tail`` over tails s in ``span``.

    The Gauss rule is split at s = b, where the tail weight kinks.  None
    when no carry leaves room for a tail in the span.
    """
    b = _scaled(config)[0]
    lo = np.full(len(length), max(0.0, span[0]))
    hi = np.minimum(length, span[1])
    if np.all(hi <= lo):
        return None
    x, w = _gauss(order)
    hx, hw = 0.5 * (x + 1.0), 0.5 * w
    mid = np.clip(b, lo, np.maximum(lo, hi))
    s = np.concatenate([lo[:, None] + (mid - lo)[:, None] * hx,
                        mid[:, None] + (hi - mid)[:, None] * hx], axis=1)
    ws = np.concatenate([np.maximum(mid - lo, 0.0)[:, None] * hw,
                         np.maximum(hi - mid, 0.0)[:, None] * hw], axis=1)
    return np.einsum("cp,cpk->ck", ws, _with_tail(config, table, length, s, grid, weight))


def _richardson(level: Callable):
    """Richardson value over grids N, 2N, 4N and its distance from the coarser pair's.

    ``level(grid, order)`` computes the table on one grid, with the tail
    rule's order doubling alongside.
    """
    t = [level(_GRID << i, _TAIL_ORDER << i) for i in range(3)]
    coarse = (4.0 * t[1] - t[0]) / 3.0
    value = (4.0 * t[2] - t[1]) / 3.0
    return value, np.abs(value - coarse)


def _coefficients(config: DetectorConfig, n_max: int, m_max: int,
                  carries: Sequence[Optional[float]], span: Tuple[float, float],
                  grid: int, order: int) -> np.ndarray:
    """[z^k] F_n in window units, shape (carries, n_max + 1, m_max), on one grid."""

    def weight(elapsed, exposed):
        return _powers(np.maximum(elapsed - exposed, 0.0), m_max)

    out = np.zeros((len(carries), n_max + 1, m_max))
    for n, length, table in _chain(config, carries, weight, 1.0, n_max, grid):
        row = _tail_integral(config, table, length, span, order, grid, weight)
        if row is None:
            break  # every later row is past the click cap
        out[:, n, :row.shape[-1]] = row
    return out


def serves(config: DetectorConfig, m_max: int = 0) -> bool:
    """Whether the engine covers this configuration and photon range.

    Tabulated modes are not shift-invariant.  A tabulated recovery curve
    kinks at every knot, which the last convolution's Gauss rule does not
    resolve: for the exponential curve sampled at step 0.002 the estimate
    of row 1 is 9e-7 (true error 5e-8), so its rows would fail the
    tolerance test and the table would be work thrown away.
    """
    return (config.mode.kind == "monochromatic" and config.efficiency.kind != "tabulated"
            and m_max <= M_MAX)


def fock_table(config: DetectorConfig, n_max: int, m_max: int,
               carry: Union[None, float, Sequence[float]] = None,
               last_click: Optional[Tuple[float, float]] = None):
    """Every P(n|m) row of a monochromatic-mode window in one pass.

    Returns ``(entries, err)``, both (n_max + 1, m_max + 1): entries[n, m]
    for 1 <= n <= m, the integral ``independent.fock_row`` gives times
    m!/(m - n)!, and a Richardson error estimate.  Row 0 and every entry
    with m < n are zero.  ``carry`` conditions the window on a click that
    long before its start; a 1-D array of carries gives a leading carry
    axis.  ``last_click = (lo, hi)`` restricts the time of the n-th click.
    """
    if not serves(config, m_max):
        raise DomainError("the renewal engine needs a monochromatic mode, a built-in "
                          f"recovery profile and m_max <= {M_MAX}")
    if not 0 <= n_max <= m_max:
        raise DomainError("the renewal engine needs 0 <= n_max <= m_max")
    batched = carry is not None and np.ndim(carry) > 0
    carries = [float(c) for c in carry] if batched else [None if carry is None else float(carry)]
    if any(c is not None and c < 0 for c in carries):
        raise DomainError("carry gap must be nonnegative")
    tm = config.tau_m
    span = (0.0, 1.0) if last_click is None else (1.0 - last_click[1] / tm,
                                                   1.0 - last_click[0] / tm)
    fact = np.array([math.factorial(m) for m in range(m_max + 1)], dtype=float)

    def level(grid, order):
        coef = _coefficients(config, n_max, m_max, carries, span, grid, order)
        entries = np.zeros((len(carries), n_max + 1, m_max + 1))
        for n in range(1, n_max + 1):
            entries[:, n, n:] = fact[n:] * coef[:, n, :m_max - n + 1]
        return entries

    value, err = _richardson(level)
    if not batched:
        return value[0], err[0]
    return value, err


def coherent_table(config: DetectorConfig, n_max: int, a: float,
                   carry: Optional[float] = None, last_click=None):
    """Coherent click rows at effective mean ``a`` from one chain of scalar convolutions.

    At a fixed mean every factor is one number: a xi(g) e^(-a C(g)/tau_m)
    for a click after a gap g, a e^(-a t_1/tau_m) for a fresh first click
    (with a carry, its carried efficiency and exposure) and
    e^(-a C(s)/tau_m) for the tail s.  Apart from the factor a each is at
    most 1, so the chain needs no photon-number cap and gains no
    round-off with n.  The chained table A_n(t) is the density of the n-th
    click at t.

    Returns ``(value, err)`` of shape (n_max + 1,): value[n] is the
    probability of n clicks, the integral of A_n times the tail weight.
    With ``last_click`` (a time, or an array of P times) the shape is
    (n_max + 1,) or (n_max + 1, P) and value[n] is the density in the time
    of the n-th click pinned there with none after it, A_n(t) e^(-a
    C(tau_m - t)/tau_m).  Row 0 is zero.
    """
    if not serves(config):
        raise DomainError("the renewal engine needs a monochromatic mode and a "
                          "built-in recovery profile")
    if n_max < 0:
        raise DomainError("the renewal engine needs n_max >= 0")
    if carry is not None and carry < 0:
        raise DomainError("carry gap must be nonnegative")
    tm = config.tau_m
    tails = None if last_click is None else (tm - np.atleast_1d(last_click)) / tm

    def weight(elapsed, exposed):
        return np.exp(-a * exposed)[..., None]

    def level(grid, order):
        out = np.zeros((n_max + 1,) + (() if tails is None else tails.shape))
        for n, length, table in _chain(config, [carry], weight, a, n_max, grid):
            if tails is not None:
                out[n] = _with_tail(config, table, length, tails[None, :], grid,
                                    weight)[0, :, 0] / tm
                continue
            row = _tail_integral(config, table, length, (0.0, 1.0), order, grid, weight)
            if row is None:
                break  # every later row is past the click cap
            out[n] = row[0, 0]
        return out

    value, err = _richardson(level)
    if last_click is not None and np.ndim(last_click) == 0:
        return value[:, 0], err[:, 0]
    return value, err
