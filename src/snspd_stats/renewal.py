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
one chain of convolutions.  For many photons the chain is exponentially
tilted, every factor times e^(-lambda u), which keeps each convolution
exact and damps the FFT round-off of the series product.

Every table has one layout, (k, rows, grid), from ``_powers`` to the
read-off: the FFTs run along the contiguous grid axis and each term of
the Cauchy product multiplies and adds whole (rows, grid) blocks.

Gaps are shifted by the dead time b and the first click by the support
plan's offset, which leaves every gap factor smooth on the grid whatever b
is.  Convolutions are trapezoid sums taken by FFT, one series product a
step: both factors enter with node 0 halved, the trapezoid's end weights,
and node 0 of the result is zero, a sum over no length.  The last
convolution, against the tail factor that kinks at s = b, is a Gauss rule
split there, with the chained table read off a local interpolant.  Read
at one tail length instead, the table gives the density in the time of a
pinned last click.
Tables at three grid sizes give a Richardson value and an error estimate.

A tabulated recovery curve kinks at every knot.  It is served when every
point where an integrand can kink lies on the coarsest grid's lattice,
the multiples of tau_m/_GRID: the knots the window can reach, the carries
and the last-click bounds and pins (``serves``).  Then every trapezoid
panel is smooth, the h^2 term of the Euler-Maclaurin expansion keeps its
coefficient on all three grids and the Richardson estimate holds.  Such a
curve has no dead time (b = 0), its last convolution is a trapezoid sum on
the grid nodes like the others, and every read-off lands on a node.

At a fixed mean a, coherent light needs no z-series: e^(-a exposure)
factors into one number per gap and for the tail, so the same chain with
scalar factors gives the coherent rows and, before its last step, the
density of the n-th click at every time (``coherent_tables``).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .detector import DetectorConfig
from .errors import DomainError
from .quadrature import _gauss
from .weights import carry_average

# Highest photon number served.  FFT round-off in the zero-padded series
# product grows like (max D / min D)^k with the series degree k.  Untilted,
# for the exponential profile (tau_d = 0.05, tau_r = 0.2) every row passes
# its error test up to m_max = 24; at 28 the test rejects rows 10-11 and at
# 32 rows 9-13.  The tilt below damps that growth: at m_max = 40 and 64
# every row passes, with column sums within 8.0e-9 and 1.8e-8.  No single
# tilt served m_max = 128 or 256, so past the cutoff the engine is skipped
# before it builds any series (figure 5 runs at m = 256).
M_MAX = 64

# Exponential tilt lambda of the z-series chain (see ``_chain``), chosen
# from m_max so that a call builds one table: a ladder of lambdas would
# build one per level.  Up to _UNTILTED_M_MAX the chain runs untilted and
# its tables are those measured above.  Above it, lambda = 30 served every
# row at m_max 28-64 on (tau_d, tau_r) = (0.05, 0.2) and (0.1, 0.3); on
# (0.05, 0.05) and (0.02, 0.1) it rejected no more rows than lambda = 0 or
# 15.  lambda = 40 breaks row 2 on (0.05, 0.2).  The tilt costs low rows
# accuracy: P(2|2) on (0.05, 0.2) is 8.0e-9 off its closed form at
# lambda = 30 against 6.5e-14 untilted, inside the tolerance the rows are
# taken at.
_UNTILTED_M_MAX = 24
_TILT = 30.0

# Coarsest grid size over the window; the Richardson ladder uses N, 2N and
# 4N.  With N = 500 (tau_d = 0.05 tau_m, m <= 8, default tolerance) every
# row passes for tau_r down to 0.005 tau_m; from tau_r = 0.002 tau_m the
# estimate flags the rows the grid does not resolve, and they fall back to
# quadrature.
_GRID = 500

_LAGRANGE = 8      # points of the local interpolant of the chained table (degree 7)
# factor (j, i) of Lagrange weight j is (r - i)/(j - i), and 1 at i = j
_NODES = np.arange(_LAGRANGE)
_SAME = _NODES[:, None] == _NODES
_SPREAD = np.where(_SAME, 1, _NODES[:, None] - _NODES)

# A tabulated curve's kink points may sit this many grid steps off the
# coarsest lattice (float round-off of knots such as 0.01 + 0.02 k).
_LATTICE_TOL = 1e-9

# Gauss order per panel of the last convolution on the coarsest grid.  It
# doubles with the grid, so that a tail the rule does not resolve (a
# recovery much faster than the window) moves the Richardson error
# estimate instead of hiding inside every level alike.
_TAIL_ORDER = 24


def _powers(d: np.ndarray, size: int) -> np.ndarray:
    """Table of d^k/k! for k < size on a new first axis."""
    steps = d / np.arange(1, size).reshape((-1,) + (1,) * np.ndim(d))
    return np.concatenate([np.ones((1,) + np.shape(d)), np.cumprod(steps, axis=0)])


def _series_product(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """Cauchy product over the first axis, truncated to ``size`` coefficients.

    The z-series coefficient is the leading axis, so each step multiplies
    and adds whole contiguous (rows, grid) blocks; the other axes broadcast.
    """
    out = a[:1] * b[:size]
    for j in range(1, min(size, len(a))):
        out[j:] += a[j] * b[:size - j]
    return out


def _interpolate(table: np.ndarray, x: np.ndarray, grid: int) -> np.ndarray:
    """(K, C, P) values at points x (C, P) of a (K, C, grid + 1) grid table."""
    pos = x * grid
    start = np.clip(np.floor(pos).astype(int) - _LAGRANGE // 2 + 1, 0, grid + 1 - _LAGRANGE)
    r = pos - start
    factors = (r[..., None, None] - _NODES) / _SPREAD
    wts = np.where(_SAME, 1.0, factors).prod(axis=-1)
    rows = table[:, np.arange(table.shape[1])[:, None, None], start[..., None] + _NODES]
    return np.einsum("cpj,kcpj->kcp", wts, rows)


def _scaled(config: DetectorConfig):
    """Dead time, efficiency and cumulative recovery in window units."""
    tm, prof = config.tau_m, config.efficiency

    def xi(x):
        return prof.value(tm * x)

    def cum(x):
        return prof.cumulative(tm * x) / tm

    return (prof.breakpoint or 0.0) / tm, xi, cum


def _chain(config: DetectorConfig, carries: Sequence[Optional[float]], weights: np.ndarray,
           weight: Callable, click: float, n_max: int, grid: int, tilt: float = 0.0):
    """Chained weight of the n-th click on one grid, for n = 1..n_max.

    ``weight(elapsed, exposed)`` is a factor's weight for a stretch of
    ``elapsed`` window time of which ``exposed`` was detectable, with the
    z-series coefficients (or a single value) on a new first axis.  Each
    click adds ``click`` times the efficiency at its gap.  The first
    stretch starts at the window start, fully detectable when fresh (carry
    None), or under the recovery from a click ``carry`` earlier.

    Yields ``(n, length, table)``: table[k, c, j] belongs to the n-th click
    at 1 - length[c] + j/grid, so the grid starts at the click's earliest
    time and ``length`` is what remains of the window.  A table keeps
    max(1, K - n + 1) coefficients: all a series row n needs, or its one
    value.

    Row c is the ``weights``-weighted sum of the carries that share its
    grid: the chain is linear in its first factor, so every carry at or
    past the dead time (offset 0) joins one row, and the rows add up to
    the carry average.

    With ``tilt`` = lambda every factor is multiplied by e^(-lambda u) on its
    grid, so the table holds the n-th click's weight times e^(-lambda j/grid);
    each trapezoid sum keeps its terms, only scaled, and ``_with_tail``
    undoes the factor at the read-off.
    """
    tm = config.tau_m
    b, xi, cum = _scaled(config)
    h = 1.0 / grid
    u = np.arange(grid + 1) * h
    damp = np.exp(-tilt * u)
    size = 1 << (2 * (grid + 1) - 1).bit_length()  # FFT length: linear convolution
    psi = click * damp * xi(b + u) * weight(b + u, cum(b + u))  # (K, grid + 1)
    psi[:, 0] *= 0.5  # trapezoid end weight
    psi_hat = np.fft.rfft(psi[:, None], size)

    offsets = np.array([0.0 if c is None else max(0.0, b - c / tm) for c in carries])
    first = damp * np.stack([
        click * weight(u, u) if c is None else
        click * xi(c / tm + t) * weight(t, cum(c / tm + t) - cum(c / tm))
        for c, t in zip(carries, offsets[:, None] + u)], axis=1)
    offsets, row = np.unique(offsets, return_inverse=True)
    table = (weights * (row == np.arange(len(offsets))[:, None])) @ first
    for n in range(1, n_max + 1):
        yield n, 1.0 - offsets - (n - 1) * b, table
        if n < n_max:
            table = table[:max(1, len(psi) - n)]
            # a lone node 0 transforms to a constant: this halves the table's node 0
            spectrum = np.fft.rfft(table, size) - 0.5 * table[..., :1]
            table = h * np.fft.irfft(_series_product(spectrum, psi_hat, len(table)),
                                     size)[..., :grid + 1]
            table[..., 0] = 0.0  # a trapezoid over zero length


def _with_tail(config: DetectorConfig, table: np.ndarray, length: np.ndarray,
               s: np.ndarray, grid: int, weight: Callable, tilt: float = 0.0) -> np.ndarray:
    """(k, C, P) chained table at tail lengths s (C or 1, P) times the tail weight.

    The table is read off its local interpolant at 1 - s, or at the node
    there for a tabulated curve (``serves`` put every read-off on one), and
    its ``_chain`` tilt undone there; a tail longer than ``length`` leaves
    no room for the click and gives zero.
    """
    _, _, cum = _scaled(config)
    pos = length[:, None] - s
    at = np.clip(pos, 0.0, 1.0)
    if config.efficiency.kind == "tabulated":
        head = table[:, np.arange(table.shape[1])[:, None], np.rint(at * grid).astype(int)]
    else:
        head = _interpolate(table, at, grid)
    head = head * np.exp(tilt * at)
    product = _series_product(head, weight(s, cum(s)), len(table))
    return np.where(pos >= 0.0, product, 0.0)


def _tail_integral(config: DetectorConfig, table: np.ndarray, length: np.ndarray,
                   span: Tuple[float, float], order: int, grid: int,
                   weight: Callable, tilt: float = 0.0) -> Optional[np.ndarray]:
    """(k, C) integral of ``_with_tail`` over tails s in ``span``.

    The Gauss rule is split at s = b, where the tail weight kinks.  A
    tabulated curve's tail weight kinks at its knots, which ``serves`` put
    on the grid nodes with the span's ends: its tail is a trapezoid sum on
    those nodes (it has no dead time, so ``length`` is 1).  None when no
    carry leaves room for a tail in the span.
    """
    if config.efficiency.kind == "tabulated":
        j = np.arange(round(max(0.0, span[0]) * grid), round(min(1.0, span[1]) * grid) + 1)
        if len(j) < 2:
            return None
        ws = np.full(len(j), 1.0 / grid)
        ws[[0, -1]] *= 0.5
        return np.einsum("p,kcp->kc", ws, _with_tail(config, table, length, j[None] / grid,
                                                      grid, weight, tilt))
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
    return np.einsum("cp,kcp->kc", ws, _with_tail(config, table, length, s, grid, weight, tilt))


def _richardson(level: Callable):
    """Richardson value over grids N, 2N, 4N and its distance from the coarser pair's.

    ``level(grid, order)`` computes the table on one grid, with the tail
    rule's order doubling alongside.
    """
    t = [level(_GRID << i, _TAIL_ORDER << i) for i in range(3)]
    coarse = (4.0 * t[1] - t[0]) / 3.0
    value = (4.0 * t[2] - t[1]) / 3.0
    return value, np.abs(value - coarse)


def _coefficients(config: DetectorConfig, n_max: int, weight: Callable, click: float,
                  size: int, carries: Sequence[Optional[float]], weights: np.ndarray,
                  tails: Sequence[Union[float, Tuple[float, float]]], grid: int, order: int,
                  tilt: float) -> np.ndarray:
    """[z^k] F_n in window units per tail, shape (tails, n_max + 1, size, rows).

    One chain on one grid with factor ``weight`` and click weight ``click``;
    the rows are ``_chain``'s and ``size`` is the weight's series length.  A
    tail span (lo, hi) integrates the tail length over it; a float tail
    length pins the n-th click, and its entry is the density in that
    click's time.  Row 0 is zero.
    """
    pinned = [i for i, tail in enumerate(tails) if np.ndim(tail) == 0]
    spans = [i for i, tail in enumerate(tails) if np.ndim(tail)]
    pins = np.array([tails[i] for i in pinned])
    out = np.zeros((len(tails), n_max + 1, size, 1))  # stays zero when n_max = 0
    for n, length, table in _chain(config, carries, weights, weight, click, n_max, grid, tilt):
        if n == 1:
            out = np.zeros((len(tails), n_max + 1, size, table.shape[1]))
        k = len(table)
        rows = [_tail_integral(config, table, length, tails[i], order, grid, weight, tilt)
                for i in spans]
        live = pins.size > 0 and np.any(length[:, None] >= pins)
        if not live and all(row is None for row in rows):
            break  # every later row is past the click cap
        if live:
            out[pinned, n, :k] = np.moveaxis(_with_tail(config, table, length, pins[None], grid,
                                                        weight, tilt), -1, 0) / config.tau_m
        for i, row in zip(spans, rows):
            if row is not None:
                out[i, n, :k] = row
    return out


def _carries_and_tails(config: DetectorConfig, last_clicks, carries):
    """Checked carries and the tails of ``last_clicks`` in window units.

    Carries come back as ``(taus, weights)``, fresh as one carry None of weight 1;
    a tail is a span for None or (lo, hi) and a length for a pinned click.
    """
    taus, weights = [None], np.ones(1)
    if carries is not None:
        taus, weights = carry_average(carries)
        taus = [float(c) for c in taus]
    tm = config.tau_m
    tails = [(0.0, 1.0) if lc is None else
             (tm - lc) / tm if np.ndim(lc) == 0 else (1.0 - lc[1] / tm, 1.0 - lc[0] / tm)
             for lc in last_clicks]
    return taus, weights, tails


def serves(config: DetectorConfig, m_max: int = 0,
           last_clicks: Sequence[Union[None, float, Tuple[float, float]]] = (None,),
           carries: Optional[Tuple[Sequence[float], Sequence[float]]] = None) -> bool:
    """Whether the engine covers this configuration, photon range and window.

    Tabulated modes are not shift-invariant.  A tabulated recovery curve
    kinks at every knot, and a kink between grid nodes breaks the h^2 error
    expansion the Richardson estimate rests on: with one fixed tail rule
    the estimate read 6e-17 against a true error of 2.3e-7.  So the curve
    is served only when every kink point lies on the lattice of the
    coarsest grid, multiples of tau_m/_GRID: every knot in [0, tau_m + the
    largest carry], every carry and every bound and pin of ``last_clicks``
    (the forms of ``fock_tables``).  One point off the lattice and the
    chain does not run for any of them.
    """
    if config.mode.kind != "monochromatic" or m_max > M_MAX:
        return False
    if config.efficiency.kind != "tabulated":
        return True
    tm = config.tau_m
    taus = np.zeros(0) if carries is None else np.asarray(carries[0], dtype=float) / tm
    knots = np.array([t for t, _ in config.efficiency.table]) / tm
    reach = knots <= 1.0 + (taus.max() if len(taus) else 0.0)
    bounds = [float(t) / tm for lc in last_clicks if lc is not None for t in np.atleast_1d(lc)]
    steps = np.concatenate([knots[reach], taus, bounds]) * _GRID
    return bool(np.all(np.abs(steps - np.rint(steps)) <= _LATTICE_TOL))


def fock_tables(config: DetectorConfig, n_max: int, m_max: int,
                last_clicks: Sequence[Union[None, float, Tuple[float, float]]],
                carries: Optional[Tuple[Sequence[float], Sequence[float]]] = None):
    """Every P(n|m) row of a monochromatic-mode window, per last click, off one chain.

    Returns one ``(entries, err)`` per last click, both (n_max + 1, m_max +
    1): entries[n, m] for 1 <= n <= m, ``independent.fock_row``'s integral
    times m!/(m - n)!, and a Richardson error estimate; row 0 and entries
    with m < n are zero.  ``carries = (taus, weights)`` enters the window
    with that weighted sum over clicks taus before its start, its estimate
    the sum of the chain rows' (``_chain``).  A last click (lo, hi)
    restricts the time of the n-th click; a float pins it there, and
    entries[n, m] is the density in that time with no click after it.
    """
    if not serves(config, m_max, last_clicks, carries):
        raise DomainError("the renewal engine needs a monochromatic mode, a built-in "
                          "recovery profile or one whose knots, carries and last clicks "
                          f"lie on its grid, and m_max <= {M_MAX}")
    if not 0 <= n_max <= m_max:
        raise DomainError("the renewal engine needs 0 <= n_max <= m_max")
    taus, weights, tails = _carries_and_tails(config, last_clicks, carries)
    fact = np.array([math.factorial(m) for m in range(m_max + 1)], dtype=float)
    tilt = 0.0 if m_max <= _UNTILTED_M_MAX else _TILT

    def weight(elapsed, exposed):
        return _powers(np.maximum(elapsed - exposed, 0.0), m_max)

    def level(grid, order):
        coef = _coefficients(config, n_max, weight, 1.0, m_max, taus, weights, tails,
                             grid, order, tilt)
        entries = np.zeros(coef.shape[:2] + (m_max + 1,) + coef.shape[3:])
        for n in range(1, n_max + 1):
            entries[:, n, n:] = fact[n:, None] * coef[:, n, :m_max - n + 1]
        return entries

    value, err = _richardson(level)
    # rows on different grids have independent errors; a shared grid's row
    # sums its carries before the estimate is taken
    return list(zip(value.sum(axis=-1), err.sum(axis=-1)))


def coherent_tables(config: DetectorConfig, n_max: int, a: float,
                    last_clicks: Sequence[Union[None, float, Tuple[float, float]]],
                    carries: Optional[Tuple[Sequence[float], Sequence[float]]] = None):
    """Coherent click rows at effective mean ``a``, per last click, off one chain.

    At a fixed mean every factor is one number: a xi(g) e^(-a C(g)/tau_m)
    for a click after a gap g, a e^(-a t_1/tau_m) for a fresh first click
    (with a carry, its carried efficiency and exposure) and
    e^(-a C(s)/tau_m) for the tail s.  Apart from the factor a each is at
    most 1, so the chain needs no photon-number cap and gains no round-off
    with n; its table A_n(t) is the density of the n-th click at t.

    ``last_clicks`` and ``carries`` take the forms of ``fock_tables``.
    Returns one ``(value, err)`` of shape (n_max + 1,) per last click:
    value[n] is the probability of n clicks, the integral of A_n times the
    tail weight, or at a pin t the density A_n(t) e^(-a C(tau_m - t)/tau_m)
    of an n-th click there with none after it.  Row 0 is zero.
    """
    if not serves(config, 0, last_clicks, carries):
        raise DomainError("the renewal engine needs a monochromatic mode and a built-in "
                          "recovery profile or one whose knots, carries and last clicks "
                          "lie on its grid")
    if n_max < 0:
        raise DomainError("the renewal engine needs n_max >= 0")
    taus, weights, tails = _carries_and_tails(config, last_clicks, carries)

    def weight(elapsed, exposed):
        return np.exp(-a * exposed)[None]

    def level(grid, order):
        return _coefficients(config, n_max, weight, a, 1, taus, weights, tails,
                             grid, order, 0.0)[:, :, 0]

    value, err = _richardson(level)
    return list(zip(value.sum(axis=-1), err.sum(axis=-1)))
