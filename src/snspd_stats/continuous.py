"""Continuous-wave detection: back-to-back windows with a memory effect.

Without darkening between windows the detector may enter a window only
partially recovered from the last click of the previous one.  Under the
Markovian approximation (dead plus relaxation time much shorter than the
window) only that last click matters, and its offset tau from the window
boundary conditions the click statistics of the next window.

The uniform-distribution approximation compresses the memory into a single
number: within a short interval Delta before the boundary the last-click
offset is modeled as uniform, and

    Lambda(n|m) = [P(n|m) - D(n|m)] * q + D(n|m),

where P is the independent-window conditional matrix, D its tau-average
over [0, Delta], and q the probability that the previous window left no
click inside that interval.  q follows the recurrence q_k = b_k + c_k *
q_{k-1} with q_0 = 1 (the first window has no history), with per-window
coefficients obtained by averaging two kernels over the state:

    a_m = 1 - P(last click within Delta of the end | m photons, fresh),
    b_m = the same probability complement for a window whose carry-in is
          itself uniform on [0, Delta],
    c_m = a_m - b_m.

Because every factor of the series is bounded by 1 and |c| < 1 in any
physical regime, the window-number dependence decays geometrically and the
process is effectively ergodic after a few windows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from .detector import DetectorConfig
from .errors import ConsistencyError, DomainError
from .independent import (DEFAULT_SPEC, click_distribution_independent, coherent_row,
                          coherent_rows, cond_prob_matrix, number_table, number_tables,
                          resolve_n_max)
from .quadrature import QuadratureSpec, _gauss
from .results import ClickDistribution, ConditionalMatrix
from .states import PhotonNumberDist

_TAU_NEAR_ORDER = 6      # Gauss order for the carry average over [0, tau_d]
_TAU_FAR_ORDER = 10      # Gauss order for the carry average over [tau_d, Delta]


@dataclass(frozen=True)
class CwConfig:
    """Continuous-wave run parameters.

    ``delta`` is the uniform-approximation interval; left unset it becomes
    the earliest time at which the efficiency has essentially recovered,
    capped at 0.3 of the window.  ``memory_depth`` truncates the memory
    series; ``"geometric_limit"`` sums it in closed form for i.i.d. input.
    """

    delta: Optional[float] = None
    window_count: int = 3
    memory_depth: Union[int, str] = 8

    def __post_init__(self):
        if self.delta is not None and not 0 < self.delta < math.inf:
            raise DomainError("delta must be positive and finite")
        if not isinstance(self.window_count, (int, np.integer)) or self.window_count < 1:
            raise DomainError("window_count must be an integer of at least 1")
        if isinstance(self.memory_depth, str):
            if self.memory_depth != "geometric_limit":
                raise DomainError("memory_depth must be an integer or 'geometric_limit'")
        elif not isinstance(self.memory_depth, (int, np.integer)) or self.memory_depth < 1:
            raise DomainError("memory_depth must be an integer of at least 1")


def resolve_delta(config: DetectorConfig, cw: CwConfig) -> float:
    """Pick the uniform-approximation interval and warn when it is shaky."""
    prof = config.efficiency
    if cw.delta is not None:
        delta = cw.delta
    else:
        kind = prof.kind
        if kind == "ideal":
            delta = 1e-3 * config.tau_m
        elif kind == "dead_time_only":
            delta = prof.tau_d
        elif kind == "exponential_recovery":
            delta = prof.tau_d + prof.tau_r * math.log(100.0)
        else:
            t = np.asarray([p[0] for p in prof.table])
            v = np.asarray([p[1] for p in prof.table])
            ok = np.nonzero(v >= 0.99)[0]
            delta = float(t[ok[0]]) if len(ok) else float(t[-1])
        delta = min(delta, 0.3 * config.tau_m)
        delta = max(delta, 1e-6 * config.tau_m)
    if delta >= config.tau_m:
        raise DomainError("delta must be smaller than the window")
    if prof.kind != "ideal" and float(prof.value(delta)) < 0.99:
        warnings.warn(
            f"efficiency at delta={delta:g} is {float(prof.value(delta)):.3f} < 0.99; "
            "the uniform-distribution approximation may be inaccurate",
            stacklevel=2)
    return delta


@dataclass(frozen=True)
class MemoryKernels:
    """State-independent memory coefficients and the tau-averaged matrix."""

    a_m: np.ndarray
    b_m: np.ndarray
    c_m: np.ndarray
    d_matrix: ConditionalMatrix
    delta: float
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "meta": self.meta,
            "a_m": [repr(float(v)) for v in self.a_m],
            "b_m": [repr(float(v)) for v in self.b_m],
            "c_m": [repr(float(v)) for v in self.c_m],
            "carry_averaged_matrix": self.d_matrix.to_json_dict(),
        }


def _carry_nodes(config: DetectorConfig, delta: float):
    """Gauss nodes and weights of the uniform average over [0, delta]."""
    td = config.efficiency.breakpoint or 0.0
    cut = min(td, delta)
    panels = [(0.0, cut, _TAU_NEAR_ORDER), (cut, delta, _TAU_FAR_ORDER)] \
        if 0.0 < cut < delta else [(0.0, delta, _TAU_FAR_ORDER)]
    nodes, wts = [], []
    for a, b, order in panels:
        x, w = _gauss(order)
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        wts.append(0.5 * (b - a) * w / delta)
    return np.concatenate(nodes), np.concatenate(wts)


def coherent_click_probability_after_gap(config: DetectorConfig, n: int,
                                         alpha_sq: float, carry: float,
                                         spec: QuadratureSpec = DEFAULT_SPEC,
                                         ) -> float:
    """Probability of n clicks given a click ``carry`` before the window start."""
    if not 0 <= carry < math.inf:
        raise DomainError("carry gap must be finite and nonnegative")
    return coherent_row(config, n, config.effective_mean(alpha_sq), spec, carry=carry)


def carryover_matrix(config: DetectorConfig, cw: CwConfig,
                     n_max: Optional[int] = None, m_max: int = 0,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> ConditionalMatrix:
    """Conditional matrix averaged over a uniform carry-in on [0, Delta].

    For an ideal profile there is no memory and the result equals the
    independent-window matrix exactly.
    """
    if config.efficiency.kind == "ideal":
        out = cond_prob_matrix(config, n_max=n_max, m_max=m_max, spec=spec)
        return ConditionalMatrix(entries=out.entries, scenario="cw:carry-averaged",
                                 config=out.config, meta=out.meta)
    delta = resolve_delta(config, cw)
    n_max = resolve_n_max(config, n_max, m_max)
    entries, provenance = number_table(config, n_max, m_max, spec,
                                       carries=_carry_nodes(config, delta))
    return _carried_matrix(config, delta, entries, provenance, spec)


def _carried_matrix(config: DetectorConfig, delta: float, entries: np.ndarray,
                    provenance: dict, spec: QuadratureSpec) -> ConditionalMatrix:
    """``carryover_matrix``'s result from its number table at a resolved Delta."""
    return ConditionalMatrix(entries=np.clip(entries, 0.0, 1.0), scenario="cw:carry-averaged",
                             config=config.to_json_dict(),
                             meta={"delta": delta, "seed": spec.seed, **provenance})


def memory_kernels(config: DetectorConfig, cw: CwConfig, m_max: int,
                   spec: QuadratureSpec = DEFAULT_SPEC) -> MemoryKernels:
    """Memory coefficients a_m, b_m, c_m plus the carry-averaged matrix.

    The carry-averaged matrix and the b table read one carried chain at
    two last-click ranges (``number_tables``), each bit for bit what
    ``carryover_matrix`` and a carried ``number_table`` give alone.
    ``meta`` records the ``engines``, ``renewal_err`` and ``quad_err`` of
    the a and b tables.
    """
    delta = resolve_delta(config, cw)  # resolved once, so an unrecovered Delta warns once
    if config.efficiency.kind == "ideal":
        d_matrix = carryover_matrix(config, cw, m_max=m_max, spec=spec)
        # no memory: the last Delta is click-free when no photon arrives in it
        before = float(config.mode.cumulative(0.0, config.tau_m - delta, config.tau_m))
        a = before ** np.arange(m_max + 1)
        b = a.copy()
        meta_a = meta_b = {"engines": ["closed_form"] * (m_max + 1), "renewal_err": None,
                           "quad_err": None}
    else:
        n_max = resolve_n_max(config, None, m_max)
        last_click = (config.tau_m - delta, config.tau_m)
        fresh, meta_a = number_table(config, n_max, m_max, spec, last_click=last_click)
        (d_entries, d_meta), (carried, meta_b) = number_tables(
            config, n_max, m_max, spec, [None, last_click], carries=_carry_nodes(config, delta))
        d_matrix = _carried_matrix(config, delta, d_entries, d_meta, spec)
        a, b = 1.0 - fresh.sum(axis=0), 1.0 - carried.sum(axis=0)
    meta = {key: {"a": meta_a[key], "b": meta_b[key]}
            for key in ("engines", "renewal_err", "quad_err")}
    return MemoryKernels(a_m=a, b_m=b, c_m=a - b, d_matrix=d_matrix, delta=delta,
                         meta={"seed": spec.seed, **meta})


def memory_probability_q(kernels: MemoryKernels,
                         states: Sequence[PhotonNumberDist],
                         cw: CwConfig) -> float:
    """Probability that the interval [0, Delta] before the current window is click-free.

    ``states`` lists the previous windows' number distributions, most
    recent first; a single entry is treated as i.i.d. input.  The first
    window of a run has no history and returns 1.  Windows beyond the
    memory depth are treated as fully recovered, which seeds the
    recurrence with 1 exactly like the first window does.
    """
    states = list(states)
    history = cw.window_count - 1
    if history == 0 or not states:
        return 1.0

    def average(st: PhotonNumberDist):
        if st.m_max > len(kernels.b_m) - 1:
            raise DomainError("state m_max exceeds the kernel range")
        b = float(st.probs @ kernels.b_m[:len(st.probs)])
        c = float(st.probs @ kernels.c_m[:len(st.probs)])
        if abs(c) >= 1.0:
            raise DomainError(f"memory series diverges: |c| = {abs(c):.3f} >= 1")
        return b, c

    pairs = [average(st) for st in states]
    if cw.memory_depth == "geometric_limit":
        if len(pairs) != 1:
            raise DomainError("geometric_limit requires a single i.i.d. state")
        b, c = pairs[0]
        q = b / (1.0 - c)
    else:
        depth = min(history, cw.memory_depth)
        if len(pairs) == 1:
            pairs = pairs * depth
        elif len(pairs) < history:
            raise DomainError(f"need {history} previous-window states, got {len(pairs)}")
        q = 1.0
        for b, c in reversed(pairs[:depth]):
            q = b + c * q
    if not -1e-9 <= q <= 1.0 + 1e-9:
        raise ConsistencyError(f"memory probability q = {q} outside [0, 1]")
    return min(1.0, max(0.0, q))


def click_distribution_cw(state: PhotonNumberDist, config: DetectorConfig,
                          cw: CwConfig, spec: QuadratureSpec = DEFAULT_SPEC,
                          history: Optional[List[PhotonNumberDist]] = None,
                          kernels: Optional[MemoryKernels] = None,
                          matrix: Optional[ConditionalMatrix] = None,
                          ) -> ClickDistribution:
    """Click distribution of the l-th back-to-back window for i.i.d. input.

    Heterogeneous histories are accepted through ``history`` (most recent
    first).  Precomputed kernels or conditional matrices can be passed in
    to share work across window counts.
    """
    if state.tail > 1e-8:
        raise DomainError(f"state tail mass {state.tail:.2e} exceeds 1e-8")
    if config.efficiency.kind == "ideal":
        base = click_distribution_independent(state, config, spec)
        return ClickDistribution(probs=base.probs, scenario="cw:pnr",
                                 config=config.to_json_dict(),
                                 meta=dict(base.meta, windows=cw.window_count))
    if matrix is None:
        matrix = cond_prob_matrix(config, m_max=state.m_max, spec=spec)
    if kernels is None:
        kernels = memory_kernels(config, cw, m_max=state.m_max, spec=spec)
    if matrix.m_max < state.m_max or kernels.d_matrix.m_max < state.m_max:
        raise DomainError("precomputed matrices do not cover the state's m_max")
    q = memory_probability_q(kernels, history if history is not None else [state], cw)
    cols = state.m_max + 1
    p_free = matrix.entries[:, :cols] @ state.probs
    p_carry = kernels.d_matrix.entries[:, :cols] @ state.probs
    probs = q * p_free + (1.0 - q) * p_carry
    total = float(probs.sum()) + state.tail
    if abs(total - 1.0) > 1e-3:
        raise ConsistencyError(
            f"cw distribution sums to {total:.6f} "
            f"(free {p_free.sum():.6f}, carry {p_carry.sum():.6f}, q {q:.6f})")
    return ClickDistribution(
        probs=probs, scenario="cw", config=config.to_json_dict(),
        meta={"state": state.label, "eta": state.eta, "nu": state.nu,
              "delta": kernels.delta, "windows": cw.window_count,
              "memory_depth": str(cw.memory_depth), "q": q, "seed": spec.seed})


def _offsets(config: DetectorConfig, tau, carry: Optional[float]) -> np.ndarray:
    """Last-click offsets as a 1-D array, checked together with the carry gap."""
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if not np.all((taus >= 0) & (taus <= config.tau_m)):
        raise DomainError("offset must lie in [0, tau_m]")
    if carry is not None and not 0 <= carry < math.inf:
        raise DomainError("carry gap must be finite and nonnegative")
    return taus


def last_click_density(config: DetectorConfig, alpha_sq: float, tau,
                       spec: QuadratureSpec = DEFAULT_SPEC,
                       carry: Optional[float] = None,
                       n_cut: Optional[int] = None):
    """Density of the last-click offset tau from the window end, coherent input.

    Together with the no-click weight this normalizes to one over a window:
    exp(-a) plus the integral of the density over [0, tau_m] equals 1.
    Accepts an array of offsets.  ``carry`` conditions the window on a
    click before its start.  The density sums rows 1..``n_cut`` (an
    integer of at least 1; by default the click cap, or a + 12 sqrt(a + 1)
    + 10 rows without one), every offset a pinned last click of one
    ``coherent_rows`` call.
    """
    if n_cut is not None and (not isinstance(n_cut, (int, np.integer)) or n_cut < 1):
        raise DomainError("n_cut must be an integer of at least 1")
    a = config.effective_mean(alpha_sq)
    taus = _offsets(config, tau, carry)
    if config.efficiency.kind == "ideal" and carry is None:
        # memoryless case in closed form: a pin with nothing detected after it
        t_pins = config.tau_m - taus
        mass_after = 1.0 - np.asarray(config.mode.cumulative(0.0, t_pins, config.tau_m))
        out = a * np.asarray(config.mode.intensity(t_pins, config.tau_m)) \
            * np.exp(-a * mass_after)
        return out if np.ndim(tau) else float(out[0])
    if n_cut is None:
        cap = config.max_clicks()
        n_cut = cap if cap is not None else int(a + 12 * math.sqrt(a + 1) + 10)
    carries = None if carry is None else ([float(carry)], [1.0])
    tables = coherent_rows(config, range(1, n_cut + 1), a, spec,
                           [config.tau_m - float(t) for t in taus], carries)
    out = np.array([sum(values) for values, _ in tables])  # rows added in order
    return out if np.ndim(tau) else float(out[0])


def last_click_density_fock(config: DetectorConfig, m: int, tau,
                            spec: QuadratureSpec = DEFAULT_SPEC,
                            carry: Optional[float] = None):
    """Number-basis last-click density at offset tau given m photons.

    Integrating this over [0, Delta] gives 1 - a_m (or 1 - b_m when the
    carry is itself averaged).  Every offset is a pinned last click of one
    ``number_tables`` call, so under ``auto`` the density comes from the
    renewal chain the kernels use; an explicit ``nested_gauss`` or
    ``qmc_sobol`` spec bypasses the engine and gives the quadrature
    reference that the tests check a_m against.
    """
    if m < 0:
        raise DomainError("photon number must be nonnegative")
    taus = _offsets(config, tau, carry)
    carries = None if carry is None else ([float(carry)], [1.0])
    tables = number_tables(config, m, m, spec, [config.tau_m - float(t) for t in taus], carries)
    out = np.array([entries[:, m].sum() for entries, _ in tables])
    return out if np.ndim(tau) else float(out[0])
