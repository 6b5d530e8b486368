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
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from .detector import DetectorConfig
from .errors import ConsistencyError, DomainError
from .independent import (DEFAULT_SPEC, click_distribution_independent,
                          coherent_row, cond_prob_matrix, fock_row, perm_rows,
                          power_matrix, resolve_n_max)
from .quadrature import QuadratureSpec, _gauss
from .results import ClickDistribution, ConditionalMatrix
from .states import PhotonNumberDist
from .weights import no_count_exposure

_TAU_NEAR_ORDER = 6      # Gauss order for the carry average over [0, tau_d]
_TAU_FAR_ORDER = 10      # Gauss order for the carry average over [tau_d, Delta]
_REDUCED_QMC = 8192      # sample budget for high-dimensional kernel rows


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
        if self.window_count < 1:
            raise DomainError("window_count must be at least 1")
        if isinstance(self.memory_depth, str):
            if self.memory_depth != "geometric_limit":
                raise DomainError("memory_depth must be an integer or 'geometric_limit'")
        elif self.memory_depth < 1:
            raise DomainError("memory_depth must be at least 1")


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


def _kernel_spec(spec: QuadratureSpec, dims: int) -> QuadratureSpec:
    """Spec for a kernel integral over ``dims`` free click times.

    Up to five dimensions (nested Gauss under ``auto``) the spec is used as
    given; beyond, the Sobol budget is cut to a sixteenth, at least
    _REDUCED_QMC samples.
    """
    if dims <= 5:
        return spec
    return replace(spec, qmc_samples=max(_REDUCED_QMC, spec.qmc_samples // 16))


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


def _carry_avg_rows(config: DetectorConfig, n: int, exps: np.ndarray,
                    spec: QuadratureSpec, taus: np.ndarray, tws: np.ndarray,
                    last_click=None) -> np.ndarray:
    """Carry-conditioned row integrals averaged over the given tau nodes.

    Carries at or beyond the dead time share one support plan, so their
    integrands are evaluated jointly on shared quadrature nodes.  Shorter
    carries shrink the support; they are integrated per node (the plain
    Gauss ladder in low dimension, a tilted Sobol pass otherwise, which is
    plenty for their 1/6 share of the average).
    """
    td = config.efficiency.breakpoint or 0.0
    out = np.zeros(len(exps))
    method = spec.resolve_method(n)
    near = taus < td if method == "nested_gauss" else np.zeros(len(taus), bool)
    for tau, wt in zip(taus[near], tws[near]):
        # per-node rows leave nested Gauss one dimension early
        use = spec if n <= 4 else _kernel_spec(replace(spec, method="qmc_sobol"), n + 1)
        out += wt * fock_row(config, n, exps, use, carry=float(tau),
                             last_click=last_click)
    far_t, far_w = taus[~near], tws[~near]
    block = max(1, 64 // max(1, len(exps)))
    use = _kernel_spec(spec, n)
    for b0 in range(0, len(far_t), block):
        out += far_w[b0:b0 + block] @ fock_row(
            config, n, exps, use, carry=far_t[b0:b0 + block], last_click=last_click)
    return out


def coherent_click_probability_after_gap(config: DetectorConfig, n: int,
                                         alpha_sq: float, carry: float,
                                         spec: QuadratureSpec = DEFAULT_SPEC,
                                         ) -> float:
    """Probability of n clicks given a click ``carry`` before the window start."""
    if carry < 0:
        raise DomainError("carry gap must be nonnegative")
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
    taus, tws = _carry_nodes(config, delta)

    entries, provenance = perm_rows(
        config, n_max, m_max, spec,
        lambda n, exps: _carry_avg_rows(config, n, exps, spec, taus, tws), carries=(taus, tws))
    expo0 = np.asarray(no_count_exposure(config, taus))
    entries[0, :] = tws @ power_matrix(1.0 - expo0, np.arange(m_max + 1))
    entries = np.clip(entries, 0.0, 1.0)
    return ConditionalMatrix(entries=entries, scenario="cw:carry-averaged",
                             config=config.to_json_dict(),
                             meta={"delta": delta, "seed": spec.seed, **provenance})


def _tail_mass(config: DetectorConfig, m_max: int, delta: float,
               spec: QuadratureSpec, carry_nodes=None) -> np.ndarray:
    """P(last click within ``delta`` of the window end | m photons), per m.

    ``carry_nodes`` (taus, weights) averages the probability over a
    distributed carry-in; without it the window starts fresh.
    """
    last_click = (config.tau_m - delta, config.tau_m)

    def row(n, exps):
        if carry_nodes is not None:
            return _carry_avg_rows(config, n, exps, spec, *carry_nodes,
                                   last_click=last_click)
        return fock_row(config, n, exps, _kernel_spec(spec, n), last_click=last_click)

    entries, _ = perm_rows(config, resolve_n_max(config, None, m_max), m_max, spec, row,
                           carries=carry_nodes, last_click=last_click)
    return entries.sum(axis=0)


def memory_kernels(config: DetectorConfig, cw: CwConfig, m_max: int,
                   spec: QuadratureSpec = DEFAULT_SPEC) -> MemoryKernels:
    """Memory coefficients a_m, b_m, c_m plus the carry-averaged matrix."""
    delta = resolve_delta(config, cw)
    d_matrix = carryover_matrix(config, cw, m_max=m_max, spec=spec)
    a = 1.0 - _tail_mass(config, m_max, delta, spec)
    if config.efficiency.kind == "ideal":
        b = a.copy()  # conditioning has no effect without memory
    else:
        taus, tws = _carry_nodes(config, delta)
        b = 1.0 - _tail_mass(config, m_max, delta, spec, carry_nodes=(taus, tws))
    c = a - b
    return MemoryKernels(a_m=a, b_m=b, c_m=c, d_matrix=d_matrix, delta=delta,
                         meta={"seed": spec.seed})


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


def last_click_density(config: DetectorConfig, alpha_sq: float, tau,
                       spec: QuadratureSpec = DEFAULT_SPEC,
                       carry: Optional[float] = None,
                       n_cut: Optional[int] = None):
    """Density of the last-click offset tau from the window end, coherent input.

    Together with the no-click weight this normalizes to one over a window:
    exp(-a) plus the integral of the density over [0, tau_m] equals 1.
    Accepts an array of offsets.  ``carry`` conditions the window on a
    click before its start.
    """
    a = config.effective_mean(alpha_sq)
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(taus < 0) or np.any(taus > config.tau_m):
        raise DomainError("offset must lie in [0, tau_m]")
    if config.efficiency.kind == "ideal" and carry is None:
        # memoryless case in closed form: a pin with nothing detected after it
        t_pins = config.tau_m - taus
        mass_after = 1.0 - np.asarray(config.mode.cumulative(0.0, t_pins, config.tau_m))
        out = a * np.asarray(config.mode.intensity(t_pins, config.tau_m)) \
            * np.exp(-a * mass_after)
        return out if np.ndim(tau) else float(out[0])
    cap = config.max_clicks()
    if n_cut is None:
        n_cut = cap if cap is not None else int(a + 12 * math.sqrt(a + 1) + 10)
    out = np.zeros(len(taus))
    for j, t in enumerate(taus):
        total = 0.0
        for n in range(1, n_cut + 1):
            term = coherent_row(config, n, a, _kernel_spec(spec, n - 1), carry=carry,
                                last_click=config.tau_m - float(t))
            total += term
            if n > a and term < 1e-9 * max(total, 1e-300):
                break
        out[j] = total
    return out if np.ndim(tau) else float(out[0])


def last_click_density_fock(config: DetectorConfig, m: int, tau,
                            spec: QuadratureSpec = DEFAULT_SPEC,
                            carry: Optional[float] = None):
    """Number-basis last-click density at offset tau given m photons.

    Integrating this over [0, Delta] gives 1 - a_m (or 1 - b_m when the
    carry is itself averaged), which the tests use as an independent check
    on the kernel computation.
    """
    if m < 0:
        raise DomainError("photon number must be nonnegative")
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(taus < 0) or np.any(taus > config.tau_m):
        raise DomainError("offset must lie in [0, tau_m]")
    cap = config.max_clicks()
    n_rows = m if cap is None else min(cap, m)
    out = np.zeros(len(taus))
    for j, t in enumerate(taus):
        total = 0.0
        for n in range(1, n_rows + 1):
            row = fock_row(config, n, np.array([m - n]), _kernel_spec(spec, n - 1),
                           carry=carry, last_click=config.tau_m - float(t))
            total += math.perm(m, n) * float(row[0])
        out[j] = total
    return out if np.ndim(tau) else float(out[0])
