"""Stochastic oracle: direct simulation of arrivals, thinning and clicks.

The simulator draws photon arrivals for one window, merges them with a
uniform dark background, sorts, and walks the arrivals in time order: an
arrival at time t becomes a click with probability xi(t - t_last_click).
Only the last click matters for the recovery state, matching the chained
density factor of the analytic model.  Windows either start fresh (fully
recovered detector), with a fixed time since the last click, or contiguous
with the carry threaded from the previous window of the same trial.

Per state kind the arrivals are drawn as

* coherent alpha:  Poisson(eta*|alpha|^2) arrivals with density I(t),
* fock k:          k arrivals, each surviving with probability eta,
* squeezed r:      photon number from the exact even-number weights of the
                   state, then thinned like a Fock state,
* custom:          photon number from the given distribution, then thinned,

plus Poisson(nu) dark arrivals uniform over the window.  The squeezed
weights are computed from the state expansion directly, keeping the oracle
independent of the analytic distribution code.

Everything is vectorized over trials with a counter-based generator
(Philox) and a fixed draw order, so a seed fully determines the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .detector import DetectorConfig
from .errors import DomainError, EstimationError
from .quadrature import OrderedTimes
from .states import StateSpec

_BLOCK = 1 << 18  # trials simulated per vectorized block


@dataclass(frozen=True)
class SimSpec:
    """Simulation size, seeding and carry-in mode."""

    trials: int
    seed: int = 0
    carry_in: str = "fresh"  # fresh | fixed_tau | contiguous
    fixed_tau: float = 0.0
    windows_per_trial: int = 1
    warm_up: int = 4
    collect_gaps: bool = False
    collect_offsets: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        if self.carry_in not in ("fresh", "fixed_tau", "contiguous"):
            raise DomainError(f"unknown carry_in {self.carry_in!r}")
        if self.carry_in == "fixed_tau" and not self.fixed_tau >= 0:
            raise DomainError("fixed_tau must be nonnegative")
        if self.windows_per_trial < 1:
            raise DomainError("windows_per_trial must be at least 1")
        if self.carry_in == "contiguous" and self.windows_per_trial <= self.warm_up:
            raise DomainError("contiguous runs need windows_per_trial > warm_up")


@dataclass(frozen=True)
class SimResult:
    """Empirical click statistics with per-bin standard errors."""

    counts: np.ndarray
    n_windows: int
    interpulse_gaps: Optional[np.ndarray] = None
    last_offsets: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    @property
    def probs(self) -> np.ndarray:
        return self.counts / self.n_windows

    @property
    def stderr(self) -> np.ndarray:
        p = self.probs
        return np.sqrt(p * (1.0 - p) / self.n_windows)

    def mean_clicks(self) -> float:
        return float(np.arange(len(self.counts)) @ self.counts) / self.n_windows

    def to_json_dict(self) -> dict:
        return {
            "meta": self.meta,
            "n_windows": self.n_windows,
            "counts": [int(c) for c in self.counts],
            "probs": [repr(float(p)) for p in self.probs],
            "stderr": [repr(float(s)) for s in self.stderr],
        }

    def to_csv(self) -> str:
        lines = ["n,count,prob,stderr"]
        for n, c in enumerate(self.counts):
            lines.append("%d,%d,%s,%s" % (n, c, repr(float(self.probs[n])),
                                          repr(float(self.stderr[n]))))
        return "\n".join(lines) + "\n"


def _squeezed_number_weights(r: float, tail: float = 1e-10, cap: int = 400) -> np.ndarray:
    """Exact photon-number weights of a squeezed vacuum, truncated at ``tail``."""
    if r == 0.0:
        return np.array([1.0])
    lt = math.log(math.tanh(r) / 2.0)
    lc = math.log(math.cosh(r))
    total, k = 0.0, 0
    vals = {}
    while k <= cap:
        lw = math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1) + 2 * k * lt - lc
        w = math.exp(lw)
        vals[2 * k] = w
        total += w
        if 1.0 - total < tail:
            break
        k += 1
    m_top = 2 * k
    out = np.zeros(m_top + 1)
    for m, w in vals.items():
        out[m] = w
    return out / out.sum()


def _photon_counts(state: StateSpec, config: DetectorConfig, rng, size: int) -> np.ndarray:
    eta = config.eta
    if state.kind == "coherent":
        return rng.poisson(eta * state.alpha0**2, size)
    if state.kind == "fock":
        return rng.binomial(state.k, eta, size) if state.k > 0 else np.zeros(size, dtype=int)
    if state.kind == "squeezed_vacuum":
        w = _squeezed_number_weights(state.r)
        m = rng.choice(len(w), size=size, p=w)
        return rng.binomial(m, eta)
    p = np.asarray(state.probs, dtype=float)
    m = rng.choice(len(p), size=size, p=p)
    return rng.binomial(m, eta)


def _scatter_times(times: np.ndarray, counts: np.ndarray, draws: np.ndarray,
                   col_base: np.ndarray) -> None:
    if draws.size == 0:
        return
    rows = np.repeat(np.arange(len(counts)), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    cols = np.arange(len(draws)) - np.repeat(starts, counts) + np.repeat(col_base, counts)
    times[rows, cols] = draws


def _run_window(config: DetectorConfig, state: StateSpec, rng,
                carry_gap: np.ndarray, collect_gaps: bool):
    """One window for a block of trials; returns clicks, new carry, gap samples."""
    B = len(carry_gap)
    n_sig = _photon_counts(state, config, rng, B)
    n_dark = rng.poisson(config.nu, B) if config.nu > 0 else np.zeros(B, dtype=int)
    k_tot = n_sig + n_dark
    K = int(k_tot.max()) if B else 0
    gaps_out = []
    clicks = np.zeros(B, dtype=np.int64)
    t_last = -carry_gap  # clock zero at window start
    if K > 0:
        times = np.full((B, K), np.inf)
        _scatter_times(times, n_sig,
                       config.mode.sample_times(int(n_sig.sum()), config.tau_m, rng),
                       np.zeros(B, dtype=int))
        _scatter_times(times, n_dark,
                       rng.uniform(0.0, config.tau_m, int(n_dark.sum())), n_sig)
        times.sort(axis=1)
        U = rng.uniform(size=(B, K))
        prof = config.efficiency
        with np.errstate(invalid="ignore"):
            for j in range(K):
                t = times[:, j]
                valid = np.isfinite(t)
                gap = t - t_last
                p = np.asarray(prof.value(np.where(valid, gap, 0.0)))
                acc = valid & (U[:, j] < p)
                if collect_gaps and acc.any():
                    fin = acc & np.isfinite(gap)
                    if fin.any():
                        gaps_out.append(gap[fin])
                t_last = np.where(acc, t, t_last)
                clicks += acc
    new_carry = config.tau_m - t_last
    return clicks, new_carry, gaps_out


def sample_window(state: StateSpec, config: DetectorConfig,
                  carry_tau: Optional[float] = None, rng=None, seed: int = 0,
                  ) -> Tuple[OrderedTimes, Optional[float]]:
    """Simulate a single window; reference implementation, one trial.

    Returns the click times and the offset of the last click from the
    window end (None when the window produced no click).
    """
    if rng is None:
        rng = np.random.Generator(np.random.Philox(seed))
    n_sig = int(_photon_counts(state, config, rng, 1)[0])
    n_dark = int(rng.poisson(config.nu)) if config.nu > 0 else 0
    arrivals = np.concatenate([
        config.mode.sample_times(n_sig, config.tau_m, rng),
        rng.uniform(0.0, config.tau_m, n_dark),
    ])
    arrivals.sort()
    t_last = -carry_tau if carry_tau is not None else -np.inf
    clicks = []
    for t in arrivals:
        if rng.uniform() < float(config.efficiency.value(t - t_last)):
            clicks.append(float(t))
            t_last = t
    offset = (config.tau_m - clicks[-1]) if clicks else None
    return OrderedTimes(tuple(clicks)), offset


def empirical_distribution(state: StateSpec, config: DetectorConfig,
                           sim: SimSpec) -> SimResult:
    """Empirical click distribution over ``sim.trials`` windows (per mode).

    In contiguous mode each trial runs ``windows_per_trial`` back-to-back
    windows, threads the recovery state across them, and discards the first
    ``warm_up`` windows from the aggregate.
    """
    rng = np.random.Generator(np.random.Philox(sim.seed))
    hist = np.zeros(1, dtype=np.int64)
    gaps_all = []
    offsets_all = []
    n_windows = 0

    def accumulate(clicks):
        nonlocal hist, n_windows
        top = int(clicks.max()) + 1 if len(clicks) else 1
        if top > len(hist):
            hist = np.concatenate([hist, np.zeros(top - len(hist), dtype=np.int64)])
        hist += np.bincount(clicks, minlength=len(hist))
        n_windows += len(clicks)

    for start in range(0, sim.trials, _BLOCK):
        B = min(_BLOCK, sim.trials - start)
        if sim.carry_in == "fresh":
            carry = np.full(B, np.inf)
        elif sim.carry_in == "fixed_tau":
            carry = np.full(B, sim.fixed_tau)
        else:
            carry = np.full(B, np.inf)  # the first window has no history
        for w in range(sim.windows_per_trial):
            clicks, carry_next, gaps = _run_window(config, state, rng, carry,
                                                   sim.collect_gaps)
            keep = sim.carry_in != "contiguous" or w >= sim.warm_up
            if keep:
                accumulate(clicks)
                gaps_all.extend(gaps)
                if sim.collect_offsets:
                    offsets_all.append(carry_next.copy())
            if sim.carry_in == "contiguous":
                carry = carry_next
            elif sim.carry_in == "fixed_tau":
                carry = np.full(B, sim.fixed_tau)
            else:
                carry = np.full(B, np.inf)

    return SimResult(
        counts=hist, n_windows=n_windows,
        interpulse_gaps=np.concatenate(gaps_all) if gaps_all else
        (np.empty(0) if sim.collect_gaps else None),
        last_offsets=np.concatenate(offsets_all) if offsets_all else None,
        meta={"seed": sim.seed, "carry_in": sim.carry_in,
              "trials": sim.trials, "state": state.kind,
              "config": config.to_json_dict()})


def simulate_interpulse_gaps(config: DetectorConfig, rate: float, n_gaps: int,
                             seed: int = 0) -> np.ndarray:
    """Draw inter-click gaps of a constant-intensity beam, one click chain per gap.

    Arrivals form a homogeneous Poisson stream of the given rate; after a
    click at time zero candidates at t click with probability xi(t).  The
    time to the first accepted candidate is one gap sample.  Because the
    recovery depends only on the last click, consecutive gaps of a long
    stream are i.i.d. copies of this construction.
    """
    if not (math.isfinite(rate) and rate > 0):
        raise DomainError("rate must be positive and finite")
    if n_gaps < 1:
        raise DomainError("n_gaps must be at least 1")
    rng = np.random.Generator(np.random.Philox(seed))
    prof = config.efficiency
    out = np.empty(n_gaps)
    filled = 0
    t_alive = np.zeros(min(n_gaps, 1 << 22))
    rounds = 0
    while filled < n_gaps:
        rounds += 1
        if rounds > 10000:
            raise EstimationError("gap sampling failed to terminate; is xi ever positive?")
        t_alive = t_alive + rng.exponential(1.0 / rate, len(t_alive))
        acc = rng.uniform(size=len(t_alive)) < prof.value(t_alive)
        done = t_alive[acc]
        take = min(len(done), n_gaps - filled)
        out[filled:filled + take] = done[:take]
        filled += take
        t_alive = t_alive[~acc]
        deficit = n_gaps - filled - len(t_alive)
        if deficit > 0:
            t_alive = np.concatenate([t_alive, np.zeros(deficit)])
    return out
