"""Stochastic oracle: direct simulation of arrivals, thinning and clicks.

An arrival at time t becomes a click with probability xi(t - t_last_click).
Only the last click matters for the recovery state, matching the chained
density factor of the analytic model.  Windows either start fresh (fully
recovered detector), with a fixed time since the last click, or contiguous:
the windows of one trial lie end to end on one clock, so the recovery
state runs on across their edges.

Per state kind the arrivals are drawn as

* coherent alpha:  Poisson(eta*|alpha|^2) arrivals with density I(t),
* fock k:          k arrivals, each surviving with probability eta,
* squeezed r:      photon number from the exact even-number weights of the
                   state, then thinned like a Fock state,
* custom:          photon number from the given distribution, then thinned,

plus Poisson(nu) dark arrivals uniform over the window.  The squeezed
weights are computed from the state expansion directly, keeping the oracle
independent of the analytic distribution code.

The simulator walks arrival streams.  A stream is one trial's row: a
single window that starts at its carry (fresh and fixed-tau modes), or a
chunk of back-to-back windows of one trial (contiguous mode) that starts
where the trial's previous chunk ended.  A chunk's arrivals are drawn at
once, merged with the dark background and sorted along each row.  When a
chunk has few rows, each row is cut into segments of equal length, so that
a step of the walk has enough rows to be worth its numpy calls.  Every
segment is one walk row, and the rows are walked column by column: column j
holds the j-th arrival of every row that has more than j, busiest rows
first, so a step touches only the rows still running.  A walk runs in
passes of one column loop.  The first pass starts a trial's first segment
from its carry and every later one from a guess, no click ever.  Each later
pass starts every segment from the end of the segment before, and stops at
the first column in which every row's last click time equals the one the
pass before left there: from there on every decision is the same.  The
passes end when no start moves, at most one per segment, so the result is
that of one sequential walk, bit for bit.  The walk keeps, for every
arrival, whether it clicked and the last click time; each window's clicks
and last-click offset are read at the window's last arrival.

Everything is vectorized over rows with a counter-based generator (Philox)
and a fixed draw order, so a seed fully determines the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .detector import DetectorConfig
from .errors import DomainError, EstimationError, check_count
from .quadrature import OrderedTimes
from .states import StateSpec

# Windows per chunk at most.  A block holds up to _BLOCK trials; its chunks
# hold one window of each trial, or in contiguous mode _BLOCK // (trials in
# the block) consecutive windows of each, so that a chunk carries no more
# arrivals than a block of fresh windows.
_BLOCK = 1 << 18

# Walk rows to aim for.  A chunk of fewer trials cuts each trial's arrival
# row into up to _WALK_ROWS // trials segments of at least _SEGMENT_MIN
# arrivals, walked side by side in passes of one column loop, the later
# passes only up to the first column that no start change reaches any more
# (see _Streams.walk).  A chunk of 160 trials by about 1 740 arrivals walks
# 25 segments of 70; a block of 2^18 fresh windows is one segment per trial.
_WALK_ROWS = 4096
_SEGMENT_MIN = 32

# Candidates per slice of the gap sampler's acceptance step
_SLICE = 1 << 16

# numpy's Poisson sampler refuses a mean above int64's largest value less
# ten of its standard deviations, about 9.2e18
_POISSON_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


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
        for name, minimum in (("trials", 1), ("seed", 0), ("windows_per_trial", 1),
                              ("warm_up", 0)):
            check_count(getattr(self, name), name, minimum)
        if self.carry_in not in ("fresh", "fixed_tau", "contiguous"):
            raise DomainError(f"unknown carry_in {self.carry_in!r}")
        if self.carry_in == "fixed_tau" and not self.fixed_tau >= 0:
            raise DomainError("fixed_tau must be nonnegative")
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


def _check_poisson_means(state: StateSpec, config: DetectorConfig) -> None:
    """Raise ``DomainError`` for a Poisson mean the sampler cannot draw from."""
    means = {"dark-count mean nu": config.nu}
    if state.kind == "coherent":
        means["coherent mean photon number eta*alpha0^2"] = config.eta * state.alpha0**2
    for what, mean in means.items():
        if mean > _POISSON_MAX:
            raise DomainError(f"{what} = {mean:g} is above the simulator's Poisson limit "
                              f"{_POISSON_MAX:.4g}")


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


def _arrivals(state: StateSpec, config: DetectorConfig, rng, rows: int, windows: int):
    """Arrival times of a chunk, sorted per row, and the arrivals per (row, window).

    A row's windows follow one another on a clock that starts with the
    chunk; rows are padded with inf to the busiest row's count.
    """
    size = rows * windows
    n_sig = _photon_counts(state, config, rng, size)
    n_dark = rng.poisson(config.nu, size) if config.nu > 0 else np.zeros(size, dtype=int)
    sig = config.mode.sample_times(int(n_sig.sum()), config.tau_m, rng)
    dark = rng.uniform(0.0, config.tau_m, int(n_dark.sum()))
    if windows > 1:  # move each arrival into its window
        opens = np.tile(np.arange(windows) * config.tau_m, rows)
        sig += np.repeat(opens, n_sig)
        dark += np.repeat(opens, n_dark)
    counts = (n_sig + n_dark).reshape(rows, windows)
    per_row = counts.sum(axis=1)[:, None]
    sig_row = n_sig.reshape(rows, windows).sum(axis=1)[:, None]
    cols = np.arange(int(per_row.max()))
    times = np.full((rows, len(cols)), np.inf)
    times[cols < sig_row] = sig  # each row's signal arrivals, then its dark ones
    if dark.size:
        times[(cols >= sig_row) & (cols < per_row)] = dark
    times.sort(axis=1)
    return times, counts


class _Streams:
    """The arrival streams of a chunk, cut into segments and laid out column by column.

    Each trial's padded arrival row is cut into ``segments`` pieces of
    ``span`` arrivals, and each piece is one walk row.  Rows go busiest
    first, so column j, the j-th arrival of every row that has more than j,
    holds a prefix of the rows of column j - 1.  Laid-out arrays hold one
    block per column after a leading block of one entry per row, the state
    before the row's first arrival.
    """

    def __init__(self, counts: np.ndarray):
        self.counts = counts  # arrivals per (trial, window)
        per_trial = counts.sum(axis=1)
        trials = len(per_trial)
        self.width = int(per_trial.max())
        self.segments = max(1, min(_WALK_ROWS // trials, self.width // _SEGMENT_MIN))
        self.span = max(1, -(-self.width // self.segments))
        # arrivals per (trial, segment); segment s of trial r, arrivals s * span on,
        # is walk row r * segments + s before the ordering
        self.per_segment = np.clip(per_trial[:, None] - self.span * np.arange(self.segments),
                                   0, self.span).astype(np.min_scalar_type(self.span))
        per_row = self.per_segment.ravel()
        rows = len(per_row)
        # stable on the narrowest key: numpy radix-sorts keys of 16 bits or less
        busy = self.span - per_row
        self.order = np.argsort(busy, kind="stable")  # walk row -> segment
        self.rank = np.empty(rows, dtype=np.int64)  # segment -> walk row
        self.rank[self.order] = np.arange(rows)
        # column j's size: the rows with more than j arrivals
        sizes = rows - np.cumsum(np.bincount(per_row, minlength=self.span))[:self.span]
        ends = rows + np.cumsum(sizes)
        self.starts = np.concatenate([[0], ends - sizes])  # block 0, then column j at j + 1
        self.columns = list(zip(self.starts[1:].tolist(), ends.tolist()))
        # segment s of trial r starts at r * width + s * span of the padded array
        base = self.order // self.segments
        base *= self.width - self.segments * self.span
        base += self.span * self.order
        self._source = np.empty(int(sizes.sum()), dtype=np.int64)  # into (trials, width)
        for j, (b, e) in enumerate(self.columns):
            np.add(base[:e - b], j, out=self._source[b - rows:e - rows])

    def lay_out(self, padded: np.ndarray) -> np.ndarray:
        """Lay out a (trials, width) array; block 0 is left for the walk."""
        rows = len(self.order)
        out = np.empty(rows + len(self._source))
        np.take(padded.ravel(), self._source, out=out[rows:])
        return out

    def walk(self, prof, tau_m: float, times: np.ndarray, uniforms: np.ndarray,
             carry: np.ndarray, keep_from: int, gaps: Optional[list]):
        """Walk the streams in time order; clicks and offsets per (trial, window).

        ``times`` and ``uniforms`` are laid out.  An arrival clicks when its
        uniform is below xi of the time since the row's last click.  Each
        pass sets every segment's start in block 0 and runs the column
        loop: a trial's first segment starts from minus its carry, a later
        one from a guess, no click ever, on the first pass and from the end
        of the segment before on every later pass.  A later pass stops at
        the first column whose rows all meet their states of the pass
        before, since from there on every decision is the same.  The passes
        end when no start moves.  The offset is the time from a window's
        last click to the window's end.  ``gaps`` collects the time since
        the previous click of every click with one, in the windows from
        ``keep_from`` on, by arrival rank and then trial.
        """
        rows, segments, span = len(self.order), self.segments, self.span
        # later segments with arrivals, as walk rows, and the end of the full one before
        trial, segment = np.nonzero(self.per_segment[:, 1:])
        later = self.rank[trial * segments + segment + 1]
        before = self.starts[span] + self.rank[trial * segments + segment]
        state = np.empty(len(times))  # the last click time by each arrival; block 0: before any
        state[:rows] = -np.inf
        state[self.rank[::segments]] = -carry
        missed = np.empty(len(times), dtype=bool)
        column = np.empty(rows)  # a later pass's states of one column
        for p in range(segments):  # pass p leaves segments 0..p true
            if p:
                start = state[before]
                if np.array_equal(start, state[later]):
                    break
                state[later] = start
            for j, (b, e) in enumerate(self.columns):
                prev = state[self.starts[j]:self.starts[j] + e - b]
                np.greater_equal(uniforms[b:e], prof.value(times[b:e] - prev), out=missed[b:e])
                new = column[:e - b] if p else state[b:e]
                np.copyto(new, times[b:e])
                np.copyto(new, prev, where=missed[b:e])
                if p:
                    if np.array_equal(new, state[b:e]):
                        break  # every later decision is the same
                    state[b:e] = new
        misses = np.zeros(len(times), dtype=np.int32)  # arrivals without a click so far
        for j, (b, e) in enumerate(self.columns):
            p = self.starts[j]
            np.add(misses[p:p + e - b], missed[b:e], out=misses[b:e])
        earlier = np.zeros(rows, dtype=np.int32)  # the misses of the trial's earlier segments
        for s in range(1, segments):
            q = np.flatnonzero(self.per_segment[:, s]) * segments + s
            a, b = self.rank[q - 1], self.rank[q]
            earlier[b] = earlier[a] + misses[self.starts[span] + a]
        trials, windows = self.counts.shape
        through = np.cumsum(self.counts, axis=1)
        # the walk row and laid-out index of the state at each window's last arrival
        segment = np.maximum(through - 1, 0) // span
        row = self.rank[np.arange(trials)[:, None] * segments + segment]
        at = self.starts[through - segment * span] + row
        clicks = np.diff(through - misses[at] - earlier[row], axis=1, prepend=0)
        offsets = tau_m * np.arange(1, windows + 1) - state[at]
        if gaps is not None:
            first = self.counts[:, :keep_from].sum(axis=1)
            rank = self.rank.reshape(trials, segments)
            for k in range(self.width):  # the trials' k-th arrivals, one column of a segment
                s, j = divmod(k, span)
                row = rank[(first <= k) & (k < through[:, -1]), s]
                row = row[~missed[self.starts[j + 1] + row]]
                gap = state[self.starts[j + 1] + row] - state[self.starts[j] + row]
                gaps.append(gap[np.isfinite(gap)])
        return clicks, offsets


def _simulate_chunk(state: StateSpec, config: DetectorConfig, rng, carry: np.ndarray,
                    windows: int, keep_from: int, gaps: Optional[list]):
    """Clicks and last-click offsets per (trial, window) of one chunk."""
    times, counts = _arrivals(state, config, rng, len(carry), windows)
    streams = _Streams(counts)
    laid = streams.lay_out(times)
    del times  # one padded array at a time: the uniforms' comes next
    uniforms = streams.lay_out(rng.uniform(size=(len(carry), streams.width)))
    return streams.walk(config.efficiency, config.tau_m, laid, uniforms, carry, keep_from,
                        gaps)


def sample_window(state: StateSpec, config: DetectorConfig,
                  carry_tau: Optional[float] = None, rng=None, seed: int = 0,
                  ) -> Tuple[OrderedTimes, Optional[float]]:
    """Simulate a single window; reference implementation, one trial.

    Returns the click times and the offset of the last click from the
    window end (None when the window produced no click).
    """
    _check_poisson_means(state, config)
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
    _check_poisson_means(state, config)
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

    contiguous = sim.carry_in == "contiguous"
    for start in range(0, sim.trials, _BLOCK):
        B = min(_BLOCK, sim.trials - start)
        span = max(1, _BLOCK // B) if contiguous else 1  # windows per chunk
        carry = np.full(B, sim.fixed_tau if sim.carry_in == "fixed_tau" else np.inf)
        for w0 in range(0, sim.windows_per_trial, span):
            windows = min(span, sim.windows_per_trial - w0)
            skip = min(windows, max(0, sim.warm_up - w0)) if contiguous else 0
            clicks, offsets = _simulate_chunk(state, config, rng, carry, windows, skip,
                                              gaps_all if sim.collect_gaps else None)
            if contiguous:
                carry = offsets[:, -1]
            accumulate(clicks[:, skip:].ravel())
            if sim.collect_offsets and skip < windows:
                offsets_all.append(offsets[:, skip:].T.ravel())

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
    check_count(n_gaps, "n_gaps", 1)
    check_count(seed, "seed")
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
        t_alive += rng.exponential(1.0 / rate, len(t_alive))
        u = rng.uniform(size=len(t_alive))
        acc = np.empty(len(t_alive), dtype=bool)
        for i in range(0, len(t_alive), _SLICE):  # xi slice by slice, in cache
            np.less(u[i:i + _SLICE], prof.value(t_alive[i:i + _SLICE]), out=acc[i:i + _SLICE])
        done = t_alive.compress(acc)  # as t_alive[acc], in less time
        take = min(len(done), n_gaps - filled)
        out[filled:filled + take] = done[:take]
        filled += take
        t_alive = t_alive.compress(~acc)
        deficit = n_gaps - filled - len(t_alive)
        if deficit > 0:
            t_alive = np.concatenate([t_alive, np.zeros(deficit)])
    return out
