"""Detector recovery model, optical mode profile and detector configuration.

The central object is the time-dependent efficiency xi(t): the probability
that a photon arriving a time t after the previous registered click is
itself registered.  Built-in shapes are

* ``ideal``                 xi(t) = 1 for t >= 0 (photon-number resolving),
* ``dead_time_only``        xi(t) = step(t - tau_d),
* ``exponential_recovery``  xi(t) = step(t - tau_d) * (1 - exp(-(t - tau_d)/tau_r)),
* ``tabulated``             linear interpolation of measured (t, xi) samples.

All profiles evaluate to 0 for t < 0 (no pulse has any influence before it
happens) and to values in [0, 1] everywhere.  The step edge at t = tau_d is
right-continuous; the edge value is measure zero in every integral built on
top of these profiles.

A mode profile I(t) describes how the optical intensity is distributed over
one measurement window of duration tau_m and is normalized so that its
integral over the window equals one.  ``DetectorConfig`` bundles the window,
the plain detection efficiency eta, the dark-count intensity nu and the two
profiles; eta and nu enter all statistics through the affine replacement
x -> eta*x + nu of mean photon numbers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError

_CLAMP_TOL = 1e-6  # tabulated xi values may stick out of [0,1] by at most this


def _as_array(x):
    return np.asarray(x, dtype=float)


def _knot_table(table, what: str, symbol: str):
    """Knot times and values of a tabulated profile, checked.

    The table needs at least two finite (t, value) samples with strictly
    increasing times.
    """
    if not table or len(table) < 2:
        raise DomainError(f"tabulated {what} needs at least two (t, {symbol}) samples")
    t = np.array([p[0] for p in table], dtype=float)
    v = np.array([p[1] for p in table], dtype=float)
    if not (np.isfinite(t).all() and np.isfinite(v).all()):
        raise DomainError(f"tabulated {what} samples must be finite")
    if np.any(np.diff(t) <= 0):
        raise DomainError(f"tabulated {what} times must be strictly increasing")
    return t, v


@dataclass(frozen=True)
class Knots:
    """Samples (t, v) of a tabulated curve and the integral ``cum`` of its interpolant at each."""

    t: np.ndarray
    v: np.ndarray
    cum: np.ndarray

    @classmethod
    def build(cls, t: np.ndarray, v: np.ndarray, start: float = 0.0) -> "Knots":
        """The knots, with the integral ``start`` at the first."""
        return cls(t, v, np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t))])
                   + start)

    def integral(self, x: np.ndarray) -> np.ndarray:
        """The integral up to x >= t[0]; past the last knot the curve keeps its last value."""
        t, v, cum = self.t, self.v, self.cum
        idx = np.searchsorted(t, x, side="right") - 1
        k = np.clip(idx, 0, len(t) - 2)
        dt = x - t[k]
        inside = cum[k] + v[k] * dt + 0.5 * (np.diff(v) / np.diff(t))[k] * dt**2
        return np.where(idx >= len(t) - 1, cum[-1] + v[-1] * (x - t[-1]), inside)


@dataclass(frozen=True)
class EfficiencyProfile:
    """Time-dependent efficiency xi(t) of the detector after a click."""

    kind: str
    tau_d: float = 0.0
    tau_r: float = 0.0
    table: Optional[Tuple[Tuple[float, float], ...]] = None
    knots: Optional[Knots] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("ideal", "dead_time_only", "exponential_recovery", "tabulated"):
            raise DomainError(f"unknown efficiency profile kind {self.kind!r}")
        if not (0 <= self.tau_d < math.inf and 0 <= self.tau_r < math.inf):
            raise DomainError("tau_d and tau_r must be finite and nonnegative")
        if self.kind == "exponential_recovery" and self.tau_r == 0.0:
            # avoid 0/0 in the exponent; a zero relaxation time is a pure dead time
            object.__setattr__(self, "kind", "dead_time_only")
        if self.kind == "tabulated":
            t, v = _knot_table(self.table, "profile", "xi")
            if t[0] < 0:
                raise DomainError("tabulated profile times must be nonnegative")
            if np.any(v < -_CLAMP_TOL) or np.any(v > 1 + _CLAMP_TOL):
                raise DomainError("tabulated xi values outside [0,1] beyond clamping tolerance")
            v = np.clip(v, 0.0, 1.0)
            object.__setattr__(self, "table", tuple((float(a), float(b)) for a, b in zip(t, v)))
            # constant extension below the first knot
            object.__setattr__(self, "knots", Knots.build(t, v, v[0] * t[0]))

    # -- constructors ------------------------------------------------------

    @classmethod
    def ideal(cls) -> "EfficiencyProfile":
        return cls(kind="ideal")

    @classmethod
    def dead_time(cls, tau_d: float) -> "EfficiencyProfile":
        return cls(kind="dead_time_only", tau_d=tau_d)

    @classmethod
    def exponential(cls, tau_d: float, tau_r: float) -> "EfficiencyProfile":
        return cls(kind="exponential_recovery", tau_d=tau_d, tau_r=tau_r)

    @classmethod
    def tabulated(cls, samples: Sequence[Tuple[float, float]]) -> "EfficiencyProfile":
        return cls(kind="tabulated", table=tuple(samples))

    @classmethod
    def from_csv(cls, path, time_scale: float = 1.0) -> "EfficiencyProfile":
        """Load a two-column "t,xi" CSV with a header row.

        ``time_scale`` multiplies the time column, so curves recorded in
        seconds can be brought into window units (or vice versa).
        """
        rows = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if len(row) < 2 or row[0].lstrip().startswith("#"):
                    continue
                try:
                    rows.append((float(row[0]) * time_scale, float(row[1])))
                except ValueError:
                    continue  # header row
        if not rows:
            raise DomainError(f"{path}: no profile samples found")
        return cls.tabulated(rows)

    # -- evaluation --------------------------------------------------------

    @property
    def breakpoint(self) -> Optional[float]:
        """Hard dead time advertised to the quadrature layer, if any."""
        if self.kind in ("dead_time_only", "exponential_recovery") and self.tau_d > 0:
            return self.tau_d
        return None

    def value(self, t):
        """xi(t); accepts scalars or arrays, returns the same shape."""
        t = _as_array(t)
        if self.kind == "ideal":
            out = np.where(t >= 0, 1.0, 0.0)
        elif self.kind == "dead_time_only":
            out = np.where(t >= self.tau_d, 1.0, 0.0)
        elif self.kind == "exponential_recovery":
            dt = np.maximum(t - self.tau_d, 0.0)
            out = np.where(t >= self.tau_d, -np.expm1(-dt / self.tau_r), 0.0)
        else:
            out = np.interp(t, self.knots.t, self.knots.v)  # constant past either end
            out = np.where(t < 0, 0.0, out)
        return out if out.ndim else float(out)

    def cumulative(self, x):
        """Integral of xi from 0 to x (x may be an array); 0 for x <= 0."""
        x = _as_array(x)
        if self.kind == "ideal":
            out = np.maximum(x, 0.0)
        elif self.kind == "dead_time_only":
            out = np.maximum(x - self.tau_d, 0.0)
        elif self.kind == "exponential_recovery":
            dt = np.maximum(x - self.tau_d, 0.0)
            out = dt + self.tau_r * np.expm1(-dt / self.tau_r)
        else:
            xc = np.maximum(x, 0.0)
            out = np.where(xc < self.knots.t[0], self.knots.v[0] * xc, self.knots.integral(xc))
            out = np.where(x <= 0, 0.0, out)
        return out if out.ndim else float(out)

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind in ("dead_time_only", "exponential_recovery"):
            d["tau_d"] = self.tau_d
        if self.kind == "exponential_recovery":
            d["tau_r"] = self.tau_r
        if self.kind == "tabulated":
            d["table"] = [list(p) for p in self.table]
        return d

    def to_csv(self, path) -> None:
        if self.kind != "tabulated":
            raise DomainError("only tabulated profiles serialize to CSV")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "xi"])
            for t, v in self.table:
                w.writerow([repr(t), repr(v)])


@dataclass(frozen=True)
class ModeProfile:
    """Normalized intensity profile I(t) of the detected mode over a window."""

    kind: str = "monochromatic"
    table: Optional[Tuple[Tuple[float, float], ...]] = None
    knots: Optional[Knots] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("monochromatic", "tabulated"):
            raise DomainError(f"unknown mode profile kind {self.kind!r}")
        if self.kind == "tabulated":
            t, v = _knot_table(self.table, "mode", "I")
            if abs(t[0]) > 1e-12:
                raise DomainError("tabulated mode must start at t = 0")
            if np.any(v < 0):
                raise DomainError("mode intensity must be nonnegative")
            total = float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(t)))
            if total <= 0:
                raise DomainError("mode intensity integrates to zero")
            v = v / total  # renormalized on load
            object.__setattr__(self, "table", tuple((float(a), float(b)) for a, b in zip(t, v)))
            object.__setattr__(self, "knots", Knots.build(t, v))

    @classmethod
    def monochromatic(cls) -> "ModeProfile":
        return cls(kind="monochromatic")

    @classmethod
    def tabulated(cls, samples: Sequence[Tuple[float, float]]) -> "ModeProfile":
        return cls(kind="tabulated", table=tuple(samples))

    def _check_span(self, tau_m: float) -> None:
        if self.kind == "tabulated" and abs(self.knots.t[-1] - tau_m) > 1e-9 * max(1.0, tau_m):
            raise DomainError("tabulated mode table does not span the measurement window")

    def intensity(self, t, tau_m: float):
        """I(t) for 0 <= t <= tau_m."""
        t = _as_array(t)
        if np.any(t < -1e-12) or np.any(t > tau_m * (1 + 1e-12)):
            raise DomainError("intensity evaluated outside [0, tau_m]")
        if self.kind == "monochromatic":
            out = np.full_like(t, 1.0 / tau_m)
        else:
            self._check_span(tau_m)
            out = np.interp(t, self.knots.t, self.knots.v)
        return out if out.ndim else float(out)

    def cumulative(self, t0, t1, tau_m: float):
        """Integral of I(t) from t0 to t1; exact for the interpolant."""
        t0 = _as_array(t0)
        t1 = _as_array(t1)
        if np.any(t0 < -1e-12) or np.any(t1 > tau_m * (1 + 1e-12)) or np.any(t1 < t0 - 1e-12):
            raise DomainError("cumulative intensity limits outside 0 <= t0 <= t1 <= tau_m")
        if self.kind == "monochromatic":
            out = (t1 - t0) / tau_m
        else:
            self._check_span(tau_m)
            out = self._cum_at(t1) - self._cum_at(t0)
        out = np.clip(out, 0.0, None)
        return out if out.ndim else float(out)

    def _cum_at(self, x):
        t = self.knots.t
        return self.knots.integral(np.clip(np.asarray(x, dtype=float), t[0], t[-1]))

    def sample_times(self, n: int, tau_m: float, rng) -> np.ndarray:
        """Draw n i.i.d. arrival times with density I(t) (used by the simulator)."""
        if self.kind == "monochromatic":
            return rng.uniform(0.0, tau_m, n)
        self._check_span(tau_m)
        u = rng.uniform(0.0, 1.0, n)
        # invert the piecewise-quadratic CDF on a refined grid
        grid = np.linspace(0.0, tau_m, 4097)
        cdf = self._cum_at(grid)
        cdf[-1] = 1.0
        return np.interp(u, cdf, grid)

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "tabulated":
            d["table"] = [list(p) for p in self.table]
        return d


@dataclass(frozen=True)
class DetectorConfig:
    """One measurement-window setup: window length, eta, nu and profiles."""

    tau_m: float
    eta: float = 1.0
    nu: float = 0.0
    efficiency: EfficiencyProfile = field(default_factory=EfficiencyProfile.ideal)
    mode: ModeProfile = field(default_factory=ModeProfile.monochromatic)

    def __post_init__(self):
        if not 0 < self.tau_m < math.inf:
            raise DomainError(f"tau_m must be positive and finite, got {self.tau_m}")
        if not 0.0 <= self.eta <= 1.0:
            raise DomainError(f"eta must be in [0, 1], got {self.eta}")
        if not 0 <= self.nu < math.inf:
            raise DomainError(f"nu must be finite and nonnegative, got {self.nu}")

    def effective_mean(self, x: float) -> float:
        """Replace a mean photon number x by eta*x + nu."""
        if not 0 <= x < math.inf:
            raise DomainError(f"mean photon number must be finite and nonnegative, got {x}")
        return self.eta * x + self.nu

    @property
    def deadtime_count(self) -> Optional[int]:
        """Number of whole dead times fitting in the window (None if no dead time)."""
        td = self.efficiency.breakpoint
        if td is None:
            return None
        return int(math.floor(self.tau_m / td + 1e-12))

    def max_clicks(self) -> Optional[int]:
        """Largest click number with nonzero probability, if bounded."""
        n_dead = self.deadtime_count
        if n_dead is None:
            return None
        td = self.efficiency.tau_d
        # when the window is an exact multiple of tau_d the extra click has zero measure
        if abs(n_dead * td - self.tau_m) <= 1e-12 * self.tau_m:
            return n_dead
        return n_dead + 1

    def to_json_dict(self) -> dict:
        return {
            "tau_m": self.tau_m,
            "eta": self.eta,
            "nu": self.nu,
            "efficiency": self.efficiency.to_json_dict(),
            "mode": self.mode.to_json_dict(),
        }

    def digest(self) -> str:
        payload = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
