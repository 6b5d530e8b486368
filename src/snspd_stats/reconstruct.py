"""Recovery-curve estimation from inter-click gap samples.

At low beam intensity lambda the density of the gap between consecutive
clicks is lambda * xi(t) * exp(-lambda * int_0^t xi), so for times before
full recovery the histogram of gaps is, up to the factor lambda, the
recovery curve itself.  The estimator histograms the gaps, reads lambda
off the plateau where xi has saturated (or takes a user hint), undoes the
exponential depletion factor when it matters, and clamps the result to
[0, 1].  No monotonicity is imposed; real detectors may overshoot.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .detector import EfficiencyProfile
from .errors import DomainError, EstimationError


@dataclass(frozen=True)
class ReconstructionSpec:
    """Histogram layout and intensity handling for the estimator.

    ``tail_correction`` selects how the exponential depletion of long gaps
    is undone: ``none`` (raw low-intensity limit), ``rate`` (divide by
    exp(-lambda*t)) or ``self`` (divide by exp(-lambda * int xi), iterated;
    exact inversion of the gap density at the estimated lambda).  ``auto``
    picks ``none`` while lambda*t_max <= 0.05 and ``self`` beyond.
    ``min_preceding_gap`` keeps only gaps whose predecessor exceeded the
    given value, for data where short gaps may chain.
    """

    bin_width: float
    t_max: float
    lambda_hint: Optional[float] = None
    tail_correction: str = "auto"
    min_preceding_gap: Optional[float] = None

    def __post_init__(self):
        if not (0 < self.bin_width < math.inf and 0 < self.t_max < math.inf):
            raise DomainError("bin_width and t_max must be positive and finite")
        if self.bin_width >= self.t_max:
            raise DomainError("bin_width must be smaller than t_max")
        if self.lambda_hint is not None and not 0 < self.lambda_hint < math.inf:
            raise DomainError("lambda_hint must be positive and finite")
        if self.min_preceding_gap is not None and not math.isfinite(self.min_preceding_gap):
            raise DomainError("min_preceding_gap must be finite")
        if self.tail_correction not in ("auto", "none", "rate", "self"):
            raise DomainError(f"unknown tail_correction {self.tail_correction!r}")


@dataclass(frozen=True)
class ReconstructionResult:
    profile: EfficiencyProfile
    lambda_hat: float
    centers: np.ndarray
    density: np.ndarray


def _plateau_mean(values: np.ndarray) -> float:
    k = max(1, len(values) // 5)
    return float(np.mean(values[-k:]))


def reconstruct_details(samples: Sequence[float], spec: ReconstructionSpec,
                        ) -> ReconstructionResult:
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise EstimationError("no gap samples given")
    if np.any(samples < 0):
        raise DomainError("gap samples must be nonnegative")
    if spec.min_preceding_gap is not None and samples.size > 1:
        keep = np.concatenate([[True], samples[:-1] > spec.min_preceding_gap])
        samples = samples[keep]
        if samples.size == 0:
            raise EstimationError("preceding-gap filter removed every sample")

    n_bins = int(round(spec.t_max / spec.bin_width))
    edges = np.linspace(0.0, n_bins * spec.bin_width, n_bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    # normalize against all samples, including those beyond the horizon
    density = counts / (samples.size * spec.bin_width)
    centers = 0.5 * (edges[:-1] + edges[1:])

    lam = spec.lambda_hint if spec.lambda_hint is not None else _plateau_mean(density)
    if lam <= 0:
        raise EstimationError("histogram plateau is empty; cannot estimate the intensity")

    mode = spec.tail_correction
    if mode == "auto":
        mode = "none" if lam * spec.t_max <= 0.05 else "self"

    if mode == "none":
        xi = density / lam
    elif mode == "rate":
        corrected = density * np.exp(lam * centers)
        if spec.lambda_hint is None:
            lam = _plateau_mean(corrected)
        xi = corrected / lam
    else:
        xi = np.clip(density / lam, 0.0, 1.0)
        for _ in range(4):
            cum = np.concatenate([[0.0], np.cumsum(xi)]) * spec.bin_width
            cum_mid = 0.5 * (cum[:-1] + cum[1:])
            corrected = density * np.exp(lam * cum_mid)
            if spec.lambda_hint is None:
                lam = _plateau_mean(corrected)
            xi = np.clip(corrected / lam, 0.0, 1.0)

    xi = np.clip(xi, 0.0, 1.0)
    profile = EfficiencyProfile.tabulated(list(zip(centers, xi)))
    return ReconstructionResult(profile=profile, lambda_hat=float(lam),
                                centers=centers, density=density)


def reconstruct_efficiency(samples: Sequence[float], spec: ReconstructionSpec,
                           ) -> EfficiencyProfile:
    """Tabulated recovery curve estimated from inter-click gaps."""
    return reconstruct_details(samples, spec).profile


def write_gaps_binary(path, gaps) -> None:
    """Stream gap samples as little-endian float64."""
    np.asarray(gaps, dtype="<f8").tofile(path)


def read_gaps(path) -> np.ndarray:
    """Read gap samples from a binary f64 stream or a one-column CSV."""
    text = str(path)
    if text.endswith(".csv"):
        out = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or not row[0].strip():
                    continue
                try:
                    out.append(float(row[0]))
                except ValueError:
                    continue  # header
        return np.asarray(out)
    return np.fromfile(path, dtype="<f8")
