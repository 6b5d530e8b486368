"""Photon-number distributions for the example states.

Supported states and their number distributions after detection with
efficiency eta and dark-count intensity nu:

* coherent ``alpha0``: Poisson with mean eta*|alpha0|^2 + nu,
* Fock ``k``: binomial thinning of k photons, convolved with a Poisson
  dark background,
* squeezed vacuum ``r``: the closed form built from Legendre polynomials
  at a purely imaginary argument (only even numbers are populated at unit
  efficiency), likewise dark-convolved,
* custom: an explicit distribution, loss-thinned and dark-convolved.

The tail rule lives here alone: a distribution kept up to m_max records
the mass past it, ``within_tail`` doubles m_max until that tail is within
``TAIL_BOUND``, and ``check_tail`` refuses a distribution whose tail is
not, naming the cutoff that search finds.

The squeezed-vacuum expressions pair i^k with P_k(iy), y <= 0.  Since
i^k P_k(iy) = R_k(-y), with R_{k+1} = ((2k+1) u R_k + k R_{k-1}) / (k+1),
both are evaluated in real arithmetic, by one scaled recurrence whose
terms are all nonnegative.

The module also evaluates the unnormalized click-time density of a
squeezed vacuum directly from the pulse weights; integrating it over the
ordered time domain reproduces the click distribution obtained from the
number-basis route, which the tests exploit as a cross check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .detector import DetectorConfig
from .errors import ConsistencyError, DomainError, check_count
from .weights import pulse_weights

TAIL_BOUND = 1e-8   # largest photon-number mass a truncated distribution may drop
_M_CAP = 64         # largest default cutoff
_SEARCH_CAP = 1024  # the doubling search of ``within_tail`` stops at or past this


def check_squeezing(r: float) -> None:
    """Reject a squeezing r unless it is nonnegative with a finite mean number sinh(r)^2."""
    with np.errstate(over="ignore"):
        mean = np.sinh(r) ** 2
    if not (r >= 0 and np.isfinite(mean)):
        raise DomainError("squeezing parameter must be nonnegative, "
                          "with a finite mean number sinh(r)^2")


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of an input state."""

    kind: str
    alpha0: float = 0.0
    k: int = 0
    r: float = 0.0
    probs: Optional[Tuple[float, ...]] = None
    eta: Optional[float] = None
    nu: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("coherent", "fock", "squeezed_vacuum", "custom"):
            raise DomainError(f"unknown state kind {self.kind!r}")
        if self.kind == "coherent" and not math.isfinite(self.alpha0 * self.alpha0):
            raise DomainError("coherent amplitude must be finite, with a finite mean number")
        if self.kind == "fock":
            object.__setattr__(self, "k", check_count(self.k, "Fock number"))
        if self.kind == "squeezed_vacuum":
            check_squeezing(self.r)
        if self.kind == "custom":
            if not self.probs:
                raise DomainError("custom state needs explicit probabilities")
            p = np.asarray(self.probs, dtype=float)
            if not np.all(np.isfinite(p)):
                raise DomainError("custom probabilities must be finite")
            if np.any(p < 0):
                raise DomainError("custom probabilities must be nonnegative")
            if abs(p.sum() - 1.0) > 1e-9:
                raise DomainError("custom probabilities must sum to 1 within 1e-9")
            object.__setattr__(self, "probs", tuple(float(x) for x in p))

    @classmethod
    def coherent(cls, alpha0: float) -> "StateSpec":
        return cls(kind="coherent", alpha0=float(alpha0))

    @classmethod
    def fock(cls, k: int) -> "StateSpec":
        return cls(kind="fock", k=k)

    @classmethod
    def squeezed(cls, r: float) -> "StateSpec":
        return cls(kind="squeezed_vacuum", r=float(r))

    @classmethod
    def custom(cls, probs: Sequence[float]) -> "StateSpec":
        return cls(kind="custom", probs=tuple(probs))

    @classmethod
    def parse(cls, text: str) -> "StateSpec":
        """Parse CLI shorthand like ``coherent:2`` or ``squeezed:1.5``."""
        name, _, arg = text.partition(":")
        name = name.strip().lower()
        try:
            if name == "coherent":
                return cls.coherent(float(arg))
            if name == "fock":
                return cls.fock(int(arg))
            if name in ("squeezed", "squeezed_vacuum"):
                return cls.squeezed(float(arg))
        except ValueError as exc:  # DomainError included
            raise DomainError(f"cannot parse state {text!r}: {exc}") from None
        if name == "vacuum":
            return cls.fock(0)
        raise DomainError(f"cannot parse state {text!r}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "StateSpec":
        kind = d.get("kind")
        if kind == "coherent":
            s = cls.coherent(d["alpha0"])
        elif kind == "fock":
            s = cls.fock(d["k"])
        elif kind == "squeezed_vacuum":
            s = cls.squeezed(d["r"])
        elif kind == "custom":
            s = cls.custom(d["probs"])
        else:
            raise DomainError(f"unknown state kind {kind!r}")
        if "eta" in d or "nu" in d:
            s = StateSpec(kind=s.kind, alpha0=s.alpha0, k=s.k, r=s.r, probs=s.probs,
                          eta=d.get("eta"), nu=d.get("nu"))
        return s

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "coherent":
            d["alpha0"] = self.alpha0
        elif self.kind == "fock":
            d["k"] = self.k
        elif self.kind == "squeezed_vacuum":
            d["r"] = self.r
        else:
            d["probs"] = list(self.probs)
        if self.eta is not None:
            d["eta"] = self.eta
        if self.nu is not None:
            d["nu"] = self.nu
        return d


@dataclass(frozen=True)
class PhotonNumberDist:
    """Truncated photon-number distribution with an explicit tail bound.

    ``spec`` is the state it was built from by ``photon_number_dist``, None
    for a distribution built by hand.
    """

    probs: np.ndarray
    tail: float
    eta: float
    nu: float
    spec: Optional[StateSpec] = None

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if not np.all(np.isfinite(p)):
            raise ConsistencyError("photon-number probability is not finite")
        if np.any(p < -1e-12):
            raise ConsistencyError("negative photon-number probability")
        object.__setattr__(self, "probs", np.clip(p, 0.0, None))

    @property
    def m_max(self) -> int:
        return len(self.probs) - 1

    @property
    def label(self) -> str:
        return "" if self.spec is None else self.spec.kind

    @property
    def poisson_mean(self) -> Optional[float]:
        """A coherent state's Poisson mean: a click distribution can skip the number basis."""
        if self.spec is None or self.spec.kind != "coherent":
            return None
        return _coherent_mean(self.spec, self.eta, self.nu)

    def mean(self) -> float:
        return float(np.arange(len(self.probs)) @ self.probs)


def _scaled_legendre(n_max: int, u, rho) -> np.ndarray:
    """rho^k R_k(u) = rho^k i^k P_k(-iu) for k = 0..n_max along a new first axis.

    With u, rho >= 0 every step adds nonnegative terms, so nothing cancels.
    """
    out = np.empty((n_max + 1,) + np.shape(u))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = rho * u
    for k in range(1, n_max):
        out[k + 1] = rho * ((2 * k + 1) * u * out[k] + k * rho * out[k - 1]) / (k + 1)
    return out


def _squeezed_number_probs(r: float, eta: float, m_max: int) -> np.ndarray:
    # Closed form from differentiating the squeezed no-click generating
    # function n times at the loss point; it agrees with the binomial loss
    # channel applied to the exact even-number expansion to machine
    # precision, which the tests assert.  rho <= 1 and rho^m R_m(u) is a
    # probability times root, so no factor overflows.
    s = math.sinh(r)
    root = math.sqrt(1.0 + (2.0 - eta) * eta * s * s)
    return _scaled_legendre(m_max, s * (1.0 - eta) / root, eta * s / root) / root


def _poisson_pmf(m_max: int, mean: float) -> np.ndarray:
    """Poisson pmf at 0..m_max, in log space as scipy.stats.poisson computes it."""
    from scipy.special import gammaln, xlogy
    k = np.arange(m_max + 1)
    return np.exp(xlogy(k, mean) - gammaln(k + 1) - mean)


def _binomial_pmf(top: int, n: int, eta: float) -> np.ndarray:
    """Binomial(n, eta) pmf at 0..top, in log space."""
    from scipy.special import gammaln, xlog1py, xlogy
    k = np.arange(top + 1)
    log_comb = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    return np.exp(log_comb + xlogy(k, eta) + xlog1py(n - k, -eta))


def _poisson_convolve(probs: np.ndarray, nu: float, m_max: int) -> np.ndarray:
    if nu == 0.0:
        return probs[:m_max + 1]
    return np.convolve(probs, _poisson_pmf(m_max, nu))[:m_max + 1]


def _coherent_mean(state: StateSpec, eta: float, nu: float) -> float:
    return eta * state.alpha0**2 + nu


def _cutoff(probs: np.ndarray) -> int:
    """Smallest m whose cumulative probability is within TAIL_BOUND of 1, else _M_CAP."""
    ok = np.nonzero(1.0 - np.cumsum(probs) < TAIL_BOUND)[0]
    return int(ok[0]) if len(ok) else _M_CAP


def _default_m_max(state: StateSpec, eta: float, nu: float) -> int:
    if state.kind == "coherent":
        return _cutoff(_poisson_pmf(_M_CAP, _coherent_mean(state, eta, nu)))
    if state.kind == "squeezed_vacuum":
        probs = _squeezed_number_probs(state.r, eta, _M_CAP)
        m = _cutoff(_poisson_convolve(probs, nu, _M_CAP))
        return min(_M_CAP, m + (m % 2))  # prefer an even cutoff
    # fock, custom: their own numbers, and the dark counts'
    base = state.k if state.kind == "fock" else len(state.probs) - 1
    if nu == 0.0:
        return base
    return min(_M_CAP, base + _cutoff(_poisson_pmf(_M_CAP, nu)))


def photon_number_dist(state: StateSpec, eta: Optional[float] = None,
                       nu: Optional[float] = None,
                       m_max: Optional[int] = None) -> PhotonNumberDist:
    """Number distribution of ``state`` seen through efficiency eta and dark rate nu."""
    eta = state.eta if eta is None else eta
    nu = state.nu if nu is None else nu
    eta = 1.0 if eta is None else float(eta)
    nu = 0.0 if nu is None else float(nu)
    if not 0.0 <= eta <= 1.0:
        raise DomainError("eta must be in [0, 1]")
    if not 0.0 <= nu < math.inf:
        raise DomainError(f"nu must be finite and nonnegative, got {nu}")
    m_max = _default_m_max(state, eta, nu) if m_max is None else check_count(m_max, "m_max")

    if state.kind == "coherent":
        probs = _poisson_pmf(m_max, _coherent_mean(state, eta, nu))
    elif state.kind == "fock":
        base = _binomial_pmf(min(state.k, m_max), state.k, eta)
        probs = _poisson_convolve(base, nu, m_max)
    elif state.kind == "squeezed_vacuum":
        probs = _poisson_convolve(_squeezed_number_probs(state.r, eta, m_max), nu, m_max)
    else:
        base = np.asarray(state.probs, dtype=float)
        if eta < 1.0:
            thin = np.zeros(m_max + 1)
            for k, pk in enumerate(base):
                if pk == 0.0:
                    continue
                top = min(k, m_max)
                thin[:top + 1] += pk * _binomial_pmf(top, k, eta)
            base = thin
        probs = _poisson_convolve(base, nu, m_max)

    probs = np.asarray(probs, dtype=float)
    tail = max(0.0, 1.0 - float(probs.sum()))
    return PhotonNumberDist(probs=probs, tail=tail, eta=eta, nu=nu, spec=state)


def within_tail(dist: PhotonNumberDist) -> PhotonNumberDist:
    """``dist`` rebuilt from its state with m_max doubled until its tail is within TAIL_BOUND.

    The search starts from max(1, m_max) and stops once m_max reaches 1024.
    """
    while dist.spec is not None and dist.tail > TAIL_BOUND and dist.m_max < _SEARCH_CAP:
        dist = photon_number_dist(dist.spec, dist.eta, dist.nu, max(1, 2 * dist.m_max))
    return dist


def check_tail(dist: PhotonNumberDist) -> None:
    """Refuse a tail above TAIL_BOUND, naming the cutoff ``within_tail`` finds, if any."""
    if dist.tail <= TAIL_BOUND:
        return
    wider = within_tail(dist)
    if wider.tail <= TAIL_BOUND:
        hint = f"increase m_max to {wider.m_max}"
    elif dist.spec is None:
        hint = "a distribution built by hand records no state to rebuild"
    else:
        hint = f"no m_max up to {wider.m_max} brings it within the bound"
    raise DomainError(f"state tail mass {dist.tail:.2e} exceeds {TAIL_BOUND:g}; {hint}")


def squeezed_density_from_weights(density, exposure, n: int, r: float,
                                  eta: float = 1.0, nu: float = 0.0) -> np.ndarray:
    """Click-time density of a squeezed vacuum from precomputed weights.

    Given the density factor and exposure of n click times, the density is

        p_n = n! i^n D sinh^n(r) / S^{n+1} * P_n( i sinh(r) (X - 1) / S ),
        S   = sqrt(1 - sinh^2(r) * X * (X - 2)),

    at unit efficiency, where D and X are the weight pair.  A nonunit eta
    rescales the exposure inside S and the argument (X -> eta*X) and
    contributes eta^n; a dark intensity nu adds the binomial mixture of
    lower-order derivatives together with an exp(-nu*X) factor.  With
    i^k P_k(iy) = R_k(-y) every term is (s/S)^k R_k(s (1 - eta X) / S) >= 0.
    """
    density = np.asarray(density, dtype=float)
    exposure = np.asarray(exposure, dtype=float)
    s = math.sinh(r)
    c = eta * exposure
    rad = 1.0 - s * s * c * (c - 2.0)
    if np.any(rad <= 0):
        raise ConsistencyError("squeezed density radicand is not positive (exposure > 2?)")
    S = np.sqrt(rad)
    # an exposure above 1 by round-off would turn terms negative
    terms = _scaled_legendre(n, s * np.maximum(1.0 - c, 0.0) / S, s / S)
    coeffs = [math.comb(n, k) * nu ** (n - k) * eta**k * math.factorial(k)
              for k in range(n + 1)]
    return density * np.exp(-nu * exposure) * np.tensordot(coeffs, terms, axes=1) / S


def squeezed_click_density(config: DetectorConfig, times, r: float) -> float:
    """Unnormalized probability density of clicks at ``times`` for squeezed vacuum.

    Uses the detector's eta and nu.  The zero-click value is the full-window
    no-click weight (exposure 1), giving 1/cosh(r) at unit efficiency.
    """
    check_squeezing(r)
    w = pulse_weights(config, times)
    n = len(times.times) if hasattr(times, "times") else len(times)
    out = squeezed_density_from_weights(
        np.array([w.density_factor]), np.array([w.exposure]),
        n, r, eta=config.eta, nu=config.nu)
    return float(out[0])
