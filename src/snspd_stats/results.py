"""Result containers with reproducible serialization.

Every artifact embeds the resolved configuration and a content digest of
its numeric payload; rerunning with the same configuration reproduces the
payload byte for byte (floats are serialized via repr, which round-trips).
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np


def _payload_digest(arr: np.ndarray) -> str:
    text = ",".join(repr(float(x)) for x in np.asarray(arr, dtype=float).ravel())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _reprs(values):
    """Floats as repr strings, nested like ``values``."""
    if np.ndim(values) > 1:
        return [_reprs(row) for row in values]
    return [repr(float(v)) for v in values]


class _Serialized:
    """Digest, JSON and CSV forms shared by the result containers.

    A container names its numeric payload field in ``_payload_field`` and
    its CSV column header in ``_csv_header``; CSV rows are indexed by the
    click number n.
    """

    def _payload(self):
        return getattr(self, self._payload_field)

    def digest(self) -> str:
        return _payload_digest(self._payload())

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "meta": self.meta,
            "digest": self.digest(),
            self._payload_field: _reprs(self._payload()),
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("# scenario=%s digest=%s\n" % (self.scenario, self.digest()))
        buf.write("# config=%s\n" % json.dumps(self.config, sort_keys=True))
        buf.write(self._csv_header() + "\n")
        for n, row in enumerate(self._payload()):
            buf.write(str(n) + "," + ",".join(_reprs(np.atleast_1d(row))) + "\n")
        return buf.getvalue()


@dataclass(frozen=True)
class ConditionalMatrix(_Serialized):
    """Click-number probabilities conditioned on the photon number.

    ``entries[n, m]`` is the probability of n clicks given m photons at
    unit efficiency and zero dark rate; columns over n sum to one when the
    row range covers every reachable click number.
    """

    entries: np.ndarray
    scenario: str
    config: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    _payload_field = "entries"

    @property
    def n_max(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def m_max(self) -> int:
        return self.entries.shape[1] - 1

    def column_sums(self) -> np.ndarray:
        return self.entries.sum(axis=0)

    def _csv_header(self) -> str:
        return "n\\m," + ",".join(str(m) for m in range(self.m_max + 1))


@dataclass(frozen=True)
class ClickDistribution(_Serialized):
    """Normalized click-number probabilities with provenance metadata."""

    probs: np.ndarray
    scenario: str
    config: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    _payload_field = "probs"

    @property
    def n_max(self) -> int:
        return len(self.probs) - 1

    def total(self) -> float:
        return float(np.sum(self.probs))

    def mean_clicks(self) -> float:
        return float(np.arange(len(self.probs)) @ self.probs)

    def _csv_header(self) -> str:
        return "n,prob"
