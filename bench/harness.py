"""Op runner, accuracy checks and span tracer shared by every workload.

An op is one call, or a short fixed sequence of calls, into a layer of
``snspd_stats``.  Its check compares the result with a reference that does
not go through the code under test.  Only the op itself is timed; checks
run outside the timed region, so ``wall_s`` is the time to a solution and
the check cost never shows in it.

This module imports only the standard library, so its tests and the
``run.py`` process stay light.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Check:
    """One comparison of an observed error with its tolerance.

    Deterministic checks repeat exactly for a given seed and feed
    ``err_ratio``; statistical checks (z-scores against an oracle) only
    count towards failed ops.
    """

    name: str
    observed: float
    tol: float
    statistical: bool = False

    @property
    def ok(self) -> bool:
        # NaN compares false, so a non-finite error never passes
        return bool(self.observed <= self.tol)

    @property
    def ratio(self) -> float:
        if self.tol > 0:
            return self.observed / self.tol
        return 0.0 if self.observed == 0 else math.inf


@dataclass
class Op:
    """A timed call into the package plus its independent check.

    ``run(span, values)`` receives a span factory for the individual layer
    calls it makes and the values of the ops before it in the pass.
    ``needs`` names earlier ops whose values it uses.
    """

    name: str
    run: Callable[[Callable, Dict[str, Any]], Any]
    check: Optional[Callable[[Any, Dict[str, Any]], Sequence[Check]]] = None
    needs: Tuple[str, ...] = ()


@dataclass
class Outcome:
    name: str
    seconds: float
    error: Optional[str] = None
    checks: List[Check] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or any(not c.ok for c in self.checks)


@dataclass
class PassResult:
    outcomes: List[Outcome]
    values: Dict[str, Any]

    @property
    def ops_seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)


class Tracer:
    """In-memory spans: name, start, end, parent and run id.

    Spans nest by call order within the single benchmark thread, so the
    children of a span never overlap and its self time is its duration
    minus the sum of its children's durations.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None}
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[int, float]:
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def totals(self, name: str) -> Tuple[float, float, int]:
        """(total duration, total self time, count) of spans called ``name``."""
        selfs = self.self_times()
        dur = slf = 0.0
        count = 0
        for s in self.spans:
            if s["name"] == name:
                dur += s["end"] - s["start"]
                slf += selfs[s["id"]]
                count += 1
        return dur, slf, count

    def dump(self, path, extra: Optional[dict] = None) -> None:
        selfs = self.self_times()
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [dict(s, start=s["start"] - t0, end=s["end"] - t0,
                     self=selfs[s["id"]]) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(dict(extra or {}, run=self.run_id, spans=rows), fh, indent=1)


def null_span(name: str, **attrs):
    return nullcontext()


def run_pass(ops: Sequence[Op], failures: Tuple[type, ...],
             tracer: Optional[Tracer] = None) -> PassResult:
    """Run every op once, in order, then check each result.

    An op that raises one of ``failures`` counts as failed instead of
    ending the run, and so does every later op that needs its value.
    Any other exception is a defect of the benchmark and propagates.
    """
    span = tracer.span if tracer is not None else null_span
    values: Dict[str, Any] = {}
    outcomes: List[Outcome] = []
    for op in ops:
        missing = [n for n in op.needs if n not in values]
        if missing:
            outcomes.append(Outcome(op.name, 0.0, f"skipped: needs {missing}"))
            continue
        t0 = time.perf_counter()
        try:
            with span(op.name):
                value = op.run(span, values)
        except failures as exc:
            outcomes.append(Outcome(op.name, time.perf_counter() - t0,
                                    f"{type(exc).__name__}: {exc}"))
            continue
        seconds = time.perf_counter() - t0
        values[op.name] = value
        checks = list(op.check(value, values)) if op.check is not None else []
        outcomes.append(Outcome(op.name, seconds, None, checks))
    return PassResult(outcomes, values)


def summarize(passes: Sequence[PassResult]) -> dict:
    """attempted, failed, correct and err_ratio over all passes of a run.

    ``correct`` is false when an op raised or a deterministic check
    missed its tolerance; a statistical miss only counts as a failed op.
    """
    attempted = failed = 0
    correct = True
    err_ratio = 0.0
    for p in passes:
        for o in p.outcomes:
            attempted += 1
            failed += o.failed
            if o.error is not None:
                correct = False
            for c in o.checks:
                if not c.statistical:
                    err_ratio = max(err_ratio, c.ratio)
                    if not c.ok:
                        correct = False
    return {"attempted": attempted, "failed": failed, "correct": correct,
            "err_ratio": err_ratio,
            "ops_failed_frac": failed / attempted if attempted else 1.0}


def check_table(passes: Sequence[PassResult]) -> List[dict]:
    """Worst observed value per check name over the run, for the report."""
    worst: Dict[str, dict] = {}
    for p in passes:
        for o in p.outcomes:
            if o.error is not None:
                worst[o.name] = {"check": o.name, "error": o.error}
            for c in o.checks:
                key = f"{o.name}:{c.name}"
                prev = worst.get(key)
                if prev is None or not (c.observed <= prev["observed"]):
                    worst[key] = {"check": key, "observed": c.observed,
                                  "tol": c.tol, "ok": c.ok,
                                  "statistical": c.statistical}
    return list(worst.values())
