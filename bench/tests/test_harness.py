"""Tests of the benchmark itself: failure accounting, spans and references.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import math
import time

import numpy as np
import pytest

from harness import Check, Op, Tracer, run_pass, summarize
import references as ref
import workloads as wl
from snspd_stats import (EfficiencyProfile, QuadratureSpec, cond_prob_matrix,
                         integrate_ordered)


def dead_matrix_op(perturb: float = 0.0):
    dead = wl.dead_config()

    def run(sp, values):
        entries = cond_prob_matrix(dead, m_max=4, spec=QuadratureSpec(seed=1)).entries
        return entries + perturb

    def check(entries, values):
        return [Check("closed_form", wl._max_closed_form_err(dead, entries),
                      ref.TOL_CLOSED_FORM)]

    return Op("independent.cond_prob_matrix.deadtime", run, check)


def test_exact_result_passes():
    summary = summarize([run_pass([dead_matrix_op()], wl.FAILURES)])
    assert summary["failed"] == 0 and summary["correct"]
    assert summary["ops_failed_frac"] == 0.0
    assert summary["err_ratio"] < 1.0


def test_perturbed_result_raises_ops_failed_frac():
    summary = summarize([run_pass([dead_matrix_op(perturb=1e-3)], wl.FAILURES)])
    assert summary["attempted"] == 1 and summary["failed"] == 1
    assert summary["ops_failed_frac"] == 1.0
    assert not summary["correct"]
    assert summary["err_ratio"] > 1.0


def test_integration_error_counts_as_failed_op_without_crashing():
    def nan_integral(sp, values):
        # a non-finite integrand makes the engine raise IntegrationError
        return integrate_ordered(2, 1.0, lambda T: np.full(len(T), np.nan),
                                 QuadratureSpec())

    ops = [Op("quadrature.integrate_ordered", nan_integral),
           Op("uses_it", lambda sp, v: v["quadrature.integrate_ordered"],
              needs=("quadrature.integrate_ordered",)),
           dead_matrix_op()]
    result = run_pass(ops, wl.FAILURES)
    summary = summarize([result])
    assert [o.failed for o in result.outcomes] == [True, True, False]
    assert result.outcomes[0].error.startswith("IntegrationError")
    assert result.outcomes[1].error.startswith("skipped")
    assert summary["ops_failed_frac"] == pytest.approx(2 / 3)
    assert not summary["correct"]


def test_statistical_miss_counts_as_failed_but_stays_correct():
    op = Op("montecarlo.x", lambda sp, v: 0.0,
            lambda value, v: [Check("z", 5.0, ref.Z_MAX, statistical=True)])
    summary = summarize([run_pass([op], wl.FAILURES)])
    assert summary["failed"] == 1 and summary["correct"]
    assert summary["err_ratio"] == 0.0


def test_benchmark_defects_propagate():
    op = Op("broken", lambda sp, v: {}["missing"])
    with pytest.raises(KeyError):
        run_pass([op], wl.FAILURES)


def test_nan_error_never_passes():
    assert not Check("x", math.nan, 1.0).ok


def test_self_time_subtracts_children():
    tracer = Tracer("t")
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    selfs = tracer.self_times()
    assert selfs[outer["id"]] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))
    assert selfs[outer["id"]] >= 0.015
    assert tracer.totals("inner")[2] == 1


def test_traced_pass_records_one_span_per_layer_call():
    tracer = Tracer("t")

    def two_calls(sp, values):
        for k in range(2):
            with sp("layer.call", k=k):
                pass
        return k

    run_pass([Op("layer.op", two_calls)], wl.FAILURES, tracer)
    names = [s["name"] for s in tracer.spans]
    assert names == ["layer.op", "layer.call", "layer.call"]
    assert all(s["parent"] == 0 for s in tracer.spans[1:])


def test_renewal_reference_matches_dead_time_closed_form():
    # a dead time then an exponential wait: mean gap tau_d + 1/lambda
    prof = EfficiencyProfile.dead_time(0.05)
    assert ref.renewal_mean_clicks(prof, 4.0, 1.0) == pytest.approx(1 / (0.05 + 0.25), rel=1e-10)


def test_one_click_reference_matches_poisson_for_ideal_detector():
    prof = EfficiencyProfile.ideal()
    assert ref.fresh_one_click_probability(prof, 4.0, 1.0) == pytest.approx(
        4.0 * math.exp(-4.0), rel=1e-10)


def test_column_sum_check_covers_criterion_4_range():
    entries = np.eye(21)
    entries[0, 15] += 5e-5   # outside m <= 10: reported, not checked
    assert ref.column_sum_check(entries).ok
    entries[0, 3] += 5e-5
    assert not ref.column_sum_check(entries).ok


def test_seeds_derive_from_the_workload_seed():
    assert wl.derive(3, "quadrature") == wl.derive(3, "quadrature")
    assert wl.derive(3, "quadrature") != wl.derive(4, "quadrature")
    assert wl.derive(3, "quadrature") != wl.derive(3, "gaps")
    assert wl.quad_spec(3).seed == wl.derive(3, "quadrature")
