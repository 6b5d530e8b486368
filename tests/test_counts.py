"""Every public count argument goes through ``errors.check_count``.

A count must be an int or a numpy integer, not a bool, of at least its
minimum; anything else raises ``DomainError`` before any work is done.
"""

import numpy as np
import pytest

from snspd_stats import (CwConfig, DetectorConfig, DomainError, EfficiencyProfile,
                         QuadratureSpec, SimSpec, StateSpec, carryover_matrix,
                         coherent_click_probability, coherent_click_probability_after_gap,
                         cond_prob_matrix, deadtime_closed_form, last_click_density,
                         last_click_density_fock, memory_kernels, photon_number_dist,
                         regular_irregular_split, same_count_probability,
                         simulate_interpulse_gaps, squeezed_distribution_direct)

EXP = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(0.05, 0.2))
DEAD = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(0.05))
IDEAL = DetectorConfig(tau_m=1.0)
CW = CwConfig(delta=0.3)
COARSE = QuadratureSpec(gauss_order=8)

# entry point: (call with the count, its minimum, a valid count)
ENTRIES = {
    "CwConfig.window_count": (lambda v: CwConfig(window_count=v), 1, 2),
    "CwConfig.memory_depth": (lambda v: CwConfig(memory_depth=v), 1, 2),
    "QuadratureSpec.gauss_order": (lambda v: QuadratureSpec(gauss_order=v), 2, 8),
    "QuadratureSpec.qmc_samples": (lambda v: QuadratureSpec(qmc_samples=v), 1 << 10, 2048),
    "QuadratureSpec.seed": (lambda v: QuadratureSpec(seed=v), 0, 3),
    "SimSpec.trials": (lambda v: SimSpec(trials=v), 1, 10),
    "SimSpec.seed": (lambda v: SimSpec(trials=10, seed=v), 0, 3),
    "SimSpec.windows_per_trial": (lambda v: SimSpec(trials=10, windows_per_trial=v), 1, 2),
    "SimSpec.warm_up": (lambda v: SimSpec(trials=10, warm_up=v), 0, 2),
    "simulate_interpulse_gaps.n_gaps":
        (lambda v: simulate_interpulse_gaps(EXP, 0.2, v), 1, 10),
    "simulate_interpulse_gaps.seed":
        (lambda v: simulate_interpulse_gaps(EXP, 0.2, 10, seed=v), 0, 3),
    "StateSpec.fock": (StateSpec.fock, 0, 2),
    "photon_number_dist.m_max":
        (lambda v: photon_number_dist(StateSpec.coherent(1.0), m_max=v), 0, 4),
    "coherent_click_probability": (lambda v: coherent_click_probability(IDEAL, v, 1.0), 0, 2),
    "coherent_click_probability_after_gap":
        (lambda v: coherent_click_probability_after_gap(EXP, v, 1.0, 0.1), 0, 2),
    "same_count_probability": (lambda v: same_count_probability(EXP, v), 0, 2),
    "cond_prob_matrix.m_max": (lambda v: cond_prob_matrix(EXP, m_max=v), 0, 2),
    "cond_prob_matrix.n_max": (lambda v: cond_prob_matrix(EXP, n_max=v, m_max=3), 0, 2),
    "carryover_matrix.m_max": (lambda v: carryover_matrix(EXP, CW, m_max=v), 0, 2),
    "memory_kernels.m_max": (lambda v: memory_kernels(EXP, CW, m_max=v), 0, 2),
    "deadtime_closed_form.n": (lambda v: deadtime_closed_form(DEAD, v, 3), 0, 2),
    "deadtime_closed_form.m": (lambda v: deadtime_closed_form(DEAD, 1, v), 0, 2),
    "regular_irregular_split.n": (lambda v: regular_irregular_split(EXP, v, 3), 0, 2),
    "regular_irregular_split.m": (lambda v: regular_irregular_split(EXP, 1, v), 0, 2),
    "last_click_density.n_cut": (lambda v: last_click_density(EXP, 1.0, 0.1, n_cut=v), 1, 2),
    "last_click_density_fock": (lambda v: last_click_density_fock(EXP, v, 0.1), 0, 2),
    "squeezed_distribution_direct":
        (lambda v: squeezed_distribution_direct(EXP, 0.5, v, COARSE), 0, 2),
}


@pytest.mark.filterwarnings("ignore:efficiency at delta")
@pytest.mark.parametrize("bad", ["float", "integral float", "bool", "string", "below"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_count_that_is_not_a_count_is_refused(entry, bad):
    call, minimum, _ = ENTRIES[entry]
    value = {"float": 2.5, "integral float": np.float64(2.0), "bool": True, "string": "2",
             "below": minimum - 1}[bad]
    with pytest.raises(DomainError, match="must be (an integer|nonnegative|at least)"):
        call(value)


@pytest.mark.filterwarnings("ignore:efficiency at delta")
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_numpy_integers_are_counts(entry):
    call, _, valid = ENTRIES[entry]
    call(np.int64(valid))
