"""Property tests of the conditional matrix on cheap detector configurations.

Dead-time integrands are polynomial in the click times, so a low Gauss
order integrates them to rounding; the ideal profile needs no quadrature.
Exponential-recovery rows come from the renewal engine, checked against
the closed-form same-count diagonal.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from snspd_stats import (CwConfig, DetectorConfig, EfficiencyProfile, QuadratureSpec,
                         StateSpec, carryover_matrix, click_distribution_cw,
                         click_distribution_independent, cond_prob_matrix,
                         photon_number_dist)
from snspd_stats.independent import same_count_probability
from snspd_stats.renewal import fock_tables

CHEAP = QuadratureSpec(gauss_order=8)
M_MAX = 5

tau_ds = st.floats(min_value=0.05, max_value=0.6, allow_nan=False)


def dead(tau_d):
    return DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.dead_time(tau_d))


@settings(max_examples=15, deadline=None)
@given(tau_d=tau_ds)
def test_columns_normalized(tau_d):
    entries = cond_prob_matrix(dead(tau_d), m_max=M_MAX, spec=CHEAP).entries
    np.testing.assert_allclose(entries.sum(axis=0), 1.0, rtol=0, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(tau_d=st.floats(min_value=0.25, max_value=0.6))
def test_no_more_clicks_than_photons_or_the_cap(tau_d):
    config = dead(tau_d)  # at most 2 to 4 clicks fit, fewer than M_MAX
    entries = cond_prob_matrix(config, n_max=M_MAX, m_max=M_MAX, spec=CHEAP).entries
    assert np.all(np.tril(entries, k=-1) == 0.0)  # P(n|m) = 0 for m < n
    assert config.max_clicks() < M_MAX
    assert np.all(entries[config.max_clicks() + 1:] == 0.0)


@settings(max_examples=20, deadline=None)
@given(m_max=st.integers(min_value=0, max_value=12))
def test_ideal_profile_gives_identity(m_max):
    entries = cond_prob_matrix(DetectorConfig(tau_m=1.0), m_max=m_max).entries
    assert np.array_equal(entries, np.eye(m_max + 1))


@settings(max_examples=20, deadline=None)
@given(alpha_sq=st.floats(min_value=0.0, max_value=3.0),
       eta=st.floats(min_value=0.1, max_value=1.0),
       windows=st.integers(min_value=1, max_value=5),
       delta=st.floats(min_value=0.01, max_value=0.5))
def test_ideal_cw_equals_independent_windows(alpha_sq, eta, windows, delta):
    config = DetectorConfig(tau_m=1.0)
    cw = CwConfig(delta=delta, window_count=windows)
    state = photon_number_dist(StateSpec.coherent(alpha_sq), eta=eta, nu=0.0)
    cw_probs = click_distribution_cw(state, config, cw).probs
    assert np.array_equal(cw_probs, click_distribution_independent(state, config).probs)
    carried = carryover_matrix(config, cw, m_max=M_MAX).entries
    assert np.array_equal(carried, cond_prob_matrix(config, m_max=M_MAX).entries)


@settings(max_examples=5, deadline=None)
@given(tau_d=st.floats(min_value=0.02, max_value=0.1),
       tau_r=st.floats(min_value=0.05, max_value=0.3),
       m_max=st.sampled_from([28, 40]))
def test_renewal_rows_meet_their_tolerance_on_the_diagonal(tau_d, tau_r, m_max):
    # past m_max = 24 the chain is tilted; a row it serves must be as good as its estimate says
    config = DetectorConfig(tau_m=1.0, efficiency=EfficiencyProfile.exponential(tau_d, tau_r))
    spec = QuadratureSpec()
    (value, err), = fock_tables(config, 8, m_max, [None])
    for n in range(2, 9):
        if np.all(spec.accepts(value[n], err[n])):
            assert spec.accepts(value[n, n], abs(value[n, n] - same_count_probability(config, n)))
