"""Data behind the paper's example figures.

Figure 3 is coherent light (alpha0 = 2), figure 4 a four-photon Fock state
at eta = 1 and 0.8, figure 5 squeezed vacuum (r = 1.5, eta = 0.8).  Each
figure compares four detector models: photon-number resolution, a
shifted dead time tau_d + tau_r, the relaxation model (exp recovery,
independent windows) and the continuous-wave memory model.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .continuous import CwConfig, click_distribution_cw, memory_kernels
from .detector import DetectorConfig, EfficiencyProfile
from .independent import (click_distribution_independent, cond_prob_matrix,
                          deadtime_closed_form, squeezed_distribution_direct)
from .quadrature import QuadratureSpec
from .states import StateSpec, photon_number_dist


def _figure_states(fig: int):
    if fig == 3:
        return [("coherent_alpha0=2", StateSpec.coherent(2.0), 1.0)]
    if fig == 4:
        return [("fock4_eta=1", StateSpec.fock(4), 1.0),
                ("fock4_eta=0.8", StateSpec.fock(4), 0.8)]
    return [("squeezed_r=1.5_eta=0.8", StateSpec.squeezed(1.5), 0.8)]


def _dist_within_tail(state: StateSpec, eta: float):
    dist = photon_number_dist(state, eta=eta, nu=0.0)
    m_max = dist.m_max
    while dist.tail > 1e-8 and m_max < 1024:
        m_max *= 2
        dist = photon_number_dist(state, eta=eta, nu=0.0, m_max=m_max)
    return dist


def figure_payload(fig: int, spec: QuadratureSpec, tau_m: float = 1.0) -> dict:
    """Distributions of the four detector models behind one example figure.

    The memory model's matrix and kernels are computed once per photon
    cutoff and shared by the datasets that reach it.
    """
    td, tr, delta, l_win = 0.05 * tau_m, 0.2 * tau_m, 0.3 * tau_m, 3
    exp_cfg = DetectorConfig(tau_m=tau_m,
                             efficiency=EfficiencyProfile.exponential(td, tr))
    shift_cfg = DetectorConfig(tau_m=tau_m,
                               efficiency=EfficiencyProfile.dead_time(td + tr))
    cw = CwConfig(delta=delta, window_count=l_win)
    datasets, tables = {}, {}
    for label, state, eta in _figure_states(fig):
        dist = _dist_within_tail(state, eta)
        pnr = dist.probs
        n_shift = min(shift_cfg.max_clicks(), dist.m_max)
        shifted = np.array([
            sum(deadtime_closed_form(shift_cfg, n, m) * dist.probs[m]
                for m in range(dist.m_max + 1)) for n in range(n_shift + 1)])
        if state.kind == "squeezed_vacuum":
            # exact in the photon number, sidesteps the heavy-tail truncation
            relax_cfg = DetectorConfig(tau_m=tau_m, eta=eta,
                                       efficiency=exp_cfg.efficiency)
            n_top = exp_cfg.max_clicks() or dist.m_max
            relax = squeezed_distribution_direct(relax_cfg, state.r,
                                                 n_max=n_top, spec=spec)
        else:
            relax = click_distribution_independent(dist, exp_cfg, spec).probs
        if dist.m_max not in tables:
            tables[dist.m_max] = (cond_prob_matrix(exp_cfg, m_max=dist.m_max, spec=spec),
                                  memory_kernels(exp_cfg, cw, m_max=dist.m_max, spec=spec))
        matrix, kernels = tables[dist.m_max]
        cw_probs = click_distribution_cw(dist, exp_cfg, cw, spec, kernels=kernels,
                                         matrix=matrix).probs
        n_len = max(len(pnr), len(shifted), len(relax), len(cw_probs))
        pad = lambda a: np.pad(np.asarray(a, dtype=float), (0, n_len - len(a)))
        datasets[label] = {
            "eta": eta,
            "models": {
                "pnr": [repr(float(x)) for x in pad(pnr)],
                "shifted_deadtime": [repr(float(x)) for x in pad(shifted)],
                "relaxation": [repr(float(x)) for x in pad(relax)],
                "continuous_wave": [repr(float(x)) for x in pad(cw_probs)],
            },
        }
    body = json.dumps(datasets, sort_keys=True)
    return {"figure": fig,
            "parameters": {"tau_d": td, "tau_r": tr, "delta": delta,
                           "windows": l_win, "tau_m": tau_m},
            "digest": hashlib.sha256(body.encode()).hexdigest()[:16],
            "datasets": datasets}
