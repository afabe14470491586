"""The noise model in closed form, the test-side oracle for noise.noisy_distributions,
and the eager per-cell results that noise.JobCounts stands in for.

Starting from |00>, two depolarized one-qubit steps on qubit 0 leave
f = (1-p1)^2 of the pure state; CNOT maps it to c|00> + s|11> and the mixed
part to (|00><00| + |11><11|)/2.  The two-qubit and crosstalk channels keep
d = (1-p2)(1-p_xt) of that.  Each final one-qubit channel then acts on the
measured bit as a flip with probability p1/2, which composes with readout
confusion ro_q into one flip with probability e_q = p1/2 + ro_q - p1*ro_q.
"""

import math

import numpy as np

from qbos.game import analytical_curves
from qbos.noise import CROSSTALK_PENALTY, ONE_QUBIT_ERROR_FRACTION, RunResult
from qbos.statevec import OUTCOME_LABELS, ShotCounts


def analytical_payoffs(strategy, gamma, variant="corrected", payoff=None):
    """Closed-form (e_a, e_b) at one gamma: the one row of analytical_curves."""
    ea, eb = analytical_curves(strategy, (gamma,), variant, payoff)[0].tolist()
    return ea, eb


def strategy_unitary(strategy) -> np.ndarray:
    if strategy.kind == "I":
        return np.eye(2)
    if strategy.kind == "H":
        return np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    c, s = math.cos(strategy.angle / 2), math.sin(strategy.angle / 2)
    return np.array([[c, -s], [s, c]])


def closed_form_distribution(gamma, strategy_a, strategy_b, two_qubit_error,
                             readout_errors, scale, crosstalk) -> np.ndarray:
    """P over outcomes 2*q1 + q0 of one mapped EWL circuit under NoiseModel(scale)."""
    p1, p2, p_xt, ro0, ro1 = (min(1.0, scale * x) for x in (
        ONE_QUBIT_ERROR_FRACTION * two_qubit_error, two_qubit_error,
        CROSSTALK_PENALTY * crosstalk, *readout_errors))
    f, d = (1 - p1) ** 2, (1 - p2) * (1 - p_xt)
    u = np.kron(strategy_unitary(strategy_b), strategy_unitary(strategy_a))
    p_phi = (u @ [math.cos(gamma / 2), 0.0, 0.0, math.sin(gamma / 2)]) ** 2
    p_mix = (u[:, 0] ** 2 + u[:, 3] ** 2) / 2
    p = d * (f * p_phi + (1 - f) * p_mix) + (1 - d) / 4
    flip = [np.array([[1 - e, e], [e, 1 - e]]) for e in (p1 / 2 + r - p1 * r for r in (ro0, ro1))]
    return np.kron(flip[1], flip[0]) @ p


def eager_run_results(counts, grid, shots):
    """The list simulate_job built before JobCounts: one RunResult, with its
    ShotCounts, per cell of a (len(grid), runs, 4) count array, run-major."""
    runs = np.shape(counts)[1]
    counts = np.asarray(counts).tolist()
    return [RunResult(i, gamma, ShotCounts(dict(zip(OUTCOME_LABELS, counts[i][run])), shots), run)
            for run in range(runs) for i, gamma in enumerate(grid)]
