"""Noisy execution of mapped EWL game circuits via 4x4 density matrices.

Every circuit is the EWL sequence of game.py, Ry(gamma), Rz(0), CNOT, then
strategy_a on qubit 0 and strategy_b on qubit 1, so a circuit is given by
its (gamma, strategy_a, strategy_b) triple.

Error channels, matching the dominant NISQ error sources:

* depolarizing after every gate: rho -> (1-p) rho + p * I/4 for two-qubit
  gates, with p the pair's calibrated two-qubit error, and the
  single-qubit analogue (replace the target qubit's state by I/2) after
  one-qubit gates, with p one tenth of that error;
* symmetric readout confusion with each qubit's calibrated readout error,
  applied to the final outcome distribution;
* a crosstalk penalty of 0.05, an extra two-qubit depolarizing channel
  applied after entangling gates whenever another active pair sits closer
  than graph distance 2.

A global, finite scale factor multiplies every error probability (clamped
to 1), so scale 0 gives the ideal circuit's exact distribution and large
scales drive the state to the maximally mixed limit; NoiseModel.resolved
gives a job's scaled probabilities as one per-circuit array per channel.
Every channel runs at every scale; a matrix whose probability is 0 keeps its bits.

All circuits of a sweep, every strategy's circuit at every gamma, evolve
together as one (S*G, 4, 4) stack of density matrices with stacked matrix
products, which give the same bits as evolving each circuit alone; the
strategies share the stack because their circuits differ only in the gamma
and the strategy gates.  job_counts then samples every (strategy pair,
circuit, run) cell in one call.  Both simulate_job and the CLI sweep run on
it.  A step builds and embeds each distinct gate once and gathers one row
per circuit.  simulate_job passes the snapshot's kept graph
(CalibrationSnapshot.graph), so every job after the first on a snapshot
reuses that graph and its separation table for the crosstalk flags.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .device import CalibrationSnapshot, CouplingGraph
from .game import GAMMA_SLACK, GameSpec, Strategy
from .gcm import MappingPlan, _conflict_matrix, _near
from .statevec import OUTCOME_LABELS, ShotCounts, derive_seeds, gate_matrix, sample_cells

CROSSTALK_DISTANCE = 2          # pairs closer than this interfere
CROSSTALK_PENALTY = 0.05        # no published figure exists
ONE_QUBIT_ERROR_FRACTION = 0.1  # one-qubit error as a fraction of the edge error


@dataclass(frozen=True)
class NoiseModel:
    """Error strength: every per-pair figure comes from calibration, times scale."""

    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.scale < float("inf"):
            raise ValueError("scale must be finite and >= 0")

    def resolved(self, two_qubit_errors, readout_errors, crosstalk_active: Sequence[bool]):
        """Per-circuit arrays (p_1q, p_2q, p_crosstalk, ro_a, ro_b) from the figures
        noisy_distributions takes, each np.minimum(1.0, scale * x); p_crosstalk is 0
        where crosstalk_active is false."""
        p2 = np.asarray(two_qubit_errors, dtype=float)
        ro = np.asarray(readout_errors, dtype=float).reshape(-1, 2)
        xt = CROSSTALK_PENALTY * np.asarray(crosstalk_active, dtype=float)
        return tuple(
            np.minimum(1.0, self.scale * x)
            for x in (ONE_QUBIT_ERROR_FRACTION * p2, p2, xt, ro[:, 0], ro[:, 1])
        )


@dataclass(frozen=True)
class RunResult:
    circuit_index: int
    gamma: float
    counts: ShotCounts
    run_index: int


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of 2x2 factors, elementwise the same products, over stacks of them."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def _embed_1q(matrix: np.ndarray, qubit: int, other: np.ndarray = np.eye(2)) -> np.ndarray:
    # basis index = 2*q1 + q0, so the qubit-0 factor sits on the right of kron
    if qubit == 0:
        return _kron2(other, matrix)
    return _kron2(matrix, other)


# the EWL circuit's CNOT, control qubit 0 and target qubit 1: |q1 q0> = |01> <-> |11>
_CNOT = np.eye(4)[[0, 3, 2, 1]]


def _partial_trace(rho: np.ndarray, qubit: int) -> np.ndarray:
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))  # (..., q1, q0, q1', q0')
    if qubit == 0:
        return np.einsum("...abcb->...ac", r)
    return np.einsum("...abac->...bc", r)


def _mix(rho: np.ndarray, p, mixed) -> np.ndarray:
    """(1-p) rho + p mixed per matrix; a matrix whose p is 0 keeps its exact bits."""
    pp = np.asarray(p, dtype=float)[..., None, None]
    return np.where(pp == 0.0, rho, (1.0 - pp) * rho + pp * mixed)


def depolarize_1q(rho: np.ndarray, qubit: int, p) -> np.ndarray:
    """Replace one qubit's state by I/2 with probability p.

    rho is one 4x4 density matrix, with p a scalar, or a (G, 4, 4) stack,
    with p a scalar or one probability per matrix.
    """
    return _mix(rho, p, _embed_1q(np.eye(2) / 2.0, qubit, _partial_trace(rho, qubit)))


def depolarize_2q(rho: np.ndarray, p) -> np.ndarray:
    """Mix towards I/4 with probability p; rho and p as for depolarize_1q."""
    return _mix(rho, p, np.eye(4) / 4.0)


def confusion_matrix(readout_error) -> np.ndarray:
    """Symmetric per-qubit readout confusion (column-stochastic).

    An array of errors gives a stack of matrices, one per error.
    """
    r = np.asarray(readout_error, dtype=float)
    return np.stack([np.stack([1.0 - r, r], -1), np.stack([r, 1.0 - r], -1)], -2)


def noisy_distributions(
    games: Sequence[tuple[float, Strategy, Strategy]],
    two_qubit_errors,
    readout_errors,
    model: NoiseModel,
    crosstalk_active: Sequence[bool],
) -> np.ndarray:
    """Evolve G mapped EWL circuits together as a (G, 4, 4) density-matrix stack.

    Circuit g plays games[g] = (gamma, strategy_a, strategy_b), with gamma in
    [0, pi], on a pair with two-qubit error two_qubit_errors[g] and readout
    errors readout_errors[g] (qubit 0, qubit 1), as CalibrationSnapshot.figures
    gives them, with the extra crosstalk channel when crosstalk_active[g] is
    true.  Each step applies one stacked gate and its depolarizing channel to
    every circuit.  Steps key their gates as statevec.gate_matrix takes them:
    ("RY", gamma), ("RZ", 0.0) and each strategy's (kind, angle).  Each
    distinct key of a step is built and embedded once and its rows gathered,
    one per circuit; the rows are exact copies, and identity gates are applied
    and depolarized like any other, so every circuit gets the bits it gets alone.

    Returns a (G, 4) array of outcome distributions after readout
    confusion; each row sums to 1 within 1e-9 and equals the ideal
    distribution exactly when scale is 0.
    """
    g = len(games)
    sizes = (len(two_qubit_errors), len(readout_errors), len(crosstalk_active))
    if sizes != (g, g, g):
        raise ValueError(f"{g} circuits but (two-qubit errors, readout pairs, flags) = {sizes}")
    if g == 0:
        return np.zeros((0, 4))
    for gamma, _, _ in games:
        if not -GAMMA_SLACK <= gamma <= np.pi + GAMMA_SLACK:
            raise ValueError(f"gamma = {gamma!r} outside [0, pi]")

    p1, p2, p_xt, ro_a, ro_b = model.resolved(two_qubit_errors, readout_errors, crosstalk_active)

    def evolve(rho, u):
        return u @ rho @ np.swapaxes(u.conj(), -1, -2)

    def one_qubit_step(rho, qubit, keys):
        row = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        u = _embed_1q(np.stack([gate_matrix(*key) for key in row]), qubit)
        return depolarize_1q(evolve(rho, u[[row[key] for key in keys]]), qubit, p1)

    rho = np.zeros((g, 4, 4), dtype=complex)
    rho[:, 0, 0] = 1.0
    rho = one_qubit_step(rho, 0, [("RY", gamma) for gamma, _, _ in games])
    # Rz(0) is a real step: its product and its channel set the output bits
    rho = one_qubit_step(rho, 0, [("RZ", 0.0)] * g)
    rho = depolarize_2q(evolve(rho, _CNOT), p2)
    rho = depolarize_2q(rho, p_xt)
    rho = one_qubit_step(rho, 0, [(sa.kind, sa.angle) for _, sa, _ in games])
    rho = one_qubit_step(rho, 1, [(sb.kind, sb.angle) for _, _, sb in games])
    probs = np.diagonal(rho, axis1=-2, axis2=-1).real.copy()
    readout = _embed_1q(confusion_matrix(ro_a), 0, confusion_matrix(ro_b))
    probs = (readout @ probs[:, :, None])[:, :, 0]
    return np.clip(probs, 0.0, None)


def crosstalk_flags(plan: MappingPlan, graph: CouplingGraph) -> list[bool]:
    """Per-circuit flag: does any other active pair sit closer than distance 2?"""
    # the mapper's conflict relation at the crosstalk distance, minus self-conflict
    conflict = _conflict_matrix(_near(graph, CROSSTALK_DISTANCE), plan.assignments)
    np.fill_diagonal(conflict, False)
    return conflict.any(axis=1).tolist()


def job_counts(
    plan: MappingPlan,
    grid: Sequence[float],
    players: Sequence[tuple[Strategy, Strategy]],
    calib: CalibrationSnapshot,
    model: NoiseModel,
    shots: int,
    runs: int,
    seeds: Sequence[int],
    graph: CouplingGraph,
) -> np.ndarray:
    """Shot counts of every (strategy pair, circuit, run) cell of a mapped sweep.

    Circuit i of strategy pair s plays players[s] = (strategy_a, strategy_b)
    at grid[i] on the plan's i-th pair; the result has shape (len(players),
    len(grid), runs, 4) in outcome-label order.  One calib.figures call gives
    every pair's figures, all circuits evolve in one noisy_distributions stack,
    one derive_seeds call keys every cell and one sample_cells call draws them.
    Cell (s, i, run) draws from derive_seed(seeds[s], i, run), so its counts do
    not depend on which other cells or strategy pairs are sampled.  Crosstalk
    follows crosstalk_flags(plan, graph), graph being the device's coupling graph.
    """
    if not players:
        raise ValueError("a job needs at least one strategy pair")
    if len(seeds) != len(players):
        raise ValueError(f"{len(players)} strategy pairs but {len(seeds)} seeds; need one each")
    if len(plan.assignments) != len(grid):
        raise ValueError(f"plan has {len(plan.assignments)} pairs but the gamma grid has "
                         f"{len(grid)} points")
    games = [(gamma, a, b) for a, b in players for gamma in grid]
    two_qubit, readout, _ = calib.figures(plan.assignments)
    flags = crosstalk_flags(plan, graph) * len(players)
    distributions = noisy_distributions(games, np.tile(two_qubit, len(players)),
                                        np.tile(readout, (len(players), 1)), model, flags)
    keys = derive_seeds(seeds, len(grid), runs).reshape(len(games), runs, 2)
    return sample_cells(distributions, shots, keys).reshape(len(players), len(grid), runs, 4)


def simulate_job(
    plan: MappingPlan,
    spec: GameSpec,
    calib: CalibrationSnapshot,
    model: NoiseModel,
    shots: int,
    runs: int,
    seed: int,
) -> list[RunResult]:
    """job_counts as RunResults, run by run and circuit by circuit within a run."""
    counts = job_counts(plan, spec.gamma_grid, [(spec.strategy_a, spec.strategy_b)],
                        calib, model, shots, runs, [seed], calib.graph())[0].tolist()
    return [RunResult(i, gamma, ShotCounts(dict(zip(OUTCOME_LABELS, counts[i][run])), shots), run)
            for run in range(runs) for i, gamma in enumerate(spec.gamma_grid)]
