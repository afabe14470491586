"""Noisy execution of mapped EWL game circuits via 4x4 density matrices.

Every circuit is the EWL sequence of game.py, Ry(gamma), Rz(0), CNOT, then
strategy_a on qubit 0 and strategy_b on qubit 1, so a sweep is given by its
gamma grid and its (strategy_a, strategy_b) pairs.

Error channels, matching the dominant NISQ error sources:

* depolarizing after every gate: rho -> (1-p) rho + p * I/4 for two-qubit
  gates, with p the pair's calibrated two-qubit error, and the
  single-qubit analogue (replace the target qubit's state by I/2) after
  one-qubit gates, with p one tenth of that error;
* symmetric readout confusion with each qubit's calibrated readout error,
  applied to the final outcome distribution;
* a crosstalk penalty of 0.05, an extra two-qubit depolarizing channel
  applied after entangling gates whenever another active pair sits closer
  than graph distance 2 over the calibrated pairs: it holds one of the
  circuit's qubits or a qubit coupled to one.

A global, finite scale factor multiplies every error probability (clamped
to 1), so scale 0 gives the ideal circuit's exact distribution and large
scales drive the state to the maximally mixed limit; NoiseModel.resolved
gives a job's scaled probabilities as one per-circuit array per channel.
Every channel runs at every scale; a matrix whose probability is 0 keeps its bits.

All circuits of a sweep, every strategy pair's circuit at every gamma,
evolve together with stacked matrix products, which give the same bits as
evolving each circuit alone.  The prefix up to the strategy gates does not
depend on the strategies, so it evolves once per gamma as a (G, 4, 4) stack,
and the strategy steps broadcast it to an (S, G, 4, 4) stack.  job_counts
then samples every (strategy pair, circuit, run) cell in one call.  Both
simulate_job and the CLI sweep run on it: simulate_job returns its one strategy
pair's (G, runs, 4) counts as a JobCounts, which stats.build_validation_report
reads as an array.  A JobCounts checks its counts in bulk once and builds a
RunResult per cell only when one is indexed or iterated.

The prefix and the readout matrices are kept for one entry, as read-only
arrays, keyed by the exact bytes of the grid and of the resolved probabilities
(-0.0 and 0.0 differ): consecutive jobs on one plan, calibration and scale,
such as simulate_job once per strategy, evolve the prefix once, and a CLI
sweep, all strategies in one call, meets a miss.  Each strategy's gate on
either qubit is built once, keyed by its kind, the repr of its angle and the qubit.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .device import CalibrationSnapshot
from .game import GAMMA_SLACK, GameSpec, Strategy, is_number
from .gcm import MappingPlan
from .statevec import (OUTCOME_LABELS, ShotCounts, check_shots, derive_seeds, gate_matrix,
                       sample_cells)

CROSSTALK_PENALTY = 0.05        # no published figure exists
ONE_QUBIT_ERROR_FRACTION = 0.1  # one-qubit error as a fraction of the edge error


@dataclass(frozen=True)
class NoiseModel:
    """Error strength: every per-pair figure comes from calibration, times scale."""

    scale: float = 1.0

    def __post_init__(self):
        if not is_number(self.scale):  # np.linspace values included
            raise ValueError(f"scale must be a number, not {self.scale!r}")
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


@dataclass(frozen=True, eq=False)
class JobCounts(Sequence):
    """One job's shot counts: counts is a read-only (len(grid), runs, 4) int64
    array, counts[i, run] in outcome-label order for gamma grid[i] in run
    `run`, each row summing to shots.

    As a Sequence it holds len(grid) * runs RunResults, run-major; each one,
    with its ShotCounts, is built when it is indexed or iterated.  Two jobs are
    equal when their grids, shots and counts are.
    """

    counts: np.ndarray
    grid: tuple[float, ...]
    shots: int

    def __post_init__(self):
        counts, grid, shots = np.asarray(self.counts), tuple(self.grid), self.shots
        # ShotCounts' checks, made once for every cell
        if counts.ndim != 3 or counts.shape[0] != len(grid) or counts.shape[2] != 4:
            raise ValueError(f"counts must have shape ({len(grid)}, runs, 4), "
                             f"got {counts.shape}")
        if counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        check_shots(shots)
        counts = counts.astype(np.int64)  # a copy, which no caller holds
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        fits = shots < 2**61 and (counts <= shots).all()  # then no int64 row sum wraps
        if (counts.sum(axis=-1, dtype=None if fits else object) != shots).any():
            raise ValueError("counts must sum to shots")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "grid", grid)

    def __len__(self) -> int:
        return self.counts.shape[0] * self.counts.shape[1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[n] for n in range(*index.indices(len(self)))]
        n = operator.index(index)
        if not -len(self) <= n < len(self):
            raise IndexError(f"cell {n} of a job of {len(self)} cells")
        run, i = divmod(n % len(self), len(self.grid))
        counts = dict(zip(OUTCOME_LABELS, self.counts[i, run].tolist()))
        return RunResult(i, self.grid[i], ShotCounts(counts, self.shots), run)

    def __eq__(self, other):
        if not isinstance(other, JobCounts):
            return NotImplemented
        return ((self.grid, self.shots) == (other.grid, other.shots)
                and np.array_equal(self.counts, other.counts))


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
_HALF_I, _QUARTER_I = np.eye(2) / 2.0, np.eye(4) / 4.0  # the depolarizing channels' targets


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
    return _mix(rho, p, _embed_1q(_HALF_I, qubit, _partial_trace(rho, qubit)))


def depolarize_2q(rho: np.ndarray, p) -> np.ndarray:
    """Mix towards I/4 with probability p; rho and p as for depolarize_1q."""
    return _mix(rho, p, _QUARTER_I)


def confusion_matrix(readout_error) -> np.ndarray:
    """Symmetric per-qubit readout confusion (column-stochastic).

    An array of errors gives a stack of matrices, one per error.
    """
    r = np.asarray(readout_error, dtype=float)
    matrix = np.empty(r.shape + (2, 2))
    matrix[..., 0, 0] = matrix[..., 1, 1] = 1.0 - r
    matrix[..., 0, 1] = matrix[..., 1, 0] = r
    return matrix


def _evolve(rho: np.ndarray, u, conj=None) -> np.ndarray:
    return u @ rho @ np.swapaxes(u.conj() if conj is None else conj, -1, -2)


def _one_qubit_step(rho: np.ndarray, qubit: int, gates, p) -> np.ndarray:
    return depolarize_1q(_evolve(rho, _embed_1q(np.array(gates), qubit)), qubit, p)


@functools.lru_cache(maxsize=64)  # a few strategies' gates on either qubit
def _gate_table(kind: str, angle: str, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """A strategy's read-only (1, 1, 4, 4) gate on qubit, as _one_qubit_step embeds it, and
    its conjugate; angle is the float's repr, so that RY(-0.0) and RY(0.0) key apart."""
    u = _embed_1q(np.array([[gate_matrix(kind, float(angle) if kind == "RY" else None)]]), qubit)
    conj = u.conj()
    u.flags.writeable = conj.flags.writeable = False
    return u, conj


@functools.lru_cache(maxsize=1)
def _prefix(*key: tuple[str, bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (G, 4, 4) stack after Ry(gamma), Rz(0), the CNOT and their
    channels, and the readout matrices, from the (dtype, bytes) of the grid and
    of NoiseModel.resolved's five arrays."""
    grid, p1, p2, p_xt, ro_a, ro_b = (np.frombuffer(data, dtype) for dtype, data in key)
    rho = np.zeros((len(grid), 4, 4), dtype=complex)
    rho[:, 0, 0] = 1.0
    # every gate_matrix("RY", gamma), its math.cos and math.sin floats, as one array
    c, s = np.array([(math.cos(g / 2), math.sin(g / 2)) for g in grid.tolist()]).T
    rho = _one_qubit_step(rho, 0, np.array([[c, -s], [s, c]], complex).transpose(2, 0, 1), p1)
    # Rz(0) is a real step: its product and its channel set the output bits
    rho = _one_qubit_step(rho, 0, [gate_matrix("RZ", 0.0)], p1)
    rho = depolarize_2q(_evolve(rho, _CNOT), p2)
    rho = depolarize_2q(rho, p_xt)
    readout = _embed_1q(confusion_matrix(ro_a), 0, confusion_matrix(ro_b))
    rho.flags.writeable = readout.flags.writeable = False
    return rho, readout


def noisy_distributions(
    grid: Sequence[float],
    players: Sequence[tuple[Strategy, Strategy]],
    two_qubit_errors,
    readout_errors,
    model: NoiseModel,
    crosstalk_active: Sequence[bool],
) -> np.ndarray:
    """Evolve every (strategy pair, angle) EWL circuit of a sweep together.

    Angle i runs on one mapped pair: gamma grid[i] in [0, pi], two-qubit error
    two_qubit_errors[i], readout errors readout_errors[i] (qubit 0, qubit 1),
    as CalibrationSnapshot.figures gives them, and the extra crosstalk channel
    when crosstalk_active[i] is true.  Every pair players[s] = (strategy_a,
    strategy_b) plays every angle.  Ry(gamma), Rz(0), the CNOT and their
    channels evolve once per angle as a (G, 4, 4) stack; the two strategy steps
    broadcast it with (S, 1, 4, 4) gates from _gate_table.  Stacked products
    give every circuit the bits it gets alone, and identity gates are applied
    and depolarized like any other.  The prefix and readout matrices come
    from _prefix's one-entry memo: a call whose float grid and resolved
    probabilities match the last call's bit for bit reuses its read-only arrays.

    Returns an (S, G, 4) array of outcome distributions after readout
    confusion, zeros when grid or players is empty; each row sums to 1 within
    1e-9 and equals the ideal distribution exactly when scale is 0.
    """
    g = len(grid)
    sizes = (len(two_qubit_errors), len(readout_errors), len(crosstalk_active))
    if sizes != (g, g, g):
        raise ValueError(f"{g} angles but (two-qubit errors, readout pairs, flags) = {sizes}")
    for gamma in grid:
        if not -GAMMA_SLACK <= gamma <= np.pi + GAMMA_SLACK:
            raise ValueError(f"gamma = {gamma!r} outside [0, pi]")
    if g == 0 or not players:
        return np.zeros((len(players), g, 4))

    arrays = (np.asarray(grid, dtype=float),
              *model.resolved(two_qubit_errors, readout_errors, crosstalk_active))
    rho, readout = _prefix(*((a.dtype.str, a.tobytes()) for a in arrays))
    p1 = arrays[1]
    for qubit in (0, 1):  # strategy_a on qubit 0, strategy_b on qubit 1
        gates = (_gate_table(pair[qubit].kind, repr(pair[qubit].angle), qubit) for pair in players)
        u, conj = map(np.concatenate, zip(*gates))
        rho = depolarize_1q(_evolve(rho, u, conj), qubit, p1)
    probs = np.diagonal(rho, axis1=-2, axis2=-1).real.copy()
    probs = (readout @ probs[..., None])[..., 0]
    return np.clip(probs, 0.0, None)


def crosstalk_flags(plan: MappingPlan, edges) -> list[bool]:
    """Per-circuit flag: does another active pair hold one of the circuit's qubits
    or a qubit coupled to one?  edges lists the coupled pairs, in any order and
    orientation; a job passes its calibration's pairs."""
    owner: dict[int, int] = {}  # qubit -> the last circuit holding it
    flags = [False] * len(plan.assignments)
    for i, pair in enumerate(plan.assignments):
        for q in pair:
            if q in owner:  # pairs that share a qubit flag each other
                flags[i] = flags[owner[q]] = True
            owner[q] = i
    # every holder of a shared qubit is flagged already, so its last holder stands for all
    for u, v in edges:
        if u in owner and v in owner and owner[u] != owner[v]:
            flags[owner[u]] = flags[owner[v]] = True
    return flags


def job_counts(
    plan: MappingPlan,
    grid: Sequence[float],
    players: Sequence[tuple[Strategy, Strategy]],
    calib: CalibrationSnapshot,
    model: NoiseModel,
    shots: int,
    runs: int,
    seeds: Sequence[int],
) -> np.ndarray:
    """Shot counts of every (strategy pair, circuit, run) cell of a mapped sweep.

    Circuit i of strategy pair s plays players[s] = (strategy_a, strategy_b)
    at grid[i] on the plan's i-th pair; the result has shape (len(players),
    len(grid), runs, 4) in outcome-label order.  One calib.figures call gives
    every angle's figures, all circuits evolve in one noisy_distributions grid,
    one derive_seeds call keys every cell and one sample_cells call draws them.
    Cell (s, i, run) draws from derive_seed(seeds[s], i, run), so its counts do
    not depend on which other cells or strategy pairs are sampled.  Crosstalk
    follows crosstalk_flags(plan, calib.pairs).
    """
    if not players:
        raise ValueError("a job needs at least one strategy pair")
    if len(seeds) != len(players):
        raise ValueError(f"{len(players)} strategy pairs but {len(seeds)} seeds; need one each")
    if len(plan.assignments) != len(grid):
        raise ValueError(f"plan has {len(plan.assignments)} pairs but the gamma grid has "
                         f"{len(grid)} points")
    check_shots(shots)  # before any circuit evolves
    two_qubit, readout, _ = calib.figures(plan.assignments)
    distributions = noisy_distributions(grid, players, two_qubit, readout, model,
                                        crosstalk_flags(plan, calib.pairs))
    cells = len(players) * len(grid)
    keys = derive_seeds(seeds, len(grid), runs).reshape(cells, runs, 2)
    return sample_cells(distributions.reshape(cells, 4), shots, keys).reshape(
        len(players), len(grid), runs, 4)


def simulate_job(
    plan: MappingPlan,
    spec: GameSpec,
    calib: CalibrationSnapshot,
    model: NoiseModel,
    shots: int,
    runs: int,
    seed: int,
) -> JobCounts:
    """job_counts of the spec's one strategy pair: its (G, runs, 4) counts over
    spec.gamma_grid, with shots, as one JobCounts."""
    counts = job_counts(plan, spec.gamma_grid, [(spec.strategy_a, spec.strategy_b)], calib,
                        model, shots, runs, [seed])
    return JobCounts(counts[0], spec.gamma_grid, shots)
