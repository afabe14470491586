"""Dense statevector simulation of few-qubit circuits with shot sampling.

Basis convention: qubit 0 is the least-significant bit of the basis index,
so for two qubits the amplitude order is |q1 q0> = |00>, |01>, |10>, |11>
with index i = q1*2 + q0.  Outcome labels are the binary form of the index
(qubit 1 first, qubit 0 second).

All operations are pure: they return new values and never mutate their
inputs, so states and gates can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 12
NORM_TOL = 1e-9
UNITARY_TOL = 1e-12

OUTCOME_LABELS = ("00", "01", "10", "11")

_WORD = 2**64 - 1  # a Philox key is two 64-bit words, low word first


@dataclass(frozen=True)
class Gate1Q:
    """A single-qubit gate; the matrix is checked for unitarity on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)  # private copy, frozen below
        if m.shape != (2, 2):
            raise ValueError(f"Gate1Q matrix must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("Gate1Q matrix has non-finite entries")
        if not np.allclose(m @ m.conj().T, np.eye(2), atol=UNITARY_TOL, rtol=0.0):
            raise ValueError("Gate1Q matrix is not unitary within 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def gate_matrix(kind: str, angle: float | None = None) -> np.ndarray:
    """The 2x2 complex matrix of 'identity', 'hadamard', 'ry' or 'rz'.

    An angle (radians) is required for 'ry' and 'rz' and must be absent
    otherwise.  Unlike gate_library the result is not checked for
    unitarity, which makes it cheap enough to build per circuit.
    """
    if kind in ("ry", "rz"):
        if angle is None:
            raise ValueError(f"gate '{kind}' requires an angle")
    elif angle is not None:
        raise ValueError(f"gate '{kind}' takes no angle")

    if kind == "identity":
        return np.eye(2, dtype=complex)
    if kind == "hadamard":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if kind == "ry":
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rz":
        return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])
    raise ValueError(f"unknown gate kind {kind!r}")


def gate_library(kind: str, angle: float | None = None) -> Gate1Q:
    """gate_matrix(kind, angle) as a unitarity-checked Gate1Q."""
    return Gate1Q(gate_matrix(kind, angle))


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes of an n-qubit register (unit norm, n <= 12)."""

    amps: np.ndarray

    def __post_init__(self):
        a = np.array(self.amps, dtype=complex).reshape(-1)  # private copy, frozen below
        n = int(a.size).bit_length() - 1
        if a.size != 2**n or not (1 <= n <= MAX_QUBITS):
            raise ValueError(
                f"amplitude vector length {a.size} is not 2^n for n in 1..{MAX_QUBITS}"
            )
        if not np.all(np.isfinite(a)):
            raise ValueError("amplitudes must be finite")
        norm2 = float(np.sum(np.abs(a) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {norm2!r}, must be 1 within {NORM_TOL}")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def num_qubits(self) -> int:
        return int(self.amps.size).bit_length() - 1

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        """The all-|0> computational basis state."""
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(amps)


def apply_1q(state: StateVector, gate: Gate1Q, qubit: int) -> StateVector:
    """Apply a single-qubit gate to the given qubit of the register."""
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise IndexError(f"qubit {qubit} out of range for {n}-qubit state")
    # reshape to one axis per qubit; C order puts qubit n-1 on axis 0
    psi = state.amps.reshape([2] * n)
    axis = n - 1 - qubit
    out = np.tensordot(gate.matrix, psi, axes=([1], [axis]))
    out = np.moveaxis(out, 0, axis)
    return StateVector(np.ascontiguousarray(out).reshape(-1))


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Apply CNOT: flip the target bit of basis states whose control bit is 1."""
    n = state.num_qubits
    if control == target:
        raise ValueError("control and target must differ")
    for q in (control, target):
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range for {n}-qubit state")
    idx = np.arange(state.amps.size)
    src = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    return StateVector(state.amps[src])


def probabilities(state: StateVector) -> np.ndarray:
    """Measurement probabilities |amp|^2 in basis-index order."""
    return np.abs(state.amps) ** 2


@dataclass(frozen=True)
class ShotCounts:
    """Counts per 2-bit outcome label; counts must sum to total_shots."""

    counts: dict[str, int]
    total_shots: int

    def __post_init__(self):
        bad = set(self.counts) - set(OUTCOME_LABELS)
        if bad:
            raise ValueError(f"invalid outcome labels {sorted(bad)}")
        if any(v < 0 for v in self.counts.values()):
            raise ValueError("counts must be non-negative")
        if sum(self.counts.values()) != self.total_shots:
            raise ValueError("counts must sum to total_shots")

    def frequency(self, label: str) -> float:
        return self.counts.get(label, 0) / self.total_shots

    def frequencies(self) -> np.ndarray:
        """Frequencies in label order 00, 01, 10, 11."""
        return np.array([self.frequency(lbl) for lbl in OUTCOME_LABELS])


def derive_seed(*parts: int) -> int:
    """Mix integer tags (e.g. master seed, circuit index, run index) into one seed.

    The mixing is deterministic and independent of execution order, which is
    what makes parallel and serial sweeps sample identical shots.
    """
    state = np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(2, np.uint64)
    return int(state[0]) ^ (int(state[1]) << 64)


def _normalized(p: np.ndarray) -> np.ndarray:
    if np.any(p < -1e-12):
        raise ValueError("probabilities must be non-negative")
    total = float(p.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, must be 1 within {NORM_TOL}")
    clipped = np.clip(p, 0.0, None)
    return clipped / clipped.sum()  # guard float drift


def sample_cells(probs, shots: int, seeds) -> np.ndarray:
    """Multinomial shot counts for a grid of (distribution, seed) cells.

    probs is a (G, 4) array of outcome distributions and seeds holds G
    equal-length rows of integer seeds.  The result has shape (G, R, 4):
    cell (g, r) is exactly Generator(Philox(key=seeds[g][r])).multinomial(
    shots, probs[g]), the key being the seed's low 128 bits.

    Every cell is drawn from one Philox/Generator pair whose state is reset
    before the draw to that of a freshly keyed Philox (counter 0, the key,
    an empty buffer, no cached 32-bit half).  Constructing a Philox costs
    several draws, as it gathers OS entropy for a seed sequence that a keyed
    generator never uses.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError(f"expected 4-outcome distributions, got shape {p.shape}")
    if len(seeds) != len(p):
        raise ValueError(f"{len(p)} distributions but {len(seeds)} seed rows")
    runs = len(seeds[0]) if len(seeds) else 0
    if any(len(row) != runs for row in seeds):
        raise ValueError("every distribution needs the same number of seeds")
    dists = [_normalized(row) for row in p]
    if shots < 1:
        raise ValueError("shots must be >= 1")

    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    key = [0, 0]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty((len(dists), runs, 4), dtype=np.int64)
    for g, (dist, row) in enumerate(zip(dists, seeds)):
        for r, seed in enumerate(row):
            key[0] = seed & _WORD
            key[1] = (seed >> 64) & _WORD
            bitgen.state = fresh
            out[g, r] = gen.multinomial(shots, dist)
    return out


def sample_counts(probs, shots: int, seed: int) -> ShotCounts:
    """Draw multinomial shot counts from one 4-outcome distribution.

    The one-cell case of sample_cells; deterministic for a fixed seed.
    """
    p = np.asarray(probs, dtype=float)
    if p.shape != (4,):
        raise ValueError(f"expected a 4-outcome distribution, got shape {p.shape}")
    drawn = sample_cells(p[None, :], shots, [[seed]])[0, 0]
    return ShotCounts({lbl: int(c) for lbl, c in zip(OUTCOME_LABELS, drawn)}, shots)


@dataclass(frozen=True)
class CircuitOp:
    """One instruction of a gate-list circuit.

    name is one of 'identity', 'hadamard', 'ry', 'rz', 'cnot', 'measure';
    for 'cnot' qubits are (control, target).
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None


def run_circuit(ops, num_qubits: int = 2) -> StateVector:
    """Execute a CircuitOp list on |0...0>; 'measure' markers are ignored."""
    state = StateVector.zero(num_qubits)
    for op in ops:
        if op.name == "measure":
            continue
        if op.name == "cnot":
            state = apply_cnot(state, *op.qubits)
        else:
            state = apply_1q(state, gate_library(op.name, op.angle), op.qubits[0])
    return state
