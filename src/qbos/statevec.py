"""Gate matrices, circuit instructions, seeds and batched seeded shot sampling.

The two-qubit circuits themselves are evolved by the density-matrix core in
``noise``; this module holds what that core and the sweeps build on.

derive_seed mixes integer tags through numpy's SeedSequence.  derive_seeds
gives the seeds of every (circuit, run) cell of a job in one vectorised pass
over arrays of cells that reproduces SeedSequence bit for bit; derive_seed
stays its per-cell reference.

Basis convention: qubit 0 is the least-significant bit of the basis index,
so for two qubits the amplitude order is |q1 q0> = |00>, |01>, |10>, |11>
with index i = q1*2 + q0.  Outcome labels are the binary form of the index
(qubit 1 first, qubit 0 second).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-9

OUTCOME_LABELS = ("00", "01", "10", "11")

_WORD = 2**64 - 1  # a Philox key is two 64-bit words, low word first

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def gate_matrix(kind: str, angle: float | None = None) -> np.ndarray:
    """The 2x2 complex matrix of 'identity', 'hadamard', 'ry' or 'rz'.

    An angle (radians) is required for 'ry' and 'rz' and must be absent
    otherwise.
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

    The mixing is deterministic and independent of execution order, so a
    cell's shots do not depend on which other cells are sampled.
    """
    state = np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(2, np.uint64)
    return int(state[0]) ^ (int(state[1]) << 64)


def _words(n: int) -> list[int]:
    """SeedSequence's split of an int: 32-bit words, low word first; 0 is [0]."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


class _HashMix:
    """SeedSequence's hashmix over uint32 arrays, with its evolving constant."""

    def __init__(self, init: int, mult: int):
        self.const = init
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value = value * self.const
        return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool word x with hashed word y."""
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> 16)


def derive_seeds(seed: int, circuits: int, runs: int) -> list[list[int]]:
    """derive_seed(seed, i, run) for every cell of a circuits x runs grid.

    Returns [[derive_seed(seed, i, run) for run in range(runs)] for i in
    range(circuits)], computed in one pass over all cells.  The cells share
    one entropy word layout (the words of seed, one word for i, one for run),
    so the SeedSequence hash (O'Neill's seed_seq, pool size 4) runs on uint32
    arrays with one element per cell, bit for bit as numpy runs it on one
    cell.  Its hash constants evolve the same way for every cell and stay
    Python ints; uint32 array arithmetic wraps modulo 2**32 as the C code
    does.  circuits and runs must each fit one word.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for name, count in (("circuits", circuits), ("runs", runs)):
        if not 0 <= count < 2**32:
            raise ValueError(f"{name} = {count} outside [0, 2**32)")
    cells = np.indices((circuits, runs), dtype=np.uint32).reshape(2, -1)
    entropy = [np.full(cells.shape[1], w, dtype=np.uint32) for w in _words(seed)]
    entropy += list(cells)
    zeros = np.zeros(cells.shape[1], dtype=np.uint32)

    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[k] if k < len(entropy) else zeros) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):  # late words reach earlier ones
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(2, uint64): four output words, low word first
    output = _HashMix(_INIT_B, _MULT_B)
    w0, w1, w2, w3 = (output(word).astype(np.uint64) for word in pool)
    low, high = (w0 | w1 << np.uint64(32)).tolist(), (w2 | w3 << np.uint64(32)).tolist()
    flat = [lo | hi << 64 for lo, hi in zip(low, high)]
    return [flat[i * runs:(i + 1) * runs] for i in range(circuits)]


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


@dataclass(frozen=True)
class CircuitOp:
    """One instruction of a gate-list circuit.

    name is one of 'identity', 'hadamard', 'ry', 'rz', 'cnot', 'measure';
    for 'cnot' qubits are (control, target).
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

