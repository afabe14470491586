"""Gate matrices, seeds and batched seeded shot sampling.

The EWL game circuits themselves are evolved by the density-matrix core in
``noise``; this module holds what that core and the sweeps build on.

derive_seed mixes integer tags through numpy's SeedSequence into one int.
derive_seeds gives the Philox key words of every (seed, circuit, run) cell of
a job as one uint64 array, reproducing SeedSequence bit for bit in one
vectorised pass per seed word count; derive_seed stays its per-cell reference.

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

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def gate_matrix(kind: str, angle: float | None = None) -> np.ndarray:
    """The 2x2 complex matrix of a Strategy kind, 'I', 'H' or 'RY', or of
    'RZ'; 'RY' and 'RZ' rotate by angle (radians)."""
    if kind == "I":
        return np.eye(2, dtype=complex)
    if kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if kind == "RY":
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
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
        if self.total_shots < 1:
            raise ValueError("need at least one shot")
        if any(v < 0 for v in self.counts.values()):
            raise ValueError("counts must be non-negative")
        if sum(self.counts.values()) != self.total_shots:
            raise ValueError("counts must sum to total_shots")


def derive_seed(*parts: int) -> int:
    """Mix integer tags (e.g. master seed, circuit index, run index) into one seed.

    The mixing is deterministic and independent of execution order, so a
    cell's shots do not depend on which other cells are sampled.
    """
    state = np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(2, np.uint64)
    return int(state[0]) ^ (int(state[1]) << 64)


def _words(n: int) -> list[int]:
    """SeedSequence's split of an int: 32-bit words, low word first; 0 is [0]."""
    return [(n >> shift) & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


class _HashMix:
    """SeedSequence's hashmix over uint32 rows, with its evolving constant; one call
    hashes ``rows`` rows, or one row ``rows`` times, as that many one-row calls would."""

    def __init__(self, init: int, mult: int):
        self.const = init
        self.mult = mult

    def __call__(self, value: np.ndarray, rows: int) -> np.ndarray:
        consts = [self.const * pow(self.mult, j, 2**32) & _MASK32 for j in range(rows + 1)]
        self.const = consts[-1]
        c = np.array(consts, dtype=np.uint32)[:, None]
        value = (value ^ c[:-1]) * c[1:]
        return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> 16)


def derive_seeds(seeds, circuits: int, runs: int) -> np.ndarray:
    """The Philox key words of derive_seed(seed, i, run) for each seed of a job.

    Cell (s, i, run) of the (len(seeds), circuits, runs, 2) uint64 result holds
    the low and high 64-bit words of derive_seed(seeds[s], i, run).  A seed's
    32-bit word count sets its cells' entropy layout (its words, i, run), so
    the SeedSequence hash (O'Neill's seed_seq, pool size 4) runs once per word
    count on uint32 (entropy word, cell) rows, bit for bit as numpy runs it on
    one cell: its Python-int constants evolve alike for every cell, and uint32
    arithmetic wraps modulo 2**32 as the C code does.  circuits and runs must
    each fit one word.
    """
    seeds = [int(seed) for seed in seeds]
    groups: dict[int, list[int]] = {}
    for s, seed in enumerate(seeds):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        groups.setdefault(len(_words(seed)), []).append(s)
    for name, count in (("circuits", circuits), ("runs", runs)):
        if not 0 <= count < 2**32:
            raise ValueError(f"{name} = {count} outside [0, 2**32)")
    out = np.empty((len(seeds), circuits, runs, 2), dtype=np.uint64)
    for size, rows in groups.items():
        # entropy words over the (seed, i, run) cells, zero rows padding the pool
        entropy = np.zeros((max(size + 2, _POOL_SIZE), len(rows), circuits, runs), np.uint32)
        entropy[:size] = np.array([_words(seeds[s]) for s in rows]).T[:, :, None, None]
        entropy[size] = np.arange(circuits)[:, None]
        entropy[size + 1] = np.arange(runs)
        entropy = entropy.reshape(len(entropy), -1)

        hashmix = _HashMix(_INIT_A, _MULT_A)
        pool = hashmix(entropy[:_POOL_SIZE], _POOL_SIZE)
        for src in range(_POOL_SIZE):  # late words reach earlier ones
            dst = [d for d in range(_POOL_SIZE) if d != src]
            pool[dst] = _mix(pool[dst], hashmix(pool[src], _POOL_SIZE - 1))
        for word in entropy[_POOL_SIZE:]:
            pool = _mix(pool, hashmix(word, _POOL_SIZE))

        # generate_state(2, uint64): four output words, low word first
        w = _HashMix(_INIT_B, _MULT_B)(pool, _POOL_SIZE).astype(np.uint64)
        keys = w[0::2] | w[1::2] << np.uint64(32)
        out[rows] = keys.T.reshape(len(rows), circuits, runs, 2)
    return out


def sample_cells(probs, shots: int, keys) -> np.ndarray:
    """Multinomial shot counts for a grid of (distribution, key) cells.

    probs is a (G, 4) array of outcome distributions and keys a (G, R, 2)
    array of Philox key words, low word first, as derive_seeds gives them.
    The result has shape (G, R, 4): cell (g, r) is exactly
    Generator(Philox(key=lo | hi << 64)).multinomial(shots, probs[g]) for
    (lo, hi) = keys[g, r].  Rows are clipped at 0 and rescaled to sum to 1.

    Every cell is drawn from one Philox/Generator pair whose state is reset
    before the draw to that of a freshly keyed Philox (counter 0, the key,
    an empty buffer, no cached 32-bit half).  Constructing a Philox costs
    several draws, as it gathers OS entropy for a seed sequence that a keyed
    generator never uses.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError(f"expected 4-outcome distributions, got shape {p.shape}")
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim != 3 or keys.shape[0] != len(p) or keys.shape[2] != 2:
        raise ValueError(f"expected ({len(p)}, runs, 2) key words, got shape {keys.shape}")
    sums = p.sum(axis=1)
    negative = np.any(p < -1e-12, axis=1)
    for g in np.flatnonzero(negative | (np.abs(sums - 1.0) > NORM_TOL))[:1]:  # first bad row
        if negative[g]:
            raise ValueError("probabilities must be non-negative")
        raise ValueError(f"probabilities sum to {float(sums[g])!r}, must be 1 within {NORM_TOL}")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    clipped = np.clip(p, 0.0, None)
    dists = clipped / clipped.sum(axis=1, keepdims=True)  # guard float drift

    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty(keys.shape[:2] + (4,), dtype=np.int64)
    for g, (dist, row) in enumerate(zip(dists, keys.tolist())):
        for r, key in enumerate(row):
            fresh["state"]["key"] = key
            bitgen.state = fresh
            out[g, r] = gen.multinomial(shots, dist)
    return out
