"""Gate matrices, seeds and batched seeded shot sampling.

The EWL game circuits themselves are evolved by the density-matrix core in
``noise``; this module holds what that core and the sweeps build on.

derive_seed mixes integer tags through numpy's SeedSequence into one int; it is
the per-cell reference of derive_seeds, which keys every (seed, circuit, run)
cell of a job at once, bit for bit, over tabled hash constants.  sample_cells
draws every cell from one reset Philox and joins the draws once.

Basis convention: qubit 0 is the least-significant bit of the basis index,
so for two qubits the amplitude order is |q1 q0> = |00>, |01>, |10>, |11>
with index i = q1*2 + q0.  Outcome labels are the binary form of the index
(qubit 1 first, qubit 0 second).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-9

OUTCOME_LABELS = ("00", "01", "10", "11")

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_SHIFT = np.uint32(16)  # uint32 scalars like _MIX_L and _MIX_R: no Python int to convert


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


def check_shots(shots, name: str = "shots") -> None:
    """Refuse a shot count, called name, that is not an int in numpy's [1, 2**63)."""
    if type(shots) is not int:  # a bool is an int subclass, not an int
        raise ValueError(f"{name} must be an integer, got {shots!r}")
    if not 1 <= shots < 2**63:
        raise ValueError(f"{name} must be in [1, 2**63), got {shots}")


@dataclass(frozen=True)
class ShotCounts:
    """Counts per 2-bit outcome label; counts must sum to total_shots."""

    counts: dict[str, int]
    total_shots: int

    def __post_init__(self):
        bad = set(self.counts) - set(OUTCOME_LABELS)
        if bad:
            raise ValueError(f"invalid outcome labels {sorted(bad)}")
        # noise.JobCounts makes these checks, in these words, for a whole job at once
        if any(type(v) is not int for v in self.counts.values()):  # a bool is not an int
            raise ValueError(f"counts must be integers, got {self.counts!r}")
        check_shots(self.total_shots, "total_shots")
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


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first count hash constants init * mult**j mod 2**32 of a SeedSequence
    family, as the read-only uint32 column that numpy's evolving constant runs through."""
    column = np.array([init * pow(mult, j, 2**32) & _MASK32 for j in range(count)], np.uint32)
    column.flags.writeable = False
    return column[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of len(consts) - 1 uint32 rows, or of one row that
    many times: hash j xors with consts[j] and multiplies by consts[j + 1]."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _SHIFT)


def derive_seeds(seeds, circuits: int, runs: int) -> np.ndarray:
    """The Philox key words of derive_seed(seed, i, run) for each seed of a job.

    Cell (s, i, run) of the (len(seeds), circuits, runs, 2) uint64 result holds
    the low and high 64-bit words of derive_seed(seeds[s], i, run).  A seed's
    32-bit word count sets its cells' entropy layout (its words, i, run), so
    the SeedSequence hash (O'Neill's seed_seq, pool size 4) runs once per word
    count on uint32 (entropy word, cell) rows, bit for bit as numpy runs it on
    one cell: every cell takes the same run of hash constants, tabled by
    _hash_constants, and uint32 arithmetic wraps modulo 2**32 as the C code
    does.  circuits and runs must each fit one word.
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
        entropy = np.zeros((max(size + 2, 4), len(rows), circuits, runs), np.uint32)
        entropy[:size] = np.array([_words(seeds[s]) for s in rows]).T[:, :, None, None]
        entropy[size] = np.arange(circuits)[:, None]
        entropy[size + 1] = np.arange(runs)
        entropy = entropy.reshape(len(entropy), -1)

        # hash h takes constants h and h + 1: hashes 0-3 fill the pool, 4-15 mix
        # it, and word j >= 4 takes hashes 4j to 4j + 3
        consts = _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy) + 1)
        pool = _hashmix(entropy[:4], consts[:5])
        for src in range(4):  # late words reach earlier ones
            dst = [d for d in range(4) if d != src]
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[3 * src + 4:3 * src + 8]))
        for j, word in enumerate(entropy[4:], start=4):
            pool = _mix(pool, _hashmix(word, consts[4 * j:4 * j + 5]))

        # generate_state(2, uint64): four output words, low word first
        w = _hashmix(pool, _hash_constants(_INIT_B, _MULT_B, 5)).astype(np.uint64)
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
    an empty buffer, no cached 32-bit half): constructing a Philox costs
    several draws.  Its seed 0 is a placeholder that reads no OS entropy.
    The draws are joined once, after the last, as a store per cell costs
    about as much as the reset.  shots is refused first, by check_shots.
    """
    check_shots(shots)
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError(f"expected 4-outcome distributions, got shape {p.shape}")
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim != 3 or keys.shape[0] != len(p) or keys.shape[2] != 2:
        raise ValueError(f"expected ({len(p)}, runs, 2) key words, got shape {keys.shape}")
    sums = p.sum(axis=1)
    negative, off = p < -1e-12, ~(np.abs(sums - 1.0) <= NORM_TOL)  # a NaN sum is off
    if negative.any() or off.any():
        g = np.flatnonzero(negative.any(axis=1) | off)[0]  # the first bad row
        if negative[g].any():
            raise ValueError("probabilities must be non-negative")
        raise ValueError(f"probabilities sum to {float(sums[g])!r}, must be 1 within {NORM_TOL}")
    clipped = np.clip(p, 0.0, None)
    dists = clipped / clipped.sum(axis=1, keepdims=True)  # guard float drift

    bitgen = np.random.Philox(0)  # a placeholder seed: every draw resets the state
    gen = np.random.Generator(bitgen)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    draws = []
    for dist, row in zip(dists, keys.tolist()):
        for key in row:
            fresh["state"]["key"] = key
            bitgen.state = fresh
            draws.append(gen.multinomial(shots, dist))
    # a grid of no cells has no draws to join
    return np.concatenate(draws or [np.empty(0, np.int64)]).reshape(keys.shape[:2] + (4,))
