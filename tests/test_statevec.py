"""Gates and the EWL core checked against explicit full-matrix multiplication."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbos import statevec
from qbos.game import STRATEGY_H, STRATEGY_I, Strategy
from qbos.noise import _CNOT, NoiseModel, _embed_1q, noisy_distributions
from qbos.statevec import ShotCounts, derive_seed, derive_seeds, gate_matrix, sample_cells

S2 = 1.0 / math.sqrt(2.0)
ZERO = np.array([1, 0, 0, 0], dtype=complex)  # |00>


def ideal(grid, players):
    """Outcome distributions of the EWL circuits of every (strategy_a,
    strategy_b) pair of players at every gamma of grid, on the core at noise
    scale 0, shaped (pair, gamma, 4)."""
    n = len(grid)
    return noisy_distributions(grid, players, [0.1] * n, [(0.1, 0.1)] * n,
                               NoiseModel(scale=0.0), [False] * n)


# --- independent oracle: dense 2^n x 2^n matrices built by kron -------------

def full_1q_matrix(gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """kron(M_{n-1}, ..., M_0) with the gate at the target position (qubit 0 = LSB)."""
    full = np.array([[1.0 + 0j]])
    for q in range(n):
        m = gate if q == qubit else np.eye(2)
        full = np.kron(m, full)
    return full


def full_cnot_matrix(control: int, target: int, n: int) -> np.ndarray:
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        row = col ^ (1 << target) if (col >> control) & 1 else col
        full[row, col] = 1.0
    return full


# --- gate library ------------------------------------------------------------

def test_identity_gate():
    np.testing.assert_array_equal(gate_matrix("I"), np.eye(2))


def test_hadamard_gate():
    np.testing.assert_allclose(gate_matrix("H"), np.array([[S2, S2], [S2, -S2]]), atol=1e-15)


def test_ry_pi_is_bit_flip_up_to_sign():
    m = gate_matrix("RY", math.pi)
    np.testing.assert_allclose(m, np.array([[0, -1], [1, 0]]), atol=1e-15)


def test_ry_pi_over_4_entries():
    m = gate_matrix("RY", math.pi / 4)
    assert abs(m[0, 0] - math.cos(math.pi / 8)) < 1e-15
    assert abs(m[1, 0] - math.sin(math.pi / 8)) < 1e-15
    assert abs(math.cos(math.pi / 8) - 0.92388) < 1e-5
    assert abs(math.sin(math.pi / 8) - 0.38268) < 1e-5


def test_rz_matrix():
    np.testing.assert_allclose(
        gate_matrix("RZ", 0.7), np.diag([np.exp(-0.35j), np.exp(0.35j)]), atol=1e-15
    )


@pytest.mark.parametrize("kind", ["identity", "hadamard", "ry", "rz"])
def test_gate_matrix_takes_strategy_kinds_only(kind):
    # one vocabulary: the gates are named by Strategy kinds, plus 'RZ'
    with pytest.raises(ValueError, match="unknown gate kind"):
        gate_matrix(kind, 0.5)
    with pytest.raises(ValueError, match=f"^unknown strategy kind '{kind}'$"):
        Strategy(kind, 0.5)


# --- 1q application ------------------------------------------------------------

def test_hadamard_on_zero():
    out = _embed_1q(gate_matrix("H"), 0) @ ZERO
    np.testing.assert_allclose(out, [S2, S2, 0, 0], atol=1e-15)


def test_identity_leaves_state():
    s = _embed_1q(gate_matrix("H"), 1) @ ZERO
    t = _embed_1q(gate_matrix("I"), 0) @ s
    np.testing.assert_array_equal(s, t)


def test_ry_half_twice_equals_ry_pi():
    half = gate_matrix("RY", math.pi / 2)
    full = half @ half  # matrix product oracle
    s1 = _embed_1q(half, 0) @ (_embed_1q(half, 0) @ ZERO)
    s2 = _embed_1q(full, 0) @ ZERO
    np.testing.assert_allclose(s1, s2, atol=1e-12)
    np.testing.assert_allclose(full, gate_matrix("RY", math.pi), atol=1e-12)


# --- cnot ----------------------------------------------------------------------

def test_cnot_truth_table():
    # control qubit 0, target qubit 1: |q1 q0> = |01> (index 1) <-> |11> (index 3)
    for index, flipped in enumerate([0, 3, 2, 1]):
        out = _CNOT @ np.eye(4)[index]
        np.testing.assert_array_equal(out, np.eye(4)[flipped])


def test_cnot_on_00_is_identity():
    np.testing.assert_array_equal(_CNOT @ ZERO, ZERO)


def test_cnot_builds_bell_state():
    # (|00> + |01>)/sqrt2: qubit 0 in superposition, control 0, target 1
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[1] = S2
    out = _CNOT @ amps
    oracle = full_cnot_matrix(0, 1, 2) @ amps
    np.testing.assert_allclose(out, oracle, atol=1e-12)
    np.testing.assert_allclose(out, [S2, 0, 0, S2], atol=1e-12)


# --- brute-force equivalence and norm preservation ------------------------------

def random_grid(rng, angles, pairs):
    """Random gammas and strategy pairs, each player's strategy drawn on its own."""
    grid = [rng.uniform(0, math.pi) for _ in range(angles)]
    players = [tuple(rng.choice([STRATEGY_I, STRATEGY_H,
                                 Strategy("RY", rng.uniform(0, 2 * math.pi))])
                     for _ in range(2)) for _ in range(pairs)]
    return grid, players


def dense_amplitudes(gamma, sa, sb):
    """The kron-oracle amplitudes of one EWL circuit."""
    vec = full_1q_matrix(gate_matrix("RY", gamma), 0, 2) @ ZERO
    vec = full_1q_matrix(gate_matrix("RZ", 0.0), 0, 2) @ vec
    vec = full_cnot_matrix(0, 1, 2) @ vec
    vec = full_1q_matrix(gate_matrix(sa.kind, sa.angle), 0, 2) @ vec
    vec = full_1q_matrix(gate_matrix(sb.kind, sb.angle), 1, 2) @ vec
    return vec


@pytest.mark.parametrize("n", [2])
def test_random_sequences_match_dense_oracle(n):
    rng = random.Random(1234 + n)
    grid, players = random_grid(rng, 8, 5)
    assert any(sa != sb for sa, sb in players)  # the grid holds asymmetric pairs
    vecs = [[dense_amplitudes(gamma, sa, sb) for gamma in grid] for sa, sb in players]
    np.testing.assert_allclose(ideal(grid, players), np.abs(vecs) ** 2, atol=1e-10)


def test_norm_preserved_over_100_gates():
    rng = random.Random(99)
    dists = ideal(*random_grid(rng, 10, 10))
    assert dists.shape == (10, 10, 4)
    assert np.all(np.abs(dists.sum(axis=-1) - 1.0) <= 1e-9)


# --- probabilities ---------------------------------------------------------------

def test_probabilities_of_zero_state():
    # Ry(0), Rz(0), CNOT and identities leave |00>
    np.testing.assert_array_equal(ideal([0.0], [(STRATEGY_I, STRATEGY_I)])[0, 0],
                                  [1.0, 0.0, 0.0, 0.0])


def test_probabilities_of_bell_state():
    np.testing.assert_allclose(ideal([math.pi / 2], [(STRATEGY_I, STRATEGY_I)])[0, 0],
                               [0.5, 0, 0, 0.5], atol=1e-12)


def test_probabilities_of_entangled_state_gamma_pi_3():
    # cos(g/2)|00> + sin(g/2)|11> at g = pi/3 -> cos^2(pi/6) = 0.75
    p = ideal([math.pi / 3], [(STRATEGY_I, STRATEGY_I)])[0, 0]
    np.testing.assert_allclose(p, [0.75, 0, 0, 0.25], atol=1e-12)
    assert abs(p.sum() - 1.0) <= 1e-9


# --- sampling ---------------------------------------------------------------------

def sample_one(probs, shots, seed):
    """The counts (00, 01, 10, 11) of one cell of sample_cells, keyed by a one-word seed."""
    keys = np.array([[[seed, 0]]], dtype=np.uint64)
    return sample_cells(np.asarray(probs, dtype=float)[None], shots, keys)[0, 0]


def test_sample_degenerate_distribution():
    counts = sample_one([1.0, 0.0, 0.0, 0.0], 2048, seed=5)
    assert counts.tolist() == [2048, 0, 0, 0]


def test_sample_matches_binomial_bound():
    # 5 sigma of a Bernoulli(0.5) frequency at 2048 shots
    counts = sample_one([0.5, 0.0, 0.0, 0.5], 2048, seed=77)
    bound = 5.0 * math.sqrt(0.25 / 2048)
    assert abs(counts[0] / 2048 - 0.5) <= bound
    assert counts.sum() == 2048


def test_sampling_is_deterministic():
    a = sample_one([0.3, 0.2, 0.1, 0.4], 999, seed=4242)
    b = sample_one([0.3, 0.2, 0.1, 0.4], 999, seed=4242)
    assert a.tolist() == b.tolist()


def test_sampling_law_of_large_numbers():
    probs = np.array([0.4, 0.1, 0.25, 0.25])
    shots = 200_000
    counts = sample_one(probs, shots, seed=31337)
    for count, p in zip(counts, probs):
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(count / shots - p) <= 5 * sigma


def test_sample_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum to 2.0"):
        sample_one([0.5, 0.5, 0.5, 0.5], 10, seed=1)


@pytest.mark.parametrize("rows, message", [
    ([[0.5, 0.5, 0.0, 0.0], [1.5, -0.5, 0.0, 0.0]], "non-negative"),
    ([[0.5, 0.5, 0.5, 0.0], [1.5, -0.5, 0.0, 0.0]], "sum to 1.5"),
    ([[1.0, 0.0, 0.0, 0.0], [0.25] * 4, [0.0, 0.0, 0.0, 0.5]], "sum to 0.5"),
    ([[0.5, 0.5, 0.0]] * 2, r"expected 4-outcome distributions, got shape \(2, 3\)"),
    ([[math.nan, 0.5, 0.25, 0.25]], r"^probabilities sum to nan, must be 1 within 1e-09$"),
    ([[0.25] * 4, [0.5, math.nan, 0.25, 0.25], [0.0, 0.0, 0.0, 0.5]], "sum to nan,"),
], ids=["negative-row-1", "bad-sum-row-0-first", "bad-sum-row-2", "three-outcomes", "nan-row",
        "nan-row-1-first"])
def test_sample_cells_names_the_first_bad_row(rows, message):
    keys = np.zeros((len(rows), 2, 2), dtype=np.uint64)
    with pytest.raises(ValueError, match=message):
        sample_cells(np.array(rows), 10, keys)


def test_sample_cells_rejects_misshapen_keys():
    probs = np.full((2, 4), 0.25)
    for shape in ((1, 3, 2), (2, 3), (2, 3, 1)):
        with pytest.raises(ValueError, match="key words"):
            sample_cells(probs, 10, np.zeros(shape, dtype=np.uint64))


@pytest.mark.parametrize("shots, message", [
    (2.5, "shots must be an integer, got 2.5"),
    (True, "shots must be an integer, got True"),
    (0, r"shots must be in \[1, 2\*\*63\), got 0"),
    (2**63, r"shots must be in \[1, 2\*\*63\), got 9223372036854775808"),
    (2**64, r"shots must be in \[1, 2\*\*63\), got 18446744073709551616"),
], ids=["float", "bool", "zero", "2**63", "2**64"])
def test_sample_cells_refuses_shots_up_front(shots, message):
    # numpy would draw 2 shots for 2.5 and 1 for True, and overflow past int64
    with pytest.raises(ValueError, match=message):
        sample_cells(np.full((1, 4), 0.25), shots, np.zeros((1, 1, 2), dtype=np.uint64))
    with pytest.raises(ValueError, match=message):  # before the arrays are read
        sample_cells(None, shots, None)


@pytest.mark.parametrize("shape", [(0, 3, 2), (2, 0, 2)], ids=["no-rows", "no-runs"])
def test_sample_cells_of_no_cells(shape):
    drawn = sample_cells(np.full((shape[0], 4), 0.25), 5, np.zeros(shape, dtype=np.uint64))
    assert drawn.shape == shape[:2] + (4,) and drawn.dtype == np.int64


@pytest.mark.parametrize("init, mult", [
    (statevec._INIT_A, statevec._MULT_A), (statevec._INIT_B, statevec._MULT_B),
], ids=["entropy-hash", "output-hash"])
def test_hash_constants_are_a_read_only_table(init, mult):
    column = statevec._hash_constants(init, mult, 41)
    assert column.dtype == np.uint32 and column.shape == (41, 1)
    assert column[:, 0].tolist() == [init * pow(mult, j, 2**32) & 0xFFFFFFFF for j in range(41)]
    assert statevec._hash_constants(init, mult, 41) is column
    with pytest.raises(ValueError, match="read-only"):
        column[0] = 0


def test_shot_counts_invariants():
    with pytest.raises(ValueError):
        ShotCounts({"00": 3, "0x": 1}, 4)
    with pytest.raises(ValueError):
        ShotCounts({"00": 3}, 4)
    with pytest.raises(ValueError, match=r"^total_shots must be in \[1, 2\*\*63\), got 0$"):
        ShotCounts({}, 0)


@pytest.mark.parametrize("counts, total, message", [
    ({"00": 1.5, "11": 2.5}, 4, r"counts must be integers, got \{'00': 1.5, '11': 2.5\}"),
    ({"00": True}, True, r"counts must be integers, got \{'00': True\}"),
    ({"00": np.int64(4)}, 4, "counts must be integers"),
    ({"00": 4}, 4.0, "total_shots must be an integer, got 4.0"),
    ({"00": 1}, True, "total_shots must be an integer, got True"),
    ({"00": 4}, np.int64(4), "total_shots must be an integer, got np.int64"),
    ({"00": 2**63}, 2**63, r"total_shots must be in \[1, 2\*\*63\), got 9223372036854775808"),
    ({"00": 5, "11": -1}, 4, "counts must be non-negative"),
], ids=["float-counts", "bool-counts-and-total", "numpy-count", "float-total", "bool-total",
        "numpy-total", "total-past-int64", "negative-count"])
def test_shot_counts_take_only_int_counts_and_total(counts, total, message):
    # the words of noise.JobCounts' check of a whole job
    with pytest.raises(ValueError, match=message):
        ShotCounts(counts, total)


def test_derive_seed_distinct_and_stable():
    s1 = derive_seed(7, 0, 0)
    s2 = derive_seed(7, 0, 1)
    s3 = derive_seed(7, 1, 0)
    assert len({s1, s2, s3}) == 3
    assert derive_seed(7, 0, 0) == s1


# seeds of 1 to 10 words; with the two index words after them, a 1-word seed
# leaves the 4-word pool zero-padded, a 2-word seed fills it, and longer seeds
# fold every word beyond the 4th into it
SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128 - 1, 2**160, 3**200]


@settings(max_examples=100, deadline=None)
@given(
    seeds=st.lists(
        st.one_of(
            st.sampled_from(SEED_EDGES),
            st.integers(0, 2**192 - 1),
            # the per-strategy seeds of a sweep
            st.builds(derive_seed, st.integers(0, 2**63), st.integers(0, 3)),
        ),
        max_size=5,
    ),
    circuits=st.integers(1, 40),
    runs=st.integers(1, 60),
)
# 1- to 10-word seeds, some word counts twice and apart in the list
@example(seeds=[3**200, 0, 2**32, derive_seed(7, 0), 2**32 - 1, 2**64, 2**128 - 1,
                derive_seed(7, 3)], circuits=3, runs=4)
def test_derive_seeds_equals_per_cell_derive_seed(seeds, circuits, runs):
    expected = [[[derive_seed(seed, i, run) for run in range(runs)] for i in range(circuits)]
                for seed in seeds]
    keys = derive_seeds(seeds, circuits, runs)
    assert keys.shape == (len(seeds), circuits, runs, 2) and keys.dtype == np.uint64
    got = [[[lo | hi << 64 for lo, hi in row] for row in grid] for grid in keys.tolist()]
    assert got == expected


def test_derive_seeds_empty_grids():
    assert derive_seeds([3], 0, 5).shape == (1, 0, 5, 2)
    assert derive_seeds([3, 2**64], 2, 0).shape == (2, 2, 0, 2)
    assert derive_seeds([], 2, 3).shape == (0, 2, 3, 2)


def test_derive_seeds_rejects_counts_beyond_one_word(monkeypatch):
    # with numpy unbound, any array the function built would raise AttributeError
    monkeypatch.setattr(statevec, "np", None)
    for circuits, runs in ((2**32, 1), (1, 2**32), (2**40, 2**40), (-1, 1)):
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*32\)"):
            derive_seeds([5], circuits, runs)
    with pytest.raises(ValueError, match="seed"):
        derive_seeds([-1], 1, 1)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -2$"):
        derive_seeds([4, 2**64, -2], 1, 1)
