"""Noise channel tests: trace/positivity, limits, a hand-computed fixture."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbos import game, noise
from qbos.device import (
    CouplingGraph,
    heavy_hex_graph,
    synth_calibration,
)
from qbos.game import (
    CANONICAL_STRATEGIES,
    GameSpec,
    STRATEGY_H,
    STRATEGY_I,
    Strategy,
    _closed_form_distribution,
    default_gamma_grid,
    PayoffMatrix,
)
from qbos.gcm import MappingPlan, packed_plan, select_pairs
from qbos.noise import (
    CROSSTALK_PENALTY,
    JobCounts,
    NoiseModel,
    confusion_matrix,
    crosstalk_flags,
    depolarize_1q,
    depolarize_2q,
    job_counts,
    noisy_distributions,
    simulate_job,
)
from qbos.statevec import gate_matrix
from qbos.stats import payoff_table, rmse

from calib_oracles import EdgeCalibration, records, snapshot
from graph_oracles import bfs_distances
from noise_oracles import analytical_payoffs, closed_form_distribution, eager_run_results

BOS = PayoffMatrix.battle_of_sexes()


def spec_for(strategy, steps=31):
    return GameSpec(strategy_a=strategy, strategy_b=strategy,
                    gamma_grid=default_gamma_grid(steps))


def fixture_calibration():
    g = heavy_hex_graph(6)
    return g, synth_calibration(g, seed=0, profile="uniform")


def pair_calib():
    """(two-qubit error, readout errors) of the fixture device's first edge."""
    g, cal = fixture_calibration()
    two_qubit, readout, _ = cal.figures([g.edges[0]])
    return two_qubit[0], readout[0]


def one_circuit(gamma, players, pc, model, crosstalk_active=False):
    """The outcome distribution of the one-angle, one-pair grid: players =
    (strategy_a, strategy_b) at gamma on a pair with figures pc = (two-qubit
    error, readout errors)."""
    two_qubit, readout = pc
    return noisy_distributions([gamma], [players], [two_qubit], [readout], model,
                               [crosstalk_active])[0, 0]


# --- channel algebra ------------------------------------------------------------

def test_depolarize_2q_preserves_trace_and_positivity():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = rho[3, 0] = 0.5
    out = depolarize_2q(rho, 0.3)
    assert abs(np.trace(out).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_depolarize_1q_keeps_other_marginal():
    # Bell state: depolarizing qubit 0 must leave qubit 1's marginal at I/2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = rho[3, 0] = 0.5
    out = depolarize_1q(rho, 0, 1.0)
    assert abs(np.trace(out).real - 1.0) < 1e-10
    np.testing.assert_allclose(np.diag(out).real, [0.25] * 4, atol=1e-12)


# one probability per matrix of a 4-matrix stack, or one for the whole stack
P_STACKS = {"all-zero": [0.0] * 4, "all-nonzero": [0.1, 0.25, 1.0, 0.5],
            "mixed": [0.0, 0.3, 0.0, 1.0], "scalar-zero": 0.0, "scalar": 0.3}


@pytest.mark.parametrize("channel", ["1q-qubit0", "1q-qubit1", "2q"])
@pytest.mark.parametrize("p", P_STACKS.values(), ids=P_STACKS)
def test_channels_keep_exact_bits_where_p_is_zero(channel, p):
    # a matrix whose p is 0 keeps rho's bytes; any other gets (1-p) rho + p mixed
    rng = np.random.default_rng(11)
    rho = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    rho[:, 0, 1] = -0.0
    if channel == "2q":
        out = depolarize_2q(rho, p)
        mixed = [np.eye(4) / 4.0] * 4
    else:
        qubit = int(channel[-1])
        out = depolarize_1q(rho, qubit, p)
        r = rho.reshape(4, 2, 2, 2, 2)  # (matrix, q1, q0, q1', q0')
        if qubit == 0:  # qubit 0 is the right kron factor
            mixed = [np.kron(m, np.eye(2) / 2.0) for m in r[:, :, 0, :, 0] + r[:, :, 1, :, 1]]
        else:
            mixed = [np.kron(np.eye(2) / 2.0, m) for m in r[:, 0, :, 0, :] + r[:, 1, :, 1, :]]
    for g, pg in enumerate(np.broadcast_to(p, 4).tolist()):
        want = rho[g] if pg == 0.0 else (1.0 - pg) * rho[g] + pg * mixed[g]
        assert out[g].tobytes() == want.tobytes(), g


def test_confusion_matrix_is_column_stochastic():
    c = confusion_matrix(0.07)
    np.testing.assert_allclose(c.sum(axis=0), [1.0, 1.0], atol=1e-15)


def test_model_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        NoiseModel(scale=-1.0)


@pytest.mark.parametrize("scale", [True, False, np.True_, "1", None],
                         ids=["True", "False", "np.True_", "str", "None"])
def test_model_rejects_a_scale_that_is_not_a_number(scale):
    # a bool would pass the range check as 0 or 1, a str or None would reach a TypeError
    with pytest.raises(ValueError, match="scale must be a number"):
        NoiseModel(scale=scale)


@pytest.mark.parametrize("scale", [0, 3, 0.5, np.float64(1.25), np.float32(0.5), np.int64(2),
                                   *np.linspace(0.0, 2.0, 3)])
def test_model_takes_int_float_and_numpy_real_scales(scale):
    assert NoiseModel(scale=scale).scale == scale


@pytest.mark.parametrize("scale", [float("inf"), float("nan")])
def test_model_rejects_non_finite_scale(scale):
    # at scale inf a zero-error pair's probability would be inf * 0.0 = nan
    with pytest.raises(ValueError, match="finite"):
        NoiseModel(scale=scale)


def test_noise_model_has_one_knob():
    # the rates come from the calibration and fixed constants; the model scales them
    assert [f.name for f in dataclasses.fields(NoiseModel)] == ["scale"]


def test_resolved_gives_one_clamped_array_per_channel():
    scale = 3.0
    resolved = NoiseModel(scale=scale).resolved([0.02, 0.0], [(0.01, 0.4), (0.0, 0.0)],
                                                [True, False])
    clamp = lambda p: min(1.0, scale * p)
    expected = [
        [clamp(0.1 * 0.02), 0.0],
        [clamp(0.02), 0.0],
        [clamp(CROSSTALK_PENALTY), 0.0],
        [clamp(0.01), 0.0],
        [1.0, 0.0],
    ]
    assert [a.tolist() for a in resolved] == expected


# --- distribution limits -----------------------------------------------------------

def test_zero_scale_equals_ideal():
    # a calibrated pair with crosstalk on, against the hand-derived distributions
    model = NoiseModel(scale=0.0)
    pc = pair_calib()
    for strategy in CANONICAL_STRATEGIES:
        for gamma in (0.0, 0.9, math.pi / 2, math.pi):
            noisy = one_circuit(gamma, (strategy, strategy), pc, model, crosstalk_active=True)
            ideal = _closed_form_distribution(strategy, gamma)
            np.testing.assert_allclose(noisy, ideal, atol=1e-12)


@pytest.mark.parametrize("gamma", [-0.001, math.pi + 1e-9, float("nan")])
def test_gamma_outside_zero_to_pi_is_rejected(gamma):
    with pytest.raises(ValueError, match=r"outside \[0, pi\]"):
        one_circuit(gamma, (STRATEGY_I, STRATEGY_I), pair_calib(), NoiseModel())


def test_noisy_distributions_needs_one_figure_per_circuit():
    with pytest.raises(ValueError, match=r"^1 angles but .* = \(1, 0, 1\)$"):
        noisy_distributions([0.0], [(STRATEGY_I, STRATEGY_I)], [0.0], [], NoiseModel(), [False])


@pytest.mark.parametrize("angles, pairs", [(0, 3), (5, 0), (0, 0)])
def test_empty_grid_or_players_give_zeros_of_the_grid_shape(angles, pairs):
    grid = np.linspace(0.0, math.pi, angles)
    out = noisy_distributions(grid, [(STRATEGY_H, STRATEGY_I)] * pairs, [0.1] * angles,
                              [(0.1, 0.1)] * angles, NoiseModel(), [True] * angles)
    assert out.shape == (pairs, angles, 4)
    assert not out.any()


def test_saturated_depolarizing_is_uniform():
    pc = (1.0, (0.0, 0.0))  # (two-qubit error, readout errors)
    dist = one_circuit(1.0, (STRATEGY_I, STRATEGY_I), pc, NoiseModel(scale=1.0))
    np.testing.assert_allclose(dist, [0.25] * 4, atol=1e-12)


def test_huge_scale_clamps_to_uniform():
    model = NoiseModel(scale=1e9)
    dist = one_circuit(0.7, (STRATEGY_I, STRATEGY_I), pair_calib(), model)
    np.testing.assert_allclose(dist, [0.25] * 4, atol=1e-9)


def test_hand_computed_two_qubit_depolarizing():
    # strategy I at gamma = pi/2 on an edge with two-qubit error 0.1, so
    # one-qubit error 0.01, and no readout error.  The two one-qubit channels
    # before the CNOT leave the populations at 0.5/0.5; after it the
    # two-qubit channel gives p00 = 0.5*0.9 + 0.25*0.1 = 0.475; the strategy
    # gates' channels on qubit 0, then qubit 1, each take p00 to
    # 0.99 p00 + 0.01 (p00 + p01) / 2:
    # 0.47275, then p00 = p11 = 0.4705225 and p01 = p10 = 0.0294775
    pc = (0.1, (0.0, 0.0))
    dist = one_circuit(math.pi / 2, (STRATEGY_I, STRATEGY_I), pc, NoiseModel(scale=1.0))
    np.testing.assert_allclose(dist, [0.4705225, 0.0294775, 0.0294775, 0.4705225],
                               rtol=0, atol=1e-15)


def test_distribution_normalized_and_nonnegative():
    model = NoiseModel(scale=2.5)
    for gamma in (0.0, 1.1, 2.2, math.pi):
        dist = one_circuit(gamma, (STRATEGY_H, STRATEGY_H), pair_calib(), model,
                           crosstalk_active=True)
        assert abs(dist.sum() - 1.0) <= 1e-9
        assert np.all(dist >= 0.0)


unit = st.floats(0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    p2=unit, ro=st.tuples(unit, unit), scale=st.floats(0.0, 1.0 / CROSSTALK_PENALTY),
    flag=st.booleans(), gamma=st.floats(0.0, math.pi),
    strategy=st.sampled_from(CANONICAL_STRATEGIES),
)
def test_distribution_valid_for_every_parameter(p2, ro, scale, flag, gamma, strategy):
    # up to scale 1 / CROSSTALK_PENALTY, where every channel has saturated
    dist = one_circuit(gamma, (strategy, strategy), (p2, ro), NoiseModel(scale=scale),
                       crosstalk_active=flag)
    assert dist.shape == (4,)
    assert np.all(dist >= 0.0)
    assert abs(dist.sum() - 1.0) <= 1e-9


def test_density_matrix_stays_physical_through_channels():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    rng = np.random.default_rng(5)
    from qbos.noise import _CNOT, _embed_1q
    from qbos.statevec import gate_matrix
    for _ in range(50):
        angle = rng.uniform(0, 2 * math.pi)
        u = _embed_1q(gate_matrix("RY", angle), int(rng.integers(2)))
        rho = u @ rho @ u.conj().T
        rho = depolarize_1q(rho, int(rng.integers(2)), float(rng.uniform(0, 0.2)))
        rho = _CNOT @ rho @ _CNOT.T
        rho = depolarize_2q(rho, float(rng.uniform(0, 0.2)))
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


# --- crosstalk geometry ----------------------------------------------------------------

def test_gcm_plan_has_no_crosstalk():
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=1, profile="realistic")
    plan = select_pairs(g, cal, k=31, min_separation=2)
    assert crosstalk_flags(plan, g.edges) == [False] * 31


def test_packed_plan_triggers_crosstalk():
    g = heavy_hex_graph(6)
    plan = packed_plan(g, 31)
    flags = crosstalk_flags(plan, g.edges)
    assert sum(flags) >= 25  # nearly every crowded circuit interferes


def test_crosstalk_flag_detects_adjacency():
    g = CouplingGraph(7, tuple((i, i + 1) for i in range(6)))
    plan = MappingPlan(((0, 1), (2, 3)), min_separation=1)
    assert crosstalk_flags(plan, g.edges) == [True, True]
    plan2 = MappingPlan(((0, 1), (3, 4)), min_separation=2)
    assert crosstalk_flags(plan2, g.edges) == [False, False]


def bfs_crosstalk_flags(assignments, graph):
    """Oracle: one BFS per plan qubit, then every qubit pair of every two circuits;
    two circuits interfere when some of their qubits are closer than 2 hops."""
    dist = {q: bfs_distances(graph, q) for pair in assignments for q in pair}
    return [
        any(
            0 <= dist[q][o] < 2
            for j, other in enumerate(assignments)
            if j != i
            for q in pair
            for o in other
        )
        for i, pair in enumerate(assignments)
    ]


HEAVY_HEX = {d: heavy_hex_graph(d) for d in (2, 3, 6)}


@st.composite
def plans_on_graphs(draw):
    """A graph, up to 12 of its edges, where nearby, repeated and shared-qubit edges
    occur, and the graph's edges shuffled with either endpoint first, as a
    calibration file may list them."""
    which = draw(st.sampled_from(["small", 2, 3, 6]))
    if which == "small":
        n = draw(st.integers(2, 9))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12, unique=True))
        graph = CouplingGraph(n, tuple(edges))
    else:
        graph = HEAVY_HEX[which]
    # edges are sorted, so a window of them lies close together on the device
    lo = draw(st.integers(0, len(graph.edges) - 1))
    window = graph.edges[lo:lo + 16]
    assignments = tuple(draw(st.lists(st.sampled_from(window), max_size=12)))
    swaps = draw(st.lists(st.booleans(), min_size=len(graph.edges), max_size=len(graph.edges)))
    listed = [(b, a) if swap else (a, b)
              for (a, b), swap in zip(draw(st.permutations(graph.edges)), swaps)]
    return graph, assignments, listed


def plan_of(assignments):
    qubits = [q for pair in assignments for q in pair]
    if len(set(qubits)) == len(qubits):
        return MappingPlan(assignments)
    # overlapping pairs are no valid MappingPlan, but the flags still apply
    return SimpleNamespace(assignments=assignments)


HEAVY_HEX_575 = heavy_hex_graph(14)
# the 575-qubit device's pairs reversed, two in three of them flipped
LISTED_575 = [(b, a) if i % 3 else (a, b)
              for i, (a, b) in enumerate(reversed(HEAVY_HEX_575.edges))]


@settings(max_examples=150, deadline=None)
@given(plans_on_graphs())
@example((HEAVY_HEX_575, select_pairs(
    HEAVY_HEX_575, synth_calibration(HEAVY_HEX_575, seed=3, profile="realistic"), k=100,
).assignments, LISTED_575)).via("a 100-pair select_pairs plan on heavy_hex_graph(14)")
@example((HEAVY_HEX_575, packed_plan(HEAVY_HEX_575, 100).assignments, LISTED_575)).via(
    "a 100-pair packed_plan on heavy_hex_graph(14)")
def test_crosstalk_flags_match_bfs(instance):
    graph, assignments, listed = instance
    expected = bfs_crosstalk_flags(assignments, graph)
    assert crosstalk_flags(plan_of(assignments), listed) == expected
    assert crosstalk_flags(plan_of(assignments), graph.edges) == expected


# --- the memoised prefix -----------------------------------------------------------

MEMO_GRAPH = heavy_hex_graph(6)
MEMO_CAL = synth_calibration(MEMO_GRAPH, seed=5, profile="realistic")
# the figures of two plans of 7 pairs: (two-qubit errors, readout errors)
MEMO_FIGURES = [MEMO_CAL.figures(plan.assignments)[:2] for plan in (
    select_pairs(MEMO_GRAPH, MEMO_CAL, k=7), packed_plan(MEMO_GRAPH, 7))]
# one grid and its reverse hold the same angles in a different order
MEMO_GRIDS = [default_gamma_grid(7), default_gamma_grid(7)[::-1]]
MEMO_PLAYERS = [[(s, s) for s in CANONICAL_STRATEGIES], [(STRATEGY_H, STRATEGY_I)],
                [(STRATEGY_I, STRATEGY_I), (STRATEGY_H, STRATEGY_H)]]


def memo_call(call):
    figures, scale, grid, flags, players = call
    return noisy_distributions(grid, players, *figures, NoiseModel(scale=scale), flags)


@st.composite
def memo_call_sequences(draw):
    """2-6 noisy_distributions calls drawn from a pool of 1-3, so calls repeat."""
    pool = draw(st.lists(st.tuples(
        st.sampled_from(MEMO_FIGURES), st.sampled_from([0.0, 0.5, 1.0, 40.0]),
        st.sampled_from(MEMO_GRIDS), st.lists(st.booleans(), min_size=7, max_size=7),
        st.sampled_from(MEMO_PLAYERS)), min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=6))


@settings(max_examples=60, deadline=None)
@given(memo_call_sequences())
def test_memoised_prefix_gives_the_bits_of_a_fresh_evolution(calls):
    # each call meets the prefix its predecessor left, then runs again on an empty memo
    for call in calls:
        kept = memo_call(call)
        noise._prefix.cache_clear()
        assert kept.tobytes() == memo_call(call).tobytes()


def test_memoised_prefix_is_read_only_and_results_are_writable():
    noise._prefix.cache_clear()
    figures, grid, flags = MEMO_FIGURES[0], MEMO_GRIDS[0], [False] * 7
    out = memo_call((figures, 1.0, grid, flags, MEMO_PLAYERS[0]))
    # the key noisy_distributions builds: (dtype, bytes) of the grid and resolved arrays
    arrays = (np.asarray(grid, dtype=float), *NoiseModel(scale=1.0).resolved(*figures, flags))
    kept = noise._prefix(*((a.dtype.str, a.tobytes()) for a in arrays))
    assert noise._prefix.cache_info()[:2] == (1, 1)  # (hits, misses)
    for array in kept:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0, 0] = 0.5
    out[0, 0, 0] = 0.5


def test_four_strategy_jobs_on_one_plan_and_scale_evolve_the_prefix_once():
    plan = select_pairs(MEMO_GRAPH, MEMO_CAL, k=7)
    noise._prefix.cache_clear()
    for seed, strategy in enumerate(CANONICAL_STRATEGIES):
        simulate_job(plan, spec_for(strategy, steps=7), MEMO_CAL, NoiseModel(scale=0.5), 64, 2,
                     seed)
    assert noise._prefix.cache_info()[:2] == (3, 1)  # (hits, misses)


# --- the strategy steps --------------------------------------------------------------

def spy_on_gates(monkeypatch, gate):
    """Route noise's gate_matrix calls through gate."""
    monkeypatch.setattr(noise, "gate_matrix", gate)


@pytest.mark.parametrize("first", [0.0, -0.0], ids=["0.0-first", "-0.0-first"])
def test_signed_zero_angles_get_their_own_gates(first, monkeypatch):
    # RY(0.0) and RY(-0.0) are equal strategies whose gate_matrix bytes differ; seen
    # through a gate_matrix that gives RY(-0.0) the Hadamard, a shared gate would show
    assert Strategy("RY", 0.0) == Strategy("RY", -0.0)
    assert gate_matrix("RY", 0.0).tobytes() != gate_matrix("RY", -0.0).tobytes()
    spy_on_gates(monkeypatch, lambda kind, angle: gate_matrix(
        "H" if kind == "RY" and math.copysign(1.0, angle) < 0 else kind, angle))
    figures, grid, flags = MEMO_FIGURES[0], MEMO_GRIDS[0], [False] * 7

    def evolve(angle):
        ry = Strategy("RY", angle)
        return memo_call((figures, 1.0, grid, flags, [(ry, ry)])).tobytes()

    angles = [first, -first]
    in_turn = [evolve(angle) for angle in angles]  # the second meets the first's prefix
    assert in_turn[0] != in_turn[1]
    for angle, kept in zip(angles, in_turn):
        assert evolve(angle) == kept


@pytest.mark.parametrize("players", MEMO_PLAYERS, ids=["four-pairs", "H-I", "I-I-and-H-H"])
def test_strategy_steps_give_the_bits_of_freshly_built_gates(players):
    # the strategy steps composed by hand: gates stacked and embedded per call
    figures, grid, flags = MEMO_FIGURES[1], MEMO_GRIDS[0], [True, False] * 3 + [True]
    arrays = (np.asarray(grid, dtype=float), *NoiseModel(scale=1.0).resolved(*figures, flags))
    rho, readout = noise._prefix(*((a.dtype.str, a.tobytes()) for a in arrays))
    for qubit in (0, 1):
        gates = [[gate_matrix(pair[qubit].kind, pair[qubit].angle)] for pair in players]
        rho = noise._one_qubit_step(rho, qubit, gates, arrays[1])
    probs = np.diagonal(rho, axis1=-2, axis2=-1).real.copy()
    fresh = np.clip((readout @ probs[..., None])[..., 0], 0.0, None)
    call = (figures, 1.0, grid, flags, players)
    noise._prefix.cache_clear()
    assert memo_call(call).tobytes() == fresh.tobytes()  # the prefix evolved afresh
    assert memo_call(call).tobytes() == fresh.tobytes()  # and read back from the memo


@pytest.mark.parametrize("turn", ["fills", "finds-emptied"])
def test_every_test_starts_with_the_three_caches_empty(turn):
    # conftest empties the prefix memo and the curve memo before each test
    caches = (noise._prefix, game._memoised_curves)
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]
    plan = select_pairs(MEMO_GRAPH, MEMO_CAL, k=3)
    simulate_job(plan, spec_for(STRATEGY_H, steps=3), MEMO_CAL, NoiseModel(), 8, 2, 0)
    game.analytical_curves(STRATEGY_H, default_gamma_grid(3))
    assert all(cache.cache_info().currsize for cache in caches)


# --- job simulation ------------------------------------------------------------------

def test_simulate_job_shape_and_totals():
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=2, profile="realistic")
    plan = select_pairs(g, cal, k=31, min_separation=2)
    spec = spec_for(STRATEGY_I)
    job = simulate_job(plan, spec, cal, NoiseModel(), shots=2048, runs=5, seed=9)
    assert job.counts.shape == (31, 5, 4) and job.shots == 2048
    assert (job.counts.sum(axis=-1) == 2048).all()


@settings(max_examples=40, deadline=None)
@given(steps=st.integers(2, 6), runs=st.integers(0, 4), shots=st.integers(1, 300),
       seed=st.integers(0, 2**70), scale=st.sampled_from([0.0, 0.5, 1.0, 4.0]),
       strategy=st.sampled_from(CANONICAL_STRATEGIES))
def test_job_views_equal_the_eager_run_results(steps, runs, shots, seed, scale, strategy):
    plan = select_pairs(MEMO_GRAPH, MEMO_CAL, k=steps)
    spec, model = spec_for(strategy, steps), NoiseModel(scale=scale)

    def both(seed):
        """simulate_job's JobCounts and the eager list built from job_counts."""
        counts = job_counts(plan, spec.gamma_grid, [(strategy, strategy)], MEMO_CAL, model,
                            shots, runs, [seed])[0]
        return (simulate_job(plan, spec, MEMO_CAL, model, shots, runs, seed),
                eager_run_results(counts, spec.gamma_grid, shots))

    job, eager = both(seed)
    assert list(job) == eager and len(job) == len(eager) == steps * runs
    assert [job[n] for n in range(-len(eager), len(eager))] == eager + eager
    for bounds in [(None,), (1, -1), (-3, None), (None, None, -2), (2, 100, 3), (5, 1)]:
        assert job[slice(*bounds)] == eager[slice(*bounds)]
    for n in (len(eager), -len(eager) - 1):
        with pytest.raises(IndexError):
            job[n]
    other, other_eager = both(seed + 1)
    assert (job == other) == (eager == other_eager)
    assert (job != other) == (eager != other_eager)
    assert job == both(seed)[0] and job != list(job)
    assert job.counts.dtype == np.int64 and not job.counts.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        job.counts[...] = 0


WRAPS = [[[2**62, 2**62, 2**62, 2**62 + 1]]]  # an int64 row sum wraps to 1


@pytest.mark.parametrize("counts, grid, shots, message", [
    (np.zeros((2, 1, 3), int), (0.0, 1.0), 1, r"shape \(2, runs, 4\), got \(2, 1, 3\)"),
    (np.zeros((3, 1, 4), int), (0.0, 1.0), 1, r"shape \(2, runs, 4\), got \(3, 1, 4\)"),
    (np.zeros((2, 4), int), (0.0, 1.0), 1, r"shape \(2, runs, 4\), got \(2, 4\)"),
    (np.full((1, 1, 4), 1.0), (0.0,), 4, "counts must be integers, got dtype float64"),
    (np.ones((1, 1, 4), bool), (0.0,), 4, "counts must be integers, got dtype bool"),
    ([[[1, 1, 1, 1]]], (0.0,), 4.0, "shots must be an integer, got 4.0"),
    ([[[1, 0, 0, 0]]], (0.0,), True, "shots must be an integer, got True"),
    ([[[0, 0, 0, 0]]], (0.0,), 0, r"^shots must be in \[1, 2\*\*63\), got 0$"),
    ([[[2**62, 2**62, 0, 0]]], (0.0,), 2**63, r"shots must be in \[1, 2\*\*63\)"),
    ([[[5, -1, 0, 0]]], (0.0,), 4, "counts must be non-negative"),
    (np.array([[[2**64 - 1, 0, 0, 2]]], np.uint64), (0.0,), 1, "counts must be non-negative"),
    ([[[1, 1, 1, 0]], [[1, 1, 1, 1]]], (0.0, 1.0), 4, "counts must sum to shots"),
    (WRAPS, (0.0,), 1, "counts must sum to shots"),
    ([[[2**62, 2**62, 2**62, 2**62 + 5]]], (0.0,), 5, "counts must sum to shots"),
], ids=["last-axis", "grid-length", "2-d", "float", "bool", "float-shots", "bool-shots",
        "no-shots", "shots-past-int64", "negative", "uint64-wraps-negative", "short-row", "int64-sum-wraps",
        "int64-sum-wraps-to-shots"])
def test_job_counts_refuses_what_shot_counts_refuses(counts, grid, shots, message):
    with pytest.raises(ValueError, match=message):
        JobCounts(counts, grid, shots)


@pytest.mark.parametrize("shots, message", [
    (2.5, "shots must be an integer, got 2.5"),
    (True, "shots must be an integer, got True"),
    (2**63, r"shots must be in \[1, 2\*\*63\), got 9223372036854775808"),
    (2**64, r"shots must be in \[1, 2\*\*63\), got 18446744073709551616"),
], ids=["float", "bool", "2**63", "2**64"])
def test_simulate_job_refuses_shots_before_sampling(shots, message, monkeypatch):
    # before any circuit evolves, too: no noisy_distributions call
    evolutions = []
    evolve = noise.noisy_distributions
    monkeypatch.setattr(noise, "noisy_distributions",
                        lambda *args: evolutions.append(args) or evolve(*args))
    plan = select_pairs(MEMO_GRAPH, MEMO_CAL, k=3)
    with pytest.raises(ValueError, match=message):
        simulate_job(plan, spec_for(STRATEGY_I, 3), MEMO_CAL, NoiseModel(), shots, 2, 0)
    assert evolutions == []


def test_job_counts_refuses_shots_before_an_angle_or_a_seed():
    plan = select_pairs(MEMO_GRAPH, MEMO_CAL, k=1)
    identity = (STRATEGY_I, STRATEGY_I)
    with pytest.raises(ValueError, match="shots must be an integer, got 2.5"):
        job_counts(plan, [4.0], [identity], MEMO_CAL, NoiseModel(), 2.5, 2, [-1])
    with pytest.raises(ValueError, match=r"gamma = 4.0 outside \[0, pi\]"):
        job_counts(plan, [4.0], [identity], MEMO_CAL, NoiseModel(), 3, 2, [-1])


@pytest.mark.parametrize("shots", [2**61 - 1, 2**61, 2**63 - 1])
def test_job_counts_take_counts_near_the_int64_sum_bound(shots):
    # below 2**61 shots the rows are summed in int64, from 2**61 as Python ints
    counts = [[[shots - 3, 1, 1, 1]], [[0, 0, 0, shots]]]
    assert JobCounts(counts, (0.0, 1.0), shots).counts.tolist() == counts


def test_job_counts_keeps_its_own_read_only_copy():
    counts = np.array([[[3, 0, 0, 1]], [[0, 2, 2, 0]]], dtype=np.int32)
    job = JobCounts(counts, [0.0, 1.0], 4)
    counts[0, 0] = [0, 0, 0, 4]
    assert counts.flags.writeable and job.counts.tolist() == [[[3, 0, 0, 1]], [[0, 2, 2, 0]]]
    assert job.counts.dtype == np.int64 and job.grid == (0.0, 1.0)


def test_simulate_job_rejects_grid_mismatch():
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=2)
    plan = select_pairs(g, cal, k=5, min_separation=2)
    with pytest.raises(ValueError, match="gamma grid"):
        simulate_job(plan, spec_for(STRATEGY_I), cal, NoiseModel(), 100, 2, 0)


def test_job_counts_draws_each_spec_as_its_own_job():
    # one stacked job gives every strategy pair the counts it gets alone with its seed
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=4, profile="realistic")
    plan = select_pairs(g, cal, k=9, min_separation=2)
    grid = spec_for(STRATEGY_I, steps=9).gamma_grid
    players = [(s, s) for s in CANONICAL_STRATEGIES] + [(STRATEGY_H, STRATEGY_I)]
    seeds = [5, 17, 5, 2**70, 3]
    stacked = job_counts(plan, grid, players, cal, NoiseModel(), 300, 2, seeds)
    assert stacked.shape == (5, 9, 2, 4)
    for s, (pair, seed) in enumerate(zip(players, seeds)):
        alone = job_counts(plan, grid, [pair], cal, NoiseModel(), 300, 2, [seed])
        np.testing.assert_array_equal(stacked[s], alone[0])


def test_job_counts_rejects_mismatched_specs_and_seeds():
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=2)
    plan = select_pairs(g, cal, k=5, min_separation=2)
    grid = spec_for(STRATEGY_I, steps=5).gamma_grid
    identity = (STRATEGY_I, STRATEGY_I)
    with pytest.raises(ValueError, match="at least one strategy pair"):
        job_counts(plan, grid, [], cal, NoiseModel(), 100, 2, [])
    with pytest.raises(ValueError, match="2 strategy pairs but 1 seeds"):
        job_counts(plan, grid, [identity, identity], cal, NoiseModel(), 100, 2, [0])


def test_simulate_job_deterministic():
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=3, profile="realistic")
    plan = select_pairs(g, cal, k=7, min_separation=2)
    spec = spec_for(STRATEGY_H, steps=7)
    a = simulate_job(plan, spec, cal, NoiseModel(), shots=512, runs=3, seed=123)
    b = simulate_job(plan, spec, cal, NoiseModel(), shots=512, runs=3, seed=123)
    assert a == b
    c = simulate_job(plan, spec, cal, NoiseModel(), shots=512, runs=3, seed=124)
    assert a != c


@settings(max_examples=15, deadline=None)
@given(jobs=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.5]),
                               st.sampled_from(CANONICAL_STRATEGIES),
                               st.integers(0, 2**32)), min_size=1, max_size=5))
def test_jobs_on_one_snapshot_match_jobs_on_fresh_snapshots(jobs):
    # the snapshot's kept graph and its separation table carry no state from
    # one job to the next, whatever the order of noise scales
    g = heavy_hex_graph(6)
    shared = synth_calibration(g, seed=8, profile="realistic")
    plan = select_pairs(g, shared, k=7, min_separation=2)
    for scale, strategy, seed in jobs:
        spec = spec_for(strategy, steps=7)
        fresh = synth_calibration(g, seed=8, profile="realistic")
        assert (simulate_job(plan, spec, shared, NoiseModel(scale), 256, 2, seed)
                == simulate_job(plan, spec, fresh, NoiseModel(scale), 256, 2, seed))


def rmse_vs_analytic(job, spec, strategy):
    """RMSE of run-mean payoffs against the exact corrected curves."""
    err_a, err_b = [], []
    for i, gamma in enumerate(spec.gamma_grid):
        eas, ebs = [], []
        for counts in job.counts[i]:  # one row per run
            ea, eb = payoff_table(counts / job.shots, BOS)
            eas.append(ea)
            ebs.append(eb)
        ref_a, ref_b = analytical_payoffs(strategy, gamma, "corrected")
        err_a.append(np.mean(eas) - ref_a)
        err_b.append(np.mean(ebs) - ref_b)
    return math.sqrt(np.mean(np.square(err_a))), math.sqrt(np.mean(np.square(err_b)))


def test_zero_noise_payoffs_within_shot_noise():
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=4, profile="realistic")
    plan = select_pairs(g, cal, k=31, min_separation=2)
    spec = spec_for(STRATEGY_I)
    results = simulate_job(plan, spec, cal, NoiseModel(scale=0.0), 2048, 5, seed=11)
    ra, rb = rmse_vs_analytic(results, spec, STRATEGY_I)
    # binomial bound: payoff sigma <= 3/(2 sqrt(shots*runs)) per gamma point
    assert ra <= 3.0 / math.sqrt(2048 * 5)
    assert rb <= 3.0 / math.sqrt(2048 * 5)


def test_rmse_nondecreasing_in_scale():
    g = heavy_hex_graph(6)
    spec = spec_for(STRATEGY_H)
    scales = (0.0, 0.5, 1.0, 2.0)
    means = []
    for scale in scales:
        totals = []
        for seed in range(5):
            cal = synth_calibration(g, seed=seed, profile="uniform")
            plan = select_pairs(g, cal, k=31, min_separation=2)
            results = simulate_job(plan, spec, cal, NoiseModel(scale=scale),
                                   1024, 3, seed=seed)
            totals.append(sum(rmse_vs_analytic(results, spec, STRATEGY_H)))
        means.append(np.mean(totals))
    assert all(b >= a for a, b in zip(means, means[1:]))


@settings(max_examples=40, deadline=None)
@given(
    cal_seed=st.integers(0, 2**16),
    profile=st.sampled_from(["uniform", "realistic"]),
    packed=st.booleans(),
    scales=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2).map(sorted),
)
def test_exact_rmse_monotone_in_noise_scale(cal_seed, profile, packed, scales):
    # exact distributions, no shots: every strategy's per-player RMSE against
    # the corrected curves grows with the scale.  It may fall once a scaled
    # readout error passes 0.5 and its confusion starts to undo bit flips;
    # synthetic readout errors are at most 0.05, so that needs a scale above 10
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=cal_seed, profile=profile)
    plan = packed_plan(g, 31) if packed else select_pairs(g, cal, k=31, min_separation=2)
    flags = crosstalk_flags(plan, g.edges)
    two_qubit, readout, _ = cal.figures(plan.assignments)
    grid = spec_for(STRATEGY_I).gamma_grid
    players = [(s, s) for s in CANONICAL_STRATEGIES]
    lows, highs = (
        payoff_table(noisy_distributions(grid, players, two_qubit, readout, NoiseModel(scale=s),
                                         flags), BOS)
        for s in scales
    )
    for strategy, low, high in zip(CANONICAL_STRATEGIES, lows, highs):
        refs = np.array([analytical_payoffs(strategy, gamma, "corrected") for gamma in grid])
        for player in (0, 1):
            assert rmse(low[:, player], refs[:, player]) <= (
                rmse(high[:, player], refs[:, player]) + 1e-12
            )


def test_simulate_job_reads_only_the_calibrated_pairs():
    # an extra calibrated edge to a qubit id above every calibrated one is one
    # more coupled pair to the crosstalk scan; only a plan that uses it fails,
    # with the KeyError of figures for the uncalibrated qubit
    g = heavy_hex_graph(2)
    cal = synth_calibration(g, seed=4, profile="realistic")
    qubits, edges = records(cal)
    extra = snapshot(cal.timestamp, qubits, edges + (EdgeCalibration((0, 200), 0.01),))
    plan, spec = packed_plan(g, 5), spec_for(STRATEGY_H, steps=5)
    assert (simulate_job(plan, spec, extra, NoiseModel(), 128, 2, seed=3)
            == simulate_job(plan, spec, cal, NoiseModel(), 128, 2, seed=3))
    with pytest.raises(KeyError, match=r"^'no calibration for qubit 200'$"):
        simulate_job(MappingPlan(((2, 3), (0, 200))), spec_for(STRATEGY_H, steps=2), extra,
                     NoiseModel(), 128, 2, seed=3)


def test_packed_plan_noisier_than_separated_plan():
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=6, profile="uniform")
    spec = spec_for(STRATEGY_I)
    gcm = select_pairs(g, cal, k=31, min_separation=2)
    crowded = packed_plan(g, 31)
    model = NoiseModel(scale=1.0)
    r_gcm = simulate_job(gcm, spec, cal, model, 2048, 5, seed=42)
    r_pack = simulate_job(crowded, spec, cal, model, 2048, 5, seed=42)
    assert sum(rmse_vs_analytic(r_pack, spec, STRATEGY_I)) > sum(
        rmse_vs_analytic(r_gcm, spec, STRATEGY_I)
    )


ORACLE_STRATEGIES = [Strategy("I"), Strategy("H"), Strategy("RY", math.pi / 4),
                     Strategy("RY", math.pi), Strategy("RY", 0.7), Strategy("RY", 2.9)]


@settings(max_examples=150, deadline=None)
@given(
    players=st.lists(st.tuples(st.sampled_from(ORACLE_STRATEGIES),
                               st.sampled_from(ORACLE_STRATEGIES)), min_size=1, max_size=4),
    angles=st.lists(st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 0.3),
                              st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3)),
                              st.booleans()),
                    min_size=1, max_size=6),
    scale=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
)
def test_noisy_distributions_match_the_closed_form(players, angles, scale):
    # a players x angles block: each pair meets each angle's own figures and flag
    grid, p2, ro, flags = zip(*angles)
    core = noisy_distributions(grid, players, p2, ro, NoiseModel(scale=scale), flags)
    oracle = [[closed_form_distribution(gamma, a, b, e, r, scale, flag)
               for gamma, e, r, flag in angles] for a, b in players]
    np.testing.assert_allclose(core, oracle, rtol=0, atol=1e-12)
