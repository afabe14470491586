"""Noise channel tests: trace/positivity, limits, a hand-computed fixture."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbos.device import CouplingGraph, PairCalibration, heavy_hex_graph, synth_calibration
from qbos.game import (
    CANONICAL_STRATEGIES,
    GameSpec,
    STRATEGY_H,
    STRATEGY_I,
    _closed_form_distribution,
    PayoffMatrix,
    analytical_payoffs,
)
from qbos.gcm import MappingPlan, packed_plan, select_pairs
from qbos.noise import (
    CROSSTALK_DISTANCE,
    CROSSTALK_PENALTY,
    NoiseModel,
    confusion_matrix,
    crosstalk_flags,
    depolarize_1q,
    depolarize_2q,
    job_counts,
    noisy_distributions,
    simulate_job,
)
from qbos.statevec import OUTCOME_LABELS
from qbos.stats import payoff_table, rmse

from graph_oracles import bfs_distances

BOS = PayoffMatrix.battle_of_sexes()


def spec_for(strategy, steps=31):
    from qbos.game import default_gamma_grid
    return GameSpec(strategy_a=strategy, strategy_b=strategy,
                    gamma_grid=default_gamma_grid(steps))


def fixture_calibration():
    g = heavy_hex_graph(6)
    return g, synth_calibration(g, seed=0, profile="uniform")


def pair_calib():
    g, cal = fixture_calibration()
    return cal.pair(g.edges[0])


def one_circuit(circuit, pc, model, crosstalk_active=False):
    """The outcome distribution of one mapped (gamma, strategy_a, strategy_b)
    circuit on the batched core."""
    return noisy_distributions([circuit], [pc], model, [crosstalk_active])[0]


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


def test_confusion_matrix_is_column_stochastic():
    c = confusion_matrix(0.07)
    np.testing.assert_allclose(c.sum(axis=0), [1.0, 1.0], atol=1e-15)


def test_model_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        NoiseModel(scale=-1.0)


@pytest.mark.parametrize("scale", [float("inf"), float("nan")])
def test_model_rejects_non_finite_scale(scale):
    # at scale inf a zero-error pair's probability would be inf * 0.0 = nan
    with pytest.raises(ValueError, match="finite"):
        NoiseModel(scale=scale)


def test_noise_model_has_one_knob():
    # the rates come from the calibration and fixed constants; the model scales them
    assert [f.name for f in dataclasses.fields(NoiseModel)] == ["scale"]


def test_resolved_gives_one_clamped_array_per_channel():
    pcs = [PairCalibration(0.02, (0.01, 0.4)), PairCalibration(0.0, (0.0, 0.0))]
    scale = 3.0
    resolved = NoiseModel(scale=scale).resolved(pcs, [True, False])
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
            circuit = (gamma, strategy, strategy)
            noisy = one_circuit(circuit, pc, model, crosstalk_active=True)
            ideal = _closed_form_distribution(strategy, gamma)
            np.testing.assert_allclose(noisy, ideal, atol=1e-12)


@pytest.mark.parametrize("gamma", [-0.001, math.pi + 1e-9, float("nan")])
def test_gamma_outside_zero_to_pi_is_rejected(gamma):
    with pytest.raises(ValueError, match=r"outside \[0, pi\]"):
        one_circuit((gamma, STRATEGY_I, STRATEGY_I), pair_calib(), NoiseModel())


def test_saturated_depolarizing_is_uniform():
    pc = PairCalibration(two_qubit_error=1.0, readout_errors=(0.0, 0.0))
    circuit = (1.0, STRATEGY_I, STRATEGY_I)
    dist = one_circuit(circuit, pc, NoiseModel(scale=1.0))
    np.testing.assert_allclose(dist, [0.25] * 4, atol=1e-12)


def test_huge_scale_clamps_to_uniform():
    model = NoiseModel(scale=1e9)
    circuit = (0.7, STRATEGY_I, STRATEGY_I)
    dist = one_circuit(circuit, pair_calib(), model)
    np.testing.assert_allclose(dist, [0.25] * 4, atol=1e-9)


def test_hand_computed_two_qubit_depolarizing():
    # strategy I at gamma = pi/2 on an edge with two-qubit error 0.1, so
    # one-qubit error 0.01, and no readout error.  The two one-qubit channels
    # before the CNOT leave the populations at 0.5/0.5; after it the
    # two-qubit channel gives p00 = 0.5*0.9 + 0.25*0.1 = 0.475; the strategy
    # gates' channels on qubit 0, then qubit 1, each take p00 to
    # 0.99 p00 + 0.01 (p00 + p01) / 2:
    # 0.47275, then p00 = p11 = 0.4705225 and p01 = p10 = 0.0294775
    pc = PairCalibration(two_qubit_error=0.1, readout_errors=(0.0, 0.0))
    circuit = (math.pi / 2, STRATEGY_I, STRATEGY_I)
    dist = one_circuit(circuit, pc, NoiseModel(scale=1.0))
    np.testing.assert_allclose(dist, [0.4705225, 0.0294775, 0.0294775, 0.4705225],
                               rtol=0, atol=1e-15)


def test_distribution_normalized_and_nonnegative():
    model = NoiseModel(scale=2.5)
    for gamma in (0.0, 1.1, 2.2, math.pi):
        circuit = (gamma, STRATEGY_H, STRATEGY_H)
        dist = one_circuit(circuit, pair_calib(), model, crosstalk_active=True)
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
    pc = PairCalibration(two_qubit_error=p2, readout_errors=ro)
    circuit = (gamma, strategy, strategy)
    dist = one_circuit(circuit, pc, NoiseModel(scale=scale), crosstalk_active=flag)
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
    assert crosstalk_flags(plan, g) == [False] * 31


def test_packed_plan_triggers_crosstalk():
    g = heavy_hex_graph(6)
    plan = packed_plan(g, 31)
    flags = crosstalk_flags(plan, g)
    assert sum(flags) >= 25  # nearly every crowded circuit interferes


def test_crosstalk_flag_detects_adjacency():
    g = CouplingGraph(7, tuple((i, i + 1) for i in range(6)))
    plan = MappingPlan(((0, 1), (2, 3)), min_separation=1)
    assert crosstalk_flags(plan, g) == [True, True]
    plan2 = MappingPlan(((0, 1), (3, 4)), min_separation=2)
    assert crosstalk_flags(plan2, g) == [False, False]


def bfs_crosstalk_flags(assignments, graph):
    """Oracle: one BFS per plan qubit, then every qubit pair of every two circuits."""
    dist = {q: bfs_distances(graph, q) for pair in assignments for q in pair}
    return [
        any(
            0 <= dist[q][o] < CROSSTALK_DISTANCE
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
    """A graph and up to 12 of its edges; nearby, repeated and shared-qubit edges occur."""
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
    return graph, tuple(draw(st.lists(st.sampled_from(window), max_size=12)))


@settings(max_examples=150, deadline=None)
@given(plans_on_graphs())
def test_crosstalk_flags_match_bfs(instance):
    graph, assignments = instance
    qubits = [q for pair in assignments for q in pair]
    if len(set(qubits)) == len(qubits):
        plan = MappingPlan(assignments)
    else:  # overlapping pairs are no valid MappingPlan, but the flags still apply
        plan = SimpleNamespace(assignments=assignments)
    assert crosstalk_flags(plan, graph) == bfs_crosstalk_flags(assignments, graph)


# --- job simulation ------------------------------------------------------------------

def test_simulate_job_shape_and_totals():
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=2, profile="realistic")
    plan = select_pairs(g, cal, k=31, min_separation=2)
    spec = spec_for(STRATEGY_I)
    results = simulate_job(plan, spec, cal, NoiseModel(), shots=2048, runs=5, seed=9)
    assert len(results) == 31 * 5
    assert all(r.counts.total_shots == 2048 for r in results)
    assert {r.run_index for r in results} == set(range(5))
    assert {r.circuit_index for r in results} == set(range(31))


def test_simulate_job_rejects_grid_mismatch():
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=2)
    plan = select_pairs(g, cal, k=5, min_separation=2)
    with pytest.raises(ValueError, match="gamma grid"):
        simulate_job(plan, spec_for(STRATEGY_I), cal, NoiseModel(), 100, 2, 0)


def test_job_counts_draws_each_spec_as_its_own_job():
    # one stacked job gives every spec the counts it gets alone with its seed
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=4, profile="realistic")
    plan = select_pairs(g, cal, k=9, min_separation=2)
    specs = [spec_for(s, steps=9) for s in CANONICAL_STRATEGIES]
    seeds = [5, 17, 5, 2**70]
    stacked = job_counts(plan, specs, cal, NoiseModel(), 300, 2, seeds, g)
    assert stacked.shape == (4, 9, 2, 4)
    for s, (spec, seed) in enumerate(zip(specs, seeds)):
        alone = job_counts(plan, [spec], cal, NoiseModel(), 300, 2, [seed], g)
        np.testing.assert_array_equal(stacked[s], alone[0])


def test_job_counts_rejects_mismatched_specs_and_seeds():
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=2)
    plan = select_pairs(g, cal, k=5, min_separation=2)
    five = spec_for(STRATEGY_I, steps=5)
    with pytest.raises(ValueError, match="at least one spec"):
        job_counts(plan, [], cal, NoiseModel(), 100, 2, [], g)
    with pytest.raises(ValueError, match="one seed per spec"):
        job_counts(plan, [five, five], cal, NoiseModel(), 100, 2, [0], g)
    other = GameSpec(strategy_a=STRATEGY_H, strategy_b=STRATEGY_H,
                     gamma_grid=(0.0, 0.5, 1.0, 1.5, 2.0))
    with pytest.raises(ValueError, match="share one gamma grid"):
        job_counts(plan, [five, other], cal, NoiseModel(), 100, 2, [0, 1], g)


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


def rmse_vs_analytic(results, spec, strategy):
    """RMSE of run-mean payoffs against the exact corrected curves."""
    by_circuit = {}
    for r in results:
        by_circuit.setdefault(r.circuit_index, []).append(r)
    err_a, err_b = [], []
    for i, gamma in enumerate(spec.gamma_grid):
        eas, ebs = [], []
        for r in by_circuit[i]:
            counts = [r.counts.counts[lbl] for lbl in OUTCOME_LABELS]
            ea, eb = payoff_table(np.array(counts) / r.counts.total_shots, BOS)
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
    flags = crosstalk_flags(plan, g)
    pair_calibs = [cal.pair(pair) for pair in plan.assignments]
    grid = spec_for(STRATEGY_I).gamma_grid
    for strategy in CANONICAL_STRATEGIES:
        circuits = [(gamma, strategy, strategy) for gamma in grid]
        refs = np.array([analytical_payoffs(strategy, gamma, "corrected") for gamma in grid])
        low, high = (
            payoff_table(noisy_distributions(circuits, pair_calibs, NoiseModel(scale=s), flags), BOS)
            for s in scales
        )
        for player in (0, 1):
            assert rmse(low[:, player], refs[:, player]) <= (
                rmse(high[:, player], refs[:, player]) + 1e-12
            )


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
