"""Pair-selection tests, including an exhaustive oracle on small graphs."""

import dataclasses
import itertools
import json
import time
from types import SimpleNamespace

import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

from graph_oracles import bfs_distances
from qbos.device import (
    CalibrationSnapshot,
    CouplingGraph,
    EdgeCalibration,
    QubitCalibration,
    heavy_hex_graph,
    synth_calibration,
)
from qbos.gcm import (
    MULTI_START_EDGE_LIMIT,
    W_2Q,
    W_COH,
    W_RO,
    InfeasibleMappingError,
    _conflict_matrix,
    _greedy,
    _near,
    MappingPlan,
    edge_scores,
    load_plan,
    packed_plan,
    plan_score,
    select_pairs,
    verify_separation,
)


def flat_calibration(graph, two_qubit=1e-2, readout=2e-2, t1=300.0):
    qubits = tuple(QubitCalibration(i, readout, t1, t1 * 0.8) for i in range(graph.num_qubits))
    edges = tuple(EdgeCalibration(e, two_qubit) for e in graph.edges)
    return CalibrationSnapshot("test", qubits, edges)


def custom_calibration(graph, edge_errors, readouts=None, t1=300.0):
    readouts = readouts or {}
    qubits = tuple(
        QubitCalibration(i, readouts.get(i, 2e-2), t1, t1 * 0.8)
        for i in range(graph.num_qubits)
    )
    edges = tuple(
        EdgeCalibration(e, edge_errors.get(tuple(sorted(e)), 1e-2)) for e in graph.edges
    )
    return CalibrationSnapshot("test", qubits, edges)


def path_graph(n):
    return CouplingGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def grid_graph(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return CouplingGraph(rows * cols, tuple(edges))


# --- independent oracle: exhaustive subset search with Floyd-Warshall distances ----

def floyd_warshall(graph):
    n = graph.num_qubits
    inf = 10**9
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for a, b in graph.edges:
        d[a][b] = d[b][a] = 1
    for m in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][m] + d[m][j] < d[i][j]:
                    d[i][j] = d[i][m] + d[m][j]
    return d


def separated(d, e1, e2, min_sep):
    """Oracle separation test on Floyd-Warshall distances ``d``."""
    return min(d[a][b] for a in e1 for b in e2) >= max(min_sep, 1)


def exhaustive_optimum(graph, calib, k, min_sep):
    """Minimum total score over every feasible k-subset of edges, or None."""
    d = floyd_warshall(graph)
    scores = dict(zip(graph.edges, edge_scores(graph.edges, calib).tolist()))

    best = None
    for subset in itertools.combinations(sorted(graph.edges), k):
        if all(separated(d, e1, e2, min_sep)
               for e1, e2 in itertools.combinations(subset, 2)):
            total = sum(scores[e] for e in subset)
            if best is None or total < best:
                best = total
    return best


# --- conflict matrix against the oracle -----------------------------------------

ORACLE_GRAPHS = pytest.mark.parametrize(
    "graph_factory",
    [
        lambda: path_graph(7),
        lambda: CouplingGraph(8, tuple((i, (i + 1) % 8) for i in range(8))),
        lambda: CouplingGraph(9, ((0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (7, 8))),
        lambda: heavy_hex_graph(2),
        lambda: heavy_hex_graph(3),
        lambda: grid_graph(6, 6),
    ],
    ids=["path", "ring", "two-components", "heavy-hex-2", "heavy-hex-3", "grid-6x6"],
)


@ORACLE_GRAPHS
def test_conflict_matrix_matches_floyd_warshall(graph_factory):
    g = graph_factory()
    d = floyd_warshall(g)
    for min_sep in range(5):
        conflict = _conflict_matrix(_near(g, min_sep), g.edges)
        assert conflict.shape == (len(g.edges), len(g.edges))
        for i, e1 in enumerate(g.edges):
            for j, e2 in enumerate(g.edges):
                assert conflict[i, j] == (not separated(d, e1, e2, min_sep)), (
                    min_sep, e1, e2)


@ORACLE_GRAPHS
@pytest.mark.parametrize("min_sep", range(6))
def test_near_matches_floyd_warshall(graph_factory, min_sep):
    # every cell, the diagonal of full-degree qubits included, not only the
    # cells the edge conflict matrix happens to read
    g = graph_factory()
    d = floyd_warshall(g)
    near = _near(g, min_sep)
    assert near.shape == (g.num_qubits, g.num_qubits)
    for p in range(g.num_qubits):
        for q in range(g.num_qubits):
            assert near[p, q] == (d[p][q] < max(min_sep, 1)), (p, q)


def test_near_tables_are_kept_read_only_and_out_of_the_graphs_value():
    g, twin = heavy_hex_graph(2), heavy_hex_graph(2)
    text, doc = repr(g), g.to_json()
    near = _near(g, 2)
    assert _near(g, 2) is near and _near(g, 0) is _near(g, 1) is not near
    assert not near.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        near[0, 1] = True
    # the kept tables change neither equality, hash, repr nor JSON
    assert g == twin and hash(g) == hash(twin)
    assert repr(g) == text and g.to_json() == doc
    # a replaced graph grows its own tables
    copy = dataclasses.replace(g)
    assert copy == g and _near(copy, 2) is not near
    assert _near(copy, 2).tolist() == near.tolist()


def test_adjacency_runs_once_per_graph_and_radius(monkeypatch):
    from qbos.game import CANONICAL_STRATEGIES, GameSpec, default_gamma_grid
    from qbos.noise import NoiseModel, crosstalk_flags, simulate_job

    cal = synth_calibration(heavy_hex_graph(6), seed=3, profile="realistic")
    calls = []
    adjacency = CouplingGraph.adjacency
    monkeypatch.setattr(CouplingGraph, "adjacency",
                        lambda graph: calls.append(graph) or adjacency(graph))
    graph = cal.graph()
    plan = select_pairs(graph, cal, k=7)
    crosstalk_flags(plan, graph)
    for scale, s in zip((0.0, 0.5, 1.0, 2.0), CANONICAL_STRATEGIES):
        spec = GameSpec(gamma_grid=default_gamma_grid(7), strategy_a=s, strategy_b=s)
        simulate_job(plan, spec, cal, NoiseModel(scale=scale), shots=64, runs=2, seed=1)
    assert len(calls) == 1 and calls[0] is graph  # radius 2 only
    packed_plan(graph, 7)
    packed_plan(graph, 7)
    assert len(calls) == 2  # and radius 1


@st.composite
def separation_tables(draw):
    """A random graph of 1-14 qubits with degrees up to 6, isolated qubits and
    several components included, its edges shuffled with either endpoint first,
    and a separation from 0 to 6."""
    n = draw(st.integers(1, 14))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    degree, edges = [0] * n, []
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=42, unique=True)
                     if pairs else st.just([])):
        if degree[a] < 6 and degree[b] < 6:
            degree[a] += 1
            degree[b] += 1
            edges.append((a, b))
    graph = CouplingGraph(n, tuple(edges))
    order = [(b, a) if draw(st.booleans()) else (a, b)
             for a, b in draw(st.permutations(graph.edges))]
    return graph, order, draw(st.integers(0, 6))


# a degree-6 hub beside a path of uneven degrees and an isolated qubit
HUB_AND_PATH = CouplingGraph(12, tuple((0, q) for q in range(1, 7)) + ((7, 8), (8, 9), (9, 10)))


@settings(max_examples=150, deadline=None)
@given(separation_tables())
@example((HUB_AND_PATH, list(reversed(HUB_AND_PATH.edges)), 3))
def test_near_and_conflict_match_bfs_on_random_graphs(case):
    # the row gathers of both kernels rely on near being symmetric, and on the
    # self-padding of the neighbour table adding nothing at any degree
    graph, order, min_sep = case
    reach = max(min_sep, 1)
    dist = [bfs_distances(graph, q) for q in range(graph.num_qubits)]
    near = _near(graph, min_sep)
    assert near.tolist() == [[0 <= d < reach for d in row] for row in dist]
    assert _conflict_matrix(near, order).tolist() == [
        [any(0 <= dist[p][q] < reach for p in e1 for q in e2) for e2 in order]
        for e1 in order]


# --- scoring -------------------------------------------------------------------

def test_score_zero_in_ideal_limit():
    g = path_graph(2)
    qubits = (QubitCalibration(0, 0.0, 1e12, 1e12), QubitCalibration(1, 0.0, 1e12, 1e12))
    cal = CalibrationSnapshot("t", qubits, (EdgeCalibration((0, 1), 0.0),))
    assert edge_scores([(0, 1)], cal)[0] < 1e-9


def test_score_linear_in_two_qubit_error():
    g = path_graph(3)
    cal1 = custom_calibration(g, {(0, 1): 0.01, (1, 2): 0.01})
    cal2 = custom_calibration(g, {(0, 1): 0.02, (1, 2): 0.01})
    assert edge_scores([(0, 1)], cal2)[0] - edge_scores([(0, 1)], cal1)[0] == pytest.approx(
        W_2Q * (0.02 - 0.01)
    )


def test_score_orders_by_readout():
    g = CouplingGraph(4, ((0, 1), (2, 3)))
    cal = custom_calibration(g, {}, readouts={0: 0.01, 1: 0.01, 2: 0.04, 3: 0.04})
    assert edge_scores([(0, 1)], cal)[0] < edge_scores([(2, 3)], cal)[0]


def test_score_missing_edge_raises():
    g = path_graph(3)
    cal = flat_calibration(g)
    with pytest.raises(KeyError):
        edge_scores([(0, 2)], cal)
    with pytest.raises(KeyError):
        edge_scores([(0, 1), (0, 2)], cal)


def scalar_score(cal, edge):
    """The per-edge score formula, one edge at a time."""
    qa, qb = (cal.qubit(q) for q in sorted(edge))
    return (
        W_2Q * cal.edge(edge).two_qubit_error
        + W_RO * (qa.readout_error + qb.readout_error)
        + W_COH * (1.0 / qa.t1_us + 1.0 / qb.t1_us)
    )


@pytest.mark.parametrize("profile", ["realistic", "uniform"])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_edge_scores_bit_identical_to_scalar_formula(profile, seed):
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=seed, profile=profile)
    expected = [scalar_score(cal, e) for e in g.edges]
    assert edge_scores(g.edges, cal).tolist() == expected
    assert [float(edge_scores([e], cal)[0]) for e in g.edges] == expected
    assert [float(edge_scores([(b, a)], cal)[0]) for a, b in g.edges] == expected
    # a sequential sum of 31 terms, which numpy's pairwise summation would regroup
    plan = packed_plan(g, 31)
    by_edge = dict(zip(g.edges, expected))
    assert plan_score(plan, cal) == sum(by_edge[e] for e in plan.assignments)


# --- selection -----------------------------------------------------------------

def test_select_on_path_graph_matches_bruteforce():
    g = path_graph(7)
    cal = flat_calibration(g)
    plan = select_pairs(g, cal, k=2, min_separation=2)
    ok, violation = verify_separation(plan, g)
    assert ok, violation
    assert plan_score(plan, cal) == pytest.approx(exhaustive_optimum(g, cal, 2, 2))


def test_triangle_is_infeasible_for_two_pairs():
    g = CouplingGraph(3, ((0, 1), (0, 2), (1, 2)))
    cal = flat_calibration(g)
    with pytest.raises(InfeasibleMappingError) as exc:
        select_pairs(g, cal, k=2, min_separation=2)
    assert exc.value.achievable == 1


def test_heavy_hex_127_takes_31_pairs():
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=1, profile="realistic")
    t0 = time.perf_counter()
    plan = select_pairs(g, cal, k=31, min_separation=2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert len(plan.assignments) == 31
    assert len({q for p in plan.assignments for q in p}) == 62
    ok, violation = verify_separation(plan, g)
    assert ok, violation


@pytest.mark.parametrize("seed", range(6))
def test_heavy_hex_feasible_across_calibrations(seed):
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=seed, profile="realistic")
    plan = select_pairs(g, cal, k=31, min_separation=2)
    assert verify_separation(plan, g)[0]


def test_selection_prefers_low_error_edges():
    g = path_graph(8)
    cheap = {(0, 1): 1e-3, (5, 6): 1e-3}
    cal = custom_calibration(g, cheap)
    plan = select_pairs(g, cal, k=2, min_separation=2)
    assert set(plan.assignments) == {(0, 1), (5, 6)}


def test_selection_deterministic():
    g = heavy_hex_graph(3)
    cal = synth_calibration(g, seed=4, profile="realistic")
    p1 = select_pairs(g, cal, k=5)
    p2 = select_pairs(g, cal, k=5)
    assert p1 == p2


def test_monotone_feasibility():
    g = heavy_hex_graph(2)
    cal = synth_calibration(g, seed=2, profile="realistic")
    k = 4
    select_pairs(g, cal, k=k, min_separation=2)  # feasible
    for smaller in range(1, k):
        plan = select_pairs(g, cal, k=smaller, min_separation=2)
        assert len(plan.assignments) == smaller


@pytest.mark.parametrize(
    "graph_factory,k",
    [
        (lambda: path_graph(5), 2),
        (lambda: path_graph(8), 2),
        (lambda: path_graph(8), 3),
        (lambda: CouplingGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0))), 2),
        (lambda: CouplingGraph(9, ((0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8))), 3),
        (lambda: CouplingGraph(7, ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6))), 2),
        (lambda: CouplingGraph(10, tuple((i, i + 1) for i in range(9))), 3),
    ],
)
def test_small_instances_within_10pct_of_optimum(graph_factory, k):
    g = graph_factory()
    assert len(g.edges) <= 10
    for seed in (0, 1, 2):
        cal = synth_calibration(g, seed=seed, profile="realistic")
        opt = exhaustive_optimum(g, cal, k, 2)
        if opt is None:
            with pytest.raises(InfeasibleMappingError):
                select_pairs(g, cal, k=k, min_separation=2)
            continue
        plan = select_pairs(g, cal, k=k, min_separation=2)
        assert plan_score(plan, cal) <= 1.10 * opt


# --- verification ----------------------------------------------------------------

def test_verify_accepts_selected_plan():
    g = heavy_hex_graph(2)
    cal = synth_calibration(g, seed=0)
    plan = select_pairs(g, cal, k=3)
    assert verify_separation(plan, g) == (True, None)


def test_verify_flags_adjacent_pairs():
    g = path_graph(5)
    plan = MappingPlan(((0, 1), (2, 3)), min_separation=2)
    ok, violation = verify_separation(plan, g)
    assert not ok
    assert "1" in violation and "2" in violation


def test_verify_single_pair_always_ok():
    g = path_graph(3)
    plan = MappingPlan(((0, 1),), min_separation=2)
    assert verify_separation(plan, g) == (True, None)


def pairwise_verify_separation(plan, graph):
    """The separation check as a loop over every pair of circuits: the oracle
    of ``verify_separation``, message text included."""
    for pair in plan.assignments:
        for q in pair:
            if not 0 <= q < graph.num_qubits:
                return False, f"qubit {q} outside the graph"
        if tuple(sorted(pair)) not in graph.edges:
            return False, f"pair {pair} is not a coupled edge"
    dist = {q: bfs_distances(graph, q) for pair in plan.assignments for q in pair}
    for i, pi in enumerate(plan.assignments):
        for j, pj in enumerate(plan.assignments):
            if j <= i:
                continue
            for a in pi:
                for b in pj:
                    if 0 <= dist[a][b] < plan.min_separation:
                        return False, (
                            f"circuits {i} and {j}: qubits {a} and {b} are "
                            f"{dist[a][b]} apart (< {plan.min_separation})"
                        )
    return True, None


@st.composite
def separation_cases(draw):
    """A graph and a plan of 2-12 disjoint edges, in either qubit order, that
    may hold one uncoupled pair or one qubit outside the graph."""
    if draw(st.booleans()):
        graph = heavy_hex_graph(draw(st.integers(1, 3)))
    else:
        n = draw(st.integers(4, 12))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        graph = CouplingGraph(n, tuple(draw(st.lists(st.sampled_from(pairs), min_size=2,
                                                      max_size=20, unique=True))))
    k = draw(st.integers(2, 12))
    used, assignments = set(), []
    for a, b in draw(st.permutations(graph.edges)):
        if len(assignments) < k and a not in used and b not in used:
            used.update((a, b))
            assignments.append((b, a) if draw(st.booleans()) else (a, b))
    assume(len(assignments) >= 2)
    n = graph.num_qubits
    free = [q for q in range(n) if q not in used]
    extra = draw(st.sampled_from(["none", "uncoupled", "outside"]))
    uncoupled = [(a, b) for a, b in itertools.combinations(free, 2)
                 if (a, b) not in graph.edges]
    if extra == "uncoupled" and uncoupled:
        assignments.insert(draw(st.integers(0, len(assignments))),
                           draw(st.sampled_from(uncoupled)))
    elif extra == "outside":
        outside = (draw(st.sampled_from(free)) if free else n + 1, n + draw(st.integers(2, 5)))
        assignments.insert(draw(st.integers(0, len(assignments))), outside)
    plan = SimpleNamespace(assignments=tuple(assignments),
                           min_separation=draw(st.integers(1, 4)))
    return graph, plan


@settings(max_examples=300, deadline=None)
@given(separation_cases())
def test_verify_separation_matches_pairwise_oracle(case):
    graph, plan = case
    assert verify_separation(plan, graph) == pairwise_verify_separation(plan, graph)


@pytest.mark.parametrize("outcome", ["ok", "circuits", "not a coupled edge", "outside"])
def test_separation_cases_reach_every_outcome(outcome):
    # the property above sees passing plans, violations and both input faults
    def reaches(case):
        ok, message = pairwise_verify_separation(case[1], case[0])
        return ok if outcome == "ok" else not ok and outcome in message

    graph, plan = find(separation_cases(), reaches,
                       settings=settings(max_examples=500, database=None,
                                         phases=[Phase.generate]))
    assert len(plan.assignments) >= 2


def test_plan_rejects_qubit_reuse():
    with pytest.raises(ValueError):
        MappingPlan(((0, 1), (1, 2)))


# --- serialization -------------------------------------------------------------------

def test_plan_round_trip(tmp_path):
    g = heavy_hex_graph(2)
    cal = synth_calibration(g, seed=6)
    plan = select_pairs(g, cal, k=3)
    path = tmp_path / "plan.json"
    plan.save(path)
    assert load_plan(path) == plan


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(min_separation=2.9), "min_separation must be an integer, got 2.9"),
        (lambda d: d.pop("min_separation"), "min_separation must be an integer, got None"),
        (lambda d: d.pop("assignments"), "assignments must be a list, got None"),
        (lambda d: d["assignments"][0].update(pair=[1.7, 2]),
         "assignments[0].pair must be two integer qubit ids, got [1.7, 2]"),
        (lambda d: d["assignments"][1].update(pair=["5", "6"]),
         "assignments[1].pair must be two integer qubit ids, got ['5', '6']"),
        (lambda d: d["assignments"][1].update(pair=[5]),
         "assignments[1].pair must be two integer qubit ids, got [5]"),
        (lambda d: d["assignments"][0].pop("pair"),
         "assignments[0].pair must be two integer qubit ids, got None"),
        (lambda d: d["assignments"][1].update(circuit=True),
         "assignments[1].circuit must be an integer, got True"),
        (lambda d: d["assignments"].__setitem__(0, [0, [1, 2]]),
         "assignments[0].circuit must be an integer, got None"),
    ],
    ids=["separation-float", "separation-missing", "assignments-missing", "pair-float",
         "pair-strings", "pair-short", "pair-missing", "circuit-bool", "entry-not-object"],
)
def test_load_plan_names_the_bad_field(tmp_path, edit, message):
    doc = MappingPlan(((1, 2), (5, 6))).to_json()
    edit(doc)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        load_plan(path)
    assert str(exc.value) == f"{path}: {message}"


def test_load_plan_names_a_non_utf8_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(MappingPlan(((1, 2),)).to_json()).encode())
    with pytest.raises(ValueError) as exc:
        load_plan(path)
    assert str(exc.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


def test_packed_plan_is_adjacent():
    g = heavy_hex_graph(6)
    plan = packed_plan(g, 31)
    assert len(plan.assignments) == 31
    assert plan.min_separation == 1
    ok, _ = verify_separation(
        MappingPlan(plan.assignments, min_separation=2), g
    )
    assert not ok  # crowded on purpose


def lexicographic_packed(graph, k):
    """Oracle for packed_plan: a set-based walk over the edges in lexicographic
    order that takes every edge whose qubits are still unused."""
    chosen, used = [], set()
    for a, b in sorted(graph.edges):
        if len(chosen) == k:
            break
        if a in used or b in used:
            continue
        chosen.append((a, b))
        used.update((a, b))
    if len(chosen) < k:
        raise InfeasibleMappingError(k, len(chosen))
    return MappingPlan(tuple(chosen), min_separation=1)


@st.composite
def packed_cases(draw):
    """A heavy-hex graph or a random small one, which may hold isolated qubits
    or no edge at all, and k from 1 to one past the achievable pair count."""
    if draw(st.booleans()):
        graph = heavy_hex_graph(draw(st.integers(1, 3)))
    else:
        n = draw(st.integers(1, 10))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        graph = CouplingGraph(n, tuple(edges))
    try:  # n // 2 + 1 disjoint pairs never fit on n qubits
        lexicographic_packed(graph, graph.num_qubits // 2 + 1)
    except InfeasibleMappingError as err:
        achievable = err.achievable
    return graph, draw(st.integers(1, achievable + 1))


@settings(max_examples=200, deadline=None)
@given(packed_cases())
def test_packed_plan_matches_lexicographic_oracle(case):
    graph, k = case
    try:
        expected = lexicographic_packed(graph, k)
    except InfeasibleMappingError as err:
        with pytest.raises(InfeasibleMappingError) as exc:
            packed_plan(graph, k)
        assert (exc.value.requested, exc.value.achievable) == (err.requested, err.achievable)
    else:
        assert packed_plan(graph, k) == expected


def pair_loop_select(graph, calib, k, min_sep):
    """Oracle for select_pairs' swap search: the same ranking and greedy start,
    then the per-pair loop that the one-expression round replaced, which tries
    the chosen pairs most expensive first and swaps the first that fits an
    unused cheaper edge for the cheapest such edge."""
    ranked = sorted(zip(edge_scores(graph.edges, calib).tolist(), graph.edges))
    scores = [score for score, _ in ranked]
    edges = [e for _, e in ranked]
    conflict = _conflict_matrix(_near(graph, min_sep), edges)
    positions = list(range(len(edges)))
    orders = [positions, sorted(positions, key=edges.__getitem__)]
    if len(edges) <= MULTI_START_EDGE_LIMIT:
        orders += [[r] + positions[:r] + positions[r + 1:] for r in positions]
    chosen = min((_greedy(conflict, order, k) for order in orders),
                 key=lambda sel: (-len(sel), sum(scores[r] for r in sel),
                                  tuple(sorted(edges[r] for r in sel))))
    if len(chosen) < k:
        raise InfeasibleMappingError(k, len(chosen))
    clashes = conflict[chosen].sum(axis=0)
    improved = True
    while improved:
        improved = False
        for idx in sorted(range(k), key=lambda i: (-scores[chosen[i]], edges[chosen[i]])):
            cur = chosen[idx]
            cheaper = sum(score < scores[cur] for score in scores)
            fits = clashes[:cheaper] == conflict[cur, :cheaper]
            if fits.any():
                r = int(fits.argmax())
                clashes += conflict[r].astype(int) - conflict[cur]
                chosen[idx] = r
                improved = True
                break
    return MappingPlan(tuple(edges[r] for r in sorted(chosen)), min_sep)


@st.composite
def swap_cases(draw):
    """Heavy-hex graphs of distance 1-3 and 6 or random small ones, a realistic
    or uniform calibration, a separation of 1-3 and k up to the achievable count,
    drawn down from it: near that count the swap search has most to do."""
    if draw(st.booleans()):
        graph = heavy_hex_graph(draw(st.sampled_from([1, 2, 3, 6])))
    else:
        n = draw(st.integers(2, 12))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        graph = CouplingGraph(n, tuple(draw(st.lists(st.sampled_from(pairs), min_size=1,
                                                     unique=True))))
    calib = synth_calibration(graph, seed=draw(st.integers(0, 10**6)),
                              profile=draw(st.sampled_from(["realistic", "uniform"])))
    min_sep = draw(st.integers(1, 3))
    try:  # n // 2 + 1 disjoint pairs never fit on n qubits
        pair_loop_select(graph, calib, graph.num_qubits // 2 + 1, min_sep)
    except InfeasibleMappingError as err:
        achievable = err.achievable
    return graph, calib, achievable - draw(st.integers(0, achievable - 1)), min_sep


HEAVY_HEX_127 = heavy_hex_graph(6)


@settings(max_examples=150, deadline=None)
@given(swap_cases())
@example((HEAVY_HEX_127, synth_calibration(HEAVY_HEX_127, seed=0), 31, 2))  # the paper's case
def test_swap_search_matches_the_pair_loop_oracle(case):
    graph, calib, k, min_sep = case
    assert select_pairs(graph, calib, k, min_sep) == pair_loop_select(graph, calib, k, min_sep)


# --- properties on random small graphs -------------------------------------------------

@st.composite
def small_instances(draw):
    if draw(st.booleans()):
        graph = heavy_hex_graph(2)
    else:
        n = draw(st.integers(2, 9))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12, unique=True))
        graph = CouplingGraph(n, tuple(edges))
    calib = synth_calibration(graph, seed=draw(st.integers(0, 10**6)))
    k = draw(st.integers(1, 12))
    min_sep = draw(st.integers(1, 3))
    return graph, calib, k, min_sep


@settings(max_examples=80, deadline=None)
@given(small_instances())
def test_plans_separated_and_locally_minimal(instance):
    g, cal, k, min_sep = instance
    try:
        plan = select_pairs(g, cal, k=k, min_separation=min_sep)
    except InfeasibleMappingError as err:
        # the largest feasible count is where the swap search has most to do
        k = err.achievable
        plan = select_pairs(g, cal, k=k, min_separation=min_sep)
    assert len(plan.assignments) == k
    assert verify_separation(plan, g) == (True, None)

    # single-swap local minimality, judged with oracle distances
    d = floyd_warshall(g)
    scores = dict(zip(g.edges, edge_scores(g.edges, cal).tolist()))
    chosen = set(plan.assignments)
    for current in chosen:
        rest = chosen - {current}
        for e in g.edges:
            if e in chosen or scores[e] >= scores[current]:
                continue
            assert not all(separated(d, e, o, min_sep) for o in rest), (current, e)
