"""Pair-selection tests, including an exhaustive oracle on small graphs."""

import copy
import functools
import itertools
import json
import pickle
import re
import time
import timeit
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

from calib_oracles import EdgeCalibration, QubitCalibration, edge, qubit, snapshot
from graph_oracles import adjacency, bfs_distances
from mapping_oracles import SMALL_INSTANCES, milp_optimum
from qbos.device import (
    CalibrationSnapshot,
    CouplingGraph,
    _field,
    _load,
    heavy_hex_graph,
    synth_calibration,
)
from qbos.game import STRATEGY_H, GameSpec, default_gamma_grid
from qbos.gcm import (
    MULTI_START_EDGE_LIMIT,
    W_2Q,
    W_COH,
    W_RO,
    InfeasibleMappingError,
    _conflict_matrix,
    _greedy,
    _rank,
    MappingPlan,
    edge_scores,
    load_plan,
    packed_plan,
    plan_score,
    select_pairs,
    verify_separation,
)
from qbos.noise import NoiseModel, simulate_job


def flat_calibration(graph, two_qubit=1e-2, readout=2e-2, t1=300.0):
    qubits = tuple(QubitCalibration(i, readout, t1, t1 * 0.8) for i in range(graph.num_qubits))
    edges = tuple(EdgeCalibration(e, two_qubit) for e in graph.edges)
    return snapshot("test", qubits, edges)


def custom_calibration(graph, edge_errors, readouts=None, t1=300.0):
    readouts = readouts or {}
    qubits = tuple(
        QubitCalibration(i, readouts.get(i, 2e-2), t1, t1 * 0.8)
        for i in range(graph.num_qubits)
    )
    edges = tuple(
        EdgeCalibration(e, edge_errors.get(tuple(sorted(e)), 1e-2)) for e in graph.edges
    )
    return snapshot("test", qubits, edges)


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
        conflict = _conflict_matrix(g, np.arange(len(g.edges)), min_sep)  # in edge order
        assert conflict.shape == (len(g.edges), len(g.edges))
        for i, e1 in enumerate(g.edges):
            for j, e2 in enumerate(g.edges):
                assert conflict[i, j] == (not separated(d, e1, e2, min_sep)), (
                    min_sep, e1, e2)


@ORACLE_GRAPHS
@pytest.mark.parametrize("min_sep", range(6))
def test_near_matches_floyd_warshall(graph_factory, min_sep):
    # verify_separation's walk judges which qubits are near, closer than the
    # separation, apart from the conflict matrix: every plan of two disjoint
    # edges, and the two qubits and the distance a violation names
    g = graph_factory()
    d = floyd_warshall(g)
    reach = max(min_sep, 1)
    for e1, e2 in itertools.combinations(g.edges, 2):
        if set(e1) & set(e2):
            continue
        ok, message = verify_separation(MappingPlan((e1, e2), reach), g)
        assert ok == separated(d, e1, e2, min_sep), (e1, e2)
        if not ok:
            a, b, hops = map(int, re.search(r"qubits (\d+) and (\d+) are (\d+) apart",
                                            message).groups())
            assert a in e1 and b in e2 and d[a][b] == hops < reach, message


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
def test_conflict_matches_bfs_on_random_graphs(case):
    # the graph's slot grouping, the builder's hop fan-out and deduplication at
    # any degree, and its scatter at the ranks of any edge order and orientation
    graph, order, min_sep = case
    reach = max(min_sep, 1)
    dist = [bfs_distances(graph, q) for q in range(graph.num_qubits)]
    rank = np.empty(len(order), dtype=np.intp)
    rank[[graph.edges.index(tuple(sorted(e))) for e in order]] = np.arange(len(order))
    assert _conflict_matrix(graph, rank, min_sep).tolist() == [
        [any(0 <= dist[p][q] < reach for p in e1 for q in e2) for e2 in order]
        for e1 in order]


@settings(max_examples=100, deadline=None)
@given(separation_tables())
@example((HUB_AND_PATH, list(reversed(HUB_AND_PATH.edges)), 3))
def test_graph_slots_are_read_only_and_equal_a_fresh_build(case):
    # built once per graph, from its sorted edges: the same arrays as a graph
    # built from the drawn order and orientation, and each qubit's neighbours
    # and the arc codes ascend with no sort
    graph, order, _ = case
    n, slots = graph.num_qubits, graph._slots
    assert graph._slots is slots
    for array, fresh in zip(slots, CouplingGraph(n, tuple(order))._slots):
        assert not array.flags.writeable and array.dtype == np.intp
        assert np.array_equal(array, fresh)
    ends, grouped, first, degree, heads, arcs = slots
    assert ends.tolist() == list(itertools.chain.from_iterable(graph.edges))
    neighbours = adjacency(graph)
    for q in range(n):
        group = grouped[first[q]:first[q] + degree[q]]
        assert ends[group].tolist() == [q] * len(neighbours[q])
        assert heads[first[q]:first[q] + degree[q]].tolist() == sorted(neighbours[q])
    assert arcs.tolist() == [q * n + p for q in range(n) for p in sorted(neighbours[q])] + [n * n]


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copied_graph_keeps_read_only_slots(copy_of):
    graph = heavy_hex_graph(3)
    built = graph._slots
    copied = copy_of(graph)
    assert copied == graph and hash(copied) == hash(graph)
    for array, original in zip(copied._slots, built):
        assert not array.flags.writeable and np.array_equal(array, original)


@pytest.mark.parametrize("graph", [HUB_AND_PATH, heavy_hex_graph(3)], ids=["hub-and-path", "heavy-hex-3"])
def test_verify_separation_reads_the_same_before_and_after_slots_exist(graph):
    # plans at every distance from the first edge, packed plans, a pair that is
    # no edge and a qubit outside the graph; each checked on a graph whose slots
    # the check builds and on one whose slots were built before
    n, (a, b) = graph.num_qubits, graph.edges[0]
    unused = next((p, q) for p in range(n) for q in range(p + 1, n)
                  if (p, q) not in graph.edges and not {p, q} & {a, b})
    plans = ([((a, b), e) for e in graph.edges if not {a, b} & set(e)]
             + [packed_plan(graph, k).assignments for k in (1, 2, 3)]
             + [((a, b), unused), ((a, b), (n, n + 1))])
    graph._slots  # built before any check
    for separation in range(7):
        for pairs in plans:
            plan = MappingPlan(pairs, max(separation, 1))
            fresh = CouplingGraph(n, graph.edges)
            assert "_slots" not in vars(fresh)
            assert verify_separation(plan, fresh) == verify_separation(plan, graph), plan


@pytest.mark.parametrize("seed", range(3))
def test_select_pairs_allocates_no_qubit_tables(seed):
    # 575 qubits and 672 edges: the edge x edge matrix alone is 441 KiB, and a
    # qubit x qubit (323 KiB) or qubit x edge (377 KiB) table beside it breaks
    # the bound
    graph = heavy_hex_graph(14)
    calib = synth_calibration(graph, seed=seed)
    tracemalloc.start()
    try:
        select_pairs(graph, calib, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1250 * 1024, peak


# --- scoring -------------------------------------------------------------------

def test_score_zero_in_ideal_limit():
    g = path_graph(2)
    qubits = (QubitCalibration(0, 0.0, 1e12, 1e12), QubitCalibration(1, 0.0, 1e12, 1e12))
    cal = snapshot("t", qubits, (EdgeCalibration((0, 1), 0.0),))
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


def scalar_score(cal, pair):
    """The per-edge score formula, one edge at a time."""
    qa, qb = (qubit(cal, q) for q in sorted(pair))
    return (
        W_2Q * edge(cal, pair).two_qubit_error
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


@pytest.mark.parametrize("min_sep", [1, 2, 3])
def test_milp_oracle_matches_exhaustive_search(min_sep):
    # criterion 6's instances, at its separation and on either side of it
    found = 0
    for graph, k in SMALL_INSTANCES:
        for seed in range(4):
            cal = synth_calibration(graph, seed=seed, profile="realistic")
            expected = exhaustive_optimum(graph, cal, k, min_sep)
            got = milp_optimum(graph, cal, k, min_sep)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, rel=1e-12)
                found += 1
    assert found >= 20


# --- ranking ---------------------------------------------------------------------

def rounded_calibration(calib):
    """calib with every figure rounded to one significant digit: a few distinct
    scores, each shared by edges scattered over the edge order."""
    doc = calib.to_json()
    for entry in doc["qubits"]:
        for key in ("readout_error", "t1_us", "t2_us"):
            entry[key] = float(f"{entry[key]:.1g}")
    for entry in doc["edges"]:
        entry["two_qubit_error"] = float(f"{entry['two_qubit_error']:.1g}")
    return CalibrationSnapshot.from_json(doc)


@st.composite
def renumbered_devices(draw):
    """A heavy-hex graph of distance 2-6 with its qubits renumbered at random, and
    a realistic calibration, the same rounded (partial ties) or a uniform one,
    where every score ties."""
    base = heavy_hex_graph(draw(st.integers(2, 6)))
    label = draw(st.permutations(range(base.num_qubits)))
    graph = CouplingGraph(base.num_qubits, tuple((label[a], label[b]) for a, b in base.edges))
    profile = draw(st.sampled_from(["realistic", "rounded", "uniform"]))
    calib = synth_calibration(graph, seed=draw(st.integers(0, 10**6)),
                              profile="uniform" if profile == "uniform" else "realistic")
    return graph, rounded_calibration(calib) if profile == "rounded" else calib


@settings(max_examples=60, deadline=None)
@given(renumbered_devices())
def test_rank_equals_sorting_score_edge_tuples(case):
    graph, calib = case
    edges, ascending, lexicographic = _rank(graph, calib)
    ranked = sorted(zip(edge_scores(graph.edges, calib).tolist(), graph.edges))
    assert edges == [e for _, e in ranked]
    assert ascending.tolist() == [score for score, _ in ranked]
    assert lexicographic.tolist() == sorted(range(len(edges)), key=edges.__getitem__)


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


@functools.cache
def large_plan(seed, separation):
    """select_pairs' plan of 100 pairs on the 575 qubits of heavy_hex_graph(14),
    or of the most pairs the search places (83 at separation 4)."""
    graph = heavy_hex_graph(14)
    calib = synth_calibration(graph, seed=seed)
    try:
        return select_pairs(graph, calib, 100, separation)
    except InfeasibleMappingError as err:
        return select_pairs(graph, calib, err.achievable, separation)


def moved_next_to_another(plan, graph, rng):
    """plan with one pair moved onto a free edge one hop from another pair."""
    pairs = list(plan.assignments)
    moved, target = rng.choice(len(pairs), size=2, replace=False).tolist()
    used = {q for i, pair in enumerate(pairs) if i != moved for q in pair}
    adj = adjacency(graph)
    spots = sorted({tuple(sorted((u, v))) for t in pairs[target] for u in adj[t]
                    for v in adj[u] if u not in used and v not in used})
    pairs[moved] = spots[rng.integers(len(spots))]
    return MappingPlan(tuple(pairs), plan.min_separation)


@pytest.mark.parametrize("separation", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_separation_matches_pairwise_oracle_at_scale(seed, separation):
    graph, plan = heavy_hex_graph(14), large_plan(seed, separation)
    assert verify_separation(plan, graph) == (True, None)
    assert pairwise_verify_separation(plan, graph) == (True, None)
    moved = moved_next_to_another(plan, graph, np.random.default_rng([seed, separation]))
    verdict = verify_separation(moved, graph)
    assert verdict == pairwise_verify_separation(moved, graph)
    assert verdict[0] == (separation == 1)  # one hop apart is too close at separation 2 and up


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [2**70, -1])
def test_verify_separation_names_a_qubit_outside_the_graph(bad, position):
    # 2**70 is past int64: the range check must not convert it
    graph, plan = heavy_hex_graph(14), large_plan(0, 2)
    pairs = list(plan.assignments)
    free = min(set(range(graph.num_qubits)) - {q for pair in pairs for q in pair})
    pairs.insert({"first": 0, "middle": len(pairs) // 2, "last": len(pairs)}[position], (free, bad))
    bad_plan = MappingPlan(tuple(pairs), 2)
    verdict = verify_separation(bad_plan, graph)
    assert verdict == pairwise_verify_separation(bad_plan, graph)
    assert verdict == (False, f"qubit {bad} outside the graph")


@pytest.mark.parametrize("graph", [heavy_hex_graph(14), CouplingGraph(1, ())],
                         ids=["heavy-hex", "no-edges"])
def test_verify_separation_accepts_an_empty_plan(graph):
    for separation in (1, 2, 10**9):
        plan = MappingPlan((), separation)
        assert verify_separation(plan, graph) == (True, None)
        assert pairwise_verify_separation(plan, graph) == (True, None)


def test_verify_separation_walks_stop_with_their_frontier():
    # a separation of 10**9 ends every walk when its component is exhausted,
    # not after 10**9 hops; pairs in two components never clash
    two_paths = CouplingGraph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))
    apart = MappingPlan(((0, 1), (4, 5)), 10**9)
    assert verify_separation(apart, two_paths) == pairwise_verify_separation(apart, two_paths)
    assert verify_separation(apart, two_paths) == (True, None)
    graph = heavy_hex_graph(14)
    plan = MappingPlan(large_plan(0, 2).assignments, 10**9)
    verdict = verify_separation(plan, graph)
    assert verdict == pairwise_verify_separation(plan, graph)
    assert verdict[1].startswith("circuits 0 and 1: ")
    # on a 2-vCPU VM this took about 1.3 ms, and the per-circuit Python walks
    # it replaced (which stopped at circuit 0's violation) about 0.5 ms
    elapsed = min(timeit.repeat(lambda: verify_separation(plan, graph), number=1, repeat=5))
    assert elapsed < 0.05


@pytest.mark.parametrize("plan", [
    lambda graph, k: select_pairs(graph, synth_calibration(graph, seed=0), k),
    packed_plan,
], ids=["select_pairs", "packed_plan"])
def test_planners_refuse_zero_pairs(plan):
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        plan(heavy_hex_graph(2), 0)


def test_plan_rejects_qubit_reuse():
    with pytest.raises(ValueError):
        MappingPlan(((0, 1), (1, 2)))


@pytest.mark.parametrize(
    "assignments, separation, message",
    [
        (((0.5, 2),), 2, "assignments[0] must be two integer qubit ids, got (0.5, 2)"),
        (((1, 2), (True, 3)), 2,
         "assignments[1] must be two integer qubit ids, got (True, 3)"),
        (((np.int64(1), 2),), 2,
         "assignments[0] must be two integer qubit ids, got (np.int64(1), 2)"),
        (((1, 2), (3,)), 2, "assignments[1] must be two integer qubit ids, got (3,)"),
        (((1, 2), 5), 2, "assignments[1] must be two integer qubit ids, got 5"),
        (((1, 2),), 2.5, "min_separation must be an integer, got 2.5"),
        (((1, 2),), True, "min_separation must be an integer, got True"),
    ],
    ids=["id-float", "id-bool", "id-numpy", "pair-short", "pair-int", "separation-float",
         "separation-bool"],
)
def test_plan_takes_only_what_load_plan_reads(assignments, separation, message):
    # a plan that could be built but not loaded back would save an unreadable file
    with pytest.raises(ValueError) as exc:
        MappingPlan(assignments, separation)
    assert str(exc.value) == message


# --- serialization -------------------------------------------------------------------

def test_plan_round_trip(tmp_path):
    g = heavy_hex_graph(2)
    cal = synth_calibration(g, seed=6)
    plan = select_pairs(g, cal, k=3)
    path = tmp_path / "plan.json"
    plan.save(path)
    assert load_plan(path) == plan


@st.composite
def plans(draw):
    """Plans of 0-200 pairs of distinct qubit ids up to 2**70, past int64, which
    load_plan allows, and a separation of 1-5."""
    ids = draw(st.lists(st.integers(0, 2**70), unique=True, max_size=400))
    return MappingPlan(tuple(zip(ids[0::2], ids[1::2])), draw(st.integers(1, 5)))


@settings(max_examples=100, deadline=None)
@given(plans())
@example(MappingPlan(()))
def test_plan_file_is_the_indented_json_text(tmp_path_factory, plan):
    path = tmp_path_factory.getbasetemp() / "indented-plan.json"
    plan.save(path)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == json.dumps(plan.to_json(), indent=1) + "\n"
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


def test_a_tuple_pair_is_not_named_for_a_later_plan_fault():
    # the walk that names a failing document's fault takes what the bulk check takes
    doc = MappingPlan(((1, 2), (5, 6))).to_json()
    doc["assignments"][0]["pair"] = (1, 2)
    assert MappingPlan.from_json(doc) == MappingPlan(((1, 2), (5, 6)))
    doc["assignments"][1]["circuit"] = 2
    with pytest.raises(ValueError, match=r"^assignment circuit indices must be 0\.\.k-1$"):
        MappingPlan.from_json(doc)


def test_load_plan_names_a_non_utf8_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(MappingPlan(((1, 2),)).to_json()).encode())
    with pytest.raises(ValueError) as exc:
        load_plan(path)
    assert str(exc.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


def per_entry_plan(doc):
    """MappingPlan.from_json as one walk over the entries, each field checked in
    turn: the oracle of the column loader, message text included."""
    entries = []
    for i, e in enumerate(_field(doc, "assignments", "a list")):
        where = f"assignments[{i}]."
        entries.append((_field(e, "circuit", "an integer", where),
                        tuple(_field(e, "pair", "two integer qubit ids", where))))
    entries.sort()
    if [circuit for circuit, _ in entries] != list(range(len(entries))):
        raise ValueError("assignment circuit indices must be 0..k-1")
    return MappingPlan(tuple(pair for _, pair in entries),
                       _field(doc, "min_separation", "an integer"))


# what a mutation of a plan document may put in a field: JSON values of every type
json_values = st.one_of(st.none(), st.booleans(), st.integers(-3, 2**70), st.floats(-3, 3),
                        st.text(max_size=3), st.lists(st.integers(0, 9), max_size=3),
                        st.dictionaries(st.sampled_from(["circuit", "pair"]),
                                        st.integers(0, 9), max_size=2))


@st.composite
def plan_documents(draw):
    """A saved plan's document of 0-8 pairs with 0-4 mutations: entries that are
    no object, circuit and pair fields missing or of another type or length,
    duplicate, missing or shuffled circuit indices, a reused qubit, and an
    assignments or min_separation field that is missing or of another type."""
    size = 2 * draw(st.integers(0, 8))
    ids = draw(st.lists(st.integers(0, 2**70), unique=True, min_size=size, max_size=size))
    doc = MappingPlan(tuple(zip(ids[0::2], ids[1::2])), draw(st.integers(1, 5))).to_json()
    entries = doc["assignments"]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["entry", "circuit", "pair", "index", "shuffle", "reuse",
                                     "assignments", "separation", "drop"]))
        if kind in ("entry", "circuit", "pair", "index", "reuse") and not entries:
            continue
        i = draw(st.integers(0, len(entries) - 1)) if entries else 0
        if kind == "entry":
            entries[i] = draw(json_values)
        elif kind in ("circuit", "pair") and type(entries[i]) is dict:
            if draw(st.booleans()):
                entries[i].pop(kind, None)
            else:
                entries[i][kind] = draw(json_values)
        elif kind == "index" and type(entries[i]) is dict:
            entries[i]["circuit"] = draw(st.integers(0, len(entries) + 1))
        elif kind == "shuffle":
            entries[:] = draw(st.permutations(entries))
        elif kind == "reuse" and type(entries[i]) is dict and len(ids) > 2:
            entries[i]["pair"] = [ids[0], ids[-1]]
        elif kind == "assignments":
            doc["assignments"] = draw(json_values)
        elif kind == "separation":
            doc["min_separation"] = draw(st.one_of(st.integers(-1, 1), json_values))
        elif kind == "drop":
            doc.pop(draw(st.sampled_from(["assignments", "min_separation"])), None)
    return doc


def outcome(load):
    """repr of the plan that load() gives, or its exception's type and text."""
    try:
        return repr(load())
    except Exception as err:  # noqa: BLE001 - the type is part of the outcome
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(plan_documents())
@example({"min_separation": 2, "assignments": [{"circuit": 1, "pair": [1, 2]},
                                               {"circuit": 0, "pair": [4, 3]}]})
@example({"min_separation": 2.5, "assignments": [{"circuit": 1, "pair": [1, 2]},
                                                 {"circuit": 1, "pair": [5]}]})
@example({"min_separation": 0, "assignments": [{"circuit": 0, "pair": [1, 2]},
                                               {"circuit": 1, "pair": [2, 3]}]})
def test_load_plan_matches_the_per_entry_walk(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "mutated-plan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert outcome(lambda: load_plan(path)) == outcome(lambda: _load(path, per_entry_plan))


@pytest.mark.parametrize("fragment", [
    "shuffled", "must be a list", "circuit must be an integer",
    "pair must be two integer qubit ids", "indices must be 0..k-1",
    "min_separation must be an integer", "min_separation must be >= 1", "reuse a qubit",
])
def test_plan_documents_reach_every_outcome(fragment):
    # the property above sees loaded plans, entries out of order and every fault
    def reaches(doc):
        result = outcome(lambda: per_entry_plan(doc))
        if type(result) is str:  # a plan
            circuits = [e["circuit"] for e in doc["assignments"]]
            return fragment == "shuffled" and circuits != sorted(circuits)
        return fragment in result[1]

    find(plan_documents(), reaches, settings=settings(
        max_examples=2000, database=None, phases=[Phase.generate], derandomize=True))


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
    dist = [bfs_distances(graph, q) for q in range(graph.num_qubits)]
    conflict = np.array([[any(0 <= dist[p][q] < min_sep for p in e1 for q in e2)
                          for e2 in edges] for e1 in edges])
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


@st.composite
def reordered_calibrations(draw):
    """A heavy-hex graph of distance 1-3, a realistic or uniform calibration, the
    same calibration loaded from its document with the qubit and edge entries
    shuffled and each pair's endpoints swapped or not, and k from 1 to one past
    the achievable pair count."""
    graph = heavy_hex_graph(draw(st.integers(1, 3)))
    calib = synth_calibration(graph, seed=draw(st.integers(0, 10**6)),
                              profile=draw(st.sampled_from(["realistic", "uniform"])))
    doc = calib.to_json()
    doc["qubits"] = draw(st.permutations(doc["qubits"]))
    swaps = draw(st.lists(st.booleans(), min_size=len(graph.edges), max_size=len(graph.edges)))
    doc["edges"] = [dict(e, pair=e["pair"][::-1]) if swap else e
                    for e, swap in zip(draw(st.permutations(doc["edges"])), swaps)]
    try:
        select_pairs(graph, calib, graph.num_qubits // 2 + 1)
    except InfeasibleMappingError as err:
        achievable = err.achievable
    return graph, calib, CalibrationSnapshot.from_json(doc), draw(st.integers(1, achievable + 1))


def plan_or_error(graph, calib, k):
    try:
        return select_pairs(graph, calib, k).to_json()
    except InfeasibleMappingError as err:
        return str(err)


@settings(max_examples=40, deadline=None)
@given(reordered_calibrations(), st.data())
def test_figures_and_plans_ignore_entry_order_and_pair_orientation(case, data):
    graph, calib, reordered, k = case
    swaps = data.draw(st.lists(st.booleans(), min_size=len(graph.edges),
                               max_size=len(graph.edges)))
    either = [(b, a) if swap else (a, b) for (a, b), swap in zip(graph.edges, swaps)]
    expected = [x.tobytes() for x in calib.figures(graph.edges)]
    for snapshot in (calib, reordered):
        for edges in (graph.edges, either, [(b, a) for a, b in graph.edges]):
            assert [x.tobytes() for x in snapshot.figures(edges)] == expected
    assert plan_or_error(graph, reordered, k) == plan_or_error(graph, calib, k)
    # simulate_job scans the pairs in document order; a crowded plan has crosstalk
    plan = packed_plan(graph, 4)
    spec = GameSpec(gamma_grid=default_gamma_grid(4),
                    strategy_a=STRATEGY_H, strategy_b=STRATEGY_H)
    assert (simulate_job(plan, spec, reordered, NoiseModel(), 64, 2, seed=k)
            == simulate_job(plan, spec, calib, NoiseModel(), 64, 2, seed=k))
