"""Device model tests: lattice structure, file round-trips, calibration synthesis."""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbos.device import (
    _CHECKS,
    CalibrationSnapshot,
    CouplingGraph,
    READOUT_ERROR_RANGE,
    TWO_QUBIT_ERROR_RANGE,
    UNIFORM_READOUT_ERROR,
    UNIFORM_T1_US,
    UNIFORM_T2_US,
    UNIFORM_TWO_QUBIT_ERROR,
    heavy_hex_graph,
    load_calibration,
    load_coupling_map,
    synth_calibration,
)

from calib_oracles import EdgeCalibration, edge, qubit, records, snapshot
from graph_oracles import adjacency, bfs_distances


def is_connected(graph) -> bool:
    return all(d >= 0 for d in bfs_distances(graph, 0))


def max_degree(graph) -> int:
    return max(len(nbrs) for nbrs in adjacency(graph))


# --- graph validation ------------------------------------------------------------

def test_path_graph_from_edges():
    g = CouplingGraph(3, ((0, 1), (1, 2)))
    assert g.num_qubits == 3
    assert g.edges == ((0, 1), (1, 2))
    assert is_connected(g)


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        CouplingGraph(2, ((0, 0),))


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        CouplingGraph(3, ((0, 1), (1, 0)))


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError, match="out of range"):
        CouplingGraph(2, ((0, 5),))


FIGURES = [[0.1, 0.1], [1.0, 1.0], [1.0, 1.0]]


@pytest.mark.parametrize("build, message", [
    (lambda: CouplingGraph(3, ((0.5, 1), (1.9, 2))),
     "edges[0] must be two integer qubit ids, got (0.5, 1)"),
    (lambda: CouplingGraph(3, ((True, 2),)),
     "edges[0] must be two integer qubit ids, got (True, 2)"),
    (lambda: CouplingGraph(3, ((0, 1), (1, 2, 0))),
     "edges[1] must be two integer qubit ids, got (1, 2, 0)"),
    (lambda: CouplingGraph(3, ((0, 1), 2)), "edges[1] must be two integer qubit ids, got 2"),
    (lambda: CouplingGraph(2.0, ((0, 1),)), "num_qubits must be an integer, got 2.0"),
    (lambda: CouplingGraph(True, ()), "num_qubits must be an integer, got True"),
    (lambda: CouplingGraph(np.int64(2), ()), "num_qubits must be an integer, got np.int64(2)"),
    (lambda: CouplingGraph(2.5, ((0, 0.5),)),  # the loader's order: edges first
     "edges[0] must be two integer qubit ids, got (0, 0.5)"),
    (lambda: CalibrationSnapshot("t", (0.0, 1.0), FIGURES, (), []),
     "qubits[0].id must be an integer, got 0.0"),
    (lambda: CalibrationSnapshot("t", (0, 1), FIGURES, ((False, True),), [0.1]),
     "edges[0].pair must be two integer qubit ids, got (False, True)"),
    (lambda: CalibrationSnapshot("t", tuple(np.arange(2)), FIGURES, (), []),
     "qubits[0].id must be an integer, got np.int64(0)"),
    (lambda: CalibrationSnapshot("t", (0, 1), FIGURES, ((0, 1), (np.int64(1), 0)), [0.1, 0.1]),
     "edges[1].pair must be two integer qubit ids, got (np.int64(1), 0)"),
    (lambda: CalibrationSnapshot("t", (0, 1), FIGURES, ((0, 1, 1),), [0.1]),
     "edges[0].pair must be two integer qubit ids, got (0, 1, 1)"),
    (lambda: CalibrationSnapshot(None, (0, True), FIGURES, ((1, 1),), [2.0]),  # types first
     "qubits[1].id must be an integer, got True"),
], ids=["float-ids", "bool-id", "triple", "no-pair", "float-n", "bool-n", "numpy-n",
        "edges-before-n", "float-qubit-ids", "bool-pair", "numpy-qubit-ids", "numpy-pair",
        "triple-pair", "types-first"])
def test_device_values_take_only_what_their_loaders_read(build, message):
    # a value that could be built but not loaded back would save an unreadable file
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_bfs_distances():
    g = CouplingGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    assert bfs_distances(g, 0) == [0, 1, 2, 3, 4]
    assert bfs_distances(g, 2) == [2, 1, 0, 1, 2]


# --- heavy-hex generator ------------------------------------------------------------

def test_smallest_heavy_hex():
    g = heavy_hex_graph(1)
    assert g.num_qubits >= 2
    assert is_connected(g)
    assert max_degree(g) <= 3


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_heavy_hex_structure(d):
    g = heavy_hex_graph(d)
    assert is_connected(g)
    assert max_degree(g) <= 3
    assert len(set(g.edges)) == len(g.edges)


def test_heavy_hex_127_parameterization():
    g = heavy_hex_graph(6)
    assert g.num_qubits == 127
    assert len(g.edges) == 144
    assert max_degree(g) == 3
    assert is_connected(g)


def test_heavy_hex_invalid_distance():
    with pytest.raises(ValueError):
        heavy_hex_graph(0)


# --- coupling file I/O -----------------------------------------------------------------

def test_load_simple_coupling_map(tmp_path):
    path = tmp_path / "cmap.json"
    path.write_text(json.dumps({"num_qubits": 3, "edges": [[0, 1], [1, 2]]}))
    g = load_coupling_map(path)
    assert g.num_qubits == 3 and g.edges == ((0, 1), (1, 2))


def test_load_rejects_self_loop(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"num_qubits": 1, "edges": [[0, 0]]}))
    with pytest.raises(ValueError, match="self-loop"):
        load_coupling_map(path)


def test_load_reports_parse_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"num_qubits": 3,\n  "edges": [[0, 1]\n}')
    with pytest.raises(ValueError, match="line"):
        load_coupling_map(path)


def test_coupling_round_trip(tmp_path):
    g = heavy_hex_graph(6)
    path = tmp_path / "hh.json"
    g.save(path)
    g2 = load_coupling_map(path)
    assert g2.num_qubits == g.num_qubits
    assert g2.edges == g.edges


def first_of_each_edge(pairs) -> tuple:
    """pairs without self-loops, each undirected edge once, as first drawn."""
    return tuple({frozenset(p): p for p in pairs if p[0] != p[1]}.values())


def assert_saves_indented_json(value, path):
    value.save(path)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == json.dumps(value.to_json(), indent=1) + "\n"


@st.composite
def graphs(draw):
    """Graphs of 1-12 qubits, or of ids up to 2**70, with 0-40 edges."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(2, 2**70 + 1)))
    qubit = st.integers(0, n - 1)
    return CouplingGraph(n, first_of_each_edge(draw(st.lists(st.tuples(qubit, qubit),
                                                             max_size=40))))


@settings(max_examples=100, deadline=None)
@given(graphs())
@example(CouplingGraph(1, ()))
def test_coupling_file_is_the_indented_json_text(tmp_path_factory, graph):
    path = tmp_path_factory.getbasetemp() / "indented-graph.json"
    assert_saves_indented_json(graph, path)
    assert load_coupling_map(path) == graph


# --- calibration synthesis ------------------------------------------------------------

def test_uniform_profile_is_flat():
    g = heavy_hex_graph(2)
    cal = synth_calibration(g, seed=3, profile="uniform")
    assert set(cal.two_qubit_errors.tolist()) == {UNIFORM_TWO_QUBIT_ERROR}
    assert [set(row) for row in cal.qubit_figures.tolist()] == [
        {UNIFORM_READOUT_ERROR}, {UNIFORM_T1_US}, {UNIFORM_T2_US}]
    assert cal.ids == tuple(range(g.num_qubits)) and cal.pairs == g.edges


def test_synthesis_deterministic_per_seed():
    g = heavy_hex_graph(3)
    a = synth_calibration(g, seed=11, profile="realistic")
    b = synth_calibration(g, seed=11, profile="realistic")
    assert a == b
    c = synth_calibration(g, seed=12, profile="realistic")
    assert a != c


def test_realistic_ranges():
    g = heavy_hex_graph(6)
    cal = synth_calibration(g, seed=0, profile="realistic")
    qubits, edges = records(cal)
    lo2q, hi2q = TWO_QUBIT_ERROR_RANGE
    for e in edges:
        assert lo2q <= e.two_qubit_error <= hi2q
    lor, hir = READOUT_ERROR_RANGE
    for q in qubits:
        assert lor <= q.readout_error <= hir
        assert q.t1_us > 0 and q.t2_us > 0
        assert q.t2_us <= 2 * q.t1_us


def test_snapshot_covers_graph():
    g = heavy_hex_graph(2)
    cal = synth_calibration(g, seed=5)
    assert cal.covers(g)
    qubits, edges = records(cal)
    assert not snapshot(cal.timestamp, qubits, edges[1:]).covers(g)
    assert not snapshot(cal.timestamp, qubits[1:], edges).covers(g)



def test_covers_refuses_a_huge_declared_qubit_count_without_allocating():
    # a calibration of 127 qubits cannot cover 10**12; the answer takes no
    # table of the graph's qubit range
    cal = synth_calibration(heavy_hex_graph(6), seed=0)
    graph = CouplingGraph(10**12, ((0, 1),))
    tracemalloc.start()
    try:
        covered = cal.covers(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not covered and peak < 64 * 1024, peak

def test_figures_match_per_entry_lookups():
    g = CouplingGraph(3, ((0, 1), (1, 2)))
    cal = synth_calibration(g, seed=9, profile="realistic")
    forward = cal.figures(g.edges)
    reverse = cal.figures([(b, a) for a, b in g.edges])  # order-insensitive lookup
    assert [x.tolist() for x in reverse] == [x.tolist() for x in forward]
    two_qubit, readout, t1 = forward
    # endpoints in ascending qubit order
    assert two_qubit.tolist() == [edge(cal, e).two_qubit_error for e in g.edges]
    assert readout.tolist() == [[qubit(cal, a).readout_error, qubit(cal, b).readout_error]
                                for a, b in g.edges]
    assert t1.tolist() == [[qubit(cal, a).t1_us, qubit(cal, b).t1_us] for a, b in g.edges]
    assert [x.shape for x in cal.figures([])] == [(0,), (0, 2), (0, 2)]
    with pytest.raises(KeyError, match=r"^'no calibration for edge \(0, 2\)'$"):
        cal.figures([(0, 1), (2, 0)])
    qubits, edges = records(cal)
    partial = snapshot(cal.timestamp, qubits[:2], edges)
    with pytest.raises(KeyError, match=r"^'no calibration for qubit 2'$"):
        partial.figures([(2, 1)])


def test_calibration_round_trip(tmp_path):
    g = heavy_hex_graph(2)
    cal = synth_calibration(g, seed=21, profile="realistic")
    path = tmp_path / "cal.json"
    cal.save(path)
    cal2 = load_calibration(path)
    assert cal2 == cal


def test_calibration_validation():
    with pytest.raises(ValueError):
        CalibrationSnapshot.from_json(
            {"timestamp": "t", "qubits": [{"id": 0, "readout_error": 2.0,
                                           "t1_us": 1.0, "t2_us": 1.0}], "edges": []}
        )


@pytest.mark.parametrize("build, message", [
    (lambda: CalibrationSnapshot("t", (), np.empty((3, 0)), ((1, 1),), [0.01]),
     r"^edge \(1, 1\): pair is a self-loop$"),
    (lambda: CalibrationSnapshot("t", (-1,), [[0.02], [100.0], [90.0]], (), []),
     r"^qubit -1: id must be >= 0$"),
    (lambda: CalibrationSnapshot.from_json(
        {"timestamp": "t", "qubits": [], "edges": [{"pair": [3, 3], "two_qubit_error": 0.5}]}),
     r"^edge \(3, 3\): pair is a self-loop$"),
    (lambda: CalibrationSnapshot.from_json(
        {"timestamp": "t", "edges": [],
         "qubits": [{"id": -2, "readout_error": 0.1, "t1_us": 1.0, "t2_us": 1.0}]}),
     r"^qubit -2: id must be >= 0$"),
], ids=["edge", "qubit", "edge-entry", "qubit-entry"])
def test_calibration_entries_reject_self_loops_and_negative_ids(build, message):
    # the constructor checks what from_json checks, so both name the entry
    with pytest.raises(ValueError, match=message):
        build()


def test_calibration_lookup_misses_raise_key_error():
    g = CouplingGraph(3, ((0, 1), (1, 2)))
    cal = synth_calibration(g, seed=0)
    assert [x.tolist() for x in cal.figures([(2, 1)])] == [
        [edge(cal, (1, 2)).two_qubit_error],
        [[qubit(cal, 1).readout_error, qubit(cal, 2).readout_error]],
        [[qubit(cal, 1).t1_us, qubit(cal, 2).t1_us]]]
    with pytest.raises(KeyError, match=r"^'no calibration for edge \(0, 2\)'$"):
        cal.figures([(2, 0)])
    with pytest.raises(KeyError, match=r"^'no calibration for edge \(0, 2\)'$"):
        cal.figures([(0, 2)])
    qubits, edges = records(cal)
    with pytest.raises(KeyError, match=r"^'no calibration for qubit 7'$"):
        snapshot(cal.timestamp, qubits, edges + (EdgeCalibration((1, 7), 0.01),)).figures([(7, 1)])


def test_snapshot_columns_are_read_only_values():
    g = CouplingGraph(3, ((0, 1), (1, 2)))
    cal = synth_calibration(g, seed=2)
    assert cal.qubit_figures.shape == (3, 3) and cal.two_qubit_errors.shape == (2,)
    with pytest.raises(ValueError, match="read-only"):
        cal.qubit_figures[0, 0] = 0.5
    figures = cal.qubit_figures.copy()
    copy = CalibrationSnapshot(cal.timestamp, cal.ids, figures, ((1, 0), (2, 1)),
                               cal.two_qubit_errors)
    figures[0, 0] = 0.5  # the snapshot keeps its own copy
    assert copy == cal and copy.pairs == ((0, 1), (1, 2))
    assert copy != CalibrationSnapshot(cal.timestamp, cal.ids, figures, cal.pairs,
                                       cal.two_qubit_errors)
    assert cal != cal.to_json()


@pytest.mark.parametrize("columns, message", [
    (("t", (0, 1), [[0.1, 0.1], [1.0, 1.0]], (), []),
     r"^qubit_figures must have shape \(3, 2\), got \(2, 2\)$"),
    (("t", (0, 1), [[0.1, 0.1], [1.0, 1.0], [1.0, 1.0]], ((0, 1),), [0.1, 0.2]),
     r"^two_qubit_errors must have shape \(1,\), got \(2,\)$"),
    ((None, (0,), [[0.1], [1.0], [1.0]], (), []), r"^timestamp must be a string, got None$"),
    (("t", (0, 0), [[0.1, 0.1], [1.0, 1.0], [1.0, 1.0]], (), []),
     r"^duplicate qubit calibration entries$"),
    (("t", (), np.empty((3, 0)), ((0, 1), (1, 0)), [0.1, 0.1]),
     r"^duplicate edge calibration entries$"),
    # a value no device has is named before a bad timestamp or a duplicate
    ((5, (0, 0), [[0.1, 0.1], [1.0, 0.0], [1.0, 1.0]], (), []),
     r"^qubit 0: coherence times must be positive$"),
    (("t", (), np.empty((3, 0)), ((0, 1), (1, 2), (2, 3)), [0.5, 1.5, -1.0]),
     r"^edge \(1, 2\): two_qubit_error outside \[0,1\]$"),
], ids=["figures-shape", "errors-shape", "timestamp", "duplicate-id", "duplicate-pair",
        "value-first", "first-edge"])
def test_snapshot_constructor_checks_its_columns(columns, message):
    with pytest.raises(ValueError, match=message):
        CalibrationSnapshot(*columns)


def test_calibration_keeps_ids_past_int64(tmp_path):
    g = CouplingGraph(2, ((0, 1),))
    doc = synth_calibration(g, seed=1).to_json()
    doc["qubits"].append({"id": 2**70, "readout_error": 0.5, "t1_us": 1, "t2_us": 10**300})
    doc["edges"].append({"pair": [2**70, 0], "two_qubit_error": 0})
    cal = CalibrationSnapshot.from_json(doc)
    assert cal.ids[-1] == 2**70 and cal.pairs[-1] == (0, 2**70)
    assert cal.qubit_figures[:, -1].tolist() == [0.5, 1.0, 1e300]
    assert cal.covers(g)
    readout, t1 = doc["qubits"][0]["readout_error"], doc["qubits"][0]["t1_us"]
    assert ([x.tolist() for x in cal.figures([(2**70, 0)])]
            == [[0.0], [[readout, 0.5]], [[t1, 1.0]]])
    path = tmp_path / "cal.json"
    cal.save(path)
    assert load_calibration(path) == cal


QUBIT_ID = st.integers(0, 2**70)
PROBABILITY = st.floats(0.0, 1.0)
DURATION = st.floats(0.0, exclude_min=True)  # inf included
# quotes, backslashes, control characters, ", " and non-ASCII letters among any others
TIMESTAMP = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t, éßΩ漢'), st.characters()))


@st.composite
def snapshots(draw):
    """Snapshots of 0-30 qubits and 0-30 edges with ids up to 2**70, T1s and T2s
    up to inf, and any timestamp text."""
    ids = draw(st.lists(QUBIT_ID, unique=True, max_size=30))
    figures = [draw(st.lists(f, min_size=len(ids), max_size=len(ids)))
               for f in (PROBABILITY, DURATION, DURATION)]
    pairs = first_of_each_edge(draw(st.lists(st.tuples(QUBIT_ID, QUBIT_ID), max_size=30)))
    errors = draw(st.lists(PROBABILITY, min_size=len(pairs), max_size=len(pairs)))
    return CalibrationSnapshot(draw(TIMESTAMP), tuple(ids), figures, pairs, errors)


@settings(max_examples=100, deadline=None)
@given(snapshots())
@example(CalibrationSnapshot("", (), np.empty((3, 0)), (), []))
@example(CalibrationSnapshot('a, "b"\\c\x01ü', (0, 2**70),
                             [[0.5, 0.0], [math.inf, 1.0], [1e-300, math.inf]],
                             ((2**70, 0),), [5e-324]))
def test_calibration_file_is_the_indented_json_text(tmp_path_factory, calib):
    path = tmp_path_factory.getbasetemp() / "indented-calibration.json"
    assert_saves_indented_json(calib, path)
    assert load_calibration(path) == calib


# --- one table of field checks -------------------------------------------------------

@pytest.mark.parametrize("error, message", [
    (1.5, r"^edge \(2, 3\): two_qubit_error outside \[0,1\]$"),
    ("x", r"^edges\[3\]\.two_qubit_error must be a number, got 'x'$"),
], ids=["value", "type"])
def test_a_tuple_pair_is_not_named_for_a_later_fault(error, message):
    # the walk that names a failing document's fault takes what the bulk check takes
    graph = CouplingGraph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    doc = synth_calibration(graph, seed=0, profile="uniform").to_json()
    doc["edges"][0]["pair"] = (0, 1)
    assert CalibrationSnapshot.from_json(doc).pairs == graph.edges
    doc["edges"][3]["two_qubit_error"] = error
    with pytest.raises(ValueError, match=message):
        CalibrationSnapshot.from_json(doc)


def old_is_number(value) -> bool:
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


# what each field once held, checked one value at a time: the oracle of _CHECKS
# on a column of one, which also takes a tuple for "two integer qubit ids"
OLD_FIELD_CHECKS = {
    "an integer": lambda v: type(v) is int,
    "a number": old_is_number,
    "true or false": lambda v: type(v) is bool,
    "a string": lambda v: type(v) is str,
    "a list of strings": lambda v: type(v) in (list, tuple) and all(type(s) is str for s in v),
    "a list": lambda v: type(v) is list,
    "two integer qubit ids": lambda v: (type(v) is list and len(v) == 2
                                        and type(v[0]) is int and type(v[1]) is int),
}
HUGE = int(sys.float_info.max)
FIELD_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),  # nan and infinities included
    st.integers(HUGE - 2, 2**1030).map(lambda n: n * (-1) ** (n % 2)),  # past float range
    st.text(max_size=3),
    st.sampled_from([np.float64(0.5), np.float32(1.0), np.int64(1), np.uint8(2), np.bool_(True),
                     np.str_("a"), np.float64("nan")]))
FIELD_VALUES = st.recursive(
    FIELD_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=6)


@settings(max_examples=400, deadline=None)
@given(expected=st.sampled_from(sorted(OLD_FIELD_CHECKS)), value=FIELD_VALUES)
@example(expected="a number", value=HUGE)
@example(expected="a number", value=-HUGE - 1)
@example(expected="two integer qubit ids", value=(0, 2**70))
@example(expected="a list of strings", value=("a", "b"))
def test_a_field_is_checked_as_a_column_of_one(expected, value):
    assert _CHECKS.keys() == OLD_FIELD_CHECKS.keys()
    tuple_pair = expected == "two integer qubit ids" and type(value) is tuple
    assert _CHECKS[expected]((value,)) == OLD_FIELD_CHECKS[expected](
        list(value) if tuple_pair else value)
