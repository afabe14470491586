"""Target-processor model: coupling graph, calibration data, file I/O.

The coupling-map file is JSON ``{"num_qubits": N, "edges": [[a, b], ...]}``.
The calibration file is JSON::

    {
      "timestamp": "...",
      "qubits": [{"id": 0, "readout_error": ..., "t1_us": ..., "t2_us": ...}, ...],
      "edges":  [{"pair": [a, b], "two_qubit_error": ...}, ...]
    }

CalibrationSnapshot.figures gives the per-edge arrays that gcm and noise read.
Graphs and snapshots are plain values; crosstalk needs only their edge lists.
"""

from __future__ import annotations

import datetime
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

# realistic synthesis ranges; two-qubit errors start at the best figure
# reported for current heavy-hex processors (~2.5e-3)
TWO_QUBIT_ERROR_RANGE = (2.5e-3, 3.0e-2)
READOUT_ERROR_RANGE = (5.0e-3, 5.0e-2)
T1_RANGE_US = (150.0, 450.0)

UNIFORM_TWO_QUBIT_ERROR = 1.0e-2
UNIFORM_READOUT_ERROR = 2.0e-2
UNIFORM_T1_US = 286.0
UNIFORM_T2_US = 226.0


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected connectivity graph over qubit indices."""

    num_qubits: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.num_qubits
        if n < 1:
            raise ValueError("graph needs at least one qubit")
        pairs = [(int(e[0]), int(e[1])) for e in self.edges]
        # the first self-loop or out-of-range edge, named as given
        bad = next(((a, b) for a, b in pairs if a == b or not (0 <= a < n and 0 <= b < n)), None)
        if bad is not None:
            a, b = bad
            raise ValueError(f"self-loop on qubit {a}" if a == b else f"edge ({a},{b}) out of range")
        canon = [(a, b) if a < b else (b, a) for a, b in pairs]
        if len(set(canon)) != len(canon):
            dup = sorted({e for e in canon if canon.count(e) > 1})
            raise ValueError(f"duplicate edges {dup}")
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    def adjacency(self) -> list[list[int]]:
        adj = [[] for _ in range(self.num_qubits)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def to_json(self) -> dict:
        return {"num_qubits": self.num_qubits, "edges": [list(e) for e in self.edges]}

    def save(self, path) -> None:
        _save(path, self.to_json())

    @classmethod
    def from_json(cls, doc) -> "CouplingGraph":
        """Parse a coupling-map document; a ValueError names the first bad field."""
        edges = _field(doc, "edges", "a list")
        is_pair = _FIELD_CHECKS["two integer qubit ids"]
        if not all(map(is_pair, edges)):
            i, e = next((i, e) for i, e in enumerate(edges) if not is_pair(e))
            raise ValueError(f"edges[{i}] must be two integer qubit ids, got {e!r}")
        return cls(_field(doc, "num_qubits", "an integer"), tuple(map(tuple, edges)))


def heavy_hex_graph(distance: int) -> CouplingGraph:
    """Generate a heavy-hex lattice with `distance` rows of hexagon cells.

    Rows of qubits (length 2*distance + 3) are joined by bridge qubits every
    four columns, alternating offset per row, which caps the degree at 3.
    For even distances the two corner qubits not adjacent to any bridge are
    trimmed; distance 6 then reproduces the 127-qubit processor layout.
    """
    if distance < 1:
        raise ValueError("distance must be >= 1")
    d = distance
    cols = 2 * d + 3
    trim = d % 2 == 0
    node_of: dict[tuple, int] = {}
    counter = 0

    def row_columns(r: int) -> range | list[int]:
        if trim and r == 0:
            return range(cols - 1)
        if trim and r == d:
            return range(1, cols)
        return range(cols)

    for r in range(d + 1):
        for c in row_columns(r):
            node_of[("q", r, c)] = counter
            counter += 1
        if r < d:
            offset = 0 if r % 2 == 0 else 2
            for c in range(offset, cols, 4):
                node_of[("b", r, c)] = counter
                counter += 1

    edges = []
    for r in range(d + 1):
        cs = list(row_columns(r))
        for c0, c1 in zip(cs, cs[1:]):
            edges.append((node_of[("q", r, c0)], node_of[("q", r, c1)]))
    for (kind, r, c), idx in node_of.items():
        if kind == "b":
            edges.append((node_of[("q", r, c)], idx))
            edges.append((idx, node_of[("q", r + 1, c)]))
    return CouplingGraph(counter, tuple(edges))


def _is_number(value) -> bool:
    """An int or float that converts to a float without overflow; not a bool."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


# what a device-file or config field must hold -> its check
_FIELD_CHECKS = {
    "an integer": lambda v: type(v) is int,  # a bool is an int subclass, not an int
    "a number": _is_number,
    "true or false": lambda v: type(v) is bool,
    "a string": lambda v: type(v) is str,
    "a list of strings": lambda v: (type(v) in (list, tuple)
                                    and all(type(s) is str for s in v)),
    "a list": lambda v: type(v) is list,
    "two integer qubit ids": lambda v: (type(v) is list and len(v) == 2
                                        and type(v[0]) is int and type(v[1]) is int),
}


def _field(entry, key, expected: str, where: str = ""):
    """entry[key] if it holds what `expected` names; else a ValueError naming
    the field, as in ``edges[2].pair``.  A missing field, or one of an entry
    that is no JSON object, reads as None."""
    value = entry.get(key) if isinstance(entry, dict) else None
    if not _FIELD_CHECKS[expected](value):
        raise ValueError(f"{where}{key} must be {expected}, got {value!r}")
    return value


# a calibration entry's fields, in the order _check_entry checks them
_QUBIT_FIELDS = (("id", "an integer"), ("readout_error", "a number"),
                 ("t1_us", "a number"), ("t2_us", "a number"))
_EDGE_FIELDS = (("pair", "two integer qubit ids"), ("two_qubit_error", "a number"))


def _check_entry(entry, fields, where: str) -> None:
    """_field for each (key, expected) of fields in turn: the first bad one raises."""
    for key, expected in fields:
        _field(entry, key, expected, where)


def _load(path, parse):
    """parse(the JSON document in path), with the path in every ValueError.
    A leading UTF-8 byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: line {err.lineno}: {err.msg}") from err
        except (UnicodeDecodeError, RecursionError) as err:  # RecursionError: nested too deeply
            raise ValueError(f"{path}: {err}") from err
    try:
        return parse(doc)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def _save(path, doc) -> None:
    """Write doc as indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_coupling_map(path) -> CouplingGraph:
    """Load and validate a coupling-map JSON file."""
    return _load(path, CouplingGraph.from_json)


@dataclass(frozen=True)
class QubitCalibration:
    id: int
    readout_error: float
    t1_us: float
    t2_us: float

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"qubit {self.id}: id must be >= 0")
        if not 0.0 <= self.readout_error <= 1.0:
            raise ValueError(f"qubit {self.id}: readout_error outside [0,1]")
        if not (self.t1_us > 0 and self.t2_us > 0):  # NaN fails too
            raise ValueError(f"qubit {self.id}: coherence times must be positive")


@dataclass(frozen=True)
class EdgeCalibration:
    pair: tuple[int, int]
    two_qubit_error: float

    def __post_init__(self):
        a, b = self.pair
        object.__setattr__(self, "pair", (a, b) if a < b else (b, a))
        if a == b:
            raise ValueError(f"edge {self.pair}: pair is a self-loop")
        if not 0.0 <= self.two_qubit_error <= 1.0:
            raise ValueError(f"edge {self.pair}: two_qubit_error outside [0,1]")


@dataclass(frozen=True)
class CalibrationSnapshot:
    timestamp: str
    qubits: tuple[QubitCalibration, ...]
    edges: tuple[EdgeCalibration, ...]

    def __post_init__(self):
        # lookup tables; plain attributes, so equality, repr and JSON ignore them
        by_id = {q.id: q for q in self.qubits}
        if len(by_id) != len(self.qubits):
            raise ValueError("duplicate qubit calibration entries")
        by_pair = {e.pair: e for e in self.edges}
        if len(by_pair) != len(self.edges):
            raise ValueError("duplicate edge calibration entries")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_by_pair", by_pair)

    def qubit(self, index: int) -> QubitCalibration:
        try:
            return self._by_id[index]
        except KeyError:
            raise KeyError(f"no calibration for qubit {index}") from None

    def edge(self, pair) -> EdgeCalibration:
        key = (min(pair), max(pair))
        try:
            return self._by_pair[key]
        except KeyError:
            raise KeyError(f"no calibration for edge {key}") from None

    def figures(self, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-edge arrays: two-qubit errors (E,), and the endpoints' readout errors and
        T1s (us), (E, 2) in ascending qubit order.  A missing edge or qubit raises the
        KeyError of edge() or qubit(), edges first."""
        try:
            entries = [self._by_pair[(a, b) if a < b else (b, a)] for a, b in edges]
        except KeyError as miss:
            raise KeyError(f"no calibration for edge {miss.args[0]}") from None
        two_qubit = np.array([entry.two_qubit_error for entry in entries], dtype=float)
        try:  # pair is (low, high)
            ends = [self._by_id[q] for entry in entries for q in entry.pair]
        except KeyError as miss:
            raise KeyError(f"no calibration for qubit {miss.args[0]}") from None
        readout = np.array([q.readout_error for q in ends], dtype=float).reshape(-1, 2)
        t1 = np.array([q.t1_us for q in ends], dtype=float).reshape(-1, 2)
        return two_qubit, readout, t1

    def covers(self, graph: CouplingGraph) -> bool:
        """Whether every qubit and edge of graph has calibration figures."""
        return (self._by_id.keys() >= set(range(graph.num_qubits))
                and self._by_pair.keys() >= set(graph.edges))

    def to_json(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "qubits": [
                {"id": q.id, "readout_error": q.readout_error,
                 "t1_us": q.t1_us, "t2_us": q.t2_us}
                for q in self.qubits
            ],
            "edges": [
                {"pair": list(e.pair), "two_qubit_error": e.two_qubit_error}
                for e in self.edges
            ],
        }

    def save(self, path) -> None:
        _save(path, self.to_json())

    @classmethod
    def from_json(cls, doc) -> "CalibrationSnapshot":
        """Parse a calibration document; a ValueError names the first bad field.

        Entries are checked and built in document order, qubits first.  One
        expression tests all of an entry's fields; an entry that fails it goes
        through _field, field by field, which names the first bad one."""
        is_int, is_number, is_pair = (
            _FIELD_CHECKS[what] for what in ("an integer", "a number", "two integer qubit ids"))
        qubits, edges = [], []
        for i, q in enumerate(_field(doc, "qubits", "a list")):
            if not (type(q) is dict and is_int(q.get("id")) and is_number(q.get("readout_error"))
                    and is_number(q.get("t1_us")) and is_number(q.get("t2_us"))):
                _check_entry(q, _QUBIT_FIELDS, f"qubits[{i}].")
            qubits.append(QubitCalibration(q["id"], float(q["readout_error"]),
                                           float(q["t1_us"]), float(q["t2_us"])))
        for i, e in enumerate(_field(doc, "edges", "a list")):
            if not (type(e) is dict and is_pair(e.get("pair"))
                    and is_number(e.get("two_qubit_error"))):
                _check_entry(e, _EDGE_FIELDS, f"edges[{i}].")
            edges.append(EdgeCalibration(tuple(e["pair"]), float(e["two_qubit_error"])))
        return cls(_field(doc, "timestamp", "a string"), tuple(qubits), tuple(edges))


def load_calibration(path) -> CalibrationSnapshot:
    """Load and validate a calibration JSON file."""
    return _load(path, CalibrationSnapshot.from_json)


def synth_calibration(graph: CouplingGraph, seed: int, profile: str = "realistic") -> CalibrationSnapshot:
    """Synthesize a deterministic calibration snapshot for a coupling graph.

    'uniform' gives every qubit and edge the same figures; 'realistic' draws
    log-uniform error rates (positively skewed, like live backends) from the
    module-level ranges.
    """
    if profile not in ("uniform", "realistic"):
        raise ValueError(f"unknown profile {profile!r}")
    stamp = (
        datetime.datetime(2025, 6, 1, tzinfo=datetime.timezone.utc)
        + datetime.timedelta(hours=seed % 8760)
    ).isoformat()

    if profile == "uniform":
        qubits = tuple(
            QubitCalibration(i, UNIFORM_READOUT_ERROR, UNIFORM_T1_US, UNIFORM_T2_US)
            for i in range(graph.num_qubits)
        )
        edges = tuple(EdgeCalibration(e, UNIFORM_TWO_QUBIT_ERROR) for e in graph.edges)
        return CalibrationSnapshot(stamp, qubits, edges)

    rng = np.random.default_rng(np.random.SeedSequence((seed, graph.num_qubits)))
    # one row per qubit: log readout error, T1 and the T2/T1 factor, drawn in
    # the order of one scalar draw each; math.exp keeps the bits np.exp may move
    low, high = zip(map(math.log, READOUT_ERROR_RANGE), T1_RANGE_US, (0.5, 1.2))
    qubits = tuple(
        QubitCalibration(i, math.exp(log_readout), t1, t1 * factor)  # t2 <= 2*t1
        for i, (log_readout, t1, factor)
        in enumerate(rng.uniform(low, high, size=(graph.num_qubits, 3)).tolist())
    )
    log_errors = rng.uniform(*map(math.log, TWO_QUBIT_ERROR_RANGE), size=len(graph.edges))
    edges = tuple(map(EdgeCalibration, graph.edges, map(math.exp, log_errors.tolist())))
    return CalibrationSnapshot(stamp, qubits, edges)
