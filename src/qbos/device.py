"""Target-processor model: coupling graph, calibration data, file I/O.

The coupling-map file is JSON ``{"num_qubits": N, "edges": [[a, b], ...]}``.
The calibration file is JSON::

    {
      "timestamp": "...",
      "qubits": [{"id": 0, "readout_error": ..., "t1_us": ..., "t2_us": ...}, ...],
      "edges":  [{"pair": [a, b], "two_qubit_error": ...}, ...]
    }

A CalibrationSnapshot holds that file as columns, not one object per entry:
the qubit ids as a tuple and their readout errors, T1s and T2s in one float
array; the sorted pairs as a tuple and their two-qubit errors in another.
Qubit ids are JSON integers of any size, so they stay Python ints.  One table,
_CHECKS, holds what each field must be as a test of a whole column; a single
field, of a file or of the sweep config, is tested as a column of one.  The
loader tests each column at once and walks the entries one by one only to name
the first bad field of a file that fails, with the same tests.
CalibrationSnapshot.figures gives the per-edge arrays that gcm and noise read.
Graphs and snapshots are plain values; crosstalk reads the snapshot's pairs.
Each takes only what its loader reads: int qubit counts and ids.  Graphs,
snapshots and plans (gcm) save the text of ``json.dumps(doc, indent=1)``,
formatted directly for their fixed shapes without json's pure-Python indent
encoder: numbers take json's own texts.
"""

from __future__ import annotations

import datetime
import functools
import json
import math
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .game import is_number

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
        # load_coupling_map's types, in its order, so that every graph saves and loads
        pairs = tuple(self.edges)
        _check_column(pairs, "two integer qubit ids", "edges[{}]")
        n = _field(vars(self), "num_qubits", "an integer")
        if n < 1:
            raise ValueError("graph needs at least one qubit")
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

    @functools.cached_property
    def _slots(self) -> tuple[np.ndarray, ...]:
        """The endpoints grouped by qubit, read-only, built on first use: slot t is
        edge t >> 1 at qubit ends[t]; qubit q's slots are order[first[q]:first[q] +
        degree[q]], whose other ends are heads[first[q]:first[q] + degree[q]].  arcs,
        each arc's tail * n + head and then n * n, ascend as the edges are sorted."""
        n = self.num_qubits
        ends = np.fromiter(chain.from_iterable(self.edges), dtype=np.intp, count=2 * len(self.edges))
        order, degree = ends.argsort(kind="stable"), np.bincount(ends, minlength=n)
        heads = ends[order ^ 1]
        slots = (ends, order, degree.cumsum() - degree, degree, heads,
                 np.append(ends[order] * n + heads, n * n))
        for array in slots:
            array.flags.writeable = False
        return slots

    def __getstate__(self):  # copies and pickles leave the slots out, to be built again
        return {key: value for key, value in vars(self).items() if key != "_slots"}

    def to_json(self) -> dict:
        return {"num_qubits": self.num_qubits, "edges": [list(e) for e in self.edges]}

    def save(self, path) -> None:
        """Write ``json.dumps(self.to_json(), indent=1)`` and a newline, formatted directly."""
        edges = _listed('["%s", "%s"]', self.edges, 1)
        _write(path, '{"num_qubits": "%s", "edges": "%s"}', (self.num_qubits, edges))

    @classmethod
    def from_json(cls, doc) -> "CouplingGraph":
        """Parse a coupling-map document; a ValueError names the first bad field."""
        edges = _field(doc, "edges", "a list")
        return cls(doc.get("num_qubits"), edges)


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


def _types(column) -> set:
    return set(map(type, column))


# what a device-file or config field must hold -> its check of a whole column of
# such values, mostly from the column's set of value types; a bool is an int
# subclass, not an int
_CHECKS = {
    "an integer": lambda c: _types(c) <= {int},
    "a number": lambda c: (_types(c) <= {float}
                           or (_types(c) <= {float, int} and all(map(is_number, c)))),
    "true or false": lambda c: _types(c) <= {bool},
    "a string": lambda c: _types(c) <= {str},
    "a list": lambda c: _types(c) <= {list},
    "a list of strings": lambda c: (_types(c) <= {list, tuple}
                                    and _types(chain.from_iterable(c)) <= {str}),
    "two integer qubit ids": lambda c: (_types(c) <= {list, tuple} and set(map(len, c)) <= {2}
                                        and _types(chain.from_iterable(c)) <= {int}),
}


def _check_column(column, expected: str, where: str) -> None:
    """_CHECKS[expected] on a column; if it fails, the loader's ValueError for
    its first bad value, named where.format(index)."""
    check = _CHECKS[expected]
    if not check(column):
        i, value = next((i, v) for i, v in enumerate(column) if not check((v,)))
        raise ValueError(f"{where.format(i)} must be {expected}, got {value!r}")


def _field(entry, key, expected: str, where: str = ""):
    """entry[key] if it holds what `expected` names; else a ValueError naming
    the field, as in ``edges[2].pair``.  A missing field, or one of an entry
    that is no JSON object, reads as None."""
    value = entry.get(key) if isinstance(entry, dict) else None
    _check_column((value,), expected, where + key)
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


def _texts(column) -> list[str]:
    """json's own text of each number of a list, from one call of its C encoder:
    inf reads Infinity and a float subclass as its float.  Empty gives none."""
    return json.dumps(column)[1:-1].split(", ") if column else []


@functools.cache
def _template(shape: str, depth: int = 0) -> str:
    """json.dumps(json.loads(shape), indent=1) for a value at depth, as a
    %-template: each "%s" string of the JSON text shape is a slot for a text."""
    pad = " " * depth
    text = json.dumps(json.loads(shape), indent=1)
    return pad + text.replace('"%s"', "%s").replace("\n", "\n" + pad)


def _listed(shape: str, rows, depth: int) -> str:
    """A JSON list at depth of _template(shape) filled from each row, as
    json.dumps(indent=1) writes it: [] when empty."""
    template = _template(shape, depth + 1)
    items = [template % row for row in rows]
    return "[\n" + ",\n".join(items) + "\n" + " " * depth + "]" if items else "[]"


def _write(path, shape: str, values) -> None:
    """Write _template(shape) % values and a newline, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_template(shape) % values + "\n")


def load_coupling_map(path) -> CouplingGraph:
    """Load and validate a coupling-map JSON file."""
    return _load(path, CouplingGraph.from_json)


def _check_qubit(qid, readout_error, t1_us, t2_us) -> None:
    """A ValueError for a qubit's first figure that no device has."""
    if qid < 0:
        raise ValueError(f"qubit {qid}: id must be >= 0")
    if not 0.0 <= readout_error <= 1.0:
        raise ValueError(f"qubit {qid}: readout_error outside [0,1]")
    if not (t1_us > 0 and t2_us > 0):  # NaN fails too
        raise ValueError(f"qubit {qid}: coherence times must be positive")


def _check_edge(pair, two_qubit_error) -> None:
    """A ValueError for an edge's (low, high) pair or error that no device has."""
    if pair[0] == pair[1]:
        raise ValueError(f"edge {pair}: pair is a self-loop")
    if not 0.0 <= two_qubit_error <= 1.0:
        raise ValueError(f"edge {pair}: two_qubit_error outside [0,1]")


def _gathered(entries, keys) -> tuple | None:
    """The field keys[i] of every entry as column i, if entries is a list of
    JSON objects that all hold the (two or more) keys; else None."""
    if type(entries) is not list or not _types(entries) <= {dict}:
        return None
    try:
        return tuple(zip(*map(operator.itemgetter(*keys), entries))) or ((),) * len(keys)
    except KeyError:
        return None


def _columns(entries, keys):
    """(ids, *numbers): _gathered(entries, keys) if it holds numbers in every
    field after the first; else None.  The first field holds ids, which only
    CalibrationSnapshot tests, so that a load tests them once."""
    columns = _gathered(entries, keys)
    return columns if columns and all(map(_CHECKS["a number"], columns[1:])) else None


def _raise_first_fault(doc) -> None:
    """Raise the ValueError of a calibration document's first bad entry, walking
    the entries in document order, qubits first: its first field without its
    JSON type, else its first figure that no device has."""
    for i, q in enumerate(doc["qubits"]):
        _check_entry(q, _QUBIT_FIELDS, f"qubits[{i}].")
        _check_qubit(*(q[key] for key, _ in _QUBIT_FIELDS))
    for i, e in enumerate(_field(doc, "edges", "a list")):
        _check_entry(e, _EDGE_FIELDS, f"edges[{i}].")
        a, b = e["pair"]
        _check_edge((a, b) if a < b else (b, a), e["two_qubit_error"])


def _frozen(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    """values as a read-only float array of the given shape."""
    array = np.array(values, dtype=float)
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class CalibrationSnapshot:
    """One calibration as columns.

    The qubit in ids[i] has the readout error, T1 and T2 (us) of column i of
    qubit_figures; the edge pairs[j], stored (low, high), has the two-qubit
    error two_qubit_errors[j].  Construction checks every column in bulk.  A
    failing check names the first entry that no device has, qubits before
    edges; a timestamp that is no string comes next, then duplicate ids and
    pairs.
    """

    timestamp: str
    ids: tuple[int, ...]
    qubit_figures: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    two_qubit_errors: np.ndarray

    def __post_init__(self):
        ids, pairs = tuple(self.ids), tuple(self.pairs)
        _check_column(ids, "an integer", "qubits[{}].id")
        _check_column(pairs, "two integer qubit ids", "edges[{}].pair")
        figures = _frozen(self.qubit_figures, (3, len(ids)), "qubit_figures")
        pairs = tuple([(a, b) if a < b else (b, a) for a, b in pairs])
        errors = _frozen(self.two_qubit_errors, (len(pairs),), "two_qubit_errors")
        readout, t1, t2 = figures
        if min(ids, default=0) < 0 or not ((0.0 <= readout) & (readout <= 1.0)
                                           & (t1 > 0) & (t2 > 0)).all():
            for qubit in zip(ids, *figures.tolist()):
                _check_qubit(*qubit)
        if (any([a == b for a, b in pairs])
                or not ((0.0 <= errors) & (errors <= 1.0)).all()):
            for edge in zip(pairs, errors.tolist()):
                _check_edge(*edge)
        _field(vars(self), "timestamp", "a string")  # the loader's message for the field
        # row lookups; plain attributes, so equality, repr and JSON ignore them
        qubit_rows = dict(zip(ids, range(len(ids))))
        if len(qubit_rows) != len(ids):
            raise ValueError("duplicate qubit calibration entries")
        edge_rows = dict(zip(pairs, range(len(pairs))))
        if len(edge_rows) != len(pairs):
            raise ValueError("duplicate edge calibration entries")
        for name, value in (("ids", ids), ("qubit_figures", figures), ("pairs", pairs),
                            ("two_qubit_errors", errors), ("_qubit_rows", qubit_rows),
                            ("_edge_rows", edge_rows)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, CalibrationSnapshot):
            return NotImplemented
        return (self.timestamp == other.timestamp and self.ids == other.ids
                and self.pairs == other.pairs
                and np.array_equal(self.qubit_figures, other.qubit_figures)
                and np.array_equal(self.two_qubit_errors, other.two_qubit_errors))

    def figures(self, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-edge arrays: two-qubit errors (E,), and the endpoints' readout errors and
        T1s (us), (E, 2) in ascending qubit order.  A missing edge or qubit raises a
        KeyError that names it, edges first."""
        try:
            rows = [self._edge_rows[(a, b) if a < b else (b, a)] for a, b in edges]
        except KeyError as miss:
            raise KeyError(f"no calibration for edge {miss.args[0]}") from None
        pairs, qubit_rows = self.pairs, self._qubit_rows
        try:
            ends = [qubit_rows[q] for r in rows for q in pairs[r]]
        except KeyError as miss:
            raise KeyError(f"no calibration for qubit {miss.args[0]}") from None
        readout, t1 = self.qubit_figures[:2, ends].reshape(2, -1, 2)
        return self.two_qubit_errors[rows], readout, t1

    def covers(self, graph: CouplingGraph) -> bool:
        """Whether every qubit and edge of graph has calibration figures.  Fewer
        calibrated qubits than the graph declares fail before its range is built."""
        return (len(self._qubit_rows) >= graph.num_qubits
                and self._qubit_rows.keys() >= set(range(graph.num_qubits))
                and self._edge_rows.keys() >= set(graph.edges))

    def to_json(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "qubits": [
                {"id": q, "readout_error": readout, "t1_us": t1, "t2_us": t2}
                for q, readout, t1, t2 in zip(self.ids, *self.qubit_figures.tolist())
            ],
            "edges": [
                {"pair": list(pair), "two_qubit_error": error}
                for pair, error in zip(self.pairs, self.two_qubit_errors.tolist())
            ],
        }

    def save(self, path) -> None:
        """Write ``json.dumps(self.to_json(), indent=1)`` and a newline, formatted directly."""
        qubits = _listed('{"id": "%s", "readout_error": "%s", "t1_us": "%s", "t2_us": "%s"}',
                         zip(self.ids, *map(_texts, self.qubit_figures.tolist())), 1)
        errors = _texts(self.two_qubit_errors.tolist())
        edges = _listed('{"pair": ["%s", "%s"], "two_qubit_error": "%s"}',
                        [(a, b, error) for (a, b), error in zip(self.pairs, errors)], 1)
        _write(path, '{"timestamp": "%s", "qubits": "%s", "edges": "%s"}',
               (json.dumps(self.timestamp), qubits, edges))

    @classmethod
    def from_json(cls, doc) -> "CalibrationSnapshot":
        """Parse a calibration document; a ValueError names the first bad field.

        The number columns are tested at once, and the constructor tests the
        id columns and the values the same way.  Only when a test fails are the
        entries walked one by one, in document order and qubits first, to name
        the first bad field."""
        qubits = _columns(_field(doc, "qubits", "a list"), [key for key, _ in _QUBIT_FIELDS])
        edges = qubits and _columns(doc.get("edges"), [key for key, _ in _EDGE_FIELDS])
        if not edges:
            _raise_first_fault(doc)
        (ids, *figures), (pairs, errors) = qubits, edges
        try:
            return cls(doc.get("timestamp"), ids, figures, pairs, errors)
        except ValueError:
            _raise_first_fault(doc)  # else the fault is no one entry's: a duplicate, say
            raise


def load_calibration(path) -> CalibrationSnapshot:
    """Load and validate a calibration JSON file."""
    return _load(path, CalibrationSnapshot.from_json)


def synth_calibration(graph: CouplingGraph, seed: int, profile: str = "realistic") -> CalibrationSnapshot:
    """Synthesize a deterministic calibration snapshot for a coupling graph.

    'uniform' gives every qubit and edge the same figures and reads its seed
    only for the timestamp; 'realistic' draws log-uniform error rates
    (positively skewed, like live backends) from the module-level ranges.
    """
    if profile not in ("uniform", "realistic"):
        raise ValueError(f"unknown profile {profile!r}")
    stamp = (
        datetime.datetime(2025, 6, 1, tzinfo=datetime.timezone.utc)
        + datetime.timedelta(hours=seed % 8760)
    ).isoformat()

    ids, edges = tuple(range(graph.num_qubits)), graph.edges
    if profile == "uniform":
        figures = [[figure] * len(ids)
                   for figure in (UNIFORM_READOUT_ERROR, UNIFORM_T1_US, UNIFORM_T2_US)]
        return CalibrationSnapshot(stamp, ids, figures, edges,
                                   [UNIFORM_TWO_QUBIT_ERROR] * len(edges))

    rng = np.random.default_rng(np.random.SeedSequence((seed, graph.num_qubits)))
    # one row per qubit: log readout error, T1 and the T2/T1 factor, drawn in
    # the order of one scalar draw each; math.exp keeps the bits np.exp may move
    low, high = zip(map(math.log, READOUT_ERROR_RANGE), T1_RANGE_US, (0.5, 1.2))
    log_readout, t1, factor = rng.uniform(low, high, size=(len(ids), 3)).T
    figures = [list(map(math.exp, log_readout.tolist())), t1, t1 * factor]  # t2 <= 2*t1
    log_errors = rng.uniform(*map(math.log, TWO_QUBIT_ERROR_RANGE), size=len(edges))
    return CalibrationSnapshot(stamp, ids, figures, edges, list(map(math.exp, log_errors.tolist())))
