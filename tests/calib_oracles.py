"""Per-entry calibration records, the test-side oracle for the columnar
CalibrationSnapshot.

parse_calibration reads a calibration document the way the loader once did:
it checks and builds one frozen record per entry, in document order, qubits
first, and each record checks its own figures.  The other helpers build a
snapshot from records and look one entry of a snapshot up by a scan of its
columns, without the snapshot's row maps.
"""

from dataclasses import dataclass

from qbos.device import (
    _EDGE_FIELDS,
    _QUBIT_FIELDS,
    CalibrationSnapshot,
    _check_entry,
    _field,
)


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


def parse_calibration(doc):
    """(timestamp, qubit records, edge records) of a calibration document.  A
    ValueError names the first bad field of the first bad entry; the timestamp
    is checked after the entries, and duplicate ids, then pairs, last."""
    qubits, edges = [], []
    for i, q in enumerate(_field(doc, "qubits", "a list")):
        _check_entry(q, _QUBIT_FIELDS, f"qubits[{i}].")
        qubits.append(QubitCalibration(q["id"], float(q["readout_error"]),
                                       float(q["t1_us"]), float(q["t2_us"])))
    for i, e in enumerate(_field(doc, "edges", "a list")):
        _check_entry(e, _EDGE_FIELDS, f"edges[{i}].")
        edges.append(EdgeCalibration(tuple(e["pair"]), float(e["two_qubit_error"])))
    timestamp = _field(doc, "timestamp", "a string")
    if len({q.id for q in qubits}) != len(qubits):
        raise ValueError("duplicate qubit calibration entries")
    if len({e.pair for e in edges}) != len(edges):
        raise ValueError("duplicate edge calibration entries")
    return timestamp, tuple(qubits), tuple(edges)


def snapshot(timestamp, qubits, edges) -> CalibrationSnapshot:
    """The columnar snapshot of qubit and edge records."""
    figures = [[q.readout_error for q in qubits], [q.t1_us for q in qubits],
               [q.t2_us for q in qubits]]
    return CalibrationSnapshot(timestamp, tuple(q.id for q in qubits), figures,
                               tuple(e.pair for e in edges),
                               [e.two_qubit_error for e in edges])


def records(cal: CalibrationSnapshot):
    """(qubit records, edge records) of a snapshot, in its row order."""
    return (tuple(map(QubitCalibration, cal.ids, *cal.qubit_figures.tolist())),
            tuple(map(EdgeCalibration, cal.pairs, cal.two_qubit_errors.tolist())))


def qubit(cal: CalibrationSnapshot, index: int) -> QubitCalibration:
    """The record of one qubit, found by a scan of the ids."""
    if index not in cal.ids:
        raise KeyError(f"no calibration for qubit {index}")
    return QubitCalibration(index, *cal.qubit_figures[:, cal.ids.index(index)].tolist())


def edge(cal: CalibrationSnapshot, pair) -> EdgeCalibration:
    """The record of one edge, in either orientation, found by a scan of the pairs."""
    key = (min(pair), max(pair))
    if key not in cal.pairs:
        raise KeyError(f"no calibration for edge {key}")
    return EdgeCalibration(key, float(cal.two_qubit_errors[cal.pairs.index(key)]))
