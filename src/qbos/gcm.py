"""Guided circuit mapping: pick k connected, mutually separated qubit pairs.

Each two-qubit circuit is pinned to one physical edge.  Pairs must keep a
minimum graph distance from each other (default 2, i.e. at least one idle
qubit between any two active pairs) so that neighbouring circuits do not
interfere.  Selection is greedy by calibration-derived score with a
swap-based local search; optimality is not claimed, but on small instances
the result is checked against exhaustive search in the test suite.

Separation is decided once per ``select_pairs`` or ``packed_plan`` call, as
array operations on flat index arrays.  The edges' endpoints are slots (slot t
is edge t >> 1 at one qubit), grouped by qubit.  The grouping belongs to the
graph: ``CouplingGraph._slots`` builds it once, on first use, and the conflict
builder, ``packed_plan`` and ``verify_separation`` read it.  It gives each
qubit's incident edges and, through each slot's other end, its neighbours.
The (edge, qubit closer than the separation) pairs start as every edge's
endpoints and take one hop through the neighbours per step: at the default
separation 2 that one hop also reaches the endpoints, and above it each step
is deduplicated by one sort.  Each pair fans out to its qubit's incident
edges, and the (edge, edge) pairs are scattered at the two edges' ranks (score
order in ``select_pairs``, edge order in ``packed_plan``) into one boolean
edge x edge conflict matrix; the scatter is idempotent, so repeats need no
dedupe.  For 575 qubits and 672 heavy-hex edges at separation 2 that is
3,274 pairs and 7,716 codes, int64 arrays of at most 62 kB beside the
0.45 MB matrix, and no qubit x qubit or qubit x edge table at any separation;
the pairs grow with the separation (21,018 pairs and 49,672 codes at
separation 6).  Greedy passes OR chosen edges' rows into a blocked mask; the
swap search counts each edge's conflicts with the chosen set and tests a
round's chosen pairs in one expression.  The conflict relation is exactly
"some endpoints closer than the separation", so plans equal those of pairwise
distance checks.
``verify_separation`` is an independent check that uses no conflict matrix:
one breadth-first walk per plan qubit, all advanced a hop at a time as the
same fan-out over the graph's slot grouping, each reached qubit looked up in a
holder array (2 * circuit + position); a pair is an edge when its code is
among the graph's ascending arc codes.
``packed_plan``, the crowded baseline, is the same greedy pass at separation
1, in edge order.

Plans serialize as JSON
``{"min_separation": s, "assignments": [{"circuit": i, "pair": [a, b]}]}``,
written directly as the text ``json.dumps(doc, indent=1)`` gives, without
json's pure-Python indent encoder.  ``load_plan`` tests the entries' fields a
column at a time, as the calibration loader does, and a plan takes only what
it would read back: int qubit ids and an int separation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .device import (_CHECKS, CalibrationSnapshot, CouplingGraph, _check_column, _check_entry,
                     _field, _gathered, _listed, _load, _write)

# score weights of the two-qubit error, the readout-error sum and the inverse-T1 sum (1/us)
W_2Q, W_RO, W_COH = 1.0, 0.5, 0.1
DEFAULT_MIN_SEPARATION = 2
MULTI_START_EDGE_LIMIT = 60  # below this, restart greedy from every forced first edge
# a plan entry's fields, in the order load_plan checks them
_PLAN_FIELDS = (("circuit", "an integer"), ("pair", "two integer qubit ids"))


class InfeasibleMappingError(ValueError):
    """Raised when the search cannot place the requested pair count."""

    def __init__(self, requested: int, achievable: int):
        super().__init__(
            f"cannot place {requested} pairs; the search placed only {achievable}"
        )
        self.requested = requested
        self.achievable = achievable


@dataclass(frozen=True)
class MappingPlan:
    """Ordered circuit -> physical edge assignment with a separation guarantee."""

    assignments: tuple[tuple[int, int], ...]
    min_separation: int = DEFAULT_MIN_SEPARATION

    def __post_init__(self):
        # load_plan's types, so that every plan that can be built saves and loads
        _field(vars(self), "min_separation", "an integer")
        pairs = tuple(self.assignments)
        _check_column(pairs, "two integer qubit ids", "assignments[{}]")
        object.__setattr__(self, "assignments",
                           tuple([(a, b) if a < b else (b, a) for a, b in pairs]))
        if self.min_separation < 1:
            raise ValueError("min_separation must be >= 1")
        used = list(chain.from_iterable(pairs))
        if len(set(used)) != len(used):
            raise ValueError("assignments reuse a qubit")

    def to_json(self) -> dict:
        return {
            "min_separation": self.min_separation,
            "assignments": [
                {"circuit": i, "pair": list(pair)}
                for i, pair in enumerate(self.assignments)
            ],
        }

    def save(self, path) -> None:
        """Write ``json.dumps(self.to_json(), indent=1)`` and a newline, formatted directly."""
        entries = _listed('{"circuit": "%s", "pair": ["%s", "%s"]}',
                          [(i, a, b) for i, (a, b) in enumerate(self.assignments)], 1)
        _write(path, '{"min_separation": "%s", "assignments": "%s"}',
               (self.min_separation, entries))

    @classmethod
    def from_json(cls, doc) -> "MappingPlan":
        """Parse a plan document; a ValueError names the first bad field.  Only a
        column test that fails walks the entries one by one, to name it."""
        entries = _field(doc, "assignments", "a list")
        columns = _gathered(entries, [key for key, _ in _PLAN_FIELDS])
        try:
            if not (columns and _CHECKS["an integer"](columns[0])):
                raise ValueError("an entry without its JSON types")  # the walk names it
            circuits, pairs = columns
            order = sorted(range(len(circuits)), key=circuits.__getitem__)
            if [circuits[i] for i in order] != list(range(len(circuits))):
                raise ValueError("assignment circuit indices must be 0..k-1")
            return cls([pairs[i] for i in order], _field(doc, "min_separation", "an integer"))
        except ValueError:
            for i, entry in enumerate(entries):  # else no one entry's: a reused qubit, say
                _check_entry(entry, _PLAN_FIELDS, f"assignments[{i}].")
            raise


def load_plan(path) -> MappingPlan:
    """Load and validate a plan JSON file."""
    return _load(path, MappingPlan.from_json)


def edge_scores(edges, calib: CalibrationSnapshot) -> np.ndarray:
    """Weighted cost of running a circuit on each edge (lower is better), in one
    array pass: W_2Q * e2q + W_RO * (ro_a + ro_b) + W_COH * (1/t1_a + 1/t1_b)."""
    e2q, ro, t1 = calib.figures(edges)
    return (W_2Q * e2q + W_RO * (ro[:, 0] + ro[:, 1])
            + W_COH * (1.0 / t1[:, 0] + 1.0 / t1[:, 1]))


def _fan(first, degree, heads, tag, tail):
    """(tag, head) for each (tag, tail) pair and each head grouped under its tail:
    tail t's heads are heads[first[t]:first[t] + degree[t]]."""
    count = degree[tail]
    start = (first[tail] - count.cumsum() + count).repeat(count)
    return tag.repeat(count), heads[np.arange(len(start)) + start]


def _conflict_matrix(graph: CouplingGraph, rank: np.ndarray, min_separation: int) -> np.ndarray:
    """Boolean edge x edge matrix whose row and column rank[e] stand for
    graph.edges[e]: True where two edges have endpoints closer than
    ``max(min_separation, 1)`` hops, so also where they share a qubit.  Every
    edge conflicts with itself.  The (edge, qubit that close) pairs start as
    the endpoints and take a hop through the graph's grouped arcs per step,
    deduplicated when there are two steps or more; each fans out to its
    qubit's incident edges and is scattered in at the two edges' ranks."""
    n, m = graph.num_qubits, len(rank)
    ends, order, first, degree, heads, _ = graph._slots
    edge, qubit, count = np.arange(2 * m) >> 1, ends, 2 * m  # closer than one hop
    for _ in range(min_separation - 1):  # then one hop further
        edge, qubit = _fan(first, degree, heads, edge, qubit)
        if min_separation > 2:  # distinct pairs fan out; none new: every component is covered
            code = np.sort(edge * n + qubit)  # not np.unique, whose hash table is slower
            code = code[code != np.append(-1, code[:-1])]
            if len(code) == count:
                break
            edge, qubit = np.divmod(code, n)
            count = len(code)
    i, j = _fan(first, degree, order >> 1, edge, qubit)  # edge j has an endpoint at qubit
    conflict = np.zeros(m * m, dtype=bool)
    conflict[rank[i] * m + rank[j]] = True  # idempotent: repeated pairs need no dedupe
    return conflict.reshape(m, m)


def _greedy(conflict: np.ndarray, order, k: int) -> list[int]:
    """Up to k edge indices, taken in order unless they conflict with one taken."""
    chosen: list[int] = []
    blocked = np.zeros(len(conflict), dtype=bool)
    for r in order:
        if len(chosen) == k:
            break
        if not blocked[r]:
            chosen.append(r)
            blocked |= conflict[r]
    return chosen


def _rank(graph: CouplingGraph, calib: CalibrationSnapshot):
    """The graph's edges by ascending score, their scores in that order, and the
    ranks of the edges in lexicographic order.  One stable argsort: graph.edges
    is sorted, so tied scores keep edge order, as sorting (score, edge) tuples
    does.  The lexicographic ranks are the inverse permutation of the argsort."""
    scores = edge_scores(graph.edges, calib)
    order = np.argsort(scores, kind="stable")
    lexicographic = np.empty_like(order)
    lexicographic[order] = np.arange(len(order))
    return [graph.edges[i] for i in order.tolist()], scores[order], lexicographic


def select_pairs(
    graph: CouplingGraph,
    calib: CalibrationSnapshot,
    k: int,
    min_separation: int = DEFAULT_MIN_SEPARATION,
) -> MappingPlan:
    """Choose k separated edges minimizing total score.

    Greedy by ascending (score, edge) with a single-swap local search; the
    result is locally minimal under replacing any one chosen pair by any
    unused edge.  Deterministic: ties break on lexicographic edge order.
    Raises InfeasibleMappingError (with the best pair count this procedure
    can achieve) when k pairs cannot be placed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    edges, ascending, lexicographic = _rank(graph, calib)
    scores = ascending.tolist()
    # rows and columns follow the ranking, so a rank is also an index
    conflict = _conflict_matrix(graph, lexicographic, min_separation)

    # the pure score order can paint itself into a corner, so also restart
    # from each edge as a forced first pick (small graphs) and from plain
    # lexicographic order, keeping the largest then cheapest selection
    positions = list(range(len(edges)))
    orders = [positions, lexicographic.tolist()]
    if len(edges) <= MULTI_START_EDGE_LIMIT:
        for r in positions:
            orders.append([r] + positions[:r] + positions[r + 1:])

    def preference(sel: list[int]):
        return (-len(sel), sum(scores[r] for r in sel),
                tuple(sorted(edges[r] for r in sel)))

    chosen = min((_greedy(conflict, order, k) for order in orders), key=preference)
    if len(chosen) < k:
        raise InfeasibleMappingError(k, len(chosen))

    # local search: swap any chosen pair for a cheaper unused edge.
    # clashes[e] counts the chosen edges that conflict with edge e; a candidate
    # fits the rest when its only clash, if any, is the pair it replaces.
    # Chosen edges clash with themselves, so they never qualify.  A round tests
    # every chosen pair, most expensive first, in one expression and swaps the
    # first that fits anything at its cheapest fit.
    clashes = conflict[chosen].sum(axis=0)
    while True:
        order = sorted(range(k), key=lambda i: (-scores[chosen[i]], edges[chosen[i]]))
        cur = np.array(chosen)[order]
        # scores ascend, so exactly the ranks before cheaper[i] score less than cur[i]
        cheaper = np.searchsorted(ascending, ascending[cur], side="left")
        fits = (clashes == conflict[cur]) & (np.arange(len(edges)) < cheaper[:, None])
        # the first True in row-major order: the first row with a fit, at its first fit
        row, r = divmod(int(fits.argmax()), len(edges))
        if not fits[row, r]:
            break
        clashes -= conflict[cur[row]]
        clashes += conflict[r]
        chosen[order[row]] = r

    return MappingPlan(tuple(edges[r] for r in sorted(chosen)), min_separation)


def verify_separation(plan: MappingPlan, graph: CouplingGraph) -> tuple[bool, str | None]:
    """Exhaustively re-check the plan's separation with independent BFS walks,
    one per plan qubit, all advanced a hop at a time as array operations.

    Returns (True, None) or (False, description of the first violation).
    """
    n, pairs = graph.num_qubits, plan.assignments
    flat = list(chain.from_iterable(pairs))
    _, _, first, degree, heads, arcs = graph._slots  # arcs ascend to n * n, which no arc has
    ends = np.array(flat if flat and 0 <= min(flat) and max(flat) < n else [], dtype=np.intp)
    codes = ends[0::2] * n + ends[1::2]
    if len(ends) < len(flat) or (arcs[np.searchsorted(arcs, codes)] != codes).any():
        for pair in pairs:  # the first bad pair, named
            for q in pair:
                if not 0 <= q < n:
                    return False, f"qubit {q} outside the graph"
            if pair[0] * n + pair[1] not in arcs:
                return False, f"pair {pair} is not a coupled edge"

    holder = np.full(n, -1, dtype=np.intp)
    holder[ends] = np.arange(len(ends))
    seen = np.zeros(len(ends) * n, dtype=bool)  # walk * n + qubit: reached by an earlier hop
    walk, qubit, hits = np.arange(len(ends)), ends, []
    for hop in range(plan.min_separation):  # anything reachable this close is too close
        if hop:
            walk, qubit = _fan(first, degree, heads, walk, qubit)
        code = walk * n + qubit
        if hop > 1:  # hop 1 reaches distinct new qubits: no self-loops or repeated edges
            code = np.sort(code[~seen[code]])
            code = code[code != np.append(-1, code[:-1])]
            walk, qubit = np.divmod(code, n)
        if not len(code):
            break
        seen[code] = True
        owner = holder[qubit]
        clash = np.flatnonzero(owner >> 1 > walk >> 1)  # held by a later circuit; -1 is none
        if len(clash):
            hits.append((walk[clash], owner[clash], qubit[clash], np.full(len(clash), hop)))
            # walk ascends, so clash[0] is of the first clashing circuit; the
            # walks of later circuits cannot name the first violation
            keep = walk >> 1 <= walk[clash[0]] >> 1
            walk, qubit = walk[keep], qubit[keep]
    if not hits:
        return True, None
    walk, owner, qubit, hop = map(np.concatenate, zip(*hits))
    # the first by circuit, other circuit, then the two qubits' positions
    at = np.lexsort((owner & 1, walk & 1, owner >> 1, walk >> 1))[0]
    (i, pos), j = divmod(int(walk[at]), 2), int(owner[at]) >> 1
    return False, (f"circuits {i} and {j}: qubits {pairs[i][pos]} and {qubit[at]} are "
                   f"{hop[at]} apart (< {plan.min_separation})")


def plan_score(plan: MappingPlan, calib: CalibrationSnapshot) -> float:
    # the sequential Python sum, not numpy's pairwise one
    return sum(edge_scores(plan.assignments, calib).tolist())


def packed_plan(graph: CouplingGraph, k: int) -> MappingPlan:
    """A deliberately crowded baseline: disjoint pairs with no idle spacing.

    The greedy pass of select_pairs at separation 1, where two edges conflict
    only when they share a qubit, in lexicographic edge order; neighbouring
    circuits typically sit directly next to each other.  Useful as the
    no-separation reference when measuring what the separated mapping buys.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = len(graph.edges)
    chosen = _greedy(_conflict_matrix(graph, np.arange(m), 1), range(m), k)
    if len(chosen) < k:
        raise InfeasibleMappingError(k, len(chosen))
    return MappingPlan(tuple(graph.edges[r] for r in chosen), min_separation=1)
