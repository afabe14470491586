"""Guided circuit mapping: pick k connected, mutually separated qubit pairs.

Each two-qubit circuit is pinned to one physical edge.  Pairs must keep a
minimum graph distance from each other (default 2, i.e. at least one idle
qubit between any two active pairs) so that neighbouring circuits do not
interfere.  Selection is greedy by calibration-derived score with a
swap-based local search; optimality is not claimed, but on small instances
the result is checked against exhaustive search in the test suite.

Separation is decided once per graph and radius, as array operations on
contiguous rows: a boolean qubit x qubit ``near`` matrix (closer than the
separation) grows from the identity by one hop per pass, ORing in its own
rows at each slot of a padded neighbour table, and from it a qubit x edge
"too close" table and then one boolean edge x edge conflict matrix are
gathered by rows (``near`` is symmetric: its rows are its columns).  Greedy
passes OR chosen edges' rows into a blocked mask; the swap search counts each
edge's conflicts with the chosen set and tests a round's chosen pairs in one
expression.  Temporaries cost N*N, N*E and E*E bytes (0.33, 0.39 and 0.45 MB
for 575 qubits and 672 heavy-hex edges), with no N*N*degree array.  The
conflict relation is exactly "some endpoints closer than the separation", so
plans equal those of pairwise distance checks.  ``near`` is kept on the graph,
read-only, so ``select_pairs``, ``packed_plan`` and ``noise.crosstalk_flags``
share one table per graph and radius, and every later job on that graph reuses
it.  ``verify_separation`` is an independent check that does not use these
matrices: it walks one BFS ball per plan qubit and looks each ball member up
in a qubit -> circuit owner map.  ``packed_plan``, the crowded baseline, is
the same greedy pass at separation 1, in edge order.

Plans serialize as JSON
``{"min_separation": s, "assignments": [{"circuit": i, "pair": [a, b]}]}``;
``load_plan`` checks each field as the device-file loaders do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import CalibrationSnapshot, CouplingGraph, _field, _load, _save

# score weights of the two-qubit error, the readout-error sum and the inverse-T1 sum (1/us)
W_2Q, W_RO, W_COH = 1.0, 0.5, 0.1
DEFAULT_MIN_SEPARATION = 2
MULTI_START_EDGE_LIMIT = 60  # below this, restart greedy from every forced first edge


class InfeasibleMappingError(ValueError):
    """Raised when no plan with the requested pair count exists."""

    def __init__(self, requested: int, achievable: int):
        super().__init__(
            f"cannot place {requested} pairs; best achievable here is {achievable}"
        )
        self.requested = requested
        self.achievable = achievable


@dataclass(frozen=True)
class MappingPlan:
    """Ordered circuit -> physical edge assignment with a separation guarantee."""

    assignments: tuple[tuple[int, int], ...]
    min_separation: int = DEFAULT_MIN_SEPARATION

    def __post_init__(self):
        object.__setattr__(
            self,
            "assignments",
            tuple((min(a, b), max(a, b)) for a, b in self.assignments),
        )
        if self.min_separation < 1:
            raise ValueError("min_separation must be >= 1")
        used = [q for pair in self.assignments for q in pair]
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
        _save(path, self.to_json())

    @classmethod
    def from_json(cls, doc) -> "MappingPlan":
        """Parse a plan document; a ValueError names the first bad field."""
        entries = []
        for i, e in enumerate(_field(doc, "assignments", "a list")):
            where = f"assignments[{i}]."
            entries.append((_field(e, "circuit", "an integer", where),
                            tuple(_field(e, "pair", "two integer qubit ids", where))))
        entries.sort()
        if [circuit for circuit, _ in entries] != list(range(len(entries))):
            raise ValueError("assignment circuit indices must be 0..k-1")
        return cls(tuple(pair for _, pair in entries),
                   _field(doc, "min_separation", "an integer"))


def load_plan(path) -> MappingPlan:
    """Load and validate a plan JSON file."""
    return _load(path, MappingPlan.from_json)


def edge_scores(edges, calib: CalibrationSnapshot) -> np.ndarray:
    """Weighted cost of running a circuit on each edge (lower is better), in one
    array pass: W_2Q * e2q + W_RO * (ro_a + ro_b) + W_COH * (1/t1_a + 1/t1_b)."""
    e2q, ro, t1 = calib.figures(edges)
    return (W_2Q * e2q + W_RO * (ro[:, 0] + ro[:, 1])
            + W_COH * (1.0 / t1[:, 0] + 1.0 / t1[:, 1]))


def _near(graph: CouplingGraph, min_separation: int) -> np.ndarray:
    """Boolean qubit x qubit matrix: True where two qubits are closer than
    ``max(min_separation, 1)`` hops.  Qubits in different components are
    never near.  The table is built once per graph and radius, kept on the
    graph and read-only."""
    radius = max(min_separation, 1)
    if radius in graph._near:
        return graph._near[radius]
    n = graph.num_qubits
    adj = graph.adjacency()
    # neighbour table padded with the qubit itself, so padding adds nothing
    width = max(1, max(len(nbrs) for nbrs in adj))
    nbrs = np.array([nb + [q] * (width - len(nb)) for q, nb in enumerate(adj)],
                    dtype=np.intp)
    near = np.eye(n, dtype=bool)
    for _ in range(radius - 1):
        # within r, or r from a neighbour: near is symmetric, so row q of
        # near[column] marks the qubits within r of q's neighbour in that slot
        grown = near.copy()
        for column in nbrs.T:
            grown |= near[column]
        if np.array_equal(grown, near):
            break  # every component is covered already
        near = grown
    near.flags.writeable = False
    graph._near[radius] = near
    return near


def _conflict_matrix(near: np.ndarray, edges) -> np.ndarray:
    """Boolean edge x edge matrix over ``edges``, in their order: True where two
    edges have endpoints that are ``near``, so also where they share a qubit.
    Every edge conflicts with itself."""
    a, b = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    # qubit x edge: qubits too close to the edge, near[:, a] | near[:, b], built
    # from row gathers and one transposing copy, since near is symmetric
    close = (near[a] | near[b]).T.copy()
    return close[a] | close[b]  # row i: edges too close to edge i's endpoints


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
    ranked = sorted(zip(edge_scores(graph.edges, calib).tolist(), graph.edges))
    scores = [score for score, _ in ranked]
    edges = [e for _, e in ranked]
    # rows and columns follow the ranking, so a rank is also an index
    conflict = _conflict_matrix(_near(graph, min_separation), edges)

    # the pure score order can paint itself into a corner, so also restart
    # from each edge as a forced first pick (small graphs) and from plain
    # lexicographic order, keeping the largest then cheapest selection
    positions = list(range(len(edges)))
    orders = [positions, sorted(positions, key=edges.__getitem__)]
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
    ascending = np.array(scores)
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
    """Exhaustively re-check the plan's separation with independent BFS walks:
    one ball per plan qubit, looked up in a map of which circuit owns a qubit.

    Returns (True, None) or (False, description of the first violation).
    """
    from collections import deque

    adj = graph.adjacency()
    coupled = set(graph.edges)
    for pair in plan.assignments:
        for q in pair:
            if not 0 <= q < graph.num_qubits:
                return False, f"qubit {q} outside the graph"
        if tuple(sorted(pair)) not in coupled:
            return False, f"pair {pair} is not a coupled edge"

    def bfs_within(start: int, radius: int) -> dict[int, int]:
        seen = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            if seen[u] == radius:
                continue
            for v in adj[u]:
                if v not in seen:
                    seen[v] = seen[u] + 1
                    queue.append(v)
        return seen

    radius = plan.min_separation - 1  # anything reachable this close is too close
    owner = {q: (i, pos) for i, pair in enumerate(plan.assignments)
             for pos, q in enumerate(pair)}
    for i, pair in enumerate(plan.assignments):
        balls = [bfs_within(a, radius) for a in pair]
        clashes = [(owner[b][0], pos_a, owner[b][1], b)
                   for pos_a, ball in enumerate(balls) for b in ball
                   if owner.get(b, (-1,))[0] > i]
        if clashes:
            j, pos_a, _, b = min(clashes)
            return False, (
                f"circuits {i} and {j}: qubits {pair[pos_a]} and {b} are "
                f"{balls[pos_a][b]} apart (< {plan.min_separation})"
            )
    return True, None


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
    chosen = _greedy(_conflict_matrix(_near(graph, 1), graph.edges), range(len(graph.edges)), k)
    if len(chosen) < k:
        raise InfeasibleMappingError(k, len(chosen))
    return MappingPlan(tuple(graph.edges[r] for r in chosen), min_separation=1)
