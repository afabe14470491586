"""Guided circuit mapping: pick k connected, mutually separated qubit pairs.

Each two-qubit circuit is pinned to one physical edge.  Pairs must keep a
minimum graph distance from each other (default 2, i.e. at least one idle
qubit between any two active pairs) so that neighbouring circuits do not
interfere.  Selection is greedy by calibration-derived score with a
swap-based local search; optimality is not claimed, but on small instances
the result is checked against exhaustive search in the test suite.

Separation is decided once per graph, as array operations: a boolean
qubit x qubit ``near`` matrix (closer than the separation) grows from the
identity one hop at a time over a padded neighbour table, and from it one
boolean edge x edge conflict matrix is gathered.  Greedy passes OR the rows of
chosen edges into a blocked mask; the swap search keeps a per-edge count of
conflicts with the chosen set.  The matrix costs E*E bytes (0.45 MB for the
672 edges of a 575-qubit heavy-hex device).  The conflict relation is exactly
"some endpoints closer than the separation", so plans equal those of pairwise
distance checks.  ``verify_separation`` is an independent BFS check that does
not use these matrices.

Plans serialize as JSON
``{"min_separation": s, "assignments": [{"circuit": i, "pair": [a, b]}]}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .device import CalibrationSnapshot, CouplingGraph

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
class PairScore:
    edge: tuple[int, int]
    score: float

    def __post_init__(self):
        if not self.score >= 0.0:
            raise ValueError(f"score for edge {self.edge} must be finite and >= 0")


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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json(cls, doc: dict) -> "MappingPlan":
        entries = sorted(doc["assignments"], key=lambda e: int(e["circuit"]))
        if [int(e["circuit"]) for e in entries] != list(range(len(entries))):
            raise ValueError("assignment circuit indices must be 0..k-1")
        pairs = tuple((int(e["pair"][0]), int(e["pair"][1])) for e in entries)
        return cls(pairs, int(doc["min_separation"]))


def load_plan(path) -> MappingPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return MappingPlan.from_json(json.load(fh))


def score_pair(edge, calib: CalibrationSnapshot) -> PairScore:
    """Weighted cost of running a circuit on one edge (lower is better)."""
    pc = calib.pair(edge)
    score = (
        W_2Q * pc.two_qubit_error
        + W_RO * (pc.readout_errors[0] + pc.readout_errors[1])
        + W_COH * (1.0 / pc.t1_us[0] + 1.0 / pc.t1_us[1])
    )
    key = (min(edge), max(edge))
    return PairScore(key, score)


def _near(graph: CouplingGraph, min_separation: int) -> np.ndarray:
    """Boolean qubit x qubit matrix: True where two qubits are closer than
    ``max(min_separation, 1)`` hops.  Qubits in different components are
    never near."""
    n = graph.num_qubits
    adj = graph.adjacency()
    # neighbour table padded with the qubit itself, so padding adds nothing
    width = max(1, max(len(nbrs) for nbrs in adj))
    nbrs = np.array([nb + [q] * (width - len(nb)) for q, nb in enumerate(adj)],
                    dtype=np.intp)
    near = np.eye(n, dtype=bool)
    for _ in range(max(min_separation, 1) - 1):
        grown = near[:, nbrs].any(axis=2)  # within r of a neighbour: within r+1
        if np.array_equal(grown, near):
            break  # every component is covered already
        near = grown
    return near


def _conflict_matrix(near: np.ndarray, edges) -> np.ndarray:
    """Boolean edge x edge matrix over ``edges``, in their order: True where two
    edges have endpoints that are ``near``, so also where they share a qubit.
    Every edge conflicts with itself."""
    a, b = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    rows = near[a] | near[b]  # edge x qubit: qubits too close to the edge
    return rows[:, a] | rows[:, b]


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
    ranked = sorted(
        (score_pair(e, calib) for e in graph.edges),
        key=lambda ps: (ps.score, ps.edge),
    )
    # rows and columns follow ``ranked``, so a position in it is also an index
    conflict = _conflict_matrix(_near(graph, min_separation), [ps.edge for ps in ranked])

    def greedy(order) -> list[int]:
        chosen: list[int] = []
        blocked = np.zeros(len(ranked), dtype=bool)
        for r in order:
            if len(chosen) == k:
                break
            if not blocked[r]:
                chosen.append(r)
                blocked |= conflict[r]
        return chosen

    # the pure score order can paint itself into a corner, so also restart
    # from each edge as a forced first pick (small graphs) and from plain
    # lexicographic order, keeping the largest then cheapest selection
    positions = list(range(len(ranked)))
    orders = [positions, sorted(positions, key=lambda r: ranked[r].edge)]
    if len(ranked) <= MULTI_START_EDGE_LIMIT:
        for r in positions:
            orders.append([r] + positions[:r] + positions[r + 1:])

    def preference(sel: list[int]):
        return (-len(sel), sum(ranked[r].score for r in sel),
                tuple(sorted(ranked[r].edge for r in sel)))

    chosen = min((greedy(order) for order in orders), key=preference)
    if len(chosen) < k:
        raise InfeasibleMappingError(k, len(chosen))

    # local search: swap any chosen pair for a cheaper unused edge.
    # clashes[e] counts the chosen edges that conflict with edge e; a candidate
    # fits the rest when its only clash, if any, is the pair it replaces.
    # Chosen edges clash with themselves, so they never qualify.
    clashes = conflict[chosen].sum(axis=0)
    scores = np.array([ps.score for ps in ranked])
    improved = True
    while improved:
        improved = False
        order = sorted(range(k), key=lambda i: (-ranked[chosen[i]].score,
                                                ranked[chosen[i]].edge))
        for idx in order:
            cur = chosen[idx]
            # ranked is ascending, so exactly the positions before this bound
            # score less than the current pair
            cheaper = int(np.searchsorted(scores, ranked[cur].score, side="left"))
            fits = clashes[:cheaper] == conflict[cur, :cheaper]
            if fits.any():
                r = int(fits.argmax())
                clashes -= conflict[cur]
                clashes += conflict[r]
                chosen[idx] = r
                improved = True
                break

    return MappingPlan(tuple(ranked[r].edge for r in sorted(chosen)), min_separation)


def verify_separation(plan: MappingPlan, graph: CouplingGraph) -> tuple[bool, str | None]:
    """Exhaustively re-check the plan's separation with independent BFS walks.

    Returns (True, None) or (False, description of the first violation).
    """
    from collections import deque

    adj = graph.adjacency()
    for pair in plan.assignments:
        for q in pair:
            if not 0 <= q < graph.num_qubits:
                return False, f"qubit {q} outside the graph"
        if tuple(sorted(pair)) not in graph.edges:
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
    within = {q: bfs_within(q, radius) for pair in plan.assignments for q in pair}
    for i, pi in enumerate(plan.assignments):
        for j, pj in enumerate(plan.assignments):
            if j <= i:
                continue
            for a in pi:
                near = within[a]
                for b in pj:
                    if b in near:
                        return False, (
                            f"circuits {i} and {j}: qubits {a} and {b} are "
                            f"{near[b]} apart (< {plan.min_separation})"
                        )
    return True, None


def plan_score(plan: MappingPlan, calib: CalibrationSnapshot) -> float:
    return sum(score_pair(e, calib).score for e in plan.assignments)


def refine_mapping(
    plan: MappingPlan,
    feedback: dict[int, float],
    calib: CalibrationSnapshot,
    graph: CouplingGraph,
) -> MappingPlan:
    """Reassign the worst-feedback circuits to better unused edges.

    Circuits whose observed error strictly exceeds the 90th percentile of the
    feedback values are candidates; each moves to the cheapest unused edge
    that keeps the whole plan feasible, and only if that edge scores strictly
    better than its current one.  With uniform feedback, or when no improving
    move exists, the plan is returned unchanged.
    """
    k = len(plan.assignments)
    missing = [i for i in range(k) if i not in feedback]
    if missing:
        raise ValueError(f"feedback missing for circuits {missing}")

    values = sorted(feedback.values())
    threshold = values[min(k - 1, int(0.9 * (k - 1)))] if k > 1 else values[0]
    worst = [i for i in range(k) if feedback[i] > threshold]
    if not worst:
        return plan
    worst.sort(key=lambda i: (-feedback[i], i))

    near = _near(graph, plan.min_separation)
    assignments = list(plan.assignments)
    candidates = sorted(
        (score_pair(e, calib) for e in graph.edges),
        key=lambda ps: (ps.score, ps.edge),
    )
    changed = False
    for i in worst:
        current = score_pair(assignments[i], calib)
        # qubits too close to the other circuits; a used edge is always blocked
        blocked = np.zeros(graph.num_qubits, dtype=bool)
        for j, (a, b) in enumerate(assignments):
            if j != i:
                blocked |= near[a] | near[b]
        for ps in candidates:
            if ps.score >= current.score:
                break
            if not (blocked[ps.edge[0]] or blocked[ps.edge[1]]):
                assignments[i] = ps.edge
                changed = True
                break
    if not changed:
        return plan
    return MappingPlan(tuple(assignments), plan.min_separation)


def packed_plan(graph: CouplingGraph, k: int) -> MappingPlan:
    """A deliberately crowded baseline: disjoint pairs with no idle spacing.

    Greedy in lexicographic edge order, requiring only that qubits are not
    reused; neighbouring circuits typically sit directly next to each other.
    Useful as the no-separation reference when measuring what the separated
    mapping buys.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    chosen: list[tuple[int, int]] = []
    used: set[int] = set()
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
