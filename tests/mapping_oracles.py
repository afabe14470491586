"""An exact integer program for separated pairs, the test-side optimum of the mapper.

scipy.optimize is imported here, in tests only: qbos itself never loads it.
"""

import itertools

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from graph_oracles import bfs_distances
from qbos.device import CouplingGraph
from qbos.gcm import edge_scores


def _path(n):
    return CouplingGraph(n, tuple((i, i + 1) for i in range(n - 1)))


# acceptance criterion 6's small instances: (graph, k), each with at most 10 edges
SMALL_INSTANCES = [
    (_path(5), 2), (_path(8), 2), (_path(8), 3), (_path(10), 3),
    (CouplingGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0))), 2),
    (CouplingGraph(9, ((0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8))), 3),
    (CouplingGraph(7, ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6))), 2),
    (CouplingGraph(8, ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
                       (6, 7), (7, 4))), 2),
]


def milp_optimum(graph, calib, k, min_separation=2):
    """The least total score of k separated edges, or None when no k edges are
    separated.  Binary x_e per edge, x_e + x_f <= 1 for each pair of edges with
    endpoints closer than the separation, sum x = k, minimise the score sum,
    solved to a zero optimality gap.  The total is summed in edge order from
    the chosen edges, as the exhaustive search sums a subset."""
    edges = graph.edges
    scores = edge_scores(edges, calib)
    dist = [bfs_distances(graph, q) for q in range(graph.num_qubits)]
    radius = max(min_separation, 1)
    conflicts = [(i, j) for (i, e), (j, f) in itertools.combinations(enumerate(edges), 2)
                 if any(0 <= dist[a][b] < radius for a in e for b in f)]
    constraints = [LinearConstraint(np.ones((1, len(edges))), k, k)]
    if conflicts:
        rows = np.zeros((len(conflicts), len(edges)))
        for row, (i, j) in zip(rows, conflicts):
            row[[i, j]] = 1.0
        constraints.append(LinearConstraint(rows, -np.inf, 1.0))
    res = milp(scores, integrality=np.ones(len(edges)), bounds=Bounds(0.0, 1.0),
               constraints=constraints, options={"mip_rel_gap": 0.0})
    if res.status == 2:  # infeasible
        return None
    if not res.success:
        raise RuntimeError(f"milp: {res.message}")
    chosen = np.flatnonzero(res.x > 0.5).tolist()
    if len(chosen) != k or any(i in chosen and j in chosen for i, j in conflicts):
        raise RuntimeError(f"milp returned no separated {k}-subset: {res.x}")
    return sum(scores[chosen].tolist())
