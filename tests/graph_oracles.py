"""Breadth-first hop distances, the test-side oracle for graph structure."""

from collections import deque


def adjacency(graph) -> list[list[int]]:
    """Each qubit's neighbours in a CouplingGraph, in edge order."""
    adj = [[] for _ in range(graph.num_qubits)]
    for a, b in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def bfs_distances(graph, start: int) -> list[int]:
    """Hop distances from one qubit of a CouplingGraph; unreachable qubits get -1."""
    adj = adjacency(graph)
    dist = [-1] * graph.num_qubits
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist
