"""Unit-distance graphs on integer point sets, with exact squared-distance
edges found by displacement-vector probing rather than pair scans."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping


def lattice_vectors(m: int) -> list[tuple[int, int]]:
    """All integer displacements (dx, dy) with dx^2 + dy^2 = m, sorted."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    out = set()
    for dx in range(math.isqrt(m) + 1):
        rem = m - dx * dx
        dy = math.isqrt(rem)
        if dy * dy == rem:
            out.update({(dx, dy), (dx, -dy), (-dx, dy), (-dx, -dy)})
    return sorted(out)


class UnitDistanceGraph:
    """Graph on lattice points whose edges are the pairs at squared distance m.

    Vertices are kept sorted lexicographically; adjacency lists hold vertex
    indices and are sorted by neighbor coordinates.
    """

    def __init__(self, points: list[tuple[int, int]], m: int, adj: list[list[int]], edge_count: int):
        self.points = points
        self.m = m
        self.adj = adj
        self.edge_count = edge_count
        self.vectors = lattice_vectors(m)
        self.index = {p: i for i, p in enumerate(points)}

    @property
    def vertex_count(self) -> int:
        return len(self.points)

    def degree(self, i: int) -> int:
        return len(self.adj[i])

    def edges(self):
        """Canonical (p, q) pairs with p < q, ascending."""
        for i, p in enumerate(self.points):
            for j in self.adj[i]:
                if j > i:
                    yield (p, self.points[j])

    def to_edge_text(self) -> str:
        """One "x1 y1 x2 y2" line per edge, lexicographically sorted."""
        lines = [f"{p[0]} {p[1]} {q[0]} {q[1]}" for p, q in self.edges()]
        return "\n".join(lines) + ("\n" if lines else "")

    def same_as(self, other: "UnitDistanceGraph") -> bool:
        return (
            self.points == other.points
            and self.m == other.m
            and self.adj == other.adj
            and self.edge_count == other.edge_count
        )


@dataclass(frozen=True)
class DegreeSummary:
    min_degree: int
    max_degree: int
    vertex_count: int
    edge_count: int


def build_graph(points: Iterable[tuple[int, int]], m: int) -> UnitDistanceGraph:
    """Probe each point against the displacement vectors of m.

    Cost is O(n * R(m)) hash lookups instead of the O(n^2) pair scan.
    Duplicate points are rejected.
    """
    pts = sorted((int(x), int(y)) for x, y in points)
    if any(a == b for a, b in zip(pts, pts[1:])):
        raise ValueError("duplicate points in input")
    vectors = lattice_vectors(m)
    index = {p: i for i, p in enumerate(pts)}
    adj: list[list[int]] = [[] for _ in pts]
    edge_count = 0
    for i, (x, y) in enumerate(pts):
        row = adj[i]
        for dx, dy in vectors:
            j = index.get((x + dx, y + dy))
            if j is not None:
                # vectors are sorted, so the row comes out sorted by coordinates
                row.append(j)
                if j > i:
                    edge_count += 1
    return UnitDistanceGraph(pts, m, adj, edge_count)


def degree_summary(g: UnitDistanceGraph) -> DegreeSummary:
    degs = [len(row) for row in g.adj]
    return DegreeSummary(
        min_degree=min(degs, default=0),
        max_degree=max(degs, default=0),
        vertex_count=len(g.points),
        edge_count=g.edge_count,
    )


def peel_adjacency(adj: Mapping, threshold: float) -> set:
    """Iteratively drop nodes of current degree < threshold; return survivors.

    Works on any adjacency mapping node -> iterable of neighbor nodes.
    """
    degree = {v: len(set(ns)) for v, ns in adj.items()}
    alive = set(adj)
    queue = deque(v for v, d in degree.items() if d < threshold)
    dead = set(queue)
    while queue:
        v = queue.popleft()
        alive.discard(v)
        for w in adj[v]:
            if w in alive and w not in dead:
                degree[w] -= 1
                if degree[w] < threshold:
                    dead.add(w)
                    queue.append(w)
    return alive


def peel(g: UnitDistanceGraph, threshold: float | None = None) -> UnitDistanceGraph:
    """Induced subgraph with every degree >= threshold (default e/(2v)).

    Each removed vertex takes fewer than `threshold` edges with it, so the
    survivor keeps e(H) > e(G) - v(G) * threshold; at the default threshold
    that is at least half the edges.  May be empty when the threshold exceeds
    the degeneracy.  When no vertex is below the threshold, returns g itself.
    """
    if threshold is None:
        threshold = g.edge_count / (2 * len(g.points)) if g.points else 0.0
    if min(map(len, g.adj), default=threshold) >= threshold:
        return g
    adj_map = {i: g.adj[i] for i in range(len(g.points))}
    alive = peel_adjacency(adj_map, threshold)
    keep = sorted(alive)
    remap = {old: new for new, old in enumerate(keep)}
    points = [g.points[i] for i in keep]
    adj: list[list[int]] = []
    edge_count = 0
    for old in keep:
        row = [remap[j] for j in g.adj[old] if j in alive]
        edge_count += sum(1 for j in g.adj[old] if j in alive and j > old)
        adj.append(row)
    return UnitDistanceGraph(points, g.m, adj, edge_count)
