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
    indices and are sorted by neighbor coordinates.  `vectors` are the
    displacements of squared length m.  `grid` is (x0, y0, width, height)
    when the vertices fill that box, else None.  A graph made by `grid_graph`
    lists its points, index and adjacency only on first access, by the same
    probing as `build_graph`.
    """

    def __init__(
        self,
        points: list[tuple[int, int]] | None,
        m: int,
        adj: list[list[int]] | None,
        edge_count: int,
        vectors: list[tuple[int, int]],
        *,
        grid: tuple[int, int, int, int] | None = None,
    ):
        self.m = m
        self.edge_count = edge_count
        self.vectors = vectors
        self.grid = grid if points is None else _grid_dims(points)
        self._points = points
        self._adj = adj
        self._index: dict[tuple[int, int], int] | None = None

    @property
    def points(self) -> list[tuple[int, int]]:
        if self._points is None:
            x0, y0, w, h = self.grid
            self._points = [(x, y) for x in range(x0, x0 + w) for y in range(y0, y0 + h)]
        return self._points

    @property
    def index(self) -> dict[tuple[int, int], int]:
        if self._index is None:
            self._index = {p: i for i, p in enumerate(self.points)}
        return self._index

    @property
    def adj(self) -> list[list[int]]:
        if self._adj is None:
            self._adj, _ = _probe(self.points, self.index, self.vectors)
        return self._adj

    @property
    def vertex_count(self) -> int:
        if self._points is None:
            return self.grid[2] * self.grid[3]
        return len(self._points)

    def point(self, i: int) -> tuple[int, int]:
        """The i-th vertex, without listing a lazy grid's points."""
        if self._points is None:
            x0, y0, _, h = self.grid
            return (x0 + i // h, y0 + i % h)
        return self._points[i]

    def degree(self, i: int) -> int:
        return len(self.adj[i])

    def edges(self):
        """Canonical (p, q) pairs with p < q, ascending."""
        points = self.points
        for i, p in enumerate(points):
            for j in self.adj[i]:
                if j > i:
                    yield (p, points[j])

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


def _grid_dims(points) -> tuple[int, int, int, int] | None:
    """(x0, y0, width, height) when the sorted, duplicate-free point list
    fills its bounding box."""
    if not points:
        return None
    x0, x1 = points[0][0], points[-1][0]
    ys = [p[1] for p in points]
    y0, y1 = min(ys), max(ys)
    w, h = x1 - x0 + 1, y1 - y0 + 1
    if w * h == len(points):
        return (x0, y0, w, h)
    return None


def _probe(points, index, vectors) -> tuple[list[list[int]], int]:
    """Adjacency rows and edge count: every point probed against every vector.

    Cost is O(n * R(m)) hash lookups instead of the O(n^2) pair scan.
    """
    adj: list[list[int]] = [[] for _ in points]
    edge_count = 0
    for i, (x, y) in enumerate(points):
        row = adj[i]
        for dx, dy in vectors:
            j = index.get((x + dx, y + dy))
            if j is not None:
                # vectors are sorted, so the row comes out sorted by coordinates
                row.append(j)
                if j > i:
                    edge_count += 1
    return adj, edge_count


def grid_graph(
    width: int, m: int, *, height: int | None = None, corner: tuple[int, int] = (0, 0)
) -> UnitDistanceGraph:
    """The graph on the width x height grid with lower-left corner `corner`
    (height defaults to width).

    The edge count is the closed form 1/2 * sum over vectors of
    (width - |dx|)+ (height - |dy|)+; points, index and adjacency are built
    only when something asks for them.
    """
    height = width if height is None else height
    if width < 1 or height < 1:
        raise ValueError(f"grid needs width and height >= 1, got {width} x {height}")
    vectors = lattice_vectors(m)
    twice = sum(max(width - abs(dx), 0) * max(height - abs(dy), 0) for dx, dy in vectors)
    return UnitDistanceGraph(
        None, m, None, twice // 2, vectors, grid=(int(corner[0]), int(corner[1]), width, height)
    )


def build_graph(points: Iterable[tuple[int, int]], m: int) -> UnitDistanceGraph:
    """Probe each point against the displacement vectors of m.

    A point set that fills its bounding box is handed to `grid_graph`.
    Duplicate points are rejected.
    """
    pts = sorted((int(x), int(y)) for x, y in points)
    if any(a == b for a, b in zip(pts, pts[1:])):
        raise ValueError("duplicate points in input")
    dims = _grid_dims(pts)
    if dims is not None:
        x0, y0, w, h = dims
        return grid_graph(w, m, height=h, corner=(x0, y0))
    vectors = lattice_vectors(m)
    adj, edge_count = _probe(pts, {p: i for i, p in enumerate(pts)}, vectors)
    return UnitDistanceGraph(pts, m, adj, edge_count, vectors)


def _grid_degree_range(w: int, h: int, vectors) -> tuple[int, int]:
    """(min, max) degree on the w x h grid without touching its vertices.

    The degree at offset (ox, oy) counts the vectors with 0 <= ox + dx < w
    and 0 <= oy + dy < h.  Along x it can change only where some ox + dx
    enters or leaves [0, w), so the degrees at those cuts times the cuts
    along y are every degree the grid has.
    """
    import numpy as np

    if not vectors:
        return (0, 0)
    steps = np.array(vectors, dtype=np.int64)

    def inside(d, size):
        cuts = np.unique(np.r_[0, -d, size - d])
        cuts = cuts[(cuts >= 0) & (cuts < size)]
        lands = cuts + d[:, None]
        return ((lands >= 0) & (lands < size)).astype(np.int64)

    degree = inside(steps[:, 0], w).T @ inside(steps[:, 1], h)
    return int(degree.min()), int(degree.max())


def _degree_range(g: UnitDistanceGraph) -> tuple[int, int]:
    if g.grid is not None:
        return _grid_degree_range(g.grid[2], g.grid[3], g.vectors)
    degs = list(map(len, g.adj))
    return min(degs, default=0), max(degs, default=0)


def degree_summary(g: UnitDistanceGraph) -> DegreeSummary:
    low, high = _degree_range(g)
    return DegreeSummary(
        min_degree=low,
        max_degree=high,
        vertex_count=g.vertex_count,
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
        threshold = g.edge_count / (2 * g.vertex_count) if g.vertex_count else 0.0
    if not g.vertex_count or _degree_range(g)[0] >= threshold:
        return g
    g_points, g_adj = g.points, g.adj
    alive = peel_adjacency(dict(enumerate(g_adj)), threshold)
    keep = sorted(alive)
    remap = {old: new for new, old in enumerate(keep)}
    points = [g_points[i] for i in keep]
    adj: list[list[int]] = []
    edge_count = 0
    for old in keep:
        row = [remap[j] for j in g_adj[old] if j in alive]
        edge_count += sum(1 for j in g_adj[old] if j in alive and j > old)
        adj.append(row)
    return UnitDistanceGraph(points, g.m, adj, edge_count, g.vectors)
