"""Unit-distance graphs on integer point sets, with exact squared-distance
edges found by displacement-vector probing rather than pair scans."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .gaussian import _lattice_points
from .numtheory import factor

# positions one gather or scatter takes at once: box rows of `_box_depth`,
# table entries of `edges`, and the path statistics' tuple blocks
_GATHER_BUDGET = 1 << 14


def lattice_vectors(m: int) -> list[tuple[int, int]]:
    """All integer displacements (dx, dy) with dx^2 + dy^2 = m, sorted, as
    Gaussian-prime products over the factorisation of m."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return sorted(_lattice_points(factor(m)))


class UnitDistanceGraph:
    """Graph on lattice points whose edges are the pairs at squared distance m.

    Vertices are kept sorted lexicographically.  Besides its points, an
    explicit graph stores only `neighbours`, the (R, n+1) table whose [j, i]
    is the index of point i + vector j (vectors sorted), or n when absent,
    with column n all n; edges, edge count and degrees derive from it.
    `grid` is (x0, y0, width, height) when the vertices fill that box, else
    None.  A graph made by `grid_graph` counts its edges in closed form and
    builds its points, index and table only on first access, by the same
    probing as `build_graph`.
    """

    def __init__(
        self,
        points: list[tuple[int, int]] | None,
        m: int,
        neighbours,
        vectors: list[tuple[int, int]],
        *,
        grid: tuple[int, int, int, int] | None = None,
    ):
        self.m = m
        self.vectors = vectors
        self.grid = grid if points is None else _grid_dims(points)
        self._points = points
        self._neighbours = neighbours
        self._index: dict[tuple[int, int], int] | None = None
        self._degrees = None
        if neighbours is None:  # 1/2 * sum over vectors of (width - |dx|)+ (height - |dy|)+
            twice = sum(max(grid[2] - abs(dx), 0) * max(grid[3] - abs(dy), 0) for dx, dy in vectors)
        else:  # vectors are closed under negation, so each edge is in two columns
            twice = int(self.degrees.sum())
        self.edge_count = twice // 2

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
    def neighbours(self):
        if self._neighbours is None:
            self._neighbours = _probe(self.points, self.index, self.vectors)
        return self._neighbours

    @property
    def degrees(self):
        """Entry i is the degree of vertex i: the vectors that land on a point."""
        if self._degrees is None:
            n = self.vertex_count
            self._degrees = (self.neighbours[:, :n] != n).sum(axis=0)
        return self._degrees

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

    def edges(self):
        """Canonical (p, q) pairs with p < q, ascending: each i's neighbours
        j > i in vector order, which is the order of their points.  The
        table is read one block of vertices at a time."""
        import numpy as np

        n, points, table = self.vertex_count, self.points, self.neighbours
        block = max(1, _GATHER_BUDGET // max(len(self.vectors), 1))
        for lo in range(0, n, block):
            cols = table[:, lo : min(lo + block, n)].T
            later = (cols > np.arange(lo, lo + len(cols))[:, None]) & (cols != n)
            for i, j in zip((np.nonzero(later)[0] + lo).tolist(), cols[later].tolist()):
                yield (points[i], points[j])

    def edge_lines(self):
        """One "x1 y1 x2 y2" line per edge, newline included, in `edges` order."""
        for p, q in self.edges():
            yield f"{p[0]} {p[1]} {q[0]} {q[1]}\n"

    def to_edge_text(self) -> str:
        """The edge lines joined: lexicographically sorted."""
        return "".join(self.edge_lines())

    def same_as(self, other: "UnitDistanceGraph") -> bool:
        return (
            self.points == other.points
            and self.m == other.m
            and self.edge_count == other.edge_count
            and (self.neighbours == other.neighbours).all()
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


def _probe(points, index, vectors):
    """The (R, n+1) neighbour table of sorted `points` (see `UnitDistanceGraph`):
    [j, i] is the index of point i + vector j in `index`, or n when absent.

    Cost is O(n * R(m)) hash lookups instead of the O(n^2) pair scan.
    """
    import numpy as np

    n, get = len(points), index.get
    table = np.full((len(vectors), n + 1), n, dtype=np.intp)
    for j, (dx, dy) in enumerate(vectors):
        table[j, :n] = [get((x + dx, y + dy), n) for x, y in points]
    return table


def grid_graph(
    width: int, m: int, *, height: int | None = None, corner: tuple[int, int] = (0, 0)
) -> UnitDistanceGraph:
    """The graph on the width x height grid with lower-left corner `corner`
    (height defaults to width).

    Points, index and neighbour table are built only when something asks
    for them.
    """
    height = width if height is None else height
    if width < 1 or height < 1:
        raise ValueError(f"grid needs width and height >= 1, got {width} x {height}")
    return UnitDistanceGraph(None, m, None, lattice_vectors(m), grid=(int(corner[0]), int(corner[1]), width, height))


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
    return UnitDistanceGraph(pts, m, _probe(pts, {p: i for i, p in enumerate(pts)}, vectors), vectors)


def _distinct(values):
    """The distinct values, sorted (not `np.unique`, which imports numpy.ma)."""
    import numpy as np

    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _box_depth(xa, xb, ya, yb, ux, uy, weight=1):
    """depth[i, j]: the summed integer weights (one per row, or one for all) of
    the boxes [xa, xb] x [ya, yb], one per row, that hold (ux[i], uy[j]), for
    sorted distinct ux and uy.  Each side column is ranked by a table over its
    span when that span is no longer than the rows, else by searchsorted;
    `_GATHER_BUDGET` rows at a time then put +weight at two corners of their
    rank boxes and -weight at the other two, and one int64 field is summed
    along both axes in place."""
    import numpy as np

    def ranker(col, u, side):  # a table never outnumbers the rows it ranks
        lo, hi = (int(col.min()), int(col.max())) if len(col) else (0, 0)
        if hi - lo >= len(col):
            return lambda part: np.searchsorted(u, col[part], side)
        table = np.searchsorted(u, np.arange(lo, hi + 1), side)
        return lambda part: table.take(col[part] - lo)

    cols = len(uy) + 1
    field = np.zeros((len(ux) + 1) * cols, dtype=np.int64)
    sides = (xa, ux, "left"), (xb, ux, "right"), (ya, uy, "left"), (yb, uy, "right")
    ranks = [ranker(*side) for side in sides]
    for lo in range(0, len(xa), _GATHER_BUDGET):
        part = slice(lo, lo + _GATHER_BUDGET)
        a, b, c, d = (rank(part) for rank in ranks)
        w = weight if np.ndim(weight) == 0 else weight[part]
        np.add.at(field, a * cols + c, w)  # in place, as no second field is held
        np.add.at(field, b * cols + d, w)
        np.subtract.at(field, b * cols + c, w)
        np.subtract.at(field, a * cols + d, w)
    field = field.reshape(-1, cols)
    np.cumsum(field, axis=0, out=field)
    np.cumsum(field, axis=1, out=field)
    return field[: len(ux), : len(uy)]


def _grid_degree_range(w: int, h: int, vectors) -> tuple[int, int]:
    """(min, max) degree on the w x h grid without touching its vertices.

    The degree at offset (ox, oy) counts the vectors d with ox in
    [-dx, w - 1 - dx] and oy in [-dy, h - 1 - dy].  Along x it can change
    only where some ox + dx enters or leaves [0, w), so the cuts 0, -dx and
    w - dx, clipped into the grid, times the cuts along y meet every degree
    the grid has: the `_box_depth` of the vectors' boxes at those cuts.
    """
    import numpy as np

    dx, dy = np.array(vectors, dtype=np.int64).reshape(-1, 2).T
    ux = _distinct(np.clip(np.r_[0, -dx, w - dx], 0, w - 1))
    uy = _distinct(np.clip(np.r_[0, -dy, h - dy], 0, h - 1))
    degree = _box_depth(-dx, w - 1 - dx, -dy, h - 1 - dy, ux, uy)
    return int(degree.min()), int(degree.max())


def _degree_range(g: UnitDistanceGraph) -> tuple[int, int]:
    """(min, max) degree of g, cached on g."""
    if getattr(g, "_range", None) is None:
        if g.grid is not None:
            g._range = _grid_degree_range(g.grid[2], g.grid[3], g.vectors)
        else:
            degs = g.degrees
            g._range = (int(degs.min()), int(degs.max())) if len(degs) else (0, 0)
    return g._range


def degree_summary(g: UnitDistanceGraph) -> DegreeSummary:
    low, high = _degree_range(g)
    return DegreeSummary(
        min_degree=low,
        max_degree=high,
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
    )


def peel(g: UnitDistanceGraph, threshold: float | None = None) -> UnitDistanceGraph:
    """Induced subgraph with every degree >= threshold (default e/(2v)).

    Each removed vertex takes fewer than `threshold` edges with it, so the
    survivor keeps e(H) > e(G) - v(G) * threshold; at the default threshold
    that is at least half the edges.  May be empty when the threshold exceeds
    the degeneracy.  When no vertex is below the threshold, returns g itself.

    Peels in waves over the neighbour table: each wave drops the live
    vertices below the threshold and lowers their live neighbours' degrees.
    The survivors do not depend on the order of removal.
    """
    if threshold is None:
        threshold = g.edge_count / (2 * g.vertex_count) if g.vertex_count else 0.0
    if not g.vertex_count or _degree_range(g)[0] >= threshold:
        return g
    import numpy as np

    n, table, points = g.vertex_count, g.neighbours, g.points
    degree, alive = g.degrees.copy(), np.ones(n + 1, dtype=bool)
    alive[n] = False  # the absent-point sentinel
    wave = np.flatnonzero(degree < threshold)
    while len(wave):
        alive[wave] = False
        hit = table[:, wave].ravel()
        hit = hit[alive[hit]]
        np.subtract.at(degree, hit, 1)
        wave = _distinct(hit[degree[hit] < threshold])
    keep = np.flatnonzero(alive)
    remap = np.full(n + 1, len(keep), dtype=np.intp)  # dropped vertices and n go to the new sentinel
    remap[keep] = np.arange(len(keep))
    return UnitDistanceGraph([points[i] for i in keep.tolist()], g.m, remap[table[:, np.append(keep, n)]], g.vectors)
