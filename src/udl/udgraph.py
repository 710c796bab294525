"""Unit-distance graphs on integer point sets, with exact squared-distance
edges located by box arithmetic or sorted keys rather than pair scans."""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable

from .gaussian import _lattice_points
from .numtheory import factor

# positions one gather or scatter takes at once: box rows of `_box_scatter`,
# table entries of `edge_lines`, the path statistics' tuple blocks, and the
# rects, before the fit cut, of one range of the grid statistics' fold
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
    None.  Points are located by box arithmetic or sorted keys (`locate`),
    and every coordinate moved by any vector must fit in int64, so none is
    -2^63.  A grid keeps no derived copy: it counts its edges in closed form
    and locates them by box arithmetic, so it builds its table only when
    `neighbours` is read (per-pair counts, `peel` below its minimum degree),
    and one made by `grid_graph` lists its points only when `points` is read.
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
        box = grid if points is None else _bounding_box(points)
        reach = max((max(abs(dx), abs(dy)) for dx, dy in vectors), default=0)
        lo, hi = (min(box[:2]), max(box[0] + box[2], box[1] + box[3]) - 1) if box else (0, 0)
        if max(-lo, hi) + reach >= 1 << 63:
            raise ValueError(f"coordinates from {lo} to {hi}, moved by up to {reach}, do not fit in int64")
        self.grid = box if points is None or box and box[2] * box[3] == len(points) else None
        self._points = points
        self._neighbours = neighbours
        self._keys = None
        self._degrees = None
        self._range = None
        if self.grid is not None:  # 1/2 * sum over vectors of (width - |dx|)+ (height - |dy|)+
            twice = sum(max(self.grid[2] - abs(dx), 0) * max(self.grid[3] - abs(dy), 0) for dx, dy in vectors)
        else:  # vectors are closed under negation, so each edge is in two columns
            twice = int(self.degrees.sum())
        self.edge_count = twice // 2

    @property
    def points(self) -> list[tuple[int, int]]:
        if self._points is None:
            self._points = list(zip(*(c.tolist() for c in self._coordinates())))
        return self._points

    @property
    def neighbours(self):
        if self._neighbours is None:
            self._neighbours = _neighbour_table(self)
        return self._neighbours

    def _coordinates(self):
        """(x, y): the int64 coordinate columns of the vertices, in order."""
        import numpy as np

        if self._points is not None:
            return np.array(self._points, dtype=np.int64).reshape(-1, 2).T
        i = np.arange(self.vertex_count, dtype=np.int64)
        return self.grid[0] + i // self.grid[3], self.grid[1] + i % self.grid[3]

    def locate(self, x, y):
        """The vertex at each (x[i], y[i]) of the int64 arrays x and y, or n.
        On a grid, offset (ox, oy) in the box is vertex ox * height + oy;
        otherwise the sorted points' keys, rank of x * distinct ys + rank of
        y, ascend and are searched, so no coordinate is packed and none wraps."""
        import numpy as np

        n = self.vertex_count
        if self.grid is not None:
            x0, y0, w, h = self.grid
            inside = (x >= x0) & (x <= x0 + w - 1) & (y >= y0) & (y <= y0 + h - 1)  # no bound past int64
            ox = x - x0 if n < 1 << 63 else (x - x0).astype(object)  # an index past int64 stays exact
            return np.where(inside, ox * h + (y - y0), n)
        if not n:
            return np.zeros(len(x), dtype=np.intp)
        if self._keys is None:
            px, py = self._coordinates()
            xs, ys = _distinct(px), _distinct(py)
            self._keys = xs, ys, np.searchsorted(xs, px) * len(ys) + np.searchsorted(ys, py)
        xs, ys, keys = self._keys
        rx, ry = np.searchsorted(xs, x), np.searchsorted(ys, y)
        key = rx * len(ys) + ry
        at = np.searchsorted(keys, key)
        hit = (xs.take(rx, mode="clip") == x) & (ys.take(ry, mode="clip") == y) & (keys.take(at, mode="clip") == key)
        return np.where(hit, at, n)

    @property
    def degrees(self):
        """Entry i is the degree of vertex i: the vectors that land on a point."""
        if self._degrees is None:
            n = self.vertex_count
            self._degrees = (self.neighbours[:, :n] != n).sum(axis=0)
        return self._degrees

    @property
    def vertex_count(self) -> int:
        return self.grid[2] * self.grid[3] if self._points is None else len(self._points)

    def point(self, i: int) -> tuple[int, int]:
        """The i-th vertex, without listing a lazy grid's points."""
        if self._points is not None:
            return self._points[i]
        return self.grid[0] + i // self.grid[3], self.grid[1] + i % self.grid[3]

    def edge_lines(self):
        """The edge text, one "x1 y1 x2 y2" line per edge with p < q, in
        blocks of whole lines: each i's neighbours j > i in vector order,
        which is the order of their points, so the lines ascend.  Each block
        of vertices gives one block of text (none when it has no edge),
        formatted from its int64 coordinate columns at once.  A grid locates
        the block moved by every vector, so it never builds its table, and
        any other graph reads the block's columns of its table."""
        import numpy as np

        n, (x, y) = self.vertex_count, self._coordinates()
        vx, vy = np.array(self.vectors, dtype=np.int64).reshape(-1, 2).T
        block = max(1, _GATHER_BUDGET // max(len(self.vectors), 1))
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            if self.grid is None:
                cols = self.neighbours[:, lo:hi].T
            else:
                cols = self.locate(x[lo:hi, None] + vx, y[lo:hi, None] + vy)
            later = (cols > np.arange(lo, hi)[:, None]) & (cols != n)
            i, j = np.nonzero(later)[0] + lo, cols[later]
            if len(i):
                yield ("%d %d %d %d\n" * len(i)) % tuple(np.column_stack((x[i], y[i], x[j], y[j])).ravel().tolist())


@dataclass(frozen=True)
class DegreeSummary:
    min_degree: int
    max_degree: int
    vertex_count: int
    edge_count: int


def _bounding_box(points) -> tuple[int, int, int, int] | None:
    """(x0, y0, width, height) of the sorted point list; None when empty."""
    ys = [p[1] for p in points]
    return (points[0][0], min(ys), points[-1][0] - points[0][0] + 1, max(ys) - min(ys) + 1) if points else None


def _neighbour_table(g: UnitDistanceGraph):
    """The (R, n+1) neighbour table of g (see `UnitDistanceGraph`): row j is
    `g.locate` of every vertex moved by vector j, and column n is all n."""
    import numpy as np

    n, (x, y) = g.vertex_count, g._coordinates()
    table = np.full((len(g.vectors), n + 1), n, dtype=np.intp)
    for j, (dx, dy) in enumerate(g.vectors):
        table[j, :n] = g.locate(x + dx, y + dy)
    return table


def grid_graph(
    width: int, m: int, *, height: int | None = None, corner: tuple[int, int] = (0, 0)
) -> UnitDistanceGraph:
    """The graph on the width x height grid with lower-left corner `corner`
    (height defaults to width).

    Points and neighbour table are built only when something asks for
    them; vertices are located by box arithmetic.
    """
    height = width if height is None else height
    if width < 1 or height < 1:
        raise ValueError(f"grid needs width and height >= 1, got {width} x {height}")
    return UnitDistanceGraph(None, m, None, lattice_vectors(m), grid=(int(corner[0]), int(corner[1]), width, height))


def build_graph(points: Iterable[tuple[int, int]], m: int) -> UnitDistanceGraph:
    """The graph of squared distance m on `points`, a grid when they fill
    their bounding box.  Duplicate points, and coordinates that int64
    cannot hold once moved by a vector of m, are rejected, and so is a
    coordinate that is not an integer (TypeError from `operator.index`).
    """
    pts = sorted((index(x), index(y)) for x, y in points)
    if any(a == b for a, b in zip(pts, pts[1:])):
        raise ValueError("duplicate points in input")
    return UnitDistanceGraph(pts, m, None, lattice_vectors(m))


def _distinct(values):
    """The distinct values, sorted (not `np.unique`, which imports numpy.ma)."""
    import numpy as np

    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _box_depth(xa, xb, ya, yb, ux, uy):
    """depth[i, j]: how many of the boxes [xa, xb] x [ya, yb], one per row,
    hold (ux[i], uy[j]), for sorted distinct ux and uy: one `_box_scatter`
    into a zero field, then `_field_depth`."""
    import numpy as np

    field = np.zeros((len(ux) + 1) * (len(uy) + 1), dtype=np.int64)
    _box_scatter(field, xa, xb, ya, yb, ux, uy)
    return _field_depth(field, ux, uy)


def _box_scatter(field, xa, xb, ya, yb, ux, uy, weight=1):
    """Add the boxes [xa, xb] x [ya, yb] to the flat int64 difference `field`
    of (len(ux) + 1) x (len(uy) + 1) cells, so that `_field_depth` reads
    their depths; scatters of several row sets into one field add up.  Each
    side column is ranked by a table over the span from its min to its max
    when that span is no longer than the rows, else by searchsorted, so a
    table never outnumbers the rows it ranks and no value falls outside it;
    `_GATHER_BUDGET` rows at a time then put +weight at two corners of their
    rank boxes and -weight at the other two.  Per-row weights are best
    int64, as the field is: narrower ones take `np.add.at` off its fast path
    (int8 orbit weights made the sampled grid counts 1.7 to 2.3 times
    slower)."""
    import numpy as np

    def ranker(col, u, side):  # a table never outnumbers the rows it ranks
        lo, hi = (int(col.min()), int(col.max())) if len(col) else (0, 0)
        if hi - lo >= len(col):
            return lambda part: np.searchsorted(u, col[part], side)
        table = np.searchsorted(u, np.arange(lo, hi + 1), side)
        return lambda part: table.take(np.subtract(col[part], lo, dtype=np.intp))  # intp, which take needs

    cols = len(uy) + 1
    ranks = [ranker(*side) for side in ((xa, ux, "left"), (xb, ux, "right"), (ya, uy, "left"), (yb, uy, "right"))]
    for lo in range(0, len(xa), _GATHER_BUDGET):
        part = slice(lo, lo + _GATHER_BUDGET)
        w = weight if np.ndim(weight) == 0 else weight[part]
        c, d = ranks[2](part), ranks[3](part)
        for rank, at_c, at_d in ((ranks[0], np.add, np.subtract), (ranks[1], np.subtract, np.add)):
            at = rank(part)  # one x rank column at a time, turned in place into the flat cells of both y ranks
            at *= cols
            at += c
            at_c.at(field, at, w)
            at -= c
            at += d
            at_d.at(field, at, w)


def _field_depth(field, ux, uy):
    """The depth field of a `_box_scatter` difference field: summed along
    both axes in place, its last row and column (past every box) dropped."""
    import numpy as np

    field = field.reshape(len(ux) + 1, len(uy) + 1)
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
    if g._range is None:
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
