"""Irredundant path enumeration on unit-distance graphs.

A k-edge path is irredundant when no nonempty subset of its displacement
vectors sums to zero (which also rules out repeated vertices).  The DFS
prunes with the running set of all nonempty prefix-subset sums: a
continuation z is admissible exactly when -z is absent from that set.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain

from .gaussian import GaussInt
from .udgraph import UnitDistanceGraph, build_graph

MAX_PATH_LENGTH = 20
DEFAULT_STEP_BUDGET = 10**9


class StepBudgetExceeded(RuntimeError):
    def __init__(self, projected: int, budget: int):
        super().__init__(
            f"projected {projected} DFS steps exceed the budget of {budget}; "
            f"raise --step-budget or UDL_STEP_BUDGET to force the run"
        )
        self.projected = projected
        self.budget = budget


def effective_step_budget(value: int | None = None) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("UDL_STEP_BUDGET")
    return int(env) if env else DEFAULT_STEP_BUDGET


def _check_budget(projected: int, budget: int | None) -> None:
    limit = effective_step_budget(budget)
    if projected > limit:
        raise StepBudgetExceeded(projected, limit)


@dataclass(frozen=True)
class PathRecord:
    """Vertex sequence p_0 .. p_k plus the k displacement vectors."""

    vertices: tuple[tuple[int, int], ...]
    vectors: tuple[GaussInt, ...]

    @classmethod
    def from_vertices(cls, vertices) -> "PathRecord":
        verts = tuple((int(x), int(y)) for x, y in vertices)
        if not verts:
            raise ValueError("a path needs at least one vertex")
        vecs = tuple(GaussInt(b[0] - a[0], b[1] - a[1]) for a, b in zip(verts, verts[1:]))
        return cls(vertices=verts, vectors=vecs)


def _vector_list(path) -> list[tuple[int, int]]:
    vecs = getattr(path, "vectors", path)
    return [(v.a, v.b) if isinstance(v, GaussInt) else (int(v[0]), int(v[1])) for v in vecs]


def is_irredundant(path) -> bool:
    """Exhaustive subset-sum check over the path's displacement vectors.

    Accepts a PathRecord or a plain vector sequence.  2^k - 1 subsets, so k
    is capped at MAX_PATH_LENGTH.
    """
    vecs = _vector_list(path)
    k = len(vecs)
    if k > MAX_PATH_LENGTH:
        raise ValueError(f"subset check needs k <= {MAX_PATH_LENGTH}, got {k}")
    sums: list[complex] = [0j] * (1 << k)
    zs = [complex(a, b) for a, b in vecs]
    for mask in range(1, 1 << k):
        low = mask & -mask
        s = sums[mask ^ low] + zs[low.bit_length() - 1]
        if s == 0:
            return False
        sums[mask] = s
    return True


def _adjvec(g: UnitDistanceGraph):
    """Per-vertex tuples (neighbor index, u - w as complex), cached on g."""
    cached = getattr(g, "_adjvec", None)
    if cached is None:
        pts = g.points
        cached = []
        for i, row in enumerate(g.adj):
            x, y = pts[i]
            cached.append(tuple((j, complex(x - pts[j][0], y - pts[j][1])) for j in row))
        g._adjvec = cached
        g._negsets = [frozenset(nz for _, nz in row) for row in cached]
    return cached, g._negsets


def _resolve_start(g: UnitDistanceGraph, start) -> int:
    key = (int(start[0]), int(start[1]))
    if g.grid is None:
        i = g.index.get(key)
    else:
        x0, y0, w, h = g.grid
        ox, oy = key[0] - x0, key[1] - y0
        i = ox * h + oy if 0 <= ox < w and 0 <= oy < h else None
    if i is None:
        raise ValueError(f"start vertex {key} is not in the graph")
    return i


def _validate_k(k: int) -> None:
    if not 1 <= k <= MAX_PATH_LENGTH:
        raise ValueError(f"k must be in [1, {MAX_PATH_LENGTH}], got {k}")


def count_irredundant_from(
    g: UnitDistanceGraph, start, k: int, *, step_budget: int | None = None
) -> int:
    """Number of irredundant k-edge paths leaving `start`."""
    _validate_k(k)
    _check_budget(max(len(g.vectors), 1) ** k, step_budget)
    i = _resolve_start(g, start)
    adjvec, negsets = _adjvec(g)
    return _count_from(adjvec, negsets, i, k)


def _count_from(adjvec, negsets, i: int, k: int) -> int:
    if k == 1:
        return len(adjvec[i])
    S: set[complex] = set()

    def rec(u: int, remaining: int) -> int:
        if remaining == 1:
            # a neighbor w is blocked exactly when u - w is a prefix-subset sum
            c = len(adjvec[u])
            negs = negsets[u]
            for s in S:
                if s in negs:
                    c -= 1
            return c
        total = 0
        for w, nz in adjvec[u]:
            if nz in S:
                continue
            z = -nz
            added = [x for x in chain((z,), (s + z for s in S)) if x not in S]
            S.update(added)
            total += rec(w, remaining - 1)
            S.difference_update(added)
        return total

    return rec(i, k)


def enumerate_irredundant_from(g: UnitDistanceGraph, start, k: int, *, step_budget: int | None = None):
    """Yield the PathRecords themselves; same pruning as the counter."""
    _validate_k(k)
    _check_budget(max(len(g.vectors), 1) ** k, step_budget)
    i = _resolve_start(g, start)
    adjvec, _ = _adjvec(g)
    pts = g.points
    S: set[complex] = set()
    trail = [i]

    def rec(u: int, remaining: int):
        for w, nz in adjvec[u]:
            if nz in S:
                continue
            trail.append(w)
            if remaining == 1:
                yield PathRecord.from_vertices([pts[t] for t in trail])
            else:
                z = -nz
                added = [x for x in chain((z,), (s + z for s in S)) if x not in S]
                S.update(added)
                yield from rec(w, remaining - 1)
                S.difference_update(added)
            trail.pop()

    yield from rec(i, k)


def count_irredundant_many(
    g: UnitDistanceGraph, starts, k: int, *, workers: int = 1, step_budget: int | None = None
) -> dict[tuple[int, int], int]:
    """Counts for several start vertices.

    On a full grid every count is read from one field built from the
    irredundant k-tuples of vectors (see `_grid_paths`); no DFS runs and
    `workers` is unused.  Other point sets run a per-start DFS, spread over
    `workers` processes.
    """
    _validate_k(k)
    starts = [(int(s[0]), int(s[1])) for s in starts]
    _check_budget(len(starts) * max(len(g.vectors), 1) ** k, step_budget)
    for s in starts:
        _resolve_start(g, s)
    dims = g.grid
    if dims is not None:
        x0, y0, _, _ = dims
        _, field = _grid_paths(g, k, dims)
        return {s: int(field[s[0] - x0, s[1] - y0]) for s in starts}
    if workers <= 1 or len(starts) < 2:
        adjvec, negsets = _adjvec(g)
        return {s: _count_from(adjvec, negsets, g.index[s], k) for s in starts}
    chunks = [starts[i::workers] for i in range(workers)]
    out: dict[tuple[int, int], int] = {}
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_pool_init, initargs=(g.points, g.m)
    ) as pool:
        for part in pool.map(_pool_count_chunk, [(c, k) for c in chunks if c]):
            out.update(part)
    return {s: out[s] for s in starts}


_POOL_GRAPH: UnitDistanceGraph | None = None


def _pool_init(points, m) -> None:
    global _POOL_GRAPH
    _POOL_GRAPH = build_graph(points, m)


def _pool_count_chunk(job):
    starts, k = job
    g = _POOL_GRAPH
    adjvec, negsets = _adjvec(g)
    return {s: _count_from(adjvec, negsets, g.index[s], k) for s in starts}


def _pool_pairs_chunk(job):
    starts, k = job
    g = _POOL_GRAPH
    adjvec, _ = _adjvec(g)
    out: dict = {}
    for s in starts:
        _pairs_from(g, adjvec, g.index[s], k, out)
    return out


def _pairs_from(g: UnitDistanceGraph, adjvec, i: int, k: int, out: dict) -> None:
    pts = g.points
    start = pts[i]
    S: set[complex] = set()

    def rec(u: int, remaining: int):
        if remaining == 1:
            for w, nz in adjvec[u]:
                if nz not in S:
                    key = (start, pts[w])
                    out[key] = out.get(key, 0) + 1
            return
        for w, nz in adjvec[u]:
            if nz in S:
                continue
            z = -nz
            added = [x for x in chain((z,), (s + z for s in S)) if x not in S]
            S.update(added)
            rec(w, remaining - 1)
            S.difference_update(added)

    rec(i, k)


def per_pair_counts(
    g: UnitDistanceGraph,
    k: int,
    starts=None,
    *,
    workers: int = 1,
    step_budget: int | None = None,
) -> dict[tuple[tuple[int, int], tuple[int, int]], int]:
    """Ordered-pair path counts |P_vw| for every start v.

    Pairs are ordered: (v, w) and (w, v) are counted separately (reversal is
    a bijection between the two path families, so the counts agree).
    """
    _validate_k(k)
    if starts is None:
        starts = list(g.points)
    else:
        starts = [(int(s[0]), int(s[1])) for s in starts]
        for s in starts:
            _resolve_start(g, s)
    _check_budget(len(starts) * max(len(g.vectors), 1) ** k, step_budget)
    out: dict = {}
    if workers <= 1 or len(starts) < 2:
        adjvec, _ = _adjvec(g)
        for s in starts:
            _pairs_from(g, adjvec, g.index[s], k, out)
        return out
    chunks = [starts[i::workers] for i in range(workers)]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_pool_init, initargs=(g.points, g.m)
    ) as pool:
        for part in pool.map(_pool_pairs_chunk, [(c, k) for c in chunks if c]):
            for key, val in part.items():
                out[key] = out.get(key, 0) + val
    return out


def path_count_lower_bound(delta: int, k: int) -> int:
    """prod_{l=0}^{k-1} max(delta - 2^l + 1, 0)."""
    if delta < 0 or k < 1:
        raise ValueError(f"need delta >= 0 and k >= 1, got delta={delta}, k={k}")
    out = 1
    for level in range(k):
        out *= max(delta - (1 << level) + 1, 0)
    return out


def _tuple_stats(vectors, k: int):
    """Stats for every irredundant k-tuple of displacement vectors.

    Returns six int64 arrays (sum_x, sum_y, min/max prefix x, min/max prefix
    y), extremes taken over all prefix sums including the empty one, in DFS
    order: lexicographic in the vector order.  The DFS stops at depth k - 1;
    the last vector is broadcast over every prefix, minus the blocked ones
    (z is blocked when -z is a prefix-subset sum).
    """
    import numpy as np

    vecs = [(dx, dy, complex(dx, dy)) for dx, dy in vectors]
    blocker = {-z: j for j, (_, _, z) in enumerate(vecs)}
    prefixes: list[tuple[int, int, int, int, int, int]] = []
    blocked_rows: list[int] = []
    blocked_cols: list[int] = []
    S: set[complex] = set()

    def rec(remaining, sx, sy, mnx, mxx, mny, mxy):
        if remaining == 1:
            row = len(prefixes)
            prefixes.append((sx, sy, mnx, mxx, mny, mxy))
            for s in S:
                j = blocker.get(s)
                if j is not None:
                    blocked_rows.append(row)
                    blocked_cols.append(j)
            return
        for dx, dy, z in vecs:
            if -z in S:
                continue
            nsx, nsy = sx + dx, sy + dy
            added = [x for x in chain((z,), (s + z for s in S)) if x not in S]
            S.update(added)
            rec(
                remaining - 1,
                nsx,
                nsy,
                nsx if nsx < mnx else mnx,
                nsx if nsx > mxx else mxx,
                nsy if nsy < mny else mny,
                nsy if nsy > mxy else mxy,
            )
            S.difference_update(added)

    rec(k, 0, 0, 0, 0, 0, 0)
    pre = np.array(prefixes, dtype=np.int64).reshape(-1, 6)
    allowed = np.ones((len(prefixes), len(vecs)), dtype=bool)
    allowed[blocked_rows, blocked_cols] = False
    rows, cols = np.nonzero(allowed)
    step = np.array([(dx, dy) for dx, dy, _ in vecs], dtype=np.int64).reshape(-1, 2)
    sx = pre[rows, 0] + step[cols, 0]
    sy = pre[rows, 1] + step[cols, 1]
    return (
        sx,
        sy,
        np.minimum(pre[rows, 2], sx),
        np.maximum(pre[rows, 3], sx),
        np.minimum(pre[rows, 4], sy),
        np.maximum(pre[rows, 5], sy),
    )


def _grid_paths(g: UnitDistanceGraph, k: int, dims):
    """(rects, field) for the full grid g, built once per k and cached on g.

    rects = (sx, sy, ax, bx, ay, by) covers each irredundant k-tuple that fits
    the grid: its total displacement and the rectangle [ax, bx] x [ay, by] of
    start offsets v - (x0, y0) whose prefix bounding box stays inside.
    field[ox, oy] is the number of irredundant k-paths leaving (x0+ox, y0+oy):
    the rectangles summed through a 2D difference array and two cumsums.
    """
    import numpy as np

    cache = getattr(g, "_grid_paths", None)
    if cache is None:
        cache = g._grid_paths = {}
    if k not in cache:
        _, _, w, h = dims
        sx, sy, mnx, mxx, mny, mxy = _tuple_stats(g.vectors, k)
        ax, bx, ay, by = -mnx, w - 1 - mxx, -mny, h - 1 - mxy
        keep = (ax <= bx) & (ay <= by)
        rects = tuple(col[keep] for col in (sx, sy, ax, bx, ay, by))
        _, _, ax, bx, ay, by = rects
        cells = (w + 1) * (h + 1)

        def corners(x, y):
            return np.bincount(x * (h + 1) + y, minlength=cells)

        diff = corners(ax, ay) - corners(bx + 1, ay) - corners(ax, by + 1) + corners(bx + 1, by + 1)
        field = diff.reshape(w + 1, h + 1).cumsum(axis=0).cumsum(axis=1)[:w, :h]
        cache[k] = (rects, field)
    return cache[k]


def _grid_effort(r: int, k: int) -> int:
    return sum(max(r, 1) ** i for i in range(1, k + 1))


def total_irredundant_paths(
    g: UnitDistanceGraph, k: int, *, workers: int = 1, step_budget: int | None = None
) -> int:
    """Total irredundant k-edge paths over all start vertices.

    On a full grid this is the sum of the per-start count field (see
    `count_irredundant_many`); otherwise it sums per-start DFS counts.
    """
    _validate_k(k)
    dims = g.grid
    if dims is None:
        counts = count_irredundant_many(g, list(g.points), k, workers=workers, step_budget=step_budget)
        return sum(counts.values())
    _check_budget(_grid_effort(len(g.vectors), k), step_budget)
    _, _, w, h = dims
    rects, field = _grid_paths(g, k, dims)
    if len(rects[0]) * w * h < 2**63:
        return int(field.sum())
    # every start may carry every tuple: an int64 sum could wrap
    return sum(field.ravel().tolist())


def max_pair_count(
    g: UnitDistanceGraph, k: int, *, workers: int = 1, step_budget: int | None = None
) -> tuple[tuple[int, int] | None, tuple[int, int] | None, int]:
    """The ordered pair (v, w) maximizing the irredundant path count |P_vw|.

    Ties break toward the lexicographically smallest (v, w).  On a full grid
    the tuples that fit are grouped by total displacement w - v; inside one
    group |P_vw| is the depth of v in the group's start rectangles.  Groups
    are visited largest first, stopping once a group has fewer rectangles
    than the best depth found, and each is evaluated only at its compressed
    corners.  Anything else falls back to per-start DFS.
    """
    _validate_k(k)
    dims = g.grid
    if dims is not None and g.vertex_count > 1:
        _check_budget(_grid_effort(len(g.vectors), k), step_budget)
        return _max_pair_grid(g, k, dims)
    pairs = per_pair_counts(g, k, workers=workers, step_budget=step_budget)
    best = (None, None, 0)
    for (v, w), count in pairs.items():
        if count > best[2] or (count == best[2] and best[0] is not None and (v, w) < (best[0], best[1])):
            best = (v, w, count)
    return best


def _max_pair_grid(g: UnitDistanceGraph, k: int, dims):
    import numpy as np

    x0, y0, _, _ = dims
    rects, _ = _grid_paths(g, k, dims)
    if len(rects[0]) == 0:
        return (None, None, 0)
    order = np.lexsort((rects[1], rects[0]))
    sx, sy, ax, bx, ay, by = (col[order] for col in rects)
    heads = np.flatnonzero(np.r_[True, (np.diff(sx) != 0) | (np.diff(sy) != 0)])
    ends = np.r_[heads[1:], len(sx)]
    visit = np.argsort(heads - ends, kind="stable").tolist()  # largest group first
    heads, ends = heads.tolist(), ends.tolist()
    best_count = 0
    best_vw = None
    for gi in visit:
        lo, hi = heads[gi], ends[gi]
        if hi - lo < best_count:
            break  # depth never exceeds a group's rectangle count
        gax, gbx, gay, gby = ax[lo:hi], bx[lo:hi], ay[lo:hi], by[lo:hi]
        # the lexicographically smallest deepest point has some ax as its x
        # and some ay as its y: moving left or down from anywhere else keeps
        # every rectangle that covered it
        ux = np.unique(gax)
        uy = np.unique(gay)
        inx = ((gax[:, None] <= ux) & (ux <= gbx[:, None])).astype(np.int64)
        iny = ((gay[:, None] <= uy) & (uy <= gby[:, None])).astype(np.int64)
        depth = inx.T @ iny
        flat = int(depth.argmax())
        peak = int(depth.flat[flat])
        i, j = divmod(flat, len(uy))
        v = (x0 + int(ux[i]), y0 + int(uy[j]))
        wpt = (v[0] + int(sx[lo]), v[1] + int(sy[lo]))
        if peak > best_count or (peak == best_count and (v, wpt) < best_vw):
            best_count = peak
            best_vw = (v, wpt)
    return (best_vw[0], best_vw[1], best_count)
