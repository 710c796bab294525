"""Irredundant path enumeration on unit-distance graphs.

A k-edge path is irredundant when no nonempty subset of its displacement
vectors sums to zero (which also rules out repeated vertices).  Irredundancy
does not depend on the order of the vectors, and all vectors of a graph
share one norm, so a vanishing subsum has an even number of terms and holds
an antipodal pair unless it has six or more.  `_multisets` lists the
irredundant k-multisets by that rule, level by level, sorted by total
displacement; each stands for its distinct orderings (`_orderings`), the
irredundant k-tuples of that displacement.  A k-path is a tuple placed at a
start whose prefix points all lie in the point set.  On a full grid the
counts, total and max pair take that as a box test (`_grid_paths`), and
only for one displacement group per orbit of the box's symmetries (the 8 of
the square, or the 4 flips of an oblong box): the total weights each kept
group by its orbit size, the counts add the group's depths at the images of
each start, and the max pair takes the least image of a group's deepest
pair.  Elsewhere the counts walk the vector tuples once for all starts,
each node the array of the starts' positions (`_start_walks`), and the pair
statistics gather each displacement group's tuples as one block
(`_group_depth`), per-pair counts on a grid too.  That walk and the
reference route, the per-start DFS over the columns of the neighbour table
(`count_irredundant_from`), are one pruned DFS, `_walks`: it keeps the
running set S of all nonempty prefix-subset sums, and a continuation z is
admissible exactly when -z is absent from S.  Every statistic is priced by
one projection, `projected_steps`, and refused before it starts when that
exceeds the step budget.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .udgraph import _GATHER_BUDGET, UnitDistanceGraph, _box_depth, _distinct

MAX_PATH_LENGTH = 20
DEFAULT_STEP_BUDGET = 10**9


class StepBudgetExceeded(RuntimeError):
    def __init__(self, projected: int, budget: int, work="DFS steps", knobs="--step-budget or UDL_STEP_BUDGET"):
        super().__init__(f"projected {projected} {work} exceed the budget of {budget}; raise {knobs} to force the run")
        self.projected = projected
        self.budget = budget


def effective_step_budget(value: int | None = None) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("UDL_STEP_BUDGET")
    return int(env) if env else DEFAULT_STEP_BUDGET


def _check_budget(projected: int, budget: int | None, *message) -> None:
    """Raise StepBudgetExceeded (its `work` and `knobs` from `message`) past the budget."""
    limit = effective_step_budget(budget)
    if projected > limit:
        raise StepBudgetExceeded(projected, limit, *message)


def projected_steps(g: UnitDistanceGraph, k: int, starts=None) -> int:
    """The DFS steps a k-path statistic on g is charged, for R vectors:
    len(starts) * R^k for one walk per start (sampled and per-pair counts,
    the per-start DFS), else, for the total and the max pair,
    R + R^2 + ... + R^k on a full grid and n * R^k on any other point set.
    k is validated before it is priced."""
    if not 1 <= k <= MAX_PATH_LENGTH:
        raise ValueError(f"k must be in [1, {MAX_PATH_LENGTH}], got {k}")
    r = max(len(g.vectors), 1)
    if starts is not None:
        return len(starts) * r**k
    if g.grid is not None:
        return sum(r**i for i in range(1, k + 1))
    return g.vertex_count * r**k


@dataclass(frozen=True)
class PathRecord:
    """Vertex sequence p_0 .. p_k plus the k displacement vectors (dx, dy)."""

    vertices: tuple[tuple[int, int], ...]
    vectors: tuple[tuple[int, int], ...]

    @classmethod
    def from_vertices(cls, vertices) -> "PathRecord":
        verts = tuple((int(x), int(y)) for x, y in vertices)
        if not verts:
            raise ValueError("a path needs at least one vertex")
        vecs = tuple((b[0] - a[0], b[1] - a[1]) for a, b in zip(verts, verts[1:]))
        return cls(vertices=verts, vectors=vecs)


def is_irredundant(path) -> bool:
    """Exhaustive subset-sum check over the path's displacement vectors.

    Accepts a PathRecord or any sequence of integer vectors of one length,
    summed as int tuples, so exact at any size.  2^k - 1 subsets, so k is
    capped at MAX_PATH_LENGTH.  The empty path is irredundant.
    """
    vecs = [tuple(map(int, v)) for v in getattr(path, "vectors", path)]
    k = len(vecs)
    if k > MAX_PATH_LENGTH:
        raise ValueError(f"subset check needs k <= {MAX_PATH_LENGTH}, got {k}")
    sums = [(0,) * len(vecs[0]) if vecs else ()] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        s = tuple(map(int.__add__, sums[mask ^ low], vecs[low.bit_length() - 1]))
        if not any(s):
            return False
        sums[mask] = s
    return True


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


def _walks(step, start, depth: int):
    """(trail, walks): every irredundant `depth`-edge walk from `start`.

    `step(u)` lists the moves out of node u as (w, u - w), with u - w a
    complex.  A node is whatever `step` takes: a vertex index, or the
    positions of all starts at once (`_start_walks`).
    `walks` yields the set S of nonempty prefix-subset sums once per walk,
    S then covering all `depth` vectors, while `trail` holds the walk's
    nodes start .. w.  A move with vector z is admissible exactly when -z
    is not in S.  Both are live views: read them before the next step.
    """
    trail = [start]
    S: set[complex] = set()

    def walk(u, left: int):
        for w, nz in step(u):
            if nz in S:
                continue
            z = -nz
            added = {s + z for s in S}
            added.add(z)
            added -= S
            S.update(added)
            trail.append(w)
            if left > 1:
                yield from walk(w, left - 1)
            else:
                yield S
            trail.pop()
            S.difference_update(added)

    return trail, walk(start, depth) if depth else iter((S,))


def _vertex_step(g: UnitDistanceGraph):
    """`step` for `_walks` over vertex indices: the moves out of vertex u as
    (w, u - w), read from column u of the neighbour table."""
    table, n = g.neighbours, g.vertex_count
    negs = [complex(-dx, -dy) for dx, dy in g.vectors]

    def step(u: int):
        return [(w, nz) for w, nz in zip(table[:, u].tolist(), negs) if w != n]

    return step


def count_irredundant_from(
    g: UnitDistanceGraph, start, k: int, *, step_budget: int | None = None
) -> int:
    """Number of irredundant k-edge paths leaving `start`."""
    _check_budget(projected_steps(g, k, [start]), step_budget)
    i = _resolve_start(g, start)
    step = _vertex_step(g)
    trail, walks = _walks(step, i, k - 1)
    # a last step to w is blocked exactly when u - w is in S
    return sum(nz not in S for S in walks for _, nz in step(trail[-1]))


def enumerate_irredundant_from(g: UnitDistanceGraph, start, k: int, *, step_budget: int | None = None):
    """Yield the PathRecords themselves; same pruning as the counter."""
    _check_budget(projected_steps(g, k, [start]), step_budget)
    i = _resolve_start(g, start)
    pts = g.points
    trail, walks = _walks(_vertex_step(g), i, k)
    for _ in walks:
        yield PathRecord.from_vertices([pts[t] for t in trail])


def _checked_starts(g: UnitDistanceGraph, starts, k: int, step_budget: int | None) -> dict[tuple[int, int], int]:
    """{(x, y): vertex index} for the distinct `starts` in first-seen order,
    budgeted before any is resolved."""
    starts = list(dict.fromkeys((int(s[0]), int(s[1])) for s in starts))
    _check_budget(projected_steps(g, k, starts), step_budget)
    return {s: _resolve_start(g, s) for s in starts}


def count_irredundant_many(
    g: UnitDistanceGraph, starts, k: int, *, workers: int = 1, step_budget: int | None = None
) -> dict[tuple[int, int], int]:
    """Counts for several start vertices: on a full grid the `_box_depth` of
    the start rectangles of `_grid_paths` at the starts' images, on other
    point sets one walk over the vector tuples for all starts at once (see
    `_start_counts`).  `workers` selects nothing: perfbench/job.py passes
    it, and it goes when the benchmark next changes.

    On the grid, group d holds as many paths from L v as its image L d
    holds from v, for each of the |G| maps L; so
    |G| * count(v) = sum over kept groups d of orbit(d) * sum over L of
    depth_d(L v), and the division is exact.
    """
    import numpy as np

    starts = _checked_starts(g, starts, k, step_budget)
    dims = g.grid
    if dims is not None:
        x0, y0, w, h = dims
        _, _, count, orbit, ax, bx, ay, by = _grid_paths(g, k, dims)
        syms = _grid_symmetries(w, h)
        sx, sy = np.array([(s[0] - x0, s[1] - y0) for s in starts], dtype=np.int64).reshape(-1, 2).T
        images = [_map_box(sym, w, h, sx, sx, sy, sy)[::2] for sym in syms]
        ix, iy = np.array([x for x, _ in images]), np.array([y for _, y in images])  # one row per map
        ux, uy = _distinct(ix.ravel()), _distinct(iy.ravel())
        field = _box_depth(ax, bx, ay, by, ux, uy, np.repeat(orbit, count))
        total = field[np.searchsorted(ux, ix), np.searchsorted(uy, iy)].sum(axis=0)
        return dict(zip(starts, (total // len(syms)).tolist()))
    counts = _start_counts(g, k, np.array(list(starts.values()), dtype=np.intp))
    return dict(zip(starts, counts.tolist()))


def per_pair_counts(
    g: UnitDistanceGraph, k: int, starts=None, *, step_budget: int | None = None
) -> dict[tuple[tuple[int, int], tuple[int, int]], int]:
    """Ordered-pair path counts |P_vw| for every start v.

    The displacement groups of the irredundant k-tuples are visited in
    (dx, dy) order, and |P_vw| for w = v + d is the depth of v in group d:
    how many of its tuples placed at v keep every prefix point in the set
    (see `_group_depth`).  Pairs are ordered: (v, w) and (w, v) are counted
    separately (reversal is a bijection between the two path families, so
    the counts agree).  A start listed twice is counted once.
    """
    import numpy as np

    if starts is None:  # priced before any point is listed; the points are distinct
        _check_budget(projected_steps(g, k, range(g.vertex_count)), step_budget)
        starts = dict(zip(g.points, range(g.vertex_count)))
    else:
        starts = _checked_starts(g, starts, k, step_budget)
    pairs: dict = {}
    if not starts:
        return pairs
    at = np.array(list(starts.values()), dtype=np.intp)
    from_at = list(starts)
    dx, dy, _, tuples = _displacement_groups(g.vectors, k)
    # every key is a new tuple the cyclic GC tracks, so it would run full
    # collections over the growing dict; keys of ints cannot form a cycle
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for gi, (ddx, ddy) in enumerate(zip(dx.tolist(), dy.tolist())):
            depth = _group_depth(g.neighbours, tuples(gi), at)
            hit = np.flatnonzero(depth)
            for i, c in zip(hit.tolist(), depth[hit].tolist()):
                v = from_at[i]
                pairs[(v, (v[0] + ddx, v[1] + ddy))] = c
    finally:
        if was_enabled:
            gc.enable()
    return pairs


def path_count_lower_bound(delta: int, k: int) -> int:
    """prod_{l=0}^{k-1} max(delta - 2^l + 1, 0)."""
    if delta < 0 or k < 1:
        raise ValueError(f"need delta >= 0 and k >= 1, got delta={delta}, k={k}")
    out = 1
    for level in range(k):
        out *= max(delta - (1 << level) + 1, 0)
    return out


def _multisets(vectors, k: int, keep=None):
    """(idx, sx, sy, kind): the irredundant k-multisets of vector indices,
    each row of idx ascending, sorted by total displacement (sx, sy) so that
    a displacement occupies one run of rows.  Bit p of kind is set when
    idx[:, p] == idx[:, p + 1]; `_orderings(k, kind)` lists the distinct
    orderings, each an irredundant k-tuple of the same displacement.
    `keep(sx, sy)`, when given, masks the displacements to list; the rows
    it drops are never sorted.

    All vectors share the norm m, so a vanishing subsum has an even number
    of terms: divided by the gcd of its coordinates, the norm is odd or 2
    mod 4, so each term (a, b) has a + b odd or a odd, and an odd count of
    them cannot cancel.  Four such terms that cancel form a rhombus, whose
    sides come in antipodal pairs.  So a multiset is irredundant exactly when it holds no
    antipodal pair and no zero-sum sub-multiset of even size 6 .. k.
    """
    import numpy as np

    step = np.array(vectors, dtype=np.int64).reshape(-1, 2)
    where = {v: j for j, v in enumerate(map(tuple, step.tolist()))}
    anti = np.array([where[-dx, -dy] for dx, dy in step.tolist()], dtype=np.intp)
    idx = np.arange(len(step))[:, None]
    for _ in range(k - 1):
        allowed = np.arange(len(step)) >= idx[:, -1:]
        allowed[np.arange(len(idx))[:, None], anti[idx]] = False
        rows, cols = np.nonzero(allowed)
        idx = np.concatenate([idx[rows], cols[:, None]], axis=1)
    closes = np.zeros(len(idx), dtype=bool)
    for s in range(6, k + 1, 2):
        for pos in map(list, combinations(range(k), s)):
            closes |= ~step[idx[:, pos]].sum(axis=1).any(axis=1)
    sx, sy = step[idx, 0].sum(axis=1), step[idx, 1].sum(axis=1)
    rows = np.flatnonzero(~closes if keep is None else keep(sx, sy) & ~closes)
    order = np.lexsort((sy[rows], sx[rows]))  # stable: the level loop's order holds inside a displacement
    rows = rows[order]
    idx, sx, sy = idx[rows], sx[rows], sy[rows]
    kind = (idx[:, 1:] == idx[:, :-1]) @ (1 << np.arange(k - 1))
    return idx, sx, sy, kind


@lru_cache(maxsize=None)
def _orderings(k: int, kind: int):
    """(orderings, k) array: the position orders of the distinct orderings of
    an ascending k-multiset with repetition pattern `kind` (see `_multisets`),
    in lexicographic order of the orderings."""
    import numpy as np

    # runs of equal entries, as the positions each run holds
    runs = [[0]]
    for p in range(1, k):
        if kind >> (p - 1) & 1:
            runs[-1].append(p)
        else:
            runs.append([p])
    left = [len(run) for run in runs]
    rows: list[tuple[int, ...]] = []
    row: list[int] = []

    def extend():
        if len(row) == k:
            rows.append(tuple(row))
            return
        for r, run in enumerate(runs):
            if left[r]:
                row.append(run[len(run) - left[r]])
                left[r] -= 1
                extend()
                left[r] += 1
                row.pop()

    extend()
    table = np.array(rows, dtype=np.intp).reshape(-1, k)
    table.setflags(write=False)  # cached: every caller shares it
    return table


def _group_heads(sx, sy) -> list[int]:
    """First row of each run of equal (sx, sy)."""
    import numpy as np

    return np.flatnonzero(np.r_[len(sx) > 0, (np.diff(sx) != 0) | (np.diff(sy) != 0)]).tolist()


def _ordering_counts(k: int, kind):
    """Per multiset row, the number of distinct orderings of its `kind`."""
    import numpy as np

    size = np.zeros(len(kind), dtype=np.intp)
    for c in np.flatnonzero(np.bincount(kind)).tolist():  # not np.unique, which imports numpy.ma
        size[kind == c] = len(_orderings(k, c))
    return size


def _displacement_groups(vectors, k: int):
    """(dx, dy, size, tuples): the displacement groups of the irredundant
    k-tuples in (dx, dy) order.  Group i has displacement (dx[i], dy[i]) and
    size[i] tuples, and `tuples(i)` is their (size[i], k) array of vector
    indices, built only when asked for.
    """
    import numpy as np

    idx, sx, sy, kind = _multisets(vectors, k)
    heads = _group_heads(sx, sy)
    ends = heads[1:] + [len(idx)]
    size = np.add.reduceat(_ordering_counts(k, kind), heads) if heads else np.zeros(0, dtype=np.intp)

    def tuples(i: int):
        lo, hi = heads[i], ends[i]
        return np.concatenate([idx[r][_orderings(k, c)] for r, c in enumerate(kind[lo:hi].tolist(), lo)])

    return sx[heads], sy[heads], size, tuples


def _group_depth(table, tuples, starts):
    """depth[i]: how many of the (t, k) vector-index `tuples`, placed at
    vertex starts[i], keep every prefix point in the point set of the
    neighbour `table`.  A block of tuples is gathered at once, as many rows
    as keep the block within `_GATHER_BUDGET` positions; column n of the
    table is all n, so a chain of gathers that once leaves the set stays out.
    """
    import numpy as np

    n = table.shape[1] - 1
    depth = np.zeros(len(starts), dtype=np.int64)
    rows = max(1, _GATHER_BUDGET // max(len(starts), 1))
    for lo in range(0, len(tuples), rows):
        at = starts
        for col in tuples[lo : lo + rows].T:
            at = table[col[:, None], at]
        depth += (at != n).sum(axis=0)
    return depth


def _start_walks(g: UnitDistanceGraph, k: int, starts):
    """Yield (at, S) once per irredundant (k-1)-tuple of vector indices:
    `at` holds the positions the tuple reaches from every vertex in `starts`
    (n once it left the set) and S its nonempty prefix-subset sums.  A node
    of the walk is the positions one step back with the step's vector
    index, so only the moves taken are gathered.
    """
    table = g.neighbours
    moves = [(j, complex(-dx, -dy)) for j, (dx, dy) in enumerate(g.vectors)]

    def land(node):
        at, j = node
        return at if j is None else table[j].take(at)

    def step(node):
        at = land(node)
        return [((at, j), nz) for j, nz in moves]

    trail, walks = _walks(step, (starts, None), k - 1)
    for S in walks:
        yield land(trail[-1]), S


def _start_counts(g: UnitDistanceGraph, k: int, starts):
    """counts[i]: irredundant k-paths from vertex starts[i].  Each walk of
    `_start_walks` closes as `count_irredundant_from` does, vectorised over
    the starts: the degree where it stands minus the moves whose negated
    vector is a prefix-subset sum.
    """
    import numpy as np

    n, table = g.vertex_count, g.neighbours
    present = table != n
    degree = present.sum(axis=0)
    blocker = {complex(-dx, -dy): j for j, (dx, dy) in enumerate(g.vectors)}
    blocks = frozenset(blocker)
    counts = np.zeros(len(starts), dtype=np.int64)
    for at, S in _start_walks(g, k, starts):
        counts += degree.take(at)
        for s in S & blocks:
            counts -= present[blocker[s]].take(at)
    return counts


def _grid_symmetries(w: int, h: int):
    """The maps of the w x h box onto itself, as (swap, flip x, flip y):
    swap the axes (a square box only), then mirror x, then mirror y.  The
    identity comes first."""
    return [(s, fx, fy) for s in range(1 + (w == h)) for fx in (0, 1) for fy in (0, 1)]


def _orbit_least(w: int, h: int):
    """keep(dx, dy): whether each (dx, dy) is the lexicographically least
    of its orbit under `_grid_symmetries(w, h)`: dx <= dy <= 0 when the
    swap is among them, else dx <= 0 and dy <= 0."""
    if w == h:
        return lambda dx, dy: (dx <= dy) & (dy <= 0)
    return lambda dx, dy: (dx <= 0) & (dy <= 0)


def _orbit_size(w: int, h: int, dx, dy):
    """The number of distinct images under `_grid_symmetries(w, h)` of
    each (dx, dy) that `_orbit_least` keeps."""
    orbit = (1 + (dx != 0)) * (1 + (dy != 0))  # the flips
    if w == h:
        orbit *= 1 + (dx != dy)  # and the swap, which fixes the diagonal
    return orbit


def _map_box(sym, w: int, h: int, xa, xb, ya, yb):
    """(xa, xb, ya, yb) of the image of the box [xa, xb] x [ya, yb] of the
    w x h grid under the map `sym` of `_grid_symmetries`; ints or arrays."""
    swap, fx, fy = sym
    if swap:
        xa, xb, ya, yb = ya, yb, xa, xb
    if fx:
        xa, xb = w - 1 - xb, w - 1 - xa
    if fy:
        ya, yb = h - 1 - yb, h - 1 - ya
    return xa, xb, ya, yb


def _map_vector(sym, dx: int, dy: int) -> tuple[int, int]:
    """The image of the displacement (dx, dy) under the map `sym`."""
    swap, fx, fy = sym
    if swap:
        dx, dy = dy, dx
    return (-dx if fx else dx, -dy if fy else dy)


def _grid_paths(g: UnitDistanceGraph, k: int, dims):
    """(dx, dy, count, orbit, ax, bx, ay, by) for the full grid g, built once
    per k and cached on g.

    The norm-m vectors are closed under the maps of the grid box onto itself
    (`_grid_symmetries`, the group G: the 8 of the square on a square grid,
    else the 4 flips), and a map L carries the paths of displacement d from
    v to the paths of displacement L d from L v.  So one displacement group
    per orbit is kept, the one whose (dx, dy) is the lex-least of its orbit
    (`_orbit_least`): dx <= dy <= 0 on a square grid, dx <= 0 and dy <= 0 on
    any other.  orbit[i] is the number of distinct images of (dx[i], dy[i]),
    the groups that group i stands for (`_orbit_size`).  This needs no free
    action: a displacement on an axis or a diagonal has a smaller orbit, and
    that is its weight.

    Each irredundant k-tuple of a kept group that fits the grid is one row of
    the rectangle columns: the start offsets v - (x0, y0) in
    [ax, bx] x [ay, by] keep its prefix bounding box inside, and the tuple
    fits exactly when that rectangle is not empty.  The rows come from
    `_multisets`: each repetition-pattern class takes the prefix boxes of all
    its orderings at once, chunk by chunk, and scatters them to its
    multisets' rows, so no T-row array is sorted or reordered and each
    displacement group is one run of rows.  Group i has displacement
    (dx[i], dy[i]) and the next count[i] rows, which may be none.  Every
    grid statistic reads these columns alone, so memory is O(T / |G| + side)
    for T tuples.
    """
    import numpy as np

    cache = vars(g).setdefault("_grid_paths", {})
    if k not in cache:
        _, _, w, h = dims
        idx, sx, sy, kind = _multisets(g.vectors, k, _orbit_least(w, h))
        step = np.array(g.vectors, dtype=np.int64).reshape(-1, 2)
        size = _ordering_counts(k, kind)
        offset = np.cumsum(size) - size
        rect = [np.empty(int(size.sum()), dtype=np.int64) for _ in range(4)]  # ax, bx, ay, by
        for c in np.flatnonzero(np.bincount(kind)).tolist():
            orders = _orderings(k, c)
            members = np.flatnonzero(kind == c)
            chunk = max(1, _GATHER_BUDGET // len(orders))
            for i in range(0, len(members), chunk):
                ms = members[i : i + chunk]
                at = offset[ms, None] + np.arange(len(orders))
                for first, last, coord, side in ((*rect[:2], step[idx[ms], 0], w), (*rect[2:], step[idx[ms], 1], h)):
                    # prefix boxes of every ordering: running sum, min and max over the k positions
                    pre = np.zeros(at.shape, dtype=np.int64)
                    lo, hi = pre.copy(), pre.copy()
                    for j in range(k):
                        pre += coord[:, orders[:, j]]
                        np.minimum(lo, pre, out=lo)
                        np.maximum(hi, pre, out=hi)
                    first[at], last[at] = -lo, side - 1 - hi
        keep = rect[0] <= rect[1]
        keep &= rect[2] <= rect[3]
        heads = _group_heads(sx, sy)
        count = np.add.reduceat(keep, offset[heads], dtype=np.intp)
        if not keep.all():
            for i in range(4):  # one column at a time, so one full column is freed as each is cut
                rect[i] = rect[i][keep]
        dx, dy = sx[heads], sy[heads]
        cache[k] = (dx, dy, count, _orbit_size(w, h, dx, dy), *rect)
    return cache[k]


def total_irredundant_paths(
    g: UnitDistanceGraph, k: int, *, workers: int = 1, step_budget: int | None = None
) -> int:
    """Total irredundant k-edge paths over all start vertices.

    On a full grid this is the summed area of the start rectangles, each
    weighted by its group's orbit (see `_grid_paths`): a grid map carries a
    rectangle to one of the same area.  Otherwise it sums the counts of one
    walk over the vector tuples for every start at once (see `_start_counts`).
    `workers` selects nothing: perfbench/job.py passes it, and it goes when
    the benchmark next changes.
    """
    import numpy as np

    _check_budget(projected_steps(g, k), step_budget)
    dims = g.grid
    if dims is None:
        return int(_start_counts(g, k, np.arange(g.vertex_count)).sum())
    _, _, w, h = dims
    _, _, count, orbit, ax, bx, ay, by = _grid_paths(g, k, dims)
    weight = np.repeat(orbit, count)
    if len(ax) * w * h * 8 < 2**63:
        return int((weight * (bx - ax + 1) * (by - ay + 1)).sum())
    # every start may carry every tuple of all 8 images: an int64 sum could wrap
    cols = (col.tolist() for col in (weight, ax, bx, ay, by))
    return sum(o * (b - a + 1) * (d - c + 1) for o, a, b, c, d in zip(*cols))


def max_pair_count(
    g: UnitDistanceGraph, k: int, *, workers: int = 1, step_budget: int | None = None
) -> tuple[tuple[int, int] | None, tuple[int, int] | None, int]:
    """The ordered pair (v, w) maximizing the irredundant path count |P_vw|.

    Ties break toward the lexicographically smallest (v, w).  The tuples come
    grouped by total displacement w - v, and inside one group |P_vw| is the
    depth of v: on a full grid the number of the group's start rectangles
    covering v (see `_grid_paths`), all of them where they share a point, on
    any other point set the group's tuples gathered at every start (see
    `_group_depth`).  Groups are visited largest first, stopping once a group
    has fewer tuples than the best depth found (`_largest_groups_first`).
    On a full grid one group stands for its orbit: the images of its deepest
    pairs under the grid maps are the deepest pairs of the other groups, so
    the least of those images is its pair: the least low corner of the maps'
    images of its intersection box, or else of its `_deepest_cells`.
    `workers` selects nothing: perfbench/job.py passes it, and it goes when
    the benchmark next changes.
    """
    import numpy as np

    _check_budget(projected_steps(g, k), step_budget)
    dims = g.grid
    if dims is not None:
        return _max_pair_grid(g, k, dims)
    if not g.vertex_count:
        return (None, None, 0)
    dx, dy, size, tuples = _displacement_groups(g.vectors, k)
    everyone = np.arange(g.vertex_count)

    def deepest(gi):
        depth = _group_depth(g.neighbours, tuples(gi), everyone)
        i = int(depth.argmax())  # the first deepest vertex: points are sorted
        v = g.points[i]
        return v, (v[0] + int(dx[gi]), v[1] + int(dy[gi])), int(depth[i])

    return _largest_groups_first(size, deepest)


def _largest_groups_first(size, deepest):
    """(v, w, depth) of greatest depth over the displacement groups, ties
    going to the smallest (v, w).  `deepest(i)` is the (v, w, depth) of
    group i at its lexicographically smallest deepest pair.  Groups are
    visited largest first and the visit stops once a group has fewer than
    max(best depth, 1) tuples: depth never exceeds a group's size, and an
    empty group has no pair."""
    import numpy as np

    best = (None, None, 0)
    for gi in np.argsort(-size, kind="stable").tolist():
        if size[gi] < max(best[2], 1):
            break
        found = deepest(gi)
        if found[2] > best[2] or (found[2] == best[2] > 0 and found[:2] < best[:2]):
            best = found
    return best


def _deepest_cells(ax, bx, ay, by):
    """(xa, xb, ya, yb, depth): the cells [xa, xb] x [ya, yb] whose union is
    the set of deepest points of the nonempty rectangles [ax, bx] x [ay, by],
    and that depth.  Depth is constant between the breakpoints ax and bx + 1
    along x and ay and by + 1 along y, so on each cell they bound."""
    import numpy as np

    ux, uy = _distinct(np.concatenate((ax, bx + 1))), _distinct(np.concatenate((ay, by + 1)))
    depth = _box_depth(ax, bx, ay, by, ux, uy)  # 0 at the last breakpoints, past every rectangle
    i, j = np.nonzero(depth == depth.max())
    return ux[i], ux[i + 1] - 1, uy[j], uy[j + 1] - 1, int(depth[i[0], j[0]])


def _max_pair_grid(g: UnitDistanceGraph, k: int, dims):
    import numpy as np

    x0, y0, w, h = dims
    dx, dy, count, _, ax, bx, ay, by = _grid_paths(g, k, dims)
    syms = _grid_symmetries(w, h)
    ends = np.cumsum(count).tolist()

    def deepest(gi):
        lo, hi = ends[gi] - int(count[gi]), ends[gi]
        rects = ax[lo:hi], bx[lo:hi], ay[lo:hi], by[lo:hi]
        d = (int(dx[gi]), int(dy[gi]))
        box = (int(rects[0].max()), int(rects[1].min()), int(rects[2].max()), int(rects[3].min()))
        if box[0] <= box[1] and box[2] <= box[3]:
            # Helly: boxes share a point iff their x and y projections do, and the deepest points are then the
            # intersection box; the least point of each image is the image box's low corner
            peak = hi - lo
            least = [_map_box(sym, w, h, *box)[::2] for sym in syms]
        else:
            *cells, peak = _deepest_cells(*rects)
            least = [min(zip(*(c.tolist() for c in _map_box(sym, w, h, *cells)[::2]))) for sym in syms]
        (x, y), (ex, ey) = min((v, _map_vector(sym, *d)) for v, sym in zip(least, syms))
        return (x0 + x, y0 + y), (x0 + x + ex, y0 + y + ey), peak

    return _largest_groups_first(count, deepest)
