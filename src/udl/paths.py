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
the square, or the 4 flips of an oblong box), all three in one fold over
ranges of displacement groups (`_grid_stats`), each range's boxes built and
let go before the next, so no box outlives its range: the total weights
each kept group by its orbit size, the counts add the group's depths at the
images of each start into one difference field, and the max pair scores
the groups whose boxes share a point and ranks the rest as their range is
read, the ranges taken from the shortest displacements on.  Elsewhere the
counts walk the vector tuples once for all starts, each node the array of
the starts' positions (`_start_counts`), and the pair statistics gather
each displacement group's tuples as one block (`_group_depth`), per-pair
counts on a grid too.  That walk and the reference route, the per-start DFS that locates its moves
(`count_irredundant_from`), are one pruned DFS, `_walks`: it keeps the
running set S of all nonempty prefix-subset sums, and a
continuation z is admissible exactly when -z is absent from S.  Every
statistic is priced by one projection, `projected_steps`, and refused before
it starts when that exceeds the step budget; `path_statistics`, the counts,
total and max pair of several k, prices them all before the first runs.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations
from operator import index

from .udgraph import _GATHER_BUDGET, UnitDistanceGraph, _box_depth, _box_scatter, _distinct, _field_depth

MAX_PATH_LENGTH = 20
DEFAULT_STEP_BUDGET = 10**9
TABLE_WORK = "neighbour-table lookups"  # the n * R entries of a table, priced before it is built


class StepBudgetExceeded(RuntimeError):
    def __init__(self, projected: int, budget: int, work="DFS steps", knobs="--step-budget or UDL_STEP_BUDGET"):
        super().__init__(f"projected {projected} {work} exceed the budget of {budget}; raise {knobs} to force the run")
        self.projected = projected
        self.budget = budget


def effective_step_budget(value: int | None = None) -> int:
    """`value`, else UDL_STEP_BUDGET when set and not empty, else the
    default; ValueError naming the source unless a nonnegative integer."""
    source, raw = "--step-budget", value
    if value is None:
        source, raw = "UDL_STEP_BUDGET", os.environ.get("UDL_STEP_BUDGET") or DEFAULT_STEP_BUDGET
    if not str(raw).isdecimal():
        raise ValueError(f"{source} must be a nonnegative integer, got {raw!r}")
    return int(raw)


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


def is_irredundant(path) -> bool:
    """Exhaustive subset-sum check over the path's displacement vectors.

    Takes any sequence of integer vectors of one length, summed as int
    tuples, so exact at any size.  2^k - 1 subsets, so k is capped at
    MAX_PATH_LENGTH.  The empty path is irredundant.
    """
    vecs = [tuple(map(int, v)) for v in path]
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


def _walks(step, start, depth: int):
    """Yield (w, S) once per irredundant `depth`-edge walk from `start`: w
    the walk's last node and S its nonempty prefix-subset sums, covering all
    `depth` vectors.

    `step(u)` lists the moves out of node u as (w, u - w), with u - w a
    complex.  A node is whatever `step` takes: a point, or the
    positions of all starts at once (`_start_counts`).  A move with vector
    z is admissible exactly when -z is not in S.  S is one live set: read
    it before the next walk is drawn.
    """
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
            if left > 1:
                yield from walk(w, left - 1)
            else:
                yield w, S
            S.difference_update(added)

    return walk(start, depth) if depth else iter(((start, S),))


def count_irredundant_from(
    g: UnitDistanceGraph, start, k: int, *, step_budget: int | None = None
) -> int:
    """Number of irredundant k-edge paths leaving `start`, by the DFS over
    points: the moves out of p are `g.locate` of p moved by every vector, so
    no neighbour table is read or built."""
    import numpy as np

    (start,), _ = _checked_starts(g, [start], [k], step_budget)
    vx, vy = np.array(g.vectors, dtype=np.int64).reshape(-1, 2).T
    moves, n = [(dx, dy, complex(-dx, -dy)) for dx, dy in g.vectors], g.vertex_count

    def step(p):
        at = g.locate(p[0] + vx, p[1] + vy).tolist()
        return [((p[0] + dx, p[1] + dy), nz) for (dx, dy, nz), w in zip(moves, at) if w != n]

    # a last step to w is blocked exactly when p - w is in S
    return sum(nz not in S for p, S in _walks(step, start, k - 1) for _, nz in step(p))


def _checked_starts(g: UnitDistanceGraph, starts, ks, step_budget: int | None, *, totals: bool = False):
    """(starts, at): the distinct `starts` in first-seen order and their
    vertices by `g.locate`, after each k of `ks` in turn is priced: its walks
    from the starts, then, with `totals`, its total over every vertex.  The
    first start not in g is refused, and a coordinate that is not an integer
    (TypeError from `operator.index`).  A coordinate past int64 is located
    as -2^63, which no vertex has."""
    import numpy as np

    starts = list(dict.fromkeys((index(s[0]), index(s[1])) for s in starts))
    for k in ks:
        _check_budget(projected_steps(g, k, starts), step_budget)
        if totals:
            _check_budget(projected_steps(g, k), step_budget)
    wide = [[c if abs(c) < 1 << 63 else -(1 << 63) for c in s] for s in starts]
    at = g.locate(*np.array(wide, dtype=np.int64).reshape(-1, 2).T)
    missing = np.flatnonzero(at == g.vertex_count)
    if len(missing):
        raise ValueError(f"start vertex {starts[missing[0]]} is not in the graph")
    return starts, at


def count_irredundant_many(
    g: UnitDistanceGraph, starts, k: int, *, workers: int = 1, step_budget: int | None = None
) -> dict[tuple[int, int], int]:
    """Counts for several start vertices: on a full grid the counts of
    `_grid_stats`, on other point sets one walk over the vector tuples for
    all starts at once (see `_start_counts`).  `workers` selects nothing:
    perfbench/job.py passes it, and it goes when the benchmark next changes."""
    starts, at = _checked_starts(g, starts, [k], step_budget)
    counts = _start_counts(g, k, at) if g.grid is None else _grid_stats(g, k, starts)[0]
    return dict(zip(starts, counts.tolist()))


def path_statistics(g: UnitDistanceGraph, ks, starts, *, step_budget: int | None = None):
    """[(counts, total, best)] per k of `ks`, in order: what `count_irredundant_many`,
    `total_irredundant_paths` and `max_pair_count` return, every k priced before
    any runs.  On a full grid each k is one `_grid_stats`; elsewhere one
    `_start_counts` over every vertex gives the total and, at the starts, the
    counts, and `_max_pair` the max pair."""
    import numpy as np

    ks = list(ks)
    starts, at = _checked_starts(g, starts, ks, step_budget, totals=True)
    out = []
    for k in ks:
        if g.grid is not None:
            counts, total, best = _grid_stats(g, k, starts)
        else:
            every = _start_counts(g, k, np.arange(g.vertex_count))
            counts, total, best = every[at], int(every.sum()), _max_pair(g, k)
        out.append((dict(zip(starts, counts.tolist())), total, best))
    return out


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
        starts, at = g.points, np.arange(g.vertex_count)
    else:
        starts, at = _checked_starts(g, starts, [k], step_budget)
    pairs: dict = {}
    if not starts:
        return pairs
    if g._neighbours is None:  # a grid builds its table on first access: its n * R lookups are priced first
        _check_budget(g.vertex_count * len(g.vectors), step_budget, TABLE_WORK)
    dx, dy, _, tuples = _displacement_groups(g.vectors, k)
    for gi, (ddx, ddy) in enumerate(zip(dx.tolist(), dy.tolist())):
        depth = _group_depth(g.neighbours, tuples(gi), at)
        hit = np.flatnonzero(depth)
        for i, c in zip(hit.tolist(), depth[hit].tolist()):
            v = starts[i]
            pairs[(v, (v[0] + ddx, v[1] + ddy))] = c
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
    it drops are never built.

    All vectors share the norm m, so a vanishing subsum has an even number
    of terms: divided by the gcd of its coordinates, the norm is odd or 2
    mod 4, so each term (a, b) has a + b odd or a odd, and an odd count of
    them cannot cancel.  Four such terms that cancel form a rhombus, whose
    sides come in antipodal pairs.  So a multiset is irredundant exactly when it holds no
    antipodal pair and no zero-sum sub-multiset of even size 6 .. k.

    The levels extend the empty multiset one index at a time, each row by
    the indices from its last on that are not an antipode of one it holds,
    `_GATHER_BUDGET` candidates at a time; the last level ANDs in `keep`
    before any row is built, and the hexagon filter runs on the rows kept.
    idx is int16 while R <= 2^15, and sx, sy are int32 while k times the
    largest coordinate is below 2^31.
    """
    import numpy as np

    step = np.array(vectors, dtype=np.int64).reshape(-1, 2)
    where = {v: j for j, v in enumerate(map(tuple, step.tolist()))}
    anti = np.array([where[-dx, -dy] for dx, dy in step.tolist()], dtype=np.intp)
    r = len(step)
    itype = np.int16 if r <= 2**15 else np.intp
    stype = np.int32 if k * int(np.abs(step).max(initial=0)) < 2**31 else np.int64
    vx, vy = step.T.astype(stype)
    every, chunk = np.arange(r), max(1, _GATHER_BUDGET // max(r, 1))

    def join(parts):
        return tuple(np.concatenate(col) for col in zip(*parts))

    def extend(idx, sx, sy, mask):
        blocks, parts, held = [], [], 0
        for lo in range(0, max(len(idx), 1), chunk):  # one chunk at least, so an empty level keeps its width
            prev, px, py = idx[lo : lo + chunk], sx[lo : lo + chunk], sy[lo : lo + chunk]
            allowed = every >= prev.max(axis=1, initial=0)[:, None]  # a row's last index is its largest
            allowed[np.arange(len(prev))[:, None], anti[prev]] = False
            if mask is not None:
                allowed &= mask(px[:, None] + vx, py[:, None] + vy)
            rows, cols = np.nonzero(allowed)
            parts.append((np.column_stack((prev[rows], cols.astype(itype))), px[rows] + vx[cols], py[rows] + vy[cols]))
            held += len(rows)
            if held >= _GATHER_BUDGET * 64:  # parts joined in blocks of 2^20 rows leave their heap to the next parts
                blocks.append(join(parts))
                parts, held = [], 0
        if parts:  # none when the last chunk closed a block
            blocks.append(join(parts))
        return join(blocks)

    idx, sx, sy = np.zeros((1, 0), dtype=itype), np.zeros(1, dtype=stype), np.zeros(1, dtype=stype)  # the empty multiset
    for level in range(k):
        idx, sx, sy = extend(idx, sx, sy, keep if level == k - 1 else None)
    closes = np.zeros(len(idx), dtype=bool)
    for s in range(6, k + 1, 2):
        for pos in map(list, combinations(range(k), s)):
            closes |= ~step[idx[:, pos]].sum(axis=1).any(axis=1)
    if closes.any():
        idx, sx, sy = idx[~closes], sx[~closes], sy[~closes]
    order = np.lexsort((sy, sx))  # stable: the level loop's order holds inside a displacement
    idx = idx[order]  # one column at a time, so one old column is freed as each is reordered
    sx = sx[order]
    sy = sy[order]
    del order
    kind = np.zeros(len(idx), dtype=np.int32)
    for p in range(k - 1):
        kind[idx[:, p] == idx[:, p + 1]] += 1 << p
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


def _group_heads(sx, sy):
    """First row of each run of equal (sx, sy), as an int array."""
    import numpy as np

    return np.flatnonzero(np.r_[len(sx) > 0, (np.diff(sx) != 0) | (np.diff(sy) != 0)])


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
    ends = np.append(heads[1:], len(idx))
    size = np.add.reduceat(_ordering_counts(k, kind), heads) if len(heads) else np.zeros(0, dtype=np.intp)

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


def _start_counts(g: UnitDistanceGraph, k: int, starts):
    """counts[i]: irredundant k-paths from vertex starts[i], by one `_walks`
    over the (k-1)-tuples of vector indices for all starts at once.  A node
    is the positions one step back with the step's vector index, so only
    the moves taken are gathered, and it lands on the positions the tuple
    reaches from every start (n once it left the set).  Each walk closes as
    `count_irredundant_from` does, vectorised over the starts: the degree
    where it stands minus the moves whose negated vector is a prefix-subset
    sum.
    """
    import numpy as np

    n, table = g.vertex_count, g.neighbours
    degree = np.append(g.degrees, 0)  # 0 at the sentinel column n
    blocker = {complex(-dx, -dy): j for j, (dx, dy) in enumerate(g.vectors)}

    def land(at, j):
        return at if j is None else table[j].take(at)

    def step(node):
        at = land(*node)
        return [((at, j), nz) for nz, j in blocker.items()]

    counts = np.zeros(len(starts), dtype=np.int64)
    for node, S in _walks(step, (starts, None), k - 1):
        at = land(*node)
        counts += degree.take(at)
        for s in S & blocker.keys():
            counts -= table[blocker[s]].take(at) != n
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


def _grid_multisets(g: UnitDistanceGraph, k: int):
    """(idx, sx, sy, kind, offset): the irredundant k-multisets of the full
    grid g that `_orbit_least` keeps (see `_multisets`), and offset[r], the
    first pre-cut rect row of multiset r in `_grid_paths`: the ordering counts
    of the rows before it, len(idx) + 1 entries."""
    import numpy as np

    _, _, w, h = g.grid
    idx, sx, sy, kind = _multisets(g.vectors, k, _orbit_least(w, h))
    offset = np.zeros(len(idx) + 1, dtype=np.intp)
    offset[1:] = _ordering_counts(k, kind)
    np.cumsum(offset, out=offset)
    return idx, sx, sy, kind, offset


def _grid_ranges(sx, sy, offset):
    """The multiset row ranges [lo, hi) of `_grid_stats`, in order: each
    holds whole displacement groups whose pre-cut rect rows,
    offset[hi] - offset[lo], add up to at most `_GATHER_BUDGET`, or one
    group larger than that.  Each cut is two binary searches for the group
    that holds the row where the budget runs out."""
    import numpy as np

    n, lo = len(sx), 0
    while lo < n:
        hi = int(np.searchsorted(offset, offset[lo] + _GATHER_BUDGET, "right")) - 1  # rows [lo, hi) fit the budget
        if hi < n:  # back to the head of the group at hi, or, when that group starts at lo, on to its end
            # the rows are sorted by (sx, sy), so a group is one run of sy inside one run of sx
            a, b = np.searchsorted(sx, sx[hi], "left"), np.searchsorted(sx, sx[hi], "right")
            a, b = a + np.searchsorted(sy[a:b], sy[hi], "left"), a + np.searchsorted(sy[a:b], sy[hi], "right")
            hi = int(a if a > lo else b)
        yield lo, hi
        lo = hi


def _grid_paths(g: UnitDistanceGraph, k: int, lo: int = 0, hi: int | None = None, kept=None):
    """(dx, dy, count, orbit, ax, bx, ay, by) for the full grid g and the
    kept multiset rows [lo, hi) of `_grid_multisets` (`kept`, built when not
    given), every row by default; lo and hi fall on group heads.  Built
    afresh on each call: `_grid_stats` folds one range of groups at a time.

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
    fits exactly when that rectangle is not empty.  The rows come from the
    multisets: each repetition-pattern class takes the prefix boxes of all
    its orderings in one gather, which a range of `_grid_ranges` keeps
    within `_GATHER_BUDGET` rows unless it is one larger group, and
    scatters them to its multisets' rows, so no array of rects is sorted or
    reordered and each displacement group is one run of rows.  Group i has displacement
    (dx[i], dy[i]) and the next count[i] rows, which may be none.
    """
    import numpy as np

    _, _, w, h = g.grid
    idx, sx, sy, kind, offset = _grid_multisets(g, k) if kept is None else kept
    hi = len(idx) if hi is None else hi
    step = np.array(g.vectors, dtype=np.int64).reshape(-1, 2)
    base = offset[lo]
    # a side lies in [-k * reach, max(side - 1, k * reach)] before the cut, in [0, side - 1] after
    wide = max(w - 1, h - 1, k * int(np.abs(step).max(initial=0))) >= 2**31
    step = step.astype(np.int64 if wide else np.int32)
    rect = [np.empty(int(offset[hi] - base), dtype=step.dtype) for _ in range(4)]  # ax, bx, ay, by
    kinds = kind[lo:hi]
    for c in np.flatnonzero(np.bincount(kinds)).tolist():
        orders = _orderings(k, c)
        ms = lo + np.flatnonzero(kinds == c)
        at = (offset[ms] - base)[:, None] + np.arange(len(orders))
        for first, last, coord, side in ((*rect[:2], step[idx[ms], 0], w), (*rect[2:], step[idx[ms], 1], h)):
            # prefix boxes of every ordering: running sum, min and max over the k positions
            pre = np.zeros(at.shape, dtype=step.dtype)
            low, high = pre.copy(), pre.copy()
            for j in range(k):
                pre += coord[:, orders[:, j]]
                np.minimum(low, pre, out=low)
                np.maximum(high, pre, out=high)
            first[at], last[at] = -low, side - 1 - high
    keep = rect[0] <= rect[1]
    keep &= rect[2] <= rect[3]
    heads = lo + _group_heads(sx[lo:hi], sy[lo:hi])
    count = np.add.reduceat(keep, offset[heads] - base, dtype=np.intp)
    if not keep.all():
        for i in range(4):  # one column at a time, so one full column is freed as each is cut
            rect[i] = rect[i][keep]
    dx, dy = sx[heads], sy[heads]
    return (dx, dy, count, _orbit_size(w, h, dx, dy), *rect)


def total_irredundant_paths(
    g: UnitDistanceGraph, k: int, *, workers: int = 1, step_budget: int | None = None
) -> int:
    """Total irredundant k-edge paths over all start vertices: on a full grid
    the total of `_grid_stats`, elsewhere the summed `_start_counts` of every
    start.  `workers` selects nothing: perfbench/job.py passes it, and it
    goes when the benchmark next changes."""
    import numpy as np

    _check_budget(projected_steps(g, k), step_budget)
    if g.grid is not None:
        return _grid_stats(g, k, [])[1]
    return int(_start_counts(g, k, np.arange(g.vertex_count)).sum())


def max_pair_count(
    g: UnitDistanceGraph, k: int, *, workers: int = 1, step_budget: int | None = None
) -> tuple[tuple[int, int] | None, tuple[int, int] | None, int]:
    """The ordered pair (v, w) maximizing the irredundant path count |P_vw|,
    ties to the lexicographically smallest, from `_grid_stats` on a full grid
    and `_max_pair` elsewhere.  `workers` selects nothing: perfbench/job.py
    passes it, and it goes when the benchmark next changes."""
    _check_budget(projected_steps(g, k), step_budget)
    return _grid_stats(g, k, [])[2] if g.grid is not None else _max_pair(g, k)


def _max_pair(g: UnitDistanceGraph, k: int):
    """The unpriced max pair of a point set that is not a full grid: |P_vw| is the depth of v in
    the group of displacement w - v (`_group_depth`), groups largest first (`_largest_groups_first`)."""
    import numpy as np

    if not g.vertex_count:
        return (None, None, 0)
    dx, dy, size, tuples = _displacement_groups(g.vectors, k)
    everyone = np.arange(g.vertex_count)

    def deepest(gi):
        depth = _group_depth(g.neighbours, tuples(gi), everyone)
        i = int(depth.argmax())  # the first deepest vertex: points are sorted
        v = g.points[i]
        return v, (v[0] + int(dx[gi]), v[1] + int(dy[gi])), int(depth[i])

    return _largest_groups_first(size, deepest, (None, None, 0))


def _largest_groups_first(size, deepest, best):
    """(v, w, depth) of greatest depth, ties to the least (v, w): `best` or
    a group's `deepest(i)`, the (v, w, depth) of group i at its least
    deepest pair.  size[i] bounds that depth, and groups are visited largest
    first until one falls below max(best depth, 1)."""
    import numpy as np

    hot = np.flatnonzero(size >= max(best[2], 1))  # only these can reach best
    for gi in hot[np.argsort(-size[hot], kind="stable")].tolist():
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


def _grid_stats(g: UnitDistanceGraph, k: int, starts):
    """(counts, total, best) on the full grid g, folded over the ranges of
    displacement groups of `_grid_ranges`, each built by `_grid_paths` and
    let go before the next: counts[i] the k-paths from starts[i], the total
    over all vertices, and the max pair (v, w, |P_vw|), ties to the least
    (v, w).  A kept group d stands for its orbit: a map L keeps a rect's area,
    and d holds as many paths from L v as L d holds from v, so
    |G| * count(v) = sum over d of orbit(d) * sum over L of depth_d(L v).
    Each range adds its weighted areas to the total and its rects to one
    difference field over the starts' images (`_box_scatter`), summed once at
    the end.  In a group |P_vw| is the depth of v: groups whose rects share a
    point score their size (Helly), and the others, whose size less one bounds
    their depth, are ranked by `_deepest_cells` within their range, largest
    first while they can still reach the running best (`_largest_groups_first`).
    The ranges are read from the last: rows run in ascending (dx, dy) and
    every kept dx <= 0, so the short displacements, whose groups are the
    largest, come first and raise the best before the small groups are
    reached.  A pair is the least (v, v + L d) over the maps L, v a low
    corner of an image of a common box or deepest cell.  Across ranges only
    the multisets, the field, the running total and the best are held."""
    import numpy as np

    x0, y0, w, h = g.grid
    kept = _grid_multisets(g, k)
    _, sx, sy, _, offset = kept
    syms = _grid_symmetries(w, h)

    px, py = np.array([(s[0] - x0, s[1] - y0) for s in starts], dtype=np.int64).reshape(-1, 2).T
    ix, iy = np.moveaxis(np.array([_map_box(sym, w, h, px, px, py, py)[::2] for sym in syms]), 1, 0)  # a row per map
    ux, uy = _distinct(ix.ravel()), _distinct(iy.ravel())
    field = np.zeros((len(ux) + 1) * (len(uy) + 1), dtype=np.int64)

    def least_pair(xa, xb, ya, yb, ex, ey):
        # per map L, v is the low corner of a box's image and v + L e that of the image of the box moved by e;
        # the least (v, v + L e) is read by narrowing the rows to the least of vx, then vy, then ux, then uy
        ex, ey = np.broadcast_to(ex, xa.shape), np.broadcast_to(ey, ya.shape)
        least = []
        for sym in syms:
            vx, _, vy, _ = _map_box(sym, w, h, xa, xb, ya, yb)
            i = np.flatnonzero(vx == vx.min())
            i = i[vy[i] == vy[i].min()]
            ux, _, uy, _ = _map_box(sym, w, h, xa[i] + ex[i], xb[i] + ex[i], ya[i] + ey[i], yb[i] + ey[i])
            u = int(ux.min())
            least.append(((x0 + int(vx[i[0]]), y0 + int(vy[i[0]])), (x0 + u, y0 + int(uy[ux == u].min()))))
        return min(least)

    total, best = 0, (None, None, 0)
    # a range's columns hold at most _GATHER_BUDGET rows, so the heap recycles them range by range and the
    # order of frees no longer decides what RSS keeps: 39.6 MB after 10^10/k3, freed before the next range or not
    for lo, hi in reversed(list(_grid_ranges(sx, sy, offset))):  # the shortest displacements, the largest groups, first
        dx, dy, count, orbit, ax, bx, ay, by = _grid_paths(g, k, lo, hi, kept)
        weight = np.repeat(orbit, count)
        if len(ux):
            _box_scatter(field, ax, bx, ay, by, ux, uy, weight)
        total += _weighted_area(w, h, weight, ax, bx, ay, by)
        full = np.flatnonzero(count)
        heads = np.cumsum(count) - count
        # Helly: boxes share a point iff their x and their y projections do, and their depth is then their number
        box = [op.reduceat(col, heads[full]) for op, col in ((np.maximum, ax), (np.minimum, bx), (np.maximum, ay), (np.minimum, by))]
        shared = (box[0] <= box[1]) & (box[2] <= box[3])
        top = int(count[full[shared]].max(initial=0))
        if top and top >= best[2]:
            hit = np.flatnonzero(shared & (count[full] == top))
            found = (*least_pair(*(c[hit] for c in box), dx[full[hit]], dy[full[hit]]), top)
            if top > best[2] or found[:2] < best[:2]:
                best = found
        size = count - 1  # a group without a common point falls short of its size
        size[full[shared]] = 0

        def deepest(i):
            *cells, peak = _deepest_cells(*(col[heads[i] : heads[i] + count[i]] for col in (ax, bx, ay, by)))
            return (*least_pair(*cells, dx[i], dy[i]), peak)

        best = _largest_groups_first(size, deepest, best)

    counts = _field_depth(field, ux, uy)[np.searchsorted(ux, ix), np.searchsorted(uy, iy)].sum(axis=0) // len(syms)
    return counts, total, best


def _weighted_area(w: int, h: int, weight, ax, bx, ay, by) -> int:
    """The sum of weight[i] times the area of rect i of the w x h grid: one
    range's rects at once, in int64 while no sum can pass it."""
    import numpy as np

    if w * h * 8 >= 2**63:  # a weighted area may not fit int64: each is taken in Python ints
        return sum(o * (b - a + 1) * (d - c + 1) for o, a, b, c, d in zip(*(col.tolist() for col in (weight, ax, bx, ay, by))))
    area = (bx - ax).astype(np.int64)  # int64 from here on, and each step in place
    area += 1
    area *= by - ay + 1
    area *= weight
    return int(area.sum()) if len(area) * w * h * 8 < 2**63 else sum(area.tolist())
