"""Slow, independent reference implementations used to pin expected values.

Everything here is deliberately naive: trial division, exhaustive searches,
O(n^2) pair scans, plain bisection.  Tests compare the package's fast routes
against these.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from fractions import Fraction
from itertools import accumulate, product


def trial_division_primes(limit: int) -> list[int]:
    out: list[int] = []
    for n in range(2, limit + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


def is_prime_slow(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def strong_probable_prime(n: int, bases) -> bool:
    """Trial division by the bases, then a strong probable-prime test to each."""
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=4)
def _sieve_all(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[: min(2, limit + 1)] = bytes(min(2, limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            for q in range(p * p, limit + 1, p):
                flags[q] = 0
    return tuple(n for n in range(limit + 1) if flags[n])


def chebyshev_sum(kind: str, x: float, d: int, a: int):
    """pi, theta or psi over the class a mod d: every term listed, then summed.

    psi takes log p once for each prime power p^l <= x with p^l = a (mod d).
    """
    xf = math.floor(x)
    primes = _sieve_all(max(xf, 0))
    if kind == "pi":
        return len([p for p in primes if p % d == a])
    if kind == "theta":
        return math.fsum([math.log(p) for p in primes if p % d == a])
    total = []
    for p in primes:
        logp = math.log(p)
        power = p
        while power <= xf:
            if power % d == a:
                total.append(logp)
            power *= p
    return math.fsum(total)


def two_squares_set(m: int) -> set[tuple[int, int]]:
    """All signed integer pairs with x^2 + y^2 = m, by exhaustive x sweep."""
    found = set()
    for x in range(math.isqrt(m) + 1):
        rem = m - x * x
        y = math.isqrt(rem)
        if y * y == rem:
            found.update({(x, y), (x, -y), (-x, y), (-x, -y)})
    return found


def edge_set_bruteforce(points, m: int) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """All unordered point pairs at squared distance m, canonically ordered."""
    pts = sorted(points)
    edges = set()
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            dx = p[0] - q[0]
            dy = p[1] - q[1]
            if dx * dx + dy * dy == m:
                edges.add((p, q))
    return edges


def edge_text(edges) -> str:
    """One "x1 y1 x2 y2" line per (p, q) pair, each formatted on its own, sorted."""
    return "".join(f"{p[0]} {p[1]} {q[0]} {q[1]}\n" for p, q in sorted(edges))


def emitted_edges(g) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (p, q) pairs of g's emitted edge text, parsed a line at a time, in order."""
    rows = (map(int, line.split()) for line in "".join(g.edge_lines()).splitlines())
    return [((x1, y1), (x2, y2)) for x1, y1, x2, y2 in rows]


def peel_adjacency(adj, threshold: float) -> set:
    """Drop nodes of current degree < threshold one at a time from a queue;
    return the survivors.  `adj` maps each node to its neighbours."""
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


def adjacency_bruteforce(points, m: int) -> dict:
    """Each point's neighbours at squared distance m, from the pair scan."""
    adj = {p: [] for p in points}
    for p, q in edge_set_bruteforce(points, m):
        adj[p].append(q)
        adj[q].append(p)
    return adj


def walks_from(points, m: int, start, k: int):
    """Every k-edge walk in the squared-distance-m graph, no pruning at all."""
    pts = set(map(tuple, points))
    if tuple(start) not in pts:
        raise ValueError("start vertex not in point set")
    vecs = sorted(two_squares_set(m))

    def extend(path):
        if len(path) == k + 1:
            yield tuple(path)
            return
        x, y = path[-1]
        for dx, dy in vecs:
            q = (x + dx, y + dy)
            if q in pts:
                path.append(q)
                yield from extend(path)
                path.pop()

    yield from extend([tuple(start)])


def has_vanishing_subsum(vectors) -> bool:
    """Exhaustive check over all nonempty subsets of displacement vectors."""
    k = len(vectors)
    for mask in range(1, 1 << k):
        sx = sy = 0
        for i in range(k):
            if mask >> i & 1:
                sx += vectors[i][0]
                sy += vectors[i][1]
        if sx == 0 and sy == 0:
            return True
    return False


def irredundant_walk_count(points, m: int, start, k: int) -> int:
    """Filter the unpruned walk enumeration through the subset-sum check."""
    n = 0
    for walk in walks_from(points, m, start, k):
        vecs = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(walk, walk[1:])]
        if not has_vanishing_subsum(vecs):
            n += 1
    return n


def lambert_w_bisect(x: float, iters: int = 200) -> float:
    """Principal-branch Lambert W on x >= 0 by plain bisection."""
    if x < 0:
        raise ValueError("principal branch oracle covers x >= 0 only")
    if x == 0:
        return 0.0
    lo = 0.0
    hi = max(1.0, math.log(x) + 1.0) if x >= 1 else 1.0
    for _ in range(iters):
        mid = (lo + hi) / 2
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
        if lo == hi:
            break
    return (lo + hi) / 2


def factor_over_backtracking(g, atoms):
    """(unit, factors) with g = unit * prod factors, factors[i] being atoms[i]
    or its conjugate, found by depth-first search over both choices at each
    atom (the atom first), or None; atoms and g are GaussInt."""
    if g.norm() != math.prod(a.norm() for a in atoms):
        return None
    chosen = []

    def descend(i, cur):
        if i == len(atoms):
            return cur if cur.is_unit() else None
        for cand in (atoms[i], atoms[i].conj()):
            num = cur * cand.conj()
            n = cand.norm()
            if num.a % n == 0 and num.b % n == 0:
                chosen.append(cand)
                unit = descend(i + 1, type(g)(num.a // n, num.b // n))
                if unit is not None:
                    return unit
                chosen.pop()
        return None

    unit = descend(0, g)
    return None if unit is None else (unit, tuple(chosen))


def gaussian_rational_mul(u, v):
    """(a+bi)(c+di) over exact rationals, as coefficient pairs."""
    a, b = Fraction(u[0]), Fraction(u[1])
    c, d = Fraction(v[0]), Fraction(v[1])
    return (a * c - b * d, a * d + b * c)


def _gaussian_rational_power(g, e: int):
    a, b = Fraction(g[0]), Fraction(g[1])
    if e < 0:
        norm = a * a + b * b
        a, b, e = a / norm, -b / norm, -e
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = gaussian_rational_mul(out, (a, b))
    return out


def unit_equation_solutions(coeffs, torsion_order: int, generators, height: int):
    """Every k-tuple (z_1 .. z_k) with sum a_j z_j = 1 and no vanishing
    nonempty subsum of the terms, as sorted tuples of Gaussian-rational pairs.

    The group is the torsion_order-th roots of unity (1, 2 or 4) times the
    generators raised to exponents |e| <= height.  Walks all v^k tuples and
    forms every term afresh; no slot is solved for.
    """
    if torsion_order not in (1, 2, 4):
        raise ValueError("the oracle covers the roots of unity in Q(i) only")
    roots = [(1, 0), (0, 1), (-1, 0), (0, -1)][:: 4 // torsion_order]
    pairs = [a if isinstance(a, tuple) else (a, 0) for a in coeffs]
    elements = set()
    for root in roots:
        for exps in product(range(-height, height + 1), repeat=len(generators)):
            z = (Fraction(root[0]), Fraction(root[1]))
            for g, e in zip(generators, exps):
                z = gaussian_rational_mul(z, _gaussian_rational_power(g, e))
            elements.add(z)
    found = []
    for tup in product(sorted(elements), repeat=len(pairs)):
        terms = [gaussian_rational_mul(a, z) for a, z in zip(pairs, tup)]
        if (sum(t[0] for t in terms), sum(t[1] for t in terms)) == (1, 0) and not has_vanishing_subsum(terms):
            found.append(tup)
    return found


def tuple_residual_solutions(coeffs, group, height: int):
    """What `enumerate_nondegenerate` returns, found the way it did before it
    packed residuals into ints: each prefix carries D * (1 - sum a_j z_j) as
    an int tuple, one subtraction per slot and one recursive call per leaf,
    and the last slot is looked up by that tuple.  The reference for its
    packed residuals and its fused last two slots, hits in the same order."""
    from udl.bounds import _as_pair, _slot_values
    from udl.cyclotomic import CyclotomicField
    from udl.paths import is_irredundant

    field = CyclotomicField(group.conductor)
    values = _slot_values(group, height, field)
    k = len(coeffs)
    terms = [[(field.embed_pair(*_as_pair(a)) * z).coeffs for z in values] for a in coeffs]
    scale = math.lcm(*(c.denominator for row in terms for term in row for c in term))
    scaled = [[tuple(c.numerator * (scale // c.denominator) for c in term) for term in row] for row in terms]
    last = {term: j for j, term in enumerate(scaled[-1])}
    hits = []

    def extend(residual, idx):
        if len(idx) == k - 1:
            j = last.get(residual)
            if j is not None:
                hits.append((*idx, j))
            return
        for j, term in enumerate(scaled[len(idx)]):
            extend(tuple(map(int.__sub__, residual, term)), (*idx, j))

    extend((scale,) + (0,) * (field.degree - 1), ())
    return [
        tuple(values[j] for j in hit)
        for hit in hits
        if is_irredundant([scaled[slot][j] for slot, j in enumerate(hit)])
    ]


def max_pair_grid_loop(g, k: int):
    """(v, w, depth) of the max pair on the full grid g, one displacement
    group at a time: the per-group loop the grid route used before it scored
    every group with a common point in one pass.  It builds the package's
    start rectangles by its own `_grid_paths` call and reads its box
    helpers, and is the reference at sizes the DFS oracle cannot reach.  Each kept group, largest first until one has fewer
    rects than the best depth, is scored by Helly when its rects share a
    point and by its deepest cells otherwise; its pair is the least image
    pair (v, v + L d) over the maps L."""
    from udl.paths import _deepest_cells, _grid_paths, _grid_symmetries, _map_box

    x0, y0, w, h = g.grid
    dx, dy, count, _, ax, bx, ay, by = _grid_paths(g, k)
    syms = _grid_symmetries(w, h)
    ends = list(accumulate(count.tolist()))

    def map_vector(sym, ex, ey):
        swap, fx, fy = sym
        if swap:
            ex, ey = ey, ex
        return (-ex if fx else ex, -ey if fy else ey)

    best = (None, None, 0)
    for gi in sorted(range(len(count)), key=lambda i: -int(count[i])):
        lo, hi = ends[gi] - int(count[gi]), ends[gi]
        if hi - lo < max(best[2], 1):
            break
        rects = ax[lo:hi], bx[lo:hi], ay[lo:hi], by[lo:hi]
        box = (int(rects[0].max()), int(rects[1].min()), int(rects[2].max()), int(rects[3].min()))
        if box[0] <= box[1] and box[2] <= box[3]:
            peak = hi - lo
            least = [_map_box(sym, w, h, *box)[::2] for sym in syms]
        else:
            *cells, peak = _deepest_cells(*rects)
            least = [min(zip(*(c.tolist() for c in _map_box(sym, w, h, *cells)[::2]))) for sym in syms]
        (x, y), (ex, ey) = min((v, map_vector(sym, int(dx[gi]), int(dy[gi]))) for v, sym in zip(least, syms))
        found = (x0 + x, y0 + y), (x0 + x + ex, y0 + y + ey), peak
        if found[2] > best[2] or (found[2] == best[2] > 0 and found[:2] < best[:2]):
            best = found
    return best


def closed_form_counts(r: int, k: int) -> tuple[int, int]:
    """(M_k, T_k) for r vectors of one norm, closed under negation: with
    h = r / 2 antipodal classes, a multiset or tuple with no antipodal pair
    takes from each class nothing or one sign, so there are
    M_k = [x^k] ((1 + x) / (1 - x))^h = sum_i C(h, i) C(h + k - i - 1, k - i)
    such k-multisets and T_k = k! [x^k] (2e^x - 1)^h
    = sum_j C(h, j) 2^j (-1)^(h - j) j^k such ordered k-tuples.  They count
    the irredundant ones exactly while that is the whole rule (k <= 5), and
    bound them from above once hexagons close."""
    h = r // 2
    multisets = sum(math.comb(h, i) * math.comb(h + k - i - 1, k - i) for i in range(k + 1))
    tuples = sum(math.comb(h, j) * 2**j * (-1) ** (h - j) * j**k for j in range(h + 1))
    return multisets, tuples


def multisets_whole_level(vectors, k: int):
    """(idx, sx, sy, kind) of the irredundant k-multisets, built the way
    `_multisets` did before it filtered inside its last level: every level
    whole, then the hexagon filter, then one stable sort by displacement.
    The reference for its row order and for the rows a displacement filter
    keeps."""
    import numpy as np
    from itertools import combinations

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
    idx = idx[~closes]
    sx, sy = step[idx, 0].sum(axis=1), step[idx, 1].sum(axis=1)
    order = np.lexsort((sy, sx))
    idx, sx, sy = idx[order], sx[order], sy[order]
    kind = (idx[:, 1:] == idx[:, :-1]) @ (1 << np.arange(k - 1))
    return idx, sx, sy, kind


def grid_tuple_stats(g, k: int, starts, pair):
    """(total, counts, recount) on the full grid g from every ordered k-tuple
    of vector indices, listed as an index product 2^20 rows at a time: a row
    is kept when all 2^k - 1 of its subset sums are nonzero, and its prefix
    box, from a cumsum that includes 0, spans [lo, hi].  total is the sum
    over kept rows of (width - X)+ (height - Y)+, X and Y the box's extents;
    counts[i] the rows whose box fits at starts[i]; recount the rows of
    displacement w - v whose box fits at v, for pair = (v, w).  int64
    throughout, with no multisets, orbits or box-depth fields."""
    import numpy as np

    x0, y0, width, height = g.grid
    vec = np.array(g.vectors, dtype=np.int64).reshape(-1, 2)
    subsets = [[j for j in range(k) if mask >> j & 1] for mask in range(1, 1 << k)]
    at = np.array([(x - x0, y - y0) for x, y in starts], dtype=np.int64).reshape(-1, 2)
    (vx, vy), (wx, wy) = pair if pair[0] is not None else ((0, 0), (0, 0))
    total, counts, recount = 0, np.zeros(len(at), dtype=np.int64), 0
    rows = len(vec) ** k
    for first in range(0, rows, 1 << 20):
        idx = np.stack(np.unravel_index(np.arange(first, min(rows, first + (1 << 20))), (len(vec),) * k), axis=1)
        steps = vec[idx]  # (rows, k, 2)
        keep = np.ones(len(steps), dtype=bool)
        for cols in subsets:
            keep &= steps[:, cols].sum(axis=1).any(axis=1)
        steps = steps[keep]
        pre = np.concatenate([np.zeros((len(steps), 1, 2), dtype=np.int64), np.cumsum(steps, axis=1)], axis=1)
        lo, hi, end = pre.min(axis=1), pre.max(axis=1), pre[:, -1]
        span = hi - lo
        total += int((np.maximum(width - span[:, 0], 0) * np.maximum(height - span[:, 1], 0)).sum())

        def fits(ox, oy):
            return (ox + lo[:, 0] >= 0) & (ox + hi[:, 0] < width) & (oy + lo[:, 1] >= 0) & (oy + hi[:, 1] < height)

        counts += [int(fits(ox, oy).sum()) for ox, oy in at.tolist()]
        if pair[0] is not None:
            recount += int((fits(vx - x0, vy - y0) & (end[:, 0] == wx - vx) & (end[:, 1] == wy - vy)).sum())
    return total, dict(zip(starts, counts.tolist())), recount
