import json
import math
import os
import random
import subprocess
import sys
from itertools import accumulate, combinations_with_replacement, islice, permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udl.paths import (
    MAX_PATH_LENGTH,
    StepBudgetExceeded,
    count_irredundant_from,
    count_irredundant_many,
    effective_step_budget,
    is_irredundant,
    max_pair_count,
    path_count_lower_bound,
    path_statistics,
    per_pair_counts,
    total_irredundant_paths,
    _deepest_cells,
    _displacement_groups,
    _grid_paths,
    _group_depth,
    _multisets,
    _orbit_least,
    _ordering_counts,
    _orderings,
)
from udl.udgraph import _box_depth, _box_scatter, _distinct, _field_depth, build_graph, grid_graph, lattice_vectors

from oracles import (
    closed_form_counts,
    has_vanishing_subsum,
    irredundant_walk_count,
    grid_tuple_stats,
    max_pair_grid_loop,
    multisets_whole_level,
    two_squares_set,
)


def grid(side):
    return [(x, y) for x in range(side) for y in range(side)]


def test_is_irredundant_examples():
    assert not is_irredundant([(1, 0), (0, 1), (-1, 0)])  # 1st+3rd cancel
    assert is_irredundant([(1, 0), (0, 1), (1, 0)])  # repeats are fine
    assert not is_irredundant([(0, 0)])
    assert is_irredundant([(1, 2)])
    assert is_irredundant([])
    # as complex floats 2^53 + 1 rounds to 2^53, and the pair would cancel
    assert is_irredundant([(2**53 + 1, 0), (-(2**53), 0)])
    assert not is_irredundant([(2**53 + 1, 0), (-(2**53) - 1, 0)])
    # integer vectors of any one length, as the unit-equation check passes them
    assert is_irredundant([(1, 2, 3), (-1, -2, -2)])
    assert not is_irredundant([(1, 2, 3), (0, 1, 0), (-1, -3, -3)])
    with pytest.raises(ValueError):
        is_irredundant([(1, 0)] * (MAX_PATH_LENGTH + 1))


def test_is_irredundant_matches_exhaustive_oracle():
    rng = random.Random(31)
    for _ in range(300):
        k = rng.randint(1, 6)
        vecs = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(k)]
        assert is_irredundant(vecs) == (not has_vanishing_subsum(vecs))


def test_count_corner_k1_is_degree():
    g = build_graph(grid(10), 5)
    assert count_irredundant_from(g, (0, 0), 1) == 2
    assert count_irredundant_from(g, (5, 5), 1) == 8


def test_count_center_of_3x3_square_lattice():
    # midpoints have degree 3, so 4 first steps x 2 non-reversal continuations
    g = build_graph(grid(3), 1)
    assert count_irredundant_from(g, (1, 1), 2) == 8
    assert irredundant_walk_count(grid(3), 1, (1, 1), 2) == 8


def test_count_matches_walk_filter_oracle():
    cases = [(4, 1, 3), (5, 5, 2), (5, 5, 3), (4, 2, 4), (6, 25, 3)]
    for side, m, k in cases:
        g = build_graph(grid(side), m)
        for start in [(0, 0), (side // 2, side // 2), (side - 1, 1)]:
            assert count_irredundant_from(g, start, k) == irredundant_walk_count(
                grid(side), m, start, k
            ), (side, m, k, start)


def test_count_rejects_bad_inputs():
    g = build_graph(grid(4), 1)
    with pytest.raises(ValueError):
        count_irredundant_from(g, (9, 9), 2)
    with pytest.raises(ValueError):
        count_irredundant_from(g, (0, 0), 0)
    with pytest.raises(ValueError):
        count_irredundant_from(g, (0, 0), MAX_PATH_LENGTH + 1)


def test_step_budget_guard():
    g = build_graph(grid(10), 5)  # R = 8
    with pytest.raises(StepBudgetExceeded):
        count_irredundant_from(g, (0, 0), 4, step_budget=1000)
    count_irredundant_from(g, (0, 0), 4, step_budget=8**4)
    with pytest.raises(StepBudgetExceeded):
        per_pair_counts(g, 3, step_budget=100 * 8**3 - 1)


def test_step_budget_env_override(monkeypatch):
    assert effective_step_budget() == 10**9
    assert effective_step_budget(123) == 123
    monkeypatch.setenv("UDL_STEP_BUDGET", "77")
    assert effective_step_budget() == 77
    g = build_graph(grid(10), 5)
    with pytest.raises(StepBudgetExceeded):
        count_irredundant_from(g, (0, 0), 3)


def test_a_lazy_grids_table_is_priced_before_it_is_built():
    # the 10 x 10 grid at m = 5 has n * R = 800 table entries; one start's DFS steps are far fewer
    refusal = "projected 800 neighbour-table lookups exceed the budget of 799"
    g, explicit = grid_graph(10, 5), build_graph(grid(10), 5)
    pairs = per_pair_counts(explicit, 2, starts=[(5, 5)])
    with pytest.raises(StepBudgetExceeded, match=refusal):
        per_pair_counts(g, 2, starts=[(5, 5)], step_budget=799)
    assert g._neighbours is None
    assert per_pair_counts(g, 2, starts=[(5, 5)], step_budget=800) == pairs
    assert g._neighbours is not None
    assert per_pair_counts(g, 2, starts=[(5, 5)], step_budget=8**3) == pairs  # 64 steps; a built table is not charged again
    # the per-start DFS locates its moves, so it is charged its 8^3 steps alone and builds no table
    g = grid_graph(10, 5)
    with pytest.raises(StepBudgetExceeded, match="projected 512 DFS steps exceed the budget of 511"):
        count_irredundant_from(g, (5, 5), 3, step_budget=511)
    assert count_irredundant_from(g, (5, 5), 3, step_budget=8**3) == count_irredundant_from(explicit, (5, 5), 3)
    assert g._neighbours is None


def test_a_lazy_grids_table_is_refused_in_a_gibibyte():
    # a 10^6 x 10^6 grid at m = 5: the table is 8 * 10^12 lookups, and its coordinate columns alone 7.28 TiB
    # each, so the per-pair refusal must come before any allocation; the per-start DFS, which locates its
    # moves, and the statistics that read no table still run
    start = (500_000, 500_000)
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from udl.paths import StepBudgetExceeded, count_irredundant_from, count_irredundant_many, per_pair_counts\n"
        "from udl.udgraph import grid_graph\n"
        "g = grid_graph(10**6, 5)\n"
        f"print(count_irredundant_from(g, {start}, 3))\n"
        "assert g._neighbours is None\n"
        "try:\n"
        f"    per_pair_counts(g, 2, starts=[{start}])\n"
        "except StepBudgetExceeded as exc:\n"
        "    print(exc)\n"
        "assert g._neighbours is None\n"
        f"print(count_irredundant_many(g, [{start}], 3)[{start}])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("UDL_STEP_BUDGET", None)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    dfs, refusal, count = out.stdout.splitlines()
    assert refusal == "projected 8000000000000 neighbour-table lookups exceed the budget of 1000000000; raise --step-budget or UDL_STEP_BUDGET to force the run"
    assert int(dfs) == int(count) == sum(is_irredundant(t) for t in product(sorted(two_squares_set(5)), repeat=3)) == 344


def test_path_count_lower_bound_examples():
    assert path_count_lower_bound(8, 3) == 280
    assert path_count_lower_bound(1, 1) == 1
    assert path_count_lower_bound(2, 3) == 0  # clamped at zero, never negative
    assert path_count_lower_bound(8, 4) == 280
    with pytest.raises(ValueError):
        path_count_lower_bound(-1, 2)


def test_counts_beat_lower_bound_on_small_configs():
    from udl.config import build_config, choose_params
    from udl.udgraph import degree_summary, peel

    for n in (100, 400):
        params = choose_params(n)
        h = peel(build_graph(build_config(params), params.m))
        delta = degree_summary(h).min_degree
        for k in (1, 2, 3):
            bound = path_count_lower_bound(delta, k)
            for v in h.points:
                assert count_irredundant_from(h, v, k) >= bound


def test_max_pair_trivial_cases():
    empty = build_graph([], 5)
    assert max_pair_count(empty, 2) == (None, None, 0)
    # path graph on three collinear points: the end-to-end pair carries 1 path
    path3 = build_graph([(0, 0), (0, 1), (0, 2)], 1)
    assert max_pair_count(path3, 2) == ((0, 0), (0, 2), 1)
    # no representations at all
    assert max_pair_count(build_graph(grid(3), 3), 2) == (None, None, 0)


def test_ordered_pairs_are_symmetric():
    g = build_graph(grid(6), 5)
    pairs = per_pair_counts(g, 3)
    for (v, w), c in pairs.items():
        assert pairs[(w, v)] == c


def test_max_pair_grid_route_agrees_with_dfs_route():
    for side, m, k in [(4, 1, 2), (6, 5, 3), (10, 5, 4), (5, 2, 3), (7, 4, 2)]:
        g = build_graph(grid(side), m)
        fast = max_pair_count(g, k)
        pairs = per_pair_counts(g, k)
        best = (None, None, 0)
        for (v, w), c in sorted(pairs.items()):
            if c > best[2]:
                best = (v, w, c)
        assert fast == best, (side, m, k)
        assert total_irredundant_paths(g, k) == sum(pairs.values())


def test_max_pair_respects_pigeonhole():
    g = build_graph(grid(10), 5)
    n2 = len(g.points) ** 2
    for k in (1, 2, 3):
        total = total_irredundant_paths(g, k)
        _, _, c = max_pair_count(g, k)
        assert c >= -(-total // n2)  # ceil division


def test_non_grid_points_use_dfs_route():
    pts = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)]  # hole at center
    g = build_graph(pts, 1)
    v, w, c = max_pair_count(g, 2)
    pairs = per_pair_counts(g, 2)
    assert pairs[(v, w)] == c == max(pairs.values())


def test_count_many_matches_single_and_workers_agree():
    g = build_graph(grid(8), 5)
    starts = [(0, 0), (3, 3), (7, 7), (2, 5)]
    seq = count_irredundant_many(g, starts, 3)
    assert seq == {s: count_irredundant_from(g, s, 3) for s in starts}
    par = count_irredundant_many(g, starts, 3, workers=2)
    assert par == seq


def _lex_min_best(pairs):
    """The lexicographically least pair (v, w) of the largest count c > 0."""
    top = max(pairs.values(), default=0)
    if top <= 0:
        return (None, None, 0)
    v, w = min(pair for pair, c in pairs.items() if c == top)
    return (v, w, top)


def test_grid_route_matches_dfs_on_random_offset_grids(monkeypatch):
    import numpy as np

    import udl.paths

    # how the max pair scores a group: by a common point of its rects (Helly), or ranked by `deepest`
    routes = {"common point": 0, "ranked": 0}
    visit = udl.paths._largest_groups_first

    def counted_visit(size, deepest, best):
        def counted(gi):
            routes["ranked"] += 1
            return deepest(gi)

        return visit(size, counted, best)

    monkeypatch.setattr(udl.paths, "_largest_groups_first", counted_visit)
    rng = random.Random(2)
    ms = [1, 2, 4, 5, 8, 10, 13, 25, 65]
    cases = [(14, 14, 5, 2), (9, 12, 5, 2)]
    while len(cases) < 120:
        w, h, m = rng.randint(1, 14), rng.randint(1, 14), rng.choice(ms)
        r = len(two_squares_set(m))
        # keep the per-start DFS reference affordable
        k_top = max(k for k in range(1, 5) if k == 1 or w * h * r**k <= 1_000_000)
        cases.append((w, h, m, rng.randint(1, k_top)))
    for w, h, m, k in cases:
        x0, y0 = rng.randint(-20, 20), rng.randint(-20, 20)
        g = build_graph([(x0 + x, y0 + y) for x in range(w) for y in range(h)], m)
        pairs = per_pair_counts(g, k)
        starts = rng.sample(g.points, min(len(g.points), 12))
        counts = count_irredundant_many(g, starts, k)
        assert counts == {s: count_irredundant_from(g, s, k) for s in starts}, (w, h, m, k)
        total = total_irredundant_paths(g, k)
        assert total == sum(pairs.values()), (w, h, m, k)
        best = max_pair_count(g, k)
        assert best == _lex_min_best(pairs), (w, h, m, k)
        _, _, count, _, ax, bx, ay, by = _grid_paths(g, k)
        heads = (np.cumsum(count) - count)[count > 0]
        shared = (np.maximum.reduceat(ax, heads) <= np.minimum.reduceat(bx, heads)) & (
            np.maximum.reduceat(ay, heads) <= np.minimum.reduceat(by, heads)
        )
        routes["common point"] += int(shared.sum())
        assert all(type(c) is int for c in (*counts.values(), total, best[2]))
        # every offset as a start: repeated x and y values, boundary rows and columns
        per_start = dict.fromkeys(g.points, 0)
        for (v, _), c in pairs.items():
            per_start[v] += c
        assert count_irredundant_many(g, g.points, k) == per_start, (w, h, m, k)
        if (w, h, m, k) == (14, 14, 5, 2):
            assert sum(1 for c in pairs.values() if c == best[2]) > 1  # the tie-break decides
    assert routes["common point"] > 0 and routes["ranked"] > 0, routes


def test_max_pair_pass_matches_the_per_group_loop():
    # 100 x 100 at m = 1105 is beyond the DFS oracle
    g = grid_graph(100, 1105)
    for k in (2, 3, 4):
        assert max_pair_count(g, k) == max_pair_grid_loop(g, k), k
    # at k = 4 the top group has no common point: it is ranked, and falls short of its size
    assert (_grid_paths(g, 4)[2].max(), max_pair_count(g, 4)[2]) == (216, 188)
    rng = random.Random(24)
    ms = [1, 2, 5, 13, 25, 65, 85, 325, 1105]
    cases = [(60, 90, 65, 3), (90, 60, 65, 3), (40, 120, 1105, 2), (33, 70, 325, 3), (50, 50, 65, 4)]
    while len(cases) < 80:
        w, m = rng.randint(1, 60), rng.choice(ms)
        h = w if len(cases) % 3 == 0 else rng.randint(1, 60)
        r = len(two_squares_set(m))
        cases.append((w, h, m, rng.choice([k for k in range(1, 5) if r**k <= 200_000])))
    for w, h, m, k in cases:
        g = grid_graph(w, m, height=h, corner=(rng.randint(-50, 50), rng.randint(-50, 50)))
        assert max_pair_count(g, k) == max_pair_grid_loop(g, k), (w, h, m, k)


def test_all_tie_max_pair_ranks_no_group(monkeypatch):
    import udl.paths

    g = grid_graph(100, 1105)
    expect = max_pair_grid_loop(g, 2)
    count = _grid_paths(g, 2)[2]
    assert expect[2] == count.max() == 2 and (count == 2).sum() > 1  # the top groups tie

    def refuse(*args):
        raise AssertionError("a group was ranked")

    monkeypatch.setattr(udl.paths, "_deepest_cells", refuse)
    assert max_pair_count(g, 2) == expect


def test_total_on_grids_past_int64_matches_a_tuple_oracle():
    # w = 2^31 and 3 * 2^31 make rows * w * h pass 2^63, so the total is summed
    # in Python ints; w = 7 and 50 keep the int64 sum
    for m in (5, 25):
        vectors = sorted(two_squares_set(m))
        for k in (1, 2, 3):
            extents = []
            for t in product(vectors, repeat=k):
                if has_vanishing_subsum(t):
                    continue
                pre = [(0, 0), *accumulate(t, lambda p, v: (p[0] + v[0], p[1] + v[1]))]
                xs, ys = [p[0] for p in pre], [p[1] for p in pre]
                extents.append((max(xs) - min(xs), max(ys) - min(ys)))
            for w in (7, 50, 2**31, 3 * 2**31):
                g = grid_graph(w, m)
                expect = sum(max(w - ex, 0) * max(w - ey, 0) for ex, ey in extents)
                assert total_irredundant_paths(g, k) == expect, (m, k, w)
                if k == 1:
                    assert expect == 2 * g.edge_count, (m, w)


def test_rect_columns_narrow_only_where_no_side_can_wrap():
    # int32 rect columns on sides below 2^31, int64 past it: a count at a start far from every edge is every
    # irredundant k-tuple (T_k does not depend on the start), the total is the summed extents, and the max pair,
    # at the low corner, is the same on both sides.  w = 2^29 sums each slice of weighted areas in Python ints
    import numpy as np

    def extents(vectors, k):
        for t in product(vectors, repeat=k):
            if not has_vanishing_subsum(t):
                pre = [(0, 0), *accumulate(t, lambda p, v: (p[0] + v[0], p[1] + v[1]))]
                yield max(p[0] for p in pre) - min(p[0] for p in pre), max(p[1] for p in pre) - min(p[1] for p in pre)

    for m in (5, 25):
        vectors = sorted(two_squares_set(m))
        for k in (1, 2, 3):
            spans = list(extents(vectors, k))
            pairs = []
            for w, dtype in ((2**29, np.int32), (2**31 - 1, np.int32), (2**31 + 1, np.int64)):
                g = grid_graph(w, m)
                assert all(col.dtype == dtype for col in _grid_paths(g, k)[4:]), (m, k, w)
                start = (w // 2, w // 3)
                assert count_irredundant_many(g, [start], k) == {start: len(spans)}, (m, k, w)
                assert total_irredundant_paths(g, k) == sum((w - ex) * (w - ey) for ex, ey in spans), (m, k, w)
                pairs.append(max_pair_count(g, k))
            assert pairs[1] == pairs[2] and pairs[1][2] > 0, (m, k, pairs)
    # a coordinate past 2^31 widens the columns on any side: at m = 5^27 some vectors have |dx| in
    # (2^31, 2.8 * 10^9), whose start offsets an int32 column would wrap into the 2^31 - 1 grid
    w, vectors = 2**31 - 1, lattice_vectors(5**27)
    assert any(2**31 < abs(dx) and abs(dy) < w for dx, dy in vectors)
    g = grid_graph(w, 5**27)
    assert _grid_paths(g, 1)[4].dtype == np.int64
    assert total_irredundant_paths(g, 1) == sum(max(w - abs(dx), 0) * max(w - abs(dy), 0) for dx, dy in vectors)


def test_max_pair_all_two_tuple_groups_tie_at_m1105():
    # the n = 10^4 configuration's 32 vectors: each of the 480 unordered
    # non-opposite pairs {a, b} is a displacement group of depth 2 once the
    # grid holds both orders, so the lexicographic tie-break picks the winner
    g = build_graph(grid(67), 1105)
    pairs = per_pair_counts(g, 2)
    best = max_pair_count(g, 2)
    assert best == _lex_min_best(pairs)
    assert best[2] == 2
    assert len({(w[0] - v[0], w[1] - v[1]) for (v, w), c in pairs.items() if c == 2}) == 480


def test_box_depth_matches_a_bruteforce_count(monkeypatch):
    import numpy as np

    import udl.udgraph

    budget = udl.udgraph._GATHER_BUDGET
    # the length of each `searchsorted` call: a side column's span when it is ranked by a table over that
    # span, its rows when it is ranked by `searchsorted`
    calls = []
    searchsorted = np.searchsorted

    def spy(u, values, side="left"):
        calls.append(len(values))
        return searchsorted(u, values, side)

    monkeypatch.setattr(np, "searchsorted", spy)

    def bruteforce(boxes, weight, ux, uy):
        def depth(x, y):
            return sum(o for o, (a, b, c, d) in zip(weight, boxes) if a <= x <= b and c <= y <= d)

        return [[depth(x, y) for y in uy.tolist()] for x in ux.tolist()]

    rng = random.Random(41)
    # (rows, lowest side, highest low side, widest box): many rows in a narrow span rank by tables, a few
    # rows over a wide span by searchsorted, where a table would take gigabytes; then no rows, and mixed
    shapes = [(60, -5, 25, 12), (3, -(10**9), 10**9, 10**8), (0, -5, 25, 12)] * 7
    shapes += [(rng.randint(1, 40), -5, 25, 12) for _ in range(20)]
    for trial, (rows, lo, hi, widest) in enumerate(shapes):
        boxes = []
        for i in range(rows):
            a, c = rng.randint(lo, hi), rng.randint(lo, hi)
            # every third box is one offset thick along x or y
            b = a + (0 if i % 3 == 0 else rng.randint(0, widest))
            boxes.append((a, b, c, c + (0 if i % 3 == 1 else rng.randint(0, widest))))
        # query coordinates past every box, at random, and at and beside the sides of a few boxes
        xs, ys = [lo - 1, hi + widest + 1], [lo - 1, hi + widest + 1]
        for _ in range(rng.randint(0, 12)):
            xs.append(rng.randint(lo - 1, hi + widest + 1))
            ys.append(rng.randint(lo - 1, hi + widest + 1))
        for a, b, c, d in rng.sample(boxes, min(rows, 4)):
            xs += [a - 1, a, b, b + 1]
            ys += [c - 1, c, d, d + 1]
        ux, uy = _distinct(np.array(xs, dtype=np.int64)), _distinct(np.array(ys, dtype=np.int64))
        assert (ux.tolist(), uy.tolist()) == (sorted(set(xs)), sorted(set(ys))), trial
        xa, xb, ya, yb = np.array(boxes, dtype=np.int64).reshape(-1, 4).T
        calls.clear()
        got = _box_depth(xa, xb, ya, yb, ux, uy)
        assert got.dtype == np.int64 and got.tolist() == bruteforce(boxes, [1] * rows, ux, uy), trial
        spans = [int(col.max() - col.min()) + 1 for col in (xa, xb, ya, yb)] if rows else []
        # every table is built first, one call over its span, and the rows then rank the other columns
        # by one call each; both groups in column order
        tabled = [span <= rows for span in spans]
        assert calls == [span for span, t in zip(spans, tabled) if t] + [rows for t in tabled if not t], trial
        if trial < 21:
            assert [span <= rows for span in spans] == [[True] * 4, [False] * 4, []][trial % 3], trial
        # one integer weight per row, as the sampled grid counts weight each rect by its group's orbit, and
        # the rows ranked and scattered all at once or 7 at a time
        weight = [rng.choice((1, 2, 4, 8)) for _ in boxes]
        expect = bruteforce(boxes, weight, ux, uy)
        for rows_at_once in (7, budget):
            monkeypatch.setattr(udl.udgraph, "_GATHER_BUDGET", rows_at_once)
            field = np.zeros((len(ux) + 1) * (len(uy) + 1), dtype=np.int64)
            _box_scatter(field, xa, xb, ya, yb, ux, uy, np.array(weight, dtype=np.int64))
            got = _field_depth(field, ux, uy)
            assert got.dtype == np.int64 and got.tolist() == expect, (trial, rows_at_once)


def test_deepest_cells_cover_exactly_the_deepest_points():
    import numpy as np

    rng = random.Random(43)
    for trial in range(200):
        rows = 1 if trial < 20 else rng.randint(2, 12)
        ax = np.array([rng.randint(0, 9) for _ in range(rows)], dtype=np.int64)
        ay = np.array([rng.randint(0, 9) for _ in range(rows)], dtype=np.int64)
        # every fourth rectangle is a single point
        bx = ax + [0 if i % 4 == 0 else rng.randint(0, 6) for i in range(rows)]
        by = ay + [0 if i % 4 == 0 else rng.randint(0, 6) for i in range(rows)]
        rects = list(zip(ax.tolist(), bx.tolist(), ay.tolist(), by.tolist()))
        depth = {
            (x, y): sum(a <= x <= b and c <= y <= d for a, b, c, d in rects) for x in range(-1, 17) for y in range(-1, 17)
        }
        peak = max(depth.values())
        xa, xb, ya, yb, got = _deepest_cells(ax, bx, ay, by)
        cells = list(zip(xa.tolist(), xb.tolist(), ya.tolist(), yb.tolist()))
        assert got == peak, trial
        assert all(a <= b and c <= d for a, b, c, d in cells), trial
        covered = [(x, y) for a, b, c, d in cells for x in range(a, b + 1) for y in range(c, d + 1)]
        assert len(covered) == len(set(covered)), trial  # the cells are disjoint
        assert set(covered) == {p for p, c in depth.items() if c == peak}, trial


def _expand(idx, kind, k):
    """The index tuples the multisets stand for: each ordering of each row."""
    return [tuple(row[p] for p in order) for row, c in zip(idx.tolist(), kind.tolist()) for order in _orderings(k, c).tolist()]


def _one_run_each(keys):
    runs = [key for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]
    return len(runs) == len(set(runs))


def test_multisets_match_filtered_product_oracle():
    for m, k_top in [(1, 4), (2, 3), (5, 5), (25, 3)]:
        vecs = sorted(two_squares_set(m))
        for k in range(1, k_top + 1):
            idx, sx, sy, kind = _multisets(vecs, k)
            got = sorted(tuple(vecs[j] for j in tup) for tup in _expand(idx, kind, k))
            assert got == sorted(t for t in product(vecs, repeat=k) if not has_vanishing_subsum(t)), (m, k)
            disp = list(zip(sx.tolist(), sy.tolist()))
            assert disp == [tuple(map(sum, zip(*(vecs[j] for j in row)))) for row in idx.tolist()], (m, k)
            assert _one_run_each(disp), (m, k)
    # m = 5 has four antipodal pairs, so no five distinct vectors; m = 25 has
    # six, and every one of the 16 repetition patterns occurs at k = 5
    vecs = sorted(two_squares_set(25))
    idx, _, _, kind = _multisets(vecs, 5)
    assert set(kind.tolist()) == set(range(16))
    rows = [ms for ms in combinations_with_replacement(range(len(vecs)), 5) if not has_vanishing_subsum([vecs[j] for j in ms])]
    assert sorted(map(tuple, idx.tolist())) == rows
    for row, c in zip(idx.tolist(), kind.tolist()):
        assert [tuple(row[p] for p in order) for order in _orderings(5, c).tolist()] == sorted(set(permutations(row)))
    # past k = 5 the product oracle is too slow: the ascending multisets with
    # no antipodal pair, filtered by the subsum oracle.  The rows that oracle
    # drops there close an even polygon of six or more sides, which only the
    # hexagon filter sees; at k = 8 some close only as an octagon
    for m, k, closed in [(5, 6, 4), (5, 7, 16), (5, 8, 44), (25, 6, 8)]:
        vecs = sorted(two_squares_set(m))
        idx, sx, sy, _ = _multisets(vecs, k)
        free = [
            ms
            for ms in combinations_with_replacement(range(len(vecs)), k)
            if not any((-vecs[i][0], -vecs[i][1]) == vecs[j] for i in ms for j in ms)
        ]
        rows = [ms for ms in free if not has_vanishing_subsum([vecs[j] for j in ms])]
        assert sorted(map(tuple, idx.tolist())) == rows, (m, k)
        assert len(free) - len(rows) == closed, (m, k)
        disp = list(zip(sx.tolist(), sy.tolist()))
        assert disp == [tuple(map(sum, zip(*(vecs[j] for j in row)))) for row in idx.tolist()], (m, k)
        assert _one_run_each(disp), (m, k)
    # antipodes are looked up among the vectors: a list not closed under
    # negation has none for (0, 1) and fails instead of being miscounted
    with pytest.raises(KeyError):
        _multisets([(1, 0), (0, 1), (-1, 0)], 2)


def test_multisets_sort_by_displacement_then_index_row_at_any_norm():
    # at m = 5^28 (about 3.7 * 10^19) the product of the two displacement spans passes 2^63: no one int64 key orders them
    for m, k_top in [(5, 3), (65, 2), (5**28, 2)]:
        vecs = lattice_vectors(m)
        for k in range(1, k_top + 1):
            idx, sx, sy, kind = _multisets(vecs, k)
            keys = [(x, y, *row) for x, y, row in zip(sx.tolist(), sy.tolist(), idx.tolist())]
            assert keys == sorted(set(keys)), (m, k)
            # the displacement filter keeps the same rows in the same order
            for keep in (lambda x, y: (x <= y) & (y <= 0), lambda x, y: (x <= 0) & (y <= 0)):
                rows = keep(sx, sy)
                assert 0 < rows.sum() < len(rows), (m, k)
                for got, full in zip(_multisets(vecs, k, keep), (idx, sx, sy, kind)):
                    assert (got == full[rows]).all(), (m, k)


def test_multisets_filtered_in_the_last_level_equal_the_whole_level_masked():
    # `keep` drops rows before they are built, and the hexagon filter (k = 6) then runs on the rows kept: the
    # same rows, in the same order, as building every level whole and masking afterwards; without `keep`
    # (the point-set route) the arrays are the whole build's
    import numpy as np

    rules = [_orbit_least(9, 9), _orbit_least(9, 4)]  # dx <= dy <= 0, and dx <= 0 and dy <= 0
    # at m = 5^28 a coordinate is about 6.1 * 10^9, so the sums need int64
    for m, k_top in [(5, 6), (25, 6), (65, 6), (1105, 6), (5**28, 2), (None, 6)]:
        vecs = lattice_vectors(m) if m else []
        for k in range(1, k_top + 1):
            whole = multisets_whole_level(vecs, k)
            assert all(np.array_equal(got, ref) for got, ref in zip(_multisets(vecs, k), whole)), (m, k)
            for keep in rules:
                rows = keep(whole[1], whole[2])
                assert m is None or 0 < rows.sum() < len(rows), (m, k)
                assert all(np.array_equal(got, ref[rows]) for got, ref in zip(_multisets(vecs, k, keep), whole)), (m, k)
    assert _multisets([], 3, rules[0])[0].shape == (0, 3)


def test_multiset_and_tuple_counts_match_the_closed_forms():
    # with h = R / 2 antipodal classes, a multiset or tuple with no antipodal
    # pair takes from each class nothing or one sign, so the counts are
    # [x^k] ((1 + x) / (1 - x))^h and k! [x^k] (2e^x - 1)^h: exact while
    # that is the whole rule (k <= 5), upper bounds once hexagons close
    for m, k_top in [(5, 6), (65, 6), (1105, 6), (48612265, 2)]:
        vecs = sorted(two_squares_set(m))
        for k in range(1, k_top + 1):
            idx, _, _, kind = _multisets(vecs, k)
            multisets, tuples = closed_form_counts(len(vecs), k)
            got = (len(idx), int(_ordering_counts(k, kind).sum()))
            if k <= 5:
                assert got == (multisets, tuples), (m, k)
            else:
                assert got[0] < multisets and got[1] < tuples, (m, k)


@st.composite
def _equal_norm_tuples(draw):
    m = draw(
        st.one_of(
            st.sampled_from([1, 2, 5, 25, 65, 325]),
            st.builds(lambda a, b: a * a + b * b, st.integers(1, 707), st.integers(0, 707)),
        )
    )
    return draw(st.lists(st.sampled_from(sorted(two_squares_set(m))), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_equal_norm_tuples())
@example([(-2, -1), (-2, -1), (-1, 2), (1, 2), (2, -1), (2, -1)])  # a hexagon at m = 5
@example([(-5, 0), (-5, 0), (0, -5), (3, 4), (3, 4), (4, -3)])  # and at m = 25
@example([(3, 4), (4, 3), (-3, -4), (-4, -3)])  # a rhombus
def test_parity_rule_decides_irredundancy_of_equal_norm_tuples(tup):
    no_pair = not any((-x, -y) in tup for x, y in tup)
    closes = len(tup) == 6 and tuple(map(sum, zip(*tup))) == (0, 0)
    assert (no_pair and not closes) == is_irredundant(tup)


def _box_maps(w, h):
    """(matrix, shift) of each map p -> matrix p + shift of the w x h box [0, w) x [0, h) onto itself: the
    signed permutation matrices, all 8 on a square box, the 4 diagonal ones on any other."""
    mats = [((a, 0), (0, b)) for a in (1, -1) for b in (1, -1)]
    if w == h:
        mats += [((0, a), (b, 0)) for a in (1, -1) for b in (1, -1)]
    maps = []
    for mat in mats:
        corners = [_times(mat, x, y) for x in (0, w - 1) for y in (0, h - 1)]
        maps.append((mat, (-min(x for x, _ in corners), -min(y for _, y in corners))))
    return maps


def _times(mat, x, y):
    return (mat[0][0] * x + mat[0][1] * y, mat[1][0] * x + mat[1][1] * y)


def _expanded_rects(g, k):
    """The (dx, dy, ax, bx, ay, by) rows of every displacement group, each kept group of `_grid_paths` mapped
    to each distinct image of its displacement; checks that a kept displacement is the lex-least of its orbit
    and that orbit counts its distinct images.  Also returns the number of kept groups with rows whose orbit
    is smaller than the number of maps."""
    _, _, w, h = g.grid
    maps = _box_maps(w, h)
    dx, dy, count, orbit, *rect = _grid_paths(g, k)
    rows, small, lo = [], 0, 0
    for d, c, o in zip(zip(dx.tolist(), dy.tolist()), count.tolist(), orbit.tolist()):
        group = list(zip(*(col[lo : lo + c].tolist() for col in rect)))
        lo += c
        images = {}
        for mat, shift in maps:
            images.setdefault(_times(mat, *d), (mat, shift))
        assert o == len(images) and d == min(images), (g.grid, k, d, o)
        small += c > 0 and o < len(maps)
        for (ex, ey), (mat, (cx, cy)) in images.items():
            for ax, bx, ay, by in group:
                xs, ys = zip(*(_times(mat, x, y) for x in (ax, bx) for y in (ay, by)))
                rows.append((ex, ey, min(xs) + cx, max(xs) + cx, min(ys) + cy, max(ys) + cy))
    assert lo == len(rect[0])
    return rows, small


def test_grid_rects_match_clipped_prefix_box_oracle():
    import numpy as np

    rng = random.Random(11)
    boxes = {}  # (m, k) -> (sum x, sum y, min x, max x, min y, max y) per irredundant tuple
    for m in (1, 5, 25, 65):
        vecs = sorted(two_squares_set(m))
        for k in range(1, 6):
            if len(vecs) ** k > 50_000:
                break
            boxes[m, k] = []
            for tup in product(vecs, repeat=k):
                if not has_vanishing_subsum(tup):
                    xs = list(accumulate((v[0] for v in tup), initial=0))
                    ys = list(accumulate((v[1] for v in tup), initial=0))
                    boxes[m, k].append((xs[-1], ys[-1], min(xs), max(xs), min(ys), max(ys)))
    for m in (1, 5, 25, 65):
        for _ in range(6):
            w, h, x0, y0 = rng.randint(1, 9), rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)
            g = build_graph([(x0 + x, y0 + y) for x in range(w) for y in range(h)], m)
            for (bm, k), rows in boxes.items():
                if bm != m:
                    continue
                clipped = [(sx, sy, -lx, w - 1 - hx, -ly, h - 1 - hy) for sx, sy, lx, hx, ly, hy in rows]
                expected = sorted(r for r in clipped if r[2] <= r[3] and r[4] <= r[5])
                got, _ = _expanded_rects(g, k)
                assert sorted(got) == expected, (w, h, m, k)
                dx, dy, count, *_ = _grid_paths(g, k)
                assert len(set(zip(dx.tolist(), dy.tolist()))) == len(dx), (w, h, m, k)
    for side, m in [(6, 5), (5, 1)]:
        g = build_graph(grid(side), m)
        pairs = per_pair_counts(g, 5)
        assert max_pair_count(g, 5) == _lex_min_best(pairs), (side, m)
        assert total_irredundant_paths(g, 5) == sum(pairs.values()), (side, m)


def _unquotiented_grid_stats(g, k):
    """(rect rows, total, count per point, max pair) of the w x h grid g, read off the start rectangles of
    every irredundant k-tuple with no quotient: the tuples of `_displacement_groups`, each group's depth at
    every offset summed one rectangle at a time."""
    import numpy as np

    x0, y0, w, h = g.grid
    step = np.array(g.vectors, dtype=np.int64).reshape(-1, 2)
    dx, dy, _, tuples = _displacement_groups(g.vectors, k)
    rows, counts, best = [], np.zeros((w, h), dtype=np.int64), (None, None, 0)
    for gi, d in enumerate(zip(dx.tolist(), dy.tolist())):
        t = tuples(gi)
        bounds = []
        for c, side in ((0, w), (1, h)):
            pre = np.concatenate([np.zeros((len(t), 1), dtype=np.int64), step[t, c].cumsum(axis=1)], axis=1)
            bounds += [-pre.min(axis=1), side - 1 - pre.max(axis=1)]
        depth = np.zeros((w, h), dtype=np.int64)
        for ax, bx, ay, by in zip(*(b.tolist() for b in bounds)):
            if ax <= bx and ay <= by:
                rows.append((*d, ax, bx, ay, by))
                depth[ax : bx + 1, ay : by + 1] += 1
        counts += depth
        i, j = divmod(int(depth.argmax()), h)  # the first deepest offset in (x, y) order
        pair = ((x0 + i, y0 + j), (x0 + i + d[0], y0 + j + d[1]))
        if depth[i, j] > best[2] or (depth[i, j] == best[2] > 0 and pair < best[:2]):
            best = (*pair, int(depth[i, j]))
    per_point = {(x0 + i, y0 + j): int(counts[i, j]) for i in range(w) for j in range(h)}
    return rows, int(counts.sum()), per_point, best


def test_grid_orbit_quotient_matches_the_unquotiented_rects():
    rng = random.Random(20)
    cases = [(14, 14, 5, 2)]
    while len(cases) < 80:
        w = rng.randint(1, 18)
        h = w if len(cases) % 2 else rng.randint(1, 18)
        m = rng.choice([1, 2, 4, 5, 8, 10, 25, 65])
        r = len(two_squares_set(m))
        k_top = max(k for k in range(1, 5) if k == 1 or r**k <= 70_000)
        cases.append((w, h, m, rng.randint(1, k_top)))
    small = squares = 0
    for w, h, m, k in cases:
        x0, y0 = rng.randint(-20, 20), rng.randint(-20, 20)
        g = build_graph([(x0 + x, y0 + y) for x in range(w) for y in range(h)], m)
        rows, total, per_point, best = _unquotiented_grid_stats(g, k)
        got, stabilised = _expanded_rects(g, k)
        assert sorted(got) == sorted(rows), (w, h, m, k)
        assert total_irredundant_paths(g, k) == total, (w, h, m, k)
        assert count_irredundant_many(g, g.points, k) == per_point, (w, h, m, k)
        assert max_pair_count(g, k) == best, (w, h, m, k)
        small += stabilised
        squares += w == h
        if (w, h, m, k) == (14, 14, 5, 2):  # the tie-break decides among several deepest pairs
            assert sum(c == best[2] for c in per_pair_counts(g, k).values()) > 1
    # some groups on an axis or a diagonal have fewer images than maps, and both kinds of grid are drawn
    assert small > 0 and 0 < squares < len(cases), (small, squares)


def test_grid_route_on_grids_with_no_path_and_with_empty_groups():
    # a 1 x 1 grid holds no edge, and m = 3 has no vectors at all
    for g in (build_graph([(2, -1)], 5), build_graph([(0, 0)], 1), build_graph(grid(4), 3)):
        for k in (1, 2, 3):
            assert max_pair_count(g, k) == (None, None, 0), (g.grid, g.m, k)
            assert total_irredundant_paths(g, k) == 0, (g.grid, g.m, k)
            assert set(count_irredundant_many(g, g.points[:5], k).values()) == {0}, (g.grid, g.m, k)
    # (1, 2) twice moves 4 along y, more than a 3 x 3 grid holds: a group of no rows
    g = build_graph(grid(3), 5)
    dx, dy, count, *_ = _grid_paths(g, 2)
    assert (count == 0).any() and (count > 0).any()
    # the group stands for its orbit, whose lex-least displacement is (-4, -2)
    assert (-4, -2) in set(zip(dx[count == 0].tolist(), dy[count == 0].tolist()))
    assert max_pair_count(g, 2) == _lex_min_best(per_pair_counts(g, 2))


def test_grid_statistics_sort_no_array_of_rects(monkeypatch):
    import numpy as np

    side, m, k = 67, 1105, 3
    g = build_graph(grid(side), m)
    vecs = sorted(two_squares_set(m))
    fit = 0  # irredundant k-tuples whose prefix box fits the grid: the rows of the grid route
    for tup in product(vecs, repeat=k):
        xs = list(accumulate((v[0] for v in tup), initial=0))
        ys = list(accumulate((v[1] for v in tup), initial=0))
        fit += max(xs) - min(xs) < side and max(ys) - min(ys) < side and is_irredundant(tup)
    sorted_rows = []

    def recording(original, rows):
        def sort(a, *args, **kwargs):
            sorted_rows.append(rows(a))
            return original(a, *args, **kwargs)

        return sort

    monkeypatch.setattr(np, "lexsort", recording(np.lexsort, lambda keys: np.shape(keys)[-1]))
    monkeypatch.setattr(np, "argsort", recording(np.argsort, np.size))
    monkeypatch.setattr(np, "sort", recording(np.sort, np.size))
    count_irredundant_many(g, [(0, 0), (33, 33), (66, 5)], k)
    total_irredundant_paths(g, k)
    max_pair_count(g, k)
    assert sorted_rows and max(sorted_rows) < fit, (sorted_rows, fit)


def test_count_many_workers_agree_on_a_holed_grid():
    pts = [p for p in grid(8) if p not in {(3, 4), (5, 1)}]
    g = build_graph(pts, 5)
    starts = [(0, 0), (3, 3), (7, 7), (2, 5), (4, 4)]
    seq = count_irredundant_many(g, starts, 3)
    assert seq == {s: count_irredundant_from(g, s, 3) for s in starts}
    assert count_irredundant_many(g, starts, 3, workers=2) == seq


def _holed_box(w, h, holes):
    return [(x, y) for x in range(w) for y in range(h) if (x, y) not in holes]


def test_per_pair_counts_over_all_points_refuses_before_listing_them():
    g = grid_graph(1000, 5)
    with pytest.raises(StepBudgetExceeded):
        per_pair_counts(g, 2, step_budget=1)
    assert g._points is None  # the lazy grid never listed its 10^6 points


@pytest.mark.parametrize("workers", [1, 2])
def test_repeated_start_is_counted_once(workers):
    g = build_graph(_holed_box(6, 6, {(2, 3), (4, 1)}), 5)
    assert g.grid is None
    once = count_irredundant_from(g, (0, 0), 2)
    for starts in ([(0, 0), (0, 0)], [(0, 0), (1, 1), (0, 0)]):
        pairs = per_pair_counts(g, 2, starts=starts)
        from_origin = {key: c for key, c in pairs.items() if key[0] == (0, 0)}
        assert from_origin == per_pair_counts(g, 2, starts=[(0, 0)])
        assert sum(from_origin.values()) == once
        counts = count_irredundant_many(g, starts, 2, workers=workers)
        assert list(counts) == list(dict.fromkeys(starts))
        assert counts[(0, 0)] == once


def test_pair_statistics_ignore_workers_on_a_holed_grid():
    g = build_graph(_holed_box(8, 8, {(3, 4), (5, 1), (0, 7)}), 5)
    assert g.grid is None
    pairs = per_pair_counts(g, 3)
    assert total_irredundant_paths(g, 3, workers=2) == total_irredundant_paths(g, 3) == sum(pairs.values())
    assert max_pair_count(g, 3, workers=2) == max_pair_count(g, 3) == _lex_min_best(pairs)


def _walker_cases(rng):
    for _ in range(15):
        w, h, m, k = rng.randint(2, 7), rng.randint(2, 7), rng.choice([1, 5, 25]), rng.randint(1, 3)
        # opposite corners stay, so the bounding box stays w x h
        inner = [(x, y) for x in range(w) for y in range(h) if (x, y) not in {(0, 0), (w - 1, h - 1)}]
        yield _holed_box(w, h, set(rng.sample(inner, max(1, len(inner) // 5)))), m, k
    # two holed boxes 10^12 apart, one at a negative offset: the neighbour
    # table grows with the points, not with the bounding box
    far = 10**12
    sparse = [(x - 9, y - far) for x, y in _holed_box(5, 6, {(2, 2), (1, 4)})]
    sparse += [(x + far, y + 3) for x, y in _holed_box(6, 4, {(3, 1)})]
    yield from ((sparse, m, k) for m, k in [(1, 3), (5, 3), (25, 2)])


def test_walker_routes_agree_with_oracles_on_holed_boxes():
    rng = random.Random(7)
    for pts, m, k in _walker_cases(rng):
        g = build_graph(pts, m)
        assert g.grid is None
        starts = rng.sample(pts, min(len(pts), 5))
        pairs = per_pair_counts(g, k, starts=starts)
        for s in starts:
            counts = (
                count_irredundant_from(g, s, k),
                sum(c for (v, _), c in pairs.items() if v == s),
                irredundant_walk_count(pts, m, s, k),
            )
            assert len(set(counts)) == 1, (m, k, s, counts)
        expect = []
        for j in range(1, k + 1):  # one graph at every length, each statistic computed afresh
            from_dfs = {s: count_irredundant_from(g, s, j) for s in pts}
            every = per_pair_counts(g, j)
            assert count_irredundant_many(g, starts, j) == {s: from_dfs[s] for s in starts}, (m, j)
            assert total_irredundant_paths(g, j) == sum(from_dfs.values()) == sum(every.values()), (m, j)
            assert max_pair_count(g, j) == _lex_min_best(every), (m, j)
            expect.append(({s: from_dfs[s] for s in starts}, sum(from_dfs.values()), _lex_min_best(every)))
        assert path_statistics(g, range(1, k + 1), starts) == expect, (m, k)


def test_path_statistics_price_a_point_set_twice_and_walk_it_once_per_k(monkeypatch):
    # per k: its sampled counts and its total (whose projection the max pair
    # shares) are priced, then one walk over every vertex gives the total and,
    # read at the starts, the counts
    import udl.paths

    calls = []
    for name in ("_check_budget", "_start_counts"):

        def counted(*args, name=name, original=getattr(udl.paths, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(udl.paths, name, counted)
    g = build_graph(_holed_box(20, 20, set(random.Random(3).sample(grid(20), 25))), 65)
    assert g.grid is None and g.vertex_count == 375 and len(g.vectors) == 16
    starts = random.Random(4).sample(g.points, 50)
    got = path_statistics(g, [2, 3], starts)
    assert calls == ["_check_budget"] * 4 + ["_start_counts"] * 2
    monkeypatch.undo()
    assert got == [
        (count_irredundant_many(g, starts, k), total_irredundant_paths(g, k), max_pair_count(g, k)) for k in (2, 3)
    ]


@st.composite
def _holed_boxes(draw):
    w, h = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cells = [(x, y) for x in range(w) for y in range(h)]
    return _holed_box(w, h, draw(st.sets(st.sampled_from(cells), min_size=1, max_size=len(cells))))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_holed_boxes(), st.sampled_from([1, 5, 25, 65]), st.integers(1, 4))
# the first largest group (12 tuples) reaches depth 2 and the best, 4, lies in a later group
@example(_holed_box(3, 30, {(0, 0)}), 5, 3)
# the largest groups (6 tuples) have depth 0 and the best, 4, comes from a smaller size class
@example(_holed_box(2, 5, {(0, 0)}), 1, 4)
@example(_holed_box(5, 5, {(0, 0)}), 25, 3)  # every group has depth 0
@example([], 5, 2)
def test_start_walk_and_pruned_max_pair_match_the_references(points, m, k):
    g = build_graph(points, m)
    counts = count_irredundant_many(g, points, k)
    assert counts == {s: count_irredundant_from(g, s, k) for s in points}
    assert total_irredundant_paths(g, k) == sum(counts.values())
    pairs = per_pair_counts(g, k)
    per_start = dict.fromkeys(points, 0)
    for (v, _), c in pairs.items():
        per_start[v] += c
    assert per_start == counts
    assert max_pair_count(g, k) == _lex_min_best(pairs)


def test_fixed_max_pair_cases_have_the_shapes_they_exercise():
    import numpy as np

    for points, m, k, largest_depth, best in [
        (_holed_box(3, 30, {(0, 0)}), 5, 3, 2, ((0, 2), (0, 3), 4)),
        (_holed_box(2, 5, {(0, 0)}), 1, 4, 0, ((0, 1), (1, 4), 4)),
        (_holed_box(5, 5, {(0, 0)}), 25, 3, 0, (None, None, 0)),
    ]:
        g = build_graph(points, m)
        assert g.grid is None
        _, _, size, tuples = _displacement_groups(g.vectors, k)
        first = int(np.argmax(size))  # the first group the largest-first visit takes
        assert _group_depth(g.neighbours, tuples(first), np.arange(g.vertex_count)).max() == largest_depth
        assert max_pair_count(g, k) == best


def _holed_m1105():
    box = grid(100)
    drop = set(random.Random(5).sample(range(len(box)), 500))
    return build_graph([p for i, p in enumerate(box) if i not in drop], 1105)


def test_holed_box_at_m1105_keeps_the_placed_totals_and_max_pairs():
    g = _holed_m1105()
    assert g.grid is None and g.vertex_count == 9500 and len(g.vectors) == 32
    assert total_irredundant_paths(g, 3) == 66_643_710
    assert max_pair_count(g, 3) == ((12, 33), (64, 46), 18)
    starts = random.Random(6).sample(g.points, 20)
    assert count_irredundant_many(g, starts, 3) == {s: count_irredundant_from(g, s, 3) for s in starts}
    # the projection 9500 * 32^4 is over the default budget of 10^9
    with pytest.raises(StepBudgetExceeded):
        total_irredundant_paths(g, 4)
    assert total_irredundant_paths(g, 4, step_budget=10**10) == 1_211_174_470
    assert max_pair_count(g, 4, step_budget=10**10) == ((39, 33), (39, 67), 184)


def test_path_statistics_start_no_process(monkeypatch):
    import multiprocessing.process

    def holed():
        return build_graph(_holed_box(8, 8, {(3, 4), (5, 1), (0, 7)}), 5)

    def stats(g, workers):
        starts = [(0, 0), (3, 3), (7, 7), (2, 5)]
        return (
            count_irredundant_many(g, starts, 3, workers=workers),
            per_pair_counts(g, 3),
            total_irredundant_paths(g, 3, workers=workers),
            max_pair_count(g, 3, workers=workers),
        )

    serial = stats(holed(), 1)

    def refuse(self):
        raise AssertionError("a path statistic started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    assert stats(holed(), 2) == serial


def test_grid_statistics_allocate_nothing_of_side_squared():
    # a 100000 x 100000 grid: any (side+1)^2 int64 array needs 74.5 GiB, so the
    # child, capped at 1 GiB of address space, fails if one is allocated
    _check_grid_statistics_under_a_1gib_cap(100_000)


def test_sampled_grid_counts_allocate_nothing_of_the_side():
    # at side 10^8 an O(side) int64 array is 763 MiB, so under the same cap one
    # rank table per grid offset fails
    _check_grid_statistics_under_a_1gib_cap(100_000_000)


def test_sampled_grid_counts_allocate_nothing_of_the_reach():
    # m = 4^26 has the 4 vectors of length 2^26 (halve both coordinates of a sum of two
    # squares divisible by 4), so an int64 rank table per offset a prefix box reaches is 512 MiB
    reach = 2**26
    _check_grid_statistics_under_a_1gib_cap(100_000_000, 4**26, [(-reach, 0), (0, -reach), (0, reach), (reach, 0)], 1)


def _check_grid_statistics_under_a_1gib_cap(side, m=5, vectors=sorted(two_squares_set(5)), k=3):
    x0, y0 = -7, 3
    starts = [(x0, y0), (x0 + side - 1, y0), (x0, y0 + side - 1), (x0 + side - 1, y0 + side - 1), (x0 + 2, y0 + 1)]
    code = (
        "import json, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from udl.paths import count_irredundant_many, total_irredundant_paths\n"
        "from udl.udgraph import grid_graph\n"
        f"g = grid_graph({side}, {m}, corner={(x0, y0)})\n"
        f"counts = count_irredundant_many(g, {starts}, {k})\n"
        f"json.dump([[list(s), c] for s, c in counts.items()] + [total_irredundant_paths(g, {k})], sys.stdout)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    # one BLAS thread: each extra thread reserves address space under the cap
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env["OPENBLAS_NUM_THREADS"] = "1"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    *counts, total = json.loads(out.stdout)
    tuples = [t for t in product(vectors, repeat=k) if is_irredundant(t)]
    boxes = []
    for t in tuples:
        pre = [(0, 0), *accumulate(t, lambda p, v: (p[0] + v[0], p[1] + v[1]))]
        xs, ys = [p[0] for p in pre], [p[1] for p in pre]
        boxes.append((min(xs), max(xs), min(ys), max(ys)))

    def fits(s, box):
        lx, hx, ly, hy = box
        return x0 <= s[0] + lx and s[0] + hx < x0 + side and y0 <= s[1] + ly and s[1] + hy < y0 + side

    assert counts == [[list(s), sum(fits(s, b) for b in boxes)] for s in starts]
    assert total == sum((side - (hx - lx)) * (side - (hy - ly)) for lx, hx, ly, hy in boxes)


def assert_grid_statistics_match_the_tuple_oracle(n: int, k: int):
    """The counts, total and max pair that `udl verify` reports at n and k,
    on its seeded sample of 50 starts, equal those of `grid_tuple_stats`,
    which lists every ordered k-tuple; returns (h, starts, statistics).  CI
    runs it at n = 10^10, k = 3 under a 1 GiB limit."""
    from udl.cli import SAMPLE_STARTS
    from udl.config import choose_params
    from udl.udgraph import peel

    params = choose_params(n)
    h = peel(grid_graph(params.side, params.m))
    sample = random.Random(0).sample(range(h.vertex_count), min(SAMPLE_STARTS, h.vertex_count))
    starts = [h.point(i) for i in sorted(sample)]
    [statistics] = path_statistics(h, [k], starts)
    counts, total, (v, w, peak) = statistics
    assert h.grid is not None and len(counts) == len(starts)
    assert grid_tuple_stats(h, k, starts, (v, w)) == (total, counts, peak), (n, k)
    return h, starts, statistics


@pytest.mark.parametrize("n, k, peak", [(10**6, 3, 24), (10**4, 4, 188)])
def test_grid_statistics_match_the_tuple_oracle(n, k, peak):
    h, starts, statistics = assert_grid_statistics_match_the_tuple_oracle(n, k)
    assert statistics[2][2] == peak
    assert (count_irredundant_many(h, starts, k), total_irredundant_paths(h, k), max_pair_count(h, k)) == statistics


def test_no_grid_statistic_outlives_its_call():
    import gc
    import weakref

    import udl.paths

    g = grid_graph(30, 65)
    count_irredundant_many(g, [(0, 0), (12, 17)], 3)
    total_irredundant_paths(g, 3)
    max_pair_count(g, 3)
    graph = weakref.ref(g)
    del g
    gc.collect()
    assert graph() is None
    assert [name for name, f in vars(udl.paths).items() if hasattr(f, "cache_info")] == ["_orderings"]


def test_verify_enumerates_each_k_once(monkeypatch):
    import udl.paths
    from udl.cli import verify_all

    calls = []
    multisets = udl.paths._multisets

    def counted(vectors, k, *args, **kwargs):
        calls.append(k)
        return multisets(vectors, k, *args, **kwargs)

    monkeypatch.setattr(udl.paths, "_multisets", counted)
    verify_all(10**4, 4)
    assert calls == [2, 3, 4]


def _verify_grid(n: int):
    """The peeled grid `udl verify` builds at n, and its seeded sample of starts."""
    from udl.cli import SAMPLE_STARTS
    from udl.config import choose_params
    from udl.udgraph import peel

    params = choose_params(n)
    h = peel(grid_graph(params.side, params.m))
    sample = random.Random(0).sample(range(h.vertex_count), min(SAMPLE_STARTS, h.vertex_count))
    return h, [h.point(i) for i in sorted(sample)]


@pytest.mark.parametrize("n, k", [(10**4, 2), (10**4, 3), (10**4, 4), (10**3, 5), (10**6, 3), (10**10, 3)])
def test_the_kept_multisets_weighted_by_orbit_are_the_closed_forms(n, k):
    # each kept multiset stands for orbit(d) multisets, one per image of its displacement, and each of its
    # orderings for as many tuples: summed, they are M_k and T_k of every irredundant multiset and tuple
    import numpy as np

    from udl.paths import _grid_multisets, _orbit_size

    g, _ = _verify_grid(n)
    _, _, w, h = g.grid
    _, sx, sy, _, offset = _grid_multisets(g, k)
    orbit = _orbit_size(w, h, sx.astype(np.int64), sy.astype(np.int64))
    got = (int(orbit.sum()), int((orbit * np.diff(offset)).sum()))
    assert got == closed_form_counts(len(g.vectors), k), (n, k)
    if (n, k) == (10**10, 3):
        assert got[1] == 16_581_376


@pytest.mark.parametrize("n, t3", [(10**8, 2_048_384), (10**10, 16_581_376)])
def test_a_start_far_from_every_side_has_every_irredundant_tuple(n, t3):
    # a start at least 3 * reach from each side fits every irredundant 3-tuple, and the sample holds one
    from udl.cli import verify_all

    report = verify_all(n, 3)
    (row,) = [row for row in report.path_stats if row["k"] == 3]
    assert row["max_count"] == closed_form_counts(len(lattice_vectors(report.params.m)), 3)[1] == t3


@pytest.mark.parametrize(
    "m, side, k, tk", [(1105, 100, 2, 992), (1105, 100, 3, 29_792), (65, 40, 4, 44_592), (325, 60, 3, 12_168)]
)
def test_the_totals_mixed_second_difference_is_the_closed_form(m, side, k, tk):
    # once both sides are at least k * reach every tuple fits, so the total is bilinear in the box's sides and its
    # mixed second difference counts each irredundant tuple once; the two squares take 8 maps, the oblongs 4 flips
    reach = max(abs(c) for v in lattice_vectors(m) for c in v)
    assert k * reach <= side
    sides = (side, side + 1)
    total = {(w, h): total_irredundant_paths(grid_graph(w, m, height=h), k) for w in sides for h in sides}
    got = total[side + 1, side + 1] - total[side + 1, side] - total[side, side + 1] + total[side, side]
    assert got == closed_form_counts(len(lattice_vectors(m)), k)[1] == tk


# 10^3 at k = 6 is the first grid whose hexagon filter drops rows, and the oblong box keeps dx <= 0 and dy <= 0
# of its 4 flips where a square keeps dx <= dy <= 0 of its 8 maps
@pytest.mark.parametrize("n, k", [(10**4, 4), (10**3, 6), (10**6, 4), ("oblong", 3)])
def test_grid_ranges_hold_whole_groups_within_the_budget(monkeypatch, n, k):
    import numpy as np

    import udl.paths
    from udl.paths import _grid_multisets, _grid_ranges, _group_heads

    g = grid_graph(60, 65, height=90, corner=(-4, 7)) if n == "oblong" else _verify_grid(n)[0]
    _, sx, sy, _, offset = _grid_multisets(g, k)
    heads = _group_heads(sx, sy).tolist()
    end = dict(zip(heads, heads[1:] + [len(sx)]))  # the rows after each group
    for budget in (1, 7, 1000, 10**9):
        monkeypatch.setattr(udl.paths, "_GATHER_BUDGET", budget)
        ranges = list(islice(_grid_ranges(sx, sy, offset), len(sx) + 1))  # a cut that stops moving fails, not hangs
        assert [lo for lo, _ in ranges] == [0, *(hi for _, hi in ranges[:-1])] and ranges[-1][1] == len(sx)
        for lo, hi in ranges:  # whole groups within the budget, or one group; none could take the next group too
            assert lo in end and (hi == len(sx) or hi in end), budget
            assert offset[hi] - offset[lo] <= budget or end[lo] == hi, budget
            assert hi == len(sx) or offset[end[hi]] - offset[lo] > budget, budget
    monkeypatch.setattr(udl.paths, "_GATHER_BUDGET", 1)
    assert [lo for lo, _ in _grid_ranges(sx, sy, offset)] == heads
    monkeypatch.setattr(udl.paths, "_GATHER_BUDGET", 10**9)
    assert list(_grid_ranges(sx, sy, offset)) == [(0, len(sx))]
    assert list(_grid_ranges(sx[:0], sy[:0], offset[:1])) == []
    assert np.array_equal(_group_heads(sx, sy), np.array(heads))


def test_the_grid_fold_gives_the_same_statistics_at_any_range_size(monkeypatch):
    # every group its own range, a few groups at a time, and one range: the counts, total and max pair agree;
    # 10^4 at k = 4 is a box whose top groups share no point, so each range ranks those groups by their deepest cells
    import udl.paths

    cases = [(*_verify_grid(n), k) for n, k in [(10**4, 2), (10**4, 3), (10**4, 4), (10**3, 5), (10**6, 3)]]
    oblong = grid_graph(60, 65, height=90, corner=(-4, 7))
    cases.append((oblong, random.Random(1).sample(oblong.points, 30), 3))
    ranked = []
    cells = udl.paths._deepest_cells

    def counted(*rects):
        ranked.append(len(rects[0]))
        return cells(*rects)

    monkeypatch.setattr(udl.paths, "_deepest_cells", counted)
    seen = []
    for budget in (1, 7, 10**9):
        monkeypatch.setattr(udl.paths, "_GATHER_BUDGET", budget)
        seen.append([path_statistics(g, [k], starts, step_budget=10**11) for g, starts, k in cases])
        assert ranked, budget
        ranked.clear()
    assert seen[0] == seen[1] == seen[2]
    assert seen[2][2][0][2][2] == 188  # falls short of its top group's 216 rows


def test_the_grid_fold_ranks_the_shortest_displacements_first(monkeypatch):
    # the ranges are walked from the last, whose displacements are the shortest and whose groups the largest, so
    # the running best is high before the small groups are reached and few groups are ranked by their deepest cells
    import udl.paths

    ranked = []
    cells = udl.paths._deepest_cells

    def counted(*rects):
        ranked.append(len(rects[0]))
        return cells(*rects)

    monkeypatch.setattr(udl.paths, "_deepest_cells", counted)
    for n, k, fewest, most in [(10**4, 4, 3, 3), (10**3, 5, 1, 1), (10**3, 6, 2, 2), (10**4, 5, 1, 150)]:
        g, starts = _verify_grid(n)
        ranked.clear()
        path_statistics(g, [k], starts, step_budget=10**11)
        assert fewest <= len(ranked) <= most, (n, k, len(ranked))


def test_the_grid_pass_holds_one_range_of_rects_at_a_time():
    # grid_graph(100, 1105) at k = 4 has 112 956 rect rows before the fit cut, in seven ranges: the pass's
    # numpy buffers, which numpy reports to tracemalloc, peak under 1.5 MB, where all the rows at once took 3.9 MB
    import tracemalloc

    from udl.paths import _grid_stats

    g, starts = _verify_grid(10**4)
    assert (g.grid, len(starts)) == ((0, 0, 100, 100), 50)
    _grid_stats(g, 4, starts)  # the cached orderings and numpy's first-use allocations come first
    tracemalloc.start()
    try:
        _grid_stats(g, 4, starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak
