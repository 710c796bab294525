import math
import pathlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udl.config import build_config, choose_params
from udl.paths import count_irredundant_from, count_irredundant_many, max_pair_count, total_irredundant_paths
from udl.udgraph import (
    DegreeSummary,
    UnitDistanceGraph,
    build_graph,
    degree_summary,
    grid_graph,
    lattice_vectors,
    peel,
)

from oracles import adjacency_bruteforce, edge_set_bruteforce, peel_adjacency, two_squares_set

GOLDEN = pathlib.Path(__file__).parent / "golden"


def grid(side):
    return [(x, y) for x in range(side) for y in range(side)]


def test_lattice_vectors_match_oracle():
    for m in (1, 2, 3, 4, 5, 25, 65, 325, 1105):
        assert set(lattice_vectors(m)) == two_squares_set(m)
    assert lattice_vectors(3) == []
    with pytest.raises(ValueError):
        lattice_vectors(0)


_general_m = st.one_of(
    st.integers(1, 10**6),
    # 2^a times a q = 3 (mod 4) to any power times a free cofactor
    st.builds(
        lambda a, q, e, rest: 2**a * q**e * rest,
        st.integers(0, 8),
        st.sampled_from([3, 7, 11, 19, 23]),
        st.integers(0, 3),
        st.integers(1, 3000),
    ),
    # powers of primes 1 (mod 4) times a small prime power
    st.builds(
        lambda p, e, q, s: p**e * q**s,
        st.sampled_from([5, 13, 17, 29, 37]),
        st.integers(1, 5),
        st.sampled_from([2, 3, 5, 7]),
        st.integers(0, 4),
    ),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_general_m)
@example(7**3 * 5)  # q = 3 (mod 4) to an odd power: no points
@example(2**11 * 3**2 * 5**3 * 13)
def test_lattice_vectors_match_oracle_on_general_m(m):
    assert lattice_vectors(m) == sorted(two_squares_set(m))


def test_build_graph_frozen_examples():
    assert build_graph(grid(10), 5).edge_count == 288
    assert build_graph(grid(20), 65).edge_count == 1744
    assert build_graph(grid(2), 3).edge_count == 0
    assert build_graph(grid(3), 1).edge_count == 12


def test_build_graph_rejects_duplicates():
    with pytest.raises(ValueError):
        build_graph([(0, 0), (1, 1), (0, 0)], 5)


def test_build_graph_matches_bruteforce_oracle():
    rng = random.Random(11)
    cases = [(3, 1), (5, 5), (8, 25), (12, 65), (7, 2), (6, 4)]
    cases += [(rng.randint(3, 14), rng.randint(1, 10_000)) for _ in range(12)]
    for side, m in cases:
        g = build_graph(grid(side), m)
        assert set(g.edges()) == edge_set_bruteforce(grid(side), m), (side, m)
    # non-grid point set
    pts = sorted({(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(150)})
    for m in (1, 5, 13, 50):
        g = build_graph(pts, m)
        assert set(g.edges()) == edge_set_bruteforce(pts, m)


def test_adjacency_sorted_and_consistent():
    g = build_graph(grid(10), 5)
    n, degs = g.vertex_count, []
    for i in range(n):
        row = [j for j in g.neighbours[:, i].tolist() if j != n]
        pts = [g.points[j] for j in row]
        assert pts == sorted(pts)
        assert i not in row
        degs.append(len(row))
    assert sum(degs) == 2 * g.edge_count
    assert g.degrees.tolist() == degs


def test_degree_summary_cases():
    assert degree_summary(build_graph(grid(3), 1)) == DegreeSummary(2, 4, 9, 12)
    assert degree_summary(build_graph([(7, 7)], 5)) == DegreeSummary(0, 0, 1, 0)
    s = degree_summary(build_graph(grid(10), 5))
    assert s.max_degree == 8 and s.edge_count == 288


def test_peel_adjacency_k4_plus_isolated():
    k4 = {i: [j for j in range(4) if j != i] for i in range(4)}
    k4[4] = []
    assert peel_adjacency(k4, 0.6) == {0, 1, 2, 3}
    assert peel_adjacency(k4, 0) == {0, 1, 2, 3, 4}
    assert peel_adjacency(k4, 3) == {0, 1, 2, 3}
    assert peel_adjacency(k4, 3.5) == set()
    # `peel` on a unit square (a 4-cycle) and a far point: removal is strictly below the threshold
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    g = build_graph([*square, (9, 9)], 1)
    assert peel(g, 0.6).points == square and peel(g, 2).points == square
    assert peel(g, 0) is g
    assert peel(g, 2.5).points == [] and peel(g, 2.5).edge_count == 0


def test_peel_threshold_zero_is_identity():
    g = build_graph(grid(6), 5)
    h = peel(g, 0)
    assert h.same_as(g)


def test_peel_default_threshold_on_10x10():
    g = build_graph(grid(10), 5)
    h = peel(g)  # threshold 288/200 = 1.44
    assert degree_summary(h).min_degree >= 2
    assert h.edge_count > 288 - 100 * 1.44
    assert h.edge_count > 144


def holed_point_sets(rng, count):
    """`count` (points, m) pairs: side^2 random draws in a (2 side + 1)^2 box,
    deduplicated, so the sets have holes."""
    for _ in range(count):
        side = rng.randint(3, 12)
        m = rng.choice([1, 2, 4, 5, 8, 10, 13, 25, 65])
        yield sorted({(rng.randint(0, side * 2), rng.randint(0, side * 2)) for _ in range(side * side)}), m


def test_peel_postconditions_randomized():
    rng = random.Random(23)
    for pts, m in holed_point_sets(rng, 25):
        g = build_graph(pts, m)
        t = rng.choice([0, 0.5, 1, 1.5, 2, 3, g.edge_count / (2 * len(g.points))])
        h = peel(g, t)
        assert set(h.points) <= set(g.points)
        if h.points:
            assert degree_summary(h).min_degree >= t
        if t > 0:
            assert h.edge_count > g.edge_count - len(g.points) * t
        else:
            assert h.edge_count == g.edge_count
        # peeling is idempotent at a fixed threshold
        assert peel(h, t).same_as(h)
        # surviving adjacency is the induced one
        survivors = set(h.points)
        expect = edge_set_bruteforce(sorted(survivors), m)
        assert set(h.edges()) == expect


def chain(count):
    """(i, 2i): neighbours differ by (1, 2), so at m = 5 this is a path, and
    threshold 2 peels it from both ends, one wave per pair of ends."""
    return [(i, 2 * i) for i in range(count)]


def test_peel_matches_the_queue_peel_oracle():
    rng = random.Random(53)
    cases = list(holed_point_sets(rng, 30))
    # isolated points: 50 rows below every holed set and 7 apart, no m below is 7^2
    far = [(100 + 7 * i, -50) for i in range(3)]
    cases += [(sorted(pts + far), m) for pts, m in holed_point_sets(rng, 10)]
    cases += [(chain(300), 5), ([(0, 0)], 5), ([(0, 0), (3, 9)], 5)]
    for pts, m in cases:
        g = build_graph(pts, m)
        adj = adjacency_bruteforce(pts, m)
        degs = {len(ns) for ns in adj.values()}
        # 0 keeps all, each degree d is kept at d (removal is strictly below) and
        # d +- 0.5 sit on either side of it, and max + 1 empties the graph
        for t in sorted({0, *(d + e for d in degs for e in (-0.5, 0, 0.5)), max(degs) + 1}):
            survivors = sorted(peel_adjacency(adj, t))
            h = peel(g, t)
            assert h.points == survivors, (m, t)
            assert h.same_as(build_graph(survivors, m)), (m, t)
    g = build_graph(chain(20_000), 5)
    assert peel(g, 1) is g and peel(g, 2).points == []


def test_edge_text_lists_the_bruteforce_edges_in_order(monkeypatch):
    import udl.udgraph

    rng = random.Random(59)
    budget = udl.udgraph._GATHER_BUDGET
    for pts, m in holed_point_sets(rng, 25):
        lines = [f"{p[0]} {p[1]} {q[0]} {q[1]}\n" for p, q in sorted(edge_set_bruteforce(pts, m))]
        g = build_graph(pts, m)
        # the table read in one block, and a few vertices (or one) at a time
        for entries in (budget, 3 * len(g.vectors) - 1, 1):
            monkeypatch.setattr(udl.udgraph, "_GATHER_BUDGET", entries)
            assert g.to_edge_text() == "".join(lines) == "".join(g.edge_lines()), (m, entries)


def test_config_graph_edge_sandwich():
    # n 2^(r-1) / 16 <= e(G) <= 2^(r+3) n at desk scales
    for n in (100, 400, 10**4):
        params = choose_params(n)
        g = build_graph(build_config(params), params.m)
        low = n * 2 ** (params.r - 1) / 16
        high = 2 ** (params.r + 3) * n
        assert low <= g.edge_count <= high, (n, g.edge_count, low, high)
        assert degree_summary(g).max_degree <= 2 ** (params.r + 3)


def test_edge_text_golden():
    got = build_graph(grid(10), 5).to_edge_text()
    assert got == (GOLDEN / "edges_10x10_m5.txt").read_text()
    assert build_graph(grid(2), 3).to_edge_text() == ""


def test_edge_text_is_sorted_numerically():
    g = build_graph(grid(12), 25)
    rows = [tuple(map(int, line.split())) for line in g.to_edge_text().splitlines()]
    assert rows == sorted(rows)
    assert all((r[0], r[1]) < (r[2], r[3]) for r in rows)


def test_peel_returns_the_graph_itself_when_nothing_falls_below():
    for n in (100, 10**4):
        params = choose_params(n)
        g = build_graph(build_config(params), params.m)
        assert peel(g) is g


def test_neighbour_table_matches_a_scan_and_peel_matches_a_rebuild():
    rng = random.Random(47)
    for pts, m in holed_point_sets(rng, 25):
        g = build_graph(pts, m)
        n, table = len(pts), g.neighbours
        assert table.shape == (len(g.vectors), n + 1) and (table[:, n] == n).all()
        for j, (dx, dy) in enumerate(g.vectors):
            for i, (x, y) in enumerate(pts):
                hit = [q for q, p in enumerate(pts) if p == (x + dx, y + dy)]
                assert table[j, i] == (hit[0] if hit else n), (m, j, i)
        for t in (1, 2.5, 4, 6):
            h = peel(g, t)
            assert (h.neighbours == build_graph(h.points, m).neighbours).all(), (m, t)


def test_one_probe_from_build_through_peel_to_the_path_statistics(monkeypatch):
    import udl.paths
    import udl.udgraph

    calls = []
    original = udl.udgraph._probe

    def counted(*args):
        calls.append(len(args[0]))
        return original(*args)

    for module in (udl.udgraph, udl.paths):  # a module that imported the name would probe past one patch
        monkeypatch.setattr(module, "_probe", counted, raising=False)
    holed = [p for p in grid(12) if p not in {(5, 5), (6, 2), (9, 9)}]
    g = build_graph(holed, 5)
    h = peel(g, 4)
    assert h.vertex_count < g.vertex_count and h.grid is None
    starts = h.points[::7]
    for k in (2, 3):
        count_irredundant_many(h, starts, k)
        total_irredundant_paths(h, k)
        max_pair_count(h, k)
    count_irredundant_from(h, starts[0], 3)
    assert calls == [len(holed)]


def test_peel_returns_the_config_grid_itself_at_every_n():
    # m is 1 or odd and squarefree, so the vectors come in sign orbits (+-a, +-b)
    # with a, b < (side + 1) / 2: from every offset one member of each orbit
    # stays inside, every degree is at least R / 4, and e / (2v) <= R / 4
    for n in [*range(4, 2001), *(10**e for e in range(4, 17))]:
        params = choose_params(n)
        g = grid_graph(params.side, params.m)
        assert peel(g) is g, n
        assert g._points is None and g._neighbours is None, n


def test_config_grid_degree_range_is_a_quarter_of_the_vectors_to_all_of_them():
    # m is odd and squarefree, so no vector lies on an axis: the corner keeps
    # the one member of each sign orbit that points inward, and the centre
    # keeps every vector
    for e in range(2, 19):
        params = choose_params(10**e)
        g = grid_graph(params.side, params.m)
        r = len(g.vectors)
        assert degree_summary(g) == DegreeSummary(r // 4, r, params.side**2, g.edge_count), e


def oracle_graph(pts, m):
    """The graph on sorted pts with its neighbour table filled from the O(n^2) edge oracle."""
    import numpy as np

    n, vectors = len(pts), lattice_vectors(m)
    index = {p: i for i, p in enumerate(pts)}
    row = {v: j for j, v in enumerate(vectors)}
    table = np.full((len(vectors), n + 1), n, dtype=np.intp)
    for p, q in edge_set_bruteforce(pts, m):
        table[row[(q[0] - p[0], q[1] - p[1])], index[p]] = index[q]
        table[row[(p[0] - q[0], p[1] - q[1])], index[q]] = index[p]
    return UnitDistanceGraph(pts, m, table, vectors)


def test_grid_graph_matches_explicit_probing_on_random_boxes():
    rng = random.Random(31)
    ms = [1, 2, 3, 4, 5, 8, 25, 65, 1105, 5525]
    cases = [(1, 1, 1), (1, 9, 1), (9, 1, 4), (3, 3, 1105), (12, 2, 5525), (5, 5, 3)]
    cases += [(rng.randint(1, 12), rng.randint(1, 12), rng.choice(ms)) for _ in range(54)]
    removals = 0
    for w, h, m in cases:
        x0, y0 = rng.randint(-20, 20), rng.randint(-20, 20)
        pts = [(x0 + x, y0 + y) for x in range(w) for y in range(h)]
        ref, adj = oracle_graph(pts, m), adjacency_bruteforce(pts, m)
        degs = [len(adj[p]) for p in pts]
        expect = DegreeSummary(min(degs), max(degs), w * h, ref.edge_count)
        g = grid_graph(w, m, height=h, corner=(x0, y0))
        assert degree_summary(g) == expect, (w, h, m)
        assert g.edge_count == ref.edge_count
        for t in {min(degs) + 0.5, (min(degs) + max(degs)) / 2, max(degs)}:
            got = peel(grid_graph(w, m, height=h, corner=(x0, y0)), t)
            survivors = sorted(peel_adjacency(adj, t))
            assert got.points == survivors, (w, h, m, t)
            assert got.same_as(peel(ref, t))
            assert set(got.edges()) == edge_set_bruteforce(survivors, m)
            assert got.edge_count == len(edge_set_bruteforce(survivors, m))
            removals += len(survivors) < len(pts)
        assert g.same_as(ref) and ref.same_as(g), (w, h, m)
        assert g.to_edge_text() == ref.to_edge_text()
        assert build_graph(reversed(pts), m).same_as(g)
    assert removals >= len(cases)


def test_grid_graph_validation_and_shapes():
    g = grid_graph(4, 5, height=2, corner=(-1, 3))
    assert g.grid == (-1, 3, 4, 2) and g.vertex_count == 8
    assert g.point(0) == (-1, 3) and g.point(7) == (2, 4)
    assert [g.point(i) for i in range(8)] == g.points
    assert grid_graph(10, 5).same_as(build_graph(grid(10), 5))
    for w, h in [(0, 3), (3, 0), (-1, -1)]:
        with pytest.raises(ValueError):
            grid_graph(w, 5, height=h)
    with pytest.raises(ValueError):
        grid_graph(3, 0)


def test_grid_starts_are_checked_against_the_box():
    g = grid_graph(4, 5, height=3, corner=(-2, 7))
    corners = [(-2, 7), (1, 7), (-2, 9), (1, 9)]
    assert set(count_irredundant_many(g, corners, 1)) == set(corners)
    for start in [(2, 7), (-3, 7), (-2, 10), (-2, 6), (2, 9)]:
        with pytest.raises(ValueError):
            count_irredundant_many(g, [start], 1)
    assert g._index is None


def test_points_with_a_full_box_count_but_a_hole_are_not_a_grid():
    # first and last points span a 2 x 2 box and there are four points, yet
    # (0, 5) and (1, -3) lie outside it
    pts = [(0, 0), (0, 5), (1, -3), (1, 1)]
    g = build_graph(pts, 1)
    assert g.grid is None
    assert set(g.edges()) == edge_set_bruteforce(pts, 1) == set()
    assert degree_summary(g) == DegreeSummary(0, 0, 4, 0)
    assert count_irredundant_many(g, [(0, 0)], 1) == {(0, 0): 0}


def test_work_on_the_config_grid_builds_no_adjacency():
    params = choose_params(10**4)
    g = grid_graph(params.side, params.m)
    summary = degree_summary(g)
    assert summary.edge_count == build_graph(build_config(params), params.m).edge_count
    h = peel(g)
    assert h is g
    starts = [g.point(i) for i in range(0, g.vertex_count, 211)]
    for k in (2, 3):
        count_irredundant_many(h, starts, k)
        total_irredundant_paths(h, k)
        max_pair_count(h, k)
    assert g._neighbours is None and g._index is None and g._points is None


def test_vectors_are_computed_once_per_graph(monkeypatch):
    import udl.udgraph

    calls = []
    original = udl.udgraph.lattice_vectors

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(udl.udgraph, "lattice_vectors", counted)
    holed = [p for p in grid(8) if p != (3, 3)]
    g = build_graph(holed, 5)
    h = peel(g, 3.5)
    assert h.vertex_count < g.vertex_count and h.vectors is g.vectors
    assert build_graph([], 10**6).vectors == original(10**6)
    grid_graph(6, 25).neighbours
    assert calls == [5, 10**6, 25]


def test_grid_degree_range_matches_per_point_counts_on_wide_boxes():
    # boxes wide enough that the vectors of 1105 (|d| <= 33) and 5525 (|d| <= 74)
    # land inside for many offsets, not almost nowhere
    rng = random.Random(43)
    for m in (1105, 5525):
        vectors = lattice_vectors(m)
        for _ in range(3):
            w, h = rng.randint(34, 80), rng.randint(34, 80)
            degs = [
                sum(0 <= x + dx < w and 0 <= y + dy < h for dx, dy in vectors)
                for x in range(w)
                for y in range(h)
            ]
            expect = DegreeSummary(min(degs), max(degs), w * h, sum(degs) // 2)
            assert degree_summary(grid_graph(w, m, height=h)) == expect, (w, h, m)
