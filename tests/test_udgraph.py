import math
import pathlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udl.config import build_config, choose_params
from udl.paths import (
    count_irredundant_from,
    count_irredundant_many,
    max_pair_count,
    per_pair_counts,
    total_irredundant_paths,
)
from udl.udgraph import (
    DegreeSummary,
    UnitDistanceGraph,
    build_graph,
    degree_summary,
    grid_graph,
    lattice_vectors,
    peel,
)

from oracles import (
    adjacency_bruteforce,
    edge_set_bruteforce,
    edge_text,
    emitted_edges,
    peel_adjacency,
    two_squares_set,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def grid(side):
    return [(x, y) for x in range(side) for y in range(side)]


def text(g):
    return "".join(g.edge_lines())


def same_graph(g, h):
    """The same points and the same emitted edge text."""
    return g.points == h.points and text(g) == text(h)


def test_lattice_vectors_match_oracle():
    for m in (1, 2, 3, 4, 5, 25, 65, 325, 1105):
        vectors = lattice_vectors(m)
        assert all(type(v) is tuple for v in vectors)
        assert set(vectors) == two_squares_set(m)
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
@example(5**2 * 13)  # `representations` of 13, times the choices for 5^2
@example(2 * 5**2 * 13**2)  # no prime = 1 (mod 4) to the first power: `representations` gives the units
@example(2**3 * 3**2 * 5 * 13**2 * 17)
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


def test_non_integral_coordinates_are_refused_not_truncated():
    import numpy as np

    for points in ([(2.7, 0), (0, 0), (1, 0)], [(0.5, 0), (0, 0)], [(0, np.float64(1.0))]):
        with pytest.raises(TypeError):
            build_graph(points, 1)
    g = grid_graph(5, 5)
    for starts in ([(1.9, 1.9)], [(1, 1.0)], [(np.float64(1), 1)]):
        with pytest.raises(TypeError):
            count_irredundant_many(g, starts, 2)
        with pytest.raises(TypeError):
            count_irredundant_from(g, starts[0], 2)
        with pytest.raises(TypeError):
            per_pair_counts(g, 2, starts)
    # numpy integers are integers
    assert build_graph([(np.int64(0), np.int32(0)), (1, 0)], 1).points == [(0, 0), (1, 0)]
    assert count_irredundant_many(g, [np.array([1, 1])], 2) == {(1, 1): count_irredundant_from(g, (1, 1), 2)}


def test_build_graph_matches_bruteforce_oracle():
    rng = random.Random(11)
    cases = [(3, 1), (5, 5), (8, 25), (12, 65), (7, 2), (6, 4)]
    cases += [(rng.randint(3, 14), rng.randint(1, 10_000)) for _ in range(12)]
    for side, m in cases:
        g = build_graph(grid(side), m)
        assert emitted_edges(g) == sorted(edge_set_bruteforce(grid(side), m)), (side, m)
    # non-grid point set
    pts = sorted({(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(150)})
    for m in (1, 5, 13, 50):
        g = build_graph(pts, m)
        assert emitted_edges(g) == sorted(edge_set_bruteforce(pts, m))


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
    assert same_graph(h, g)


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
        assert same_graph(peel(h, t), h)
        # surviving adjacency is the induced one
        survivors = set(h.points)
        expect = edge_set_bruteforce(sorted(survivors), m)
        assert emitted_edges(h) == sorted(expect)


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
            assert same_graph(h, build_graph(survivors, m)), (m, t)
    g = build_graph(chain(20_000), 5)
    assert peel(g, 1) is g and peel(g, 2).points == []


def test_edge_text_lists_the_bruteforce_edges_in_order(monkeypatch):
    import udl.udgraph

    rng = random.Random(59)
    budget = udl.udgraph._GATHER_BUDGET
    for pts, m in holed_point_sets(rng, 25):
        expect = edge_text(edge_set_bruteforce(pts, m))
        g = build_graph(pts, m)
        # the table read in one block, and a few vertices (or one) at a time
        for entries in (budget, 3 * len(g.vectors) - 1, 1):
            monkeypatch.setattr(udl.udgraph, "_GATHER_BUDGET", entries)
            assert text(g) == expect, (m, entries)


def test_edge_lines_are_blocks_of_whole_lines_of_the_per_edge_text():
    # each block is formatted at once from int64 columns; the oracle formats
    # every brute-force edge on its own, from Python ints
    import udl.udgraph

    def box(w, h, x0=0, y0=0):
        return [(x0 + i, y0 + j) for i in range(w) for j in range(h)]

    rng = random.Random(71)
    cases = [(build_graph(pts, m), pts, m) for pts, m in holed_point_sets(rng, 15)]
    # oblong and offset lazy grids, two with a corner near +-2^62
    lazy = [(9, 4, 0, 0, 5), (3, 11, -5, 12, 25), (12, 7, 2**62, -(2**62), 65), (8, 5, 7 - 2**62, 2**62 + 3, 5)]
    for w, h, x0, y0, m in lazy:
        cases.append((grid_graph(w, m, height=h, corner=(x0, y0)), box(w, h, x0, y0), m))
    # vertex counts on either side of one and two vertex blocks: 32 vectors of 1105, so a block is 512 vertices
    block = udl.udgraph._GATHER_BUDGET // len(lattice_vectors(1105))
    assert block == 512
    for w, h in [(7, 73), (16, 32), (9, 57), (31, 33), (32, 32), (25, 41)]:  # 2 blocks - 1, ..., 2 blocks + 1
        cases.append((grid_graph(w, 1105, height=h), box(w, h), 1105))
    for count in (block - 1, block, block + 1, 2 * block + 1):  # a 30 x 40 box cut short: not a grid
        pts = box(30, 40)[:count]
        cases.append((build_graph(pts, 1105), pts, 1105))
    # no points, and points with no edge
    cases += [(build_graph([], 5), [], 5), (build_graph(grid(2), 3), grid(2), 3), (grid_graph(3, 3), grid(3), 3)]
    cases.append((grid_graph(1, 5, corner=(2**62, 2**62)), [(2**62, 2**62)], 5))
    for g, pts, m in cases:
        blocks = list(g.edge_lines())
        assert all(b.endswith("\n") for b in blocks), (g.grid, m)
        assert "".join(blocks) == edge_text(edge_set_bruteforce(pts, m)), (g.grid, len(pts), m)
        per_block = max(1, udl.udgraph._GATHER_BUDGET // max(len(g.vectors), 1))
        assert len(blocks) <= -(-g.vertex_count // per_block), (g.grid, len(pts), m)
    assert sum(bool(list(g.edge_lines())) for g, _, m in cases if m == 1105) == 10  # none near a block edge is empty


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
    got = text(build_graph(grid(10), 5))
    assert got == (GOLDEN / "edges_10x10_m5.txt").read_text()
    assert text(build_graph(grid(2), 3)) == ""


def test_edge_text_is_sorted_numerically():
    g = build_graph(grid(12), 25)
    rows = [tuple(map(int, line.split())) for line in text(g).splitlines()]
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
    original = udl.udgraph._neighbour_table

    def counted(g):
        calls.append(g.vertex_count)
        return original(g)

    for module in (udl.udgraph, udl.paths):  # a module that imported the name would build past one patch
        monkeypatch.setattr(module, "_neighbour_table", counted, raising=False)
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
            peeled = peel(ref, t)
            assert same_graph(got, peeled) and (got.neighbours == peeled.neighbours).all()
            assert emitted_edges(got) == sorted(edge_set_bruteforce(survivors, m))
            assert got.edge_count == len(edge_set_bruteforce(survivors, m))
            removals += len(survivors) < len(pts)
        assert same_graph(g, ref) and (g.neighbours == ref.neighbours).all(), (w, h, m)
        assert same_graph(build_graph(reversed(pts), m), g)
    assert removals >= len(cases)


def test_grid_graph_validation_and_shapes():
    g = grid_graph(4, 5, height=2, corner=(-1, 3))
    assert g.grid == (-1, 3, 4, 2) and g.vertex_count == 8
    assert g.point(0) == (-1, 3) and g.point(7) == (2, 4)
    assert [g.point(i) for i in range(8)] == g.points
    assert same_graph(grid_graph(10, 5), build_graph(grid(10), 5))
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
    assert g._keys is None and g._neighbours is None


def _locate_against_a_dict(g, pts, probes):
    import numpy as np

    index = {p: i for i, p in enumerate(pts)}  # the oracle: pts sorted, as the graph keeps them
    x, y = np.array(probes, dtype=np.int64).reshape(-1, 2).T
    assert g.locate(x, y).tolist() == [index.get(p, len(pts)) for p in probes]


def test_locate_matches_a_dict_of_the_points():
    rng = random.Random(61)
    cases = [(pts, m) for pts, m in holed_point_sets(rng, 20)]
    for shift in (2**61, -(2**61)):
        cases += [(sorted((x + shift, y - shift) for x, y in pts), m) for pts, m in holed_point_sets(rng, 5)]
    cases += [([(3, y) for y in range(0, 20, 2)], 4), ([(x, -7) for x in range(-9, 9, 3)], 9), ([(5, 5)], 25)]
    for pts, m in cases:
        g = build_graph(pts, m)
        x0, y0 = min(p[0] for p in pts), min(p[1] for p in pts)
        x1, y1 = max(p[0] for p in pts), max(p[1] for p in pts)
        box = [(x, y) for x in range(x0 - 2, x1 + 3) for y in range(y0 - 2, y1 + 3)]  # hits, holes and the rim outside
        far = [(x0 - 10**9, y0), (x0, y1 + 10**9), (x1 + 10**9, y1 + 10**9)]
        _locate_against_a_dict(g, pts, box + far + [p for p in pts if rng.random() < 0.3])
        assert (g.neighbours == oracle_graph(pts, m).neighbours).all(), m
    empty = build_graph([], 5)
    _locate_against_a_dict(empty, [], [(0, 0), (1, 2)])
    _locate_against_a_dict(empty, [], [])
    assert empty.neighbours.shape == (8, 1)


def test_grid_locate_is_box_arithmetic_and_builds_no_keys():
    for w, h, corner in [(1, 1, (0, 0)), (4, 3, (-2, 7)), (7, 5, (2**61, -(2**61)))]:
        g = grid_graph(w, 5, height=h, corner=corner)
        x0, y0 = corner
        probes = [(x, y) for x in range(x0 - 3, x0 + w + 3) for y in range(y0 - 3, y0 + h + 3)]
        _locate_against_a_dict(g, [(x0 + i, y0 + j) for i in range(w) for j in range(h)], probes)
        assert g._keys is None and g._neighbours is None and g._points is None


def test_duplicate_starts_are_counted_once_on_explicit_graphs():
    rng = random.Random(67)
    for pts, m in holed_point_sets(rng, 10):
        g = build_graph(pts, m)
        assert g.grid is None
        starts = rng.sample(pts, min(4, len(pts)))
        twice = starts + starts[::-1] + [starts[0]]
        assert count_irredundant_many(g, twice, 2) == count_irredundant_many(g, starts, 2)
        assert list(count_irredundant_many(g, twice, 2)) == starts
        pairs = per_pair_counts(g, 2, starts=twice)
        assert pairs == per_pair_counts(g, 2, starts=starts)
        assert sum(pairs.values()) == sum(count_irredundant_many(g, starts, 2).values())


def test_emitting_a_grids_edges_lists_none_of_its_points():
    g = grid_graph(9, 25, height=6, corner=(-4, 11))
    got = text(g)
    assert g._points is None and g._neighbours is None  # its edges are located block by block, with no table
    assert got == text(build_graph(sorted(g.points), 25)) == text(oracle_graph(g.points, 25))


def test_coordinates_past_int64_are_refused():
    top = 2**63 - 1
    reach = {5: 2, 65: 8, 3: 0}
    for m, r in reach.items():
        assert build_graph([(top - r, 0), (0, 1)], m).vertex_count == 2
        assert build_graph([(1 - 2**63 + r, 5)], m).vertex_count == 1
        for pts in ([(top - r + 1, 0), (0, 1)], [(0, -top + r - 1)], [(2**63, 0)], [(-(2**63), 0), (1, 1)], [(0, 10**30)]):
            with pytest.raises(ValueError, match="do not fit in int64"):
                build_graph(pts, m)
        with pytest.raises(ValueError, match="do not fit in int64"):
            grid_graph(3, m, corner=(top - r - 1, 0))
        assert grid_graph(3, m, corner=(top - r - 2, -top + r)).vertex_count == 9
    # a full box is refused as well as a holed set
    with pytest.raises(ValueError, match="do not fit in int64"):
        build_graph([(x, y) for x in (top - 1, top) for y in (0, 1)], 1)


def test_a_start_past_int64_is_not_in_the_graph():
    holed = [p for p in grid(6) if p != (2, 2)]
    for g in (build_graph(holed, 5), grid_graph(6, 5), build_graph([], 5)):
        for start in [(2**63, 0), (0, -(2**63) - 1), (10**40, 10**40), (-(2**63), 0)]:
            with pytest.raises(ValueError, match=r"start vertex .* is not in the graph"):
                count_irredundant_many(g, [(0, 0), start], 1) if g.vertex_count else count_irredundant_many(g, [start], 1)
            with pytest.raises(ValueError, match=r"start vertex .* is not in the graph"):
                count_irredundant_from(g, start, 1)


def test_a_grid_of_more_than_int64_vertices_locates_its_starts_exactly():
    # 2^64 vertices: an index past int64 is kept exact, and the counts at the
    # corners and near the edges equal those of a small grid with the same corner
    import numpy as np

    def starts(w):
        return [(-3, 5), (w - 4, 5), (-3, w + 4), (w - 4, w + 4), (-2, 6), (w - 5, 5)]

    huge, small = grid_graph(2**32, 5, corner=(-3, 5)), grid_graph(20, 5, corner=(-3, 5))
    assert huge.vertex_count > 2**63
    for k in (1, 2, 3):
        got = count_irredundant_many(huge, starts(2**32), k)
        assert list(got.values()) == list(count_irredundant_many(small, starts(20), k).values()), k
    one = np.array([2**31], dtype=np.int64)
    assert huge.locate(one, one)[0] == (2**31 + 3) * 2**32 + 2**31 - 5
    with pytest.raises(ValueError, match="not in the graph"):
        count_irredundant_many(huge, [(2**32 - 3, 5)], 1)


def test_points_with_a_full_box_count_but_a_hole_are_not_a_grid():
    # first and last points span a 2 x 2 box and there are four points, yet
    # (0, 5) and (1, -3) lie outside it
    pts = [(0, 0), (0, 5), (1, -3), (1, 1)]
    g = build_graph(pts, 1)
    assert g.grid is None
    assert emitted_edges(g) == [] and edge_set_bruteforce(pts, 1) == set()
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
    assert g._neighbours is None and g._keys is None and g._points is None


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
