import math
import pathlib
import random

import pytest

from udl.config import build_config, choose_params
from udl.udgraph import (
    DegreeSummary,
    build_graph,
    degree_summary,
    lattice_vectors,
    peel,
    peel_adjacency,
)

from oracles import edge_set_bruteforce, two_squares_set

GOLDEN = pathlib.Path(__file__).parent / "golden"


def grid(side):
    return [(x, y) for x in range(side) for y in range(side)]


def test_lattice_vectors_match_oracle():
    for m in (1, 2, 3, 4, 5, 25, 65, 325, 1105):
        assert set(lattice_vectors(m)) == two_squares_set(m)
    assert lattice_vectors(3) == []
    with pytest.raises(ValueError):
        lattice_vectors(0)


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
    degs = []
    for i, row in enumerate(g.adj):
        pts = [g.points[j] for j in row]
        assert pts == sorted(pts)
        assert i not in row
        degs.append(len(row))
    assert sum(degs) == 2 * g.edge_count


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
    assert peel_adjacency(k4, 3.5) == set()


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


def test_peel_postconditions_randomized():
    rng = random.Random(23)
    for _ in range(25):
        side = rng.randint(3, 12)
        m = rng.choice([1, 2, 4, 5, 8, 10, 13, 25, 65])
        pts = sorted({(rng.randint(0, side * 2), rng.randint(0, side * 2)) for _ in range(side * side)})
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
