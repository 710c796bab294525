"""Acceptance gate: the nine end-to-end criteria, one test and one printed
PASS/FAIL line each.  Run with -s (or read the captured output) to see the
lines; every test also enforces its runtime ceiling."""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from udl.bounds import GroupSpec, enumerate_nondegenerate, lambert_w, log2_solution_bound
from udl.cli import dispatch
from udl.config import build_config, choose_params, generators, rank_bounds, verify_edge_in_group
from udl.gaussian import GaussInt, representations
from udl.numtheory import AP_1_MOD_4, chebyshev, primes_in_ap
from udl.paths import count_irredundant_many, max_pair_count, path_count_lower_bound
from udl.udgraph import build_graph, degree_summary, peel

from oracles import edge_set_bruteforce, emitted_edges, lambert_w_bisect


def report(num: int, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    line = f"criterion {num}: {'PASS' if ok and elapsed < limit else 'FAIL'} - {detail} ({elapsed:.2f}s / limit {limit:.0f}s)"
    print(line)
    assert ok, line
    assert elapsed < limit, line


@lru_cache(maxsize=None)
def graph_at(n: int):
    params = choose_params(n)
    return params, build_graph(build_config(params), params.m)


def target_products(limit: int, max_t: int = 4):
    """All squarefree products of 1..max_t distinct primes 1 mod 4 up to
    limit, mapped to their factor tuples."""
    primes = primes_in_ap(limit, AP_1_MOD_4)
    out = {}

    def extend(start: int, prod: int, factors: tuple):
        for i in range(start, len(primes)):
            p = primes[i]
            nxt = prod * p
            if nxt > limit:
                return
            out[nxt] = factors + (p,)
            if len(factors) + 1 < max_t:
                extend(i + 1, nxt, factors + (p,))

    extend(0, 1, ())
    return out


def test_criterion_1_representation_counts():
    t0 = time.perf_counter()
    limit = 10**6
    targets = target_products(limit)
    # one global sweep builds every oracle set at once instead of ~75k
    # separate per-m scans
    oracle = {m: set() for m in targets}
    for x in range(math.isqrt(limit) + 1):
        for y in range(math.isqrt(limit - x * x) + 1):
            s = x * x + y * y
            hit = oracle.get(s)
            if hit is not None:
                hit.update({(x, y), (x, -y), (-x, y), (-x, -y)})
    checked = 0
    ok = True
    for m, factors in targets.items():
        points = representations(factors)
        if len(points) != 1 << (len(factors) + 2) or {p.as_tuple() for p in points} != oracle[m]:
            ok = False
            break
        checked += 1
    report(1, ok and checked == len(targets), f"{checked} products matched set-for-set", time.perf_counter() - t0, 30)


def test_criterion_2_configuration_edge_counts():
    t0 = time.perf_counter()
    ok = True
    expected = {100: 288, 400: 1744}
    for n in (100, 400, 10**4):
        params, g = graph_at(n)
        if n in expected:
            ok &= g.edge_count == expected[n]
            ok &= emitted_edges(g) == sorted(edge_set_bruteforce(g.points, g.m))
        v = g.vertex_count
        ok &= v * 2 ** (params.r - 1) / 16 <= g.edge_count <= 2 ** (params.r + 3) * v
    report(2, ok, "288 / 1744 edges and the sandwich at n in {100, 400, 10^4}", time.perf_counter() - t0, 10)


def test_criterion_3_group_membership():
    t0 = time.perf_counter()
    params, g = graph_at(400)
    gens = generators(params)
    ok = len(g.vectors) == 2 ** (params.r + 1) == 16
    for dx, dy in g.vectors:
        sel = verify_edge_in_group(GaussInt(dx, dy), gens)
        ok &= len(sel.signs) == params.r - 1 and sel.unit.is_unit()
    report(3, ok, "all 16 directions factor over the generators", time.perf_counter() - t0, 1)


def test_criterion_4_rank_sandwich():
    t0 = time.perf_counter()
    ok = True
    for e in range(2, 8):
        n = 10**e
        params = choose_params(n)
        low, high = rank_bounds(n)
        ok &= low <= params.r <= high
        theta = chebyshev("theta", max(params.primes), AP_1_MOD_4) if params.primes else 0.0
        ok &= theta <= math.log(n / 4)
        # theta over the consecutive chosen primes is exactly log m
        ok &= abs(theta - math.log(params.m)) < 1e-9
    report(4, ok, "r inside [L/(3 log L), 16 L/log L] and theta <= log(n/4) for n up to 10^7", time.perf_counter() - t0, 5)


def test_criterion_5_chebyshev_asymptotics():
    t0 = time.perf_counter()
    x = 10**6
    theta = chebyshev("theta", x, AP_1_MOD_4)
    psi = chebyshev("psi", x, AP_1_MOD_4)
    dev_theta = abs(theta * 2 / x - 1.0)
    dev_psi = abs(psi / theta - 1.0)
    ok = dev_theta <= 0.1 and dev_psi <= 0.01
    report(5, ok, f"theta*2/x off by {dev_theta:.4f}, psi/theta off by {dev_psi:.4f} at x = 10^6", time.perf_counter() - t0, 10)


def test_criterion_6_path_count_lower_bound():
    t0 = time.perf_counter()
    params, g = graph_at(10**4)
    assert params.m == 1105
    h = peel(g)
    delta = degree_summary(h).min_degree
    rng = random.Random(0)
    starts = [h.points[i] for i in sorted(rng.sample(range(h.vertex_count), 50))]
    violations = 0
    for k in (2, 3, 4):
        counts = count_irredundant_many(h, starts, k)
        bound = path_count_lower_bound(delta, k)
        violations += sum(1 for c in counts.values() if c < bound)
    report(6, violations == 0, "50 sampled starts beat the degree product bound for k in {2,3,4}", time.perf_counter() - t0, 120)


def test_criterion_7_pair_bound_and_unit_equation():
    t0 = time.perf_counter()
    params, g = graph_at(10**4)
    h = peel(g)
    ok = True
    for k in (2, 3, 4):
        _, _, peak = max_pair_count(h, k)
        ok &= peak > 0 and math.log2(peak) <= log2_solution_bound(k, params.r - 1)
    group = GroupSpec(torsion_order=2, free_generators=((Fraction(2), Fraction(0)),))
    sols = enumerate_nondegenerate([1, 1], group, 2)
    expected = [
        ((Fraction(-1), Fraction(0)), (Fraction(2), Fraction(0))),
        ((Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(0))),
        ((Fraction(2), Fraction(0)), (Fraction(-1), Fraction(0))),
    ]
    ok &= [tuple(z.as_pair() for z in tup) for tup in sols] == expected
    for tup in sols:
        pairs = [z.as_pair() for z in tup]
        for size in (1, 2):
            for sub in combinations(pairs, size):
                ok &= (sum(re for re, _ in sub), sum(im for _, im in sub)) != (0, 0)
    report(7, ok, "log2 max pair count within the solution bound; 3 unit-equation solutions verified", time.perf_counter() - t0, 120)


def test_criterion_8_lambert_w():
    t0 = time.perf_counter()
    ok = abs(lambert_w(math.e) - 1.0) <= 1e-12
    for i in range(100):
        x = 10 ** (-3 + 15 * i / 99)
        w = lambert_w(x)
        ok &= abs(w * math.exp(w) - x) <= 1e-12 * max(x, 1.0)
        ok &= abs(w - lambert_w_bisect(x)) <= 1e-10
        if x >= math.e:
            ok &= 0.5 * math.log(x) <= w <= math.log(x)
    report(8, ok, "identity, bracket, W(e) = 1, and bisection agreement on 100 points", time.perf_counter() - t0, 1)


def test_criterion_9_determinism(capsys):
    t0 = time.perf_counter()
    code4 = dispatch(["verify", "--n", "100", "--k-max", "3", "--workers", "4"])
    out4 = capsys.readouterr().out
    code1 = dispatch(["verify", "--n", "100", "--k-max", "3", "--workers", "1"])
    out1 = capsys.readouterr().out
    ok = code1 == code4 == 0 and out1 == out4 and len(out1) > 0
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print()
    report(9, ok, "verify --workers 4 and --workers 1 reports are byte-identical", elapsed, 60)
