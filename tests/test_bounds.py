import hashlib
import math
import random
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest

from udl.bounds import (
    K_WINDOW_HI,
    K_WINDOW_LO,
    GroupSpec,
    absorption_sides,
    bound_row,
    calibrate_k_window,
    enumerate_nondegenerate,
    epsilon_rhs,
    k_feasible,
    k_star,
    lambert_w,
    log2_solution_bound,
    max_rank_coefficient,
    optimal_k_window,
)
from udl.bounds import _as_pair, _slot_values
from udl.cyclotomic import CyclotomicField

from oracles import lambert_w_bisect, tuple_residual_solutions, unit_equation_solutions


def test_log2_solution_bound_examples():
    assert log2_solution_bound(1, 0) == 24.0
    assert log2_solution_bound(2, 0) == 768.0
    assert log2_solution_bound(2, 1) == 1280.0
    assert log2_solution_bound(3, 1) == pytest.approx(10398.694951635582, rel=1e-12)


def test_log2_solution_bound_monotone_and_validated():
    for k in range(1, 8):
        for r in range(0, 5):
            assert log2_solution_bound(k + 1, r) > log2_solution_bound(k, r)
            assert log2_solution_bound(k, r + 1) > log2_solution_bound(k, r)
    with pytest.raises(ValueError):
        log2_solution_bound(0, 1)
    with pytest.raises(ValueError):
        log2_solution_bound(2, -1)


def test_epsilon_rhs_examples():
    assert epsilon_rhs(2, 0, log_n=100) == 0.75
    assert epsilon_rhs(2, 1, log_n=100) == pytest.approx(1.3045177444479563, rel=1e-12)
    assert epsilon_rhs(4, 2, log_n=1000) == pytest.approx(3.92391356446692, rel=1e-12)


def test_epsilon_rhs_limits_and_validation():
    # rank-0 term vanishes, leaving the pure 3/(2k) tail
    assert epsilon_rhs(64, 0, log_n=10) == 3.0 / 128.0
    # larger n loosens the first term only
    assert epsilon_rhs(3, 2, log_n=10**6) < epsilon_rhs(3, 2, log_n=10**3)
    with pytest.raises(ValueError):
        epsilon_rhs(1, 1, log_n=10)
    with pytest.raises(ValueError):
        epsilon_rhs(2, -1, log_n=10)
    with pytest.raises(TypeError):
        epsilon_rhs(2, 1)
    with pytest.raises(TypeError):
        epsilon_rhs(2, 1, n=100, log_n=10)
    with pytest.raises(ValueError):
        epsilon_rhs(2, 1, log_n=0)


def test_non_finite_n_and_log_n_are_rejected():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            bound_row(2, 1, n=bad)
        with pytest.raises(ValueError, match="finite"):
            bound_row(2, 1, log_n=bad)
        with pytest.raises(ValueError, match="finite"):
            k_feasible(2, 0.5, log_n=bad)
    # an integer n beyond the float range is finite and keeps working
    assert bound_row(2, 1, n=10**400)["log_n"] == pytest.approx(400 * math.log(10))


def test_lambert_w_reference_points():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(math.e) - 1.0) <= 1e-12
    assert lambert_w(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)  # omega constant
    assert lambert_w(10.0) == pytest.approx(1.7455280027406994, abs=1e-9)
    assert lambert_w(500.0) == pytest.approx(4.672840885119040, abs=1e-9)
    with pytest.raises(ValueError):
        lambert_w(-0.5)


def test_lambert_w_above_1e300_up_to_the_float_max():
    # there w e^w and the Halley step overflow: W solves w + log w = log x
    xs = [1e300 * 10 ** (8.25 * i / 99) for i in range(100)]
    for x in (*xs, math.nextafter(1e300, math.inf), 3.7e302, 3e305, sys.float_info.max):
        w = lambert_w(x)
        assert abs(w + math.log(w) - math.log(x)) <= 1e-12 * math.log(x), x
    assert lambert_w(1e303) == pytest.approx(lambert_w_bisect(1e303), abs=1e-10)
    for bad in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="finite x >= 0"):
            lambert_w(bad)


def test_a_bound_past_the_float_range_is_refused():
    # k^4 or r past a float raised OverflowError, and k = 10^70 printed an infinite log2 bound
    for k, r in ((10**78, 1), (3, 10**309), (10**70, 1)):
        with pytest.raises(ValueError, match="at this k and r is past the float range"):
            bound_row(k, r, n=100)
    with pytest.raises(ValueError, match="past the float range"):
        log2_solution_bound(10**70, 1)
    with pytest.raises(ValueError, match="past the float range"):
        epsilon_rhs(3, 10**309, log_n=1.0)
    row = bound_row(10**60, 1, n=100)
    assert all(math.isfinite(v) for v in row.values() if isinstance(v, float))


def test_lambert_w_identity_bracket_and_oracle_agreement():
    for i in range(100):
        x = 10 ** (-3 + 15 * i / 99)
        w = lambert_w(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(x, 1.0)
        assert abs(w - lambert_w_bisect(x)) <= 1e-10
        if x >= math.e:
            assert 0.5 * math.log(x) <= w <= math.log(x)


def test_optimal_k_window_frozen_example():
    # 5 * log n / r = 500, so k_star = exp(W(500)/5)
    win = optimal_k_window(log_n=100.0, r=1)
    assert win.k_star == pytest.approx(2.546113749899335, abs=1e-9)
    assert win.k_lo <= win.k_star <= win.k_hi
    assert win.k_lo == pytest.approx(K_WINDOW_LO * 100 ** 0.2, rel=1e-12)
    assert win.k_hi == pytest.approx(K_WINDOW_HI * 100 ** 0.2, rel=1e-12)


def test_optimal_k_window_scan_calibration():
    # re-run the scan the frozen constants were calibrated from; if either
    # formula drifts, the window must be re-derived rather than patched
    lo, hi = calibrate_k_window(
        [math.log(100), 10.0, 1e2, 1e3, 1e4, 1e5, 1e6], [1, 2, 4, 8, 16]
    )
    assert K_WINDOW_LO < lo <= hi < K_WINDOW_HI
    assert lo == pytest.approx(0.475467957738334, rel=1e-9)
    assert hi == pytest.approx(2.56569398080254, rel=1e-9)


def test_optimal_k_window_outside_domain_raises():
    with pytest.raises(ValueError):
        optimal_k_window(log_n=0.01, r=16)
    with pytest.raises(ValueError):
        optimal_k_window(log_n=100, r=0)
    with pytest.raises(ValueError):
        optimal_k_window(log_n=100, r=1, c2=0)


def test_k_feasible_threshold():
    # eps * log n / log 2 - 1 = 143.27...
    assert k_feasible(143, 1.0, log_n=100)
    assert not k_feasible(144, 1.0, log_n=100)
    assert not k_feasible(2, 0.01, log_n=100)


def test_max_rank_coefficient_example():
    c, k = max_rank_coefficient(1.0)
    assert k == 2
    assert c == pytest.approx(0.25 / (80 * math.log(2)), rel=1e-12)
    # epsilon too small for any k leaves nothing
    assert max_rank_coefficient(1e-9) == (0.0, None)


def test_absorption_sides_report():
    got = absorption_sides(3, 1, log_n=1000)
    assert set(got) == {"lhs", "mid", "rhs", "lhs_le_mid", "mid_le_rhs"}
    assert got["lhs_le_mid"] is True
    assert got["mid_le_rhs"] is False  # the k^5 absorption needs large k
    assert got["mid"] == pytest.approx(3 * math.log(4) + 4 * 81 * 7 * math.log(24), rel=1e-12)


def test_bound_row_consistency():
    row = bound_row(3, 2, log_n=1000.0)
    assert row["log2_solution_bound"] == log2_solution_bound(3, 2)
    assert row["epsilon_rhs"] == epsilon_rhs(3, 2, log_n=1000)
    assert row["k_star"] == optimal_k_window(log_n=1000, r=2).k_star
    assert row["feasible_k"] is True
    assert k_feasible(3, 0.001, log_n=1000.0) is False


LOG_N_TAKERS = [(epsilon_rhs, (3, 1)), (optimal_k_window, ()), (k_feasible, (3, 0.5)), (absorption_sides, (3, 1)), (bound_row, (3, 1))]


@pytest.mark.parametrize("fn, args", LOG_N_TAKERS, ids=[fn.__name__ for fn, _ in LOG_N_TAKERS])
def test_log_n_is_keyword_only_finite_and_positive(fn, args):
    fn(*args, log_n=100.0)
    for bad in (0, -1, math.inf, math.nan):
        with pytest.raises(ValueError, match="log n must be finite and positive"):
            fn(*args, log_n=bad)
    # an n passed by position is refused, not read as log n
    with pytest.raises(TypeError):
        fn(*args, 100)


def test_k_star_where_5_log_n_overflows():
    # W(5 log n) solves w + log w = L = log 5 + log log n; 5 log n itself is past the float range
    for log_n, expect in ((1e308, 1.47996e61), (sys.float_info.max, 1.66387e61)):
        ks = k_star(log_n, 1)
        w, big_l = 5 * math.log(ks), math.log(5) + math.log(log_n)
        assert abs(w + math.log(w) - big_l) <= 1e-12 * big_l, log_n
        assert ks == pytest.approx(expect, rel=1e-5)
        assert bound_row(3, 1, log_n=log_n)["k_star"] == ks


def test_group_spec_validation():
    g = GroupSpec(torsion_order=2, free_generators=((2, 0), (0, 1)))
    assert g.rank == 2
    assert g.conductor == 4
    assert GroupSpec(torsion_order=6).conductor == 12
    assert g.free_generators[0] == (Fraction(2), Fraction(0))
    with pytest.raises(ValueError):
        GroupSpec(torsion_order=0)
    with pytest.raises(ValueError):
        GroupSpec(torsion_order=13)
    with pytest.raises(ValueError):
        GroupSpec(torsion_order=4, free_generators=((0, 0),))


def pair_solutions(sols):
    return [tuple(z.as_pair() for z in tup) for tup in sols]


def test_enumerate_two_term_over_powers_of_two():
    # z1 + z2 = 1 over <-1> x <2> with exponents in [-2, 2]
    group = GroupSpec(torsion_order=2, free_generators=((2, 0),))
    sols = enumerate_nondegenerate([1, 1], group, 2)
    assert pair_solutions(sols) == [
        ((Fraction(-1), Fraction(0)), (Fraction(2), Fraction(0))),
        ((Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(0))),
        ((Fraction(2), Fraction(0)), (Fraction(-1), Fraction(0))),
    ]
    assert math.log2(len(sols)) <= log2_solution_bound(2, group.rank)


def test_enumerate_fourth_roots_has_no_solutions():
    assert enumerate_nondegenerate([1, 1], GroupSpec(torsion_order=4), 0) == []


def test_enumerate_sixth_roots_pair():
    group = GroupSpec(torsion_order=6)
    sols = enumerate_nondegenerate([1, 1], group, 0)
    assert len(sols) == 2
    field = sols[0][0].field
    assert field.n == 12
    z6 = field.zeta(2)
    assert sols[0] == (z6, field.one - z6)
    assert sols[1] == (field.one - z6, z6)


def test_enumerate_coefficient_permutation_reverses_solutions():
    group = GroupSpec(torsion_order=2, free_generators=((2, 0),))
    fwd = enumerate_nondegenerate([1, 2], group, 2)
    rev = enumerate_nondegenerate([2, 1], group, 2)
    assert len(fwd) == len(rev) == 3
    assert sorted(tuple(z.coeffs for z in (b, a)) for a, b in fwd) == sorted(
        tuple(z.coeffs for z in t) for t in rev
    )


def test_enumerate_generator_inverse_gives_same_group():
    a = enumerate_nondegenerate([1, 1], GroupSpec(torsion_order=2, free_generators=((2, 0),)), 2)
    b = enumerate_nondegenerate(
        [1, 1], GroupSpec(torsion_order=2, free_generators=((Fraction(1, 2), 0),)), 2
    )
    assert pair_solutions(a) == pair_solutions(b)


def test_enumerate_single_term():
    group = GroupSpec(torsion_order=2, free_generators=((2, 0),))
    sols = enumerate_nondegenerate([2], group, 1)
    assert pair_solutions(sols) == [((Fraction(1, 2), Fraction(0)),)]
    assert enumerate_nondegenerate([2], group, 0) == []


def test_enumerate_gaussian_group_and_degenerates_dropped():
    # z1 + z2 + z3 = 1 over <i> x <1+i>, exponents in [-2, 2]
    group = GroupSpec(torsion_order=4, free_generators=((1, 1),))
    sols = enumerate_nondegenerate([1, 1, 1], group, 2)
    assert len(sols) == 75
    pairs = pair_solutions(sols)
    one = (Fraction(1), Fraction(0))
    i = (Fraction(0), Fraction(1))
    neg_i = (Fraction(0), Fraction(-1))
    # 1 + i + (-i) sums to 1 but the i + (-i) subsum vanishes
    assert (one, i, neg_i) not in pairs
    assert math.log2(len(sols)) <= log2_solution_bound(3, group.rank)
    # independent posthoc re-verification in exact Gaussian rationals
    for tup in pairs:
        assert sum(re for re, _ in tup) == 1 and sum(im for _, im in tup) == 0
        for size in (1, 2):
            for sub in combinations(tup, size):
                s = (sum(re for re, _ in sub), sum(im for _, im in sub))
                assert s != (Fraction(0), Fraction(0))


def test_enumerate_matches_the_exhaustive_oracle():
    # every tuple walked in Gaussian-rational pairs against the last-slot lookup
    rng = random.Random(2)
    coeff_pool = [1, 1, -1, 2, Fraction(1, 2), (1, 1), (0, 1), (1, -1), (Fraction(-1, 2), 1)]
    gen_pool = [(2, 0), (3, 0), (1, 1), (Fraction(1, 2), 0)]
    cases = solutions = 0
    seen_coeffs = set()
    while cases < 40:
        torsion = rng.choice((1, 2, 4))
        gens = rng.sample(gen_pool, rng.randint(1, 2))
        height = rng.randint(0, 2)
        coeffs = [rng.choice(coeff_pool) for _ in range(rng.randint(1, 3))]
        if (torsion * (2 * height + 1) ** len(gens)) ** len(coeffs) > 5000:
            continue
        cases += 1
        seen_coeffs.update(coeffs)
        expect = unit_equation_solutions(coeffs, torsion, gens, height)
        got = enumerate_nondegenerate(coeffs, GroupSpec(torsion, tuple(gens)), height)
        assert pair_solutions(got) == expect, (coeffs, torsion, gens, height)
        solutions += len(expect)
    assert {(1, 1), Fraction(1, 2)} <= seen_coeffs
    assert solutions >= 50


def test_integer_route_matches_the_oracle_over_large_coprime_denominators():
    # the terms' denominators (powers of 5 and 7 against 2 and 1 + i) make the
    # common denominator D large; the oracle walks every tuple in Fractions
    unit = (Fraction(3, 5), Fraction(4, 5))
    gens_pool = [(unit,), ((Fraction(2, 7), 0),), (unit, (2, 0))]
    coeff_sets = [
        [1], [(1, 1)], [Fraction(7, 5)], [1, -1], [2, -1], [(1, 1), -1], [7, 7, -3], [5, 5, 5], [(1, 1), -2, Fraction(1, 2)]
    ]
    cases = 0
    solutions = {1: 0, 2: 0, 3: 0}
    for torsion in (1, 2, 4):
        for gens in gens_pool:
            for height in (1, 2):
                for coeffs in coeff_sets:
                    if (torsion * (2 * height + 1) ** len(gens)) ** len(coeffs) > 4_000:
                        continue
                    cases += 1
                    expect = unit_equation_solutions(coeffs, torsion, gens, height)
                    got = enumerate_nondegenerate(coeffs, GroupSpec(torsion, gens), height)
                    assert pair_solutions(got) == expect, (coeffs, torsion, gens, height)
                    solutions[len(coeffs)] += len(expect)
    assert (cases, solutions) == (138, {1: 18, 2: 42, 3: 24})


def _field_route(coeffs, group, height):
    """The cyclotomic-rational walk: each residual an element of the field."""
    field = CyclotomicField(group.conductor)
    values = _slot_values(group, height, field)
    tables = [[field.embed_pair(*_as_pair(a)) * z for z in values] for a in coeffs]
    last = {term.coeffs: j for j, term in enumerate(tables[-1])}
    found = []
    for idx in product(range(len(values)), repeat=len(coeffs) - 1):
        residual = field.one
        for slot, j in enumerate(idx):
            residual = residual - tables[slot][j]
        j = last.get(residual.coeffs)
        if j is None:
            continue
        terms = [tables[slot][i] for slot, i in enumerate((*idx, j))]
        if all(not sum(sub, field.zero).is_zero() for r in range(1, len(terms)) for sub in combinations(terms, r)):
            found.append(tuple(values[i] for i in (*idx, j)))
    return sorted(found, key=lambda tup: tuple(z.coeffs for z in tup))


def test_integer_route_returns_the_field_elements_of_the_field_route():
    # the benchmark's unit equation: z1 + z2 + z3 = 1 over mu_6 x <2, 3>, |e| <= 2
    group = GroupSpec(6, ((2, 0), (3, 0)))
    got = enumerate_nondegenerate([1, 1, 1], group, 2)
    assert len(got) == 514
    assert [[z.coeffs for z in t] for t in got] == [[z.coeffs for z in t] for t in _field_route([1, 1, 1], group, 2)]
    assert all(type(c) is Fraction for t in got for z in t for c in z.coeffs)
    digest = hashlib.sha256(repr([[z.coeffs for z in t] for t in got]).encode()).hexdigest()
    assert digest == "3d68296863d2bb6da91f0239d04c6421b8fd3ea828514f24cee15aead28bd5c0"


def test_packed_residuals_match_the_tuple_residual_recursion():
    # drawn groups (torsion 1-12, 0-2 free generators, heights 0-2) and k =
    # 1-4 terms, where k = 1 and 2 leave the fused last two slots no prefix
    # or one slot alone; half the equations are built to hold at drawn
    # values, with coefficients up to +-1000 (so residuals come near the
    # packing bound), the other half drawn at random
    rng = random.Random(32)
    coeff_pool = [1, 1, 1, -1, 2, -3, 1000, -1000, (1, 1), (0, -1), (1000, -1000), (-999, 1), Fraction(1, 2)]
    gen_pool = [(2, 0), (3, 0), (1, 1), (Fraction(1, 2), 0), (Fraction(3, 5), Fraction(4, 5)), (1, -2)]
    cases, solutions = 0, dict.fromkeys(range(1, 5), 0)
    while cases < 100:
        torsion = rng.randint(1, 12)
        gens = tuple(rng.sample(gen_pool, rng.randint(0, 2)))
        height = rng.randint(0, 2)
        k = rng.randint(1, 4)
        group = GroupSpec(torsion, gens)
        if (torsion * (2 * height + 1) ** len(gens)) ** (k - 1) > 8000:
            continue
        coeffs = [rng.choice(coeff_pool) for _ in range(k)]
        if cases % 2:
            # a_k = 1 - sum_{j<k} a_j z_j at drawn Gaussian-rational z_j, so
            # that (z_1 .. z_{k-1}, 1) solves the equation
            field = CyclotomicField(group.conductor)
            gaussian = [z for z in _slot_values(group, height, field) if z.as_pair() is not None]
            rest = field.one
            for a in coeffs[:-1]:
                rest = rest - field.embed_pair(*_as_pair(a)) * rng.choice(gaussian)
            if rest.is_zero():
                continue
            coeffs[-1] = rest.as_pair()
        cases += 1
        expect = tuple_residual_solutions(coeffs, group, height)
        got = enumerate_nondegenerate(coeffs, group, height)
        assert [[z.coeffs for z in t] for t in got] == [[z.coeffs for z in t] for t in expect], (
            coeffs, torsion, gens, height,
        )
        solutions[k] += len(expect)
    assert min(solutions.values()) >= 10 and sum(solutions.values()) >= 200


def test_enumerate_validation_and_budget():
    group = GroupSpec(torsion_order=4, free_generators=((2, 0), (3, 0)))
    # 4 * 17^2 = 1156 slot values, so 1156^2 partial tuples pass the budget of 200 000
    with pytest.raises(ValueError, match="1336336 partial tuples over 1156 slot values, beyond the budget of 200000"):
        enumerate_nondegenerate([1, 1, 1], group, 8)
    with pytest.raises(ValueError):
        enumerate_nondegenerate([], group, 1)
    with pytest.raises(ValueError):
        enumerate_nondegenerate([1] * 5, group, 1)
    with pytest.raises(ValueError):
        enumerate_nondegenerate([1, 0], group, 1)
    with pytest.raises(ValueError):
        enumerate_nondegenerate([1, 1], group, 9)


def test_k_star_is_the_one_formula_every_caller_reads():
    for log_n, r, c2 in [(100.0, 1, 1.0), (1000.0, 2, 1.0), (math.log(10**5), 4, 1.0), (50.0, 3, 0.5)]:
        expect = math.exp(lambert_w(5.0 * c2 * log_n / r) / 5.0)
        assert k_star(log_n, r, c2) == expect  # bit for bit
        assert optimal_k_window(log_n=log_n, r=r, c2=c2).k_star == expect
        if c2 == 1.0:  # the row reads k_star at c2 = 1
            assert bound_row(3, r, log_n=log_n)["k_star"] == expect
    assert bound_row(3, 0, log_n=100.0)["k_star"] == k_star(100.0, 1)
