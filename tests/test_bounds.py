import math
from fractions import Fraction
from itertools import combinations

import pytest

from udl.bounds import (
    K_WINDOW_HI,
    K_WINDOW_LO,
    BoundParams,
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

from oracles import lambert_w_bisect


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
    assert epsilon_rhs(3, 1, n=10**6) == epsilon_rhs(3, 1, log_n=math.log(10**6))


def test_epsilon_rhs_limits_and_validation():
    # rank-0 term vanishes, leaving the pure 3/(2k) tail
    assert epsilon_rhs(64, 0, log_n=10) == 3.0 / 128.0
    # larger n loosens the first term only
    assert epsilon_rhs(3, 2, log_n=10**6) < epsilon_rhs(3, 2, log_n=10**3)
    with pytest.raises(ValueError):
        epsilon_rhs(1, 1, log_n=10)
    with pytest.raises(ValueError):
        epsilon_rhs(2, -1, log_n=10)
    with pytest.raises(ValueError):
        epsilon_rhs(2, 1)
    with pytest.raises(ValueError):
        epsilon_rhs(2, 1, n=100, log_n=10)
    with pytest.raises(ValueError):
        epsilon_rhs(2, 1, log_n=0)


def test_lambert_w_reference_points():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(math.e) - 1.0) <= 1e-12
    assert lambert_w(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)  # omega constant
    assert lambert_w(10.0) == pytest.approx(1.7455280027406994, abs=1e-9)
    assert lambert_w(500.0) == pytest.approx(4.672840885119040, abs=1e-9)
    with pytest.raises(ValueError):
        lambert_w(-0.5)


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
    assert optimal_k_window(n=10**6, r=2) == optimal_k_window(log_n=math.log(10**6), r=2)


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
    c, k = max_rank_coefficient(1.0, log_n=100)
    assert k == 2
    assert c == pytest.approx(0.25 / (80 * math.log(2)), rel=1e-12)
    # epsilon too small for any k leaves nothing
    assert max_rank_coefficient(1e-9, log_n=100) == (0.0, None)


def test_absorption_sides_report():
    got = absorption_sides(3, 1, log_n=1000)
    assert set(got) == {"lhs", "mid", "rhs", "lhs_le_mid", "mid_le_rhs"}
    assert got["lhs_le_mid"] is True
    assert got["mid_le_rhs"] is False  # the k^5 absorption needs large k
    assert got["mid"] == pytest.approx(3 * math.log(4) + 4 * 81 * 7 * math.log(24), rel=1e-12)


def test_bound_row_consistency():
    row = bound_row(BoundParams(k=3, r=2, log_n=1000.0))
    assert row["log2_solution_bound"] == log2_solution_bound(3, 2)
    assert row["epsilon_rhs"] == epsilon_rhs(3, 2, log_n=1000)
    assert row["k_star"] == optimal_k_window(log_n=1000, r=2).k_star
    assert row["feasible_k"] is True
    fixed = bound_row(BoundParams(k=3, r=2, log_n=1000.0, epsilon=0.001))
    assert fixed["epsilon_rhs"] == 0.001
    assert fixed["feasible_k"] is False


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


def test_enumerate_validation_and_budget():
    group = GroupSpec(torsion_order=4, free_generators=((2, 0), (3, 0)))
    with pytest.raises(ValueError):
        enumerate_nondegenerate([1, 1, 1], group, 8, budget=100)
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
        assert bound_row(BoundParams(k=3, r=r, log_n=log_n, c2=c2))["k_star"] == expect
    assert bound_row(BoundParams(k=3, r=0, log_n=100.0))["k_star"] == k_star(100.0, 1)
