import math
import random

import pytest

from udl.gaussian import (
    GaussInt,
    factor_over,
    representations,
    two_squares_prime,
)
from udl.numtheory import is_probable_prime
from udl.udgraph import lattice_vectors

from oracles import factor_over_backtracking, gaussian_rational_mul, trial_division_primes, two_squares_set


UNITS = (GaussInt(1, 0), GaussInt(-1, 0), GaussInt(0, 1), GaussInt(0, -1))


def as_tuples(points):
    return {p.as_tuple() for p in points}


def test_gmul_examples():
    # the ring product (a, b) * (c, d) = (ac - bd, ad + bc)
    assert GaussInt(1, 2) * GaussInt(2, 3) == GaussInt(-4, 7)
    assert GaussInt(1, 2) * GaussInt(1, -2) == GaussInt(5, 0)


def test_norm_is_multiplicative():
    rng = random.Random(2024)
    for _ in range(500):
        u = GaussInt(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        v = GaussInt(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        assert (u * v).norm() == u.norm() * v.norm()


def test_product_matches_rational_oracle_both_branches():
    # Brahmagupta-Fibonacci: (a^2+b^2)(c^2+d^2) = (ac-bd)^2 + (ad+bc)^2
    # and, with the conjugate, = (ac+bd)^2 + (ad-bc)^2.
    rng = random.Random(99)
    for _ in range(200):
        u = GaussInt(rng.randint(-50, 50), rng.randint(-50, 50))
        v = GaussInt(rng.randint(-50, 50), rng.randint(-50, 50))
        w = u * v
        assert (w.a, w.b) == tuple(int(c) for c in gaussian_rational_mul(u.as_tuple(), v.as_tuple()))
        first = (u.a * v.a - u.b * v.b) ** 2 + (u.a * v.b + u.b * v.a) ** 2
        second = (u.a * v.a + u.b * v.b) ** 2 + (u.a * v.b - u.b * v.a) ** 2
        assert first == u.norm() * v.norm()
        assert second == (u * v.conj()).norm() == u.norm() * v.norm()


def test_two_squares_prime_examples():
    assert two_squares_prime(5) == (1, 2)
    assert two_squares_prime(13) == (2, 3)
    assert two_squares_prime(2) == (1, 1)
    with pytest.raises(ValueError):
        two_squares_prime(7)
    with pytest.raises(ValueError):
        two_squares_prime(21)  # not prime


def test_two_squares_prime_small_sweep():
    for p in trial_division_primes(3000):
        if p % 4 != 1:
            continue
        x, y = two_squares_prime(p)
        assert 0 < x < y
        assert x * x + y * y == p
        assert (x, y) in two_squares_set(p)


def test_two_squares_prime_descent_branch():
    # Hermite-Serret descent on primes above 10^6 and up to 2^31.  The
    # nonresidue is 2 for p = 5 (mod 8) (1_000_037, 9_257_429); for
    # 9_257_329 = 1 (mod 8) every prime up to 47 is a residue (its least
    # nonresidue is 53), so it takes the upward search.
    for p in (1_000_033, 1_000_037, 9_257_329, 9_257_429, 2_147_483_629):
        x, y = two_squares_prime(p)
        assert 0 < x < y and x * x + y * y == p
        assert (x, y) in two_squares_set(p)


def test_representations_cardinalities():
    units = representations([])
    assert as_tuples(units) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(representations([5])) == 8
    assert len(representations([5, 13])) == 16


def test_representations_match_bruteforce():
    cases = [([], 1), ([5], 5), ([13], 13), ([5, 13], 65), ([5, 13, 17], 1105)]
    # seeded squarefree products of 1-6 primes 1 (mod 4) in random order;
    # every third holds 1_000_033 and at most two small primes
    rng = random.Random(27)
    pool = [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
    for trial in range(24):
        t = rng.randint(1, 6)
        primes = rng.sample(pool, t) if trial % 3 else [1_000_033, *rng.sample(pool, min(t, 3) - 1)]
        rng.shuffle(primes)
        cases.append((primes, math.prod(primes)))
    for primes, m in cases:
        points = representations(primes)
        assert all(type(p) is GaussInt for p in points)
        assert as_tuples(points) == two_squares_set(m), primes


def test_representations_are_the_lattice_builders_points():
    # `lattice_vectors` builds on `representations`, so this pins only that it
    # keeps every point and sorts them, on seeded squarefree products of up to
    # 8 primes, and that the empty product is the four units as GaussInts; the
    # independent checks of both are the `two_squares_set` oracle tests and,
    # past their six primes, the norm of every point: with the size assert in
    # `representations` and set distinctness, that is all 2^(t+2) of them
    rng = random.Random(32)
    pool = [p for p in trial_division_primes(400) if p % 4 == 1] + [1_000_033, 9_257_329]
    for t in [*range(9), *(rng.randint(0, 8) for _ in range(40))]:
        primes = rng.sample(pool, t)
        m = math.prod(primes)
        points = lattice_vectors(m)
        assert points == sorted(representations(primes)), primes
        assert all(a * a + b * b == m for a, b in points), primes
    units = representations([])
    assert units == set(UNITS) and len(units) == 4 and all(type(u) is GaussInt for u in units)


def test_lattice_vectors_answer_an_odd_power_of_a_prime_3_mod_4_before_building(monkeypatch):
    # with 30 primes 1 (mod 4) beside it, building first would list 2^32 points
    import udl.gaussian

    def refuse(primes):
        raise AssertionError("representations was called")

    monkeypatch.setattr(udl.gaussian, "representations", refuse)
    split = math.prod([p for p in trial_division_primes(1000) if p % 4 == 1][:30])
    for q, e in ((3, 1), (7, 3), (1031, 1)):
        assert lattice_vectors(split * q**e) == []


def test_representations_refuses_a_strong_pseudoprime():
    # 399165290221 * 798330580441 = 1 (mod 4) passes Miller-Rabin on the bases 2..37
    with pytest.raises(ValueError, match="not a prime congruent to 1 mod 4"):
        representations([318665857834031151167461])


def test_representations_checks_each_prime_once(monkeypatch):
    import udl.gaussian

    seen = []

    def counted(n):
        seen.append(n)
        return is_probable_prime(n)

    monkeypatch.setattr(udl.gaussian, "is_probable_prime", counted)
    p = 1_000_000_009
    two_squares_prime.cache_clear()
    for _ in range(3):
        assert len(representations([5, p])) == 16
    assert seen.count(p) == 1


def test_representations_rejects_bad_input():
    with pytest.raises(ValueError):
        representations([5, 5])
    with pytest.raises(ValueError):
        representations([3])
    with pytest.raises(ValueError):
        representations([25])


def test_representations_split_into_associate_classes():
    # every representation set is a disjoint union of size-4 unit orbits, and
    # distinct sign-choice orbits are never associate to each other
    for primes in [[5], [5, 13], [5, 13, 17]]:
        points = sorted(representations(primes))
        orbits = []
        remaining = set(points)
        while remaining:
            p = min(remaining)
            orbit = {u * p for u in UNITS}
            assert orbit <= remaining
            remaining -= orbit
            orbits.append(p)
        assert len(orbits) == len(points) // 4
        for i, p in enumerate(orbits):
            for q in orbits[i + 1 :]:
                assert q not in {u * p for u in UNITS}


def test_factor_over_examples():
    got = factor_over(GaussInt(-4, 7), [GaussInt(1, 2), GaussInt(2, 3)])
    assert got is not None
    assert got.factors == (GaussInt(1, 2), GaussInt(2, 3))
    assert got.unit == GaussInt(1, 0)
    assert got.unit * got.factors[0] * got.factors[1] == GaussInt(-4, 7)

    # 5 = (1+2i)(1-2i) needs both split factors; one atom cannot cover it
    assert factor_over(GaussInt(5, 0), [GaussInt(1, 2)]) is None

    got = factor_over(GaussInt(1, 2), [GaussInt(1, 2)])
    assert got is not None and got.unit == GaussInt(1, 0) and got.factors == (GaussInt(1, 2),)


def test_factor_over_empty_atoms_and_units():
    got = factor_over(GaussInt(0, -1), [])
    assert got is not None and got.unit == GaussInt(0, -1) and got.factors == ()
    assert factor_over(GaussInt(1, 1), []) is None


def test_factor_over_rejects_non_prime_norm_atom():
    with pytest.raises(ValueError):
        factor_over(GaussInt(5, 0), [GaussInt(3, 0)])  # norm 9


def test_factor_over_roundtrip_random():
    rng = random.Random(5)
    atom_pool = [GaussInt(*two_squares_prime(p)) for p in (5, 13, 17, 29, 37)]
    for _ in range(100):
        t = rng.randint(0, 5)
        atoms = rng.sample(atom_pool, t)
        unit = rng.choice(UNITS)
        g = unit
        expect = []
        for atom in atoms:
            f = atom if rng.random() < 0.5 else atom.conj()
            expect.append(f)
            g = g * f
        got = factor_over(g, atoms)
        assert got is not None
        assert math.prod(got.factors, start=got.unit) == g
        # distinct prime norms make the sign choice per atom unique
        assert got.factors == tuple(expect)
        assert got.unit == unit


def test_factor_over_norm_mismatch_is_failure_value():
    assert factor_over(GaussInt(6, 7), [GaussInt(1, 2)]) is None


def test_factor_over_agrees_with_the_backtracking_search():
    # atoms drawn with repeats, conjugates, associates and 1 + i, so a slot
    # may divide by both choices.  g is a unit times a drawn choice per slot,
    # or any point of the atoms' norm product m (by unique factorisation it
    # has an expression too), or a point of norm 5m or 13m, which has none
    rng = random.Random(41)
    pool = [GaussInt(*two_squares_prime(p)) for p in (2, 5, 13, 17)]
    found = missed = 0
    for _ in range(3000):
        atoms = []
        for _ in range(rng.randint(0, 5)):
            a = rng.choice(pool)
            atoms.append(rng.choice(UNITS) * (a if rng.random() < 0.5 else a.conj()))
        m = math.prod(a.norm() for a in atoms)
        draw = rng.randrange(3)
        if draw == 0:
            g = math.prod((a if rng.random() < 0.5 else a.conj() for a in atoms), start=rng.choice(UNITS))
        else:
            g = GaussInt(*rng.choice(sorted(two_squares_set(m * (1 if draw == 1 else rng.choice((5, 13)))))))
        got = factor_over(g, atoms)
        assert (got and (got.unit, got.factors)) == factor_over_backtracking(g, atoms), (g, atoms)
        assert (got is None) == (draw == 2), (g, atoms)
        if got:
            found += 1
            assert math.prod(got.factors, start=got.unit) == g
        else:
            missed += 1
    assert found > 1500 and missed > 500, (found, missed)
