import random
from fractions import Fraction

import pytest

from udl.cyclotomic import CyclotomicField, _poly_div_exact, cyclotomic_poly
from udl.numtheory import euler_phi

from oracles import gaussian_rational_mul


def polymul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_cyclotomic_poly_examples():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert len(cyclotomic_poly(44)) == 21
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_inexact_polynomial_division_is_refused():
    # x^2 + 1 = (x + 1)(x - 1) + 2 leaves a remainder; x + 1 over 2x + 1 fails at the leading coefficient
    with pytest.raises(ArithmeticError, match="non-exact polynomial division"):
        _poly_div_exact([1, 0, 1], [1, 1])
    with pytest.raises(ArithmeticError, match="non-exact polynomial division"):
        _poly_div_exact([1, 1], [1, 2])


def test_cyclotomic_product_recovers_x_pow_n_minus_one():
    for n in (1, 2, 6, 12, 20, 44):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = polymul(prod, list(cyclotomic_poly(d)))
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_degree_is_euler_phi():
    for n in range(1, 45):
        assert CyclotomicField(n).degree == euler_phi(n)


def test_zeta_powers_cycle_and_multiply():
    rng = random.Random(7)
    for n in (4, 12, 20, 44):
        field = CyclotomicField(n)
        powers = [field.zeta(j) for j in range(n)]
        assert len(set(powers)) == n
        assert powers[0] == field.one
        assert field.zeta(n) == field.one
        assert field.zeta(-1) == powers[n - 1]
        for _ in range(30):
            j, k = rng.randrange(n), rng.randrange(n)
            assert powers[j] * powers[k] == field.zeta(j + k)


def test_zeta_powers_match_repeated_multiplication_by_zeta():
    # zeta is x mod Phi_n, built here without the field's table of powers:
    # zeta^m by m multiplications is zeta^(m - 2n), as zeta^(2n) = 1
    for n in range(1, 61):
        field = CyclotomicField(n)
        z = field.element([0, 1]) if field.degree > 1 else field.element([-field.poly[0]])
        walk = field.one
        for m in range(4 * n + 1):
            assert field.zeta(m - 2 * n) == walk, (n, m - 2 * n)
            walk = walk * z


def test_embedded_i_squares_to_minus_one():
    for n in (4, 12, 20, 44):
        field = CyclotomicField(n)
        i = field.zeta(n // 4)
        assert i * i == field.element([-1])
        assert field.embed_pair(0, 1) == i
    with pytest.raises(ValueError):
        CyclotomicField(6).embed_pair(1, 0)


def test_embed_pair_multiplication_matches_rational_oracle():
    rng = random.Random(31)
    field = CyclotomicField(12)
    for _ in range(100):
        u = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        v = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        got = (field.embed_pair(*u) * field.embed_pair(*v)).as_pair()
        assert got == gaussian_rational_mul(u, v)


def test_as_pair_roundtrip_and_rejection():
    field = CyclotomicField(12)
    assert field.embed_pair(Fraction(3, 7), Fraction(-2, 5)).as_pair() == (Fraction(3, 7), Fraction(-2, 5))
    assert field.zeta(1).as_pair() is None
    assert field.zeta(2).as_pair() is None  # zeta_6 is not Gaussian rational
    assert field.zeta(3).as_pair() == (0, 1)
    assert CyclotomicField(5).zeta(0).as_pair() is None  # no embedded i at all


def test_zeta6_plus_inverse_is_one():
    field = CyclotomicField(12)
    z6 = field.zeta(2)
    assert z6 + field.zeta(-2) == field.one
    assert (z6 * (field.one - z6)).is_zero() is False
    assert z6 * field.zeta(10) == field.one


def test_scalar_mixing_and_arithmetic_identities():
    field = CyclotomicField(12)
    z = field.zeta()
    assert z + 1 == field.element([1, 1])
    assert z - z == field.zero
    assert (-z) + z == field.zero
    assert z * Fraction(1, 2) + z * Fraction(1, 2) == z
    assert (z + 1) * (z - 1) == z * z - 1
    assert field.zero.is_zero() and not field.one.is_zero()


def test_elements_hash_consistently():
    field = CyclotomicField(12)
    seen = {field.zeta(j) for j in range(12)} | {field.zeta(j + 12) for j in range(12)}
    assert len(seen) == 12


def test_repr_names_the_terms_and_the_field():
    field = CyclotomicField(12)
    assert repr(field.zeta(1)) == "<1*z | z = zeta_12>"
    assert repr(field.zero) == "<0 | z = zeta_12>"
    assert repr(field.element([1, 0, Fraction(-1, 2)])) == "<1 + -1/2*z^2 | z = zeta_12>"


def test_an_element_is_not_equal_to_a_number():
    # __eq__ hands a non-element back to Python, which then compares identities
    assert (CyclotomicField(12).zeta(1) == 5) is False
    assert CyclotomicField(12).one != 1


def test_mixed_conductors_rejected():
    with pytest.raises(ValueError):
        CyclotomicField(12).one + CyclotomicField(4).one
    with pytest.raises(ValueError):
        CyclotomicField(12).element([1] * 5)
