"""Exact arithmetic in Z[i] on integer pairs: products, two-squares
decompositions, and factorization over fixed prime atoms."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from .numtheory import is_probable_prime


class GaussInt(NamedTuple):
    """Gaussian integer a + bi.

    A named pair, so it hashes and orders as the tuple (a, b), and
    GaussInt(a, b) == (a, b) is True.  `*` is the product in Z[i]; `+`
    concatenates like any tuple, since Z[i] addition is not defined here.
    """

    a: int
    b: int

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def conj(self) -> "GaussInt":
        return GaussInt(self.a, -self.b)

    def norm(self) -> int:
        return self.a * self.a + self.b * self.b

    def is_unit(self) -> bool:
        return self.norm() == 1

    def as_tuple(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True)
class GaussFactorization:
    """A product expression unit * factors[0] * ... * factors[-1]."""

    unit: GaussInt
    factors: tuple[GaussInt, ...]


# (q, the quadratic nonresidues mod q) for the odd primes q up to 47
_SMALL_NONRESIDUES = tuple(
    (q, frozenset(range(1, q)) - {r * r % q for r in range(1, q)})
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
)


@functools.cache
def two_squares_prime(p: int) -> tuple[int, int]:
    """Decompose a prime p = 2 or p = 1 (mod 4) as x^2 + y^2, by Hermite-Serret.

    Returns the canonical pair with 0 < x < y (x = y = 1 for p = 2).
    Primes p = 3 (mod 4) have no such decomposition and are rejected.
    """
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return (1, 1)
    if p % 4 == 3:
        raise ValueError(f"{p} = 3 (mod 4) is not a sum of two squares")
    # square root of -1 mod p from a quadratic nonresidue, then Euclid until
    # the remainder drops under sqrt(p).  For prime p = 1 (mod 4), 2 is a
    # nonresidue iff p = 5 (mod 8), and by reciprocity an odd prime q is one
    # iff p mod q is one mod q; past the table, search upwards from 2.
    c = 2
    if p % 8 == 1:
        for q, nonresidues in _SMALL_NONRESIDUES:
            if p % q in nonresidues:
                c = q
                break
    while (z := pow(c, (p - 1) // 4, p)) * z % p != p - 1:
        c += 1
    a, b = p, z
    while b * b > p:
        a, b = b, a % b
    rem = p - b * b
    y = math.isqrt(rem)
    if y * y != rem:
        raise RuntimeError(f"descent failed for {p}")  # unreachable for prime input
    return (min(b, y), max(b, y))


def representations(primes) -> set[GaussInt]:
    """All lattice points of squared length m = product of the given primes.

    The primes must be distinct and each 1 (mod 4).  The result has exactly
    2^(t+2) elements for t primes, built as unit * prod_j (x_j +- i y_j) over
    all sign choices: the first sign is fixed, and each product is listed
    with its conjugate, each times the four units.  For the empty product
    these eight images of 1 fold to the four units.
    """
    primes = list(primes)
    if len(set(primes)) != len(primes):
        raise ValueError(f"primes must be distinct, got {primes}")
    pairs = []
    for p in primes:
        try:
            pair = p % 4 == 1 and two_squares_prime(p)
        except ValueError:
            pair = False
        if not pair:
            raise ValueError(f"{p} is not a prime congruent to 1 mod 4")
        pairs.append(pair)
    points = pairs[:1] or [(1, 0)]
    for x, y in pairs[1:]:
        points = [q for a, b in points for q in ((a * x - b * y, a * y + b * x), (a * x + b * y, b * x - a * y))]
    images = []
    for a, b in points:
        images += ((a, b), (-b, a), (-a, -b), (b, -a), (a, -b), (b, a), (-a, b), (-b, -a))
    points = set(map(tuple.__new__, repeat(GaussInt), images))
    assert len(points) == 1 << (len(primes) + 2), (primes, len(points))
    return points


def _lattice_points(factors: dict[int, int]) -> list[tuple[int, int]]:
    """Every (a, b) with a^2 + b^2 = prod p^e over the factorisation {p: e}.

    `representations` lists the points whose norm is the product of the
    primes p = 1 (mod 4) to the first power.  Each is then multiplied by
    (1+i)^a for 2^a, by q^(e/2) for q^e with q = 3 (mod 4), and by
    (x+iy)^s (x-iy)^(e-s), 0 <= s <= e, for p^e with e > 1 and
    p = x^2 + y^2 = 1 (mod 4).  A q = 3 (mod 4) to an odd power leaves no
    points, which is answered before any point is built.  Unique
    factorisation in Z[i] makes the 4 * prod (e+1) points distinct; a
    product arises along many orders, so each step keeps a set.
    """
    if any(p % 4 == 3 and e % 2 for p, e in factors.items()):
        return []
    points = representations([p for p, e in factors.items() if p % 4 == 1 and e == 1])
    for p, e in factors.items():
        if p == 2:
            choices = [(1, 1)]
        elif p % 4 == 3:
            choices, e = [(p, 0)], e // 2
        elif e > 1:
            x, y = two_squares_prime(p)
            choices = [(x, y), (x, -y)]
        else:
            continue
        for _ in range(e):
            points = {(a * c - b * d, a * d + b * c) for a, b in points for c, d in choices}
    return list(map(tuple, points))


def _exact_div(g: GaussInt, d: GaussInt) -> GaussInt | None:
    """g / d when d divides g exactly in Z[i], else None."""
    n = d.norm()
    num = g * d.conj()
    if num.a % n or num.b % n:
        return None
    return GaussInt(num.a // n, num.b // n)


def factor_over(g: GaussInt, atoms) -> GaussFactorization | None:
    """Express g as unit * product over the atoms, each taken as itself or
    its conjugate, aligned with the atom order.

    Returns None when no such expression exists (for instance when norms are
    incompatible); that is a normal outcome, not an error.  Atoms must have
    prime norm.
    """
    atoms = [a if isinstance(a, GaussInt) else GaussInt(*a) for a in atoms]
    norm_product = 1
    for atom in atoms:
        n = atom.norm()
        if not is_probable_prime(n):
            raise ValueError(f"atom {atom} has non-prime norm {n}")
        norm_product *= n
    if g.norm() != norm_product:
        return None

    # Each atom is a Gaussian prime.  When it divides what is left but an
    # expression takes its conjugate here, it divides the conjugate itself
    # or a later factor, an associate of it; taking the atom here and that
    # factor's conjugate there changes the product by a unit only.  So one
    # pass finds an expression whenever one exists, and what is left at the
    # end has norm 1.
    factors = []
    for atom in atoms:
        for cand in (atom, atom.conj()):
            q = _exact_div(g, cand)
            if q is not None:
                factors.append(cand)
                g = q
                break
        else:
            return None
    return GaussFactorization(unit=g, factors=tuple(factors))
