"""Exact arithmetic in cyclotomic fields Q(zeta_N) over Fraction coefficients.

Elements are polynomials in zeta_N reduced modulo the N-th cyclotomic
polynomial, so equality and zero tests are exact; no floating point anywhere.
Gaussian rationals embed via i = zeta_N^(N/4), which is why callers pick a
conductor divisible by 4.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials known to divide exactly (ascending coeffs)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coef = num[shift + len(den) - 1]
        if coef % den[-1]:
            raise ArithmeticError("non-exact polynomial division")
        coef //= den[-1]
        out[shift] = coef
        if coef:
            for i, d in enumerate(den):
                num[shift + i] -= coef * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


class CyclotomicField:
    """Q(zeta_n) with a fixed power basis 1, zeta, ..., zeta^(deg-1)."""

    def __init__(self, n: int):
        self.n = n
        self.poly = cyclotomic_poly(n)
        self.degree = len(self.poly) - 1
        # zeta^j as an integer vector, for 0 <= j < max(n, 2*deg - 1): `zeta`
        # reads entry j mod n, and `__mul__` reduces zeta^deg .. zeta^(2*deg-2)
        base = [-c for c in self.poly[:-1]]  # zeta^deg
        cur = [1] + [0] * (self.degree - 1)
        self._powers = [tuple(cur)]
        for _ in range(max(n, 2 * self.degree - 1) - 1):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [c + top * b for c, b in zip(cur, base)]
            self._powers.append(tuple(cur))

    def element(self, coeffs) -> "CycloElement":
        vals = [Fraction(c) for c in coeffs]
        if len(vals) > self.degree:
            raise ValueError(f"coefficient vector longer than degree {self.degree}")
        vals += [Fraction(0)] * (self.degree - len(vals))
        return CycloElement(self, tuple(vals))

    @property
    def zero(self) -> "CycloElement":
        return self.element([])

    @property
    def one(self) -> "CycloElement":
        return self.element([1])

    def zeta(self, power: int = 1) -> "CycloElement":
        return CycloElement(self, tuple(map(Fraction, self._powers[power % self.n])))

    def embed_pair(self, re, im) -> "CycloElement":
        """Gaussian rational re + im*i with i = zeta^(n/4); needs 4 | n."""
        if self.n % 4:
            raise ValueError(f"conductor {self.n} has no embedded i; use one divisible by 4")
        return self.element([re]) + self.zeta(self.n // 4) * self.element([im])


class CycloElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def _match(self, other) -> "CycloElement":
        if not isinstance(other, CycloElement):
            return self.field.element([Fraction(other)])
        if other.field.n != self.field.n:
            raise ValueError("mixed conductors")
        return other

    def __add__(self, other):
        other = self._match(other)
        return CycloElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._match(other)
        return CycloElement(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycloElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._match(other)
        deg = self.field.degree
        conv = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        out = conv[:deg]
        powers = self.field._powers
        for j in range(deg, 2 * deg - 1):
            c = conv[j]
            if c:
                for i, r in enumerate(powers[j]):
                    if r:
                        out[i] += c * r
        return CycloElement(self.field, tuple(out))

    def __eq__(self, other):
        if not isinstance(other, CycloElement):
            return NotImplemented
        return self.field.n == other.field.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.n, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_pair(self) -> tuple[Fraction, Fraction] | None:
        """(re, im) when the element lies in Q(i), else None."""
        n = self.field.n
        if n % 4:
            return None
        idx = n // 4
        re = self.coeffs[0]
        im = self.coeffs[idx] if idx < self.field.degree else Fraction(0)
        probe = self.field.embed_pair(re, im)
        return (re, im) if probe == self else None

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} | z = zeta_{self.field.n}>"
