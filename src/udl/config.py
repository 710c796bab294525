"""Square-grid point configurations with a composite two-squares target.

The target squared distance m is the product of the first r - 1 primes that
are 1 mod 4, chosen as large as the point budget n allows under 4m <= n.
Points stay in integer units throughout; the 1/sqrt(m) normalization that
would make those distances unit length is carried symbolically as a scale
exponent, never applied in floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .gaussian import GaussFactorization, GaussInt, factor_over, two_squares_prime
from .numtheory import AP_1_MOD_4, kth_prime_in_ap


@dataclass(frozen=True)
class ConfigParams:
    """Chosen configuration: n points budgeted, rank r, target m = prod(primes),
    grid side floor(sqrt(n))."""

    n: int
    r: int
    m: int
    primes: tuple[int, ...]
    side: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@dataclass(frozen=True)
class GeneratorSet:
    """Conjugate generator pairs (x_j + i y_j, x_j - i y_j), one per prime
    factor of m, plus the symbolic normalization exponent."""

    pairs: tuple[tuple[GaussInt, GaussInt], ...]
    scale_exponent: Fraction

    @property
    def m(self) -> int:
        out = 1
        for g, _ in self.pairs:
            out *= g.norm()
        return out


@dataclass(frozen=True)
class EdgeSelection:
    """Which branch each prime's generator took (+1 for x+iy, -1 for the
    conjugate) and the residual unit."""

    signs: tuple[int, ...]
    unit: GaussInt


def choose_params(n: int) -> ConfigParams:
    """Largest rank r with 4 * p_1 * ... * p_(r-1) <= n over primes 1 mod 4.

    n < 20 degenerates to r = 1, m = 1 (the plain grid with axis steps).
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    primes: list[int] = []
    m = 1
    r = 1
    while True:
        p = kth_prime_in_ap(r, AP_1_MOD_4)
        if 4 * m * p > n:
            break
        m *= p
        primes.append(p)
        r += 1
    return ConfigParams(n=n, r=r, m=m, primes=tuple(primes), side=math.isqrt(n))


def build_config(params: ConfigParams) -> tuple[tuple[int, int], ...]:
    """The side x side integer grid's points, ascending row-major."""
    side = params.side
    return tuple((x, y) for x in range(side) for y in range(side))


def generators(params: ConfigParams) -> GeneratorSet:
    """Conjugate pair per prime factor of m; needs rank r >= 2."""
    if params.r < 2:
        raise ValueError(f"generators need r >= 2, got r={params.r} (m=1 has no prime factors)")
    pairs = []
    for p in params.primes:
        x, y = two_squares_prime(p)
        pairs.append((GaussInt(x, y), GaussInt(x, -y)))
    return GeneratorSet(
        pairs=tuple(pairs),
        scale_exponent=Fraction(-1, 2 * (params.r - 1)),
    )


def verify_edge_in_group(v: GaussInt, gens: GeneratorSet) -> EdgeSelection:
    """Factor a displacement of squared length m through the generator pairs.

    Success returns the per-prime branch choices and the unit; failure raises,
    because a squared-length-m displacement that does not factor would
    contradict unique factorization in Z[i].
    """
    if v.norm() != gens.m:
        raise ValueError(f"displacement {v} has norm {v.norm()}, expected {gens.m}")
    atoms = [pair[0] for pair in gens.pairs]
    fact: GaussFactorization | None = factor_over(v, atoms)
    if fact is None:
        raise ArithmeticError(f"{v} did not factor over the generator atoms {atoms}")
    signs = tuple(1 if f == atom else -1 for f, atom in zip(fact.factors, atoms))
    return EdgeSelection(signs=signs, unit=fact.unit)


def rank_bounds(n: int) -> tuple[float, float]:
    """Window (log n / (3 log log n), 16 log n / log log n) containing the rank."""
    if n < 16:
        raise ValueError(f"rank bounds need n >= 16 so that log log n > 0, got {n}")
    log_n = math.log(n)
    log_log_n = math.log(log_n)
    return (log_n / (3 * log_log_n), 16 * log_n / log_log_n)
