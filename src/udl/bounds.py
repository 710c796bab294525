"""Numeric bound evaluation: solution-count exponents, the epsilon window,
Lambert W, the optimal path-length window, and exhaustive enumeration of
nondegenerate unit-equation solutions over explicit groups."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .cyclotomic import CycloElement, CyclotomicField

# Window constants bracketing k_star against (log n / r)^(1/5), calibrated by
# scanning where epsilon_rhs is minimized for log n in [log 100, 1e6] and
# r in [1, 16]; see calibrate_k_window in this module and the test that
# re-runs the scan.
K_WINDOW_LO = 0.45
K_WINDOW_HI = 2.8

MAX_EQUATION_TERMS = 4
MAX_EXPONENT_HEIGHT = 8
DEFAULT_ENUM_BUDGET = 200_000


def _resolve_log_n(n=None, log_n=None) -> float:
    if (n is None) == (log_n is None):
        raise ValueError("give exactly one of n and log_n")
    if log_n is not None:
        if log_n <= 0:
            raise ValueError(f"log n must be positive, got {log_n}")
        return float(log_n)
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return math.log(n)


def log2_solution_bound(k: int, r: int) -> float:
    """log2 of the solution-count bound (8k)^(4k^4(k + kr + 1)) for k-term
    unit equations over a rank-r group."""
    if k < 1 or r < 0:
        raise ValueError(f"need k >= 1 and r >= 0, got k={k}, r={r}")
    return 4.0 * k**4 * (k + k * r + 1) * math.log2(8 * k)


def epsilon_rhs(k: int, r: int, n=None, *, log_n=None) -> float:
    """Upper bound 5 r k^4 log k / log n + 3/(2k) on the admissible exponent
    excess for path length k and rank r."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    big_l = _resolve_log_n(n, log_n)
    return 5.0 * r * k**4 * math.log(k) / big_l + 3.0 / (2.0 * k)


def lambert_w(x: float) -> float:
    """Principal-branch Lambert W on x >= 0 by Halley iteration from log(1+x).

    Stops when |W e^W - x| <= 1e-13 * max(x, 1), an order tighter than the
    1e-12 contract.
    """
    if x < 0:
        raise ValueError(f"principal branch needs x >= 0, got {x}")
    if x == 0:
        return 0.0
    w = math.log1p(x)
    for _ in range(80):
        e = math.exp(w)
        f = w * e - x
        if abs(f) <= 1e-13 * max(x, 1.0):
            break
        wp1 = w + 1.0
        w -= f / (e * wp1 - (w + 2.0) * f / (2.0 * wp1))
    return w


def k_star(log_n: float, r: int, c2: float = 1.0) -> float:
    """exp(W(5 c2 log n / r) / 5), the path length that balances the bound."""
    return math.exp(lambert_w(5.0 * c2 * log_n / r) / 5.0)


class KWindow(NamedTuple):
    k_star: float
    k_lo: float
    k_hi: float


def optimal_k_window(n=None, r: int = 1, c2: float = 1.0, *, log_n=None) -> KWindow:
    """k_star = exp(W(5 c2 log n / r)/5) with the calibrated sandwich
    k_lo <= k_star <= k_hi, both proportional to (log n / r)^(1/5)."""
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if c2 <= 0:
        raise ValueError(f"c2 must be positive, got {c2}")
    big_l = _resolve_log_n(n, log_n)
    base = (big_l / r) ** 0.2
    window = KWindow(k_star(big_l, r, c2), K_WINDOW_LO * base, K_WINDOW_HI * base)
    if not window.k_lo <= window.k_star <= window.k_hi:
        raise ValueError(
            f"window constants do not bracket k_star={window.k_star:.4f} at "
            f"log n={big_l:.4g}, r={r}; outside the calibrated domain"
        )
    return window


def k_feasible(k: int, epsilon: float, n=None, *, log_n=None) -> bool:
    """Whether k < epsilon * log n / log 2 - 1."""
    big_l = _resolve_log_n(n, log_n)
    return k < epsilon * big_l / math.log(2) - 1.0


def calibrate_k_window(log_n_values, r_values, k_range=range(2, 65)):
    """Scan ratios of both the empirical epsilon_rhs minimizer and k_star
    against (log n / r)^(1/5); the frozen window constants must cover the
    returned (min, max)."""
    ratios = []
    for big_l in log_n_values:
        for r in r_values:
            base = (big_l / r) ** 0.2
            k_emp = min(k_range, key=lambda k: epsilon_rhs(k, r, log_n=big_l))
            ratios.append(k_emp / base)
            ratios.append(k_star(big_l, r) / base)
    return min(ratios), max(ratios)


def max_rank_coefficient(epsilon: float, n=None, *, log_n=None, k_range=range(2, 65)):
    """Largest c such that rank r = c log n still satisfies the epsilon
    inequality for some k in the scan range; returns (c, k) or (0.0, None)."""
    _resolve_log_n(n, log_n)  # validates
    best_c, best_k = 0.0, None
    for k in k_range:
        margin = epsilon - 3.0 / (2.0 * k)
        if margin <= 0:
            continue
        c = margin / (5.0 * k**4 * math.log(k))
        if c > best_c:
            best_c, best_k = c, k
    return best_c, best_k


def absorption_sides(k: int, r: int, n=None, *, epsilon: float | None = None, log_n=None) -> dict:
    """Evaluate ((k+1/2)eps - 3/2) log n <= k log 4 + 4k^4(k+kr+1) log(8k)
    <= 5 r k^5 log k and report both comparisons (informational; the right
    absorption is expected to fail for small k)."""
    big_l = _resolve_log_n(n, log_n)
    if epsilon is None:
        epsilon = epsilon_rhs(k, r, log_n=big_l)
    lhs = ((k + 0.5) * epsilon - 1.5) * big_l
    mid = k * math.log(4) + 4.0 * k**4 * (k + k * r + 1) * math.log(8 * k)
    rhs = 5.0 * r * k**5 * math.log(k)
    return {
        "lhs": lhs,
        "mid": mid,
        "rhs": rhs,
        "lhs_le_mid": lhs <= mid,
        "mid_le_rhs": mid <= rhs,
    }


@dataclass(frozen=True)
class BoundParams:
    k: int
    r: int
    n: float | None = None
    log_n: float | None = None
    epsilon: float | None = None
    c2: float = 1.0


def bound_row(params: BoundParams) -> dict:
    """One report row: inputs, the log2 solution bound, the epsilon bound,
    k_star, and the feasibility flag."""
    big_l = _resolve_log_n(params.n, params.log_n)
    eps = params.epsilon if params.epsilon is not None else epsilon_rhs(params.k, params.r, log_n=big_l)
    return {
        "k": params.k,
        "r": params.r,
        "log_n": big_l,
        "log2_solution_bound": log2_solution_bound(params.k, params.r),
        "epsilon_rhs": eps,
        "k_star": k_star(big_l, max(params.r, 1), params.c2),
        "feasible_k": k_feasible(params.k, eps, log_n=big_l),
    }


def _qinv(pair: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    re, im = pair
    denom = re * re + im * im
    if denom == 0:
        raise ZeroDivisionError("inverse of zero")
    return (re / denom, -im / denom)


def _qmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _as_pair(value) -> tuple[Fraction, Fraction]:
    if isinstance(value, tuple):
        re, im = value
    else:
        re, im = value, 0
    return (Fraction(re), Fraction(im))


@dataclass(frozen=True)
class GroupSpec:
    """Finitely generated subgroup of C*: torsion root order plus free
    generators given as exact Gaussian rationals."""

    torsion_order: int
    free_generators: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        if not 1 <= self.torsion_order <= 12:
            raise ValueError(f"torsion order must be in [1, 12], got {self.torsion_order}")
        gens = tuple(_as_pair(g) for g in self.free_generators)
        for g in gens:
            if g == (0, 0):
                raise ValueError("free generators must be nonzero")
        object.__setattr__(self, "free_generators", gens)

    @property
    def rank(self) -> int:
        return len(self.free_generators)

    @property
    def conductor(self) -> int:
        return math.lcm(4, self.torsion_order)


def enumerate_nondegenerate(coeffs, group: GroupSpec, height: int, *, budget: int = DEFAULT_ENUM_BUDGET):
    """All tuples (z_1 .. z_k) of group elements with sum a_j z_j = 1 and no
    vanishing nonempty subsum of the left side.

    Exhaustive over the torsion times the exponent box |e| <= height; the last
    slot is resolved by lookup instead of enumeration.  Arithmetic is exact
    cyclotomic-rational, so the zero tests in the subsum check are exact.
    Every returned solution is re-verified posthoc against all 2^k - 1
    subsums, independent of how the enumeration found it.
    """
    pairs = [_as_pair(a) for a in coeffs]
    k = len(pairs)
    if not 1 <= k <= MAX_EQUATION_TERMS:
        raise ValueError(f"need 1 <= k <= {MAX_EQUATION_TERMS} coefficients, got {k}")
    if any(p == (0, 0) for p in pairs):
        raise ValueError("equation coefficients must be nonzero")
    if not 0 <= height <= MAX_EXPONENT_HEIGHT:
        raise ValueError(f"height must be in [0, {MAX_EXPONENT_HEIGHT}], got {height}")

    field = CyclotomicField(group.conductor)
    values = _slot_values(group, height, field)
    v = len(values)
    projected = v ** (k - 1)
    if projected > budget:
        raise ValueError(
            f"enumeration needs {projected} partial tuples over {v} slot values, "
            f"beyond the budget of {budget}"
        )

    a_emb = [field.embed_pair(*p) for p in pairs]
    inv_last = field.embed_pair(*_qinv(pairs[-1]))
    by_key = {z.coeffs: z for z in values}
    one = field.one

    solutions = []
    for prefix in product(values, repeat=k - 1):
        partial = field.zero
        for a, z in zip(a_emb, prefix):
            partial = partial + a * z
        needed = (one - partial) * inv_last
        z_last = by_key.get(needed.coeffs)
        if z_last is None:
            continue
        tup = (*prefix, z_last)
        if _all_subsums_nonzero(a_emb, tup):
            solutions.append(tup)
    solutions.sort(key=lambda tup: tuple(z.coeffs for z in tup))
    return solutions


def _slot_values(group: GroupSpec, height: int, field: CyclotomicField) -> list[CycloElement]:
    gens = group.free_generators
    powers: list[list[tuple[Fraction, Fraction]]] = []
    for g in gens:
        row = {0: (Fraction(1), Fraction(0))}
        ginv = _qinv(g)
        for e in range(1, height + 1):
            row[e] = _qmul(row[e - 1], g)
        for e in range(-1, -height - 1, -1):
            row[e] = _qmul(row[e + 1], ginv)
        powers.append([row[e] for e in range(-height, height + 1)])
    step = field.n // group.torsion_order
    torsion = [field.zeta(step * j) for j in range(group.torsion_order)]
    seen: dict = {}
    for combo in product(*powers) if gens else [()]:
        acc = (Fraction(1), Fraction(0))
        for p in combo:
            acc = _qmul(acc, p)
        base = field.embed_pair(*acc)
        for tau in torsion:
            z = tau * base
            seen.setdefault(z.coeffs, z)
    return [seen[key] for key in sorted(seen)]


def _all_subsums_nonzero(a_emb, tup) -> bool:
    k = len(tup)
    terms = [a * z for a, z in zip(a_emb, tup)]
    zero = terms[0].field.zero
    sums = [zero] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        s = sums[mask ^ low] + terms[low.bit_length() - 1]
        if s.is_zero():
            return False
        sums[mask] = s
    return True
