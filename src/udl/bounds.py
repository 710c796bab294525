"""Numeric bound evaluation: solution-count exponents, the epsilon window,
Lambert W, the optimal path-length window, and exhaustive enumeration of
nondegenerate unit-equation solutions over explicit groups."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .cyclotomic import CycloElement, CyclotomicField
from .paths import is_irredundant

# Window constants bracketing k_star against (log n / r)^(1/5), calibrated by
# scanning where epsilon_rhs is minimized for log n in [log 100, 1e6] and
# r in [1, 16]; see calibrate_k_window in this module and the test that
# re-runs the scan.
K_WINDOW_LO = 0.45
K_WINDOW_HI = 2.8

MAX_EQUATION_TERMS = 4
MAX_EXPONENT_HEIGHT = 8
ENUM_BUDGET = 200_000


def _checked_log_n(log_n) -> float:
    if not 0 < log_n < math.inf:
        raise ValueError(f"log n must be finite and positive, got {log_n}")
    return float(log_n)


def _resolve_log_n(n, log_n) -> float:
    if (n is None) == (log_n is None):
        raise ValueError("give exactly one of n and log_n")
    if n is not None and not 3 <= n < math.inf:
        raise ValueError(f"need a finite n >= 3, got {n}")
    return _checked_log_n(log_n if n is None else math.log(n))


def _in_float_range(fn):
    """fn, refusing with ValueError the (k, r) whose value overflows a float."""

    @functools.wraps(fn)
    def checked(k, r, *args, **kwargs):
        try:
            value = fn(k, r, *args, **kwargs)
        except OverflowError:
            value = math.inf
        if not value < math.inf:
            raise ValueError(f"{fn.__name__} at this k and r is past the float range")
        return value

    return checked


@_in_float_range
def log2_solution_bound(k: int, r: int) -> float:
    """log2 of the solution-count bound (8k)^(4k^4(k + kr + 1)) for k-term
    unit equations over a rank-r group."""
    if k < 1 or r < 0:
        raise ValueError(f"need k >= 1 and r >= 0, got k={k}, r={r}")
    return 4.0 * k**4 * (k + k * r + 1) * math.log2(8 * k)


@_in_float_range
def epsilon_rhs(k: int, r: int, *, log_n: float) -> float:
    """Upper bound 5 r k^4 log k / log n + 3/(2k) on the admissible exponent
    excess for path length k and rank r."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    big_l = _checked_log_n(log_n)
    return 5.0 * r * k**4 * math.log(k) / big_l + 3.0 / (2.0 * k)


def lambert_w(x: float) -> float:
    """Principal-branch Lambert W on finite x >= 0 by Halley iteration from
    log(1+x).

    Stops when |W e^W - x| <= 1e-13 * max(x, 1), an order tighter than the
    1e-12 contract.  Above 1e300, where W e^W and Halley's step overflow,
    it solves W + log W = log x instead (`_lambert_w_of_log`).
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"Lambert W needs a finite x >= 0, got {x}")
    if x == 0:
        return 0.0
    if x > 1e300:
        return _lambert_w_of_log(math.log(x))
    w = math.log1p(x)
    for _ in range(80):
        e = math.exp(w)
        f = w * e - x
        if abs(f) <= 1e-13 * max(x, 1.0):
            break
        wp1 = w + 1.0
        w -= f / (e * wp1 - (w + 2.0) * f / (2.0 * wp1))
    return w


def _lambert_w_of_log(big_l: float) -> float:
    """W(e^L) for L > 690 by Newton on w + log w = L from L - log L."""
    w = big_l - math.log(big_l)
    for _ in range(80):
        step = (w + math.log(w) - big_l) * w / (w + 1.0)
        w -= step
        if abs(step) <= 1e-15 * w:
            break
    return w


def k_star(log_n: float, r: int, c2: float = 1.0) -> float:
    """exp(W(5 c2 log n / r) / 5), the path length that balances the bound;
    where 5 c2 log n / r overflows, W is solved from its log."""
    x = 5.0 * c2 * log_n / r
    w = _lambert_w_of_log(math.log(5.0 * c2) + math.log(log_n) - math.log(r)) if x == math.inf else lambert_w(x)
    return math.exp(w / 5.0)


class KWindow(NamedTuple):
    k_star: float
    k_lo: float
    k_hi: float


def optimal_k_window(*, log_n: float, r: int = 1, c2: float = 1.0) -> KWindow:
    """k_star = exp(W(5 c2 log n / r)/5) with the calibrated sandwich
    k_lo <= k_star <= k_hi, both proportional to (log n / r)^(1/5)."""
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if c2 <= 0:
        raise ValueError(f"c2 must be positive, got {c2}")
    big_l = _checked_log_n(log_n)
    base = (big_l / r) ** 0.2
    window = KWindow(k_star(big_l, r, c2), K_WINDOW_LO * base, K_WINDOW_HI * base)
    if not window.k_lo <= window.k_star <= window.k_hi:
        raise ValueError(
            f"window constants do not bracket k_star={window.k_star:.4f} at "
            f"log n={big_l:.4g}, r={r}; outside the calibrated domain"
        )
    return window


def k_feasible(k: int, epsilon: float, *, log_n: float) -> bool:
    """Whether k < epsilon * log n / log 2 - 1."""
    big_l = _checked_log_n(log_n)
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


def max_rank_coefficient(epsilon: float, *, k_range=range(2, 65)):
    """Largest c such that rank r = c log n still satisfies the epsilon
    inequality for some k in the scan range; returns (c, k) or (0.0, None).
    c does not depend on n: at r = c log n the bound is 5 c k^4 log k + 3/(2k)."""
    best_c, best_k = 0.0, None
    for k in k_range:
        margin = epsilon - 3.0 / (2.0 * k)
        if margin <= 0:
            continue
        c = margin / (5.0 * k**4 * math.log(k))
        if c > best_c:
            best_c, best_k = c, k
    return best_c, best_k


def absorption_sides(k: int, r: int, *, log_n: float) -> dict:
    """Evaluate ((k+1/2)eps - 3/2) log n <= k log 4 + 4k^4(k+kr+1) log(8k)
    <= 5 r k^5 log k and report both comparisons (informational; the right
    absorption is expected to fail for small k)."""
    big_l = _checked_log_n(log_n)
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


def bound_row(k: int, r: int, *, n=None, log_n=None) -> dict:
    """The `udl bounds` row for path length k and rank r at exactly one of n
    and log n: log n, the log2 solution bound, the epsilon bound, k_star at
    rank max(r, 1) and whether k is feasible at that epsilon."""
    big_l = _resolve_log_n(n, log_n)
    eps = epsilon_rhs(k, r, log_n=big_l)
    return {
        "k": k,
        "r": r,
        "log_n": big_l,
        "log2_solution_bound": log2_solution_bound(k, r),
        "epsilon_rhs": eps,
        "k_star": k_star(big_l, max(r, 1)),
        "feasible_k": k_feasible(k, eps, log_n=big_l),
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


def enumerate_nondegenerate(coeffs, group: GroupSpec, height: int):
    """All tuples (z_1 .. z_k) of group elements with sum a_j z_j = 1 and no
    vanishing nonempty subsum of the left side.

    Exhaustive over the torsion times the exponent box |e| <= height.  Each
    slot's terms a_j z are formed once in the cyclotomic field and scaled to
    integer vectors over D, the lcm of all their coefficients' denominators.
    No residual D * (1 - sum a_j z_j) has a coefficient past bound = D + the
    sum over slots of the largest |coefficient| of its terms, so each vector
    is packed into one int as its digits in base 2 * bound + 1; packing is
    linear and injective there, so a prefix carries its residual as one int
    by one subtraction per slot, and the last slot is found by looking that
    residual up among the packed terms a_k z.  The last two slots are closed
    in one loop.  Scaling by D > 0 maps zero to zero and nothing else to
    zero, so the zero tests stay exact.  Every hit is re-verified posthoc
    against all 2^k - 1 subsums of its scaled int vectors (`is_irredundant`),
    independent of how the enumeration found it; the solutions returned are
    the field's own elements.
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
    if projected > ENUM_BUDGET:
        raise ValueError(
            f"enumeration needs {projected} partial tuples over {v} slot values, "
            f"beyond the budget of {ENUM_BUDGET}"
        )

    terms = [[(a * z).coeffs for z in values] for a in (field.embed_pair(*p) for p in pairs)]
    scale = math.lcm(*(c.denominator for row in terms for term in row for c in term))
    scaled = [[tuple(c.numerator * (scale // c.denominator) for c in term) for term in row] for row in terms]
    bound = scale + sum(max(abs(c) for term in row for c in term) for row in scaled)
    base = 2 * bound + 1
    packed = [[_pack(term, base) for term in row] for row in scaled]
    last = {term: j for j, term in enumerate(packed[-1])}
    hits = []

    def extend(residual, idx):
        if len(idx) < k - 2:
            for j, term in enumerate(packed[len(idx)]):
                extend(residual - term, (*idx, j))
            return
        # the last two slots at once: each term of the next-to-last slot
        # leaves one residual, looked up among the last slot's terms
        for j, h in enumerate(map(last.get, map(residual.__sub__, packed[-2]))):
            if h is not None:
                hits.append((*idx, j, h))

    if k == 1:
        hits = [(last[scale],)] if scale in last else []
    else:
        extend(scale, ())
    # prefixes are walked in index order and values are sorted by coeffs, so
    # the hits come out in the order of their solutions' coeffs
    return [
        tuple(values[j] for j in hit)
        for hit in hits
        if is_irredundant([scaled[slot][j] for slot, j in enumerate(hit)])
    ]


def _pack(vector, base: int) -> int:
    """sum_i vector[i] * base^i, one int per vector of digits |c| < base / 2."""
    out = 0
    for c in reversed(vector):
        out = out * base + c
    return out


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
