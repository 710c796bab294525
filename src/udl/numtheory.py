"""Prime counting and Chebyshev sums over arithmetic progressions."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, count, islice

# The shared sieve and the segmented class reads refuse a limit past this
# bound: at 10^9, theta of one class would take over 10 s and a list of its
# primes about 1 GB.
SIEVE_HARD_LIMIT = 10**8

# Miller-Rabin on the first 13 primes is exact below psi_13, the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017; OEIS
# A014233); at and above it a pass is only probable.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_LIMIT = 3_317_044_064_679_887_385_961_981

# is_probable_prime reads the shared sieve's flags below this bound; that
# sieve then holds at most 2**20 bytes of odd flags.
_SIEVED_PRIMALITY_LIMIT = 1 << 21

# theta and psi fold their logs this many at a time into an exact integer
# (see `_exact_log_sum`)
_FOLD_CHUNK = 4096

# a class is read off fresh segments of this many odd flags, 256 KiB each
# (see `_class_runs`)
_SEGMENT = 1 << 18

# factor trial-divides by the primes up to this bound before Pollard-Brent rho
_TRIAL_BOUND = 1 << 10

# factor takes at most this many Pollard-Brent iterations in all (about 10 s
# at 40 digits on a 2-vCPU Xeon VM): rho needs about sqrt(p) of them to split
# off a prime p, so this splits prime factors up to about 10^13 and refuses a
# composite it cannot split, where it would otherwise run for hours
_RHO_ITERATIONS = 1 << 24


@dataclass(frozen=True)
class APClass:
    """Residue class a mod d; requires 0 < a < d and gcd(a, d) = 1."""

    d: int
    a: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"modulus must be >= 2, got d={self.d}")
        if not 0 < self.a < self.d:
            raise ValueError(f"residue must satisfy 0 < a < d, got a={self.a}, d={self.d}")
        if math.gcd(self.a, self.d) != 1:
            raise ValueError(f"residue must be coprime to modulus, got a={self.a}, d={self.d}")


AP_1_MOD_4 = APClass(4, 1)


def _odd_sieve_flags(limit: int) -> bytearray:
    """Primality flags of the odd numbers <= limit; index i stands for 2i + 1."""
    size = (limit + 1) // 2
    flags = bytearray([1]) * size
    flags[:1] = bytes(min(size, 1))  # 1 is not prime
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            start = p * p >> 1
            flags[start::p] = bytes(len(range(start, size, p)))
    return flags


# the shared sieve's odd flags, covering the numbers up to 2 * len(_flags)
_flags = bytearray()


def _sieve(limit: int) -> bytearray:
    """The shared sieve's odd flags, covering at least the numbers <= limit;
    index i stands for 2i + 1.

    The sieve grows geometrically, so repeat callers reuse one, and the old
    flags are let go before the larger sieve runs, so a growth step holds
    one sieve, not two.  A limit past `SIEVE_HARD_LIMIT` is refused.
    """
    global _flags
    if 2 * len(_flags) < limit:
        if limit > SIEVE_HARD_LIMIT:
            raise ValueError(f"sieve limit {limit} exceeds hard cap {SIEVE_HARD_LIMIT}")
        target = max(limit, 1 << 16, min(4 * len(_flags), SIEVE_HARD_LIMIT))
        _flags = bytearray()
        _flags = _odd_sieve_flags(target)
    return _flags


def primes_up_to(x: int) -> list[int]:
    """The primes p <= x, ascending, off the shared sieve's flags."""
    if x < 2:
        return []
    return [2, *compress(range(1, x + 1, 2), _sieve(x)[: (x + 1) >> 1])]


def is_probable_prime(n: int) -> bool:
    """Primality of n, exact below 3.3e24 (`_MR_EXACT_LIMIT`).

    Below 2**21 it reads the shared sieve's flags; above, it runs
    `_miller_rabin`.
    """
    if n < 2:
        return False
    if n < _SIEVED_PRIMALITY_LIMIT:
        return n == 2 or bool(n & 1 and _sieve(n)[n >> 1])
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Miller-Rabin to all thirteen witnesses, deterministic below 3.3e24
    (`_MR_EXACT_LIMIT`)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_divide(m: int, out: Counter) -> int:
    """Move the primes p <= _TRIAL_BOUND that divide m into out and return
    the cofactor; stops early once the cofactor is provably prime."""
    p = 2
    settled = m < _MR_EXACT_LIMIT and is_probable_prime(m)
    while not settled and p <= _TRIAL_BOUND and p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
                out[p] += 1
            settled = m < _MR_EXACT_LIMIT and is_probable_prime(m)
        p += 1 if p == 2 else 2
    return m


def _rho_split(n: int, left: int) -> tuple[int, int]:
    """(d, left): a nontrivial factor d of the composite n by Pollard's rho
    with Brent's cycle search and batched gcds (Brent 1980), and how many of
    the `left` iterations it may take are left; d is 1 when they run out
    first.  Deterministic: it iterates x -> x^2 + c from x = 2 for
    c = 1, 2, ... until one c splits n."""
    batch = 128
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if 2 * r > left:  # a round takes at most 2r iterations, and its replay at most one batch
                return 1, left
            left -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(batch, r - done)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                done += batch
            r *= 2
        if g == n:  # the batch overshot: replay it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, left


@lru_cache(maxsize=1)
def factor(m: int) -> dict[int, int]:
    """Prime factorisation {p: e} of m >= 1, in ascending p.

    The latest result is kept, so pricing r_2(m) and then listing the
    vectors of m factor it once; callers read the dict and never change it.

    Trial division takes out the primes up to `_TRIAL_BOUND`.  A cofactor
    that Miller-Rabin proves composite is split by Pollard-Brent rho and its
    parts are factored in turn; one that passes is prime when it is below
    `_MR_EXACT_LIMIT`, where the witness set is exact.  A part at or above
    that limit that passes cannot be certified and raises ValueError, so the
    result is always exact.  So does a composite part that rho has not split
    when the call's `_RHO_ITERATIONS` run out.
    """
    if m < 1:
        raise ValueError(f"factor needs m >= 1, got {m}")
    out: Counter = Counter()
    pending = [_trial_divide(m, out)]
    left = _RHO_ITERATIONS
    while pending:
        c = pending.pop()
        if c == 1:
            continue
        if not is_probable_prime(c):
            d, left = _rho_split(c, left)
            if d == 1:
                raise ValueError(
                    f"cannot split the composite factor {c} of {m} within {_RHO_ITERATIONS} Pollard-Brent iterations"
                )
            pending += [d, c // d]
            continue
        if c >= _MR_EXACT_LIMIT:
            raise ValueError(
                f"cannot certify the factor {c} of {m}: it passes Miller-Rabin at or above {_MR_EXACT_LIMIT}"
            )
        out[c] += 1
    return dict(sorted(out.items()))


def euler_phi(d: int) -> int:
    """Euler totient from the factorisation of d."""
    if d < 1:
        raise ValueError(f"totient needs d >= 1, got {d}")
    return math.prod((p - 1) * p ** (e - 1) for p, e in factor(d).items())


def two_squares_count(m: int) -> int:
    """r_2(m), the number of integer pairs (x, y) with x^2 + y^2 = m >= 1.

    By Jacobi's two-square theorem r_2(m) = 4 (d_1(m) - d_3(m)), with d_j(m)
    the number of divisors of m that are j mod 4; from the factorisation that
    is 4 * prod (e + 1) over p^e with p = 1 (mod 4), or 0 when some
    q = 3 (mod 4) divides m to an odd power.
    """
    count = 4
    for p, e in factor(m).items():
        if p % 4 == 1:
            count *= e + 1
        elif p % 4 == 3 and e % 2:
            return 0
    return count


def _class_runs(x: int, cls: APClass, start: int = 0):
    """(small, runs) for the class a mod d up to x: `small` lists 2 and 3
    where they are members, and `runs` yields (members, flags), an ascending
    range of odd members inside one segment and their flags.

    a' is the odd one of a and a + d and step = lcm(2, d), so the odd members
    are a' + j * step.  When 3 divides d no member is a multiple of 3, and
    a' heads the one run.  Else every third member is, so a wheel reads the
    two heads of stride 3 * step that skip them, a third fewer numbers, and
    3, the one prime it skips, goes to `small`.  No other number is looked
    at, so the segments are sieved by the primes from 5 up to sqrt(x) alone
    (see `_segment_runs`).  The runs cover the odd flags from `start` on
    (flag i stands for 2i + 1), so a reader that grows x can skip what it
    has read.  An x past `SIEVE_HARD_LIMIT` is refused here, before any
    segment is sieved.
    """
    if x > SIEVE_HARD_LIMIT:
        raise ValueError(f"sieve limit {x} exceeds hard cap {SIEVE_HARD_LIMIT}")
    d, a = cls.d, cls.a
    step = d if d % 2 == 0 else 2 * d
    odd = a if a % 2 else a + d
    if d % 3 == 0:
        heads, stride = [odd], step
    else:
        heads, stride = [s for s in (odd, odd + step, odd + 2 * step) if s % 3], 3 * step
    small = [p for p in (2, 3) if p <= x and p % d == a]
    return small, _segment_runs(x, heads, stride, start)


def _segment_runs(x: int, heads: list[int], stride: int, start: int = 0):
    """For each segment of `_SEGMENT` odd flags from flag `start` up to x in
    turn, and each head s < stride, the members s + j * stride inside it and
    their flags.

    Flag i stands for 2i + 1.  Each segment is a fresh bytearray in which
    the primes 5 <= p <= sqrt(x), listed off the shared sieve, clear their
    odd multiples from p^2 on, at indices p >> 1 (mod p); multiples of 3
    keep their flags, as no head reads them.  A segment is let go once its
    runs are read, so a class up to x holds O(sqrt(x) + _SEGMENT) bytes.
    """
    size = (x + 1) >> 1
    primes = primes_up_to(math.isqrt(x))[2:]
    half = stride >> 1
    for lo in range(start, size, _SEGMENT):
        hi = min(lo + _SEGMENT, size)
        seg = bytearray([1]) * (hi - lo)
        if lo == 0:
            seg[0] = 0  # 1 is not prime
        for p in primes:
            i = p * p >> 1
            if i >= hi:
                break
            if i < lo:
                i = lo + ((p >> 1) - lo) % p
            seg[i - lo :: p] = bytes(len(range(i, hi, p)))
        for s in heads:
            i = lo + ((s >> 1) - lo) % half
            yield range(2 * i + 1, 2 * hi, stride), seg[i - lo :: half]


def _class_primes(x: int, cls: APClass):
    """The primes p <= x with p = a (mod d) as one lazy iterator: `small`,
    then each run of `_class_runs` as its segment is sieved.  Within a
    segment the wheel's runs interleave, so the order is ascending only
    segment by segment."""
    small, runs = _class_runs(x, cls)
    return chain(small, chain.from_iterable(compress(*run) for run in runs))


def primes_in_ap(limit: int, cls: APClass) -> list[int]:
    """All primes p <= limit with p = a (mod d), ascending, read off the
    class's segments one run at a time (see `_class_runs`); `sorted` merges
    the ascending runs."""
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    return sorted(_class_primes(limit, cls))


def _exact_log_sum(logs) -> int:
    """The exact sum of the floats logs, each >= 1/2, in units of 2**-53.

    A float >= 1/2 is a multiple of 2**-53, and so is any sum of such floats.
    Each chunk's exact sum T is folded into s = fsum(chunk), T correctly
    rounded, and r = fsum(chunk + [-s]), T - s correctly rounded.  s is
    itself >= 1/2, so T - s is a multiple of 2**-53; it is at most half an
    ulp of s, and s < 2**17 (4 096 logs of numbers <= 10**8), so
    |T - s| <= 2**-37 = 2**16 * 2**-53.  That fits in 53 bits, so r is
    T - s exactly.  ldexp(s, 53) and ldexp(r, 53) are
    then integer floats, and T * 2**53 = int(ldexp(s, 53)) + int(ldexp(r, 53)).
    """
    total = 0
    logs = iter(logs)
    while chunk := list(islice(logs, _FOLD_CHUNK)):
        s = math.fsum(chunk)
        chunk.append(-s)
        total += int(math.ldexp(s, 53)) + int(math.ldexp(math.fsum(chunk), 53))
    return total


@lru_cache(maxsize=1)
def _class_log_sum(x: int, cls: APClass) -> int:
    """Sum of log p over the primes p <= x with p = a (mod d), in units of
    2**-53 (`_exact_log_sum`); the latest one is kept for psi at the same x."""
    return _exact_log_sum(map(math.log, _class_primes(x, cls)))


def _higher_power_logs(x: int, cls: APClass):
    """log p once for each power p^l <= x with l >= 2 and p^l = a (mod d);
    only a prime p <= sqrt(x) has one."""
    d, a = cls.d, cls.a
    for p in primes_up_to(math.isqrt(x)):
        logp = math.log(p)
        power = p * p
        while power <= x:
            if power % d == a:
                yield logp
            power *= p


def chebyshev(kind: str, x: float, cls: APClass) -> float:
    """Prime-counting sums restricted to the class a mod d.

    kind "pi" counts primes p <= x with p = a (mod d); "theta" sums log p over
    the same primes; "psi" sums log p over prime powers p^l <= x whose value
    satisfies p^l = a (mod d).  Note the psi congruence condition is on the
    power itself, not on p: 9 = 3^2 contributes log 3 to psi for the class
    1 mod 4 even though 3 = 3 (mod 4).

    Each reads the class's segments once, in turn (`_class_runs`), so it
    holds O(sqrt(x) + 256 KiB) of flags, not x / 2 bytes.  pi counts the set
    flag bytes of each run.  theta and psi are exact integer sums of their
    float terms in units of 2**-53, divided once: int true division rounds
    to nearest-even, as fsum does, so each is the fsum of its terms to the
    bit, whatever the segments' order, and psi reuses the class sum theta
    read at the same x.
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"x must be finite and nonnegative, got {x}")
    if x >= SIEVE_HARD_LIMIT + 1:
        raise ValueError(f"x = {x} exceeds the sieve's hard cap {SIEVE_HARD_LIMIT}")
    xf = math.floor(x)
    if kind == "pi":
        small, runs = _class_runs(xf, cls)
        return len(small) + sum(flags.count(1) for _, flags in runs)
    if kind == "theta":
        return _class_log_sum(xf, cls) / (1 << 53)
    if kind == "psi":
        return (_class_log_sum(xf, cls) + _exact_log_sum(_higher_power_logs(xf, cls))) / (1 << 53)
    raise ValueError(f"kind must be one of pi, theta, psi; got {kind!r}")


def kth_prime_in_ap(k: int, cls: APClass) -> int:
    """k-th smallest prime in the class a mod d (1-indexed).

    The limit starts at 4 096 and grows fourfold up to the hard sieve cap;
    each step reads only the class's segments past the last limit
    (`_class_runs` from that flag on), so every segment is read once, in
    order.  The reading stops at the segment that holds the k-th prime: each
    segment's runs are counted, and only that one's primes are listed and
    sorted.  A class that stays too thin up to the cap raises RuntimeError.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    heads = 1 if cls.d % 3 == 0 else 2  # the runs `_class_runs` yields per segment: one per wheel head
    limit, start, left = 1 << 12, 0, k
    while True:
        small, runs = _class_runs(limit, cls, start)
        if not start:
            if left <= len(small):
                return small[left - 1]
            left -= len(small)
        for segment in zip(*[runs] * heads):  # one run per head, so the next segment is not sieved to end this one
            here = sum(flags.count(1) for _, flags in segment)
            if left <= here:
                return sorted(chain.from_iterable(compress(*run) for run in segment))[left - 1]
            left -= here
        if limit >= SIEVE_HARD_LIMIT:
            raise RuntimeError(f"sieve exhausted at {SIEVE_HARD_LIMIT} before prime #{k} of {cls.a} mod {cls.d}")
        start, limit = (limit + 1) >> 1, min(limit * 4, SIEVE_HARD_LIMIT)
