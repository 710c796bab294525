import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import udl.numtheory
from udl.numtheory import (
    _FOLD_CHUNK,
    _MR_EXACT_LIMIT,
    _MR_WITNESSES,
    _SEGMENT,
    _SIEVED_PRIMALITY_LIMIT,
    AP_1_MOD_4,
    APClass,
    _class_runs,
    _miller_rabin,
    _odd_sieve_flags,
    chebyshev,
    euler_phi,
    factor,
    is_probable_prime,
    kth_prime_in_ap,
    primes_in_ap,
    primes_up_to,
    two_squares_count,
)

from oracles import (
    chebyshev_sum,
    is_prime_slow,
    strong_probable_prime,
    trial_division_primes,
    two_squares_set,
)


def test_apclass_validation():
    APClass(4, 1)
    APClass(12, 7)
    with pytest.raises(ValueError):
        APClass(4, 2)  # gcd 2
    with pytest.raises(ValueError):
        APClass(4, 0)
    with pytest.raises(ValueError):
        APClass(4, 5)  # residue not reduced
    with pytest.raises(ValueError):
        APClass(1, 1)


def test_primes_up_to_against_trial_division():
    assert primes_up_to(10_000) == trial_division_primes(10_000)
    assert is_probable_prime(9973)
    assert not is_probable_prime(9999)
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(ValueError, match="sieve limit 100000001 exceeds hard cap 100000000"):
        primes_up_to(10**8 + 1)


def test_euler_phi_examples_and_bruteforce():
    assert euler_phi(1) == 1
    assert euler_phi(4) == 2
    assert euler_phi(12) == 4
    for d in range(1, 201):
        assert euler_phi(d) == sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)
    with pytest.raises(ValueError):
        euler_phi(0)


def test_primes_in_ap_examples():
    assert primes_in_ap(30, APClass(4, 1)) == [5, 13, 17, 29]
    assert primes_in_ap(10, APClass(4, 3)) == [3, 7]
    assert primes_in_ap(2, APClass(4, 1)) == []
    with pytest.raises(ValueError, match="limit must be nonnegative, got -1"):
        primes_in_ap(-1, AP_1_MOD_4)


def test_primes_in_ap_matches_trial_division():
    base = trial_division_primes(2000)
    for d, a in [(4, 1), (4, 3), (3, 2), (12, 7), (2, 1)]:
        expect = [p for p in base if p % d == a]
        assert primes_in_ap(2000, APClass(d, a)) == expect


def test_primes_in_ap_reads_each_class_off_a_larger_table():
    # a class read at a larger x first leaves nothing behind for the small x
    # below: each reads its own segments, sieved by the primes up to its own
    # sqrt(x); odd moduli with 2 in the class take the odd residue a + d
    primes_in_ap(10**5, APClass(4, 1))
    classes = [(4, 1), (4, 3), (3, 1), (3, 2), (5, 2), (5, 3), (12, 7), (8, 3), (2, 1), (7, 2), (9, 4)]
    for x in (0, 1, 2, 3, 997, 1000):
        base = trial_division_primes(x)
        for d, a in classes:
            assert primes_in_ap(x, APClass(d, a)) == [p for p in base if p % d == a], (x, d, a)
    assert primes_in_ap(2, APClass(3, 2)) == primes_in_ap(2, APClass(5, 2)) == [2]
    assert primes_in_ap(1, APClass(3, 2)) == []


def test_primes_up_to_lists_each_prefix_off_the_flags(monkeypatch):
    # a sieve of the odd numbers up to 1000 serves every x <= 1000 as it is;
    # x = 1001 grows it
    monkeypatch.setattr(udl.numtheory, "_flags", _odd_sieve_flags(1000))
    for x in (*range(12), 997, 998, 1000):
        assert primes_up_to(x) == trial_division_primes(x), x
        assert len(udl.numtheory._flags) == 500, x
    assert primes_up_to(1001) == trial_division_primes(1001)
    assert len(udl.numtheory._flags) == 1 << 15


def test_chebyshev_pi_example():
    assert chebyshev("pi", 100, APClass(4, 1)) == 11


def test_chebyshev_theta_example():
    # Oracle value; the sum is log5 + log13 + log17 + log29.
    got = chebyshev("theta", 30, APClass(4, 1))
    assert got == pytest.approx(10.374896443938328, abs=1e-9)
    assert got == pytest.approx(sum(math.log(p) for p in (5, 13, 17, 29)), abs=1e-12)


def test_chebyshev_psi_congruence_is_on_the_power():
    # 9 = 3^2 = 1 (mod 4) counts toward psi for 1 mod 4 even though 3 = 3 (mod 4).
    got = chebyshev("psi", 10, APClass(4, 1))
    assert got == pytest.approx(math.log(5) + math.log(3), abs=1e-12)


def test_chebyshev_rejects_bad_kind_and_negative_x():
    with pytest.raises(ValueError):
        chebyshev("lambda", 10, APClass(4, 1))
    with pytest.raises(ValueError):
        chebyshev("pi", -1, APClass(4, 1))


def test_chebyshev_rejects_non_finite_x():
    for kind in ("pi", "theta", "psi"):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                chebyshev(kind, x, APClass(4, 1))


def test_chebyshev_monotone_in_x():
    cls = APClass(4, 3)
    for kind in ("pi", "theta", "psi"):
        values = [chebyshev(kind, x, cls) for x in range(2, 400, 7)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_psi_dominates_theta():
    for d, a in [(4, 1), (4, 3), (3, 2), (12, 7)]:
        cls = APClass(d, a)
        for x in (10, 100, 10_000):
            assert chebyshev("psi", x, cls) >= chebyshev("theta", x, cls)


def test_pi_partitions_over_residues():
    # Summing pi_{d,a} over the coprime residues recovers pi(x) minus the
    # primes dividing d.
    rng = random.Random(7)
    xs = [1000, 10_000, 100_000]
    table_primes = {x: primes_in_ap(x, APClass(2, 1)) for x in xs}  # odd primes
    for d in range(2, 13):
        residues = [a for a in range(1, d) if math.gcd(a, d) == 1]
        for x in xs:
            total = sum(chebyshev("pi", x, APClass(d, a)) for a in residues)
            all_primes = len(table_primes[x]) + 1  # put 2 back
            dividing = sum(1 for p in (2, 3, 5, 7, 11) if d % p == 0 and p <= x)
            assert total == all_primes - dividing, (d, x)
    # spot-check a random residue class against trial division
    base = trial_division_primes(3000)
    for _ in range(20):
        d = rng.randrange(2, 13)
        opts = [a for a in range(1, d) if math.gcd(a, d) == 1]
        a = rng.choice(opts)
        assert chebyshev("pi", 3000, APClass(d, a)) == sum(1 for p in base if p % d == a)


def test_kth_prime_in_ap_examples():
    assert kth_prime_in_ap(1, APClass(4, 1)) == 5
    assert kth_prime_in_ap(4, APClass(4, 1)) == 29
    assert kth_prime_in_ap(1, APClass(2, 1)) == 3
    with pytest.raises(ValueError):
        kth_prime_in_ap(0, APClass(4, 1))


def test_kth_prime_in_ap_refuses_past_the_sieve_cap(monkeypatch):
    # 1 mod 4 holds 334 primes below 5 000, so the 10 000th is past a cap of 5 000
    monkeypatch.setattr(udl.numtheory, "SIEVE_HARD_LIMIT", 5000)
    with pytest.raises(RuntimeError, match="sieve exhausted at 5000 before prime #10000 of 1 mod 4"):
        kth_prime_in_ap(10000, AP_1_MOD_4)


def test_kth_prime_in_ap_deep_index_extends_sieve():
    # forces at least one fourfold extension of the limit past the initial
    # 4 096, each step reading only the class's segments past the last limit
    p = kth_prime_in_ap(5000, APClass(4, 1))
    assert is_probable_prime(p) and p % 4 == 1
    assert len(primes_in_ap(p, APClass(4, 1))) == 5000


def test_is_probable_prime_against_trial_division():
    small = set(trial_division_primes(5000))
    for n in range(5001):
        assert is_probable_prime(n) == (n in small)
    # a few Carmichael numbers and large primes
    assert not is_probable_prime(561)
    assert not is_probable_prime(1_373_653)
    assert is_probable_prime(2_147_483_647)
    assert is_probable_prime(1_000_033)


def test_miller_rabin_rejects_the_strong_pseudoprime_to_the_first_twelve_primes():
    # the least composite that passes the bases 2..37 (Sorenson and Webster)
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_probable_prime(n)


def _factor_by_oracle_primes(m, primes):
    out = {}
    for p in primes:
        while m % p == 0:
            m //= p
            out[p] = out.get(p, 0) + 1
    assert m == 1
    return out


def test_factor_matches_trial_division_up_to_5000():
    primes = trial_division_primes(5000)
    assert factor(1) == {}
    for m in range(1, 5001):
        got = factor(m)
        assert got == _factor_by_oracle_primes(m, primes)
        assert list(got) == sorted(got)


def test_factor_drawn_products_with_a_large_prime_cofactor():
    big = [1_000_000_000_039, 1_000_000_000_063]
    assert all(map(is_prime_slow, big))
    small = trial_division_primes(100)[1:]
    rng = random.Random(11)
    for _ in range(200):
        expect = {}
        a = rng.randint(0, 40)
        if a:
            expect[2] = a
        for p in rng.sample(small, rng.randint(0, 3)):
            expect[p] = rng.randint(2, 5)
        if rng.random() < 0.7:
            expect[rng.choice(big)] = 1
        m = math.prod(p**e for p, e in expect.items())
        assert factor(m) == dict(sorted(expect.items())), m


def test_factor_drawn_products_of_two_large_primes():
    # trial division to the smaller prime would take up to 5*10^11 steps; rho needs about its square root
    rng = random.Random(13)
    for _ in range(4):
        primes = []
        for _ in range(2):
            p = round(10 ** rng.uniform(9, 12))
            while not is_prime_slow(p):
                p += 1
            primes.append(p)
        p, q = sorted(primes)
        expect = [(p, 2)] if p == q else [(p, 1), (q, 1)]
        assert list(factor(p * q).items()) == expect, (p, q)
    p, q = 10**9 + 7, 10**9 + 9
    assert is_prime_slow(p) and is_prime_slow(q)
    assert list(factor(7 * q**2 * p**3).items()) == [(7, 1), (p, 3), (q, 2)]
    # 1031 * 1201 has no factor up to the trial bound 2^10, and rho's gcd
    # over a whole batch is the product itself: the replay, one gcd at a time, finds 1031
    assert factor(1031 * 1201) == {1031: 1, 1201: 1}


def test_factor_refuses_a_prime_it_cannot_certify():
    # the Mersenne prime 2^89 - 1 passes Miller-Rabin above the exact witness bound
    assert 2**89 - 1 > _MR_EXACT_LIMIT
    with pytest.raises(ValueError, match="cannot certify the factor 618970019642690137449562111 of "):
        factor(2**89 - 1)


def test_factor_refuses_a_composite_rho_cannot_split_within_its_iterations(monkeypatch):
    # rho needs about sqrt(p) iterations to split off a prime p: 2^16 split (10^9 + 7)(10^9 + 9), 2^12 do not
    m = 7 * (10**9 + 7) * (10**9 + 9)
    monkeypatch.setattr(udl.numtheory, "_RHO_ITERATIONS", 1 << 12)
    with pytest.raises(ValueError, match=f"cannot split the composite factor {m // 7} of {m} within 4096 "):
        factor(m)
    monkeypatch.setattr(udl.numtheory, "_RHO_ITERATIONS", 1 << 16)
    assert factor(m) == {7: 1, 10**9 + 7: 1, 10**9 + 9: 1}


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(-12)


def test_the_sieve_at_every_small_limit(monkeypatch):
    # index i of the odd-only sieve stands for 2i + 1: limits 0..3 sit on its
    # edges; each limit's sieve is read as it is, never grown
    for limit in range(301):
        monkeypatch.setattr(udl.numtheory, "_flags", _odd_sieve_flags(limit))
        primes = primes_up_to(limit)
        assert primes == trial_division_primes(limit), limit
        assert [n for n in range(limit + 1) if is_probable_prime(n)] == primes, limit
        assert all(is_probable_prime(n) == is_prime_slow(n) for n in range(limit + 1)), limit
        assert len(udl.numtheory._flags) == (limit + 1) // 2, limit


# psi_j, the least strong pseudoprime to the first j primes (Jaeschke 1993;
# Sorenson and Webster, Math. Comp. 2017; OEIS A014233)
PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)


def test_witness_table_is_the_strong_pseudoprime_bounds():
    # psi_j passes the first j witnesses, so the j-witness test is not exact
    # there; is_probable_prime must still reject it.  psi_13 passes all
    # thirteen, which is why factor refuses it.
    assert len(PSI) == len(_MR_WITNESSES)
    assert PSI[-1] == _MR_EXACT_LIMIT
    assert list(PSI) == sorted(PSI)
    for j, n in enumerate(PSI, 1):
        assert strong_probable_prime(n, _MR_WITNESSES[:j]), (j, n)
        assert _miller_rabin(n) == (j == len(PSI)), (j, n)
        assert is_probable_prime(n) == (j == len(PSI)), (j, n)


def test_witnesses_by_size_agree_with_all_thirteen_below_1e5():
    for n in range(10**5):
        assert _miller_rabin(n) == strong_probable_prime(n, _MR_WITNESSES), n


def test_witnesses_by_size_agree_with_all_thirteen_in_each_band():
    # each band [psi_j, psi_j+1) is where the first j + 1 witnesses alone would be exact
    rng = random.Random(17)
    for lo, hi in zip(PSI, PSI[1:]):
        if lo == hi:
            continue
        for _ in range(2000):
            n = rng.randrange(lo, hi)
            assert _miller_rabin(n) == strong_probable_prime(n, _MR_WITNESSES), n


def test_sieved_primality_agrees_with_miller_rabin():
    # below 2^21 is_probable_prime reads the sieve's flags, above it runs Miller-Rabin
    assert _SIEVED_PRIMALITY_LIMIT == 1 << 21
    for n in range(-3, 10**5):
        assert is_probable_prime(n) == _miller_rabin(n), n
    rng = random.Random(19)
    edge = [(1 << 21) - 1, 1 << 21, (1 << 21) + 1, 1_373_653, 1_373_653 + 2, 2_097_143, 2_097_169]
    drawn = [rng.randrange(10**5, 1 << 22) for _ in range(20_000)]
    for n in edge + drawn:
        assert is_probable_prime(n) == _miller_rabin(n), n
    assert is_probable_prime(2_097_143) and is_probable_prime(2_097_169)
    assert not is_probable_prime(1_373_653)


def test_a_growing_sieve_lets_the_old_flags_go_first(monkeypatch):
    monkeypatch.setattr(udl.numtheory, "_flags", _odd_sieve_flags(1000))
    held = []
    original = udl.numtheory._odd_sieve_flags

    def spy(limit):
        held.append((limit, len(udl.numtheory._flags)))
        return original(limit)

    monkeypatch.setattr(udl.numtheory, "_odd_sieve_flags", spy)
    flags = udl.numtheory._sieve(5000)
    assert held == [(1 << 16, 0)]
    assert udl.numtheory._flags is flags and len(flags) == 1 << 15
    assert udl.numtheory._sieve(5000) is flags and udl.numtheory._sieve(1 << 16) is flags and len(held) == 1
    # each growth step at least doubles the limit, up to the cap, and past the cap it refuses
    udl.numtheory._sieve((1 << 16) + 1)
    assert held[1:] == [(1 << 17, 0)]
    monkeypatch.setattr(udl.numtheory, "SIEVE_HARD_LIMIT", 200_000)
    udl.numtheory._sieve((1 << 17) + 1)
    assert held[2:] == [(200_000, 0)]
    with pytest.raises(ValueError, match="sieve limit 200001 exceeds hard cap 200000"):
        udl.numtheory._sieve(200_001)
    assert len(held) == 3 and len(udl.numtheory._flags) == 100_000


@pytest.mark.parametrize("d, a", [(4, 1), (4, 3), (3, 1), (8, 5), (10, 7), (3, 2), (5, 2), (12, 7)])
def test_chebyshev_is_bit_identical_to_the_listed_sums(d, a):
    cls = APClass(d, a)
    for x in (0, 1, 2, 3, 4, 8, 9, 24, 25, 26, 997, 10**4, 99991, 10**6):
        for kind in ("pi", "theta", "psi"):
            assert chebyshev(kind, x, cls) == chebyshev_sum(kind, x, d, a), (kind, x)
        # pi counts the class's flag bytes without listing the primes; the list agrees
        pi = chebyshev("pi", x, cls)
        assert type(pi) is int and pi == len(primes_in_ap(x, cls)), x


def test_theta_and_psi_are_bit_identical_in_any_order_and_share_one_class_sum(monkeypatch):
    cls = APClass(4, 3)
    calls = []
    original = udl.numtheory._class_primes

    def counted(x, c):
        calls.append((x, c))
        return original(x, c)

    monkeypatch.setattr(udl.numtheory, "_class_primes", counted)
    for x in (10**4, 54_321):
        theta, psi = chebyshev_sum("theta", x, 4, 3), chebyshev_sum("psi", x, 4, 3)
        for kind in ("psi", "theta", "psi", "theta", "theta", "psi"):
            assert chebyshev(kind, x, cls) == (theta if kind == "theta" else psi), (kind, x)
        assert calls == [(x, cls)], calls
        calls.clear()


def test_theta_and_psi_are_bit_identical_in_either_order_across_a_growth_step(monkeypatch):
    # the latest class sum is kept apart from the shared sieve, which lists
    # the segments' sieving primes and psi's higher powers: a sum read while
    # that sieve is small serves the other kind after it grows, and a sum
    # read afresh after the growth is the same
    cls = APClass(4, 1)
    for x in (2999, 3000):
        expect = {"theta": chebyshev_sum("theta", x, 4, 1), "psi": chebyshev_sum("psi", x, 4, 1)}
        for first, second in (("theta", "psi"), ("psi", "theta")):
            monkeypatch.setattr(udl.numtheory, "_flags", _odd_sieve_flags(3000))
            udl.numtheory._class_log_sum.cache_clear()
            got = {first: chebyshev(first, x, cls)}
            primes_up_to(10**5)
            assert len(udl.numtheory._flags) >= 10**5 // 2
            got[second] = chebyshev(second, x, cls)
            assert got == expect and udl.numtheory._class_log_sum.cache_info().hits == 1, (x, first)
            udl.numtheory._class_log_sum.cache_clear()
            assert {kind: chebyshev(kind, x, cls) for kind in (second, first)} == expect, (x, first)


@pytest.mark.parametrize("d, a", [(4, 1), (3, 2), (8, 3)])
def test_theta_is_bit_identical_at_the_fold_chunk_edges(d, a):
    # x at the class's 4 095th, 4 096th and 4 097th prime: the fold's last
    # chunk is one short of full, exactly full, and one term
    cls = APClass(d, a)
    assert _FOLD_CHUNK == 4096
    primes = primes_in_ap(4 * 10**5, cls)
    for count in (_FOLD_CHUNK - 1, _FOLD_CHUNK, _FOLD_CHUNK + 1, 2 * _FOLD_CHUNK):
        x = primes[count - 1]
        assert len(primes_in_ap(x, cls)) == count
        for kind in ("theta", "psi"):
            assert chebyshev(kind, x, cls) == chebyshev_sum(kind, x, d, a), (kind, count)


_CLASSES = [(4, 1), (4, 3), (3, 1), (3, 2), (5, 2), (8, 5), (10, 7), (12, 7), (2, 1), (9, 4)]


@given(x=st.integers(0, 2 * 10**5), da=st.sampled_from(_CLASSES), psi_first=st.booleans())
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
def test_theta_and_psi_are_bit_identical_on_drawn_classes(x, da, psi_first):
    d, a = da
    kinds = ("psi", "theta") if psi_first else ("theta", "psi")
    for kind in kinds:
        assert chebyshev(kind, x, APClass(d, a)) == chebyshev_sum(kind, x, d, a), (kind, x, d, a)


def test_theta_at_1e7_is_the_fsum_of_the_listed_logs():
    for cls in (AP_1_MOD_4, APClass(3, 2)):
        assert chebyshev("theta", 10**7, cls) == math.fsum(map(math.log, primes_in_ap(10**7, cls))), cls


@pytest.mark.parametrize("d, a", [(3, 1), (3, 2), (6, 5), (9, 4), (12, 7), (2, 1), (4, 1), (4, 3), (5, 3), (7, 2), (8, 3), (10, 3)])
def test_the_wheel_matches_a_plain_sieve(d, a):
    # 3 | d: one run with no multiple of 3; else two runs skip them, and 3 itself is listed apart
    cls = APClass(d, a)
    for x in (*range(40), 997, 10**4 + 1):
        expect = [p for p in trial_division_primes(x) if p % d == a]
        assert primes_in_ap(x, cls) == expect, x
        for kind in ("pi", "theta", "psi"):
            assert chebyshev(kind, x, cls) == chebyshev_sum(kind, x, d, a), (kind, x)
        small, runs = _class_runs(x, cls)
        members = range(a if a % 2 else a + d, x + 1, d if d % 2 == 0 else 2 * d)
        drawn = [m for r, _ in runs for m in r]
        assert sorted(drawn) == [m for m in members if m % 3 or d % 3 == 0], x
        assert small == [p for p in expect if p <= 3], x


def test_a_class_past_the_cap_is_refused_before_any_segment_is_sieved(monkeypatch):
    # the segment reader checks the cap itself: no larger shared sieve is
    # asked for that would refuse it, and `_class_runs` refuses at once, not
    # when its first run is drawn
    monkeypatch.setattr(udl.numtheory, "SIEVE_HARD_LIMIT", 5000)
    with pytest.raises(ValueError, match="sieve limit 5001 exceeds hard cap 5000"):
        _class_runs(5001, AP_1_MOD_4)
    with pytest.raises(ValueError, match="sieve limit 5001 exceeds hard cap 5000"):
        primes_in_ap(5001, APClass(3, 2))
    assert primes_in_ap(5000, AP_1_MOD_4) == [p for p in trial_division_primes(5000) if p % 4 == 1]
    monkeypatch.undo()
    with pytest.raises(ValueError, match="sieve limit 100000001 exceeds hard cap 100000000"):
        primes_in_ap(10**8 + 1, AP_1_MOD_4)


@pytest.mark.parametrize("segment", [1, 7, 64])
@pytest.mark.parametrize("d, a", [(3, 1), (3, 2), (6, 5), (9, 4), (12, 7), (2, 1), (4, 1), (4, 3), (5, 3), (7, 2), (8, 3), (10, 3)])
def test_the_class_sums_are_bit_identical_at_every_segment_edge(monkeypatch, segment, d, a):
    # flag i stands for 2i + 1, so segment j ends at 2 * j * segment - 1 and
    # the next begins at 2 * j * segment + 1: x sits at each edge and one
    # either side, with primes up to sqrt(x) whose multiples cross many edges
    monkeypatch.setattr(udl.numtheory, "_SEGMENT", segment)
    udl.numtheory._class_log_sum.cache_clear()
    cls = APClass(d, a)
    edges = [2 * segment * j for j in range(1, 4 + 240 // (2 * segment))]
    members = range(a if a % 2 else a + d, 2 * edges[-1] + 2, d if d % 2 == 0 else 2 * d)
    for x in sorted({y for edge in edges for y in (edge - 1, edge, edge + 1)}):
        expect = [p for p in trial_division_primes(x) if p % d == a]
        assert primes_in_ap(x, cls) == expect, x
        for kind in ("pi", "theta", "psi"):
            assert chebyshev(kind, x, cls) == chebyshev_sum(kind, x, d, a), (kind, x)
        _, runs = _class_runs(x, cls)
        runs = list(runs)
        assert all(len(r) == len(flags) and len(r) <= -(-segment // (r.step >> 1)) for r, flags in runs), x
        drawn = sorted(m for r, _ in runs for m in r)
        assert drawn == [m for m in members if m <= x and (m % 3 or d % 3 == 0)], x


@pytest.mark.parametrize("segment", [64, 1000])
@pytest.mark.parametrize("d, a", [(4, 3), (3, 2), (10, 7)])
def test_kth_prime_in_ap_reads_each_segment_once_and_stops_at_the_kth(monkeypatch, segment, d, a):
    # small segments put many edges below the fourfold limits 4 096 and 16 384: every k whose prime is
    # the first or last of its segment, or of a limit's read, and one either side, against the whole list
    monkeypatch.setattr(udl.numtheory, "_SEGMENT", segment)
    cls = APClass(d, a)
    primes = primes_in_ap(20_000, cls)

    def segment_of(p):  # (first flag of its limit's read, segment in that read); flag i stands for 2i + 1
        flag, start = p >> 1, 0
        for end in (2048, 8192):
            if flag >= end:
                start = end
        return start, (flag - start) // segment

    where = [segment_of(p) for p in primes]
    edges = {i for i in range(1, len(primes)) if where[i] != where[i - 1]}
    ks = sorted({k for i in edges for k in (i - 1, i, i + 1, i + 2) if 1 <= k <= len(primes)} | {1, 2, len(primes)})
    assert len(edges) > 5000 // segment
    segments_read = []
    runs = udl.numtheory._segment_runs

    def counted(*args):
        for members, flags in runs(*args):
            segments_read.append(members.stop)
            yield members, flags

    monkeypatch.setattr(udl.numtheory, "_segment_runs", counted)
    for k in ks:
        segments_read.clear()
        assert kth_prime_in_ap(k, cls) == primes[k - 1], (k, primes[k - 1])
        stops = list(dict.fromkeys(segments_read))
        assert segments_read == sorted(segments_read), k  # each segment once, in order
        if primes[k - 1] <= 3:  # 2 and 3 are no segment's members
            assert not stops, k
        else:  # the last segment read holds the k-th prime
            assert stops[-1] > primes[k - 1] >= (stops[-2] if len(stops) > 1 else 0), k


def test_a_class_read_holds_one_segment_not_an_x_over_2_byte_sieve(monkeypatch):
    # theta at 10^7 lists the primes to sqrt(x) = 3 162 off the shared sieve
    # and reads 256 KiB segments: the shared sieve stays far below x / 2 =
    # 5 * 10^6 flags, and pi's read never holds 1 MiB at once
    assert _SEGMENT == 1 << 18
    monkeypatch.setattr(udl.numtheory, "_flags", bytearray())
    udl.numtheory._class_log_sum.cache_clear()
    chebyshev("theta", 10**7, AP_1_MOD_4)
    assert len(udl.numtheory._flags) <= 1 << 20
    tracemalloc.start()
    try:
        pi = chebyshev("pi", 10**7, AP_1_MOD_4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert pi == 332180


def test_two_squares_count_matches_the_sweep():
    for m in range(1, 30_001):
        assert two_squares_count(m) == len(two_squares_set(m)), m
    with pytest.raises(ValueError):
        two_squares_count(0)
