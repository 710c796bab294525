import json
import math

import pytest

from udl.config import (
    ConfigParams,
    build_config,
    choose_params,
    generators,
    rank_bounds,
    verify_edge_in_group,
)
from udl.gaussian import GaussInt, representations
from udl.numtheory import APClass, chebyshev

from oracles import trial_division_primes


def primes_1mod4_oracle(count):
    out = [p for p in trial_division_primes(200) if p % 4 == 1]
    return out[:count]


def test_choose_params_examples():
    got = choose_params(100)
    assert (got.r, got.m, list(got.primes), got.side) == (2, 5, [5], 10)
    got = choose_params(10**6)
    assert (got.r, got.m, list(got.primes)) == (5, 32045, [5, 13, 17, 29])
    got = choose_params(10)
    assert (got.r, got.m, got.side) == (1, 1, 3)
    with pytest.raises(ValueError):
        choose_params(3)


def test_choose_params_sandwich_holds():
    firsts = primes_1mod4_oracle(8)
    for n in [4, 10, 19, 20, 100, 400, 10**4, 10**5, 10**6, 10**7]:
        got = choose_params(n)
        assert 4 * got.m <= n
        # the next prime would overshoot
        next_p = firsts[got.r - 1]
        assert 4 * got.m * next_p > n
        assert got.m <= n / 4
        prod = 1
        for p in got.primes:
            prod *= p
        assert prod == got.m
        assert list(got.primes) == firsts[: got.r - 1]
        assert got.side == math.isqrt(n)


def test_build_config_shapes():
    params = choose_params(100)
    pts = build_config(params)
    assert len(pts) == 100
    assert pts[0] == (0, 0) and pts[-1] == (9, 9)
    assert len(set(pts)) == 100
    assert all(0 <= x < 10 and 0 <= y < 10 for x, y in pts)
    assert build_config(choose_params(4)) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_params_json_fields():
    blob = json.loads(choose_params(400).to_json())
    assert blob == {"n": 400, "r": 3, "m": 65, "primes": [5, 13], "side": 20}


def test_generators_examples():
    gens = generators(choose_params(100))
    assert gens.pairs == ((GaussInt(1, 2), GaussInt(1, -2)),)
    assert gens.scale_exponent == __import__("fractions").Fraction(-1, 2)
    assert gens.m == 5

    gens = generators(choose_params(400))
    assert gens.pairs == (
        (GaussInt(1, 2), GaussInt(1, -2)),
        (GaussInt(2, 3), GaussInt(2, -3)),
    )
    assert gens.scale_exponent == __import__("fractions").Fraction(-1, 4)

    with pytest.raises(ValueError):
        generators(choose_params(10))  # r = 1


def test_generator_pairs_multiply_to_primes():
    gens = generators(choose_params(10**6))
    for (g, gbar), p in zip(gens.pairs, (5, 13, 17, 29)):
        assert g * gbar == GaussInt(p, 0)
        assert g.conj() == gbar


def test_verify_edge_examples():
    gens = generators(choose_params(400))  # m = 65
    sel = verify_edge_in_group(GaussInt(-4, 7), gens)
    assert sel.signs == (1, 1) and sel.unit == GaussInt(1, 0)

    gens5 = generators(choose_params(100))  # m = 5
    sel = verify_edge_in_group(GaussInt(1, 2), gens5)
    assert sel.signs == (1,) and sel.unit == GaussInt(1, 0)
    sel = verify_edge_in_group(GaussInt(2, -1), gens5)
    assert sel.signs == (1,) and sel.unit == GaussInt(0, -1)

    with pytest.raises(ValueError):
        verify_edge_in_group(GaussInt(1, 1), gens5)  # wrong norm


def test_every_representation_factors_through_group():
    # covers every configuration rank reachable at desk scale (r - 1 <= 4)
    for n in (100, 400, 10**4, 10**6):
        params = choose_params(n)
        gens = generators(params)
        reps = representations(list(params.primes))
        assert len(reps) == 1 << (params.r + 1)
        for v in sorted(reps):
            sel = verify_edge_in_group(v, gens)
            rebuilt = sel.unit
            for s, (g, gbar) in zip(sel.signs, gens.pairs):
                rebuilt = rebuilt * (g if s == 1 else gbar)
            assert rebuilt == v
            assert len(sel.signs) == params.r - 1
            assert sel.unit.is_unit()


def test_rank_bounds_examples():
    low, high = rank_bounds(10**6)
    assert low == pytest.approx(math.log(10**6) / (3 * math.log(math.log(10**6))), rel=1e-12)
    assert low == pytest.approx(1.7537, abs=5e-4)
    assert high == pytest.approx(84.18, abs=0.05)
    low, high = rank_bounds(100)
    assert low == pytest.approx(1.0051, abs=5e-4)
    assert high == pytest.approx(48.25, abs=0.05)
    for bad in (15, 0, -5):
        with pytest.raises(ValueError):
            rank_bounds(bad)
    rank_bounds(16)  # boundary accepted


def test_chosen_rank_sits_in_window():
    for exponent in range(2, 8):
        n = 10**exponent
        params = choose_params(n)
        low, high = rank_bounds(n)
        assert low <= params.r <= high, (n, params.r, low, high)


def test_theta_of_last_prime_bounded_by_log_quarter_n():
    for exponent in range(2, 8):
        n = 10**exponent
        params = choose_params(n)
        if params.r < 2:
            continue
        theta = chebyshev("theta", params.primes[-1], APClass(4, 1))
        assert theta <= math.log(n / 4) + 1e-12
        # theta over the chosen primes is exactly log m
        assert theta == pytest.approx(math.log(params.m), abs=1e-9)
