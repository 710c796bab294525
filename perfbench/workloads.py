"""Workload inputs made from a seed, and the output checks run on each job.

Nothing here imports `udl`: inputs are generated and outputs are checked with
the benchmark's own arithmetic, so a defect in the program cannot hide itself
in its own check.
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations
from pathlib import Path

WORKLOADS = ("verify-deep", "verify-wide", "points-dfs", "arith")

VERIFY_SIZES = {"verify-deep": (10**4, 4), "verify-wide": (10**5, 3)}

POINTS_SIDE = 48
POINTS_DROP_FRAC = 0.05
POINTS_M = 65
POINTS_K = 3
POINTS_WORKERS = 2  # the most processes any workload runs at once

REPS_LIMIT = 10**6
REPS_MAX_PRIMES = 4
REPS_SAMPLE = 30_000
CHEBYSHEV_X = 10**7
# Every 9-prime m in this window: the O(sqrt m) sweep then costs within 3%
# across seeds.
LATTICE_PRIMES = 9
LATTICE_M_RANGE = (15 * 10**12, 16 * 10**12)
UNIT_COEFFS = (1, 1, 1)
UNIT_TORSION = 6
UNIT_GENERATORS = ((2, 0), (3, 0))
UNIT_HEIGHT = 2

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def _primes_1mod4(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(5, limit + 1, 4) if flags[p]]


def squarefree_products(limit: int, max_primes: int) -> list[tuple[int, ...]]:
    """Factor tuples of every product of 1..max_primes distinct primes that are
    1 mod 4, up to limit (82,304 of them at 10^6 and 4 primes)."""
    primes = _primes_1mod4(limit)
    out: list[tuple[int, ...]] = []

    def extend(start: int, prod: int, factors: tuple[int, ...]) -> None:
        for i in range(start, len(primes)):
            nxt = prod * primes[i]
            if nxt > limit:
                return
            out.append(factors + (primes[i],))
            if len(factors) + 1 < max_primes:
                extend(i + 1, nxt, factors + (primes[i],))

    extend(0, 1, ())
    out.sort()
    return out


def lattice_factor_choices() -> list[tuple[int, ...]]:
    primes = _primes_1mod4(200)
    lo, hi = LATTICE_M_RANGE
    return [c for c in combinations(primes, LATTICE_PRIMES) if lo <= math.prod(c) <= hi]


def make_input(workload: str, seed: int) -> dict:
    """The job input for one workload; the same seed gives the same input."""
    rng = random.Random(seed)
    if workload in VERIFY_SIZES:
        n, k_max = VERIFY_SIZES[workload]
        return {"n": n, "k_max": k_max, "seed": seed}
    if workload == "points-dfs":
        grid = [(x, y) for x in range(POINTS_SIDE) for y in range(POINTS_SIDE)]
        drop = set(rng.sample(range(len(grid)), round(POINTS_DROP_FRAC * len(grid))))
        points = [p for i, p in enumerate(grid) if i not in drop]
        return {"points": points, "m": POINTS_M, "k": POINTS_K, "seed": seed, "workers": POINTS_WORKERS}
    if workload == "arith":
        sample = rng.sample(squarefree_products(REPS_LIMIT, REPS_MAX_PRIMES), REPS_SAMPLE)
        return {
            "factor_sample": sample,
            "x": CHEBYSHEV_X,
            "lattice_factors": rng.choice(lattice_factor_choices()),
            "unit_coeffs": UNIT_COEFFS,
            "unit_torsion": UNIT_TORSION,
            "unit_generators": UNIT_GENERATORS,
            "unit_height": UNIT_HEIGHT,
        }
    raise ValueError(f"unknown workload {workload!r}")


def two_square_vectors(m: int) -> set[tuple[int, int]]:
    out = set()
    for dx in range(math.isqrt(m) + 1):
        rem = m - dx * dx
        dy = math.isqrt(rem)
        if dy * dy == rem:
            out.update({(dx, dy), (dx, -dy), (-dx, dy), (-dx, -dy)})
    return out


def grid_edge_count(side: int, m: int) -> int:
    """Closed form 1/2 * sum over vectors of (side - |dx|)(side - |dy|)."""
    twice = sum(
        max(side - abs(dx), 0) * max(side - abs(dy), 0) for dx, dy in two_square_vectors(m)
    )
    return twice // 2


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def reference_fields(report: dict) -> dict:
    """The report fields that do not depend on the seed."""
    return {
        "params": report["params"],
        "edge_count": report["edge_count"],
        "degree_summary": report["degree_summary"],
        "peeled": report["peeled"],
        "path_stats": [
            {key: stat[key] for key in ("k", "sample_size", "total_paths", "max_pair")}
            for stat in report["path_stats"]
        ],
    }


def check_output(workload: str, result: dict, reference: dict) -> list[str]:
    """Problems found in one job's result; empty when it is correct.

    Checks that need the program's own objects (per-start DFS against per-pair
    counts, set equality of representations) run in the job process and come
    back in result["problems"].
    """
    problems = list(result.get("problems", []))
    if workload in VERIFY_SIZES:
        report = json.loads(result["text"])
        if report.get("pass") is not True:
            problems.append("report pass is not true")
        params = report["params"]
        expected = grid_edge_count(params["side"], params["m"])
        if report["edge_count"] != expected:
            problems.append(f"edge_count {report['edge_count']} != closed form {expected}")
        if reference_fields(report) != reference[workload]:
            problems.append("seed-independent report fields differ from reference.json")
    elif workload == "arith":
        if result["solutions"] != reference["arith"]["solutions"]:
            problems.append(
                f"{result['solutions']} unit-equation solutions, reference has {reference['arith']['solutions']}"
            )
    return problems
