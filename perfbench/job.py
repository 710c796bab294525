"""One benchmark job in a fresh interpreter, the way one `udl` CLI call runs:
the prime sieve, the two-squares cache and the adjacency cache start cold.

    python3 perfbench/job.py --setup-only
    python3 perfbench/job.py WORKLOAD INPUT_JSON [--trace]

Prints one JSON line.  "ready" is the perf_counter reading when the udl
modules are imported (CLOCK_MONOTONIC, which Linux shares across processes, so
the parent can subtract its spawn time).  The job's wall and CPU time (this
process plus its waited-for pool workers) sum over the udl calls only, so the
benchmark's own bookkeeping between calls is not counted; peak RSS is taken
when the last call returns.  Checks that call udl run after that, untraced.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import udl  # noqa: E402
from udl import bounds, cli, gaussian, numtheory, paths, udgraph  # noqa: E402

PATH_SAMPLE = 50  # start vertices, as `udl paths` samples them


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_kb() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


class Meter:
    """Wall and CPU seconds spent inside the udl calls made through it."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def __call__(self, fn, *args, **kwargs):
        cpu0 = _cpu_s()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall += time.perf_counter() - start
            self.cpu += _cpu_s() - cpu0


def run_verify(inp, call):
    return call(cli.verify_all, inp["n"], k_max=inp["k_max"], seed=inp["seed"])


def check_verify(inp, report):
    return {"text": report.to_json(), "problems": [], "exit": 0 if report.passed else 1}


def run_points(inp, call):
    k, workers = inp["k"], inp["workers"]
    g = call(udgraph.build_graph, [tuple(p) for p in inp["points"]], inp["m"])
    h = call(udgraph.peel, g)
    rng = random.Random(inp["seed"])
    starts = [h.points[i] for i in sorted(rng.sample(range(h.vertex_count), min(PATH_SAMPLE, h.vertex_count)))]
    counts = call(paths.count_irredundant_many, h, starts, k, workers=workers)
    total = call(paths.total_irredundant_paths, h, k, workers=workers)
    best = call(paths.max_pair_count, h, k, workers=workers)
    return h, starts, counts, total, best


def check_points(inp, state):
    h, starts, counts, total, (v, w, peak) = state
    k = inp["k"]
    problems = []
    xs = [p[0] for p in h.points]
    ys = [p[1] for p in h.points]
    if (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1) == h.vertex_count:
        problems.append("the peeled point set is a full grid, so the DFS route was not exercised")
    lower = paths.path_count_lower_bound(udgraph.degree_summary(h).min_degree, k)
    if min(counts.values()) < lower:
        problems.append(f"a sampled count {min(counts.values())} is below the lower bound {lower}")
    pairs = paths.per_pair_counts(h, k, starts=starts)
    per_start = dict.fromkeys(starts, 0)
    for (s, _), c in pairs.items():
        per_start[s] += c
    if per_start != counts:
        problems.append("per_pair_counts summed per start differs from count_irredundant_many")
    if pairs and peak < max(pairs.values()):
        problems.append(f"max_pair_count peak {peak} is below a sampled per-pair count {max(pairs.values())}")
    if sum(counts.values()) > total:
        problems.append(f"total_irredundant_paths {total} is below the sampled sum")
    text = json.dumps(
        {"vertices": h.vertex_count, "edges": h.edge_count, "counts": sorted(counts.items()),
         "total": total, "max_pair": [v, w, peak]}
    )
    return {"text": text, "problems": problems, "exit": 0}


def run_arith(inp, call):
    # each set is checked as it arrives and then dropped, as one `udl reps`
    # call per m would; holding 30,000 sets would time the garbage collector
    problems = []
    rep_points = 0
    for factors in inp["factor_sample"]:
        points = call(gaussian.representations, factors)
        m = math.prod(factors)
        if len(points) != 1 << (len(factors) + 2) or any(p.a * p.a + p.b * p.b != m for p in points):
            problems.append(f"representations({factors}) is not the 2^(t+2) points of norm {m}")
        rep_points += len(points)
    theta = call(numtheory.chebyshev, "theta", inp["x"], numtheory.AP_1_MOD_4)
    psi = call(numtheory.chebyshev, "psi", inp["x"], numtheory.AP_1_MOD_4)
    vectors = call(udgraph.lattice_vectors, math.prod(inp["lattice_factors"]))
    group = bounds.GroupSpec(inp["unit_torsion"], tuple(tuple(g) for g in inp["unit_generators"]))
    sols = call(bounds.enumerate_nondegenerate, inp["unit_coeffs"], group, inp["unit_height"])
    return problems, rep_points, theta, psi, vectors, sols


def check_arith(inp, state):
    problems, rep_points, theta, psi, vectors, sols = state
    expected = {p.as_tuple() for p in gaussian.representations(inp["lattice_factors"])}
    if set(vectors) != expected or len(vectors) != len(expected):
        problems.append("lattice_vectors(m) differs from representations(factors)")
    x = inp["x"]
    if abs(theta * 2 / x - 1.0) > 0.1 or abs(psi / theta - 1.0) > 0.01:
        problems.append(f"theta {theta} or psi {psi} outside the criterion-5 tolerances at x = {x}")
    # a_j z_j with integer a_j is a coefficient-wise scaling, so plain Fraction
    # vectors re-check each solution without the field's multiplication
    coeffs = inp["unit_coeffs"]
    for tup in sols:
        terms = [tuple(a * Fraction(c) for c in z.coeffs) for a, z in zip(coeffs, tup)]
        one = (Fraction(1),) + (Fraction(0),) * (len(terms[0]) - 1)
        if tuple(map(sum, zip(*terms))) != one:
            problems.append(f"a unit-equation solution does not sum to 1: {tup}")
            break
        if any(not any(map(sum, zip(*sub))) for r in range(1, len(terms)) for sub in combinations(terms, r)):
            problems.append(f"a unit-equation solution has a vanishing subsum: {tup}")
            break
    text = json.dumps(
        {"rep_points": rep_points, "theta": repr(theta), "psi": repr(psi), "vectors": vectors,
         "solutions": hashlib.sha256(repr([[z.coeffs for z in t] for t in sols]).encode()).hexdigest()}
    )
    return {"text": text, "problems": problems, "exit": 0, "solutions": len(sols)}


JOBS = {
    "verify-deep": (run_verify, check_verify),
    "verify-wide": (run_verify, check_verify),
    "points-dfs": (run_points, check_points),
    "arith": (run_arith, check_arith),
}


def main(argv: list[str]) -> int:
    ready = time.perf_counter()
    if Path(udl.__file__).resolve().parent != ROOT / "src" / "udl":
        print(f"udl was imported from {udl.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if argv == ["--setup-only"]:
        print(json.dumps({"ready": ready}))
        return 0
    workload, input_path, *flags = argv
    run, check = JOBS[workload]
    inp = json.loads(Path(input_path).read_text(encoding="utf-8"))
    tracer = None
    if "--trace" in flags:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    meter = Meter()
    state = run(inp, meter)
    rss_kb = _peak_rss_kb()
    if tracer is not None:
        tracer.uninstall()
    result = check(inp, state)
    out = {"ready": ready, "job_s": meter.wall, "cpu_s": meter.cpu, "rss_kb": rss_kb, "result": result,
           "spans": tracer.spans if tracer is not None else []}
    print(json.dumps(out))
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
