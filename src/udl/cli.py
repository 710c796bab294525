"""Command-line front end: build configurations, enumerate distances, count
paths, and run the full verification report."""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, field

from . import bounds as bounds_mod
from .config import choose_params, generators, rank_bounds, verify_edge_in_group
from .gaussian import GaussInt, representations
from .numtheory import AP_1_MOD_4, chebyshev
from .paths import (
    StepBudgetExceeded,
    count_irredundant_many,
    max_pair_count,
    path_count_lower_bound,
    total_irredundant_paths,
)
from .udgraph import build_graph, degree_summary, grid_graph, peel

SAMPLE_STARTS = 50
ASYMPTOTIC_X = 10**6
MAX_VERIFY_K = 6
BRUTEFORCE_EDGE_LIMIT = 1000  # O(v^2) edge oracle only below this many vertices


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    relation: str  # "<=" or "=="
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "pass": self.passed,
        }


def _check(name: str, lhs, rhs, relation: str = "<=") -> BoundCheck:
    ok = lhs <= rhs if relation == "<=" else lhs == rhs
    return BoundCheck(name, lhs, rhs, relation, bool(ok))


@dataclass
class RunReport:
    params: object
    edge_count: int
    degree_summary: object
    peeled: dict
    rank_window: tuple[float, float] | None
    path_stats: list = field(default_factory=list)
    bound_checks: list = field(default_factory=list)
    info_checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.bound_checks)

    def to_dict(self) -> dict:
        p = self.params
        d = self.degree_summary
        return {
            "params": {"n": p.n, "r": p.r, "m": p.m, "primes": list(p.primes), "side": p.side},
            "edge_count": self.edge_count,
            "degree_summary": {
                "min_degree": d.min_degree,
                "max_degree": d.max_degree,
                "vertex_count": d.vertex_count,
                "edge_count": d.edge_count,
            },
            "peeled": self.peeled,
            "rank_window": list(self.rank_window) if self.rank_window else None,
            "path_stats": self.path_stats,
            "bound_checks": [c.to_dict() for c in self.bound_checks],
            "info_checks": self.info_checks,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _two_squares_sweep(m: int) -> set[tuple[int, int]]:
    out = set()
    for x in range(-math.isqrt(m), math.isqrt(m) + 1):
        y2 = m - x * x
        y = math.isqrt(y2)
        if y * y == y2:
            out.add((x, y))
            out.add((x, -y))
    return out


def _edge_count_bruteforce(points, m: int) -> int:
    pts = list(points)
    return sum(
        1
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2 == m
    )


def _lambert_grid_stats() -> tuple[float, float]:
    """(worst relative identity residual, in-bracket fraction for x >= e)."""
    worst = 0.0
    bracketed = total = 0
    for i in range(100):
        x = 10 ** (-3 + 15 * i / 99)
        w = bounds_mod.lambert_w(x)
        worst = max(worst, abs(w * math.exp(w) - x) / max(x, 1.0))
        if x >= math.e:
            total += 1
            bracketed += 0.5 * math.log(x) <= w <= math.log(x)
    return worst, bracketed / total


def verify_all(
    n: int,
    k_max: int = 3,
    *,
    workers: int = 1,
    seed: int = 0,
    step_budget: int | None = None,
) -> RunReport:
    """Build the configuration at n and evaluate every bound check the
    pipeline supports at that scale.

    Checks that are undefined on the degenerate r = 1 path (no generators,
    no prime factors) are omitted, not faked; checks whose optional extras
    exceed the step budget degrade to an info note.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if not 1 <= k_max <= MAX_VERIFY_K:
        raise ValueError(f"need 1 <= k_max <= {MAX_VERIFY_K}, got {k_max}")

    params = choose_params(n)
    g = grid_graph(params.side, params.m)
    summary = degree_summary(g)
    h = peel(g)
    h_summary = degree_summary(h)
    peeled = {
        "vertex_count": h_summary.vertex_count,
        "edge_count": h_summary.edge_count,
        "min_degree": h_summary.min_degree,
        "threshold": g.edge_count / (2 * g.vertex_count),
    }

    checks: list[BoundCheck] = []
    info: list[dict] = []

    checks.append(_check("representation_count", len(g.vectors), 2 ** (params.r + 1), "=="))
    sweep = _two_squares_sweep(params.m)
    checks.append(
        _check("representation_bruteforce", len(sweep.symmetric_difference(g.vectors)), 0, "==")
    )

    v = g.vertex_count
    checks.append(_check("edge_count_lower", v * 2 ** (params.r - 1) / 16, g.edge_count))
    checks.append(_check("edge_count_upper", g.edge_count, 2 ** (params.r + 3) * v))
    if v <= BRUTEFORCE_EDGE_LIMIT:
        checks.append(
            _check("edge_count_bruteforce", _edge_count_bruteforce(g.points, g.m), g.edge_count, "==")
        )

    if params.r >= 2:
        gens = generators(params)
        ok = 0
        for dx, dy in g.vectors:
            try:
                verify_edge_in_group(GaussInt(dx, dy), gens)
                ok += 1
            except (ValueError, ArithmeticError):
                pass
        checks.append(_check("group_membership", ok / len(g.vectors), 1.0, "=="))
        largest = max(params.primes)
        checks.append(
            _check(
                "theta_within_log_quarter_n",
                chebyshev("theta", largest, AP_1_MOD_4),
                math.log(n / 4),
            )
        )

    if n >= 16:
        low, high = rank_bounds(n)
        rank_window = (low, high)
        checks.append(_check("rank_lower", low, params.r))
        checks.append(_check("rank_upper", params.r, high))
    else:
        rank_window = None

    theta = chebyshev("theta", ASYMPTOTIC_X, AP_1_MOD_4)
    psi = chebyshev("psi", ASYMPTOTIC_X, AP_1_MOD_4)
    checks.append(_check("theta_asymptotic", abs(theta * 2 / ASYMPTOTIC_X - 1.0), 0.1))
    checks.append(_check("psi_over_theta", abs(psi / theta - 1.0), 0.01))

    report = RunReport(params, g.edge_count, summary, peeled, rank_window)

    rng = random.Random(seed)
    sample = sorted(rng.sample(range(h.vertex_count), min(SAMPLE_STARTS, h.vertex_count)))
    starts = [h.point(i) for i in sample]
    for k in range(2, k_max + 1):
        counts = count_irredundant_many(h, starts, k, workers=workers, step_budget=step_budget)
        lower = path_count_lower_bound(h_summary.min_degree, k)
        stat = {
            "k": k,
            "sample_size": len(starts),
            "min_count": min(counts.values()),
            "max_count": max(counts.values()),
            "lower_bound": lower,
        }
        checks.append(_check(f"path_count_lower_k{k}", lower, stat["min_count"]))
        try:
            stat["total_paths"] = total_irredundant_paths(h, k, workers=workers, step_budget=step_budget)
        except StepBudgetExceeded:
            stat["total_paths"] = None
            info.append({"name": f"total_paths_k{k}", "status": "skipped: step budget"})
        try:
            pv, pw, peak = max_pair_count(h, k, workers=workers, step_budget=step_budget)
            stat["max_pair"] = {"v": list(pv), "w": list(pw), "count": peak}
            lhs = math.log2(peak) if peak > 0 else 0.0
            checks.append(
                _check(f"pair_count_within_solution_bound_k{k}", lhs, bounds_mod.log2_solution_bound(k, params.r - 1))
            )
        except StepBudgetExceeded:
            stat["max_pair"] = None
            info.append({"name": f"pair_count_within_solution_bound_k{k}", "status": "skipped: step budget"})
        report.path_stats.append(stat)

    worst, bracket_frac = _lambert_grid_stats()
    checks.append(_check("lambert_identity_residual", worst, 1e-12))
    checks.append(_check("lambert_bracket", bracket_frac, 1.0, "=="))
    checks.append(_check("lambert_at_e", abs(bounds_mod.lambert_w(math.e) - 1.0), 1e-12))

    big_l = math.log(n)
    k_star = bounds_mod.k_star(big_l, params.r)
    base = (big_l / params.r) ** 0.2
    checks.append(_check("k_window_lower", bounds_mod.K_WINDOW_LO * base, k_star))
    checks.append(_check("k_window_upper", k_star, bounds_mod.K_WINDOW_HI * base))

    absorb = bounds_mod.absorption_sides(max(k_max, 2), params.r, log_n=big_l)
    info.append({"name": "absorption_sides", **absorb})

    report.bound_checks = checks
    report.info_checks = info
    return report


def _factor_squarefree_1mod4(m: int) -> list[int]:
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    out = []
    rest = m
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            rest //= d
            out.append(d)
            if rest % d == 0:
                raise ValueError(f"m={m} is not squarefree")
        else:
            d += 1
    if rest > 1:
        out.append(rest)
    bad = [p for p in out if p % 4 != 1]
    if bad:
        raise ValueError(f"m={m} has prime factors {bad} not congruent to 1 mod 4")
    return out


def _read_points(path: str) -> list[tuple[int, int]]:
    pts = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            x, y = line.split()
            pts.append((int(x), int(y)))
    return pts


def _cmd_config(args) -> int:
    print(choose_params(args.n).to_json())
    return 0


def _cmd_graph(args) -> int:
    if args.points:
        if args.m is None:
            print("error: --points needs --m", file=sys.stderr)
            return 2
        g = build_graph(_read_points(args.points), args.m)
    else:
        if args.n is None:
            print("error: give --n or --points", file=sys.stderr)
            return 2
        params = choose_params(args.n)
        g = grid_graph(params.side, params.m)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(g.to_edge_text())
    d = degree_summary(g)
    print(
        json.dumps(
            {
                "vertices": d.vertex_count,
                "edges": d.edge_count,
                "min_degree": d.min_degree,
                "max_degree": d.max_degree,
                "m": g.m,
            },
            indent=2,
        )
    )
    return 0


def _cmd_paths(args) -> int:
    params = choose_params(args.n)
    h = peel(grid_graph(params.side, params.m))
    d = degree_summary(h)
    rng = random.Random(args.seed)
    sample = sorted(rng.sample(range(h.vertex_count), min(SAMPLE_STARTS, h.vertex_count)))
    counts = count_irredundant_many(
        h, [h.point(i) for i in sample], args.k, workers=args.workers, step_budget=args.step_budget
    )
    try:
        total = total_irredundant_paths(h, args.k, workers=args.workers, step_budget=args.step_budget)
    except StepBudgetExceeded:
        total = None
    print(
        json.dumps(
            {
                "k": args.k,
                "sample_size": len(counts),
                "min_count": min(counts.values()),
                "max_count": max(counts.values()),
                "lower_bound": path_count_lower_bound(d.min_degree, args.k),
                "total_paths": total,
            },
            indent=2,
        )
    )
    return 0


def _cmd_reps(args) -> int:
    primes = _factor_squarefree_1mod4(args.m)
    for p in sorted(representations(primes), key=lambda g: g.as_tuple()):
        print(f"{p.a} {p.b}")
    return 0


def _cmd_chebyshev(args) -> int:
    from .numtheory import APClass

    value = chebyshev(args.kind, args.x, APClass(args.d, args.a))
    print(value)
    return 0


def _cmd_bounds(args) -> int:
    row = bounds_mod.bound_row(bounds_mod.BoundParams(k=args.k, r=args.r, n=args.n, log_n=args.log_n))
    if args.csv:
        keys = list(row)
        print(",".join(keys))
        print(",".join(str(row[key]) for key in keys))
    else:
        print(json.dumps(row, indent=2))
    return 0


def _cmd_verify(args) -> int:
    report = verify_all(
        args.n, args.k_max, workers=args.workers, seed=args.seed, step_budget=args.step_budget
    )
    text = report.to_json()
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="udl", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("config", help="print chosen parameters for a point budget")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_config)

    p = sub.add_parser("graph", help="build the distance graph, optionally emit edges")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--points", help="point file, one 'x y' pair per line")
    p.add_argument("--emit", help="write sorted edge lines to this path")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("paths", help="count irredundant paths from sampled starts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-budget", type=int, default=None)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("reps", help="print the lattice points at squared distance m")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_reps)

    p = sub.add_parser("chebyshev", help="evaluate pi/theta/psi over a progression")
    p.add_argument("--kind", choices=("pi", "theta", "psi"), default="theta")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--a", type=int, default=1)
    p.set_defaults(func=_cmd_chebyshev)

    p = sub.add_parser("bounds", help="evaluate the bound row for (k, r, n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=float, default=None)
    p.add_argument("--log-n", type=float, default=None)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="run the full verification report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-budget", type=int, default=None)
    p.add_argument("--emit", help="also write the JSON report to this path")
    p.set_defaults(func=_cmd_verify)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except StepBudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
