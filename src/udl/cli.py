"""Command-line front end: build configurations, enumerate distances, count
paths, and run the full verification report."""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import asdict, dataclass, field

from . import bounds as bounds_mod
from .config import ConfigParams, choose_params, generators, rank_bounds, verify_edge_in_group
from .gaussian import GaussInt, representations
from .numtheory import AP_1_MOD_4, chebyshev, factor, two_squares_count
from .paths import TABLE_WORK, StepBudgetExceeded, _check_budget, path_count_lower_bound, path_statistics
from .udgraph import DegreeSummary, build_graph, degree_summary, grid_graph, peel

SAMPLE_STARTS = 50
ASYMPTOTIC_X = 10**6
MAX_VERIFY_K = 6
BRUTEFORCE_EDGE_LIMIT = 1000  # O(v^2) edge oracle only below this many vertices
# `graph` prices the n * R lookups of a neighbour table against the step budget once: the table of a point
# set, or the rows a grid locates block by block as it emits its edges
GRAPH_WORK = (TABLE_WORK, "UDL_STEP_BUDGET")


@dataclass(frozen=True)
class BoundCheck:
    """One report row: lhs <= rhs, or lhs == rhs when relation is "=="."""

    name: str
    lhs: float
    rhs: float
    relation: str = "<="

    @property
    def passed(self) -> bool:
        return bool(self.lhs <= self.rhs if self.relation == "<=" else self.lhs == self.rhs)


@dataclass
class RunReport:
    params: ConfigParams
    edge_count: int
    degree_summary: DegreeSummary
    peeled: dict
    rank_window: tuple[float, float] | None
    path_stats: list = field(default_factory=list)
    bound_checks: list = field(default_factory=list)
    info_checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.bound_checks)

    def to_dict(self) -> dict:
        """The fields in order, each check row and the report with its "pass" flag."""
        out = asdict(self)
        for row, check in zip(out["bound_checks"], self.bound_checks):
            row["pass"] = check.passed
        out["pass"] = self.passed
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _representation_defect(vectors, m: int) -> int:
    """0 exactly when the vectors are the r_2(m) distinct points of norm m.

    Counts the vectors that are repeats or off norm m, plus the points of
    norm m that are missing.  The distinct vectors of norm m are a subset of
    those points, so when there are r_2(m) of them (Jacobi's two-square
    theorem, from the factorisation of m) they are all of them.
    """
    on_norm = sum(1 for x, y in set(vectors) if x * x + y * y == m)
    return (len(vectors) - on_norm) + (two_squares_count(m) - on_norm)


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


def _check_sample_population(vertex_count: int) -> None:
    if vertex_count > sys.maxsize:  # the largest population `random.sample` takes
        raise ValueError(f"cannot sample starts among {vertex_count} vertices, more than {sys.maxsize}")


def _path_stats(h, ks, min_degree: int, seed: int, step_budget: int | None):
    """One (stat row, max pair) per k from one `path_statistics` call over a
    seeded sample of at most SAMPLE_STARTS starts, which prices every k before
    the first statistic runs; the row holds the sampled counts, the
    degree-product lower bound and the total.  No k draws no sample."""
    ks = list(ks)
    if not ks:
        return
    _check_sample_population(h.vertex_count)
    sample = random.Random(seed).sample(range(h.vertex_count), min(SAMPLE_STARTS, h.vertex_count))
    starts = [h.point(i) for i in sorted(sample)]
    for k, (counts, total, best) in zip(ks, path_statistics(h, ks, starts, step_budget=step_budget)):
        yield {
            "k": k,
            "sample_size": len(starts),
            "min_count": min(counts.values()),
            "max_count": max(counts.values()),
            "lower_bound": path_count_lower_bound(min_degree, k),
            "total_paths": total,
        }, best


def verify_all(
    n: int,
    k_max: int = 3,
    *,
    seed: int = 0,
    step_budget: int | None = None,
) -> RunReport:
    """Build the configuration at n and evaluate every bound check the
    pipeline supports at that scale.

    Checks that are undefined on the degenerate r = 1 path (no generators,
    no prime factors) are omitted, not faked.  A k_max whose path statistics
    exceed the step budget is refused before any of them runs (see
    `paths.path_statistics`), and a k_max >= 2 on a grid of more than sys.maxsize
    vertices, where no start sample can be drawn, before the grid is built.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if not 1 <= k_max <= MAX_VERIFY_K:
        raise ValueError(f"need 1 <= k_max <= {MAX_VERIFY_K}, got {k_max}")

    params = choose_params(n)
    if k_max >= 2:  # refuse an undrawable start sample before the grid is built
        _check_sample_population(params.side**2)
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

    checks.append(BoundCheck("representation_count", len(g.vectors), 2 ** (params.r + 1), "=="))
    checks.append(BoundCheck("representation_bruteforce", _representation_defect(g.vectors, params.m), 0, "=="))

    v = g.vertex_count
    checks.append(BoundCheck("edge_count_lower", v * 2 ** (params.r - 1) / 16, g.edge_count))
    checks.append(BoundCheck("edge_count_upper", g.edge_count, 2 ** (params.r + 3) * v))
    if v <= BRUTEFORCE_EDGE_LIMIT:
        checks.append(BoundCheck("edge_count_bruteforce", _edge_count_bruteforce(g.points, g.m), g.edge_count, "=="))

    if params.r >= 2:
        gens = generators(params)
        ok = 0
        for dx, dy in g.vectors:
            try:
                verify_edge_in_group(GaussInt(dx, dy), gens)
                ok += 1
            except (ValueError, ArithmeticError):
                pass
        checks.append(BoundCheck("group_membership", ok / len(g.vectors), 1.0, "=="))
        largest = max(params.primes)
        theta_largest = chebyshev("theta", largest, AP_1_MOD_4)
        checks.append(BoundCheck("theta_within_log_quarter_n", theta_largest, math.log(n / 4)))

    if n >= 16:
        low, high = rank_bounds(n)
        rank_window = (low, high)
        checks.append(BoundCheck("rank_lower", low, params.r))
        checks.append(BoundCheck("rank_upper", params.r, high))
    else:
        rank_window = None

    theta = chebyshev("theta", ASYMPTOTIC_X, AP_1_MOD_4)
    psi = chebyshev("psi", ASYMPTOTIC_X, AP_1_MOD_4)
    checks.append(BoundCheck("theta_asymptotic", abs(theta * 2 / ASYMPTOTIC_X - 1.0), 0.1))
    checks.append(BoundCheck("psi_over_theta", abs(psi / theta - 1.0), 0.01))

    report = RunReport(params, g.edge_count, summary, peeled, rank_window)

    for stat, (pv, pw, peak) in _path_stats(h, range(2, k_max + 1), h_summary.min_degree, seed, step_budget):
        k = stat["k"]
        checks.append(BoundCheck(f"path_count_lower_k{k}", stat["lower_bound"], stat["min_count"]))
        # v and w are None when the graph has no irredundant k-path
        stat["max_pair"] = {"v": pv and list(pv), "w": pw and list(pw), "count": peak}
        lhs = math.log2(peak) if peak > 0 else 0.0
        rhs = bounds_mod.log2_solution_bound(k, params.r - 1)
        checks.append(BoundCheck(f"pair_count_within_solution_bound_k{k}", lhs, rhs))
        report.path_stats.append(stat)

    worst, bracket_frac = _lambert_grid_stats()
    checks.append(BoundCheck("lambert_identity_residual", worst, 1e-12))
    checks.append(BoundCheck("lambert_bracket", bracket_frac, 1.0, "=="))
    checks.append(BoundCheck("lambert_at_e", abs(bounds_mod.lambert_w(math.e) - 1.0), 1e-12))

    big_l = math.log(n)
    window = bounds_mod.optimal_k_window(log_n=big_l, r=params.r)
    checks.append(BoundCheck("k_window_lower", window.k_lo, window.k_star))
    checks.append(BoundCheck("k_window_upper", window.k_star, window.k_hi))

    absorb = bounds_mod.absorption_sides(max(k_max, 2), params.r, log_n=big_l)
    info.append({"name": "absorption_sides", **absorb})

    report.bound_checks = checks
    report.info_checks = info
    return report


def _factor_squarefree_1mod4(m: int) -> list[int]:
    factors = factor(m)
    if any(e > 1 for e in factors.values()):
        raise ValueError(f"m={m} is not squarefree")
    bad = [p for p in factors if p % 4 != 1]
    if bad:
        raise ValueError(f"m={m} has prime factors {bad} not congruent to 1 mod 4")
    return list(factors)


def _read_points(path: str) -> list[tuple[int, int]]:
    pts = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            fields = line.split()
            if not fields:
                continue
            try:
                x, y = map(int, fields)
            except ValueError:
                raise ValueError(f"{path}, line {number}: expected two integers 'x y', got {line.strip()!r}") from None
            pts.append((x, y))
    return pts


def _cmd_config(args) -> int:
    print(choose_params(args.n).to_json())
    return 0


def _write_replacing(path: str, lines) -> None:
    """Write `lines` to a new file beside `path`, then move it onto `path`:
    on any error the new file is removed, so an existing `path` keeps its
    bytes and a missing one is not created.  A file error names `path`,
    not the new file."""
    head, tail = os.path.split(path)
    temporary = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        fh = open(temporary, "x", encoding="utf-8")
        try:
            with fh:
                fh.writelines(lines)
            os.replace(temporary, path)
        except BaseException:
            os.remove(temporary)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_graph(args) -> int:
    for wrong, message in (  # an option the run would ignore is refused, not dropped
        (args.points and args.n is not None, "give --n or --points, not both"),
        (args.points and args.m is None, "--points needs --m"),
        (not args.points and args.n is None, "give --n or --points"),
        (not args.points and args.m is not None, "--m needs --points: --n picks its own m"),
    ):
        if wrong:
            print(f"error: {message}", file=sys.stderr)
            return 2
    if args.points:  # priced before its table is built; emitting reads that table, or locates as many on a full box
        points = _read_points(args.points)
        _check_budget(len(points) * two_squares_count(args.m), None, *GRAPH_WORK)
        g = build_graph(points, args.m)
    else:  # a grid locates its lookups only to emit its edges
        params = choose_params(args.n)
        g = grid_graph(params.side, params.m)
        if args.emit:
            _check_budget(g.vertex_count * len(g.vectors), None, *GRAPH_WORK)
    if args.emit:
        _write_replacing(args.emit, g.edge_lines())
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
    _check_sample_population(params.side**2)
    h = peel(grid_graph(params.side, params.m))
    ((stat, _),) = _path_stats(h, [args.k], degree_summary(h).min_degree, args.seed, args.step_budget)
    print(json.dumps(stat, indent=2))
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
    row = bounds_mod.bound_row(args.k, args.r, n=args.n, log_n=args.log_n)
    if args.csv:
        keys = list(row)
        print(",".join(keys))
        print(",".join(str(row[key]) for key in keys))
    else:
        print(json.dumps(row, indent=2))
    return 0


def _cmd_verify(args) -> int:
    report = verify_all(args.n, args.k_max, seed=args.seed, step_budget=args.step_budget)
    text = report.to_json()
    if args.emit:
        _write_replacing(args.emit, [text])
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
    p.add_argument("--workers", type=int, default=1, help="accepted and ignored: every statistic runs serially")
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
    p.add_argument("--workers", type=int, default=1, help="accepted and ignored: every statistic runs serially")
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
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
