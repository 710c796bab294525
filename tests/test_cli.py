import ast
import errno
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import fields
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import udl.numtheory
from udl.cli import BoundCheck, RunReport, _path_stats, _representation_defect, dispatch, verify_all
from udl.gaussian import representations
from udl.paths import (
    StepBudgetExceeded,
    count_irredundant_many,
    max_pair_count,
    projected_steps,
    total_irredundant_paths,
)
from udl.udgraph import build_graph

from oracles import is_prime_slow, two_squares_set

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_n100_matches_golden_report(capsys):
    code, out, _ = run(capsys, ["verify", "--n", "100", "--k-max", "3"])
    assert code == 0
    assert out == (GOLDEN / "report_n100_k3.json").read_text()


def test_verify_workers_do_not_change_bytes(capsys):
    code1, out1, _ = run(capsys, ["verify", "--n", "100", "--k-max", "3", "--workers", "1"])
    code4, out4, _ = run(capsys, ["verify", "--n", "100", "--k-max", "3", "--workers", "4"])
    assert code1 == code4 == 0
    assert out1 == out4


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_verify_small_grids_without_a_longest_path(capsys, n):
    # the 2 x 2 grid with m = 1 has no irredundant 3-path, so no pair carries one
    code, out, _ = run(capsys, ["verify", "--n", str(n)])
    report = verify_all(n, 3)
    assert json.loads(out) == json.loads(report.to_json())
    assert code == (0 if report.passed else 1)
    assert report.path_stats[-1]["max_pair"] == {"v": None, "w": None, "count": 0}


def test_verify_report_contents_n100():
    report = verify_all(100, 3)
    assert report.passed
    assert report.edge_count == 288
    assert report.params.r == 2 and report.params.m == 5
    names = [c.name for c in report.bound_checks]
    assert "group_membership" in names
    assert "path_count_lower_k3" in names
    for check in report.bound_checks:
        assert check.relation in ("<=", "==")
        if check.relation == "<=":
            assert check.passed == (check.lhs <= check.rhs)


def test_a_check_row_passes_by_its_relation():
    assert BoundCheck("x", 1, 1.0, "==").passed and BoundCheck("x", 1, 2).passed
    assert not BoundCheck("x", 2, 1).passed and not BoundCheck("x", 1, 2, "==").passed
    report = verify_all(100, 3)
    blob = report.to_dict()
    assert list(blob) == [f.name for f in fields(RunReport)] + ["pass"]
    rows = blob["bound_checks"]
    assert all(list(row) == ["name", "lhs", "rhs", "relation", "pass"] for row in rows)
    assert [row["pass"] for row in rows] == [c.passed for c in report.bound_checks]
    assert "==" in {c.relation for c in report.bound_checks}


def test_verify_degenerate_n10(capsys):
    code, out, _ = run(capsys, ["verify", "--n", "10", "--k-max", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["params"] == {"n": 10, "r": 1, "m": 1, "primes": [], "side": 3}
    assert report["rank_window"] is None
    assert report["path_stats"] == []
    names = [c["name"] for c in report["bound_checks"]]
    assert "group_membership" not in names
    assert "theta_within_log_quarter_n" not in names
    assert report["pass"] is True


def test_verify_precondition_exits_2(capsys):
    assert run(capsys, ["verify", "--n", "3"])[0] == 2
    assert run(capsys, ["verify", "--n", "100", "--k-max", "7"])[0] == 2
    with pytest.raises(ValueError):
        verify_all(3)


def test_verify_emit_writes_the_same_bytes(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["verify", "--n", "100", "--k-max", "2", "--emit", str(path)])
    assert code == 0
    assert path.read_text() == out


def test_step_budget_refusal_exits_2(capsys):
    code, _, err = run(capsys, ["verify", "--n", "10000", "--k-max", "4", "--step-budget", "1000"])
    assert code == 2 and "refused" in err
    code, _, err = run(capsys, ["paths", "--n", "100", "--k", "4", "--step-budget", "10"])
    assert code == 2 and "refused" in err


def test_bad_step_budget_exits_2_naming_its_source(capsys, monkeypatch, tmp_path):
    for argv in (["verify", "--n", "100", "--k-max", "2"], ["paths", "--n", "100", "--k", "2"]):
        code, out, err = run(capsys, [*argv, "--step-budget", "-5"])
        assert (code, out, err) == (2, "", "error: --step-budget must be a nonnegative integer, got -5\n"), argv
    for bad in ("abc", "1e9", " ", "-1"):
        monkeypatch.setenv("UDL_STEP_BUDGET", bad)
        for argv in (["verify", "--n", "100", "--k-max", "2"], ["graph", "--n", "100", "--emit", str(tmp_path / "edges")]):
            code, out, err = run(capsys, argv)
            assert (code, out, err) == (2, "", f"error: UDL_STEP_BUDGET must be a nonnegative integer, got {bad!r}\n"), (bad, argv)
    assert not (tmp_path / "edges").exists()


def test_usage_errors_exit_2(capsys):
    assert run(capsys, ["verify", "--bogus"])[0] == 2
    assert run(capsys, ["nonsense"])[0] == 2
    assert run(capsys, [])[0] == 2


def test_graph_emit_matches_golden_edges(capsys, tmp_path):
    path = tmp_path / "edges.txt"
    code, out, _ = run(capsys, ["graph", "--n", "100", "--emit", str(path)])
    assert code == 0
    assert path.read_text() == (GOLDEN / "edges_10x10_m5.txt").read_text()
    summary = json.loads(out)
    assert summary == {"vertices": 100, "edges": 288, "min_degree": 2, "max_degree": 8, "m": 5}


def test_graph_points_file_roundtrip(capsys, tmp_path):
    pts = tmp_path / "points.txt"
    pts.write_text("".join(f"{x} {y}\n" for x in range(10) for y in range(10)))
    code, out, _ = run(capsys, ["graph", "--points", str(pts), "--m", "5"])
    assert code == 0
    assert json.loads(out)["edges"] == 288
    assert run(capsys, ["graph", "--points", str(pts)])[0] == 2  # --m required
    assert run(capsys, ["graph"])[0] == 2


def test_reps_prints_sorted_points(capsys):
    code, out, _ = run(capsys, ["reps", "--m", "65"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    got = [tuple(int(v) for v in line.split()) for line in lines]
    assert got == sorted(p.as_tuple() for p in representations([5, 13]))
    assert run(capsys, ["reps", "--m", "12"])[0] == 2
    assert run(capsys, ["reps", "--m", "25"])[0] == 2  # not squarefree


def test_config_subcommand(capsys):
    code, out, _ = run(capsys, ["config", "--n", "400"])
    assert code == 0
    assert json.loads(out) == {"n": 400, "r": 3, "m": 65, "primes": [5, 13], "side": 20}
    assert run(capsys, ["config", "--n", "2"])[0] == 2


def test_chebyshev_subcommand(capsys):
    code, out, _ = run(capsys, ["chebyshev", "--kind", "pi", "--x", "100"])
    assert code == 0
    assert out.strip() == "11"
    code, out, _ = run(capsys, ["chebyshev", "--kind", "theta", "--x", "30"])
    assert float(out) == pytest.approx(10.374896443938328, rel=1e-12)
    code, out, _ = run(capsys, ["chebyshev", "--kind", "psi", "--x", "30", "--d", "4", "--a", "3"])
    assert code == 0


def test_chebyshev_refuses_x_past_the_sieve_cap_as_given(capsys):
    # refused before x is floored: the message names 1e+300, not its 301-digit floor
    for x, shown in (("1e300", "1e+300"), ("100000001", "100000001.0")):
        for kind in ("pi", "theta", "psi"):
            code, out, err = run(capsys, ["chebyshev", "--kind", kind, "--x", x])
            assert (code, out) == (2, ""), (x, kind)
            assert err == f"error: x = {shown} exceeds the sieve's hard cap 100000000\n", (x, kind)


def test_bounds_subcommand_json_and_csv(capsys):
    code, out, _ = run(capsys, ["bounds", "--k", "3", "--r", "2", "--log-n", "1000"])
    assert code == 0
    row = json.loads(out)
    assert row["log2_solution_bound"] == pytest.approx(14855.278502336545)
    code, out, _ = run(capsys, ["bounds", "--k", "3", "--r", "2", "--log-n", "1000", "--csv"])
    header, values = out.splitlines()
    assert header.split(",")[:3] == ["k", "r", "log_n"]
    assert values.split(",")[0] == "3"
    # exactly one of --n / --log-n
    assert run(capsys, ["bounds", "--k", "3", "--r", "2"])[0] == 2


def test_bounds_at_the_edge_of_the_float_range_print_strict_json_or_refuse(capsys):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    # k_star reads W of 5 log n: past 3.7e302 it came out wrong, past 3e305 NaN, and at 1e308 5 log n overflows
    for log_n in ("1e303", "1e306", "1e308"):
        code, out, _ = run(capsys, ["bounds", "--k", "3", "--r", "1", "--log-n", log_n])
        assert code == 0
        w = 5 * math.log(json.loads(out, parse_constant=refuse)["k_star"])
        big_l = math.log(5) + math.log(float(log_n))
        assert abs(w + math.log(w) - big_l) <= 1e-12 * big_l
    # k^4 and r pass a float, the log2 bound overflows: one error line, exit 2
    for k, r in ((str(10**78), "1"), ("3", str(10**309)), (str(10**70), "1")):
        code, out, err = run(capsys, ["bounds", "--k", k, "--r", r, "--n", "100"])
        assert (code, out) == (2, ""), (k, r)
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_paths_subcommand(capsys):
    code, out, _ = run(capsys, ["paths", "--n", "100", "--k", "2"])
    assert code == 0
    stat = json.loads(out)
    assert stat["k"] == 2
    assert stat["sample_size"] == 50
    assert stat["min_count"] >= stat["lower_bound"]
    assert stat["total_paths"] == 3128


def test_paths_stdout_is_pinned_and_holds_no_max_pair(capsys):
    # the max pair rides with each k's counts and total, for `verify` only
    for n, digest in (("100", "130e8dd0"), ("10000", "6dc22f2b")):
        code, out, _ = run(capsys, ["paths", "--n", n, "--k", "3"])
        assert code == 0 and "max_pair" not in json.loads(out)
        assert hashlib.sha256(out.encode()).hexdigest()[:8] == digest, n


def test_path_stats_draw_no_sample_without_a_k_and_refuse_one_past_maxsize():
    from udl.cli import _path_stats

    class Huge:  # side^2 beyond sys.maxsize, as at n = 10^20
        vertex_count = 10**20

        def point(self, i):
            raise AssertionError("no start should be listed")

    assert list(_path_stats(Huge(), [], 0, 0, None)) == []
    with pytest.raises(ValueError, match="cannot sample starts"):
        next(_path_stats(Huge(), [2], 0, 0, None))


def test_an_undrawable_start_sample_is_refused_before_the_grid_is_built(capsys, monkeypatch):
    # at n = 10^20 the side^2 = 10^20 vertices pass sys.maxsize; k_max = 1
    # draws no sample and goes on to build the grid
    import udl.cli

    class GridBuilt(Exception):
        pass

    def no_grid(*args):
        raise GridBuilt

    monkeypatch.setattr(udl.cli, "grid_graph", no_grid)
    with pytest.raises(ValueError, match="cannot sample starts among 100000000000000000000 vertices"):
        verify_all(10**20, 2)
    for argv in (["verify", "--n", str(10**20), "--k-max", "2"], ["paths", "--n", str(10**20), "--k", "2"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "") and "cannot sample starts" in err
    with pytest.raises(GridBuilt):
        verify_all(10**20, 1)
    with pytest.raises(GridBuilt):
        verify_all(10**18, 2)


def test_importing_the_cli_does_not_load_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, udl.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_verify_does_not_load_numpy_ma():
    # the first np.unique call imports numpy.ma, about 1 MB of resident memory
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys\nfrom udl.cli import verify_all\nverify_all(10**4, 4)\nprint('numpy.ma' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _python(code, **env_changes):
    """Run code in a fresh interpreter with src on the path; a None value unsets that variable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


_THREADS = (
    "import os\n"
    "from udl.cli import verify_all\n"
    "verify_all(10**4, 4)\n"
    "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    "if os.path.exists('/proc/self/status'):\n"
    "    print(next(line for line in open('/proc/self/status') if line.startswith('Threads:')).split()[1])\n"
)


def test_verify_loads_numpy_with_one_blas_thread():
    out = _python(_THREADS, OPENBLAS_NUM_THREADS=None)
    assert out[0] == "1"
    assert out[1:] in ([], ["1"])  # the process runs no thread but its own


def test_a_callers_blas_thread_count_is_kept():
    assert _python(_THREADS, OPENBLAS_NUM_THREADS="3")[0] == "3"


_BLAS_NAMES = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "linalg"}


def _blas_uses(tree):
    """(line, name) of each `@` and each call, attribute or import named in _BLAS_NAMES."""
    for node in ast.walk(tree):
        names = []
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            names.append("@")
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names.append(node.func.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [part for alias in node.names for part in alias.name.split(".")]
            names += (getattr(node, "module", None) or "").split(".")
        yield from ((node.lineno, name) for name in names if name == "@" or name in _BLAS_NAMES)


def test_udl_makes_no_blas_call():
    # udl loads numpy with one BLAS thread (see udl/__init__.py), which costs nothing only while no BLAS routine runs
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "udl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}: {name}" for line, name in _blas_uses(tree)]
    assert not found, found


@pytest.mark.parametrize(
    "form",
    ["a @ b", "a @= b", "np.dot(a, b)", "a.T.matmul(b)", "np.linalg.norm(a)", "inner(a, b)", "from numpy import einsum", "import numpy.linalg"],
)
def test_the_blas_guard_sees_each_form(form):
    assert list(_blas_uses(ast.parse(form)))


def test_verify_probes_no_edges_on_the_config_grid(monkeypatch):
    import udl.udgraph

    def refuse(*args):
        raise AssertionError("verify_all probed the grid for edges")

    monkeypatch.setattr(udl.udgraph, "_neighbour_table", refuse)
    report = verify_all(10**4, 3)
    assert report.passed and report.edge_count == 98_176


def test_graph_n_1e6_finishes_without_building_the_adjacency():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "udl.cli", "graph", "--n", "1000000"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=20)
    assert out.returncode == 0, out.stderr
    twice = sum((1000 - abs(dx)) * (1000 - abs(dy)) for dx, dy in two_squares_set(32045))
    assert json.loads(out.stdout) == {
        "vertices": 10**6, "edges": twice // 2, "min_degree": 16, "max_degree": 64, "m": 32045
    }


def _run_cli(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "udl.cli", *argv], env=env, capture_output=True, text=True, timeout=20
    )


def test_graph_on_no_points_with_a_huge_m_finishes(tmp_path):
    # m = 2^21 * 5^21: its 88 vectors come from the factorisation, not a sqrt(m) sweep
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    out = _run_cli("graph", "--points", str(empty), "--m", str(10**21))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"vertices": 0, "edges": 0, "min_degree": 0, "max_degree": 0, "m": 10**21}


def test_reps_of_a_prime_near_1e18_finishes():
    # a prime m = 1 (mod 4) is settled by Miller-Rabin, not trial division to 10^9
    p = 10**18 + 9
    out = _run_cli("reps", "--m", str(p))
    assert out.returncode == 0, out.stderr
    points = [tuple(map(int, line.split())) for line in out.stdout.splitlines()]
    assert len(points) == len(set(points)) == 8
    assert points == sorted(points)
    assert all(x * x + y * y == p for x, y in points)
    assert {(-y, x) for x, y in points} == set(points)


def test_reps_of_two_large_prime_factors_finishes():
    # 399165290221 * 798330580441: Pollard-Brent rho splits it, not trial division to 4*10^11
    m = 318665857834031151167461
    out = _run_cli("reps", "--m", str(m))
    assert out.returncode == 0, out.stderr
    points = [tuple(map(int, line.split())) for line in out.stdout.splitlines()]
    assert len(points) == len(set(points)) == 16
    assert all(x * x + y * y == m for x, y in points)


def test_reps_refuses_a_large_factor_3_mod_4_without_hanging():
    # (10^9 + 7)(10^9 + 9): reps needs every prime factor 1 mod 4, and 10^9 + 7 is 3 mod 4
    out = _run_cli("reps", "--m", "1000000016000000063")
    assert out.returncode == 2
    assert "prime factors [1000000007] not congruent to 1 mod 4" in out.stderr


def test_reps_refuses_a_factor_that_cannot_be_certified():
    # 1287836182261 * 2575672364521 passes all 13 Miller-Rabin witnesses and is
    # the exactness bound itself: refused, not trial-divided to 1.3*10^12
    m = "3317044064679887385961981"
    out = _run_cli("reps", "--m", m)
    assert out.returncode == 2
    assert f"cannot certify the factor {m}" in out.stderr


def test_a_semiprime_rho_cannot_split_is_refused_with_one_line(capsys, monkeypatch, tmp_path):
    # (10^20 + 129)(10^20 + 193), both 1 mod 4: rho would need about 10^10 iterations, past any cap
    m = 10000000000000000032200000000000000024897
    monkeypatch.setattr(udl.numtheory, "_RHO_ITERATIONS", 1 << 12)
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n")
    for argv in (["reps", "--m", str(m)], ["graph", "--points", str(pts), "--m", str(m)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: cannot split the composite factor {m} of {m} within 4096 Pollard-Brent iterations\n"


def _holed_box(w, h, holes):
    return [(x, y) for x in range(w) for y in range(h) if (x, y) not in holes]


def test_a_total_beyond_the_step_budget_refuses_before_any_statistic(monkeypatch):
    # verify and paths share `_path_stats`: it prices every k's counts and
    # total up front, so a total over budget refuses the run before the
    # counts it would admit have run
    import udl.cli

    ran = []
    statistics = udl.cli.path_statistics

    def spy(*args, **kwargs):
        ran.append("path_statistics")
        return statistics(*args, **kwargs)

    monkeypatch.setattr(udl.cli, "path_statistics", spy)
    g = build_graph(_holed_box(10, 10, {(3, 4), (6, 2), (7, 7)}), 5)  # R = 8
    assert g.grid is None and g.vertex_count == 97
    counts, total = 50 * 8**3, 97 * 8**3
    assert (projected_steps(g, 3, range(50)), projected_steps(g, 3)) == (counts, total)
    for budget, refused in ((counts - 1, counts), (total - 1, total)):
        with pytest.raises(StepBudgetExceeded) as exc:
            next(_path_stats(g, [2, 3], 4, 0, budget))
        assert exc.value.projected == refused
        assert ran == []
    ((row, best),) = _path_stats(g, [3], 4, 0, total)
    assert ran == ["path_statistics"]
    assert row["total_paths"] == total_irredundant_paths(g, 3)
    assert best == max_pair_count(g, 3)


def test_an_invalid_k_is_refused_before_it_is_priced():
    # pricing k = 10^9 at R = 8 would build a 3 * 10^9-bit integer, for minutes
    for k in ("1000000000", "0"):
        out = _run_cli("paths", "--n", "100", "--k", k)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: k must be in [1, 20], got {k}\n"


@st.composite
def _small_point_sets(draw):
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = [(x, y) for x in range(w) for y in range(h)]
    holes = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))  # may be none: a full grid
    return _holed_box(w, h, holes)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_small_point_sets(), st.sampled_from([1, 5, 25, 65]), st.integers(1, 4), st.data())
def test_path_stats_refuse_exactly_when_a_direct_call_would(points, m, k_hi, data):
    g = build_graph(points, m)
    ks = range(data.draw(st.integers(1, k_hi)), k_hi + 1)
    starts = [g.point(i) for i in sorted(random.Random(0).sample(range(g.vertex_count), min(50, g.vertex_count)))]
    edges = sorted({p for k in ks for p in (projected_steps(g, k, starts), projected_steps(g, k))})
    budget = data.draw(st.sampled_from(edges)) + data.draw(st.integers(-1, 1))

    def refused(statistic, *args):
        try:
            statistic(g, *args, step_budget=budget)
        except StepBudgetExceeded:
            return True
        return False

    direct = any(
        refused(count_irredundant_many, starts, k) or refused(total_irredundant_paths, k) or refused(max_pair_count, k)
        for k in ks
    )
    try:
        rows = list(_path_stats(g, ks, 0, 0, budget))
    except StepBudgetExceeded:
        rows = None
    assert (rows is None) == direct, (len(points), m, list(ks), budget)
    if rows is not None:
        assert [row["k"] for row, _ in rows] == list(ks)


_ALLOCATION = "Unable to allocate 2.00 GiB for an array with shape (268533769,) and data type int64"


def test_out_of_memory_exits_2_with_one_line(monkeypatch, capsys):
    # a rank field past the address space, as at n = 10^23 under a 2 GiB ulimit -v
    import udl.udgraph

    def fail(message):
        def allocate(*args):
            raise MemoryError(*message)

        return allocate

    monkeypatch.setattr(udl.udgraph, "_box_depth", fail([_ALLOCATION]))
    for argv in (["verify", "--n", "100", "--k-max", "1"], ["graph", "--n", "100"], ["paths", "--n", "100", "--k", "1"]):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: out of memory: {_ALLOCATION}\n"), argv
    monkeypatch.setattr(udl.udgraph, "_box_depth", fail([]))
    assert run(capsys, ["graph", "--n", "100"]) == (2, "", "error: out of memory\n")


def test_graph_file_errors_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, ["graph", "--points", str(tmp_path / "absent.txt"), "--m", "5"])
    assert (code, out) == (2, "") and err.startswith("error:") and "absent.txt" in err
    code, out, err = run(capsys, ["graph", "--n", "100", "--emit", str(tmp_path / "no" / "dir" / "e.txt")])
    assert (code, out) == (2, "") and err.startswith("error:") and "e.txt" in err


def test_graph_refuses_points_past_int64_with_one_line(tmp_path):
    # m = 65 reaches 8: a coordinate is refused once it, moved by 8, passes int64
    path = tmp_path / "points.txt"
    for rows in (["0 0", f"{2**63 - 8} 3"], ["0 0", f"{10**30} 3"], [f"{-(2**63)} 0", "1 1"], ["5 5", "5 6", f"-3 {8 - 2**63}"]):
        path.write_text("\n".join(rows) + "\n")
        out = _run_cli("graph", "--points", str(path), "--m", "65", "--emit", str(tmp_path / "e.txt"))
        assert (out.returncode, out.stdout) == (2, ""), rows
        assert out.stderr.startswith("error: coordinates from ") and out.stderr.count("\n") == 1, out.stderr
        assert not (tmp_path / "e.txt").exists()
    path.write_text(f"0 0\n{2**63 - 9} 3\n")
    out = _run_cli("graph", "--points", str(path), "--m", "65", "--emit", str(tmp_path / "e.txt"))
    assert out.returncode == 0 and json.loads(out.stdout)["vertices"] == 2, out.stderr


def test_graph_prices_its_neighbour_table_before_building_it_or_opening_the_file(capsys, tmp_path, monkeypatch):
    # n = 100: R = 8 vectors of m = 5 from each of 100 points, 800 lookups
    path = tmp_path / "edges.txt"
    pts = tmp_path / "points.txt"
    pts.write_text("".join(f"{x} {y}\n" for x in range(10) for y in range(10)))
    monkeypatch.setenv("UDL_STEP_BUDGET", "799")
    refusal = "refused: projected 800 neighbour-table lookups exceed the budget of 799; raise UDL_STEP_BUDGET to force the run\n"
    for argv in (["graph", "--n", "100", "--emit", str(path)], ["graph", "--points", str(pts), "--m", "5"]):
        assert run(capsys, argv) == (2, "", refusal), argv
        assert not path.exists()
    monkeypatch.setenv("UDL_STEP_BUDGET", "800")
    assert run(capsys, ["graph", "--n", "100", "--emit", str(path)])[0] == 0
    assert path.read_text() == (GOLDEN / "edges_10x10_m5.txt").read_text()


def test_graph_prices_its_lookups_once(capsys, tmp_path, monkeypatch):
    # a point set is priced before it is built, and emitting it is not priced again;
    # a grid is priced only when it emits, as only then does it locate its lookups.
    # Either factors m once: pricing r_2(m) and listing its vectors share one factorisation
    import udl.cli

    priced, factored = [], []
    check, trial_divide = udl.cli._check_budget, udl.numtheory._trial_divide

    def counted(projected, *rest):
        priced.append(projected)
        return check(projected, *rest)

    def counted_trial_divide(m, out):
        factored.append(m)
        return trial_divide(m, out)

    monkeypatch.setattr(udl.cli, "_check_budget", counted)
    monkeypatch.setattr(udl.numtheory, "_trial_divide", counted_trial_divide)
    full, holed, path = tmp_path / "full.txt", tmp_path / "holed.txt", tmp_path / "edges.txt"
    full.write_text("".join(f"{x} {y}\n" for x in range(10) for y in range(10)))
    holed.write_text("".join(f"{x} {y}\n" for x in range(10) for y in range(10) if (x, y) != (5, 5)))
    for argv, expect in [
        (["graph", "--points", str(full), "--m", "5", "--emit", str(path)], [800]),
        (["graph", "--points", str(holed), "--m", "5", "--emit", str(path)], [792]),
        (["graph", "--points", str(holed), "--m", "5"], [792]),
        (["graph", "--n", "100", "--emit", str(path)], [800]),
        (["graph", "--n", "100"], []),
    ]:
        priced.clear()
        factored.clear()
        udl.numtheory.factor.cache_clear()
        assert run(capsys, argv)[0] == 0, argv
        assert priced == expect and factored == [5], argv
        if "--n" in argv or argv[2] == str(full):
            assert path.read_text() == (GOLDEN / "edges_10x10_m5.txt").read_text()


def test_graph_prices_a_huge_r2_from_the_factorisation_before_listing_its_vectors(capsys, tmp_path, monkeypatch):
    # m, the product of the first 28 primes = 1 (mod 4), trial-divides at once, but
    # r_2(m) = 4 * 2^28 > 10^9: one point is refused before ~10^9 vectors are listed
    import udl.udgraph

    primes = [p for p in range(5, 300, 4) if is_prime_slow(p)][:28]
    assert len(primes) == 28
    path = tmp_path / "points.txt"
    path.write_text("0 0\n")

    def unlisted(factors):
        raise AssertionError("lattice vectors listed before the run was priced")

    monkeypatch.setattr(udl.udgraph, "_lattice_points", unlisted)
    code, out, err = run(capsys, ["graph", "--points", str(path), "--m", str(math.prod(primes))])
    assert (code, out) == (2, "")
    assert err.startswith(f"refused: projected {4 << 28} ") and err.count("\n") == 1, err


def test_graph_emit_replaces_the_file_only_once_it_is_whole(capsys, tmp_path, monkeypatch):
    import udl.udgraph

    lines = udl.udgraph.UnitDistanceGraph.edge_lines
    monkeypatch.setattr(udl.udgraph, "_GATHER_BUDGET", 80)  # R = 8: ten blocks of ten vertices

    def fail_midway(self):
        yield from islice(lines(self), 5)
        raise MemoryError()

    monkeypatch.setattr(udl.udgraph.UnitDistanceGraph, "edge_lines", fail_midway)
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("kept\n")
    for path in (old, new):
        assert run(capsys, ["graph", "--n", "100", "--emit", str(path)]) == (2, "", "error: out of memory\n")
    assert old.read_text() == "kept\n" and not new.exists()
    assert os.listdir(tmp_path) == ["old.txt"]  # no temporary file is left behind
    monkeypatch.setattr(udl.udgraph.UnitDistanceGraph, "edge_lines", lines)
    assert run(capsys, ["graph", "--n", "100", "--emit", str(old)])[0] == 0
    assert old.read_text() == (GOLDEN / "edges_10x10_m5.txt").read_text()
    assert os.listdir(tmp_path) == ["old.txt"]


def test_graph_emit_at_1e7_is_refused_in_a_gibibyte_before_the_file_exists(tmp_path):
    # 9 998 244 points times R = 128 is 1.28 * 10^9 lookups and a 10 GB table
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = tmp_path / "edges.txt"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("UDL_STEP_BUDGET", None)
    argv = [sys.executable, "-m", "udl.cli", "graph", "--n", str(10**7), "--emit", str(path)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=20, preexec_fn=cap)
    assert (out.returncode, out.stdout) == (2, ""), out.stderr
    assert out.stderr.startswith("refused: projected 1279775232 neighbour-table lookups") and "--step-budget" not in out.stderr
    assert not path.exists()


def test_graph_malformed_points_line_names_the_file_and_line(capsys, tmp_path):
    pts = tmp_path / "points.txt"
    for bad in ("1 x", "0 0 0", "7"):
        pts.write_text(f"0 0\n\n{bad}\n1 1\n")
        code, out, err = run(capsys, ["graph", "--points", str(pts), "--m", "5"])
        assert (code, out) == (2, ""), bad
        assert err == f"error: {pts}, line 3: expected two integers 'x y', got {bad!r}\n", bad


def test_verify_emit_file_error_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, ["verify", "--n", "100", "--emit", str(tmp_path / "no" / "dir" / "r.json")])
    assert (code, out) == (2, "") and err.startswith("error:") and "r.json" in err


def test_verify_emit_keeps_the_old_report_when_the_move_fails(capsys, tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    path.write_text("kept\n")

    def refuse(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, None, dst)

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run(capsys, ["verify", "--n", "100", "--k-max", "2", "--emit", str(path)])
    assert (code, out) == (2, "") and str(path) in err and ".tmp" not in err, err
    assert path.read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["report.json"]  # no temporary file is left behind


def test_emit_errors_name_the_target_not_the_temporary(capsys, tmp_path, monkeypatch):
    missing = tmp_path / "no" / "dir" / "out.txt"
    for argv in (["graph", "--n", "100"], ["verify", "--n", "100", "--k-max", "1"]):
        code, out, err = run(capsys, [*argv, "--emit", str(missing)])
        assert (code, out) == (2, ""), argv
        assert err == f"error: cannot write {missing}: {os.strerror(errno.ENOENT)}\n", argv

    def refuse(src, dst):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), src, None, dst)

    monkeypatch.setattr(os, "replace", refuse)
    for argv in (["graph", "--n", "100"], ["verify", "--n", "100", "--k-max", "1"]):
        code, out, err = run(capsys, [*argv, "--emit", str(tmp_path / "out.txt")])
        assert (code, out) == (2, ""), argv
        assert err == f"error: cannot write {tmp_path / 'out.txt'}: {os.strerror(errno.EACCES)}\n", argv
    assert os.listdir(tmp_path) == []  # no temporary file is left behind


def test_graph_refuses_options_it_would_ignore(capsys, tmp_path):
    pts = tmp_path / "points.txt"
    pts.write_text("0 0\n3 4\n")
    edges = tmp_path / "edges.txt"
    for argv, message in (
        (["graph", "--n", "100", "--m", "7"], "--m needs --points: --n picks its own m"),
        (["graph", "--n", "100", "--points", str(pts), "--m", "5"], "give --n or --points, not both"),
    ):
        assert run(capsys, argv) == (2, "", f"error: {message}\n"), argv
        assert run(capsys, [*argv, "--emit", str(edges)]) == (2, "", f"error: {message}\n"), argv
        assert not edges.exists()
    assert run(capsys, ["graph", "--points", str(pts), "--m", "5"])[0] == 0


def test_non_finite_numbers_exit_2(capsys):
    for argv in (
        ["chebyshev", "--x", "inf"],
        ["chebyshev", "--x", "nan"],
        ["bounds", "--k", "2", "--r", "1", "--log-n", "nan"],
        ["bounds", "--k", "2", "--r", "1", "--log-n", "inf"],
        ["bounds", "--k", "2", "--r", "1", "--n", "inf"],
        ["bounds", "--k", "2", "--r", "1", "--n", "nan"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "finite" in err, argv


def test_verify_takes_the_degree_range_once(monkeypatch):
    import udl.udgraph

    calls = []
    original = udl.udgraph._grid_degree_range

    def counted(*args):
        calls.append(args[:2])
        return original(*args)

    monkeypatch.setattr(udl.udgraph, "_grid_degree_range", counted)
    verify_all(100, 2)
    assert len(calls) == 1, calls


def test_representation_defect_is_zero_only_on_the_norm_m_points():
    for m in range(1, 2001):
        assert _representation_defect(sorted(two_squares_set(m)), m) == 0, m
    vectors = sorted(two_squares_set(5 * 13 * 17))
    assert len(vectors) == 32
    missing = vectors[1:]
    duplicate = vectors + vectors[:1]
    wrong_norm = vectors[1:] + [(vectors[0][0], vectors[0][1] + 1)]
    extra = vectors + [(0, 0)]
    for bad in (missing, duplicate, wrong_norm, extra):
        assert _representation_defect(bad, 5 * 13 * 17) > 0
