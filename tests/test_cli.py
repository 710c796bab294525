import json
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

from oracles import two_squares_set

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


def test_paths_subcommand(capsys):
    code, out, _ = run(capsys, ["paths", "--n", "100", "--k", "2"])
    assert code == 0
    stat = json.loads(out)
    assert stat["k"] == 2
    assert stat["sample_size"] == 50
    assert stat["min_count"] >= stat["lower_bound"]
    assert stat["total_paths"] == 3128


def test_path_stats_draw_no_sample_without_a_k_and_refuse_one_past_maxsize():
    from udl.cli import _path_stats

    class Huge:  # side^2 beyond sys.maxsize, as at n = 10^20
        vertex_count = 10**20

        def point(self, i):
            raise AssertionError("no start should be listed")

    assert list(_path_stats(Huge(), [], 0, 0, None)) == []
    with pytest.raises(ValueError, match="cannot sample starts"):
        next(_path_stats(Huge(), [2], 0, 0, None))


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


def test_verify_probes_no_edges_on_the_config_grid(monkeypatch):
    import udl.udgraph

    def refuse(*args):
        raise AssertionError("verify_all probed the grid for edges")

    monkeypatch.setattr(udl.udgraph, "_probe", refuse)
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


def _holed_box(w, h, holes):
    return [(x, y) for x in range(w) for y in range(h) if (x, y) not in holes]


def test_a_total_beyond_the_step_budget_refuses_before_any_statistic(monkeypatch):
    # verify and paths share `_path_stats`: it prices every k's counts and
    # total up front, so a total over budget refuses the run before the
    # counts it would admit have run
    import udl.cli

    ran = []

    def spy(name, statistic):
        def run_and_note(*args, **kwargs):
            ran.append(name)
            return statistic(*args, **kwargs)

        return run_and_note

    for name in ("count_irredundant_many", "total_irredundant_paths", "max_pair_count"):
        monkeypatch.setattr(udl.cli, name, spy(name, getattr(udl.cli, name)))
    g = build_graph(_holed_box(10, 10, {(3, 4), (6, 2), (7, 7)}), 5)  # R = 8
    assert g.grid is None and g.vertex_count == 97
    counts, total = 50 * 8**3, 97 * 8**3
    assert (projected_steps(g, 3, range(50)), projected_steps(g, 3)) == (counts, total)
    for budget, refused in ((counts - 1, counts), (total - 1, total)):
        with pytest.raises(StepBudgetExceeded) as exc:
            next(_path_stats(g, [2, 3], 4, 0, budget))
        assert exc.value.projected == refused
        assert ran == []
    (row,) = _path_stats(g, [3], 4, 0, total)
    assert ran == ["count_irredundant_many", "total_irredundant_paths"]
    assert row["total_paths"] == total_irredundant_paths(g, 3)


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
        assert [row["k"] for row in rows] == list(ks)


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


def test_graph_emit_replaces_the_file_only_once_it_is_whole(capsys, tmp_path, monkeypatch):
    import udl.udgraph

    lines = udl.udgraph.UnitDistanceGraph.edge_lines

    def fail_midway(self):
        yield from islice(lines(self), 100)
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
