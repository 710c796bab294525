import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from udl.cli import dispatch, verify_all
from udl.gaussian import representations

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


def test_importing_the_cli_does_not_load_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, udl.cli; print('numpy' in sys.modules)"
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
