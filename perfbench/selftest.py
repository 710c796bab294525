"""Self-tests of the benchmark's own logic; they start no job process.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _verify_result(workload: str) -> dict:
    """A job result whose report carries the reference fields and passes."""
    ref = workloads.load_reference()[workload]
    report = {**copy.deepcopy(ref), "rank_window": None, "bound_checks": [], "info_checks": [], "pass": True}
    for stat in report["path_stats"]:
        stat.update(min_count=1, max_count=1, lower_bound=1)
    return {"text": json.dumps(report, indent=2) + "\n", "problems": [], "exit": 0}


def _job(result: dict, workload: str, traced: bool = False, job_s: float = 1.0) -> dict:
    return {
        "traced": traced, "exit": result["exit"], "setup_s": 0.1, "job_s": job_s, "cpu_s": job_s,
        "rss_mb": 100.0, "speed": 1.0, "text": result["text"], "spans": [],
        "problems": workloads.check_output(workload, result, workloads.load_reference()),
    }


def test_closed_form_edge_counts():
    assert workloads.grid_edge_count(10, 5) == 288
    assert workloads.grid_edge_count(20, 65) == 1744


def test_reference_report_passes_the_checks():
    for workload in workloads.VERIFY_SIZES:
        assert workloads.check_output(workload, _verify_result(workload), workloads.load_reference()) == []


def test_corrupted_output_raises_fail_frac():
    good = _verify_result("verify-deep")
    corrupt = copy.deepcopy(good)
    report = json.loads(corrupt["text"])
    report["edge_count"] += 1
    corrupt["text"] = json.dumps(report, indent=2) + "\n"

    clean = [_job(good, "verify-deep"), _job(good, "verify-deep")]
    run.mark_mismatches(clean)
    assert run.summarize(clean, [0.1], trace=False)["ok_frac"] == 1.0

    jobs = [_job(good, "verify-deep"), _job(corrupt, "verify-deep")]
    run.mark_mismatches(jobs)
    assert any("closed form" in p for p in jobs[1]["problems"])
    assert any("differs from the first job" in p for p in jobs[1]["problems"])
    assert run.summarize(jobs, [0.1], trace=False)["ok_frac"] == 0.5


def test_failed_report_and_child_problems_count_as_failures():
    report = json.loads(_verify_result("verify-wide")["text"])
    report["pass"] = False
    failing = {"text": json.dumps(report), "problems": [], "exit": 1}
    assert "report pass is not true" in workloads.check_output("verify-wide", failing, workloads.load_reference())
    child = {"text": "{}", "problems": ["lattice_vectors(m) differs"], "exit": 0, "solutions": 514}
    assert workloads.check_output("arith", child, workloads.load_reference()) == ["lattice_vectors(m) differs"]


def _span(i, name, start, end, parent=None, k=None, **counts):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "k": k,
            "rss0_kb": 0, "rss1_kb": 0, **counts}


def test_self_time_on_nested_tree():
    tree = [
        _span(0, "cli.verify_all", 0.0, 10.0),
        _span(1, "udgraph.build_graph", 1.0, 3.0, parent=0),
        _span(2, "udgraph.lattice_vectors", 1.5, 2.0, parent=1),
        _span(3, "paths.max_pair_count", 4.0, 9.0, parent=0, k=3),
        _span(4, "paths.per_pair_counts", 5.0, 8.0, parent=3, k=3),
        _span(5, "udgraph.lattice_vectors", 8.5, 9.5, parent=3),  # runs past its parent's end
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 3.0, 1: 1.5, 2: 0.5, 3: 1.5, 4: 3.0, 5: 1.0}
    metrics = spans.layer_metrics(tree)
    assert metrics["cli.verify_all.self_s"] == 3.0
    assert metrics["paths.max_pair_count.k3.s"] == metrics["paths.max_pair_count.s"] == 1.5
    assert metrics["paths.max_pair_count.k2.s"] == 0.0
    assert metrics["udgraph.lattice_vectors.s"] == 1.5


def test_span_table_keeps_jobs_apart():
    job_a = [_span(0, "cli.verify_all", 0.0, 4.0), _span(1, "udgraph.peel", 1.0, 2.0, parent=0)]
    job_b = [_span(0, "udgraph.peel", 0.0, 3.0)]  # same id, another job
    assert spans.span_table([job_a, job_b]) == [("udgraph.peel", 2, 4.0, 4.0), ("cli.verify_all", 1, 4.0, 3.0)]


def test_counters_give_rates_and_yields():
    tree = [
        _span(0, "paths.count_irredundant_many", 0.0, 2.0, k=2, paths=300, attempts=1000),
        _span(1, "paths.count_irredundant_many", 2.0, 3.0, k=3, paths=100, attempts=1000),
        _span(2, "udgraph.peel", 3.0, 4.0, kept=90, **{"in": 100}),
    ]
    metrics = spans.layer_metrics(tree)
    assert metrics["paths.count_irredundant_many.paths_per_s"] == 400 / 3.0
    assert metrics["paths.count_irredundant_many.yield"] == 0.2
    assert metrics["paths.count_irredundant_many.k2.yield"] == 0.3
    assert metrics["udgraph.peel.kept_frac"] == 0.9
    slow_host = spans.layer_metrics(tree, speed=0.5)
    assert slow_host["paths.count_irredundant_many.s"] == 1.5
    assert slow_host["paths.count_irredundant_many.paths_per_s"] == 800 / 3.0


def test_printed_metric_names_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    good = _verify_result("verify-deep")
    jobs = [_job(good, "verify-deep"), _job(good, "verify-deep", traced=True, job_s=1.1)]
    jobs[1]["spans"] = [_span(0, "cli.verify_all", 0.0, 1.0)]
    end_to_end = run.summarize(jobs, [0.1], trace=False)
    per_layer = run.summarize(jobs, [0.1], trace=True)
    assert list(end_to_end) == [m["name"] for m in declared["end_to_end"]]
    assert list(per_layer) == [m["name"] for m in declared["per_layer"]]
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    for m in declared["per_layer"]:
        assert (m["unit"], m["better"]) == (spans.metric_unit(m["name"]), spans.metric_better(m["name"]))
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok  {fn.__name__}")
    print(f"{len(tests)} self-tests passed")
