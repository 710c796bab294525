"""The udl benchmark: run one workload as a series of jobs, each in a fresh
process, check every job's output, and print the metrics.

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  One
process drives the load in a closed loop: it starts the next job when the
previous one has exited, until --seconds have passed (at least two jobs).

Time metrics are in reference seconds: measured seconds scaled by the host
speed that HostProbe samples while the job runs.  On the shared 2-vCPU VM
this was written on, the host's speed drifts by up to 25% within seconds and
minutes, which gives raw job times a 10% coefficient of variation; scaled,
it is 4%.  Raw seconds are printed per job.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced jobs and prints the per-layer metrics; the
traced jobs' spans go to perfbench/out/spans-<workload>-<seed>.jsonl.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
JOB = HERE / "job.py"

MIN_JOBS = 2
SETUP_PROBES = 10  # extra set-up-only starts, so setup_s is a median of several
RUN_LIMIT_S = 170.0  # a run ends within 180 s; a job still going then is killed
PROBE_LOOP_N = 60_000
PROBE_REF_S = 0.0045  # typical CPU seconds of one probe loop on the VM named above
PROBE_INTERVAL_S = 0.2

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class HostProbe:
    """Samples the host's speed while a child process runs.

    Every PROBE_INTERVAL_S a thread times PROBE_LOOP_N rounds of a fixed
    pure-Python loop on its own CPU clock.  Sharing a CPU with the job does
    not lengthen a sample, but a slower host does, so the mean sample tracks
    the speed the job saw.  The thread is busy about 2% of the time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while True:
            start = time.thread_time()
            acc = 0
            for i in range(PROBE_LOOP_N):
                acc += i * i
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    @property
    def speed(self) -> float:
        """Reference seconds per measured second."""
        return PROBE_REF_S / statistics.fmean(self.samples)


def _spawn(args: list[str], timeout: float) -> tuple[int, str, str]:
    """Run one child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(JOB), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -signal.SIGKILL, out, f"killed after {timeout:.0f} s\n{err}"
    return proc.returncode, out, err


def setup_probe(timeout: float) -> float | None:
    """Seconds from spawn until the child has imported udl, or None."""
    spawned = time.perf_counter()
    code, out, err = _spawn(["--setup-only"], timeout)
    if code != 0:
        sys.stderr.write(err)
        return None
    return json.loads(out.splitlines()[-1])["ready"] - spawned


def run_job(workload: str, input_path: Path, traced: bool, timeout: float, reference: dict) -> dict:
    """One job in a fresh process; returns its timings and the problems found."""
    spawned = time.perf_counter()
    args = [workload, str(input_path)] + (["--trace"] if traced else [])
    code, out, err = _spawn(args, timeout)
    job = {"traced": traced, "exit": code}
    try:
        data = json.loads(out.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        job["problems"] = [f"job exited {code} without a result: {err.strip()[-500:]}"]
        return job
    job.update(
        setup_s=data["ready"] - spawned,
        job_s=data["job_s"],
        cpu_s=data["cpu_s"],
        rss_mb=data["rss_kb"] / 1024,
        text=data["result"]["text"],
        spans=data["spans"],
        problems=workloads.check_output(workload, data["result"], reference),
    )
    if code != 0:
        job["problems"].append(f"job exited {code}")
    return job


def summarize(jobs: list[dict], setups: list[float], trace: bool) -> dict[str, float]:
    """The metrics of one run: end-to-end without trace, per-layer with it."""
    plain = [j for j in jobs if "job_s" in j and not j["traced"]]
    if not trace:
        return {
            "setup_s": statistics.median(setups + [j["setup_s"] * j["speed"] for j in plain]),
            "job_s": statistics.median(j["job_s"] * j["speed"] for j in plain),
            "cpu_s": statistics.median(j["cpu_s"] * j["speed"] for j in plain),
            "peak_rss_mb": max(j["rss_mb"] for j in plain),
            "ok_frac": sum(1 for j in jobs if not j["problems"]) / len(jobs),
        }
    traced = [j for j in jobs if "job_s" in j and j["traced"]]
    out = spans.median_metrics([spans.layer_metrics(j["spans"], j["speed"]) for j in traced])
    out[spans.OVERHEAD_METRIC] = (
        statistics.median(j["job_s"] * j["speed"] for j in traced)
        / statistics.median(j["job_s"] * j["speed"] for j in plain)
        - 1.0
    )
    return out


def mark_mismatches(jobs: list[dict]) -> None:
    """Jobs of one run share a seed, so their outputs must be byte-identical."""
    texts = [j["text"] for j in jobs if "text" in j]
    for j in jobs:
        if "text" in j and j["text"] != texts[0]:
            j["problems"].append("output differs from the first job's output for the same seed")


def print_layers(jobs: list[dict]) -> None:
    traced = [j for j in jobs if j["traced"] and "spans" in j]
    if not traced:
        return
    job_total = sum(j["job_s"] for j in traced)
    print(f"per-layer spans over {len(traced)} traced job(s), {job_total:.3f} raw seconds of job time")
    print(f"  {'span':<34}{'calls':>7}{'total s':>10}{'self s':>10}{'self %':>8}")
    for name, calls, total, self_s in spans.span_table([j["spans"] for j in traced]):
        print(f"  {name:<34}{calls:>7}{total:>10.3f}{self_s:>10.3f}{100 * self_s / job_total:>7.1f}%")


def write_spans(path: Path, jobs: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for index, j in enumerate(jobs):
            for s in j.get("spans", ()):
                fh.write(json.dumps({"job": index, **s}) + "\n")


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "udl" / "__init__.py").is_file():
        print(f"error: no udl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    input_path = OUT / f"input-{args.workload}-{args.seed}.json"
    input_path.write_text(json.dumps(workloads.make_input(args.workload, args.seed)), encoding="utf-8")
    reference = workloads.load_reference()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    # the first start compiles bytecode; it is not a measurement
    if setup_probe(remaining()) is None:
        print("error: the job process cannot import udl", file=sys.stderr)
        return 2
    with HostProbe() as probe:
        setups = [setup_probe(remaining()) for _ in range(SETUP_PROBES)]
    if None in setups:
        print("error: a set-up probe failed", file=sys.stderr)
        return 2
    setups = [s * probe.speed for s in setups]

    jobs: list[dict] = []
    loop_start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - loop_start < args.seconds:
        if remaining() <= 1.0:
            break
        traced = bool(args.trace) and len(jobs) % 2 == 1
        with HostProbe() as probe:
            job = run_job(args.workload, input_path, traced, remaining(), reference)
        job["speed"] = probe.speed
        jobs.append(job)
    mark_mismatches(jobs)

    failed = [j for j in jobs if j["problems"]]
    for index, j in enumerate(jobs):
        state = "FAIL " + "; ".join(j["problems"]) if j["problems"] else "ok"
        timing = f"raw setup {j['setup_s']:.4f} s  job {j['job_s']:.3f} s  cpu {j['cpu_s']:.3f} s  " \
                 f"rss {j['rss_mb']:.1f} MB  speed {j['speed']:.3f}" if "job_s" in j else "no timings"
        print(f"job {index} {'traced' if j['traced'] else 'plain '}  {timing}  {state}")
    if not any("job_s" in j and not j["traced"] for j in jobs) or (
        args.trace and not any("job_s" in j and j["traced"] for j in jobs)
    ):
        print("error: no job finished, so there is nothing to report", file=sys.stderr)
        return 1

    metrics = summarize(jobs, setups, bool(args.trace))
    if args.trace:
        print_layers(jobs)
        write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl", jobs)
        units = {name: spans.metric_unit(name) for name in metrics}
    else:
        units = END_TO_END
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs, {len(failed)} failed")
    for name, value in metrics.items():
        print(f"  {name:<48}{value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
