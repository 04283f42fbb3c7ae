"""Study-level benchmark: run one workload for a fixed time and report it.

    python3 perfbench/run.py --workload paper-campaign --seed 2007 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

A run starts fresh sample processes (``child.py``).  Each one imports the
package, builds the workload from the seed once, then executes the plan
and saves the store repeatedly until its share of ``--seconds`` is used.
With ``--trace 0`` the timed end-to-end metrics come from the run's
fastest execution, and set-up time and memory are medians over the
processes.  With ``--trace 1`` one untraced process is
followed by one traced execution, which gives the per-layer metrics; the
difference of their ``run_s`` is ``trace_overhead_s``.  Every store passes
the correctness gate (``gate.py``) or the run reports ``correct: false``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the environment block.  ``--results FILE`` also appends the whole
result to a JSON-lines file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import studies

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Untraced sample processes per run; each measures set-up once.
PROCESSES = 3
#: A run must end inside three minutes whatever the host does.
RUN_LIMIT_S = 170.0


class SampleError(RuntimeError):
    """A sample process failed or produced no result."""


def _run_sample(
    workload: str, seed: int, workdir: str, deadline: float, limit: float, traced: bool,
    expect: float,
) -> Dict[str, Any]:
    """Run one sample process; it repeats the plan until ``deadline``.

    ``expect`` is an execution's duration seen earlier in the run, or 0 to
    make the process execute at least once.
    """
    os.makedirs(workdir)
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), workdir]
    log_path = os.path.join(workdir, "child.log")
    with open(log_path, "w", encoding="utf-8") as log:
        launch = time.monotonic()
        # A session of its own lets a stop take the pool workers down too.
        proc = subprocess.Popen(
            cmd + [repr(launch), repr(deadline), repr(expect)] + (["--traced"] if traced else []),
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, limit - launch))
        except BaseException as exc:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise SampleError(f"{workload} sample ran past the run's time limit")
            raise
    result_path = os.path.join(workdir, "sample.json")
    if code != 0 or not os.path.exists(result_path):
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-3000:]
        raise SampleError(f"{workload} sample exited with {code}:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _layer_metrics(workdir: str, sample: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced sample, from its span files."""
    import layers
    import spans

    totals = spans.layer_totals(spans.load_span_files(workdir), sample["run_id"])
    out: Dict[str, float] = {}
    for layer in layers.LAYERS:
        out[f"{layer}.calls"] = float(totals.calls.get(layer, 0))
        out[f"{layer}.busy_s"] = totals.busy.get(layer, 0.0)
        out[f"{layer}.self_s"] = totals.self_s.get(layer, 0.0)
    c = totals.counters
    out["sim.events"] = c.get("sim.events", 0.0)
    committed = c.get("stripe.blocks_committed", 0.0)
    duplicate = c.get("stripe.blocks_duplicate", 0.0)
    out["stripe.blocks_committed"] = committed
    out["stripe.blocks_duplicate"] = duplicate
    out["stripe.useful_ratio"] = (
        committed / (committed + duplicate) if committed + duplicate else 0.0
    )
    units = totals.intervals["workloads.unit"]
    unit_ms = [1e3 * (e - s) for s, e in units]
    tail = spans.tail_percentile(len(unit_ms))
    out["workloads.unit_ms_p50"] = spans.nearest_rank(unit_ms, 50.0)
    out["workloads.unit_ms_p90"] = spans.nearest_rank(unit_ms, tail)
    out["workloads.unit_ms_tail_pct"] = tail
    plans = totals.intervals["runner.execute_plan"]
    run_s = sum(e - s for s, e in plans)
    out["runner.first_result_s"] = min(s for s, _ in units) - min(s for s, _ in plans)
    out["runner.worker_busy_frac"] = sum(e - s for s, e in units) / (
        c.get("runner.jobs", 1.0) * run_s
    )
    out["runner.failed_attempts"] = c.get("runner.failed_attempts", 0.0)
    out["runner.retried_units"] = c.get("runner.retried_units", 0.0)
    out["trace.bytes_written"] = c.get("trace.bytes_written", 0.0)
    if len(units) != sample["planned"] + int(out["runner.failed_attempts"]):
        raise SampleError(
            f"{len(units)} unit spans for {sample['planned']} planned units: "
            "a pool worker's spans are missing"
        )
    return out


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, scratch: str
) -> Dict[str, Any]:
    """Run sample processes of ``workload`` for ``seconds`` and summarise them.

    Untraced runs start :data:`PROCESSES` processes that share the time
    equally.  Traced runs give half of it to one untraced process, then
    execute the plan once in a traced process.  The first process always
    executes the plan; a later one only sets up when its share is used up.

    The host's speed drifts, and a slow spell only ever adds time, so the
    timed metrics take the run's fastest execution; ``setup_s`` and
    ``peak_rss_mb`` are medians over the processes.
    """
    import gate

    pinned = gate.pinned_digests(workload, seed)
    started = time.monotonic()
    limit = started + RUN_LIMIT_S
    if trace:
        schedule = [(started + seconds / 2, False), (started, True)]
    else:
        schedule = [(started + seconds * (i + 1) / PROCESSES, False) for i in range(PROCESSES)]
    samples: List[Dict[str, Any]] = []
    per_layer: Dict[str, float] = {}
    expect = 0.0
    for n, (deadline, traced) in enumerate(schedule):
        workdir = os.path.join(scratch, f"{workload}-{n}")
        sample = _run_sample(
            workload, seed, workdir, deadline, limit, traced, 0.0 if traced else expect
        )
        if traced:
            per_layer = _layer_metrics(workdir, sample)
        elif sample["repeats"]:
            expect = min(r["run_s"] + r["save_s"] for r in sample["repeats"])
        shutil.rmtree(workdir)
        samples.append(sample)

    repeats = [r for s in samples for r in s["repeats"]]
    problems = [p for r in repeats for p in r["problems"]]
    digests = sorted({tuple(r["sha256"]) for r in repeats})
    if len(digests) > 1:
        problems.append(f"repeats of one seed wrote different stores: {digests}")
    if pinned is not None and digests != [tuple(pinned)]:
        problems.append(f"store sha256 {digests} differs from the pinned {pinned}")
    correct = not problems
    attempted = sum(s["planned"] * len(s["repeats"]) for s in samples)
    failed = sum(r["failed_attempts"] + r["missing"] for r in repeats)
    if not correct:
        failed = attempted

    plain = [s for s in samples if not s["traced"]]
    timed = [(s, r) for s in plain for r in s["repeats"]]
    e2e = {
        "wall_s": min(s["setup_s"] + r["run_s"] + r["save_s"] for s, r in timed),
        "setup_s": statistics.median([s["setup_s"] for s in plain]),
        "run_s": min(r["run_s"] for _, r in timed),
        "transfers_per_s": max(r["transfers"] / r["run_s"] for _, r in timed),
        # A process that only set up never reached the study's peak.
        "peak_rss_mb": statistics.median([s["peak_rss_mb"] for s in plain if s["repeats"]]),
    }
    if trace:
        traced_run_s = [r["run_s"] for s in samples if s["traced"] for r in s["repeats"]]
        per_layer["process.import_s"] = statistics.median([s["import_s"] for s in samples])
        per_layer["trace_overhead_s"] = statistics.median(traced_run_s) - e2e["run_s"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": correct,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_unit_frac": failed / attempted,
        "processes": len(samples),
        "executions": len(repeats),
        "end_to_end": e2e,
        "per_layer": per_layer,
        "measured_s": time.monotonic() - started,
    }


def _print_table(result: Dict[str, Any], units: Dict[str, str]) -> None:
    w = result["workload"]
    print(
        f"{w}: {result['executions']} executions in {result['processes']} processes"
        f" over {result['measured_s']:.1f}s, correct={result['correct']}"
    )
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(f"  {'failed_unit_frac':<34} {result['failed_unit_frac']:>14.6g} ratio")
    for key, value in {**result["end_to_end"], **result["per_layer"]}.items():
        print(f"  {key:<34} {value:>14.6g} {units.get(key, '')}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(studies.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=studies.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=None, metavar="FILE",
                        help="also append each workload's full result to this JSON-lines file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    import hostenv

    env = hostenv.environment(ROOT)
    names = tuple(studies.WORKLOADS) if args.workload == "all" else (args.workload,)
    scratch = os.path.join(ROOT, ".perfbench_run", f"run-{os.getpid()}")
    results = []
    try:
        for name in names:
            try:
                result = run_workload(name, args.seed, seconds, bool(args.trace), scratch)
            except SampleError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            result["environment"] = env
            results.append(result)
            _print_table(result, units)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run is still using it

    if args.results:
        with open(args.results, "a", encoding="utf-8") as fh:
            for result in results:
                fh.write(json.dumps(result, sort_keys=True) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    metrics: Dict[str, Dict[str, Any]] = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        for key, value in result[section].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
