"""Same-host A/B comparison of two benchmark result sets.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds results appended by ``run.py --results FILE``.  Produce
them interleaved on one host, alternating which side runs first, e.g.::

    for seed in $(seq 1 10); do
      order="parent change"; [ $((seed % 2)) = 1 ] && order="change parent"
      for side in $order; do
        (cd $side && python3 perfbench/run.py --workload fault-studies \\
           --seed $seed --results ../$side.jsonl)
      done
    done

The n-th untraced result of a workload in one file is paired with the
n-th of the same workload in the other.  For every workload and
end-to-end metric the command prints each side's median and quartiles and
the share of pairs the change won (ties count for neither), then a
verdict: ``gain`` when the change won at least nine tenths of the pairs and
the medians differ by more than the parent's quartile spread,
``regression`` when the change's median is worse than the parent's by
more than the metric's bound in ``BENCHMARK.json``, ``unresolved`` when the
parent's own spread is wider than that bound, and ``same`` otherwise.
Exit code 1 means a regression or an incorrect run; 2 means the two sets
were measured on different hosts or cannot be paired.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("cpu_model", "nproc", "python", "numpy")


def load(path: str) -> List[Dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[float, str]:
    """Share of pairs the change won, and the verdict for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if sign * (cm - pm) < -bound * abs(pm):
        return share, "regression"
    if share >= 0.9 and abs(cm - pm) > p3 - p1:
        return share, "gain"
    if (p3 - p1) > bound * abs(pm) and not all(
        sign * (c - p) > 0 for p in parent for c in change
    ):
        return share, "unresolved"
    return share, "same"


def _by_workload(results: List[Dict]) -> Dict[str, List[Dict]]:
    out: Dict[str, List[Dict]] = {}
    for r in results:
        if r["trace"] == 0:
            out.setdefault(r["workload"], []).append(r)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent_all, change_all = load(args[0]), load(args[1])
    hosts = {
        tuple(r["environment"][k] for k in HOST_KEYS) for r in parent_all + change_all
    }
    if len(hosts) > 1:
        print(f"error: results come from different hosts: {sorted(hosts)}", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    revs = [
        sorted({r["environment"]["git_revision"] for r in side})
        for side in (parent_all, change_all)
    ]
    print(f"parent {revs[0]}  change {revs[1]}  host {sorted(hosts)[0]}")
    parent, change = _by_workload(parent_all), _by_workload(change_all)
    status = 0
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            print(f"error: {workload} has no runs on one side", file=sys.stderr)
            return 2
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        if [r["seed"] for r in p_runs] != [r["seed"] for r in c_runs]:
            print(f"error: {workload} pairs were run on different seeds", file=sys.stderr)
            return 2
        wrong = sum(1 for r in p_runs + c_runs if not r["correct"])
        print(f"\n{workload}: {n} pairs" + (f", {wrong} incorrect runs" if wrong else ""))
        if wrong:
            status = 1
        print(f"  {'metric':<16} {'parent q1/median/q3':>32} {'change q1/median/q3':>32}  won  verdict")
        for m in metrics:
            name = m["name"]
            pv = [r["end_to_end"][name] for r in p_runs]
            cv = [r["end_to_end"][name] for r in c_runs]
            share, v = verdict(pv, cv, m["better"], m["bound"])
            if v == "regression":
                status = 1
            pq, cq = quartiles(pv), quartiles(cv)
            print(
                f"  {name:<16} {pq[0]:>10.4g} {pq[1]:>10.4g} {pq[2]:>10.4g}"
                f" {cq[0]:>10.4g} {cq[1]:>10.4g} {cq[2]:>10.4g}  {share:>4.0%}  {v}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
