"""One sample process of one workload.

    python3 perfbench/child.py WORKLOAD SEED OUTDIR LAUNCH DEADLINE EXPECT [--traced]

``LAUNCH`` is the ``time.monotonic()`` reading the parent took just
before starting this process, so set-up time includes interpreter start-up
and imports, as it does for a user running a study.  The process builds
the workload once, then executes its plans and saves their stores
repeatedly until ``DEADLINE`` (a ``time.monotonic()`` reading) is near;
every repeat is one timed execution.  ``EXPECT`` is the duration, in seconds, of an
execution seen earlier in the run, or 0.  When it is not 0 and the
deadline is too near for another execution, the process stops after
set-up, so a slow host cannot stretch the run.  Checks of the store run
outside every timed interval.  Results go to ``OUTDIR/sample.json``.

With ``--traced`` every layer boundary is wrapped, the plans execute once,
and spans from this process and its pool workers land in ``OUTDIR``.
"""

import json
import os
import sys
import time


def main(argv):
    workload, seed, outdir = argv[0], int(argv[1]), argv[2]
    launch, deadline, expect = float(argv[3]), float(argv[4]), float(argv[5])
    traced = "--traced" in argv[6:]

    import layers
    import studies
    from repro import runner

    imported = time.monotonic()
    run_id = f"{workload}:{seed}:{os.getpid()}"
    if traced:
        from spans import Tracer

        os.environ[layers.SPAN_DIR_ENV] = outdir
        os.environ[layers.RUN_ID_ENV] = run_id
        tracer = Tracer(run_id)
        layers.install(tracer, workers=True)
    else:
        leaked = layers.wrapped_attributes()
        if leaked:
            raise SystemExit(f"untraced sample starts with wrappers installed: {leaked}")

    setup = studies.WORKLOADS[workload](seed)
    planned = [len(plan) for plan in setup.plans]
    plan_ready = time.monotonic()

    import gate

    store_paths = [os.path.join(outdir, f"store-{n}.jsonl") for n in range(len(planned))]
    repeats = []
    last_s = expect  # the last execution's duration; 0 forces one execution

    def time_left():
        return not last_s or time.monotonic() + 0.5 * last_s < deadline

    while (not repeats) if traced else time_left():
        if not traced and layers.wrapped_attributes():
            raise SystemExit("a wrapper is installed at the start of an untraced run")
        repeat = {"run_s": 0.0, "save_s": 0.0, "transfers": 0, "failed_attempts": 0, "missing": 0}
        for plan, n_units, path in zip(setup.plans, planned, store_paths):
            started = time.monotonic()
            result = runner.execute_plan(plan, scenario=setup.scenario, jobs=setup.jobs)
            ran = time.monotonic()
            result.store.save_jsonl(path)
            written = time.monotonic()
            repeat["run_s"] += ran - started
            repeat["save_s"] += written - ran
            repeat["transfers"] += studies.transfers_completed(workload, result.store)
            repeat["failed_attempts"] += result.summary.failed_attempts
            repeat["missing"] += n_units - len(result.store)
        # The first stores get the full check; later ones must be identical.
        repeat["sha256"], repeat["problems"] = [], []
        for n_units, path in zip(planned, store_paths):
            if repeats:
                digest, problems = gate.file_digest(path), []
            else:
                digest, problems = gate.check_store(path, n_units)
            repeat["sha256"].append(digest)
            repeat["problems"] += [f"{os.path.basename(path)}: {p}" for p in problems]
        repeats.append(repeat)
        last_s = repeat["run_s"] + repeat["save_s"]

    import resource

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if traced:
        tracer.dump(outdir)
    sample = {
        "run_id": run_id,
        "traced": traced,
        "import_s": imported - launch,
        "setup_s": plan_ready - launch,
        "peak_rss_mb": peak_kb / 1024.0,
        "planned": sum(planned),
        "repeats": repeats,
    }
    with open(os.path.join(outdir, "sample.json"), "w", encoding="utf-8") as fh:
        json.dump(sample, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
