"""Span wrappers around each layer's public entry points, installed from outside.

:func:`install` patches the attributes named in :data:`SPANS` and
:data:`COUNTS` with wrappers that feed a :class:`~spans.Tracer`; nothing
under ``src/`` changes.  A function is patched in every ``repro`` module
that holds a reference to it (``from x import f`` copies the name), a
method on its class and, for ``Class.method+``, on every subclass that
overrides it.  :meth:`Installation.uninstall` puts back the very objects it
replaced.  Pool workers install the same wrappers through
:func:`traced_worker_main` and write their spans beside the parent's.
"""

from __future__ import annotations

import importlib
import os
import sys
from typing import Any, Callable, Dict, List, Tuple

from spans import MARK, Probe, Tracer

#: Environment variables a traced parent hands its pool workers.
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"
RUN_ID_ENV = "PERFBENCH_RUN_ID"

#: (span name, module, attribute).  ``Class.method+`` also patches every
#: subclass override of ``method``.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.simulator", "Simulator.run"),
    ("sim.run", "repro.sim.simulator", "Simulator.run_until_true"),
    # The kernel invokes the bound ``_tick`` a network stores at construction.
    ("tcp.tick", "repro.tcp.fluid", "FluidNetwork._tick"),
    ("tcp.start_flow", "repro.tcp.fluid", "FluidNetwork.start_flow"),
    ("tcp.maxmin_allocate", "repro.tcp.maxmin", "maxmin_allocate"),
    ("vec.add_flow", "repro.vec.engine", "VectorCore.add_flow"),
    ("vec.tick", "repro.vec.engine", "VectorCore.tick"),
    ("vec.waterfill_sparse", "repro.vec.solver", "waterfill_sparse"),
    ("net.sample", "repro.net.capacity", "CapacityProcess.sample+"),
    ("net.apply_outages", "repro.net.failures", "apply_outages"),
    ("chaos.apply_fault_windows", "repro.chaos.faults", "apply_fault_windows"),
    ("chaos.compile_fault_plan", "repro.chaos.faults", "compile_fault_plan"),
    ("core.probe", "repro.core.probe", "ProbeEngine.run"),
    ("core.download", "repro.core.session", "TransferSession.download"),
    ("core.download", "repro.core.session", "TransferSession.download_direct"),
    ("core.download", "repro.core.session", "TransferSession.download_via"),
    ("core.download", "repro.core.session", "TransferSession.download_striped"),
    ("stripe.download", "repro.stripe.session", "StripedSession.download"),
    ("stripe.verify", "repro.stripe.blocks", "ReassemblyBuffer.verify"),
    ("workloads.universe", "repro.workloads.scenario", "Scenario.universe"),
    ("workloads.build", "repro.workloads.scenario", "Scenario.build"),
    ("workloads.plan", "repro.runner.plan", "plan_section2"),
    ("workloads.plan", "repro.workloads.failures", "plan_failures"),
    ("workloads.plan", "repro.workloads.chaos", "plan_chaos"),
    ("workloads.plan", "repro.workloads.scale", "plan_scale"),
    # Every unit of every study goes through the runner's dispatcher.
    ("workloads.unit", "repro.runner.pool", "run_unit"),
    ("runner.execute_plan", "repro.runner.pool", "execute_plan"),
    ("trace.save_jsonl", "repro.trace.store", "TraceStore.save_jsonl"),
)

#: (counter name, module, attribute): calls counted without a span.
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("stripe.blocks_committed", "repro.stripe.blocks", "ReassemblyBuffer.commit"),
)

#: Every span name, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SPANS))

_WORKER_MAIN = ("repro.runner.pool", "_worker_main")


def _probes(tracer: Tracer) -> Dict[str, Probe]:
    """Counters read around a call: sim events, stripe waste, bytes, retries."""

    def sim_events(args: tuple, kwargs: dict) -> Callable[[Any], None]:
        sim = args[0]
        before = sim.events_processed
        return lambda _r: tracer.count("sim.events", sim.events_processed - before)

    def stripe_duplicates(args: tuple, kwargs: dict) -> Callable[[Any], None]:
        return lambda r: tracer.count("stripe.blocks_duplicate", r.n_duplicate_blocks)

    def bytes_written(args: tuple, kwargs: dict) -> Callable[[Any], None]:
        path = args[1] if len(args) > 1 else kwargs["path"]
        return lambda _r: tracer.count("trace.bytes_written", os.path.getsize(path))

    def run_summary(args: tuple, kwargs: dict) -> Callable[[Any], None]:
        def finish(result: Any) -> None:
            s = result.summary
            tracer.count("runner.failed_attempts", s.failed_attempts)
            tracer.count("runner.retried_units", s.retried_units)
            tracer.counters["runner.jobs"] = float(s.jobs)

        return finish

    return {
        "sim.run": sim_events,
        "stripe.download": stripe_duplicates,
        "trace.save_jsonl": bytes_written,
        "runner.execute_plan": run_summary,
    }


def _subclasses(cls: type) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _rewrap(raw: Any, wrap: Callable[[Callable], Callable]) -> Any:
    """Wrap a class-dict entry, keeping its descriptor kind."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(wrap(raw.__func__))
    return wrap(raw)


def _class_entries(mod: Any, attr: str) -> List[Tuple[Any, str, Any]]:
    """(class, method, class-dict entry) for a ``Class.method[+]`` target."""
    cls_name, meth = attr.rstrip("+").split(".")
    cls = getattr(mod, cls_name)
    classes = [cls] + (_subclasses(cls) if attr.endswith("+") else [])
    return [(c, meth, c.__dict__[meth]) for c in classes if meth in c.__dict__]


def _owners(module: str, attr: str) -> List[Tuple[Any, str, Any]]:
    """Every (owner, name, current value) the target ``attr`` lives at."""
    mod = importlib.import_module(module)
    if "." in attr:
        return _class_entries(mod, attr)
    fn = getattr(mod, attr)
    out = []
    for name, m in list(sys.modules.items()):
        if m is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(m).items()):
            if value is fn:
                out.append((m, key, value))
    return out


def _is_wrapped(raw: Any) -> bool:
    inner = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    return getattr(inner, MARK, None) is not None


class Installation:
    """The attributes one :func:`install` replaced, and their originals."""

    def __init__(self) -> None:
        self.patched: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, original: Any, new: Any) -> None:
        setattr(owner, name, new)
        self.patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched.clear()


def install(tracer: Tracer, *, workers: bool = False) -> Installation:
    """Wrap every layer boundary so calls feed ``tracer``.

    With ``workers=True`` the runner's pool workers start through
    :func:`traced_worker_main`, which needs :data:`SPAN_DIR_ENV` and
    :data:`RUN_ID_ENV` set in this process's environment.
    """
    inst = Installation()
    probes = _probes(tracer)
    wrapped: Dict[int, Any] = {}

    def wrapper_for(name: str, fn: Callable, make: Callable) -> Callable:
        # One wrapper per function object, shared by all of its aliases.
        key = id(fn)
        if key not in wrapped:
            wrapped[key] = make(name, fn)
        return wrapped[key]

    def span(name: str, fn: Callable) -> Callable:
        return tracer.wrap(name, fn, probes.get(name))

    # Import every target first, so aliases made by modules that import a
    # target at their top are all in place before any search for them.
    for _name, module, _attr in SPANS + COUNTS:
        importlib.import_module(module)
    for table, make in ((SPANS, span), (COUNTS, tracer.counting)):
        for name, module, attr in table:
            for owner, key, raw in _owners(module, attr):
                if _is_wrapped(raw):
                    raise RuntimeError(f"{module}.{attr} is already wrapped")
                new = _rewrap(raw, lambda f, n=name, m=make: wrapper_for(n, f, m))
                inst.patch(owner, key, raw, new)
    if workers:
        mod = importlib.import_module(_WORKER_MAIN[0])
        inst.patch(mod, _WORKER_MAIN[1], getattr(mod, _WORKER_MAIN[1]), traced_worker_main)
    return inst


def wrapped_attributes() -> List[str]:
    """Targets currently wrapped, looking only at modules already imported.

    An untraced run calls this before it starts: a non-empty answer means a
    wrapper leaked into a timed run.  Modules not yet imported cannot hold
    a wrapper, so the check imports nothing.
    """
    found = []
    for _name, module, attr in SPANS + COUNTS:
        mod = sys.modules.get(module)
        if mod is None:
            continue
        entries = (
            _class_entries(mod, attr) if "." in attr else [(mod, attr, getattr(mod, attr))]
        )
        found.extend(f"{module}.{attr}" for _, _, v in entries if _is_wrapped(v))
    pool = sys.modules.get(_WORKER_MAIN[0])
    if pool is not None and getattr(pool, _WORKER_MAIN[1]) is traced_worker_main:
        found.append(".".join(_WORKER_MAIN))
    return found


def traced_worker_main(*args: Any) -> None:
    """Pool-worker entry point of a traced run: wrap, work, write spans."""
    from repro.runner import pool

    tracer = Tracer(os.environ[RUN_ID_ENV])
    install(tracer)
    try:
        pool._worker_main(*args)
    finally:
        tracer.dump(os.environ[SPAN_DIR_ENV])
