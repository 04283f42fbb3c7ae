"""Wrapper install and uninstall around the layer boundaries."""

import importlib

import layers
import spans


def _snapshot():
    """Every (owner, attribute) a target can live at, with its value now."""
    import repro.stripe.session  # noqa: F401  (imported lazily by the studies)
    import repro.vec.engine  # noqa: F401
    import repro.workloads.chaos  # noqa: F401
    import repro.workloads.failures  # noqa: F401
    import repro.workloads.scale  # noqa: F401

    snap = {}
    for _name, module, attr in layers.SPANS + layers.COUNTS:
        for owner, key, value in layers._owners(module, attr):
            snap[(id(owner), key)] = (owner, key, value)
    pool = importlib.import_module("repro.runner.pool")
    snap[(id(pool), "_worker_main")] = (pool, "_worker_main", pool._worker_main)
    return snap


def _current(owner, key):
    return owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)


def test_install_then_uninstall_restores_every_attribute():
    before = _snapshot()
    assert layers.wrapped_attributes() == []

    inst = layers.install(spans.Tracer("t"), workers=True)
    patched = {(id(o), k) for o, k, _ in inst.patched}
    assert patched == set(before)
    for owner, key, value in before.values():
        assert _current(owner, key) is not value
    leaked = layers.wrapped_attributes()
    assert "repro.runner.pool.execute_plan" in leaked
    assert "repro.runner.pool._worker_main" in leaked

    inst.uninstall()
    for owner, key, value in before.values():
        assert _current(owner, key) is value
    assert layers.wrapped_attributes() == []


def test_functions_are_patched_at_every_alias():
    from repro import runner
    from repro.runner import pool

    inst = layers.install(spans.Tracer("t"))
    try:
        assert runner.execute_plan is pool.execute_plan
        assert getattr(pool.execute_plan, spans.MARK, None) is not None
    finally:
        inst.uninstall()


def test_double_install_is_refused():
    inst = layers.install(spans.Tracer("t"))
    try:
        try:
            layers.install(spans.Tracer("u"))
        except RuntimeError:
            pass
        else:
            raise AssertionError("a second install wrapped the wrappers")
    finally:
        inst.uninstall()
    assert layers.wrapped_attributes() == []


def test_a_traced_campaign_records_each_layer(tmp_path):
    # Call through the modules: a name imported before install stays unwrapped.
    from repro import runner
    from repro.workloads.experiment import STUDY_SESSION_CONFIG
    from repro.workloads.scenario import Scenario, ScenarioSpec

    tracer = spans.Tracer("t")
    inst = layers.install(tracer)
    try:
        scenario = Scenario.build(ScenarioSpec.section2(sites=("eBay",)), seed=3)
        plan = runner.plan_section2(
            scenario, repetitions=2, interval=360.0, config=STUDY_SESSION_CONFIG,
            clients=["Italy"],
        )
        result = runner.execute_plan(plan, scenario=scenario)
        result.store.save_jsonl(tmp_path / "s.jsonl")
    finally:
        inst.uninstall()
    tracer.dump(str(tmp_path))
    totals = spans.layer_totals(spans.load_span_files(str(tmp_path)), "t")
    for layer in ("workloads.build", "net.sample", "workloads.plan", "workloads.unit",
                  "core.probe", "core.download", "sim.run", "tcp.tick",
                  "tcp.start_flow", "runner.execute_plan", "trace.save_jsonl"):
        assert totals.calls.get(layer, 0) > 0, layer
    assert totals.calls["workloads.unit"] == len(plan)
    assert totals.calls.get("vec.tick", 0) == 0
    assert totals.counters["sim.events"] > 0
    assert totals.counters["trace.bytes_written"] == (tmp_path / "s.jsonl").stat().st_size
