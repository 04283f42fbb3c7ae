"""The correctness gate rejects stores that differ from the planned artefact."""

import hashlib

import pytest

import gate


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    from repro.runner import execute_plan, plan_section2
    from repro.workloads.experiment import STUDY_SESSION_CONFIG
    from repro.workloads.scenario import Scenario, ScenarioSpec

    scenario = Scenario.build(ScenarioSpec.section2(sites=("eBay",)), seed=7)
    plan = plan_section2(
        scenario, repetitions=2, interval=360.0, config=STUDY_SESSION_CONFIG,
        clients=["Italy", "Sweden"],
    )
    path = tmp_path_factory.mktemp("store") / "store.jsonl"
    execute_plan(plan, scenario=scenario).store.save_jsonl(path)
    return path, len(plan)


def test_intact_store_passes_with_its_pin(store):
    path, planned = store
    pin = hashlib.sha256(path.read_bytes()).hexdigest()
    digest, problems = gate.check_store(str(path), planned, pin)
    assert digest == pin and problems == []


def test_one_flipped_byte_is_rejected(store, tmp_path):
    path, planned = store
    data = bytearray(path.read_bytes())
    pin = hashlib.sha256(data).hexdigest()
    # Flip a digit inside a number: the JSON still parses and round-trips,
    # so only the pinned digest can catch it.
    at = data.index(b'"direct_throughput": ') + len(b'"direct_throughput": ')
    data[at] = ord("1") if data[at] != ord("1") else ord("2")
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(bytes(data))
    digest, problems = gate.check_store(str(bad), planned, pin)
    assert digest != pin
    assert any("pinned" in p for p in problems)


def test_a_byte_that_breaks_a_record_is_rejected_without_a_pin(store, tmp_path):
    path, planned = store
    data = bytearray(path.read_bytes())
    data[data.index(b":")] = ord(";")
    bad = tmp_path / "broken.jsonl"
    bad.write_bytes(bytes(data))
    _, problems = gate.check_store(str(bad), planned)
    assert any("does not decode" in p for p in problems)


def test_wrong_record_count_is_rejected(store):
    path, planned = store
    _, problems = gate.check_store(str(path), planned + 1)
    assert any("planned" in p for p in problems)


def test_a_record_that_does_not_round_trip_is_rejected(store, tmp_path):
    path, planned = store
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('{"', '{ "', 1)  # same data, different bytes
    bad = tmp_path / "spaced.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    _, problems = gate.check_store(str(bad), planned)
    assert any("round-trip" in p for p in problems)


def test_digests_are_pinned_for_every_workload_at_the_default_seed():
    import studies

    for name in studies.WORKLOADS:
        pins = gate.pinned_digests(name, studies.DEFAULT_SEED)
        assert pins and all(len(pin) == 64 for pin in pins)
        assert gate.pinned_digests(name, studies.DEFAULT_SEED + 1) is None
