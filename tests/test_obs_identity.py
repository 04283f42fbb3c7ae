"""Observability must be invisible: artefacts are byte-identical with obs on.

Mirrors the sanitizer on/off pattern from the QA layer: every study command
is run twice -- once plain, once under ``REPRO_OBS=1`` / ``--obs`` -- and the
study artefact bytes are compared.  Also covers the obs CLI surface
(``repro obs summarize|chrome|metrics``) and the sanitize+obs composition.
"""

import json
import os
from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.obs.core import OBS_DIR_ENV_VAR, OBS_ENV_VAR, reset_global_observer

S2_ARGS = ["section2", "--reps", "2", "--clients", "Italy,Sweden"]
S4_ARGS = ["section4", "--reps", "1", "--set-sizes", "1,3"]
FL_ARGS = ["failures", "--quick"]


@contextmanager
def _env(**overrides):
    """Set (value) or remove (None) environment variables, restoring after."""
    saved = {key: os.environ.get(key) for key in overrides}
    for key, value in overrides.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _run(argv, *, obs_env=None):
    """Run the CLI with the obs env pinned off (default) or to a value."""
    with _env(**{OBS_ENV_VAR: obs_env, OBS_DIR_ENV_VAR: None}):
        reset_global_observer()
        try:
            assert main(argv) == 0
        finally:
            reset_global_observer()


@pytest.fixture(scope="module")
def plain_artefacts(tmp_path_factory):
    """Each study artefact's bytes from an obs-off run (computed once)."""
    root = tmp_path_factory.mktemp("plain")
    out = {}
    for name, argv in (("s2", S2_ARGS), ("s4", S4_ARGS), ("fl", FL_ARGS)):
        path = root / f"{name}.jsonl"
        _run(argv + ["--out", str(path)])
        out[name] = path.read_bytes()
    return out


class TestByteIdentity:
    def test_section2_obs_flag(self, plain_artefacts, tmp_path, capsys):
        out = tmp_path / "s2.jsonl"
        _run(S2_ARGS + ["--out", str(out), "--obs"])
        assert out.read_bytes() == plain_artefacts["s2"]
        trace = tmp_path / "s2.jsonl.obs.jsonl"
        assert trace.exists()
        assert "wrote obs trace" in capsys.readouterr().out

    def test_section2_obs_env_jobs2(self, plain_artefacts, tmp_path):
        out = tmp_path / "s2.jsonl"
        _run(S2_ARGS + ["--out", str(out), "--jobs", "2"], obs_env="1")
        assert out.read_bytes() == plain_artefacts["s2"]
        assert (tmp_path / "s2.jsonl.obs.jsonl").exists()
        # The shard spool directory is cleaned up after the merge.
        assert not (tmp_path / "s2.jsonl.obs.jsonl.shards").exists()

    def test_section4_obs(self, plain_artefacts, tmp_path):
        out = tmp_path / "s4.jsonl"
        _run(S4_ARGS + ["--out", str(out), "--obs"])
        assert out.read_bytes() == plain_artefacts["s4"]

    def test_failures_obs(self, plain_artefacts, tmp_path):
        out = tmp_path / "fl.jsonl"
        _run(FL_ARGS + ["--out", str(out), "--obs"])
        assert out.read_bytes() == plain_artefacts["fl"]

    def test_obs_out_flag_controls_trace_path(self, tmp_path):
        out = tmp_path / "s2.jsonl"
        trace = tmp_path / "custom-trace.jsonl"
        _run(S2_ARGS + ["--out", str(out), "--obs", "--obs-out", str(trace)])
        assert trace.exists()
        assert not (tmp_path / "s2.jsonl.obs.jsonl").exists()

    def test_sanitize_and_obs_compose(self, tmp_path):
        with _env(REPRO_SANITIZE="1"):
            plain = tmp_path / "plain.jsonl"
            _run(S2_ARGS + ["--out", str(plain)])
            observed = tmp_path / "obs.jsonl"
            _run(S2_ARGS + ["--out", str(observed), "--obs"])
        assert observed.read_bytes() == plain.read_bytes()


class TestSimulatorComposition:
    def test_sanitizer_and_observer_are_independent_slots(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.delenv(OBS_ENV_VAR, raising=False)
        reset_global_observer()
        from repro.sim.simulator import Simulator

        sim = Simulator(observe=True)
        assert sim.sanitizer is not None
        assert sim.observer is not None
        sim.schedule_at(1.0, lambda: None, name="noop")
        sim.run()
        assert sim.observer.counter("sim.events") == 1.0
        reset_global_observer()


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """A merged obs trace from a small section2 campaign."""
    root = tmp_path_factory.mktemp("trace")
    out = root / "s2.jsonl"
    _run(S2_ARGS + ["--out", str(out), "--obs"])
    return str(root / "s2.jsonl.obs.jsonl")


class TestObsCli:
    def test_summarize(self, trace_path, capsys):
        assert main(["obs", "summarize", trace_path]) == 0
        text = capsys.readouterr().out
        assert "span categories" in text
        assert "engine.ticks" in text

    def test_chrome_has_required_categories(self, trace_path, tmp_path, capsys):
        out = tmp_path / "trace.chrome.json"
        assert main(["obs", "chrome", trace_path, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        cats = {e.get("cat") for e in data["traceEvents"] if e["ph"] == "X"}
        assert {"tick", "alloc", "probe", "transfer", "unit"} <= cats

    def test_chrome_default_out(self, trace_path, capsys):
        assert main(["obs", "chrome", trace_path]) == 0
        assert "wrote" in capsys.readouterr().out
        assert os.path.exists(trace_path + ".chrome.json")

    def test_metrics_to_stdout(self, trace_path, capsys):
        assert main(["obs", "metrics", trace_path]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_engine_ticks counter" in text

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        rc = main(["obs", "summarize", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_corrupt_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "repro-obs/1"}\n{broken\n{"metrics": {}}\n')
        rc = main(["obs", "summarize", str(bad)])
        assert rc == 2
