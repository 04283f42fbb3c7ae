"""repro.obs: unified tracing, metrics and profiling layer.

The observability substrate shared by the simulation kernel, the TCP
engine, the transfer/resilience core and the campaign runner.  See :mod:`repro.obs.core` for the instrumentation primitives and
:mod:`repro.obs.export` for the exporters (JSONL, Chrome ``trace_event``,
Prometheus text).

On top of the substrate sits the insight layer: critical-path phase
attribution (:mod:`repro.obs.insight`), cross-run trace diffing
(:mod:`repro.obs.diff`), declarative SLO evaluation
(:mod:`repro.obs.slo`) and the campaign health report
(:mod:`repro.obs.report`).
"""

from repro.obs.core import (
    DEFAULT_TRACK,
    OBS_DIR_ENV_VAR,
    OBS_ENV_VAR,
    SCHEMA,
    Histogram,
    Observer,
    ObsRecord,
    global_observer,
    install_observer,
    observe_enabled_from_env,
    reset_global_observer,
    shard_directory_from_env,
)
from repro.obs.diff import DiffTolerances, TraceDiff, diff_traces, render_diff
from repro.obs.export import ObsTrace, validate_chrome_trace
from repro.obs.insight import (
    PHASES,
    SessionPhases,
    TailAttribution,
    attribute_trace,
    render_insight,
    tail_attribution,
)
from repro.obs.report import render_report
from repro.obs.slo import (
    SloObjective,
    SloReport,
    SloSpec,
    evaluate_slo,
    load_slo_spec,
    parse_slo_spec,
    render_slo,
)

__all__ = [
    "DEFAULT_TRACK",
    "PHASES",
    "DiffTolerances",
    "SessionPhases",
    "SloObjective",
    "SloReport",
    "SloSpec",
    "TailAttribution",
    "TraceDiff",
    "attribute_trace",
    "diff_traces",
    "evaluate_slo",
    "load_slo_spec",
    "parse_slo_spec",
    "render_diff",
    "render_insight",
    "render_report",
    "render_slo",
    "tail_attribution",
    "OBS_DIR_ENV_VAR",
    "OBS_ENV_VAR",
    "SCHEMA",
    "Histogram",
    "Observer",
    "ObsRecord",
    "ObsTrace",
    "global_observer",
    "install_observer",
    "observe_enabled_from_env",
    "reset_global_observer",
    "shard_directory_from_env",
    "validate_chrome_trace",
]
