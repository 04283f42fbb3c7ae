"""The three benchmark workloads, built through the public study API.

Each workload turns a seed into a ``(scenario, plans, jobs)`` triple; the
program under test receives nothing else.  Every workload is a batch,
closed-loop job with a fixed input size: the benchmark measures work
completed per wall-second, not latency under offered load.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Tuple

DEFAULT_SEED = 2007

#: The paper's four target sites (the section 2 campaign covers all of them).
PAPER_SITES = ("eBay", "Google", "Microsoft", "Yahoo")

#: Clients of the chaos grid: half the 22 PlanetLab clients, spread over
#: continents so both short and long direct paths are faulted.
CHAOS_CLIENTS = (
    "Italy", "Sweden", "Taiwan", "Brazil", "Korea", "UK",
    "France", "India", "Israel", "Canada", "Russia",
)


class Setup(NamedTuple):
    """A workload's inputs: the built scenario, its plans in execution order
    and the pool size.  Each plan is one study and writes its own store."""

    scenario: Any
    plans: Tuple[Any, ...]
    jobs: int


def _paper_campaign(seed: int) -> Setup:
    from repro.workloads.experiment import Section2Study
    from repro.workloads.scenario import Scenario, ScenarioSpec

    scenario = Scenario.build(ScenarioSpec.section2(sites=PAPER_SITES), seed=seed)
    plan = Section2Study(scenario, repetitions=20).plan(sites=list(PAPER_SITES))
    return Setup(scenario, (plan,), 2)


def _fault_studies(seed: int) -> Setup:
    """The failures study, then the chaos grid, on one eBay scenario."""
    from repro.chaos.faults import FAULT_FAMILIES, FAULT_INTENSITIES
    from repro.workloads import chaos, failures
    from repro.workloads.scenario import Scenario, ScenarioSpec

    scenario = Scenario.build(ScenarioSpec.section2(sites=("eBay",)), seed=seed)
    outage_plan = failures.plan_failures(
        scenario,
        repetitions=8,
        interval=360.0,
        config=failures.FAILURES_SESSION_CONFIG,
        params=failures.FailureStudyParams(),
        site="eBay",
    )
    chaos_plan = chaos.plan_chaos(
        scenario,
        repetitions=1,
        interval=360.0,
        k=3,
        families=FAULT_FAMILIES,
        intensities=FAULT_INTENSITIES,
        config=chaos.CHAOS_SESSION_CONFIG,
        params=chaos.ChaosStudyParams(),
        site="eBay",
        clients=list(CHAOS_CLIENTS),
    )
    return Setup(scenario, (outage_plan, chaos_plan), 1)


def _scale_wave(seed: int) -> Setup:
    from repro.workloads import scale
    from repro.workloads.scenario import Scenario, ScenarioSpec

    scenario = Scenario.build(ScenarioSpec.section2(sites=("eBay",)), seed=seed)
    plan = scale.plan_scale(
        scenario,
        waves=1,
        config=scale.SCALE_SESSION_CONFIG,
        params=scale.ScaleStudyParams(
            clients_per_wave=100_000, n_relays=4, engine="vector"
        ),
        site="eBay",
    )
    return Setup(scenario, (plan,), 1)


WORKLOADS: Dict[str, Callable[[int], Setup]] = {
    "paper-campaign": _paper_campaign,
    "fault-studies": _fault_studies,
    "scale-wave": _scale_wave,
}


def transfers_completed(name: str, store: Any) -> int:
    """Simulated sessions a finished store accounts for.

    Campaign studies store one record per session; the scale wave stores
    one record per wave carrying the population's completion count.
    """
    if name == "scale-wave":
        return sum(int(r.n_completed) for r in store.records)
    return len(store)

