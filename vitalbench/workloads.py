"""The benchmark's workloads: set-up, one replay, and its checks.

Every workload replays Table 3 set 7 (a 33/33/34 S/M/L mix of the DNN
benchmarks) with Poisson arrivals in simulated time -- an open loop:
requests arrive on their schedule whatever the controller does.  The
workload seed is an argument; the same seed gives the same requests
and fault schedule.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

import repro.cluster.cluster as cluster_mod
import repro.faults.domains as domains_mod
import repro.sim.experiment as experiment
from repro.faults.schedule import FaultSchedule
from repro.obs.slo import SLOEngine
from repro.obs.timeline import TimelineAggregator
from repro.runtime.controller import SystemController
from repro.runtime.guard import DegradedModeGuard
from repro.sim.metrics import RequestRecord
from repro.sim.workload import WorkloadGenerator


@dataclass(frozen=True)
class Workload:
    """One benchmark workload, as recorded in the benchmark's notes."""

    name: str
    why: str
    boards: int
    requests: int
    interarrival_s: float
    workload_set: int = 7
    discipline: str = "fifo"
    #: ``correlated_outages`` / ``gray_faults`` knobs; empty = no faults
    outages: dict = field(default_factory=dict)
    gray: dict = field(default_factory=dict)
    boards_per_rack: int = 4
    recovery: "str | None" = None
    guard: bool = False
    defrag: bool = False
    #: a ``TimelineAggregator`` with the default ``SLOEngine`` rules
    observed: bool = False


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="steady",
        why="256 boards x 20k requests, set 7, Poisson 100 ms, seed from "
            "--seed, fifo, no faults or observers: unsaturated, "
            "single-board placements, host time in deploy bookkeeping",
        boards=256, requests=20_000, interarrival_s=0.100),
    Workload(
        name="saturated",
        why="256 boards x 10k requests, set 7, Poisson 20 ms, seed from "
            "--seed, fifo, no faults or observers: backlog grows, most "
            "placements span boards, host time in the subset search",
        boards=256, requests=10_000, interarrival_s=0.020),
    Workload(
        name="ops",
        why="64 boards in 16 racks x 4k requests, set 7, Poisson 450 ms, "
            "seed from --seed, backfill, rack outages + gray faults, "
            "migrate, guard, defrag, timeline + SLO: the observed path",
        boards=64, requests=4_000, interarrival_s=0.450,
        discipline="backfill",
        outages={"rack_mtbf_s": 1200.0, "rack_mttr_s": 25.0,
                 "cascade_probability": 0.5, "cascade_delay_s": 5.0},
        gray={"icap_mtbf_s": 600.0, "icap_mttr_s": 45.0,
              "icap_latency_multiplier": 4.0,
              "flaky_mtbf_s": 600.0, "flaky_mttr_s": 60.0,
              "drop_probability": 0.1},
        recovery="migrate", guard=True, defrag=True, observed=True),
)}


@dataclass
class Setup:
    """Everything a replay needs, built once per cold set-up."""

    cluster: object
    apps: dict
    requests: list
    faults: "FaultSchedule | None"


def setup(workload: Workload, seed: int) -> Setup:
    """Cold set-up, as ``repro simulate`` pays it: plan the partition
    of every board, build the cluster, compile the benchmark set, and
    generate the requests and the fault schedule.

    Library functions are looked up on their modules at call time so
    that a traced set-up sees the layer wrappers.
    """
    cluster = cluster_mod.make_cluster(num_boards=workload.boards)
    apps = experiment.compile_benchmarks(cluster)
    requests = WorkloadGenerator(seed=seed).generate(
        workload.workload_set, num_requests=workload.requests,
        mean_interarrival_s=workload.interarrival_s)
    faults = None
    if workload.outages or workload.gray:
        domains = domains_mod.FailureDomainMap.grid(
            workload.boards, workload.boards_per_rack)
        horizon = requests[-1].arrival_s
        events = []
        if workload.outages:
            events.extend(domains_mod.correlated_outages(
                domains, seed=seed, horizon_s=horizon,
                **workload.outages))
        if workload.gray:
            events.extend(domains_mod.gray_faults(
                domains, seed=seed + 1, horizon_s=horizon,
                **workload.gray))
        faults = FaultSchedule(events)
        faults.validate_for(workload.boards)
    return Setup(cluster, apps, requests, faults)


def replay(workload: Workload, built: Setup):
    """One replay of the workload on a fresh controller.

    Returns ``(result, controller)``.  The cluster is shared across
    replays; :func:`check` proves each replay leaves it clean.
    """
    controller = SystemController(built.cluster)
    timeline = TimelineAggregator() if workload.observed else None
    slo = SLOEngine() if workload.observed else None
    result = experiment.run_experiment(
        controller, built.requests, built.apps,
        discipline=workload.discipline,
        faults=built.faults,
        recovery=workload.recovery,
        guard=DegradedModeGuard() if workload.guard else None,
        defrag=True if workload.defrag else None,
        timeline=timeline, slo=slo)
    return result, controller


def _outcome(record: RequestRecord) -> int:
    return int(record.finished) + int(record.shed) \
        + int(record.permanently_failed)


def check(result, controller, built: Setup) -> list[str]:
    """Invariants one replay must satisfy; returns what tripped."""
    problems = []
    records = result.records
    if len(records) != len(built.requests):
        problems.append(f"{len(records)} records for "
                        f"{len(built.requests)} requests")
    unresolved = sum(1 for r in records if _outcome(r) != 1)
    if unresolved:
        problems.append(f"{unresolved} requests not exactly one of "
                        "finished / shed / failed")
    if controller.deployments:
        problems.append(f"{len(controller.deployments)} deployments "
                        "still live")
    db = controller.resource_db
    if db.allocated_count():
        problems.append(f"{db.allocated_count()} blocks still allocated")
    try:
        db.verify()
    except RuntimeError as exc:
        problems.append(f"resource DB verify: {exc}")
    if built.cluster.network.peak_segment_flows():
        problems.append("ring flows still registered")
    dram = sum(m.used_bytes() for m in controller.memories.values())
    if dram:
        problems.append(f"{dram} DRAM bytes still allocated")
    done = [r for r in records if r.finished]
    if any(not r.arrival_s <= r.deployed_s <= r.completed_s
           for r in done):
        problems.append("a request completed before it arrived or "
                        "deployed")
    summary = result.summary
    if summary.num_requests != len(done):
        problems.append(f"summary counts {summary.num_requests} "
                        f"finished, records {len(done)}")
    elif done:
        mean = math.fsum(r.response_s for r in done) / len(done)
        if not math.isclose(mean, summary.mean_response_s,
                            rel_tol=1e-9):
            problems.append(f"summary mean response "
                            f"{summary.mean_response_s} != {mean}")
        responses = sorted(r.response_s for r in done)
        if nearest_rank(responses, 0.50) != summary.p50_response_s:
            problems.append("summary p50 response disagrees")
    return problems


def nearest_rank(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile: rank ``int(q * n)``, clamped."""
    return sorted_values[min(int(q * len(sorted_values)),
                             len(sorted_values) - 1)]


def digest(result) -> str:
    """SHA-256 over the summary and every per-request record."""
    h = hashlib.sha256()
    h.update(repr(tuple(getattr(result.summary, f.name)
                        for f in fields(result.summary))).encode())
    names = [f.name for f in fields(RequestRecord)]
    for record in result.records:
        h.update(repr(tuple(getattr(record, n) for n in names))
                 .encode())
    return h.hexdigest()
