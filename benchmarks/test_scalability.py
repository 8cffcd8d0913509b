"""System-Layer allocation hot path at cloud scale (Section 5.5).

The paper's evaluation runs on a 4-FPGA deployment, but Section 6 argues
the design "can be easily scaled to a larger cluster".  This bench backs
that claim: it drives saturated open-loop workloads (workload set #10,
60/20/20 S/M/L) through 32- and 64-board clusters and times the whole
discrete-event run.

Two configurations of the same controller are compared:

- **incremental** (the default): ``ResourceDB`` maintains allocated and
  failed counters, an owner index and per-board free sets on every
  transition, the ring network memoizes distances and span costs, and
  ``CommunicationAwarePolicy`` prunes its subset search with capacity
  and span lower bounds that provably never change the chosen subset;
- **legacy rescan** (``RescanResourceDB`` + ``ExhaustivePolicy`` from
  ``tests/oracles.py``): the original full-scan queries and exhaustive
  ``C(n, k)`` subset enumeration, retained as the reference
  implementation.

At 4 boards both configurations produce bit-identical summaries (the
equivalence tests under ``tests/`` pin that); at 64 boards the legacy
path is combinatorial once the cluster saturates, so it is run in a
subprocess with a timeout and the timeout is treated as a *lower bound*
on its cost.  The speedup asserted here is therefore conservative.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.cluster.cluster import make_cluster
from repro.fabric.devices import make_xcvu37p
from repro.fabric.partition import PartitionPlanner
from repro.runtime.controller import SystemController
from repro.sim.experiment import run_experiment
from repro.sim.workload import WorkloadGenerator

#: saturated workloads: interarrival well below the per-request service
#: demand, so the queue is never empty and every blocked deployment
#: exercises the policy's multi-board search
WORKLOAD_SET = 10
#: wall-clock ceiling for the incremental stack on one full run; the
#: measured time is ~0.6 s at 64 boards, so this absorbs slow CI hosts
NEW_BUDGET_S = 60.0
#: subprocess ceiling for the legacy rescan stack (compile time
#: included); hitting it is recorded as ">= timeout", a lower bound
LEGACY_TIMEOUT_S = 90.0
MIN_SPEEDUP = 10.0

_ROOT = Path(__file__).resolve().parent.parent
#: the child imports ``repro`` and the test-side oracles
_CHILD_PATH = os.pathsep.join([str(_ROOT / "src"), str(_ROOT)])

#: the legacy configuration, timed in a child so a combinatorial blowup
#: cannot hang the bench; prints the wall seconds of the event loop
_LEGACY_SCRIPT = """\
import sys, time
from repro.cluster.cluster import make_cluster
from repro.fabric.devices import make_xcvu37p
from repro.fabric.partition import PartitionPlanner
from repro.runtime.controller import SystemController
from repro.sim.experiment import compile_benchmarks, run_experiment
from repro.sim.workload import WorkloadGenerator
from tests.oracles import ExhaustivePolicy, RescanResourceDB

boards, n, inter = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
partition = PartitionPlanner(make_xcvu37p()).plan()
cluster = make_cluster(boards, partition=partition)
apps = compile_benchmarks(cluster)
requests = WorkloadGenerator(seed=2020).generate(
    int(sys.argv[4]), num_requests=n, mean_interarrival_s=inter)
controller = SystemController(cluster, policy=ExhaustivePolicy())
controller.resource_db = RescanResourceDB(cluster)
t0 = time.perf_counter()
run_experiment(controller, requests, apps)
print(time.perf_counter() - t0)
"""


def _run_incremental(apps, boards: int, num_requests: int,
                     interarrival: float):
    """One full experiment on the default (incremental) stack."""
    partition = PartitionPlanner(make_xcvu37p()).plan()
    cluster = make_cluster(boards, partition=partition)
    requests = WorkloadGenerator(seed=2020).generate(
        WORKLOAD_SET, num_requests=num_requests,
        mean_interarrival_s=interarrival)
    controller = SystemController(cluster)
    t0 = time.perf_counter()
    result = run_experiment(controller, requests, apps)
    wall = time.perf_counter() - t0
    # the incremental indices must still agree with a full rescan after
    # thousands of allocate/release transitions
    controller.resource_db.verify()
    return wall, result.summary


def _run_legacy(boards: int, num_requests: int,
                interarrival: float) -> tuple[float, bool]:
    """Legacy wall seconds and whether the timeout was hit."""
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _LEGACY_SCRIPT, str(boards),
             str(num_requests), str(interarrival), str(WORKLOAD_SET)],
            capture_output=True, text=True, timeout=LEGACY_TIMEOUT_S,
            env={"PYTHONPATH": _CHILD_PATH}, check=True)
        return float(proc.stdout.strip()), False
    except subprocess.TimeoutExpired:
        return LEGACY_TIMEOUT_S, True


def _report_row(boards: int, num_requests: int, interarrival: float,
                wall: float, summary, legacy: float,
                timed_out: bool) -> str:
    bound = ">=" if timed_out else "  "
    return (f"{boards:>6} {num_requests:>9} {interarrival:>12.2f} "
            f"{wall:>9.2f} {bound}{legacy:>7.1f} "
            f"{legacy / wall:>7.0f}x {summary.block_utilization:>6.3f} "
            f"{summary.mean_response_s:>9.1f}")


HEADER = (f"{'boards':>6} {'requests':>9} {'interarr_s':>12} "
          f"{'new_s':>9} {'legacy_s':>9} {'speedup':>8} "
          f"{'util':>6} {'resp_s':>9}")


def test_scalability_smoke(emit, compiled_apps):
    """CI-sized run: a small cluster must stay comfortably fast and the
    incremental indices must verify against a full rescan."""
    wall, summary = _run_incremental(
        compiled_apps, boards=8, num_requests=400, interarrival=0.8)
    emit("scalability_smoke",
         "System-Layer scalability smoke (incremental stack)\n"
         f"{'boards':>6} {'requests':>9} {'interarr_s':>12} "
         f"{'new_s':>9} {'util':>6} {'resp_s':>9}\n"
         f"{8:>6} {400:>9} {0.8:>12.2f} {wall:>9.2f} "
         f"{summary.block_utilization:>6.3f} "
         f"{summary.mean_response_s:>9.1f}")
    assert summary.num_requests == 400
    assert wall < 15.0, f"smoke run took {wall:.1f}s, budget 15s"


def test_scalability_large_clusters(benchmark, emit, compiled_apps):
    """32- and 64-board saturated workloads, incremental vs legacy."""
    configs = [(32, 1500, 0.4), (64, 2000, 0.2)]
    rows = []
    for boards, num_requests, interarrival in configs:
        wall, summary = _run_incremental(compiled_apps, boards,
                                         num_requests, interarrival)
        assert wall < NEW_BUDGET_S, (
            f"incremental stack took {wall:.1f}s at {boards} boards")
        legacy, timed_out = _run_legacy(boards, num_requests,
                                        interarrival)
        speedup = legacy / wall
        assert speedup >= MIN_SPEEDUP, (
            f"{boards} boards: only {speedup:.1f}x over legacy "
            f"({legacy:.1f}s{' timeout' if timed_out else ''} "
            f"vs {wall:.2f}s)")
        rows.append(_report_row(boards, num_requests, interarrival,
                                wall, summary, legacy, timed_out))

    benchmark.pedantic(
        lambda: _run_incremental(compiled_apps, 64, 2000, 0.2),
        rounds=1, iterations=1)

    emit("scalability", "\n".join([
        "System-Layer allocation hot path at scale "
        "(saturated workload set #10)",
        "legacy = RescanResourceDB + exhaustive subset enumeration; "
        "'>=' marks a timeout,",
        "so the printed speedup is a lower bound.",
        "", HEADER, *rows]))
