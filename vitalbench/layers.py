"""Per-layer self-time tracing, wrapped around the program from outside.

Each layer is named after the module that implements it and is entered
through a few public entry points.  :class:`LayerTrace` swaps those
entry points on their classes (or modules) for timing wrappers, runs
the traced code, and puts the original objects back.  Nothing is
subclassed and no tracer or profiler is attached, so the controller
stays on the code path an untraced run takes (the fast-path gates test
``type(...)`` and tracer truthiness, neither of which changes).

Self time is the wall time of a wrapped call minus the wall time of the
wrapped calls made inside it, so the self times of one phase add up to
the wall time of the phase's root call exactly (integer nanoseconds).
An entry point that no longer exists is skipped and its layer reports
zero calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

#: Layers timed around the replay of one workload; the root is
#: ``run_experiment`` itself, so ``sim.experiment`` self time is the
#: admission loop residual.
LOOP_LAYERS: dict[str, tuple[str, ...]] = {
    "sim.experiment": (
        "repro.sim.experiment:run_experiment",),
    "sim.events": (
        "repro.sim.events:ArrayEventQueue.push",
        "repro.sim.events:ArrayEventQueue.push_many",
        "repro.sim.events:ArrayEventQueue.pop3",
        "repro.sim.events:ArrayEventQueue.pop_arrival_run",
        "repro.sim.events:EventQueue.push",
        "repro.sim.events:EventQueue.push_many",
        "repro.sim.events:EventQueue.pop3"),
    "runtime.controller": (
        "repro.runtime.controller:SystemController.try_deploy",
        "repro.runtime.controller:SystemController.release",
        "repro.runtime.controller:SystemController.migrate",
        "repro.runtime.controller:SystemController.fail_board",
        "repro.runtime.controller:SystemController.repair_board",
        "repro.runtime.controller:SystemController.redeploy_evicted"),
    "runtime.policy": (
        "repro.runtime.policy:CommunicationAwarePolicy.allocate",
        "repro.runtime.policy:CommunicationAwarePolicy.allocate_fast"),
    "runtime.resource_db": (
        "repro.runtime.resource_db:ResourceDB.allocate",
        "repro.runtime.resource_db:ResourceDB.release",
        "repro.runtime.resource_db:ResourceDB.free_by_board",
        "repro.runtime.resource_db:ResourceDB.free_by_board_one",
        "repro.runtime.resource_db:ResourceDB.free_counts_by_board",
        "repro.runtime.resource_db:ResourceDB.fit_mask",
        "repro.runtime.resource_db:ResourceDB.fit_mask_requests",
        "repro.runtime.resource_db:ResourceDB.set_board_failed",
        "repro.runtime.resource_db:ResourceDB.set_board_repaired"),
    "runtime.audit": (
        "repro.runtime.audit:AuditLog.record",),
    "peripherals.dram": (
        "repro.peripherals.dram:VirtualMemory.allocate",
        "repro.peripherals.dram:VirtualMemory.release",
        "repro.peripherals.dram:VirtualMemory.release_segment"),
    "peripherals.bandwidth": (
        "repro.peripherals.bandwidth:BandwidthArbiter.add_demand",
        "repro.peripherals.bandwidth:BandwidthArbiter.remove_demand"),
    "compiler.relocation": (
        "repro.compiler.relocation:Relocator.relocate",),
    "sim.metrics": (
        "repro.sim.metrics:MetricsCollector.add_request",
        "repro.sim.metrics:MetricsCollector.record_state",
        "repro.sim.metrics:MetricsCollector.complete",
        "repro.sim.metrics:MetricsCollector.record_recovery",
        "repro.sim.metrics:MetricsCollector.summarize"),
    "cluster.network": (
        "repro.cluster.network:RingNetwork.register_flow",
        "repro.cluster.network:RingNetwork.release_flow",
        "repro.cluster.network:RingNetwork.contention_factor",
        "repro.cluster.network:RingNetwork.distance",
        "repro.cluster.network:RingNetwork.span_cost",
        "repro.cluster.network:RingNetwork.degrade_segment",
        "repro.cluster.network:RingNetwork.restore_segment",
        "repro.cluster.network:RingNetwork.set_segment_flakiness",
        "repro.cluster.network:RingNetwork.clear_segment_flakiness"),
    "obs.tracer": (
        "repro.obs.tracer:Tracer.event",),
    "obs.timeline": (
        "repro.obs.timeline:TimelineAggregator.configure",
        "repro.obs.timeline:TimelineAggregator.on_record",
        "repro.obs.timeline:TimelineAggregator.finish"),
    "obs.slo": (
        "repro.obs.slo:SLOEngine.on_record",
        "repro.obs.slo:SLOEngine.on_bucket",
        "repro.obs.slo:SLOEngine.finalize"),
    "runtime.guard": (
        "repro.runtime.guard:DegradedModeGuard.advance",
        "repro.runtime.guard:DegradedModeGuard.shed_victims",
        "repro.runtime.guard:DegradedModeGuard.degraded",
        "repro.runtime.guard:DegradedModeGuard.excluded_boards",
        "repro.runtime.guard:DegradedModeGuard.record_board_failure",
        "repro.runtime.guard:DegradedModeGuard.record_reconfig_faults",
        "repro.runtime.guard:DegradedModeGuard.retry_backoff"),
    "runtime.defrag": (
        "repro.runtime.defrag:Defragmenter.maybe_pass",),
    "faults.injector": (
        "repro.faults.injector:FaultInjector.apply",
        "repro.faults.injector:FaultInjector.substrate_degraded",
        "repro.faults.injector:FaultInjector.reset"),
    "faults.recovery": (
        "repro.faults.recovery:FailRequeuePolicy.recover",
        "repro.faults.recovery:MigrateOnFailurePolicy.recover"),
}

#: Layers timed around one cold set-up; the root is the benchmark's own
#: set-up function (``bench.setup`` is its glue residual).  Relocation
#: probes made by the compile flow are not a set-up layer and count
#: inside ``compiler.service``.
SETUP_LAYERS: dict[str, tuple[str, ...]] = {
    "bench.setup": (),
    "fabric.partition": (
        "repro.fabric.partition:PartitionPlanner.plan",
        "repro.fabric.partition:FabricPartition.clone_for"),
    "cluster.cluster": (
        "repro.cluster.cluster:make_cluster",),
    "hls.frontend": (
        "repro.hls.frontend:HLSFrontend.synthesize",),
    "compiler.partitioner": (
        "repro.compiler.partitioner:NetlistPartitioner.partition",),
    "compiler.interface_gen": (
        "repro.compiler.interface_gen:InterfaceGenerator.generate",),
    "compiler.pnr": (
        "repro.compiler.pnr:LocalPnR.run",
        "repro.compiler.pnr:GlobalPnR.run"),
    "compiler.service": (
        "repro.sim.experiment:compile_benchmarks",
        "repro.compiler.service:CompileService.compile_many",
        "repro.compiler.service:CompileService.compile_one",
        "repro.compiler.flow:CompilationFlow.compile"),
    "sim.workload": (
        "repro.sim.workload:WorkloadGenerator.generate",),
    "faults.domains": (
        "repro.faults.domains:FailureDomainMap.grid",
        "repro.faults.domains:correlated_outages",
        "repro.faults.domains:gray_faults"),
}

#: Entry points whose individual call durations are kept, and whose
#: non-``None`` results count as successes.
SAMPLED = {
    "repro.runtime.controller:SystemController.try_deploy",
    "repro.runtime.policy:CommunicationAwarePolicy.allocate",
    "repro.runtime.policy:CommunicationAwarePolicy.allocate_fast",
}


@dataclass
class _Sample:
    durations_ns: list
    successes: int = 0


class LayerTrace:
    """Self-time accounts of one traced phase.

    Use as a context manager around the phase's root call::

        trace = LayerTrace(LOOP_LAYERS)
        with trace:
            result = experiment.run_experiment(...)

    Entering installs the wrappers, leaving restores the originals.
    ``trace.wrap(layer, fn)`` times a callable the benchmark owns, so
    that it can be the root of a phase.
    """

    def __init__(self, layers: dict[str, tuple[str, ...]]) -> None:
        self.layers = layers
        self.calls = {layer: 0 for layer in layers}
        self.self_ns = {layer: 0 for layer in layers}
        self.samples: dict[str, _Sample] = {}
        #: wall time of the calls made with an empty stack (the roots)
        self.root_ns = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, layer: str, fn, sample: "_Sample | None" = None):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        clock = time.perf_counter_ns
        trace = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    trace.root_ns += elapsed
                if sample is not None:
                    sample.durations_ns.append(elapsed)
            if sample is not None and result is not None:
                sample.successes += 1
            return result

        return timed

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        for layer, entry_points in self.layers.items():
            for entry in entry_points:
                found = resolve(entry)
                if found is None:
                    continue
                owner, name, raw = found
                sample = None
                if entry in SAMPLED:
                    sample = self.samples.setdefault(entry, _Sample([]))
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(
                        self.wrap(layer, raw.__func__, sample))
                else:
                    wrapped = self.wrap(layer, raw, sample)
                self._saved.append((owner, name, raw))
                setattr(owner, name, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def __enter__(self) -> "LayerTrace":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def durations_ns(self, *entries: str) -> list[int]:
        out: list[int] = []
        for entry in entries:
            if entry in self.samples:
                out.extend(self.samples[entry].durations_ns)
        return out

    def successes(self, *entries: str) -> int:
        return sum(self.samples[e].successes for e in entries
                   if e in self.samples)


def resolve(entry: str):
    """``"module:Owner.attr"`` -> (owner object, attribute name, raw
    attribute as stored on the owner), or ``None`` if it is gone."""
    module_name, _, path = entry.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    namespace = vars(owner)
    if name not in namespace or not callable(
            getattr(owner, name, None)):
        return None
    return owner, name, namespace[name]


def owners(layers: dict[str, tuple[str, ...]]) -> dict[int, object]:
    """Every class or module an install would touch, by ``id``."""
    found = {}
    for entry_points in layers.values():
        for entry in entry_points:
            hit = resolve(entry)
            if hit is not None:
                found[id(hit[0])] = hit[0]
    return found
