"""ViTAL reproduction benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 vitalbench/run.py --workload steady --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics untraced: several cold
set-ups, then replays of the workload until ``--seconds`` have passed
since the first set-up began, each replay checked; it reports medians.
``--trace 1`` sets up and replays untraced for ``--seconds`` too, then
sets up and replays once more with every layer's entry points wrapped
(see ``layers.py``), and reports the per-layer split.  The last
line of standard output is the result object.  See README.md in this
directory for the workloads, metrics and what each layer should move.

Host times are scaled to a reference host speed: the process is pinned
to one CPU, a fixed standard-library calibration loop runs on it before
and after every timed section, and each section's wall time is
multiplied by ``CALIBRATION_REF_S`` over the mean of its two adjacent
calibrations.  On a shared host whose speed drifts by tens of percent
within minutes this removes much of the drift (see README.md); the raw
wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import LOOP_LAYERS, SETUP_LAYERS, LayerTrace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: cold set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: replays per run at least, whatever ``--seconds`` says
MIN_REPLAYS = 2
#: wall time of one :meth:`Calibration.run` on an uncontended 2.1 GHz
#: x86-64 vCPU, CPython 3.11 (the reference host speed)
CALIBRATION_REF_S = 0.200

#: name -> (unit, good direction) of every metric ``--trace 0`` prints
END_TO_END = {
    "requests_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_response_mean_s": ("s", "lower"),
    "sim_block_utilization": ("fraction", "higher"),
    "sim_goodput_fraction": ("fraction", "higher"),
    "served_fraction": ("fraction", "higher"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """name -> (unit, good direction) of every metric ``--trace 1``
    prints."""
    out = {}
    for layer in (*LOOP_LAYERS, *SETUP_LAYERS):
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
        out[f"{layer}.share"] = ("fraction", "lower")
    out.update({
        "sim.experiment.admit_attempts": ("count", "lower"),
        "sim.experiment.admit_success_ratio": ("fraction", "higher"),
        "runtime.controller.try_deploy_p50_us": ("us", "lower"),
        "runtime.controller.try_deploy_p999_us": ("us", "lower"),
        "runtime.controller.try_deploy.n": ("count", "higher"),
        "runtime.policy.success_ratio": ("fraction", "higher"),
        "runtime.policy.p999_us": ("us", "lower"),
        "runtime.policy.n": ("count", "higher"),
        "sim_response_p50_s": ("s", "lower"),
        "sim_response_p99_s": ("s", "lower"),
        "sim_response.n": ("count", "higher"),
        "traced.loop_wall_s": ("s", "lower"),
        "traced.setup_wall_s": ("s", "lower"),
        "traced.overhead_ratio": ("ratio", "lower"),
    })
    return out


class Calibration:
    """A fixed loop of random reads from a table larger than the L2.

    It touches no code of the program, so a change to the program
    cannot move it, and its cache misses make it about as sensitive to
    contention from other tenants as the replays are.  The table adds
    about 8 MB to ``peak_rss_mb``.
    """

    def __init__(self) -> None:
        rng = random.Random(1)
        self.table = [rng.random() for _ in range(1 << 18)]
        self.samples: list[float] = [self.run()]

    def run(self) -> float:
        rng = random.Random(7)
        table, n = self.table, len(self.table)
        latest: dict = {}
        heap: list = []
        total = 0.0
        start = time.perf_counter()
        for i in range(120_000):
            j = rng.randrange(n)
            value = table[j]
            total += value
            latest[j & 4095] = value
            heapq.heappush(heap, (value, i))
            if len(heap) > 512:
                heapq.heappop(heap)
        return time.perf_counter() - start

    def timed(self, fn, *args):
        """``(fn(*args), raw wall, scaled wall)``; the scale uses the
        calibrations right before and right after the call."""
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        before = self.samples[-1]
        self.samples.append(self.run())
        scale = CALIBRATION_REF_S / ((before + self.samples[-1]) / 2)
        return result, wall, wall * scale


class Run:
    """Replays of one workload, their checks and their digests."""

    def __init__(self, wl, workload, built, calibration) -> None:
        self.wl = wl
        self.workload = workload
        self.built = built
        self.calibration = calibration
        self.walls: list[float] = []
        self.scaled: list[float] = []
        self.digests: list[str] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first = None

    def replay(self, trace=None) -> float:
        """One checked replay; returns its scaled wall time."""
        gc.collect()
        if trace is None:
            replay = self.wl.replay
        else:
            def replay(workload, built):
                with trace:
                    return self.wl.replay(workload, built)
        (result, controller), wall, scaled = self.calibration.timed(
            replay, self.workload, self.built)
        self.attempted += 1
        problems = self.wl.check(result, controller, self.built)
        self.digests.append(self.wl.digest(result))
        if len(set(self.digests)) > 1:
            problems.append("digest differs from the previous replay")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if trace is None:
            self.walls.append(wall)
            self.scaled.append(scaled)
        if self.first is None:
            self.first = result
        return scaled

    def replay_until(self, deadline: float) -> None:
        while len(self.walls) < MIN_REPLAYS \
                or time.perf_counter() < deadline:
            self.replay()


def sim_outcomes(result, attempted: int) -> dict[str, float]:
    summary = result.summary
    served = sum(1 for r in result.records if r.finished)
    return {
        "sim_response_mean_s": summary.mean_response_s,
        "sim_block_utilization": summary.block_utilization,
        "sim_goodput_fraction": summary.goodput_fraction,
        "served_fraction": served / attempted,
    }


def measure_end_to_end(wl, workload, seed: int, deadline: float,
                       calibration: Calibration):
    setups = []
    built = None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        built, wall, scaled = calibration.timed(wl.setup, workload, seed)
        setups.append((scaled, wall))
    run = Run(wl, workload, built, calibration)
    run.replay_until(deadline)
    setup_s, setup_raw_s = sorted(setups)[len(setups) // 2]
    metrics = {
        "requests_per_s": workload.requests
        / statistics.median(run.scaled),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **sim_outcomes(run.first, workload.requests),
    }
    print(f"raw wall: requests_per_s "
          f"{workload.requests / statistics.median(run.walls):.6g}, "
          f"setup_s {setup_raw_s:.6g} (median calibration "
          f"{statistics.median(calibration.samples):.4g} s, reference "
          f"{CALIBRATION_REF_S} s)")
    print("replay walls: raw " + " ".join(f"{w:.3f}" for w in run.walls)
          + " / scaled " + " ".join(f"{w:.3f}" for w in run.scaled))
    return run, metrics


def measure_per_layer(wl, workload, seed: int, deadline: float,
                      calibration: Calibration):
    built = wl.setup(workload, seed)
    run = Run(wl, workload, built, calibration)
    run.replay_until(deadline)

    setup_trace = LayerTrace(SETUP_LAYERS)
    traced_setup = setup_trace.wrap("bench.setup", wl.setup)
    gc.collect()
    with setup_trace:
        run.built = traced_setup(workload, seed)
    loop_trace = LayerTrace(LOOP_LAYERS)
    traced_scaled = run.replay(loop_trace)
    for trace in (setup_trace, loop_trace):
        if sum(trace.self_ns.values()) != trace.root_ns:
            run.problems.append("layer self times do not sum to the "
                                "traced wall")
    if run.digests[-1] != run.digests[0]:
        run.problems.append("traced digest differs from untraced")

    metrics = {}
    for trace in (loop_trace, setup_trace):
        wall_ns = trace.root_ns
        for layer in trace.layers:
            metrics[f"{layer}.calls"] = trace.calls[layer]
            metrics[f"{layer}.self_s"] = trace.self_ns[layer] / 1e9
            metrics[f"{layer}.share"] = trace.self_ns[layer] / wall_ns
    deploy = "repro.runtime.controller:SystemController.try_deploy"
    policy = ("repro.runtime.policy:CommunicationAwarePolicy.allocate",
              "repro.runtime.policy:CommunicationAwarePolicy"
              ".allocate_fast")
    deploy_ns = sorted(loop_trace.durations_ns(deploy))
    policy_ns = sorted(loop_trace.durations_ns(*policy))
    finished = sorted(r.response_s for r in run.first.records
                      if r.finished)
    metrics.update({
        "sim.experiment.admit_attempts": len(deploy_ns),
        "sim.experiment.admit_success_ratio":
            _ratio(loop_trace.successes(deploy), len(deploy_ns)),
        "runtime.controller.try_deploy_p50_us":
            _quantile_us(deploy_ns, 0.50),
        "runtime.controller.try_deploy_p999_us":
            _quantile_us(deploy_ns, 0.999),
        "runtime.controller.try_deploy.n": len(deploy_ns),
        "runtime.policy.success_ratio":
            _ratio(loop_trace.successes(*policy), len(policy_ns)),
        "runtime.policy.p999_us": _quantile_us(policy_ns, 0.999),
        "runtime.policy.n": len(policy_ns),
        "sim_response_p50_s": wl.nearest_rank(finished, 0.50),
        "sim_response_p99_s": wl.nearest_rank(finished, 0.99),
        "sim_response.n": len(finished),
        "traced.loop_wall_s": loop_trace.root_ns / 1e9,
        "traced.setup_wall_s": setup_trace.root_ns / 1e9,
        "traced.overhead_ratio": traced_scaled
        / statistics.median(run.scaled),
    })
    return run, metrics


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _quantile_us(sorted_ns: list, q: float) -> float:
    if not sorted_ns:
        return 0.0
    return sorted_ns[min(int(q * len(sorted_ns)),
                         len(sorted_ns) - 1)] / 1e3


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object."""
    import workloads as wl

    if hasattr(os, "sched_setaffinity"):
        # calibration and replays must share one CPU's contention
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    calibration = Calibration()
    deadline = time.perf_counter() + seconds
    if trace:
        run, values = measure_per_layer(wl, workload, seed, deadline,
                                        calibration)
        units = per_layer_metrics()
    else:
        run, values = measure_end_to_end(wl, workload, seed, deadline,
                                         calibration)
        units = END_TO_END
    for name in sorted(units):
        print(f"{name:42s} {values[name]:>16.6g} {units[name][0]}")
    print(f"digest {workload.name} seed={seed}: {run.digests[0]}")
    for problem in dict.fromkeys(run.problems):
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": max(run.failed, 1 if run.problems else 0),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not at {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(wl.WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
