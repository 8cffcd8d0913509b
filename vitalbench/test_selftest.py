"""Self-test of the benchmark at a tiny size.

Run from the repository root::

    python3 -m pytest vitalbench -q

It replays every workload shrunk to a few boards and requests, in both
modes, and checks that every metric ``BENCHMARK.json`` names is emitted
with its unit, that the layer wrappers leave the wrapped classes as
they found them, and that the workloads separate the layers.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: layers that do work only on the observed, faulted workload
OPS_ONLY = ("obs.tracer", "obs.timeline", "obs.slo", "runtime.guard",
            "runtime.defrag", "faults.injector", "faults.recovery")


def tiny(name: str) -> workloads.Workload:
    w = replace(workloads.WORKLOADS[name], boards=8, requests=300)
    if w.outages:
        # frequent enough that a short horizon still sees faults
        w = replace(w, outages={**w.outages, "rack_mtbf_s": 60.0},
                    gray={**w.gray, "icap_mtbf_s": 30.0,
                          "flaky_mtbf_s": 30.0})
    return w


@pytest.fixture(scope="module")
def results():
    saved = run.SETUP_REPEATS
    run.SETUP_REPEATS = 1
    try:
        return {(name, trace): run.measure(tiny(name), 3, 0.0, trace)
                for name in workloads.WORKLOADS
                for trace in (False, True)}
    finally:
        run.SETUP_REPEATS = saved


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.per_layer_metrics())):
        assert {m["name"]: (m["unit"], m["better"])
                for m in SPEC[key]} == table


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(results, name, trace):
    result = results[name, trace]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPLAYS
    table = run.per_layer_metrics() if trace else run.END_TO_END
    assert set(result["metrics"]) == set(table)
    for metric, (unit, _) in table.items():
        value = result["metrics"][metric]
        assert value["unit"] == unit
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workloads_separate_the_layers(results, name):
    metrics = results[name, True]["metrics"]
    for layer in OPS_ONLY:
        calls = metrics[f"{layer}.calls"]["value"]
        if name == "ops":
            assert calls > 0, layer
        else:
            assert calls == 0, layer
    shares = sum(metrics[f"{layer}.share"]["value"]
                 for layer in layers.LOOP_LAYERS)
    assert shares == pytest.approx(1.0)


def test_install_and_restore_leave_classes_unchanged():
    for table in (layers.LOOP_LAYERS, layers.SETUP_LAYERS):
        owners = layers.owners(table)
        before = {key: dict(vars(owner)) for key, owner in owners.items()}
        trace = layers.LayerTrace(table)
        with trace:
            changed = sum(
                1 for key, owner in owners.items()
                for name, value in before[key].items()
                if vars(owner).get(name) is not value)
            assert changed == len(trace._saved)
        for key, owner in owners.items():
            after = dict(vars(owner))
            assert after.keys() == before[key].keys()
            assert all(after[n] is before[key][n] for n in after)


def test_missing_entry_point_reports_zero_calls():
    trace = layers.LayerTrace({
        "gone": ("repro.sim.events:NoSuchQueue.push",
                 "repro.no_such_module:f",
                 "repro.sim.events:ArrayEventQueue.no_such_method")})
    with trace:
        pass
    assert trace.calls == {"gone": 0}
