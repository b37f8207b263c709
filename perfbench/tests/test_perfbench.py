"""The benchmark's own tests: tiny runs of every workload.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import fleet, metrics, paper, service  # noqa: E402
from perfbench.run import _workload, measure  # noqa: E402
from perfbench.tracing import TARGETS, Tracer  # noqa: E402


#: Module constants that shrink each workload to about a second.
TINY = {
    "fleet_protected": (fleet, {"JOURNEYS_PER_OP": 2, "WARMUP_JOURNEYS": 2}),
    "service_mixed": (service, {
        "STREAM_JOURNEYS": 4, "CAPACITY_REQUESTS": 40, "OPEN_REQUESTS": 20,
        "OPEN_RATE": 400.0, "CACHE_ENTRIES": 8, "REPEAT_WINDOW": 4,
    }),
    "paper_tables": (paper, {
        "SMALL_1IN": 2, "SMALL_100IN": 1, "BIG_CYCLES": 50,
    }),
}
WORKLOADS = tuple(TINY)


def tiny(name: str, monkeypatch):
    """A workload of the given name, shrunk to run in about a second."""
    module, constants = TINY[name]
    for constant, value in constants.items():
        monkeypatch.setattr(module, constant, value)
    return _workload(name, seed=7)


def run_tiny(workload, trace: bool):
    try:
        started = time.perf_counter()
        workload.setup()
        setup_s = [time.perf_counter() - started]
        return measure(workload, seconds=0.0, trace=trace, setup_s=setup_s)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(name, monkeypatch):
    result = run_tiny(tiny(name, monkeypatch), trace=False)
    assert result["correct"], result["lines"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    reported = {key: value["unit"] for key, value in result["metrics"].items()}
    assert reported == metrics.END_TO_END
    for key, value in result["metrics"].items():
        assert value["value"] > 0, key


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_traced_run_reports_every_layer_metric(name, monkeypatch):
    result = run_tiny(tiny(name, monkeypatch), trace=True)
    assert result["correct"], result["lines"]
    reported = {key: value["unit"] for key, value in result["metrics"].items()}
    assert reported == metrics.PER_LAYER
    values = {key: value["value"] for key, value in result["metrics"].items()}
    assert values["trace.overhead_ratio"] > 0
    assert 0.0 <= values["trace.unattributed_share"] <= 1.0
    exercised = {
        "fleet_protected": ("crypto.encode.calls", "crypto.sign.calls",
                            "platform.hop.calls", "agents.copy.calls"),
        "service_mixed": ("service.wire.calls", "service.cache.calls",
                          "crypto.batch_verify.calls", "core.protocol.calls"),
        "paper_tables": ("agents.reexecute.calls",
                         "paper.overhead_x.1in_1cyc",
                         "paper.cycle_ms.plain.1in_10kcyc"),
    }[name]
    for key in exercised:
        assert values[key] > 0, key


def _flip_first_expected_fleet_verdict(monkeypatch):
    from repro.sim import FleetEngine

    original = FleetEngine.run
    first_op = fleet.fleet_config(7, 0, fleet.JOURNEYS_PER_OP).seed
    flipped = []

    def run(engine):
        result = original(engine)
        if engine.config.seed == first_op and not flipped:
            outcome = result.outcomes[0]
            outcome.expected_detected = not outcome.expected_detected
            flipped.append(outcome.journey_id)
        return result

    monkeypatch.setattr(FleetEngine, "run", run)


def _flip_first_expected_service_verdict(workload):
    original = workload.setup

    def setup():
        original()
        first = workload.stream[0]
        workload.stream[0] = dataclasses.replace(
            first, expected=not first.expected if first.op == "verify"
            else {"status": "not-this-verdict"},
        )

    workload.setup = setup


def _attack_reported_in_first_pair(workload, monkeypatch):
    original_op = workload.op
    original = paper.run_journey

    def run_journey(inputs, cycles, protected):
        run = original(inputs, cycles, protected)
        if protected:
            run["journey"].verdicts.append({"is_attack": True})
        return run

    def op(index):
        if index:
            return original_op(index)
        monkeypatch.setattr(paper, "run_journey", run_journey)
        try:
            return original_op(index)
        finally:
            monkeypatch.setattr(paper, "run_journey", original)

    workload.op = op


@pytest.mark.parametrize("name", WORKLOADS)
def test_wrong_expected_verdict_is_a_failed_op(name, monkeypatch):
    workload = tiny(name, monkeypatch)
    if name == "fleet_protected":
        _flip_first_expected_fleet_verdict(monkeypatch)
    elif name == "service_mixed":
        _flip_first_expected_service_verdict(workload)
    else:
        _attack_reported_in_first_pair(workload, monkeypatch)
    result = run_tiny(workload, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["attempted"] > result["failed"]


def _reference_holders():
    """Every (holder, attribute) that refers to a wrapped entry point."""
    import importlib

    found = {}
    for target in TARGETS:
        module = importlib.import_module(target.module)
        if target.kind == "function":
            original = getattr(module, target.name)
            for holder in list(sys.modules.values()):
                namespace = getattr(holder, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for attr, value in list(namespace.items()):
                    if value is original:
                        found[(id(holder), attr)] = (holder, attr, value)
        else:
            owner = getattr(module, target.owner)
            found[(id(owner), target.name)] = (
                owner, target.name, owner.__dict__[target.name]
            )
    from repro.service.batching import MicroBatcher

    found[(id(MicroBatcher), "submit")] = (
        MicroBatcher, "submit", MicroBatcher.__dict__["submit"]
    )
    return found


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_tracer_restores_originals_and_keeps_the_digest(monkeypatch):
    import repro.service  # noqa: F401 - load every wrapped module first

    monkeypatch.setattr(fleet, "JOURNEYS_PER_OP", 2)
    before = _reference_holders()
    plain = fleet.FleetWorkload(seed=3)
    for index in range(3):
        plain.check(plain.op(index))

    traced = fleet.FleetWorkload(seed=3)
    tracer = Tracer()
    with tracer:
        for index in range(3):
            tracer.begin_op(index)
            record = traced.op(index)
            tracer.end_op(record.wall_s)
            traced.check(record)
        assert tracer.layer_metrics()["crypto.encode.calls"] > 0
    for holder, attr, original in before.values():
        namespace = holder.__dict__
        assert namespace[attr] is original, (holder, attr)
    assert traced.digest() == plain.digest()
    assert not plain.problems and not traced.problems


def test_checks_between_ops_are_not_charged_to_any_layer(monkeypatch):
    monkeypatch.setattr(fleet, "JOURNEYS_PER_OP", 2)
    workload = fleet.FleetWorkload(seed=3)
    tracer = Tracer()
    with tracer:
        tracer.begin_op(0)
        record = workload.op(0)
        tracer.end_op(record.wall_s)
        kept = len(tracer.spans)
        # The digest encodes every outcome; it runs outside the op.
        workload.check(record)
        tracer.begin_op(1)
        tracer.end_op(1.0)
    assert tracer.history["crypto.encode"]["calls"][0] > 0
    assert tracer.history["crypto.encode"]["calls"][1] == 0
    assert tracer.history["crypto.hash"]["calls"][1] == 0
    assert len(tracer.spans) == kept
    assert tracer.unattributed[1] == 1.0


def test_incomplete_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_protected",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    for line in completed.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
