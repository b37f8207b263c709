"""Perf-baseline harness: report schema, regression gate, CLI exit codes."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.harness import (
    ALL_SECTIONS,
    BENCH_SCHEMA,
    GATES,
    bench_campaign,
    bench_crypto_backends,
    bench_dsa_verification,
    bench_table_warmup,
    build_report,
    collect_environment,
    compare_to_baseline,
    evaluate_gates,
    format_speedup_warning,
    main,
)
from repro.sim.campaign import campaign_config
from repro.sim.fleet import FleetConfig

#: The classic sections: everything except the (heavier) service
#: section, which has its own tests in tests/bench/test_service_bench.py.
_CLASSIC = ["fleet", "dsa", "campaign"]


def _tiny_config(**overrides):
    defaults = dict(
        num_agents=8,
        num_hosts=6,
        hops_per_journey=2,
        malicious_host_fraction=0.2,
        seed=7,
        batched_verification=True,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _tiny_campaign_config(**overrides):
    defaults = dict(
        num_agents=10,
        num_hosts=6,
        hops_per_journey=2,
        attack_fraction=0.4,
        seed=7,
        batched_verification=True,
    )
    defaults.update(overrides)
    return campaign_config(**defaults)


class TestReportSchema:
    def test_report_carries_schema_environment_and_benchmarks(self):
        report = build_report(_tiny_config(), workers=1, quick=True,
                              sections=_CLASSIC)
        assert report["schema"] == BENCH_SCHEMA
        environment = report["environment"]
        for key in ("python_version", "platform", "machine", "cpu_count"):
            assert environment[key]
        fleet = report["benchmarks"]["fleet"]
        assert fleet["num_agents"] == 8
        assert fleet["deterministic_signature"]
        assert "workers_1" in fleet["runs"]
        run = fleet["runs"]["workers_1"]
        assert run["throughput_journeys_per_second"] > 0
        assert run["wall_seconds"] > 0
        # Every run — workers_1 included — records the same well-typed
        # scheduling diagnostics; renderers never special-case null.
        for entry in fleet["runs"].values():
            assert isinstance(entry["worker_utilization"], float)
            assert entry["worker_utilization"] > 0
            assert isinstance(entry["busy_fraction"], float)
            assert entry["scheduler"] in ("sequential", "work-stealing")
            assert isinstance(entry["merge_seconds"], float)
            assert entry["workers_detail"]
            for worker in entry["workers_detail"]:
                for key in ("worker", "units", "journeys",
                            "compute_seconds", "compute_cpu_seconds",
                            "serialize_seconds"):
                    assert key in worker
        assert fleet["cpu_count"] >= 1
        assert isinstance(fleet["cpu_limited"], bool)
        cache = fleet["hash_cache"]
        assert cache["hits"] + cache["misses"] > 0
        assert 0.0 <= cache["hit_rate"] <= 1.0
        dsa = report["benchmarks"]["dsa_verification"]
        assert dsa["speedup"] > 0
        campaign = report["benchmarks"]["campaign"]
        assert campaign["attack_fraction"] == 0.3
        assert campaign["detection"]["per_scenario"]

    def test_report_is_json_serializable(self):
        report = build_report(_tiny_config(), workers=1, quick=True,
                              sections=_CLASSIC)
        assert json.loads(json.dumps(report)) == report

    def test_dsa_benchmark_prefers_the_batched_path(self):
        result = bench_dsa_verification(signatures=24, signers=4, repeats=1)
        assert result["individual_seconds"] > 0
        assert result["batched_seconds"] > 0
        assert result["speedup"] > 1.0

    def test_environment_is_collectable_outside_git(self, tmp_path):
        environment = collect_environment()
        assert environment["cpu_count"] >= 1


class TestCampaignSection:
    @pytest.fixture(scope="class")
    def section(self):
        return bench_campaign(_tiny_campaign_config(), workers=1)

    def test_detection_matrix_is_complete(self, section):
        detection = section["detection"]
        assert detection["campaign_attacked"] > 0
        assert detection["always_detectable_recall"] == 1.0
        assert detection["false_positive_rate"] == 0.0
        for row in detection["per_scenario"].values():
            assert {"precision", "recall", "detection_rate",
                    "detectability", "area"} <= set(row)
        assert detection["detectability_matrix"]

    def test_benign_baseline_and_overhead_are_reported(self, section):
        assert section["benign_baseline"]["throughput_journeys_per_second"] > 0
        assert section["adversarial_overhead"] > 0
        assert "workers_1" in section["runs"]
        assert section["deterministic_signature"]

    def test_campaign_bench_rejects_benign_configs(self):
        with pytest.raises(ValueError):
            bench_campaign(
                _tiny_campaign_config(attack_fraction=0.0, scenarios=()),
                workers=1,
            )


class TestBaselineGate:
    def _report(self):
        return build_report(_tiny_config(), workers=1, quick=True,
                            sections=_CLASSIC)

    def test_identical_reports_pass(self):
        report = self._report()
        assert compare_to_baseline(report, copy.deepcopy(report)) == []

    def test_regression_beyond_threshold_fails(self):
        report = self._report()
        baseline = copy.deepcopy(report)
        for run in baseline["benchmarks"]["fleet"]["runs"].values():
            run["throughput_journeys_per_second"] *= 10
        failures = compare_to_baseline(report, baseline, max_regression=0.30)
        assert failures and "regressed" in failures[0]

    def test_regression_within_threshold_passes(self):
        report = self._report()
        baseline = copy.deepcopy(report)
        for run in baseline["benchmarks"]["fleet"]["runs"].values():
            run["throughput_journeys_per_second"] *= 1.2
        assert compare_to_baseline(report, baseline, max_regression=0.30) == []

    def test_schema_mismatch_refuses_to_compare(self):
        report = self._report()
        baseline = copy.deepcopy(report)
        baseline["schema"] = "something-else/0"
        failures = compare_to_baseline(report, baseline)
        assert failures and "schema mismatch" in failures[0]

    def test_workload_mismatch_refuses_to_compare(self):
        report = self._report()
        baseline = copy.deepcopy(report)
        baseline["benchmarks"]["fleet"]["num_agents"] = 999999
        failures = compare_to_baseline(report, baseline)
        assert failures and "workload mismatch" in failures[0]

    def test_missing_run_key_fails(self):
        report = self._report()
        baseline = copy.deepcopy(report)
        baseline["benchmarks"]["fleet"]["runs"]["workers_64"] = copy.deepcopy(
            baseline["benchmarks"]["fleet"]["runs"]["workers_1"]
        )
        failures = compare_to_baseline(report, baseline)
        assert failures and "missing" in failures[0]

    def test_dropped_campaign_section_fails(self):
        report = self._report()
        baseline = copy.deepcopy(report)
        del report["benchmarks"]["campaign"]
        failures = compare_to_baseline(report, baseline)
        assert failures and "campaign section missing" in failures[-1]

    def test_campaign_throughput_regression_fails(self):
        report = self._report()
        baseline = copy.deepcopy(report)
        for run in baseline["benchmarks"]["campaign"]["runs"].values():
            run["throughput_journeys_per_second"] *= 10
        failures = compare_to_baseline(report, baseline, max_regression=0.30)
        assert failures
        assert any("campaign" in failure for failure in failures)

    def test_campaign_workload_mismatch_refuses_to_compare(self):
        report = self._report()
        baseline = copy.deepcopy(report)
        baseline["benchmarks"]["campaign"]["attack_fraction"] = 0.9
        failures = compare_to_baseline(report, baseline)
        assert failures and "campaign workload mismatch" in failures[-1]


class TestCryptoSection:
    @pytest.fixture(scope="class")
    def section(self):
        return bench_crypto_backends(signatures=12, signers=3, repeats=1)

    def test_every_available_backend_is_measured(self, section):
        from repro.crypto.backend import available_backends

        assert section["signatures"] == 12 and section["signers"] == 3
        assert set(section["backends"]) == set(available_backends())
        assert section["active_backend"]
        assert section["identical_signatures"] is True
        for entry in section["backends"].values():
            assert entry["sign_us_per_op"] > 0
            assert entry["verify_us_per_item"] > 0
            assert entry["batch_verify_us_per_item"] > 0

    def test_section_is_json_serializable(self, section):
        assert json.loads(json.dumps(section)) == section

    def test_table_warmup_reports_a_cold_and_a_warm_pass(self):
        warmup = bench_table_warmup(_tiny_config())
        assert warmup["tables"] == _tiny_config().num_hosts + 2
        assert warmup["cold_seconds"] >= 0
        assert warmup["warm_seconds"] >= 0
        assert warmup["cache_stores"] == warmup["tables"]
        assert warmup["cache_hits"] == warmup["tables"]

    def test_crypto_regression_gate(self):
        current = {
            "schema": BENCH_SCHEMA,
            "sections": ["crypto"],
            "benchmarks": {"crypto": {
                "signatures": 96, "signers": 6,
                "backends": {"python": {"batch_verify_us_per_item": 30.0}},
            }},
        }
        baseline = copy.deepcopy(current)
        assert compare_to_baseline(current, baseline) == []
        # Beyond the allowed regression: fail.
        baseline["benchmarks"]["crypto"]["backends"]["python"][
            "batch_verify_us_per_item"] = 10.0
        failures = compare_to_baseline(current, baseline,
                                       max_regression=0.30)
        assert failures and "batch_verify regressed" in failures[0]
        # A baseline backend absent from the current environment (e.g.
        # gmpy2 on a runner without it) is skipped, not failed.
        baseline = copy.deepcopy(current)
        baseline["benchmarks"]["crypto"]["backends"]["gmpy2"] = {
            "batch_verify_us_per_item": 1.0,
        }
        assert compare_to_baseline(current, baseline) == []
        # Workload knob mismatch refuses to compare.
        baseline = copy.deepcopy(current)
        baseline["benchmarks"]["crypto"]["signatures"] = 12
        failures = compare_to_baseline(current, baseline)
        assert failures and "workload mismatch" in failures[0]
        # A requested-but-missing crypto section fails loudly.
        baseline = copy.deepcopy(current)
        del current["benchmarks"]["crypto"]
        failures = compare_to_baseline(current, baseline)
        assert failures and "crypto section missing" in failures[0]


def _put(node, dotted, value):
    *parents, leaf = dotted.split(".")
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value


def _get(node, dotted):
    for part in dotted.split("."):
        node = node[part]
    return node


#: CLI floor thresholds for the fabricated report below.
_FLOORS = {gate.floor: 5.0 for gate in GATES if isinstance(gate.floor, str)}


def _gated_report():
    """A report holding every GATES metric at 10.0 and every pin at 7."""
    report = {"schema": BENCH_SCHEMA, "sections": list(ALL_SECTIONS),
              "benchmarks": {}}
    for gate in GATES:
        section = report["benchmarks"].setdefault(
            gate.section, {"cpu_limited": False, "cpu_count": 1})
        for pin in gate.pins:
            _put(section, pin, 7)
        _put(section, gate.metric.replace("*", "entry"), 10.0)
    return report


def _gate_id(gate):
    return "%s:%s" % (gate.section, gate.metric)


class TestGateTable:
    """Every row of the declarative gate table, through the one
    evaluator: identical reports pass, a value past the row's limit in
    its direction fails, a changed pin refuses, and a missing current
    entry fails or is skipped as the row says."""

    @staticmethod
    def _evaluate(current, baseline):
        return evaluate_gates(current, baseline, max_regression=0.30,
                              floors=_FLOORS)

    @pytest.mark.parametrize("gate", GATES, ids=_gate_id)
    def test_identical_report_passes(self, gate):
        report = _gated_report()
        assert self._evaluate(report, copy.deepcopy(report)) == ([], [])

    @pytest.mark.parametrize("gate", GATES, ids=_gate_id)
    def test_value_past_the_limit_fails(self, gate):
        baseline = _gated_report()
        path = "benchmarks.%s.%s" % (gate.section,
                                     gate.metric.replace("*", "entry"))
        higher = gate.better == "higher"
        if gate.floor is None:
            limit = 10.0 * (0.7 if higher else 1.3)
        else:
            limit = _FLOORS.get(gate.floor, gate.floor)
        for factor, fails in ((0.9, higher), (1.1, not higher)):
            current = copy.deepcopy(baseline)
            _put(current, path, limit * factor)
            failures, warnings = self._evaluate(current, baseline)
            assert warnings == []
            if fails:
                assert len(failures) == 1
                assert failures[0].startswith(gate.section)
                assert ("regressed" if gate.floor is None
                        else "missed its floor") in failures[0]
            else:
                assert failures == []
            if fails and gate.waiver:
                _put(current, "benchmarks.%s.%s" % (gate.section,
                                                    gate.waiver), True)
                failures, warnings = self._evaluate(current, baseline)
                assert failures == []
                assert len(warnings) == 1 and "cpu-limited" in warnings[0]

    @pytest.mark.parametrize(
        "gate, pin",
        [(gate, pin) for gate in GATES for pin in gate.pins],
        ids=lambda value: value if isinstance(value, str)
        else _gate_id(value),
    )
    def test_changed_pin_refuses(self, gate, pin):
        current = _gated_report()
        baseline = copy.deepcopy(current)
        _put(baseline["benchmarks"][gate.section], pin, 8)
        # The refused section's regression must not be reported as one.
        if gate.floor is None:
            _put(baseline["benchmarks"][gate.section],
                 gate.metric.replace("*", "entry"), 1000.0)
        failures, _ = self._evaluate(current, baseline)
        assert len(failures) == 1
        assert failures[0].startswith(gate.section)
        assert "mismatch on %s" % pin.rsplit(".", 1)[-1] in failures[0]

    @pytest.mark.parametrize("gate", GATES, ids=_gate_id)
    def test_missing_current_entry_fails_or_skips(self, gate):
        baseline = _gated_report()
        current = copy.deepcopy(baseline)
        section = current["benchmarks"][gate.section]
        *parents, leaf = gate.metric.replace("*", "entry").split(".")
        del (_get(section, ".".join(parents)) if parents else section)[leaf]
        failures, _ = self._evaluate(current, baseline)
        if gate.missing == "fail":
            assert len(failures) == 1
            assert "missing from current report" in failures[0]
        else:
            assert failures == []

    def test_one_refusal_does_not_mask_other_sections(self):
        current = _gated_report()
        baseline = copy.deepcopy(current)
        baseline["benchmarks"]["fleet"]["seed"] = 8
        baseline["benchmarks"]["service"]["batched"]["rps"] *= 10
        failures = compare_to_baseline(current, baseline)
        assert any("fleet workload mismatch on seed" in failure
                   for failure in failures)
        assert any("service batched throughput regressed" in failure
                   for failure in failures)
        # A dropped fleet section masks nothing either.
        del current["benchmarks"]["fleet"]
        failures = compare_to_baseline(current, baseline)
        assert any("fleet section missing" in failure
                   for failure in failures)
        assert any("service batched throughput regressed" in failure
                   for failure in failures)

    @pytest.mark.parametrize("section", sorted({g.section for g in GATES}))
    def test_requested_section_absent_from_baseline_fails(self, section):
        current = _gated_report()
        baseline = copy.deepcopy(current)
        del baseline["benchmarks"][section]
        failures = compare_to_baseline(current, baseline)
        assert failures == [failures[0]]
        assert "baseline has no %s section" % section in failures[0]

    def test_floors_are_disabled_by_none_or_negative_thresholds(self):
        current = _gated_report()
        for gate in GATES:
            if isinstance(gate.floor, str):
                _put(current["benchmarks"][gate.section], gate.metric, 0.0)
        for value in (None, -1.0):
            floors = dict.fromkeys(_FLOORS, value)
            assert evaluate_gates(current, floors=floors) == ([], [])


class TestSpeedupWarning:
    def test_banner_attributes_the_regression(self):
        fleet = {
            "speedup_vs_single": 0.8,
            "runs": {"workers_4": {
                "wall_seconds": 2.0,
                "worker_utilization": 0.28,
                "busy_fraction": 0.97,
                "merge_seconds": 0.05,
                "workers_detail": [
                    {"worker": 0, "units": 3, "warmup_seconds": 0.9,
                     "compute_seconds": 1.2, "serialize_seconds": 0.1},
                    {"worker": 1, "units": 5, "warmup_seconds": 1.1,
                     "compute_seconds": 1.4, "serialize_seconds": 0.2},
                ],
            }},
        }
        banner = format_speedup_warning(4, fleet, cpu_count=4)
        assert "WARNING" in banner
        assert "0.80x" in banner
        assert "28% of the 4-worker CPU envelope" in banner
        assert "97% wall-clock busy fraction" in banner
        assert ("worker 0: 3 units  warmup 0.90s  compute 1.20s  "
                "serialize 0.10s") in banner
        assert ("worker 1: 5 units  warmup 1.10s  compute 1.40s  "
                "serialize 0.20s") in banner
        assert "merge: 0.05s against a run wall of 2.00s" in banner

    def test_banner_degrades_without_attribution_data(self):
        fleet = {"speedup_vs_single": 0.5, "runs": {}}
        banner = format_speedup_warning(2, fleet, cpu_count=1)
        assert "0.50x" in banner
        assert "Per-worker" not in banner
        assert "Coordinator merge" not in banner


class TestSectionFiltering:
    def test_sections_subset_runs_only_those_benchmarks(self):
        report = build_report(_tiny_config(), workers=1, quick=True,
                              sections=["fleet", "dsa"])
        assert set(report["benchmarks"]) == {"fleet", "dsa_verification"}
        assert report["sections"] == ["fleet", "dsa"]

    def test_sections_are_recorded_in_canonical_order(self):
        report = build_report(_tiny_config(), workers=1, quick=True,
                              sections=["dsa", "fleet"])
        assert report["sections"] == ["fleet", "dsa"]
        assert list(ALL_SECTIONS) == [
            "fleet", "dsa", "crypto", "campaign", "service", "cluster",
            "chaos",
        ]

    def test_unknown_section_is_rejected(self):
        with pytest.raises(ValueError):
            build_report(_tiny_config(), workers=1, quick=True,
                         sections=["fleet", "nonsense"])

    def test_unselected_baseline_section_is_skipped_by_the_gate(self):
        # The baseline carries a campaign section; a current report that
        # deliberately ran without it (sections records the subset) must
        # pass, while a *requested* missing section still fails.
        baseline = build_report(_tiny_config(), workers=1, quick=True,
                                sections=_CLASSIC)
        current = build_report(_tiny_config(), workers=1, quick=True,
                               sections=["fleet"])
        assert compare_to_baseline(current, baseline) == []

    def test_unknown_cli_section_exits_with_error(self):
        assert main(["--sections", "fleet,bogus"]) == 2


class TestTelemetrySection:
    """Structural checks for the observability leg of the fleet
    section.  The strict ≤2% overhead *gate* runs in the bench suite
    (benchmarks/test_observability_overhead.py) where timing variance
    belongs; tier-1 only pins shape and bookkeeping."""

    def test_overhead_leg_reports_interleaved_walls(self):
        from repro.bench.harness import bench_telemetry_overhead
        from repro.obs import obs_enabled

        before = obs_enabled()
        result = bench_telemetry_overhead(_tiny_config(), repeats=1)
        assert obs_enabled() == before  # the leg restores the switch
        assert result["num_agents"] == 8
        assert result["repeats"] == 1
        assert result["disabled_wall_seconds"] > 0
        assert result["enabled_wall_seconds"] > 0
        assert isinstance(result["overhead_fraction"], float)

    def test_fleet_section_carries_telemetry_and_overhead(self):
        report = build_report(_tiny_config(), workers=1, quick=True,
                              sections=["fleet"])
        fleet = report["benchmarks"]["fleet"]
        overhead = fleet["telemetry_overhead"]
        assert overhead["repeats"] >= 1
        telemetry = fleet["telemetry"]
        assert telemetry is not None
        assert telemetry["counters"]["fleet.journeys"] == 8
        assert json.loads(json.dumps(fleet)) == fleet


_TINY_CLI = [
    "--agents", "8", "--hosts", "6", "--hops", "2",
    "--campaign-agents", "10", "--workers", "1",
    "--sections", "fleet,dsa,campaign",
]


class TestCommandLine:
    def test_main_writes_report_and_returns_zero(self, tmp_path):
        output = tmp_path / "BENCH_fleet.json"
        status = main(_TINY_CLI + ["--output", str(output)])
        assert status == 0
        report = json.loads(output.read_text())
        assert report["schema"] == BENCH_SCHEMA
        campaign = report["benchmarks"]["campaign"]
        assert campaign["num_agents"] == 10
        assert campaign["detection"]["always_detectable_recall"] == 1.0

    def test_main_fails_against_a_faster_baseline(self, tmp_path):
        output = tmp_path / "current.json"
        assert main(_TINY_CLI + ["--output", str(output)]) == 0
        baseline = json.loads(output.read_text())
        for run in baseline["benchmarks"]["fleet"]["runs"].values():
            run["throughput_journeys_per_second"] *= 10
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        status = main(_TINY_CLI + [
            "--output", str(tmp_path / "again.json"),
            "--baseline", str(baseline_path),
        ])
        assert status == 1

    def test_main_writes_the_telemetry_snapshot(self, tmp_path):
        from repro.obs import TELEMETRY_SCHEMA

        metrics = tmp_path / "BENCH_telemetry.json"
        assert main([
            "--agents", "8", "--hosts", "6", "--hops", "2",
            "--workers", "1", "--sections", "fleet",
            "--output", str(tmp_path / "report.json"),
            "--metrics-out", str(metrics),
        ]) == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["schema"] == TELEMETRY_SCHEMA
        assert snapshot["telemetry"]["counters"]["fleet.journeys"] == 8
        assert snapshot["telemetry_overhead"]["repeats"] >= 1
        assert snapshot["environment"]["cpu_count"] >= 1

    def test_main_enforces_the_campaign_recall_floor(self, tmp_path):
        # An impossible floor (> 1.0) must trip the gate even on a
        # perfectly detecting campaign; disabling via a negative value
        # must not.
        output = tmp_path / "report.json"
        assert main(_TINY_CLI + [
            "--output", str(output), "--min-campaign-recall", "1.1",
        ]) == 1
        assert main(_TINY_CLI + [
            "--output", str(output), "--min-campaign-recall", "-1",
        ]) == 0
