"""The harness's cluster section: shape, parity, and the baseline gate."""

from __future__ import annotations

import copy
import json

from repro.bench.harness import bench_cluster, compare_to_baseline
from repro.sim.fleet import FleetConfig

_TINY = FleetConfig(
    num_agents=8, num_hosts=6, hops_per_journey=2, seed=7,
    malicious_host_fraction=0.2, protected=True, batched_verification=True,
)


def _report_around(section):
    return {"schema": "test", "sections": ["cluster"],
            "benchmarks": {"cluster": section}}


class TestClusterSection:
    _section = None

    @classmethod
    def section(cls):
        # One real run (verifier subprocesses are the expensive part),
        # shared across every shape assertion.
        if cls._section is None:
            cls._section = bench_cluster(_TINY, verifiers=2, gather_batch=8)
        return cls._section

    def test_section_reports_all_legs(self):
        section = self.section()
        for leg in ("single", "scaled", "failover"):
            assert section[leg]["rps"] > 0
            assert section[leg]["requests"] == \
                section["stream"]["verify_requests"]
            assert section[leg]["latency_ms"]["p99"] >= \
                section[leg]["latency_ms"]["p50"] >= 0
        assert section["verifiers"] == 2
        assert section["scaling_vs_single"] > 0
        assert isinstance(section["cpu_limited"], bool)

    def test_parity_covers_every_leg_with_zero_drops(self):
        section = self.section()
        parity = section["parity"]
        assert parity["mismatches"] == 0
        assert parity["dropped"] == 0
        assert parity["verify_checked"] == \
            3 * section["stream"]["verify_requests"]

    def test_failover_leg_records_the_drill(self):
        failover = self.section()["failover"]
        assert failover["killed"]  # a real backend name (host:port)
        assert failover["kill_after_seconds"] > 0
        assert failover["mismatches"] == 0
        assert failover["dropped"] == 0
        assert failover["failovers"] >= 0
        assert isinstance(failover["killed_mid_run"], bool)

    def test_section_is_json_serializable(self):
        section = self.section()
        assert json.loads(json.dumps(section)) == section


class TestClusterBaselineGate:
    # The gate logic is exercised against a fabricated section: the
    # comparison never re-runs benchmarks, it only reads the report.
    _SECTION = {
        "workload": {"num_agents": 8, "num_hosts": 6,
                     "hops_per_journey": 2, "seed": 7},
        "verifiers": 3,
        "single": {"rps": 100.0},
        "scaled": {"rps": 250.0},
        "scaling_vs_single": 2.5,
    }

    def test_identical_sections_pass(self):
        report = _report_around(copy.deepcopy(self._SECTION))
        assert compare_to_baseline(report, copy.deepcopy(report)) == []

    def test_throughput_regression_fails_either_leg(self):
        for leg in ("single", "scaled"):
            current = _report_around(copy.deepcopy(self._SECTION))
            baseline = copy.deepcopy(current)
            baseline["benchmarks"]["cluster"][leg]["rps"] *= 10
            failures = compare_to_baseline(current, baseline, 0.30)
            assert any(
                "cluster %s throughput regressed" % leg in failure
                for failure in failures
            )

    def test_dropped_cluster_section_fails(self):
        baseline = _report_around(copy.deepcopy(self._SECTION))
        current = {"schema": "test", "sections": ["cluster"],
                   "benchmarks": {}}
        failures = compare_to_baseline(current, baseline, 0.30)
        assert any("cluster section missing" in failure
                   for failure in failures)

    def test_workload_mismatch_refuses_to_compare(self):
        current = _report_around(copy.deepcopy(self._SECTION))
        baseline = copy.deepcopy(current)
        baseline["benchmarks"]["cluster"]["workload"]["num_agents"] = 999
        failures = compare_to_baseline(current, baseline, 0.30)
        assert any("cluster workload mismatch" in failure
                   for failure in failures)

    def test_verifier_count_mismatch_refuses_to_compare(self):
        current = _report_around(copy.deepcopy(self._SECTION))
        baseline = copy.deepcopy(current)
        baseline["benchmarks"]["cluster"]["verifiers"] = 5
        failures = compare_to_baseline(current, baseline, 0.30)
        assert any("cluster verifier-count mismatch" in failure
                   for failure in failures)

    def test_scaling_ratio_is_not_baseline_gated(self):
        # The ratio is machine-shape-dependent (cpu_limited); only the
        # explicit --min-cluster-scaling flag gates it.
        current = _report_around(copy.deepcopy(self._SECTION))
        baseline = copy.deepcopy(current)
        baseline["benchmarks"]["cluster"]["scaling_vs_single"] = 99.0
        assert compare_to_baseline(current, baseline, 0.30) == []
