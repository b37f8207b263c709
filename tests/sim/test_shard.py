"""Sharded fleet execution: the merge must be invisible.

The contract under test: for the same seed, every ``(unit_size,
workers)`` execution strategy — including the unsharded single-process
engine — produces the same deterministic result signature and the same
merged JSONL trace bytes.  Plus the plumbing around it: partition
shape, pickle safety of what crosses process boundaries, per-shard
trace files, and merge-time sanity checks.
"""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.sim import (
    FleetConfig,
    FleetEngine,
    FleetWorkerPool,
    merge_shard_results,
    run_fleet,
    run_shard,
    split_fleet,
)
from repro.sim.shard import derive_shard_seed, plan_units, shard_trace_path


def _config(**overrides):
    defaults = dict(
        num_agents=24,
        num_hosts=8,
        hops_per_journey=3,
        malicious_host_fraction=0.25,
        seed=11,
        batched_verification=True,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestSplitFleet:
    def test_shards_tile_the_agent_range(self):
        specs = split_fleet(_config(), 5)
        assert [s.shard_index for s in specs] == [0, 1, 2, 3, 4]
        assert specs[0].agent_start == 0
        assert specs[-1].agent_stop == 24
        for left, right in zip(specs, specs[1:]):
            assert left.agent_stop == right.agent_start
        sizes = [s.num_agents for s in specs]
        assert sum(sizes) == 24
        assert max(sizes) - min(sizes) <= 1

    def test_per_shard_seeds_are_distinct_and_deterministic(self):
        specs = split_fleet(_config(), 4)
        seeds = [s.seed for s in specs]
        assert len(set(seeds)) == 4
        assert seeds == [derive_shard_seed(11, i, 4) for i in range(4)]

    def test_more_shards_than_journeys_is_rejected(self):
        with pytest.raises(ConfigurationError):
            split_fleet(_config(num_agents=3), 4)
        with pytest.raises(ConfigurationError):
            split_fleet(_config(), 0)

    def test_trace_paths_are_derived_per_shard(self, tmp_path):
        merged = str(tmp_path / "fleet.jsonl")
        specs = split_fleet(_config(), 3, trace_path=merged)
        assert [s.trace_path for s in specs] == [
            shard_trace_path(merged, i, 3) for i in range(3)
        ]
        # shard engines must not race on the merged file
        assert all(s.config.trace_path is None for s in specs)


class TestShardDeterminism:
    """Satellite: equal seeds => identical merged results, workers 1/2/4."""

    @pytest.fixture(scope="class")
    def single_process(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("plain") / "fleet.jsonl")
        result = FleetEngine(_config(trace_path=path)).run()
        with open(path, "rb") as handle:
            return result, handle.read()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_merged_result_and_trace_match_single_process(
        self, workers, tmp_path, single_process
    ):
        plain_result, plain_trace = single_process
        path = str(tmp_path / "merged.jsonl")
        merged = run_fleet(
            _config(trace_path=path), workers=workers, unit_size=6
        )
        assert (merged.deterministic_signature()
                == plain_result.deterministic_signature())
        with open(path, "rb") as handle:
            assert handle.read() == plain_trace

    def test_shard_count_does_not_change_the_result(self, single_process):
        plain_result, _ = single_process
        for unit_size in (12, 8):  # 2 and 3 units of the 24 journeys
            merged = run_fleet(_config(), workers=1, unit_size=unit_size)
            assert (merged.deterministic_signature()
                    == plain_result.deterministic_signature())

    def test_merged_aggregates_add_up(self, single_process):
        plain_result, _ = single_process
        merged = run_fleet(_config(), workers=1, unit_size=8)
        assert merged.journeys == plain_result.journeys
        assert merged.events_processed == plain_result.events_processed
        assert merged.virtual_makespan == plain_result.virtual_makespan
        assert merged.malicious_hosts == plain_result.malicious_hosts
        assert merged.shards is not None and len(merged.shards) == 3

    def test_per_shard_trace_files_are_written(self, tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        run_fleet(_config(trace_path=path), workers=1, unit_size=12)
        for index in range(2):
            shard_file = shard_trace_path(path, index, 2)
            with open(shard_file, "r", encoding="utf-8") as handle:
                first = handle.readline()
            assert '"event":"fleet"' in first
            assert '"shard"' in first


class TestCampaignShardDeterminism:
    """Satellite: adversarial campaigns shard exactly like benign fleets
    — workers 1/2/4 produce byte-identical merged traces and identical
    campaign analyses."""

    @staticmethod
    def _campaign_config(**overrides):
        return _config(
            malicious_host_fraction=0.0,
            attack_fraction=0.4,
            journey_scenarios=(
                "tamper-result-variable",
                "incorrect-execution",
                "lie-about-input",
                "strip-protocol-data",
            ),
            **overrides,
        )

    @pytest.fixture(scope="class")
    def single_process_campaign(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("campaign") / "campaign.jsonl")
        result = FleetEngine(self._campaign_config(trace_path=path)).run()
        with open(path, "rb") as handle:
            return result, handle.read()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_adversarial_merge_is_bit_identical(
        self, workers, tmp_path, single_process_campaign
    ):
        from repro.sim import analyze_campaign

        plain_result, plain_trace = single_process_campaign
        path = str(tmp_path / "merged.jsonl")
        merged = run_fleet(
            self._campaign_config(trace_path=path),
            workers=workers, unit_size=6,
        )
        assert (merged.deterministic_signature()
                == plain_result.deterministic_signature())
        with open(path, "rb") as handle:
            assert handle.read() == plain_trace
        # The campaign analysis is a pure function of the outcomes, so
        # equal runs must yield equal summaries (per-scenario included).
        assert (analyze_campaign(merged).summary()
                == analyze_campaign(plain_result).summary())

    def test_campaign_attacks_land_in_every_shard_range(
        self, single_process_campaign
    ):
        plain_result, _ = single_process_campaign
        merged = run_fleet(self._campaign_config(), workers=1, unit_size=8)
        assert merged.shards is not None
        per_shard = [shard["campaign_attacked"] for shard in merged.shards]
        assert sum(per_shard) == len(plain_result.campaign_journeys)
        assert len(plain_result.campaign_journeys) > 0


class TestPickleSafety:
    """What crosses the pool boundary must survive pickling unchanged."""

    def test_shard_spec_round_trips(self):
        spec = split_fleet(_config(), 3)[1]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_shard_result_round_trips(self):
        spec = split_fleet(_config(num_agents=6), 2)[0]
        result = run_shard(spec)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.spec == spec
        assert ([o.to_canonical() for o in clone.outcomes]
                == [o.to_canonical() for o in result.outcomes])
        assert clone.events_processed == result.events_processed


class TestMergeSanity:
    def test_merge_rejects_incomplete_coverage(self):
        config = _config(num_agents=6)
        specs = split_fleet(config, 2)
        first = run_shard(specs[0])
        with pytest.raises(ConfigurationError):
            merge_shard_results(config, [first], wall_seconds=0.0)

    def test_merge_rejects_empty_input(self):
        with pytest.raises(ConfigurationError):
            merge_shard_results(_config(), [], wall_seconds=0.0)

    def test_run_fleet_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            run_fleet(_config(), workers=0)


class TestPartialEngine:
    def test_partial_engine_reproduces_its_slice_of_the_full_run(self):
        config = _config()
        full = FleetEngine(config).run()
        partial = FleetEngine(
            config, agent_start=8, agent_stop=16,
            shard_index=1, num_shards=3,
        ).run()
        by_id = {o.journey_id: o for o in full.outcomes}
        assert len(partial.outcomes) == 8
        for outcome in partial.outcomes:
            assert outcome.to_canonical() == by_id[outcome.journey_id].to_canonical()

    def test_invalid_ranges_are_rejected(self):
        config = _config()
        with pytest.raises(ConfigurationError):
            FleetEngine(config, agent_start=10, agent_stop=5)
        with pytest.raises(ConfigurationError):
            FleetEngine(config, agent_stop=config.num_agents + 1)
        with pytest.raises(ConfigurationError):
            FleetEngine(config, shard_index=2, num_shards=2)


class TestPlanUnits:
    def test_unit_size_rounds_up(self):
        assert plan_units(_config(), workers=2, unit_size=7) == 4
        assert plan_units(_config(), workers=2, unit_size=24) == 1
        assert plan_units(_config(), workers=2, unit_size=1) == 24

    def test_default_plan_oversubscribes_the_queue(self):
        # Several units per worker is what makes stealing effective.
        assert plan_units(_config(), workers=1) == 1
        assert plan_units(_config(), workers=2) == 8
        assert plan_units(_config(num_agents=5), workers=4) == 5

    def test_nonpositive_unit_size_is_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_units(_config(), workers=2, unit_size=0)


class TestObservabilityPlumbing:
    """Satellite: merge-time trace losses must surface in
    ``worker_report`` / ``supervision_report()`` instead of vanishing,
    and per-unit telemetry snapshots must fold into one fleet-wide
    block on the merged result."""

    def test_clean_run_reports_empty_trace_losses(self, tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        result = run_fleet(_config(trace_path=path), workers=2, unit_size=6)
        report = result.worker_report
        assert report["trace_losses"] == {}
        assert report["supervision"]["trace_losses"] == {}

    def test_merged_trace_write_reports_torn_tail_losses(self, tmp_path):
        import json

        from repro.sim.shard import _write_merged_trace

        intact = tmp_path / "w0.jsonl"
        intact.write_text(
            json.dumps({"event": "hop", "ts": 1.0, "journey": "j00000"})
            + "\n",
            encoding="utf-8",
        )
        torn = tmp_path / "w1.jsonl"
        torn.write_text(
            json.dumps({"event": "hop", "ts": 2.0, "journey": "j00001"})
            + "\n" + '{"event": "set',  # the interrupted append
            encoding="utf-8",
        )
        merged = str(tmp_path / "merged.jsonl")
        losses = _write_merged_trace(_config(), merged, [str(intact),
                                                         str(torn)])
        assert losses == {str(torn): 1}
        from repro.sim import read_trace

        events = read_trace(merged)
        assert events[0]["event"] == "fleet"
        assert [e.get("journey") for e in events[1:]] == ["j00000", "j00001"]

    def test_note_trace_losses_accumulates_into_supervision_report(self):
        with FleetWorkerPool(1) as pool:
            pool.note_trace_losses({"/tmp/w0.jsonl": 1})
            pool.note_trace_losses({"/tmp/w0.jsonl": 2, "/tmp/w1.jsonl": 1})
            report = pool.supervision_report()
        assert report["trace_losses"] == {
            "/tmp/w0.jsonl": 3, "/tmp/w1.jsonl": 1,
        }

    def test_worker_report_carries_merged_telemetry(self):
        from repro.obs import TELEMETRY_SCHEMA

        result = run_fleet(_config(), workers=2, unit_size=6)
        telemetry = result.worker_report["telemetry"]
        assert telemetry is not None
        assert telemetry["schema"] == TELEMETRY_SCHEMA
        counters = telemetry["counters"]
        assert counters["fleet.journeys"] == 24
        assert counters["pool.units"] == 4
        assert counters["pool.leases"] >= 4
        # fleet-wide latency histograms carry every hop observation
        histograms = telemetry["histograms"]
        assert histograms["fleet.hop.seconds"]["count"] == counters["fleet.hops"]
        assert histograms["fleet.check.seconds"]["count"] > 0

    def test_disabled_observability_yields_no_telemetry(self):
        from repro.obs import set_obs_enabled

        previous = set_obs_enabled(False)
        try:
            result = run_fleet(_config(), workers=1)
        finally:
            set_obs_enabled(previous)
        assert result.worker_report["telemetry"] is None


class TestSchedulingIndependence:
    """Tentpole property: any (workers, unit size) schedule — including
    a forced-adversarial one where a stalled worker's units are stolen
    — merges to the single-process trace bytes and signature."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("reference") / "fleet.jsonl")
        result = FleetEngine(_config(trace_path=path)).run()
        with open(path, "rb") as handle:
            return result.deterministic_signature(), handle.read()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("unit_size", [1, 7, 24])
    def test_any_schedule_is_bit_identical(
        self, workers, unit_size, tmp_path, reference
    ):
        signature, trace = reference
        path = str(tmp_path / "merged.jsonl")
        merged = run_fleet(
            _config(trace_path=path), workers=workers, unit_size=unit_size
        )
        assert merged.deterministic_signature() == signature
        with open(path, "rb") as handle:
            assert handle.read() == trace
        report = merged.worker_report
        assert report is not None
        assert report["num_units"] == -(-24 // unit_size)
        assert (sum(entry["units"] for entry in report["workers"])
                == report["num_units"])

    def test_adversarial_schedule_steals_the_stalled_workers_units(
        self, tmp_path, reference
    ):
        signature, trace = reference
        path = str(tmp_path / "stalled.jsonl")
        # Worker 0 sleeps between warmup and its first queue pull, so
        # worker 1 must steal (most of) its share for the run to finish
        # — the interleaving static partitioning can never produce.
        with FleetWorkerPool(2, stall_seconds={0: 2.0}) as pool:
            merged = run_fleet(
                _config(trace_path=path), workers=2, unit_size=3, pool=pool
            )
        assert merged.deterministic_signature() == signature
        with open(path, "rb") as handle:
            assert handle.read() == trace
        units = {
            entry["worker"]: entry["units"]
            for entry in merged.worker_report["workers"]
        }
        assert units[0] + units[1] == 8
        assert units[1] > units[0]
