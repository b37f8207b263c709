"""``fleet_protected``: a closed-loop stream of 10-journey protected fleets.

Every op runs one fleet of its own (a distinct seed derived from the
workload seed and the op index): 20 hosts, 3 hops per journey, 20%
malicious hosts, batched transfer verification, one process.  This is
the journey hot path — canonical codec, state copies, DSA sign and
batch verify — and about half the journeys meet an attacker, so the
detection path (re-execution, state comparison) runs too.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from perfbench.common import (
    OpRecord,
    cpu_per_unit,
    derive_seed,
    median,
    op_digest,
    samples_beyond,
    windowed_percentile,
)

JOURNEYS_PER_OP = 10
NUM_HOSTS = 20
HOPS = 3
MALICIOUS_FRACTION = 0.2
#: Ops always run, whatever ``--seconds`` says; the determinism digest
#: covers exactly these, so it repeats for a seed on every run.
DIGEST_OPS = 8
#: Ops per window of the windowed journey-latency p99 (400 journeys).
P99_WINDOW_OPS = 40
WARMUP_JOURNEYS = 20


def fleet_config(seed: int, index: Any, journeys: int):
    from repro.sim import FleetConfig

    return FleetConfig(
        num_agents=journeys,
        num_hosts=NUM_HOSTS,
        hops_per_journey=HOPS,
        malicious_host_fraction=MALICIOUS_FRACTION,
        batched_verification=True,
        protected=True,
        seed=derive_seed(seed, "fleet", index),
    )


def check_fleet(result: Any) -> List[str]:
    """Everything wrong with one fleet result (empty when correct)."""
    problems = []
    for outcome in result.outcomes:
        if outcome.detected != outcome.expected_detected:
            problems.append("%s: detected=%s expected=%s" % (
                outcome.journey_id, outcome.detected,
                outcome.expected_detected,
            ))
    if result.false_positives:
        problems.append("false_positives=%d" % result.false_positives)
    if result.undetectable_flagged:
        problems.append("undetectable_flagged=%d" % result.undetectable_flagged)
    if result.journeys != result.config.num_agents:
        problems.append("journeys=%d of %d" % (
            result.journeys, result.config.num_agents,
        ))
    return problems


class FleetWorkload:
    name = "fleet_protected"
    step = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.min_ops = DIGEST_OPS
        self.signatures: List[str] = []
        self.problems: List[str] = []

    def setup(self) -> None:
        """Keys and fixed-base tables, then one warm-up fleet.

        Keys and tables come from the program's own warm-up
        (``repro.sim.warm_worker``), into the process-wide memo the
        timed ops use.  The warm-up fleet is the same for every seed,
        so set-up time does not vary with the workload's inputs.
        """
        from repro.sim import FleetEngine, fleet_host_names, warm_worker

        config = fleet_config(0, "warmup", WARMUP_JOURNEYS)
        warm_worker(fleet_host_names(config))
        FleetEngine(config).run()

    def op(self, index: int) -> OpRecord:
        from repro.agents.state import encoding_cache_stats
        from repro.sim import FleetEngine

        config = fleet_config(self.seed, index, JOURNEYS_PER_OP)
        hashes0 = encoding_cache_stats()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = FleetEngine(config).run()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        hashes = encoding_cache_stats()
        return OpRecord(
            index=index, wall_s=wall, cpu_s=cpu, units=result.journeys,
            ok=True,
            extra={
                "result": result,
                "journey_ms": [
                    1e3 * (o.check_seconds + o.session_seconds
                           + o.migrate_seconds)
                    for o in result.outcomes
                ],
                "attacked": len(result.attacked_journeys),
                "verifier_cache": (result.verifier_stats or {}).get("cache", {}),
                "hash_cache": {key: hashes[key] - hashes0[key]
                               for key in ("hits", "misses")},
            },
        )

    def check(self, record: OpRecord) -> None:
        """Judge the op's fleet and add its signature to the digest."""
        result = record.extra.pop("result")
        problems = check_fleet(result)
        record.ok = not problems
        self.problems.extend("op %d %s" % (record.index, p) for p in problems)
        self.signatures.append(result.deterministic_signature())

    def reset(self) -> None:
        """Forget per-run state so the same ops can run again."""
        self.signatures = []

    def digest(self) -> str:
        return op_digest(self.signatures[:DIGEST_OPS])

    # -- metrics ------------------------------------------------------------

    def figures(self, records: List[OpRecord]) -> Dict[str, float]:
        journeys = sum(r.units for r in records)
        cpu_ms, cpu_ref = cpu_per_unit(records)
        return {
            "throughput_per_s": journeys / sum(r.wall_s for r in records),
            "cpu_ms_per_op": cpu_ms,
            "cpu_ref_per_op": cpu_ref,
            "op_ms_p50": median([1e3 * r.wall_s for r in records]),
            "op_ms_p99": windowed_percentile(
                [r.extra["journey_ms"] for r in records], 0.99,
                P99_WINDOW_OPS,
            ),
        }

    def lines(self, records: List[OpRecord]) -> List[str]:
        journeys = sum(r.units for r in records)
        attacked = sum(r.extra["attacked"] for r in records)
        return [
            "fleet: %d journeys (%d attacked); op_ms_p99 is the per-journey "
            "compute wall p99 per %d-op window (median over windows), "
            "%d samples beyond p99 in all" % (
                journeys, attacked, P99_WINDOW_OPS,
                samples_beyond(journeys, 0.99),
            ),
        ]

    def layer_figures(self, untraced: List[OpRecord], traced: List[OpRecord],
                      tracer: Any) -> Dict[str, float]:
        hits = sum(r.extra["verifier_cache"].get("hits", 0) for r in traced)
        misses = sum(
            r.extra["verifier_cache"].get("misses", 0) for r in traced
        )
        hash_hits = sum(r.extra["hash_cache"]["hits"] for r in traced)
        lookups = hash_hits + sum(
            r.extra["hash_cache"]["misses"] for r in traced
        )
        return {
            "crypto.hash_cache.hit_ratio":
                hash_hits / lookups if lookups else 0.0,
            "crypto.verify_cache.hit_ratio":
                hits / (hits + misses) if hits + misses else 0.0,
        }
