"""Measurement harness: paper tables and the perf-baseline runner.

The module plays two roles:

**Paper tables** — :func:`measure_generic_agent` /
:func:`run_measurement_grid` regenerate the measurements behind Tables 1
and 2: a *plain* agent runs the three-host path unprotected but "signed
and verified as a whole" at each migration, a *protected* agent runs the
same path under the
:class:`~repro.core.protocol.ReferenceStateProtocol`.  Timing is
decomposed into the paper's columns via
:class:`~repro.bench.metrics.TimingCollector`.

**Perf baseline** — ``python -m repro.bench.harness`` benchmarks the
production-scale machinery and emits a schema-versioned
``BENCH_fleet.json``:

* fleet throughput, single-process versus the sharded multiprocess pool
  of :func:`repro.sim.shard.run_fleet` (with a determinism cross-check:
  both runs must produce the same deterministic signature);
* batched versus individual DSA signature verification at the
  primitive level;
* canonical-hash cache hit rates observed during real fleet checking
  traffic (:func:`repro.agents.state.encoding_cache_stats`);
* an adversarial **campaign**: a fleet whose journeys carry attacks from
  the full standard catalogue (:mod:`repro.sim.campaign`), reporting the
  per-scenario precision / recall matrix, the detectability-class
  matrix, the adversarial throughput against a benign baseline of the
  same shape, and a workers 1-vs-N bit-identity cross-check;
* the **verification service** (:mod:`repro.service`): a live asyncio
  server replaying a fleet's verification traffic over TCP — batched
  versus batch-size-1 throughput, latency percentiles, cache hit rate,
  the batch-size histogram, and a hard bit-for-bit parity cross-check
  of every service verdict against the in-process one.

``--sections`` selects a subset of the benchmark sections (the CI perf
job runs only the sections it gates).

The emitted report carries environment metadata so recorded numbers are
comparable across machines.  :data:`GATES` lists every number the CI
perf gate holds — throughput against the committed baseline within a
configured fraction, plus the absolute CLI floors — and
:func:`evaluate_gates` (with :func:`compare_to_baseline` as its
baseline-only form) evaluates it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from random import Random
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.agents.state import encoding_cache_stats
from repro.bench.metrics import TimingBreakdown, TimingCollector
from repro.bench.tables import (
    format_backend_table,
    format_cluster_table,
    format_service_table,
    metric_cell,
)
from repro.core.protocol import ReferenceStateProtocol
from repro.crypto.backend import (
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.crypto.dsa import batch_verify, generate_keypair
from repro.platform.registry import JourneyResult
from repro.sim.campaign import campaign_config, run_campaign
from repro.sim.fleet import FleetConfig
from repro.sim.shard import DEFAULT_START_METHOD, FleetWorkerPool, run_fleet
from repro.workloads.generators import build_generic_scenario, paper_parameter_grid

__all__ = [
    "MeasurementResult",
    "measure_generic_agent",
    "run_measurement_grid",
    "BENCH_SCHEMA",
    "ALL_SECTIONS",
    "collect_environment",
    "bench_fleet_throughput",
    "bench_telemetry_overhead",
    "bench_table_warmup",
    "bench_dsa_verification",
    "bench_crypto_backends",
    "bench_campaign",
    "bench_service",
    "bench_cluster",
    "bench_chaos",
    "build_report",
    "Gate",
    "GATES",
    "evaluate_gates",
    "compare_to_baseline",
    "format_speedup_warning",
    "main",
]


@dataclass
class MeasurementResult:
    """Timing breakdown plus journey bookkeeping for one configuration."""

    breakdown: TimingBreakdown
    journey: JourneyResult
    protected: bool
    cycles: int
    inputs: int

    @property
    def detected_attack(self) -> bool:
        """Whether any verdict of the run reported an attack."""
        return self.journey.detected_attack()


def measure_generic_agent(
    cycles: int,
    inputs: int,
    protected: bool,
    use_fast_cycles: bool = False,
    label: Optional[str] = None,
    injectors: Optional[List[Any]] = None,
) -> MeasurementResult:
    """Run one cell of the measurement grid and return its breakdown.

    Parameters
    ----------
    cycles / inputs:
        The generic agent's two parameters.
    protected:
        Run under the reference-state protocol instead of plain.
    use_fast_cycles:
        Use the C-level cycle implementation (the "JIT" ablation).
    injectors:
        Optional attacks to mount on the untrusted middle host (used by
        detection-oriented benchmarks; the timing tables run honestly).
    """
    metrics = TimingCollector()
    scenario, agent = build_generic_scenario(
        cycles=cycles,
        input_elements=inputs,
        protected_agent=protected,
        use_fast_cycles=use_fast_cycles,
        metrics=metrics,
        middle_host_injectors=injectors,
    )
    protection = None
    if protected:
        protection = ReferenceStateProtocol(
            code_registry=scenario.system.code_registry,
            trusted_hosts=scenario.trusted_host_names,
        )

    started = time.perf_counter()
    journey = scenario.system.launch(agent, scenario.itinerary, protection=protection)
    overall_seconds = time.perf_counter() - started

    row_label = label or "%d input%s, %d cycle%s" % (
        inputs, "" if inputs == 1 else "s", cycles, "" if cycles == 1 else "s",
    )
    breakdown = TimingBreakdown.from_collector(row_label, metrics, overall_seconds)
    return MeasurementResult(
        breakdown=breakdown,
        journey=journey,
        protected=protected,
        cycles=cycles,
        inputs=inputs,
    )


def run_measurement_grid(protected: bool,
                         use_fast_cycles: bool = False) -> List[MeasurementResult]:
    """Run all four configurations of the paper's grid."""
    results = []
    for cell in paper_parameter_grid():
        results.append(
            measure_generic_agent(
                cycles=cell["cycles"],
                inputs=cell["inputs"],
                protected=protected,
                use_fast_cycles=use_fast_cycles,
                label=cell["label"],
            )
        )
    return results


# ---------------------------------------------------------------------------
# Perf-baseline runner (``python -m repro.bench.harness``)
# ---------------------------------------------------------------------------

#: Schema identifier of the emitted report.  Bump on incompatible
#: structural changes so baseline comparisons can refuse to compare
#: apples with oranges.  ``/2`` added the ``campaign`` section; ``/3``
#: covers the digest-commitment protocol rewrite (fixed-base DSA,
#: single-encode transfers, warmed worker pools) and the optional
#: ``profile`` section; ``/4`` adds the ``service`` section (the
#: verification service benchmarked against in-process ground truth),
#: the top-level ``sections`` list, and the batch-verification
#: rewrite (batched inversion, interleaved commitment powers); ``/5``
#: adds the ``crypto`` backend-comparison section, the fleet section's
#: ``warmup`` block (cold vs warm-host fixed-base table builds through
#: the persistent cache) and per-shard wall/utilization data, and the
#: pluggable-backend identifiers threaded through every section; ``/6``
#: adds the ``cluster`` section (a gateway over real verifier
#: subprocesses: single-vs-N scaling plus a mid-run SIGKILL failover
#: leg, all parity-checked against in-process ground truth); ``/7``
#: moves the fleet section onto the work-stealing scheduler: per-run
#: ``worker_utilization`` becomes the CPU-time useful-parallel-work
#: fraction (uniformly a float, workers=1 included), the wall-clock
#: busy metric moves to ``busy_fraction``, and runs gain the
#: per-worker warmup/compute/serialize/merge overhead split
#: (``workers_detail``, ``merge_seconds``, ``scheduler``) plus the
#: section-level ``cpu_count`` / ``cpu_limited`` scaling context; ``/8``
#: adds the ``chaos`` section (seeded fault injection through the
#: supervised worker pool: clean vs crash-injected vs degraded legs,
#: all required byte-identical, with recovery wall-time overhead) and
#: the fleet pool's ``supervision`` block in worker reports; ``/9``
#: adds the observability layer: the fleet section's
#: ``telemetry_overhead`` block (interleaved metrics-on vs metrics-off
#: single-process legs, best-of-N each) and the merged ``telemetry``
#: snapshot carried by multi-worker runs' worker reports.
BENCH_SCHEMA = "repro-bench-fleet/9"

#: Schema of the stand-alone per-worker overhead-split artifact
#: (``--workers-output``): the fleet runs' scheduling diagnostics only,
#: small enough to eyeball in a CI artifact listing.
WORKERS_SCHEMA = "repro-bench-workers/1"

#: Sections the harness can run, in run order.  ``--sections`` selects
#: a subset; the emitted report records which subset ran so the
#: baseline gate can tell "not requested" apart from "silently
#: dropped".
ALL_SECTIONS = (
    "fleet", "dsa", "crypto", "campaign", "service", "cluster", "chaos",
)


def collect_environment() -> Dict[str, Any]:
    """Machine and interpreter metadata recorded with every report."""
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "crypto_backend": get_backend().name,
    }


def bench_fleet_throughput(
    config: FleetConfig,
    workers: int,
    start_method: Optional[str] = None,
    pool: Optional[FleetWorkerPool] = None,
    unit_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Time the fleet single-process and across a ``workers``-wide pool.

    Also serves as an end-to-end determinism check: the sharded run's
    deterministic signature must equal the single-process run's, and a
    mismatch is a hard error, not a number in a report.  ``pool``
    optionally names a persistent pre-warmed worker pool; the harness
    passes one so no measured section pays worker spawn or crypto
    warm-up (production deployments hold a pool open the same way).
    ``unit_size`` overrides the work-stealing unit granularity of the
    multi-worker leg.
    """
    kwargs: Dict[str, Any] = {}
    if start_method is not None:
        kwargs["start_method"] = start_method

    runs: Dict[str, Any] = {}
    signatures: Dict[str, str] = {}
    telemetry_by_key: Dict[str, Any] = {}
    cache_before = encoding_cache_stats()
    cache_after = cache_before
    for worker_count in sorted({1, workers}):
        started = time.perf_counter()
        # run_fleet keeps workers=1 single-process even with a pool, so
        # the serial leg of the speedup comparison stays serial.
        result = run_fleet(
            config, workers=worker_count, pool=pool,
            unit_size=unit_size if worker_count > 1 else None,
            **kwargs,
        )
        wall = time.perf_counter() - started
        key = "workers_%d" % worker_count
        signatures[key] = result.deterministic_signature()
        telemetry_by_key[key] = (result.worker_report or {}).get("telemetry")
        shard_walls = [
            round(shard.get("wall_seconds", 0.0), 4)
            for shard in (result.shards or [])
        ]
        report = result.worker_report or {}
        worker_entries = report.get("workers", [])
        # Utilization: useful-parallel-work fraction — CPU seconds the
        # workers spent inside engine execution over the pool's
        # ``workers × wall`` envelope.  CPU time (process_time) is
        # immune to timesharing: four workers round-robining one core
        # read ~0.25, not the ~1.0 the old busy-wall metric showed, so
        # an oversubscribed machine no longer looks "fully utilized".
        # Well-defined for every run, including workers=1 (≈ 1.0 when
        # the single process keeps its core).
        compute_cpu = sum(
            entry.get("compute_cpu_seconds") or 0.0
            for entry in worker_entries
        )
        busy_wall = sum(
            entry.get("compute_seconds") or 0.0 for entry in worker_entries
        )
        utilization = compute_cpu / (worker_count * wall) if wall > 0 else 0.0
        busy_fraction = busy_wall / (worker_count * wall) if wall > 0 else 0.0
        runs[key] = {
            "workers": worker_count,
            "num_shards": len(result.shards or []) or 1,
            "wall_seconds": round(wall, 4),
            "throughput_journeys_per_second": round(
                config.num_agents / wall, 3
            ),
            "detection_rate": result.detection_rate,
            "false_positives": result.false_positives,
            "events_processed": result.events_processed,
            "shard_wall_seconds": shard_walls,
            "worker_utilization": round(utilization, 3),
            # The old semantics (wall-clock busy fraction), kept under
            # an honest name: high busy + low utilization = contention.
            "busy_fraction": round(busy_fraction, 3),
            "scheduler": report.get("mode"),
            "merge_seconds": report.get("merge_seconds"),
            "workers_detail": worker_entries,
        }
        if worker_count == 1:
            cache_after = encoding_cache_stats()
    if len(set(signatures.values())) != 1:
        raise RuntimeError(
            "sharded run diverged from the single-process run: %r"
            % signatures
        )

    single = runs["workers_1"]["wall_seconds"]
    multi_key = "workers_%d" % workers
    speedup = (
        single / runs[multi_key]["wall_seconds"] if workers > 1 else 1.0
    )
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    section = {
        "num_agents": config.num_agents,
        "num_hosts": config.num_hosts,
        "hops_per_journey": config.hops_per_journey,
        "malicious_host_fraction": config.malicious_host_fraction,
        "seed": config.seed,
        "batched_verification": config.batched_verification,
        "deterministic_signature": signatures["workers_1"],
        "backend": get_backend().name,
        "runs": runs,
        "speedup_vs_single": round(speedup, 3),
        # Scaling numbers are meaningless without knowing whether the
        # machine could physically run the workers in parallel.
        "cpu_count": os.cpu_count(),
        "cpu_limited": bool((os.cpu_count() or 1) < workers),
        "unit_size": unit_size,
        "hash_cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / (hits + misses), 4)
            if hits + misses else 0.0,
        },
        "warmup": bench_table_warmup(config),
        "telemetry_overhead": bench_telemetry_overhead(config),
    }
    # The merged live-telemetry snapshot of the widest run (counters
    # and latency distributions across all workers) rides along so the
    # --metrics-out artifact needs no extra measured run.
    for key in ("workers_%d" % workers, "workers_1"):
        if telemetry_by_key.get(key) is not None:
            section["telemetry"] = telemetry_by_key[key]
            break
    else:
        section["telemetry"] = None
    if pool is not None and workers > 1:
        section["worker_warmup"] = pool.warmup_report()
    return section


def bench_telemetry_overhead(
    config: FleetConfig,
    repeats: int = 3,
    max_agents: int = 120,
) -> Dict[str, Any]:
    """Metrics-on vs metrics-off single-process fleet legs, interleaved.

    The observability layer claims to be effectively free; this leg
    measures the claim instead of asserting it.  ``repeats`` off/on
    pairs run back to back (interleaved, so machine drift lands on
    both sides equally) over a capped slice of the fleet workload, and
    the best wall of each side is compared.  ``overhead_fraction`` is
    the enabled side's fractional slowdown — the bench suite gates it
    at 2%.
    """
    from repro.obs import obs_enabled, set_obs_enabled

    leg_config = replace(
        config, num_agents=min(config.num_agents, max_agents),
        trace_path=None,
    )

    def one_run() -> float:
        started = time.perf_counter()
        run_fleet(leg_config, workers=1)
        return time.perf_counter() - started

    previous = obs_enabled()
    disabled_walls: List[float] = []
    enabled_walls: List[float] = []
    try:
        for _ in range(max(1, repeats)):
            set_obs_enabled(False)
            disabled_walls.append(one_run())
            set_obs_enabled(True)
            enabled_walls.append(one_run())
    finally:
        set_obs_enabled(previous)

    best_disabled = min(disabled_walls)
    best_enabled = min(enabled_walls)
    overhead = (
        (best_enabled - best_disabled) / best_disabled
        if best_disabled > 0 else 0.0
    )
    return {
        "num_agents": leg_config.num_agents,
        "repeats": repeats,
        "disabled_wall_seconds": round(best_disabled, 4),
        "enabled_wall_seconds": round(best_enabled, 4),
        "overhead_fraction": round(overhead, 4),
    }


def bench_table_warmup(config: FleetConfig) -> Dict[str, Any]:
    """Cold vs warm-host fixed-base warmup through the persistent cache.

    Builds the exact table set :func:`repro.sim.shard.warm_worker` pays
    for — the generator table plus one per host public key — twice
    against a scratch cache directory: the first (cold) pass computes
    and stores every table, the second (warm) pass loads them back, so
    the delta is precisely what the persistent cache saves each *later*
    process on the same host.
    """
    import tempfile

    from repro.crypto.dsa import FixedBaseTable, PARAMETERS_512
    from repro.crypto.keys import Identity
    from repro.crypto.tablecache import TableCache
    from repro.sim.fleet import fleet_host_names

    p, q = PARAMETERS_512.p, PARAMETERS_512.q
    bases = [PARAMETERS_512.g]
    bases.extend(
        Identity.generate(name).public_key.y
        for name in fleet_host_names(config)
    )

    def build_all(cache: TableCache) -> float:
        started = time.perf_counter()
        for base in bases:
            FixedBaseTable(base, p, q.bit_length(), cache=cache)
        return time.perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="repro-tbl-") as scratch:
        cache = TableCache(scratch)
        cold_seconds = build_all(cache)
        warm_seconds = build_all(cache)
        stats = cache.stats()
    return {
        "tables": len(bases),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(cold_seconds / warm_seconds, 2)
        if warm_seconds > 0 else None,
        "cache_hits": stats["hits"],
        "cache_stores": stats["stores"],
    }


def bench_dsa_verification(
    signatures: int = 160,
    signers: int = 8,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Batched vs. individual DSA verification at the primitive level.

    The stream is shaped like fleet traffic (few signers, many
    messages); best-of-N wall times keep the numbers robust on loaded
    machines.
    """
    keys = [generate_keypair(seed=index) for index in range(signers)]
    items = []
    for index in range(signatures):
        private, public = keys[index % signers]
        message = b"fleet-transfer-%06d" % index
        items.append((public, message, private.sign_recoverable(message)))

    def individually() -> None:
        if not all(
            public.verify_recoverable(message, signature)
            for public, message, signature in items
        ):
            raise RuntimeError("individual verification failed")

    def batched() -> None:
        if not batch_verify(items, rng=Random(42)):
            raise RuntimeError("batched verification failed")

    def best_of(func) -> float:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            func()
            best = min(best, time.perf_counter() - started)
        return best

    individual_seconds = best_of(individually)
    batched_seconds = best_of(batched)
    return {
        "signatures": signatures,
        "signers": signers,
        "repeats": repeats,
        "backend": get_backend().name,
        "individual_seconds": round(individual_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(individual_seconds / batched_seconds, 3),
    }


def bench_crypto_backends(
    signatures: int = 96,
    signers: int = 6,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Compare every loadable arithmetic backend on the DSA hot paths.

    For each backend a *fresh* parameter object (same ``p, q, g`` as
    :data:`~repro.crypto.dsa.PARAMETERS_512`, fresh table caches) is
    used, so each engine pays its own table builds and the timings are
    honest.  The signatures every backend produces must be bit-identical
    to the first backend's — a divergence is a hard ``RuntimeError``,
    never a number in a report (the batch test's verdicts are detection
    semantics, not an implementation detail).
    """
    from repro.crypto.dsa import DSAParameters, PARAMETERS_512

    def best_of(func) -> float:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            func()
            best = min(best, time.perf_counter() - started)
        return best

    backends: Dict[str, Any] = {}
    reference: Optional[List[Any]] = None
    for name in available_backends():
        with use_backend(name):
            parameters = DSAParameters(
                p=PARAMETERS_512.p, q=PARAMETERS_512.q, g=PARAMETERS_512.g
            )
            keys = [
                generate_keypair(parameters=parameters, seed=index)
                for index in range(signers)
            ]
            items = []
            for index in range(signatures):
                private, public = keys[index % signers]
                message = b"backend-bench-%06d" % index
                items.append(
                    (public, message, private.sign_recoverable(message))
                )
            produced = [
                (sig.r, sig.s, sig.commitment) for _, _, sig in items
            ]
            if reference is None:
                reference = produced
            elif produced != reference:
                raise RuntimeError(
                    "backend %r produced signatures that differ from the "
                    "reference backend's — cross-backend bit-identity is "
                    "broken" % name
                )

            def signed() -> None:
                for index in range(signatures):
                    private, _public = keys[index % signers]
                    private.sign_recoverable(b"backend-bench-%06d" % index)

            def individually() -> None:
                if not all(
                    public.verify_recoverable(message, signature)
                    for public, message, signature in items
                ):
                    raise RuntimeError("individual verification failed")

            def batched() -> None:
                if not batch_verify(items, rng=Random(42)):
                    raise RuntimeError("batched verification failed")

            # One untimed pass so the lazily built y-tables exist
            # before the clocks start, same as sustained service use.
            individually()
            batched()
            sign_seconds = best_of(signed)
            verify_seconds = best_of(individually)
            batch_seconds = best_of(batched)
            backends[name] = {
                "sign_us_per_op": round(
                    sign_seconds / signatures * 1e6, 2
                ),
                "verify_us_per_item": round(
                    verify_seconds / signatures * 1e6, 2
                ),
                "batch_verify_us_per_item": round(
                    batch_seconds / signatures * 1e6, 2
                ),
            }
    return {
        "signatures": signatures,
        "signers": signers,
        "repeats": repeats,
        "active_backend": get_backend().name,
        "available_backends": list(backends),
        "identical_signatures": True,
        "backends": backends,
    }


def bench_campaign(
    config: FleetConfig,
    workers: int,
    start_method: Optional[str] = None,
    pool: Optional[FleetWorkerPool] = None,
) -> Dict[str, Any]:
    """Adversarial campaign versus a benign baseline of identical shape.

    ``config`` must be a campaign configuration (``attack_fraction`` >
    0).  Three runs: a benign twin (attacks stripped) for the overhead
    baseline, then the campaign at one worker and at ``workers`` — the
    two campaign runs must be bit-identical (deterministic signature),
    and a divergence is a hard error, not a number in a report.
    """
    if config.attack_fraction <= 0.0:
        raise ValueError("bench_campaign needs attack_fraction > 0")
    kwargs: Dict[str, Any] = {}
    if start_method is not None:
        kwargs["start_method"] = start_method
    if pool is not None:
        kwargs["pool"] = pool

    benign_config = replace(
        config, attack_fraction=0.0, journey_scenarios=()
    )
    started = time.perf_counter()
    run_fleet(benign_config, workers=workers, **kwargs)
    benign_wall = time.perf_counter() - started
    benign_throughput = config.num_agents / benign_wall

    runs: Dict[str, Any] = {}
    signatures: Dict[str, str] = {}
    campaign = None
    for worker_count in sorted({1, workers}):
        started = time.perf_counter()
        campaign = run_campaign(config, workers=worker_count, **kwargs)
        wall = time.perf_counter() - started
        key = "workers_%d" % worker_count
        signatures[key] = campaign.deterministic_signature()
        runs[key] = {
            "workers": worker_count,
            "wall_seconds": round(wall, 4),
            "throughput_journeys_per_second": round(
                config.num_agents / wall, 3
            ),
        }
    if len(set(signatures.values())) != 1:
        raise RuntimeError(
            "sharded campaign diverged from the single-process run: %r"
            % signatures
        )

    assert campaign is not None
    multi_key = "workers_%d" % workers
    adversarial_throughput = runs[multi_key][
        "throughput_journeys_per_second"
    ]
    return {
        "num_agents": config.num_agents,
        "num_hosts": config.num_hosts,
        "hops_per_journey": config.hops_per_journey,
        "seed": config.seed,
        "attack_fraction": config.attack_fraction,
        "scenarios": list(config.journey_scenarios),
        "deterministic_signature": signatures[multi_key],
        "runs": runs,
        "benign_baseline": {
            "wall_seconds": round(benign_wall, 4),
            "throughput_journeys_per_second": round(benign_throughput, 3),
        },
        "adversarial_overhead": round(
            benign_throughput / adversarial_throughput, 3
        ) if adversarial_throughput else None,
        "detection": campaign.summary(),
    }


def bench_service(
    config: Optional[FleetConfig] = None,
    max_batch: int = 256,
    max_delay: float = 0.010,
    session_checks: int = 60,
    connections: int = 2,
    max_inflight: int = 256,
) -> Dict[str, Any]:
    """Benchmark the verification service against in-process ground truth.

    One deterministic journey request stream (:mod:`repro.sim.requests`)
    is replayed against live in-process servers
    (:class:`repro.service.server.ServiceThread`) in four legs:

    * **batched** — micro-batching on (``max_batch``), cold cache: the
      headline service throughput, latency distribution, and batch-size
      histogram;
    * **batch_size_1** — the same pipeline with coalescing disabled
      (every request individually verified): the no-batching baseline
      the batching gain is measured against, on the same stream;
    * **cached** — the batched server replaying the stream it has
      already answered: the LRU verdict cache's hit rate and rate;
    * **sessions** — captured ReferenceStateProtocol v2 session checks:
      the service verdict must equal the in-process verdict bit for
      bit.

    Any verdict mismatch or dropped request in any leg is a hard
    ``RuntimeError``, not a number in the report.  The in-process
    reference is a clean single-worker fleet run of the same
    configuration: its signature-verification rate is the yardstick the
    ``vs_fleet_ratio`` gate compares service throughput against.
    """
    import asyncio

    from repro.service.loadgen import percentile, replay_requests
    from repro.service.server import ServiceConfig, VerificationService
    from repro.sim.requests import journey_request_stream

    if config is None:
        config = FleetConfig(
            num_agents=150, num_hosts=20, hops_per_journey=3,
            malicious_host_fraction=0.2, seed=2027,
            protected=True, batched_verification=True,
        )
    else:
        config = replace(config, protected=True, batched_verification=True)

    stream = journey_request_stream(config, max_session_checks=session_checks)
    verify_requests = stream.verify_requests
    session_requests = stream.session_requests

    # In-process reference: a clean (non-recording) single-worker fleet
    # run of the same configuration, timed end to end.
    started = time.perf_counter()
    fleet_result = run_fleet(config, workers=1)
    fleet_wall = time.perf_counter() - started
    fleet_verified = int(
        (fleet_result.verifier_stats or {}).get("verified", 0)
    )
    fleet_rate = fleet_verified / fleet_wall if fleet_wall > 0 else 0.0

    async def replay_once(service, requests):
        """One replay against a live server; hard error on divergence."""
        report = await replay_requests(
            service.address, requests,
            connections=connections, max_inflight=max_inflight,
        )
        if report.mismatches or report.dropped:
            raise RuntimeError(
                "service verdicts diverged from the in-process ground "
                "truth (mismatches=%d, dropped=%d): %r"
                % (report.mismatches, report.dropped,
                   report.mismatch_samples[:2])
            )
        return report

    async def run_legs():
        """All four legs, server and client sharing one event loop.

        Everything is CPU-bound Python on both ends, so a second
        thread would only add GIL scheduling noise to the measurement;
        one loop over real loopback TCP gives the same byte-level
        protocol with deterministic interleaving.  The two comparison
        legs (batched vs batch-size-1) run cache-less so the ratio
        measures batching alone, best-of-two passes each; the cache
        leg measures the LRU explicitly.
        """
        async def comparison_leg(leg_batch):
            """Best-of-two cache-less passes, one fresh server each.

            A fresh server per pass keeps the reported batching stats
            attributable: the histogram attached to the kept report
            describes exactly the pass whose rps/latency is reported,
            not an aggregate over discarded passes.
            """
            best = None
            best_stats = None
            for _ in range(2):
                service = VerificationService(ServiceConfig(
                    fleet_hosts=config.num_hosts, max_batch=leg_batch,
                    max_delay=max_delay, cache_entries=0,
                ))
                await service.start()
                try:
                    report = await replay_once(service, verify_requests)
                    stats = service.stats()
                finally:
                    await service.stop()
                if best is None or report.achieved_rps > best.achieved_rps:
                    best, best_stats = report, stats
            return best, best_stats

        legs = {}
        legs["batched"], legs["stats"] = await comparison_leg(max_batch)
        legs["batch_size_1"], _ = await comparison_leg(1)

        # Cache leg: cold populating pass, then the measured hot pass —
        # plus the session-check parity leg on the same server.
        service = VerificationService(ServiceConfig(
            fleet_hosts=config.num_hosts, max_batch=max_batch,
            max_delay=max_delay,
        ))
        await service.start()
        try:
            await replay_once(service, verify_requests)
            legs["cached"] = await replay_once(service, verify_requests)
            if session_requests:
                legs["sessions"] = await replay_once(
                    service, session_requests
                )
        finally:
            await service.stop()
        return legs

    def leg_summary(report):
        return {
            "requests": report.completed,
            "wall_seconds": round(report.wall_seconds, 4),
            "rps": round(report.achieved_rps, 1),
            "latency_ms": {
                "p50": round(1e3 * percentile(report.latencies, 0.50), 3),
                "p99": round(1e3 * percentile(report.latencies, 0.99), 3),
            },
        }

    legs = asyncio.run(run_legs())
    batched_report = legs["batched"]
    unbatched_report = legs["batch_size_1"]
    cached_report = legs["cached"]
    sessions_report = legs.get("sessions")
    server_stats = legs["stats"]

    batched = leg_summary(batched_report)
    batched["batch_histogram"] = (
        server_stats["batching"]["batch_histogram"]
    )
    batched["mean_batch_size"] = round(
        server_stats["batching"]["mean_batch_size"], 2
    )
    cached = leg_summary(cached_report)
    cached["cache_hits"] = cached_report.cache_hits
    cached["cache_hit_rate"] = round(
        cached_report.cache_hits / cached_report.completed, 4
    ) if cached_report.completed else 0.0

    batching_gain = (
        batched["rps"] / unbatched_report.achieved_rps
        if unbatched_report.achieved_rps else 0.0
    )
    vs_fleet_ratio = batched["rps"] / fleet_rate if fleet_rate else 0.0

    section = {
        "workload": {
            "num_agents": config.num_agents,
            "num_hosts": config.num_hosts,
            "hops_per_journey": config.hops_per_journey,
            "seed": config.seed,
        },
        "max_batch": max_batch,
        "max_delay": max_delay,
        "connections": connections,
        "stream": {
            "verify_requests": len(verify_requests),
            "session_checks": len(session_requests),
            "fleet_signature": stream.fleet_signature,
        },
        "in_process": {
            "fleet_wall_seconds": round(fleet_wall, 4),
            "fleet_verifications": fleet_verified,
            "fleet_verification_rate": round(fleet_rate, 1),
        },
        "batched": batched,
        "batch_size_1": leg_summary(unbatched_report),
        "cached": cached,
        "batching_gain": round(batching_gain, 3),
        "vs_fleet_ratio": round(vs_fleet_ratio, 3),
        "parity": {
            "verify_checked": (
                batched_report.completed + cached_report.completed
                + unbatched_report.completed
            ),
            "sessions_checked": (
                sessions_report.completed if sessions_report else 0
            ),
            "mismatches": 0,
            "dropped": 0,
        },
    }
    if sessions_report is not None:
        section["sessions"] = leg_summary(sessions_report)
    return section


def bench_cluster(
    config: Optional[FleetConfig] = None,
    verifiers: int = 3,
    gather_batch: int = 64,
    connections: int = 2,
    max_inflight: int = 256,
    table_cache: Optional[str] = None,
) -> Dict[str, Any]:
    """Benchmark the verification cluster: scaling and failover.

    Unlike every other section this one runs *real processes*: each leg
    launches verifier subprocesses behind an in-thread gateway
    (:class:`repro.service.cluster.LocalCluster`) and replays the same
    deterministic verify stream through ``repro.service.connect()``:

    * **single** — one verifier behind the gateway: the routed-but-
      unsharded baseline every scaling claim is measured against;
    * **scaled** — ``verifiers`` backends: consistent-hash routing
      spreads the stream, and ``scaling_vs_single`` is the headline
      ratio the CI gate checks (with enough cores it should approach
      the backend count);
    * **failover** — a fresh ``verifiers``-wide cluster whose first
      backend is SIGKILLed mid-replay: the gateway must re-route and
      re-issue every in-flight item, and the leg hard-errors on any
      lost or wrong verdict exactly like the other legs.

    Verdict caches are disabled on both tiers so the legs measure
    routing and verification, not replay memoization.  Scaling is
    physically bounded by ``cpu_count``: the section records a
    ``cpu_limited`` flag (fewer cores than ``verifiers + 1``) so the
    gate can distinguish "cannot scale here" from "regressed".
    """
    import asyncio

    from repro.service.cluster import ClusterConfig, LocalCluster
    from repro.service.loadgen import percentile, replay_requests
    from repro.service.server import ServiceConfig
    from repro.sim.requests import journey_request_stream

    if verifiers < 1:
        raise ValueError("the cluster benchmark needs at least one verifier")
    if config is None:
        config = FleetConfig(
            num_agents=150, num_hosts=20, hops_per_journey=3,
            malicious_host_fraction=0.2, seed=2027,
            protected=True, batched_verification=True,
        )
    else:
        config = replace(config, protected=True, batched_verification=True)

    stream = journey_request_stream(config, max_session_checks=0)
    requests = stream.verify_requests

    template = ClusterConfig(
        service=ServiceConfig(
            fleet_hosts=config.num_hosts, max_batch=gather_batch,
            max_delay=0.002, cache_entries=0,
        ),
        cache_entries=0,
        gather_batch=gather_batch,
        gather_delay=0.001,
    )

    async def replay(cluster: LocalCluster) -> Any:
        report = await replay_requests(
            cluster.address, requests,
            connections=connections, max_inflight=max_inflight,
        )
        if report.mismatches or report.dropped:
            raise RuntimeError(
                "cluster verdicts diverged from the in-process ground "
                "truth (mismatches=%d, dropped=%d): %r"
                % (report.mismatches, report.dropped,
                   report.mismatch_samples[:2])
            )
        return report

    def leg_summary(report: Any) -> Dict[str, Any]:
        return {
            "requests": report.completed,
            "wall_seconds": round(report.wall_seconds, 4),
            "rps": round(report.achieved_rps, 1),
            "latency_ms": {
                "p50": round(1e3 * percentile(report.latencies, 0.50), 3),
                "p99": round(1e3 * percentile(report.latencies, 0.99), 3),
            },
        }

    def scaling_leg(count: int) -> Tuple[Any, float]:
        started = time.perf_counter()
        with LocalCluster(verifiers=count, config=template,
                          table_cache=table_cache) as cluster:
            startup = time.perf_counter() - started
            report = asyncio.run(replay(cluster))
        return report, startup

    single_report, single_startup = scaling_leg(1)
    scaled_report, scaled_startup = scaling_leg(verifiers)

    # Failover drill: a fresh cluster, SIGKILL the first verifier a
    # quarter of the way into the (just-measured) replay window.
    kill_after = max(0.05, 0.25 * scaled_report.wall_seconds)
    with LocalCluster(verifiers=verifiers, config=template,
                      table_cache=table_cache) as cluster:
        victim_name = cluster.verifiers[0].name

        async def failover_run() -> Any:
            async def kill_later() -> None:
                await asyncio.sleep(kill_after)
                cluster.kill_verifier(0)

            killer = asyncio.ensure_future(kill_later())
            try:
                return await replay(cluster)
            finally:
                await killer

        failover_report = asyncio.run(failover_run())
        gateway_counters = cluster.gateway.counters.snapshot()

    cpu_count = os.cpu_count() or 1
    single_rps = single_report.achieved_rps
    scaling = (
        scaled_report.achieved_rps / single_rps if single_rps else 0.0
    )
    single = leg_summary(single_report)
    single["startup_seconds"] = round(single_startup, 3)
    scaled = leg_summary(scaled_report)
    scaled["startup_seconds"] = round(scaled_startup, 3)
    failover = leg_summary(failover_report)
    failover.update({
        "killed": victim_name,
        "kill_after_seconds": round(kill_after, 3),
        "killed_mid_run": gateway_counters["failovers"] > 0,
        "failovers": gateway_counters["failovers"],
        "reissues": gateway_counters["reissues"],
        "mismatches": 0,
        "dropped": 0,
    })
    return {
        "workload": {
            "num_agents": config.num_agents,
            "num_hosts": config.num_hosts,
            "hops_per_journey": config.hops_per_journey,
            "seed": config.seed,
        },
        "verifiers": int(verifiers),
        "gather_batch": gather_batch,
        "connections": connections,
        "cpu_count": cpu_count,
        "cpu_limited": cpu_count < int(verifiers) + 1,
        "stream": {
            "verify_requests": len(requests),
            "fleet_signature": stream.fleet_signature,
        },
        "single": single,
        "scaled": scaled,
        "scaling_vs_single": round(scaling, 3),
        "failover": failover,
        "parity": {
            "verify_checked": (
                single_report.completed + scaled_report.completed
                + failover_report.completed
            ),
            "mismatches": 0,
            "dropped": 0,
        },
    }


def bench_chaos(
    config: Optional[FleetConfig] = None,
    workers: int = 2,
    chaos_seed: int = 2028,
    fault_count: int = 2,
) -> Dict[str, Any]:
    """Benchmark supervised fault recovery: chaos must cost time, not bits.

    Three legs over the same fleet workload, every one through a fresh
    ``workers``-wide :class:`~repro.sim.shard.FleetWorkerPool`:

    * **clean** — no faults: the reference wall time, trace, and
      deterministic signature;
    * **injected** — a seeded :class:`~repro.chaos.FaultPlan` SIGKILLs
      workers (including mid-append tears); the pool must requeue the
      leased units, repair the torn streams, and respawn replacements;
    * **degraded** — the same plan with ``respawn_budget=0``: every
      channel dies and the coordinator itself finishes the queue.

    Any divergence — signature or merged trace bytes — from the clean
    leg is a hard :class:`RuntimeError`, not a number in the report.
    The reported ``recovery_overhead_fraction`` is the injected leg's
    wall-time cost relative to clean.
    """
    import hashlib
    import tempfile

    from repro.chaos import LETHAL_FAULT_KINDS, WORKER_CRASH, Fault, FaultPlan

    if workers < 2:
        raise ValueError("the chaos benchmark needs at least two workers")
    if config is None:
        config = FleetConfig(
            num_agents=24, num_hosts=8, hops_per_journey=2,
            malicious_host_fraction=0.25, seed=2028,
            protected=True, batched_verification=True,
        )
    else:
        config = replace(config, protected=True, batched_verification=True)

    plan = FaultPlan.generate(
        chaos_seed, workers, kinds=LETHAL_FAULT_KINDS, count=fault_count,
    )
    # The degraded leg must actually reach coordinator execution, which
    # requires *every* worker dead with no respawns — top the generated
    # plan up with a first-lease crash for any worker it spared.
    targeted = {fault.worker for fault in plan.faults}
    degraded_plan = FaultPlan(
        faults=plan.faults + tuple(
            Fault(kind=WORKER_CRASH, worker=index, at_unit=0)
            for index in range(workers) if index not in targeted
        ),
        seed=plan.seed,
    )

    def leg(name: str, fault_plan: Optional["FaultPlan"],
            respawn_budget: Optional[int]) -> Dict[str, Any]:
        with tempfile.TemporaryDirectory() as tmp:
            trace_path = os.path.join(tmp, "%s.jsonl" % name)
            pool = FleetWorkerPool(
                workers, warm_config=config, fault_plan=fault_plan,
                respawn_budget=respawn_budget,
            )
            try:
                started = time.perf_counter()
                result = run_fleet(
                    replace(config, trace_path=trace_path),
                    workers=workers, pool=pool,
                )
                wall = time.perf_counter() - started
            finally:
                pool.close()
            with open(trace_path, "rb") as handle:
                trace_digest = hashlib.sha256(handle.read()).hexdigest()
        supervision = (result.worker_report or {}).get("supervision", {})
        crashes = supervision.get("crashes", [])
        return {
            "wall_seconds": round(wall, 4),
            "signature": result.deterministic_signature(),
            "trace_sha256": trace_digest,
            "crashes": len(crashes),
            "requeued_units": sum(
                1 for crash in crashes if crash.get("requeued")
            ),
            "trace_repairs": sum(
                1 for crash in crashes if crash.get("trace_repair")
            ),
            "respawns": supervision.get("respawns", 0),
            "degraded_units": supervision.get("degraded_units", 0),
        }

    clean = leg("clean", None, None)
    injected = leg("injected", plan, None)
    degraded = leg("degraded", degraded_plan, 0)

    for name, chaotic in (("injected", injected), ("degraded", degraded)):
        if chaotic["signature"] != clean["signature"]:
            raise RuntimeError(
                "%s chaos leg diverged from the clean signature: %s != %s"
                % (name, chaotic["signature"], clean["signature"])
            )
        if chaotic["trace_sha256"] != clean["trace_sha256"]:
            raise RuntimeError(
                "%s chaos leg produced different trace bytes than the "
                "clean run" % name
            )
    clean_wall = clean["wall_seconds"]
    overhead = (
        (injected["wall_seconds"] - clean_wall) / clean_wall
        if clean_wall > 0 else 0.0
    )
    return {
        "workload": {
            "num_agents": config.num_agents,
            "num_hosts": config.num_hosts,
            "hops_per_journey": config.hops_per_journey,
            "seed": config.seed,
        },
        "workers": int(workers),
        "chaos_seed": int(chaos_seed),
        "faults": [fault.describe() for fault in plan.faults],
        "faults_injected": len(plan.faults),
        "clean": clean,
        "injected": injected,
        "degraded": degraded,
        "recovery_overhead_fraction": round(overhead, 4),
        "parity": {
            "signature_identical": True,
            "trace_identical": True,
        },
    }


def build_report(
    config: FleetConfig,
    workers: int,
    quick: bool,
    start_method: Optional[str] = None,
    campaign: Optional[FleetConfig] = None,
    pool: Optional[FleetWorkerPool] = None,
    profile: bool = False,
    sections: Optional[List[str]] = None,
    service_config: Optional[FleetConfig] = None,
    service_options: Optional[Dict[str, Any]] = None,
    cluster_options: Optional[Dict[str, Any]] = None,
    chaos_options: Optional[Dict[str, Any]] = None,
    unit_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the selected perf benchmarks and assemble the report.

    ``campaign`` names the adversarial-campaign configuration; when
    omitted it is derived from ``config`` (same shape, 30% of journeys
    attacked with the full standard catalogue).  ``pool`` is a
    persistent worker pool shared by every multi-worker section;
    ``profile`` additionally runs the fleet under the per-phase
    profiler (:mod:`repro.bench.profile`) and attaches the attribution.
    ``sections`` selects a subset of :data:`ALL_SECTIONS` (default:
    all); the subset is recorded in the report so the baseline gate can
    distinguish a deliberately skipped section from a silently dropped
    one.  ``service_config`` shapes the service section's request
    stream (defaults to a 150-journey fleet) and ``service_options``
    passes extra keyword arguments to :func:`bench_service`;
    ``cluster_options`` does the same for :func:`bench_cluster` and
    ``chaos_options`` for :func:`bench_chaos`.
    """
    selected = list(sections) if sections is not None else list(ALL_SECTIONS)
    unknown = [name for name in selected if name not in ALL_SECTIONS]
    if unknown:
        raise ValueError(
            "unknown section(s) %r; valid sections: %s"
            % (unknown, ", ".join(ALL_SECTIONS))
        )
    if campaign is None and "campaign" in selected:
        campaign = campaign_config(
            num_agents=config.num_agents,
            num_hosts=config.num_hosts,
            hops_per_journey=config.hops_per_journey,
            attack_fraction=0.3,
            seed=config.seed,
            batched_verification=config.batched_verification,
        )
    benchmarks: Dict[str, Any] = {}
    if "fleet" in selected:
        benchmarks["fleet"] = bench_fleet_throughput(
            config, workers, start_method=start_method, pool=pool,
            unit_size=unit_size,
        )
    if "dsa" in selected:
        benchmarks["dsa_verification"] = bench_dsa_verification()
    if "crypto" in selected:
        benchmarks["crypto"] = bench_crypto_backends()
    if "campaign" in selected:
        benchmarks["campaign"] = bench_campaign(
            campaign, workers, start_method=start_method, pool=pool
        )
    if "service" in selected:
        benchmarks["service"] = bench_service(
            service_config, **(service_options or {})
        )
    if "cluster" in selected:
        benchmarks["cluster"] = bench_cluster(
            service_config, **(cluster_options or {})
        )
    if "chaos" in selected:
        benchmarks["chaos"] = bench_chaos(**(chaos_options or {}))
    report = {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "sections": sorted(selected, key=ALL_SECTIONS.index),
        "environment": collect_environment(),
        "benchmarks": benchmarks,
    }
    if profile:
        from repro.bench.profile import profile_fleet

        report["profile"] = profile_fleet(config)
    return report


# ---------------------------------------------------------------------------
# Regression gates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """One row of :data:`GATES`: a report number that must hold.

    ``metric`` is a dotted path into ``report["benchmarks"][section]``
    whose one optional ``*`` spans every key found there; ``label``
    names the metric in messages, with that key in place of its ``*``.
    A row without a ``floor`` is baseline-relative: the value may trail
    the baseline's by at most ``max_regression`` in the ``better``
    direction (``"higher"``/``"lower"``).  Otherwise ``floor`` is a
    fixed threshold or the name of the CLI option holding one (``None``
    or negative disables the row), and a shortfall is only a warning
    when the section's ``waiver`` flag is set.  ``pins`` must equal the
    baseline's or the section refuses to compare; ``missing`` says
    whether an absent current entry fails or is skipped.
    """

    section: str
    metric: str
    better: str
    label: str
    pins: Tuple[str, ...] = ()
    missing: str = "fail"
    floor: Union[None, float, str] = None
    waiver: Optional[str] = None


_SHAPE = ("num_agents", "num_hosts", "hops_per_journey", "seed")
_SERVICE_PINS = tuple("workload." + knob for knob in _SHAPE) + ("max_batch",)
_CLUSTER_PINS = tuple("workload." + knob for knob in _SHAPE) + ("verifiers",)
_CHAOS_PINS = ("chaos_seed", "workers", "faults_injected")

#: Every number the perf gate holds, in report order.  Ratios that
#: depend on the machine's shape (speedup, cluster scaling) are gated
#: only by CLI floors with the ``cpu_limited`` waiver, never against a
#: baseline from other hardware.  A crypto backend not installed here
#: is an environment property, so its row skips it.  Chaos recovery
#: overhead is recorded, not gated: respawn cost depends on machine
#: load as wall clocks do, and :func:`bench_chaos` itself refuses a
#: fault-injected run that is not byte-identical.
GATES: Tuple[Gate, ...] = (
    Gate("fleet", "runs.*.throughput_journeys_per_second", "higher",
         "* throughput", pins=_SHAPE),
    Gate("fleet", "speedup_vs_single", "higher", "speedup vs single",
         floor="min_speedup", waiver="cpu_limited"),
    Gate("crypto", "backends.*.batch_verify_us_per_item", "lower",
         "* batch_verify", pins=("signatures", "signers"), missing="skip"),
    Gate("campaign", "runs.*.throughput_journeys_per_second", "higher",
         "* throughput", pins=_SHAPE + ("attack_fraction",)),
    Gate("campaign", "detection.always_detectable_recall", "higher",
         "recall on always-detectable scenarios",
         floor="min_campaign_recall"),
    Gate("service", "batched.rps", "higher", "batched throughput",
         pins=_SERVICE_PINS),
    Gate("service", "batch_size_1.rps", "higher", "batch_size_1 throughput",
         pins=_SERVICE_PINS),
    Gate("service", "batching_gain", "higher", "batching gain",
         floor="min_service_batch_gain"),
    Gate("service", "vs_fleet_ratio", "higher",
         "throughput vs the in-process fleet verification rate",
         floor="min_service_fleet_ratio"),
    Gate("cluster", "single.rps", "higher", "single throughput",
         pins=_CLUSTER_PINS),
    Gate("cluster", "scaled.rps", "higher", "scaled throughput",
         pins=_CLUSTER_PINS),
    Gate("cluster", "scaling_vs_single", "higher", "scaling vs single",
         floor="min_cluster_scaling", waiver="cpu_limited"),
    Gate("chaos", "parity.signature_identical", "higher",
         "signature parity", pins=_CHAOS_PINS, floor=1),
    Gate("chaos", "parity.trace_identical", "higher",
         "trace parity", pins=_CHAOS_PINS, floor=1),
)

#: Pins whose mismatch is named after the pin rather than reported as
#: a workload-shape mismatch.
_PIN_NAMES = {"max_batch": "max_batch", "verifiers": "verifier-count"}


def _lookup(node: Any, path: List[str]) -> Any:
    for part in path:
        if not isinstance(node, dict):
            return None
        node = node.get(part)
    return node


def _expand(section: Dict[str, Any], metric: str) -> List[Tuple[str, List[str]]]:
    """``(key, path)`` for each concrete entry ``metric`` names."""
    head, star, tail = metric.partition("*")
    if not star:
        return [("", metric.split("."))]
    prefix = head.rstrip(".").split(".")
    table = _lookup(section, prefix)
    return [
        (key, prefix + [key] + tail.lstrip(".").split("."))
        for key in sorted(table if isinstance(table, dict) else ())
    ]


def _refusal(name: str, current: Optional[Dict[str, Any]],
             base: Optional[Dict[str, Any]], rows: List[Gate]) -> Optional[str]:
    """Why section ``name`` cannot be compared to the baseline, if so."""
    if current is None:
        return ("%s section missing from current report — a requested "
                "benchmark must not be silently dropped" % name)
    if base is None:
        return ("baseline has no %s section (recorded with a sections "
                "subset?) — refresh the baseline from a full gated run"
                % name)
    for pin in dict.fromkeys(pin for gate in rows for pin in gate.pins):
        base_value = _lookup(base, pin.split("."))
        cur_value = _lookup(current, pin.split("."))
        if base_value != cur_value:
            leaf = pin.rsplit(".", 1)[-1]
            return ("%s %s mismatch on %s: baseline %r vs current %r — "
                    "not comparable; refresh the baseline" % (
                        name, _PIN_NAMES.get(leaf, "workload"), leaf,
                        base_value, cur_value,
                    ))
    return None


def evaluate_gates(
    current: Dict[str, Any],
    baseline: Optional[Dict[str, Any]] = None,
    max_regression: float = 0.30,
    sections: Optional[List[str]] = None,
    floors: Optional[Dict[str, Any]] = None,
) -> Tuple[List[str], List[str]]:
    """Evaluate every :data:`GATES` row; returns ``(failures, warnings)``.

    Baseline-relative rows run only when ``baseline`` is given; floor
    rows read CLI thresholds from ``floors`` (option name → value).
    ``sections`` names the sections the current run was asked to
    produce (default: the report's own ``sections`` record, falling
    back to everything); rows of other sections are skipped.  Each
    requested section refuses or passes on its own: a section missing
    from either report, or with a pin that differs from the baseline,
    fails that section's comparison and no other.
    """
    failures: List[str] = []
    warnings: List[str] = []
    if baseline is not None and baseline.get("schema") != current.get("schema"):
        failures.append(
            "schema mismatch: baseline %r vs current %r — refresh the "
            "baseline" % (baseline.get("schema"), current.get("schema"))
        )
        baseline = None
    if sections is None:
        sections = current.get("sections")
    if sections is None:
        sections = list(ALL_SECTIONS)
    floors = floors or {}
    for name in dict.fromkeys(gate.section for gate in GATES):
        if name not in sections:
            continue
        rows = [gate for gate in GATES if gate.section == name]
        cur = current["benchmarks"].get(name)
        base = None
        if baseline is not None:
            base = baseline["benchmarks"].get(name)
            refusal = _refusal(name, cur, base, rows)
            if refusal is not None:
                failures.append(refusal)
                base = None
        for gate in rows:
            higher = gate.better == "higher"
            if gate.floor is None:
                if base is None:
                    continue  # no comparable baseline
                source = base
            else:
                threshold = (floors.get(gate.floor)
                             if isinstance(gate.floor, str) else gate.floor)
                if cur is None or threshold is None or threshold < 0:
                    continue  # floor disabled, or nothing to hold
                source = cur
            for key, path in _expand(source, gate.metric):
                label = "%s %s" % (name, gate.label.replace("*", key))
                if gate.floor is None:
                    reference = _lookup(base, path)
                    if reference is None:
                        continue
                    limit = reference * (1.0 - max_regression if higher
                                         else 1.0 + max_regression)
                    verdict = "regressed"
                    detail = " (baseline %.3f, allowed regression %.0f%%)" % (
                        reference, 100 * max_regression)
                else:
                    limit, verdict, detail = threshold, "missed its floor", ""
                value = _lookup(cur, path)
                if value is None:
                    if gate.missing == "fail":
                        failures.append(
                            "%s missing from current report" % label)
                    continue
                if not (value < limit if higher else value > limit):
                    continue
                message = "%s %s: %.3f %s %.3f%s" % (
                    label, verdict, value, "<" if higher else ">", limit,
                    detail,
                )
                if gate.waiver and cur.get(gate.waiver):
                    warnings.append(
                        "%s — gate waived as cpu-limited (%s CPUs)"
                        % (message, cur.get("cpu_count")))
                else:
                    failures.append(message)
    return failures, warnings


def compare_to_baseline(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.30,
    sections: Optional[List[str]] = None,
) -> List[str]:
    """Regression check: returns human-readable failures (empty = pass).

    :func:`evaluate_gates` against ``baseline`` with no CLI floors.  A
    baseline entry missing from the current report is itself a failure
    (a silently dropped measurement must not pass the gate), and schema
    or workload-shape mismatches refuse rather than guess.  A section
    outside ``sections`` is skipped — deliberately not running a
    section is legitimate; a *requested* section missing from either
    report fails.
    """
    return evaluate_gates(current, baseline, max_regression, sections)[0]


def format_speedup_warning(workers: int, fleet: Dict[str, Any],
                           cpu_count: Any) -> str:
    """The loud sub-1.0x-speedup banner, with attribution data.

    Beyond the headline, the banner breaks the regression down so it is
    attributable from the log alone: the useful-parallel-work fraction
    against the wall-clock busy fraction (busy-but-not-useful means the
    cores are contended, not the engine slow), and the per-worker
    units / warmup / compute / serialize split plus the coordinator
    merge time from the work-stealing scheduler's report.
    """
    multi = fleet["runs"].get("workers_%d" % workers, {})
    lines = [
        "",
        "*** WARNING ***********************************************",
        "* The %d-worker sharded run was SLOWER than single-process"
        % workers,
        "* (speedup %.2fx < 1.0x): sharding is currently paying a"
        % fleet["speedup_vs_single"],
        "* penalty instead of scaling.  Check cpu_count in the",
        "* environment section (%s CPUs seen) — on a single-core"
        % cpu_count,
        "* machine multiprocess runs cannot beat one process — and",
        "* make sure a persistent FleetWorkerPool is in use.",
    ]
    utilization = multi.get("worker_utilization")
    busy = multi.get("busy_fraction")
    if utilization is not None:
        lines.append(
            "* Useful parallel work: %.0f%% of the %d-worker CPU envelope"
            % (100 * utilization, workers)
        )
    if busy is not None and utilization is not None:
        lines.append(
            "* against a %.0f%% wall-clock busy fraction — busy but not"
            % (100 * busy)
        )
        lines.append(
            "* useful means the workers are timesharing cores.")
    detail = multi.get("workers_detail") or []
    if detail:
        lines.append("* Per-worker split (units / warmup / compute / "
                     "serialize):")
        for entry in detail:
            warmup = entry.get("warmup_seconds")
            lines.append(
                "*   worker %s: %d units  warmup %s  compute %.2fs  "
                "serialize %.2fs" % (
                    entry.get("worker"), entry.get("units", 0),
                    "%.2fs" % warmup if warmup is not None else "n/a",
                    entry.get("compute_seconds") or 0.0,
                    entry.get("serialize_seconds") or 0.0,
                )
            )
    wall = multi.get("wall_seconds") or 0.0
    merge_seconds = multi.get("merge_seconds")
    if merge_seconds is not None and wall:
        lines.append(
            "* Coordinator merge: %.2fs against a run wall of %.2fs."
            % (merge_seconds, wall)
        )
    lines.append(
        "***********************************************************")
    return "\n".join(lines)


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.harness",
        description="Fleet perf-baseline harness: emits BENCH_fleet.json",
    )
    parser.add_argument("--quick", action="store_true",
                        help="smaller fleet for CI (600 agents, 20 hosts)")
    parser.add_argument("--sections", default=",".join(ALL_SECTIONS),
                        metavar="NAMES",
                        help="comma-separated benchmark sections to run "
                             "(subset of: %s; default: all).  The CI perf "
                             "job runs only the sections it gates."
                             % ",".join(ALL_SECTIONS))
    parser.add_argument("--agents", type=int, default=None,
                        help="override journey count")
    parser.add_argument("--hosts", type=int, default=None,
                        help="override service-host count")
    parser.add_argument("--hops", type=int, default=None,
                        help="override hops per journey")
    parser.add_argument("--seed", type=int, default=2026,
                        help="fleet master seed (default: 2026)")
    parser.add_argument("--workers", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="pool width of the sharded run "
                             "(default: min(4, cpu_count))")
    parser.add_argument("--unit-size", type=int, default=None,
                        help="journeys per work-stealing unit of the "
                             "multi-worker fleet leg (default: the "
                             "scheduler's dynamic plan)")
    parser.add_argument("--start-method", default=None,
                        help="multiprocessing start method override")
    parser.add_argument("--backend", default=None,
                        choices=("python", "gmpy2", "auto"),
                        help="pin the crypto backend for this run and "
                             "its worker pools (default: "
                             "REPRO_CRYPTO_BACKEND, else auto-detect)")
    parser.add_argument("--table-cache", default=None, metavar="PATH|off",
                        help="persistent fixed-base table cache directory "
                             "('off' disables; default: REPRO_TABLE_CACHE, "
                             "else ~/.cache/repro/tables)")
    parser.add_argument("--output", default="BENCH_fleet.json",
                        help="report path (default: BENCH_fleet.json)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="compare against this committed baseline "
                             "and exit non-zero on regression")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional throughput regression "
                             "against the baseline (default: 0.30)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the sharded run is at least "
                             "this much faster than single-process.  "
                             "Only enforced when the machine has at "
                             "least as many CPUs as workers — on "
                             "smaller machines the shortfall is "
                             "reported as a warning (parallel speedup "
                             "is physically impossible there), exactly "
                             "like --min-cluster-scaling")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="additionally write the fleet section's "
                             "merged live-telemetry snapshot (counters, "
                             "gauges, latency histograms across all "
                             "workers) plus the metrics-on/off overhead "
                             "leg as a stand-alone JSON artifact")
    parser.add_argument("--workers-output", default=None, metavar="PATH",
                        help="additionally write the fleet section's "
                             "per-worker overhead split (warmup / "
                             "compute / serialize / merge) as a "
                             "stand-alone JSON artifact")
    parser.add_argument("--campaign-agents", type=int, default=1000,
                        help="journeys of the adversarial campaign "
                             "benchmark (default: 1000)")
    parser.add_argument("--attack-fraction", type=float, default=0.3,
                        help="fraction of campaign journeys carrying an "
                             "attack (default: 0.3)")
    parser.add_argument("--min-campaign-recall", type=float, default=1.0,
                        help="fail when recall on always-detectable "
                             "scenarios falls below this floor "
                             "(default: 1.0; pass a negative value to "
                             "disable)")
    parser.add_argument("--service-agents", type=int, default=150,
                        help="journeys of the fleet whose verification "
                             "traffic the service section replays "
                             "(default: 150)")
    parser.add_argument("--service-batch", type=int, default=256,
                        help="service micro-batch window (default: 256)")
    parser.add_argument("--service-sessions", type=int, default=60,
                        help="session-check requests of the service "
                             "parity leg (default: 60)")
    parser.add_argument("--min-service-batch-gain", type=float, default=1.3,
                        help="fail unless service batching beats the "
                             "batch-size-1 baseline by this factor "
                             "(default: 1.3; negative disables)")
    parser.add_argument("--min-service-fleet-ratio", type=float, default=0.5,
                        help="fail unless batched service throughput "
                             "reaches this fraction of the in-process "
                             "single-worker fleet verification rate "
                             "(default: 0.5; negative disables)")
    parser.add_argument("--cluster-verifiers", type=int, default=3,
                        help="verifier subprocesses of the cluster "
                             "section's scaled leg (default: 3)")
    parser.add_argument("--min-cluster-scaling", type=float, default=None,
                        help="fail unless the N-verifier cluster beats "
                             "the single-verifier leg by this factor.  "
                             "Only enforced when the machine has at "
                             "least N+1 CPUs — on smaller machines the "
                             "shortfall is reported as a warning "
                             "(scaling is physically impossible there), "
                             "exactly like the fleet speedup banner.")
    parser.add_argument("--chaos-workers", type=int, default=2,
                        help="worker-pool width of the chaos section's "
                             "fault-injected legs (default: 2)")
    parser.add_argument("--chaos-seed", type=int, default=2028,
                        help="seed of the generated chaos fault plan — "
                             "the same seed injects the same faults on "
                             "every machine (default: 2028)")
    parser.add_argument("--chaos-faults", type=int, default=2,
                        help="lethal worker faults the generated plan "
                             "places (default: 2)")
    parser.add_argument("--profile", action="store_true",
                        help="attribute fleet wall time to crypto / "
                             "encode / engine / trace phases (cProfile) "
                             "and attach the result to the report")
    parser.add_argument("--profile-output", default="BENCH_profile.json",
                        metavar="PATH",
                        help="where --profile additionally writes the "
                             "stand-alone profile artifact "
                             "(default: BENCH_profile.json)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    sections = [
        name.strip() for name in args.sections.split(",") if name.strip()
    ]
    unknown = [name for name in sections if name not in ALL_SECTIONS]
    if unknown:
        print("FAIL: unknown section(s) %s (valid: %s)" % (
            ", ".join(unknown), ", ".join(ALL_SECTIONS),
        ), file=sys.stderr)
        return 2
    if args.backend is not None:
        set_backend(args.backend)
    # The harness is an entry point: persistent table caching defaults
    # on (the per-worker and cross-run warmup savings are part of what
    # the fleet section measures and reports).
    from repro.crypto.tablecache import enable_table_cache

    table_cache = enable_table_cache(args.table_cache)
    table_cache_dir = (
        table_cache.directory if table_cache is not None else None
    )
    if args.quick:
        agents, hosts, hops = 600, 20, 3
    else:
        agents, hosts, hops = 1000, 40, 4
    config = FleetConfig(
        num_agents=args.agents if args.agents is not None else agents,
        num_hosts=args.hosts if args.hosts is not None else hosts,
        hops_per_journey=args.hops if args.hops is not None else hops,
        malicious_host_fraction=0.2,
        seed=args.seed,
        batched_verification=True,
    )
    campaign = campaign_config(
        num_agents=args.campaign_agents,
        num_hosts=config.num_hosts,
        hops_per_journey=config.hops_per_journey,
        attack_fraction=args.attack_fraction,
        seed=args.seed,
        batched_verification=True,
    ) if "campaign" in sections else None
    service_config = FleetConfig(
        num_agents=args.service_agents,
        num_hosts=config.num_hosts,
        hops_per_journey=config.hops_per_journey,
        malicious_host_fraction=0.2,
        seed=args.seed,
        protected=True,
        batched_verification=True,
    ) if ("service" in sections or "cluster" in sections) else None

    # One persistent, pre-warmed pool serves every multi-worker section:
    # spawning (and re-generating keys/tables in) fresh workers per
    # measurement is exactly the startup tax the committed 4-worker
    # regression traced back to.
    pool: Optional[FleetWorkerPool] = None
    needs_pool = args.workers > 1 and (
        "fleet" in sections or "campaign" in sections
    )
    if needs_pool:
        pool = FleetWorkerPool(
            args.workers,
            start_method=args.start_method or DEFAULT_START_METHOD,
            warm_config=config,
            backend=args.backend,
            table_cache_dir=table_cache_dir,
        )
    try:
        report = build_report(
            config, workers=args.workers, quick=args.quick,
            start_method=args.start_method, campaign=campaign,
            pool=pool, profile=args.profile, sections=sections,
            service_config=service_config,
            service_options={
                "max_batch": args.service_batch,
                "session_checks": args.service_sessions,
            },
            cluster_options={
                "verifiers": args.cluster_verifiers,
                "table_cache": table_cache_dir,
            },
            chaos_options={
                "workers": args.chaos_workers,
                "chaos_seed": args.chaos_seed,
                "fault_count": args.chaos_faults,
            },
            unit_size=args.unit_size,
        )
    finally:
        if pool is not None:
            pool.close()
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if args.profile:
        with open(args.profile_output, "w", encoding="utf-8") as handle:
            json.dump(report["profile"], handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.metrics_out:
        from repro.obs import TELEMETRY_SCHEMA

        fleet_section = report["benchmarks"].get("fleet") or {}
        artifact = {
            "schema": TELEMETRY_SCHEMA,
            "environment": report["environment"],
            "telemetry": fleet_section.get("telemetry"),
            "telemetry_overhead": fleet_section.get("telemetry_overhead"),
        }
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("telemetry snapshot written to %s" % args.metrics_out)
    if args.workers_output:
        fleet_section = report["benchmarks"].get("fleet") or {}
        artifact = {
            "schema": WORKERS_SCHEMA,
            "workers": args.workers,
            "environment": report["environment"],
            "runs": {
                key: {
                    "scheduler": run.get("scheduler"),
                    "wall_seconds": run.get("wall_seconds"),
                    "worker_utilization": run.get("worker_utilization"),
                    "busy_fraction": run.get("busy_fraction"),
                    "merge_seconds": run.get("merge_seconds"),
                    "workers_detail": run.get("workers_detail"),
                }
                for key, run in fleet_section.get("runs", {}).items()
            },
        }
        with open(args.workers_output, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")

    fleet = report["benchmarks"].get("fleet")
    if fleet is not None:
        print("fleet: %d journeys, signature %s" % (
            fleet["num_agents"], fleet["deterministic_signature"][:16],
        ))
        for key, run in sorted(fleet["runs"].items()):
            print("  %-10s %7.2fs  %8.1f journeys/s  "
                  "useful-work %3.0f%%" % (
                      key, run["wall_seconds"],
                      run["throughput_journeys_per_second"],
                      100 * run["worker_utilization"],
                  ))
        print("  speedup vs single: %.2fx" % fleet["speedup_vs_single"])
        if args.workers > 1 and fleet["speedup_vs_single"] < 1.0:
            print(
                format_speedup_warning(
                    args.workers, fleet,
                    report["environment"].get("cpu_count"),
                ),
                file=sys.stderr,
            )
        print("  hash-cache hit rate: %.1f%%" % (
            100 * fleet["hash_cache"]["hit_rate"],
        ))
        warmup = fleet.get("warmup")
        if warmup:
            print("  table warmup (%d tables): cold %.3fs, warm-host "
                  "%.3fs (%sx via persistent cache)" % (
                      warmup["tables"], warmup["cold_seconds"],
                      warmup["warm_seconds"],
                      warmup["speedup"] if warmup["speedup"] is not None
                      else "n/a",
                  ))
        overhead = fleet.get("telemetry_overhead")
        if overhead:
            print("  telemetry overhead: %+.2f%% wall time with metrics "
                  "on (%.3fs vs %.3fs, best of %d interleaved pairs)" % (
                      100 * overhead["overhead_fraction"],
                      overhead["enabled_wall_seconds"],
                      overhead["disabled_wall_seconds"],
                      overhead["repeats"],
                  ))
    dsa = report["benchmarks"].get("dsa_verification")
    if dsa is not None:
        print("dsa verification: batched %.2fx faster (%.4fs vs %.4fs)" % (
            dsa["speedup"], dsa["batched_seconds"], dsa["individual_seconds"],
        ))
    crypto = report["benchmarks"].get("crypto")
    if crypto is not None:
        print(format_backend_table(crypto))
    camp = report["benchmarks"].get("campaign")
    if camp is not None:
        detection = camp["detection"]
        print("campaign: %d journeys, %.0f%% attacked, signature %s" % (
            camp["num_agents"], 100 * camp["attack_fraction"],
            camp["deterministic_signature"][:16],
        ))
        print("  precision %.3f  recall %.3f  false-positive rate %.4f" % (
            detection["precision"], detection["recall"],
            detection["false_positive_rate"],
        ))
        print("  adversarial overhead vs benign: %.2fx"
              % camp["adversarial_overhead"])
        for name, row in sorted(detection["per_scenario"].items()):
            print("  %-24s area %2d  %-18s %3d/%3d detected "
                  "(recall %s, precision %s, hops-to-det %s)" % (
                      name, row["area"], row["detectability"],
                      row["detected"], row["injected"],
                      metric_cell(row["detection_rate"]),
                      metric_cell(row["precision"]),
                      metric_cell(row["mean_hops_to_detection"], "%.1f"),
                  ))
    service = report["benchmarks"].get("service")
    if service is not None:
        print(format_service_table(service))
    cluster = report["benchmarks"].get("cluster")
    if cluster is not None:
        print(format_cluster_table(cluster))
        if not cluster["failover"]["killed_mid_run"]:
            print("  note: the kill landed after the stream drained "
                  "(no in-flight work to fail over) — rerun with a "
                  "larger stream for a live drill", file=sys.stderr)
    chaos = report["benchmarks"].get("chaos")
    if chaos is not None:
        print("chaos: %d seeded fault(s) injected into a %d-worker "
              "fleet (seed %d)" % (
                  chaos["faults_injected"], chaos["workers"],
                  chaos["chaos_seed"],
              ))
        for fault in chaos["faults"]:
            print("  fault: %s" % json.dumps(fault, sort_keys=True))
        injected = chaos["injected"]
        degraded = chaos["degraded"]
        print("  injected leg: %d crash(es), %d unit(s) requeued, "
              "%d stream repair(s), %d respawn(s)" % (
                  injected["crashes"], injected["requeued_units"],
                  injected["trace_repairs"], injected["respawns"],
              ))
        print("  degraded leg: %d crash(es), %d unit(s) finished by "
              "the coordinator (respawn budget 0)" % (
                  degraded["crashes"], degraded["degraded_units"],
              ))
        print("  recovery overhead: %+.1f%% wall time vs clean "
              "(%.2fs vs %.2fs); signature and trace byte-identical "
              "across all legs" % (
                  100 * chaos["recovery_overhead_fraction"],
                  injected["wall_seconds"], chaos["clean"]["wall_seconds"],
              ))
    if args.profile:
        from repro.bench.profile import format_profile

        print(format_profile(report["profile"]))
        print("profile written to %s" % args.profile_output)
    print("report written to %s" % args.output)

    baseline = None
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        base_env = baseline.get("environment", {})
        cur_env = report["environment"]
        for knob in ("cpu_count", "machine"):
            if base_env.get(knob) != cur_env.get(knob):
                # Wall-clock throughput is only loosely comparable
                # across machines; say so next to any verdict instead
                # of letting a hardware swap read as a perf change.
                print(
                    "note: baseline %s=%r differs from this machine's %r "
                    "— consider refreshing the baseline on matching "
                    "hardware" % (knob, base_env.get(knob), cur_env.get(knob)),
                    file=sys.stderr,
                )
    floors = vars(args)
    if args.workers <= 1:
        # A single-worker run has no parallel leg to gate.
        floors = dict(floors, min_speedup=None)
    failures, warnings = evaluate_gates(
        report, baseline, max_regression=args.max_regression, floors=floors,
    )
    for warning in warnings:
        print("WARNING: %s" % warning, file=sys.stderr)
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    if baseline is not None and not failures:
        print("baseline check passed (%s)" % args.baseline)
    return 1 if failures else 0

if __name__ == "__main__":
    sys.exit(main())
