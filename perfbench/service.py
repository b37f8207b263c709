"""``service_mixed``: the verification service under a replayed journey stream.

A :class:`~repro.service.VerificationService` and a client from
:func:`repro.service.connect` share one event loop over loopback TCP
(two connections).  The request stream is captured from a recording
fleet run (:func:`repro.sim.requests.journey_request_stream`): transfer
signature verifies and protocol session checks in the ratio the fleet
produced them, 10% of verifies
corrupted (:func:`repro.sim.requests.corrupt_requests`), and repeats of
recent verifies that the verdict cache answers.  The stream cycles; the
verdict cache is smaller than one cycle, so only the deliberate repeats
hit it.

Ops alternate between two legs, each a fixed number of requests:

* even ops — closed loop at a fixed in-flight bound (the capacity leg,
  giving ``throughput_per_s`` and the CPU cost per request);
* odd ops — open loop at a fixed absolute rate, well under capacity,
  latency timed from each request's due time (``op_ms_p50`` / ``p99``).
"""

from __future__ import annotations

import asyncio
import time
from random import Random
from typing import Any, Dict, List, Tuple

from perfbench.common import (
    OpRecord,
    cpu_per_unit,
    derive_seed,
    op_digest,
    percentile,
    samples_beyond,
)

STREAM_JOURNEYS = 60
NUM_HOSTS = 20
CORRUPT_FRACTION = 0.10
#: Share of stream positions preceded by a repeat of one of the last
#: ``REPEAT_WINDOW`` verifies.  An assumption: the repository records
#: no measured repeat share of real traffic.
REPEAT_FRACTION = 0.2
REPEAT_WINDOW = 32
#: Verdict-cache capacity, an assumption too.  The server's default
#: (65536) would hold the whole cycled stream, so after the first cycle
#: every verify would be a cache hit; 128 entries is below one cycle and
#: above the repeat window, so the deliberate repeats are what hits.
CACHE_ENTRIES = 128
CONNECTIONS = 2
#: Micro-batch window: the default of the repository's own service
#: benchmark (``repro.bench.harness``).
MAX_DELAY = 0.010
CAPACITY_REQUESTS = 1500
CAPACITY_INFLIGHT = 128
OPEN_REQUESTS = 400
OPEN_RATE = 200.0
DIGEST_OPS = 4


def build_stream(seed: int) -> Tuple[List[Any], str]:
    """The replayed request list and the generating fleet's signature."""
    from repro.sim import FleetConfig
    from repro.sim.requests import corrupt_requests, journey_request_stream

    captured = journey_request_stream(FleetConfig(
        num_agents=STREAM_JOURNEYS,
        num_hosts=NUM_HOSTS,
        hops_per_journey=3,
        malicious_host_fraction=0.2,
        seed=derive_seed(seed, "service", "fleet"),
    ))
    rng = Random(derive_seed(seed, "service", "mix"))
    verifies = list(captured.verify_requests)
    # Exact shares, not per-request coin flips: every seed then carries
    # the same number of corrupted verifies and cache-hitting repeats.
    chosen = set(rng.sample(range(len(verifies)),
                            round(CORRUPT_FRACTION * len(verifies))))
    corrupted, _ = corrupt_requests(
        [verifies[i] for i in sorted(chosen)], 1.0,
        seed=derive_seed(seed, "service", "corrupt"),
    )
    replaced = dict(zip(sorted(chosen), corrupted))
    base = [replaced.get(i, r) for i, r in enumerate(verifies)]
    base += list(captured.session_requests)
    rng.shuffle(base)
    repeat_at = set(rng.sample(range(REPEAT_WINDOW, len(base)),
                               round(REPEAT_FRACTION * len(base))))
    stream: List[Any] = []
    for position, request in enumerate(base):
        if position in repeat_at:
            recent = [r for r in stream[-REPEAT_WINDOW:] if r.op == "verify"]
            if recent:
                stream.append(rng.choice(recent))
        stream.append(request)
    return stream, captured.fleet_signature


class ServiceWorkload:
    name = "service_mixed"
    step = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.min_ops = DIGEST_OPS
        self.loop = asyncio.new_event_loop()
        self.service: Any = None
        self.client: Any = None
        self.stream: List[Any] = []
        self.fleet_signature = ""
        self.problems: List[str] = []
        self.op_digests: List[str] = []
        self._cursor = 0

    # -- lifecycle ----------------------------------------------------------

    def setup(self) -> None:
        """Keys and tables, the captured stream, a fresh server and client.

        Keys and tables come from the program's own warm-up
        (``repro.sim.warm_worker``), into the process-wide memo the
        server's key store uses.
        """
        from repro.sim import FleetConfig, fleet_host_names, warm_worker

        warm_worker(fleet_host_names(FleetConfig(num_hosts=NUM_HOSTS)))
        self.stream, self.fleet_signature = build_stream(self.seed)
        self._restart()
        self.loop.run_until_complete(self._warm(self.stream[:64]))

    async def _warm(self, requests: List[Any]) -> None:
        await asyncio.gather(*(self._send(request) for request in requests))

    def _restart(self) -> None:
        from repro.service import ServiceConfig, VerificationService, connect

        self._stop()
        self.service = VerificationService(ServiceConfig(
            port=0, fleet_hosts=NUM_HOSTS, cache_entries=CACHE_ENTRIES,
            max_delay=MAX_DELAY,
        ))
        self.loop.run_until_complete(self.service.start())
        self.client = self.loop.run_until_complete(
            connect(self.service, connections=CONNECTIONS)
        )
        self._cursor = 0

    def _stop(self) -> None:
        if self.client is not None:
            self.loop.run_until_complete(self.client.close())
            self.client = None
        if self.service is not None:
            self.loop.run_until_complete(self.service.stop())
            self.service = None

    def close(self) -> None:
        """Stop the client, the server and the event loop."""
        self._stop()
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self.loop.close()

    def reset(self) -> None:
        """Fresh server (empty verdict cache) so the same ops replay exactly."""
        self.op_digests = []
        self._restart()

    # -- requests -----------------------------------------------------------

    async def _send(self, request: Any) -> Tuple[bool, Any, str]:
        """One request; returns (ok, observed verdict, failure kind).

        The failure kind of a verify answered from the verdict cache is
        ``"cache_hit"``.
        """
        from repro.exceptions import ServiceError, ServiceUnavailable

        payload = request.payload
        try:
            if request.op == "verify":
                response = await self.client.verify(
                    payload["signer"], payload["message"], payload["signature"]
                )
                if response.get("cache_hit"):
                    return True, response.get("verdict"), "cache_hit"
                observed = response.get("verdict")
            else:
                observed = await self.client.check_session(
                    payload["prev_session"], payload["observed_state"],
                    payload["checked_host"], payload["checking_host"],
                )
        except ServiceUnavailable:
            return False, None, "busy"
        except ServiceError:
            return False, None, "error"
        except (OSError, EOFError):
            return False, None, "drop"
        return True, observed, ""

    def _take(self, count: int) -> List[Any]:
        """The next ``count`` requests of the cycled stream."""
        size = len(self.stream)
        batch = [self.stream[(self._cursor + k) % size] for k in range(count)]
        self._cursor = (self._cursor + count) % size
        return batch

    @staticmethod
    def _judge(request: Any, sent: Tuple[bool, Any, str],
               tally: Dict[str, int]) -> Any:
        """Count a failure or a wrong verdict; returns the verdict seen."""
        ok, observed, kind = sent
        if kind:
            tally[kind] = tally.get(kind, 0) + 1
        if ok and observed != request.expected:
            tally["mismatch"] = tally.get("mismatch", 0) + 1
        return observed

    async def _closed_leg(self, batch: List[Any],
                          tally: Dict[str, int]) -> List[Any]:
        verdicts: List[Any] = [None] * len(batch)
        queue = iter(range(len(batch)))

        async def worker() -> None:
            for slot in queue:
                request = batch[slot]
                sent = await self._send(request)
                verdicts[slot] = self._judge(request, sent, tally)

        await asyncio.gather(*(worker() for _ in range(CAPACITY_INFLIGHT)))
        return verdicts

    async def _open_leg(self, batch: List[Any],
                        tally: Dict[str, int]) -> Tuple[List[Any], List[float],
                                                         List[float]]:
        loop = asyncio.get_running_loop()
        verdicts: List[Any] = [None] * len(batch)
        latencies: List[float] = [0.0] * len(batch)
        lateness: List[float] = [0.0] * len(batch)
        start = loop.time() + 0.005

        async def one(slot: int) -> None:
            due = start + slot / OPEN_RATE
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness[slot] = max(0.0, loop.time() - due)
            request = batch[slot]
            sent = await self._send(request)
            latencies[slot] = loop.time() - due
            verdicts[slot] = self._judge(request, sent, tally)

        await asyncio.gather(*(one(slot) for slot in range(len(batch))))
        return verdicts, latencies, lateness

    def op(self, index: int) -> OpRecord:
        capacity = index % 2 == 0
        batch = self._take(
            CAPACITY_REQUESTS if capacity else OPEN_REQUESTS
        )
        tally: Dict[str, int] = {}
        extra: Dict[str, Any] = {"leg": "capacity" if capacity else "open"}
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if capacity:
            verdicts = self.loop.run_until_complete(
                self._closed_leg(batch, tally)
            )
        else:
            verdicts, latencies, lateness = self.loop.run_until_complete(
                self._open_leg(batch, tally)
            )
            extra["latency_ms"] = [1e3 * v for v in latencies]
            extra["late_ms"] = [1e3 * v for v in lateness]
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        hits = tally.pop("cache_hit", 0)
        failed = sum(tally.values())
        extra.update({
            "verdicts": verdicts,
            "tally": tally,
            "attempted": len(batch),
            "failed": failed,
            "busy": tally.get("busy", 0),
            "completed": len(batch) - failed,
            "cache_hits": hits,
            "session_checks": sum(1 for r in batch if r.op != "verify"),
        })
        return OpRecord(index=index, wall_s=wall, cpu_s=cpu, units=len(batch),
                        ok=not failed, extra=extra)

    def check(self, record: OpRecord) -> None:
        """Report the op's failures and add its verdicts to the digest.

        Each verdict was judged against the ground truth as it arrived.
        """
        if record.extra["failed"]:
            self.problems.append("op %d: %s" % (
                record.index, record.extra["tally"],
            ))
        self.op_digests.append(
            op_digest([repr(v) for v in record.extra.pop("verdicts")])
        )

    def digest(self) -> str:
        return op_digest([self.fleet_signature] + self.op_digests[:DIGEST_OPS])

    # -- metrics ------------------------------------------------------------

    def figures(self, records: List[OpRecord]) -> Dict[str, float]:
        capacity = [r for r in records if r.extra["leg"] == "capacity"]
        cpu_ms, cpu_ref = cpu_per_unit(
            records, lambda r: r.extra["leg"] == "capacity"
        )
        latencies = [
            ms for r in records if r.extra["leg"] == "open"
            for ms in r.extra["latency_ms"]
        ]
        return {
            "throughput_per_s": sum(r.extra["completed"] for r in capacity)
            / sum(r.wall_s for r in capacity),
            "cpu_ms_per_op": cpu_ms,
            "cpu_ref_per_op": cpu_ref,
            "op_ms_p50": percentile(latencies, 0.50),
            "op_ms_p99": percentile(latencies, 0.99),
        }

    def lines(self, records: List[OpRecord]) -> List[str]:
        opened = [r for r in records if r.extra["leg"] == "open"]
        latencies = [ms for r in opened for ms in r.extra["latency_ms"]]
        late = [ms for r in opened for ms in r.extra["late_ms"]]
        verifies = sum(1 for r in self.stream if r.op == "verify")
        corrupted = sum(
            1 for r in self.stream if r.op == "verify" and not r.expected
        )
        sent = sum(r.units for r in records)
        return [
            "service: stream of %d requests (%d verifies, %d corrupted, "
            "%d session checks)" % (
                len(self.stream), verifies, corrupted,
                len(self.stream) - verifies,
            ),
            "service: of %d requests sent, %.1f%% session checks, %.1f%% "
            "verdict-cache hits" % (
                sent,
                100.0 * sum(r.extra["session_checks"] for r in records) / sent,
                100.0 * sum(r.extra["cache_hits"] for r in records) / sent,
            ),
            "service: open loop at %.0f/s, %d samples, %d beyond p99, "
            "generator late p99 %.3f ms" % (
                OPEN_RATE, len(latencies),
                samples_beyond(len(latencies), 0.99), percentile(late, 0.99),
            ),
        ]

    def layer_figures(self, untraced: List[OpRecord], traced: List[OpRecord],
                      tracer: Any) -> Dict[str, float]:
        late = [
            ms for r in untraced if r.extra["leg"] == "open"
            for ms in r.extra["late_ms"]
        ]
        return {
            "loadgen.late_ms_p99": percentile(late, 0.99),
            "service.busy": float(sum(r.extra["busy"] for r in traced)),
        }
