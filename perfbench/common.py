"""Shared machinery of the benchmark: drift probe, op loop, statistics.

Nothing here imports ``repro``.  The reference kernel in particular must
stay independent of the program under test: it measures how fast this
machine runs plain Python *right now*, so that ``cpu_ref_per_op`` can
divide the machine's drift out of every CPU cost.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Loop iterations of the reference kernel (about 7 ms of CPU on a
#: 2-CPU x86-64 container running CPython 3.11).
KERNEL_ITERATIONS = 10_000
#: What the kernel returns; a different answer means a probe did not
#: run the work it timed.
KERNEL_ANSWER = 566330336634
#: Op wall time per reference-kernel probe (each probe costs ~3% of it).
PROBE_EVERY_S = 0.25


def reference_kernel() -> int:
    """Fixed interpreter-bound work: small ints, strings, dicts, bytes.

    It resembles what the codec, state copies and agent execution spend
    their time on, without calling into the program.
    """
    acc = 0
    table: Dict[str, int] = {}
    parts: List[bytes] = []
    for i in range(KERNEL_ITERATIONS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        key = "k%d" % (i & 255)
        table[key] = table.get(key, 0) ^ acc
        if not i & 7:
            parts.append(str(acc).encode("ascii"))
    blob = b"".join(parts)
    return acc ^ len(blob) ^ sum(table.values())


def kernel_probe() -> float:
    """Run the reference kernel once; returns its process CPU in ms."""
    started = time.process_time()
    answer = reference_kernel()
    elapsed = time.process_time() - started
    if answer != KERNEL_ANSWER:
        raise RuntimeError("the reference kernel returned a different answer")
    return 1e3 * elapsed


@dataclass
class OpRecord:
    """One timed op: its cost, its size in units, and its verdict."""

    index: int
    wall_s: float
    cpu_s: float
    units: int
    ok: bool
    #: Reference-kernel probes (CPU ms) run right before the op.
    probes: List[float] = field(default_factory=list)
    #: Workload-specific payload (latencies, digests, breakdowns).
    extra: Dict[str, Any] = field(default_factory=dict)


def run_ops(
    run_op: Callable[[int], OpRecord],
    seconds: float,
    min_ops: int,
    max_ops: Optional[int] = None,
    step: int = 1,
) -> List[OpRecord]:
    """Run ops ``0, 1, 2, ...`` until ``seconds`` pass, probing between them.

    Before every op the reference kernel runs once per started
    ``PROBE_EVERY_S`` of the previous op's wall time, so long ops get
    proportionally many probes.  At least ``min_ops`` ops run;
    ``max_ops`` (the op count of an earlier untraced phase) replays
    exactly that many instead of watching the clock.  ``step`` keeps
    the op count a multiple of a workload's round length.
    """
    records: List[OpRecord] = []
    deadline = time.perf_counter() + seconds
    previous_wall = 0.0
    index = 0
    while True:
        if max_ops is not None:
            if index >= max_ops:
                break
        elif index >= min_ops and index % step == 0 \
                and time.perf_counter() >= deadline:
            break
        probes = [kernel_probe()
                  for _ in range(1 + int(previous_wall / PROBE_EVERY_S))]
        record = run_op(index)
        record.probes = probes
        records.append(record)
        previous_wall = record.wall_s
        index += 1
    return records


def kernel_mean_ms(records: Sequence[OpRecord]) -> float:
    """Mean CPU of the reference kernel over a run's probes (ms)."""
    values = [probe for record in records for probe in record.probes]
    return sum(values) / len(values)


def cpu_per_unit(records: Sequence[OpRecord],
                 keep: Callable[[OpRecord], bool] = lambda record: True,
                 ) -> Tuple[float, float]:
    """CPU ms per unit of the kept ops: raw, and divided by the kernel.

    Each op's CPU is divided by the mean of the probes run right before
    it and right after it (before the next op).  A host that switches
    between a fast and a slow state every few tenths of a second slows
    an op and its neighbouring probes alike, where the run-wide mean of
    the probes mixes in states the op never saw.
    """
    units = cpu_ms = ref = 0.0
    for position, record in enumerate(records):
        if not keep(record):
            continue
        around = list(record.probes)
        if position + 1 < len(records):
            around += records[position + 1].probes
        cost = 1e3 * record.cpu_s
        cpu_ms += cost
        ref += cost * len(around) / sum(around)
        units += record.units
    return cpu_ms / units, ref / units


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(fraction * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def windowed_percentile(groups: Sequence[Sequence[float]], fraction: float,
                        window: int) -> float:
    """Median over consecutive windows of ``window`` groups of a percentile.

    ``groups`` are per-op sample lists in op order.  A slow episode of
    the machine moves the tail of the windows it covers; the median
    over windows keeps one such episode from setting the run's figure.
    A trailing partial window joins the one before it.
    """
    windows: List[List[float]] = []
    for start in range(0, len(groups), window):
        samples = [value for group in groups[start:start + window]
                   for value in group]
        if windows and len(groups) - start < window:
            windows[-1].extend(samples)
        else:
            windows.append(samples)
    return median([percentile(samples, fraction) for samples in windows])


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie beyond the ``fraction`` rank."""
    return count - max(1, int(round(fraction * count + 0.5)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_digest(parts: Sequence[str]) -> str:
    """One hex digest over an ordered list of per-op digests."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def derive_seed(seed: int, *labels: Any) -> int:
    """An independent 63-bit seed for ``labels`` under the workload seed."""
    material = "|".join([str(seed)] + [str(label) for label in labels])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, Any]]) -> None:
    """Print the one-line JSON result (must be the last stdout line)."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }, sort_keys=True), flush=True)
