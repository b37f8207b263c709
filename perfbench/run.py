"""One-command benchmark of the reference-state reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet_protected --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first runs the ops untraced for half the time, then runs
the *same* ops again with every layer's public entry points wrapped
(:mod:`perfbench.tracing`), and reports the per-layer metrics, the
tracing overhead and a check that the traced run computed exactly what
the untraced one did.  Raw spans of the first traced ops are written to
``.perfbench/spans-<workload>-<seed>.jsonl`` in the checkout.

Human-readable lines go first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Cold set-ups in fresh interpreters before the timed ops (the run's
#: own set-up is one more) and after them: the median then rests on two
#: moments of the run, not on the state of a contended host during the
#: seconds before the first op.
SETUP_BEFORE = 2
SETUP_AFTER = 3
#: Seconds one cold set-up in a child interpreter may take.
SETUP_TIMEOUT_S = 120


def _import_paths() -> None:
    """Make ``repro`` (from ``src/``) and ``perfbench`` importable."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: no program source at %s (expected src/repro); "
            "run from the root of a full checkout" % SRC
        )
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def _workload(name: str, seed: int) -> Any:
    if name == "fleet_protected":
        from perfbench.fleet import FleetWorkload

        return FleetWorkload(seed)
    if name == "service_mixed":
        from perfbench.service import ServiceWorkload

        return ServiceWorkload(seed)
    if name == "paper_tables":
        from perfbench.paper import PaperWorkload

        return PaperWorkload(seed)
    raise SystemExit("perfbench: unknown workload %r" % name)


WORKLOADS = ("fleet_protected", "service_mixed", "paper_tables")


def setup_workload(name: str, seed: int) -> Tuple[Any, float]:
    """Import the program and set one workload up; returns it and the wall s.

    This is everything a run does before its first timed op: importing
    ``repro``, pinning the persistent fixed-base table cache off (it
    would make set-up depend on ~/.cache and on earlier runs), the
    workload's own set-up, and a full collection so garbage from set-up
    is not collected inside the first op.
    """
    started = time.perf_counter()
    from repro.crypto import set_table_cache

    set_table_cache(None)
    workload = _workload(name, seed)
    workload.setup()
    gc.collect()
    return workload, time.perf_counter() - started


def cold_setups(name: str, seed: int, count: int) -> List[float]:
    """Time ``count`` cold set-ups, one fresh interpreter each, in turn.

    The program memoizes identities and tables process-wide, so a
    second set-up in the same process would skip most of its work; a
    fresh interpreter pays for all of it, as the run's own set-up did.
    """
    times = []
    for _ in range(count):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(json.loads(completed.stdout.splitlines()[-1])["setup_s"])
    return times


def run(workload_name: str, seed: int, seconds: float,
        trace: bool) -> Dict[str, Any]:
    """Run one workload; prints the report and returns the result."""
    from perfbench import common

    workload, first_setup_s = setup_workload(workload_name, seed)
    setup_s = [first_setup_s]
    if not trace:
        setup_s += cold_setups(workload_name, seed, SETUP_BEFORE)
    spans_path = None
    if trace:
        spans_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(
            spans_dir, "spans-%s-%d.jsonl" % (workload_name, seed)
        )
    try:
        result = measure(
            workload, seconds, trace, setup_s, spans_path,
            more_setups=lambda: cold_setups(workload_name, seed, SETUP_AFTER),
        )
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    for problem in workload.problems[:20]:
        print("FAILED: %s" % problem)
    for line in result.pop("lines"):
        print(line)
    common.emit_result(result["correct"], result["attempted"],
                       result["failed"], result["metrics"])
    return result


def measure(workload: Any, seconds: float, trace: bool,
            setup_s: List[float], spans_path: Optional[str] = None,
            more_setups: Optional[Callable[[], List[float]]] = None,
            ) -> Dict[str, Any]:
    """Measure a set-up ``workload``; returns the result object.

    Untraced, the ops run for ``seconds``; then ``more_setups`` adds
    set-up times to ``setup_s``.  Traced, the ops run untraced for half
    of ``seconds``, then the same ops run again under the tracer.
    Each op's correctness check runs after the op, outside the traced
    window, so no layer is charged for the benchmark's own checks.
    """
    from perfbench import common, metrics

    def checked_op(index: int) -> common.OpRecord:
        record = workload.op(index)
        workload.check(record)
        return record

    if not trace:
        records = common.run_ops(
            checked_op, seconds, workload.min_ops, step=workload.step
        )
        if more_setups is not None:
            setup_s = setup_s + more_setups()
        return metrics.end_to_end(workload, records, setup_s)

    from perfbench.tracing import Tracer

    untraced = common.run_ops(
        checked_op, seconds / 2.0, workload.min_ops, step=workload.step
    )
    untraced_digest = workload.digest()
    workload.reset()
    tracer = Tracer()

    def traced_op(index: int) -> common.OpRecord:
        tracer.begin_op(index)
        record = workload.op(index)
        tracer.end_op(record.wall_s)
        workload.check(record)
        return record

    with tracer:
        traced = common.run_ops(traced_op, 0.0, 0, max_ops=len(untraced))
    traced_digest = workload.digest()
    if traced_digest != untraced_digest:
        workload.problems.append(
            "traced digest %s != untraced %s"
            % (traced_digest[:16], untraced_digest[:16])
        )
    result = metrics.per_layer(workload, untraced, traced, tracer)
    if spans_path is not None:
        count = tracer.write_spans(spans_path)
        result["lines"].append("spans: %d written to %s" % (count, spans_path))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it as JSON")
    args = parser.parse_args(argv)
    _import_paths()
    if args.setup_only:
        workload, setup_s = setup_workload(args.workload, args.seed)
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    started = time.perf_counter()
    # A wrong answer is reported through "correct"/"failed", not the
    # exit status: the result line is still a complete measurement.
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("wall %.1f s" % (time.perf_counter() - started), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
