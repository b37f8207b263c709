"""Metric names, units, and their assembly from op records.

Every workload reports every end-to-end metric (``--trace 0``) and
every per-layer metric (``--trace 1``); what each one means on each
workload is written down in ``perfbench/NOTES.md``.  A layer a workload
does not exercise reports 0 calls — the prediction the layer map makes
for it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from perfbench.common import (
    OpRecord,
    kernel_mean_ms,
    median,
    metric,
    peak_rss_mb,
)
from perfbench.paper import CELLS
from perfbench.tracing import LAYERS

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ref_per_op": "ratio",
}
#: Raw times: every untraced run prints them, and traced runs report
#: them as per-layer ``raw.*`` metrics (from the untraced half).  They
#: move with the load on a shared host by more than any bound allows,
#: so they are not gated (NOTES.md).
RAW = {
    "throughput_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
}

#: Per-layer metrics beyond the generic ``<layer>.{calls,bytes,self_ms}``.
_LAYER_FIELDS = {
    "crypto.encode": ("calls", "bytes", "self_ms"),
    "crypto.decode": ("calls", "bytes", "self_ms"),
    "agents.copy": ("calls", "self_ms"),
    "crypto.hash": ("calls", "bytes", "self_ms"),
    "crypto.sign": ("calls", "self_ms"),
    "crypto.verify": ("calls", "self_ms"),
    "crypto.batch_verify": ("calls", "items", "self_ms"),
    "crypto.find_invalid": ("calls", "self_ms"),
    "agents.reexecute": ("calls", "self_ms"),
    "core.protocol": ("calls", "self_ms"),
    "platform.hop": ("calls", "self_ms"),
    "sim.trace.emit": ("calls", "self_ms"),
    "service.wire": ("calls", "bytes", "self_ms"),
    "service.batch": ("calls", "self_ms"),
    "service.cache": ("calls", "hit_ratio"),
}
_FIELD_UNITS = {
    "calls": "count", "bytes": "B", "self_ms": "ms", "items": "count",
    "hit_ratio": "ratio",
}

PER_LAYER: Dict[str, str] = {}
for _layer in LAYERS:
    for _field in _LAYER_FIELDS[_layer]:
        PER_LAYER["%s.%s" % (_layer, _field)] = _FIELD_UNITS[_field]
PER_LAYER.update({
    "crypto.hash_cache.hit_ratio": "ratio",
    "crypto.verify_cache.hit_ratio": "ratio",
    "service.batch.size_mean": "count",
    "service.batch.wait_ms_p50": "ms",
    "service.busy": "count",
})
for _cell, _inputs, _cycles in CELLS:
    PER_LAYER["paper.overhead_x.%s" % _cell] = "ratio"
    for _mode in ("plain", "protected"):
        for _category in ("sign_verify", "cycle", "remainder"):
            PER_LAYER["paper.%s_ms.%s.%s" % (_category, _mode, _cell)] = "ms"
PER_LAYER.update({"raw." + _name: _unit for _name, _unit in RAW.items()})
PER_LAYER.update({
    "loadgen.late_ms_p99": "ms",
    "machine.ref_ms": "ms",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
})


def _verdict(workload: Any, records: List[OpRecord]) -> Dict[str, Any]:
    failed = sum(1 for record in records if not record.ok)
    attempted = sum(record.extra.get("attempted", 1) for record in records)
    failed_units = sum(record.extra.get("failed", 0 if record.ok else 1)
                       for record in records)
    return {
        "attempted": attempted,
        "failed": failed_units,
        "correct": failed == 0 and not workload.problems,
    }


def end_to_end(workload: Any, records: List[OpRecord],
               setup_s: List[float]) -> Dict[str, Any]:
    figures = workload.figures(records)
    values = {
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    values.update(figures)
    result = _verdict(workload, records)
    result["metrics"] = {
        name: metric(values[name], unit) for name, unit in END_TO_END.items()
    }
    result["lines"] = [
        "workload %s: %d ops, digest %s" % (
            workload.name, len(records), workload.digest(),
        ),
        "setup each: %s" % ", ".join("%.3f s" % s for s in setup_s),
    ] + [
        "%-18s %12.4f %s" % (name, values[name], unit)
        for name, unit in END_TO_END.items()
    ] + [
        "%-18s %12.4f %s (raw, not gated: see NOTES.md)"
        % (name, figures[name], unit) for name, unit in RAW.items()
    ] + workload.lines(records)
    return result


def per_layer(workload: Any, untraced: List[OpRecord],
              traced: List[OpRecord], tracer: Any) -> Dict[str, Any]:
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    values.update({
        name: value for name, value in tracer.layer_metrics().items()
        if name in PER_LAYER
    })
    values["machine.ref_ms"] = kernel_mean_ms(untraced)
    figures = workload.figures(untraced)
    values.update({"raw." + name: figures[name] for name in RAW})
    values["trace.overhead_ratio"] = (
        sum(r.wall_s for r in traced) / sum(r.wall_s for r in untraced)
    )
    values.update(workload.layer_figures(untraced, traced, tracer))
    result = _verdict(workload, traced)
    result["metrics"] = {
        name: metric(values[name], unit) for name, unit in PER_LAYER.items()
    }
    result["lines"] = [
        "workload %s: %d ops untraced, %d traced, digest %s" % (
            workload.name, len(untraced), len(traced), workload.digest(),
        ),
    ] + [
        "%-40s %14.4f %s" % (name, values[name], unit)
        for name, unit in PER_LAYER.items() if values[name]
    ] + ["tracing: entry point not found: %s" % name
         for name in tracer.missing]
    return result
