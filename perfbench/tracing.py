"""Outside-in per-layer tracing: timed wrappers around public functions.

The traced run swaps each layer's public entry points (functions and
methods named in :data:`TARGETS`) for wrappers that record a span —
layer, start, end, parent — and restores the originals afterwards.
Nothing inside ``src/`` changes: the wrappers live here and are
installed by attribute assignment, so the untraced run executes exactly
the program's own code.

A span's *self time* is its duration minus the time its child spans
cover.  Calls are counted at the outermost span of a layer (an encode
that re-enters the encoder through a memoized sub-encoding is one
call), and bytes where the layer moves bytes.  Spans are kept in memory
with parent links for the first few ops and written out when the run
ends; every op is folded into per-op aggregates.

Module-level functions are imported by name all over the program
(``from repro.crypto.canonical import canonical_encode``), so wrapping
one means replacing every module attribute that refers to it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.common import median, percentile

_perf = time.perf_counter


def _len_result(args: tuple, result: Any) -> int:
    return len(result)


def _len_arg(position: int) -> Callable[[tuple, Any], int]:
    def size(args: tuple, result: Any) -> int:
        return len(args[position])
    return size


def _batch_items(stats: "LayerStats", args: tuple, result: Any) -> None:
    stats.items += len(args[0])


def _cache_lookup(stats: "LayerStats", args: tuple, result: Any) -> None:
    if result is not None:
        stats.hits += 1


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``kind`` is ``"function"`` (every module reference is replaced),
    ``"method"`` or ``"classmethod"`` (the class attribute is replaced).
    """

    layer: str
    module: str
    name: str
    kind: str = "function"
    owner: Optional[str] = None
    size: Optional[Callable[[tuple, Any], int]] = None
    count: Optional[Callable[["LayerStats", tuple, Any], None]] = None


#: The layer map: which public entry points make up which layer.
TARGETS: Tuple[Target, ...] = (
    Target("crypto.encode", "repro.crypto.canonical", "canonical_encode",
           size=_len_result),
    Target("crypto.encode", "repro.crypto.canonical", "encode",
           kind="method", owner="CanonicalEncoder", size=_len_result),
    Target("crypto.decode", "repro.crypto.canonical", "canonical_decode",
           size=_len_arg(0)),
    Target("crypto.decode", "repro.crypto.canonical", "decode",
           kind="method", owner="CanonicalDecoder", size=_len_arg(1)),
    Target("agents.copy", "repro.agents.state", "snapshot",
           kind="method", owner="DataState"),
    Target("agents.copy", "repro.agents.state", "snapshot",
           kind="method", owner="ExecutionState"),
    Target("agents.copy", "repro.agents.state", "capture",
           kind="classmethod", owner="AgentState"),
    Target("agents.copy", "repro.agents.state", "restore",
           kind="method", owner="AgentState"),
    Target("crypto.hash", "repro.crypto.hashing", "hash_bytes",
           size=_len_arg(0)),
    Target("crypto.hash", "repro.crypto.hashing", "hash_value"),
    Target("crypto.sign", "repro.crypto.dsa", "sign",
           kind="method", owner="DSAPrivateKey"),
    Target("crypto.sign", "repro.crypto.dsa", "sign_recoverable",
           kind="method", owner="DSAPrivateKey"),
    Target("crypto.verify", "repro.crypto.dsa", "verify",
           kind="method", owner="DSAPublicKey"),
    Target("crypto.verify", "repro.crypto.dsa", "verify_recoverable",
           kind="method", owner="DSAPublicKey"),
    Target("crypto.batch_verify", "repro.crypto.dsa", "batch_verify",
           count=_batch_items),
    Target("crypto.find_invalid", "repro.crypto.dsa", "find_invalid"),
    Target("agents.reexecute", "repro.agents.replay", "re_execute",
           kind="method", owner="ReExecutor"),
    Target("core.protocol", "repro.core.protocol", "on_arrival",
           kind="method", owner="ReferenceStateProtocol"),
    Target("core.protocol", "repro.core.protocol", "after_session",
           kind="method", owner="ReferenceStateProtocol"),
    Target("core.protocol", "repro.core.protocol", "after_task",
           kind="method", owner="ReferenceStateProtocol"),
    Target("core.protocol", "repro.core.protocol", "check_session_payload"),
    Target("platform.hop", "repro.platform.registry", "step",
           kind="method", owner="JourneyRunner"),
    Target("sim.trace.emit", "repro.sim.trace", "emit",
           kind="method", owner="TraceWriter"),
    Target("service.wire", "repro.service.wire", "encode_frame",
           size=_len_result),
    Target("service.wire", "repro.service.wire", "decode_body",
           size=_len_arg(0)),
    Target("service.batch", "repro.service.batching", "flush",
           kind="method", owner="MicroBatcher"),
    Target("service.cache", "repro.service.cache", "get",
           kind="method", owner="VerdictCache", count=_cache_lookup),
)

#: Layers in report order (each appears once).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))


class LayerStats:
    """Per-op accumulators of one layer."""

    __slots__ = ("calls", "bytes", "self_s", "items", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.bytes = 0
        self.self_s = 0.0
        self.items = 0
        self.hits = 0


class _Frame:
    __slots__ = ("layer", "child_s", "span", "sized")

    def __init__(self, layer: str, span: int, sized: bool) -> None:
        self.layer = layer
        self.child_s = 0.0
        self.span = span
        self.sized = sized


#: Ops whose raw spans are kept for :meth:`Tracer.write_spans`; later
#: ops only feed the aggregates, which bounds memory on long runs.
KEEP_OPS = 2


class Tracer:
    """Span recorder plus the patch/restore machinery for :data:`TARGETS`."""

    def __init__(self) -> None:
        self._stack: List[_Frame] = []
        self._current: Dict[str, LayerStats] = {}
        self._top_s = 0.0
        self._op_index = -1
        self._keep = False
        self.spans: List[Tuple[int, str, float, float, int]] = []
        #: Per-layer lists of per-op values (one entry per finished op).
        self.history: Dict[str, Dict[str, List[float]]] = {}
        self.unattributed: List[float] = []
        self.batch_waits_s: List[float] = []
        self.batch_sizes: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Targets not found in the program (see :meth:`install`).
        self.missing: List[str] = []

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self._current = {layer: LayerStats() for layer in LAYERS}
        self._top_s = 0.0
        self._op_index = index
        self._keep = index < KEEP_OPS

    def end_op(self, wall_s: float) -> None:
        """Fold the finished op into the history.

        Calls between ``end_op`` and the next ``begin_op`` (the
        benchmark's own checks and digests) are neither counted nor kept.
        """
        for layer, stats in self._current.items():
            entry = self.history.setdefault(layer, {
                "calls": [], "bytes": [], "self_ms": [], "items": [],
                "hits": [],
            })
            entry["calls"].append(stats.calls)
            entry["bytes"].append(stats.bytes)
            entry["self_ms"].append(1e3 * stats.self_s)
            entry["items"].append(stats.items)
            entry["hits"].append(stats.hits)
        if wall_s > 0:
            self.unattributed.append(max(0.0, 1.0 - self._top_s / wall_s))
        self._current = {}
        self._keep = False

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        layer = target.layer
        size = target.size
        count = target.count

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            parent = stack[-1] if stack else None
            outermost = parent is None or parent.layer != layer
            # Bytes are counted once per layer nesting: by the first
            # span down the chain whose entry point moves bytes.
            sized_above = not outermost and parent.sized
            span = -1
            if tracer._keep:
                span = len(tracer.spans)
                tracer.spans.append((
                    tracer._op_index, layer, 0.0, 0.0,
                    parent.span if parent is not None else -1,
                ))
            frame = _Frame(layer, span, sized_above or size is not None)
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                stats = tracer._current.get(layer)
                if stats is not None:
                    stats.self_s += duration - frame.child_s
                    if outermost:
                        stats.calls += 1
                if parent is not None:
                    parent.child_s += duration
                else:
                    tracer._top_s += duration
                if span >= 0:
                    tracer.spans[span] = (
                        tracer._op_index, layer, start, end,
                        tracer.spans[span][4],
                    )
            if stats is not None:
                if size is not None and not sized_above:
                    stats.bytes += size(args, result)
                if count is not None:
                    count(stats, args, result)
            return result

        return wrapper

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        """Replace every target with its wrapper (idempotent per tracer).

        A target the program no longer has is listed in ``missing``
        (and reported) rather than failing the run: a refactor that
        renames an entry point should show up as a gap in the layer
        map, not as a benchmark crash.
        """
        if self._patches:
            return
        for target in TARGETS:
            module = importlib.import_module(target.module)
            holder = module if target.kind == "function" else getattr(
                module, target.owner, None
            )
            if holder is None or target.name not in vars(holder):
                self.missing.append("%s.%s" % (
                    target.owner or target.module, target.name,
                ))
                continue
            if target.kind == "function":
                original = getattr(module, target.name)
                wrapper = self._wrap(target, original)
                for holder in list(sys.modules.values()):
                    namespace = getattr(holder, "__dict__", None)
                    if not isinstance(namespace, dict):
                        continue
                    for attr, value in list(namespace.items()):
                        if value is original:
                            self._patches.append((holder, attr, value))
                            setattr(holder, attr, wrapper)
                continue
            owner = getattr(module, target.owner)
            original = owner.__dict__[target.name]
            if target.kind == "classmethod":
                replacement: Any = classmethod(
                    self._wrap(target, original.__func__)
                )
            else:
                replacement = self._wrap(target, original)
            self._patches.append((owner, target.name, original))
            setattr(owner, target.name, replacement)
        self._install_batch_wait()

    def _install_batch_wait(self) -> None:
        """Time ``MicroBatcher.submit`` → settle (an async wait, not a span)."""
        from repro.service.batching import MicroBatcher

        original = MicroBatcher.__dict__["submit"]
        tracer = self

        @functools.wraps(original)
        def submit(batcher: Any, *args: Any, **kwargs: Any) -> Any:
            started = _perf()
            future = original(batcher, *args, **kwargs)

            def settled(done: Any) -> None:
                if done.cancelled() or done.exception() is not None:
                    return
                tracer.batch_waits_s.append(_perf() - started)
                tracer.batch_sizes.append(done.result().batch_size)

            future.add_done_callback(settled)
            return future

        self._patches.append((MicroBatcher, "submit", original))
        MicroBatcher.submit = submit

    def restore(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-op means of calls, bytes and self time (ms)."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            entry = self.history.get(layer)
            if not entry or not entry["calls"]:
                continue
            ops = len(entry["calls"])
            out[layer + ".calls"] = sum(entry["calls"]) / ops
            out[layer + ".bytes"] = sum(entry["bytes"]) / ops
            out[layer + ".self_ms"] = sum(entry["self_ms"]) / ops
            out[layer + ".items"] = sum(entry["items"]) / ops
            calls = sum(entry["calls"])
            out[layer + ".hit_ratio"] = (
                sum(entry["hits"]) / calls if calls else 0.0
            )
        out["trace.unattributed_share"] = median(self.unattributed)
        waits = [1e3 * w for w in self.batch_waits_s]
        out["service.batch.wait_ms_p50"] = percentile(waits, 0.5)
        out["service.batch.size_mean"] = (
            sum(self.batch_sizes) / len(self.batch_sizes)
            if self.batch_sizes else 0.0
        )
        return out

    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (op, layer, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "span": index, "op": op, "layer": layer,
                    "start_us": round(1e6 * start, 1),
                    "dur_us": round(1e6 * (end - start), 1),
                    "parent": parent,
                }) + "\n")
        return len(self.spans)
