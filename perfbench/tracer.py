"""Outside-in tracer for the econocast package.

The tracer wraps the public functions (each module's ``__all__``) of the
traced layers and rebinds every name in every loaded ``econocast.*`` module
that refers to the original object. Rebinding only ``econocast.mlp.train``
would miss ``ensemble``, ``search`` and ``cli``, which do
``from .mlp import train``; calls made through such a name would then vanish
from the trace and read as a low self time instead of failing.

Spans stay in memory while the tracer runs. Self time is a span's duration
minus the durations of its direct children; calls are single-threaded and
strictly nested, so the children never overlap. Probes (counters and
distinct-work keys) run in their own ``trace.probe`` span, so their cost is
charged to no layer.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence

LAYERS = ("cli", "timeseries", "preprocess", "mlp", "metrics", "lagscan", "search", "ensemble")
PROBE_SPAN = "trace.probe"
DUMP_FIELDS = ["name", "parent", "op", "start", "end", "counts"]


def _sha1(*chunks: bytes) -> str:
    h = hashlib.sha1()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def tree_bytes(path: str) -> int:
    """Total size of the regular files under ``path`` (0 if it is absent)."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# Each probe receives the bound arguments, the result (None on an exception)
# and the exception, and returns (counter increments, distinct-work key).


def _probe_train(args, result, exc):
    counts = {"updates": args["config"].max_epochs * args["matrix"].rows}
    if exc is not None and type(exc).__name__ == "TrainingDiverged":
        counts["diverged"] = 1
    return counts, None


def _probe_predict(args, result, exc):
    net, matrix = args["expert"].network, args["matrix"]
    arrays = [a.tobytes() for a in (*net.weights, *net.biases)]
    return {}, _sha1(*arrays, f"{matrix.start}|{matrix.rows}".encode())


def _probe_assemble(args, result, exc):
    spec = (
        tuple(args["features"]),
        args["target_name"],
        args["target_transform"],
        args["first"],
        args["last"],
    )
    return {}, _sha1(repr(spec).encode())


def _probe_signals(args, result, exc):
    series = args["predicted"]
    return {}, _sha1(str(series.start).encode(), series.values.tobytes())


def _probe_parse_csv(args, result, exc):
    return {"bytes": len(args["text"].encode("utf-8"))}, None


def _probe_curves_csv(args, result, exc):
    return {"bytes": 0 if result is None else len(result.encode("utf-8"))}, None


def _probe_save_ensemble(args, result, exc):
    return {"bytes": tree_bytes(args["directory"])}, None


PROBES: Dict[str, Callable] = {
    "mlp.train": _probe_train,
    "mlp.predict": _probe_predict,
    "preprocess.assemble": _probe_assemble,
    "metrics.signals_from_prediction": _probe_signals,
    "timeseries.parse_csv": _probe_parse_csv,
    "lagscan.scan_curves_csv": _probe_curves_csv,
    "ensemble.save_ensemble": _probe_save_ensemble,
}


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "key", "counts")

    def __init__(self, name: str, parent: int, op: int, start: float):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        self.key = None
        self.counts = None



class Tracer:
    """Context manager: wraps on enter, restores every rebound name on exit.

    Use ``with tracer.op(): ...`` around each operation.
    """

    def __init__(
        self,
        package: str = "econocast",
        layers: Sequence[str] = LAYERS,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.package = package
        self.layers = tuple(layers)
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = -1
        self._patches: List[tuple] = []

    # -- installation -----------------------------------------------------

    def _loaded_modules(self):
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def targets(self) -> Dict[str, Callable]:
        """Qualified name -> original function for every traced public function."""
        out = {}
        for layer in self.layers:
            module = sys.modules[f"{self.package}.{layer}"]
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    out[f"{layer}.{attr}"] = obj
        return out

    def __enter__(self) -> "Tracer":
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.targets().items()}
        try:
            for module in self._loaded_modules():
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None and wrapper.__wrapped__ is value:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self._op, self.clock())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        probe = PROBES.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self._close(span)
                if probe is not None:
                    probe_span = self._open(PROBE_SPAN)
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts, span.key = probe(bound.arguments, result, error)
                    self._close(probe_span)

        return wrapper

    @contextlib.contextmanager
    def op(self):
        """Root span ``op`` around one operation; its spans share its op id."""
        self._op += 1
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)

    # -- reduction --------------------------------------------------------

    def per_op(self) -> List[Dict[str, Dict[str, float]]]:
        """For each op: name -> {self_s, calls, distinct, <counters>}."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        ops: Dict[int, Dict[str, Dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: defaultdict(float))
        )
        keys: Dict[tuple, set] = defaultdict(set)
        for i, span in enumerate(self.spans):
            stats = ops[span.op][span.name]
            stats["self_s"] += span.end - span.start - child_time[i]
            stats["calls"] += 1
            for counter, value in (span.counts or {}).items():
                stats[counter] += value
            if span.key is not None:
                keys[(span.op, span.name)].add(span.key)
        for (op, name), seen in keys.items():
            ops[op][name]["distinct"] = len(seen)
        return [ops[i] for i in sorted(ops)]

    def dump(self) -> dict:
        """Spans as rows of DUMP_FIELDS; parent is a row index, -1 for none."""
        rows = [[getattr(span, f) for f in DUMP_FIELDS] for span in self.spans]
        return {"fields": DUMP_FIELDS, "rows": rows}


def median_of(per_op: List[Dict[str, Dict[str, float]]], name: str, stat: str) -> float:
    """Median over ops of one statistic; an op that never called ``name`` reads 0."""
    return float(statistics.median(op[name][stat] if name in op else 0.0 for op in per_op))
