"""Layer spans recorded around calls into the analyzer's public functions.

The traced run wraps a fixed set of public entry points of each layer
(``Lexer.tokenize``, ``Parser.parse_file``, ``PluginModel.build``, ...)
from outside the program: the analyzer itself is not modified.  Every
call becomes a span ``(id, parent, layer, start, end)``; spans stay in
memory and are reduced once the run ends.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Work a layer does
not expose through a public call can be attributed as a *pseudo child*:
the engine's IR lowering is read from ``repro.perf.counters`` around
``TaintEngine.run`` and moved from ``engine`` to ``ir``.

Spans of the benchmark's own ``root`` layer mark the timed phase (one
per client thread); their self time is the unattributed wall.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = "root"

#: one recorded call: (id, parent id or None, layer, start, end, pseudo)
#: where ``pseudo`` is ``{layer: seconds}`` of attributed child time
Span = Tuple[int, Optional[int], str, float, float, Dict[str, float]]


def covered(interval: Tuple[float, float], children: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer self time: duration minus covered child intervals,
    minus pseudo-child time, which goes to the pseudo layer instead."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _id, parent, _layer, start, end, _pseudo in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for span_id, _parent, layer, start, end, pseudo in spans:
        own = (end - start) - covered((start, end), children.get(span_id, ()))
        for name, seconds in pseudo.items():
            own -= seconds
            totals[name] = totals.get(name, 0.0) + seconds
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


class Tracer:
    """Installs span-recording wrappers and collects their spans.

    Wrappers are installed on the classes and modules themselves, so
    they see every call from any thread of this process; each thread
    keeps its own span stack for parent links.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: per-layer values noted by ``note`` hooks (e.g. built models)
        self.notes: Dict[str, List[object]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn: Callable, args, kwargs,
             pseudo: Optional[Tuple[str, Callable[[], float]]] = None,
             note: Optional[Callable] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        before = pseudo[1]() if pseudo else 0.0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = {pseudo[0]: pseudo[1]() - before} if pseudo else {}
            self.spans.append((span_id, parent, layer, start, end, extra))
        if note is not None:
            self.notes.setdefault(layer, []).append(note(args, result))
        return result

    def span(self, layer: str = ROOT) -> "_SpanContext":
        """Context manager recording one span of ``layer``."""
        return _SpanContext(self, layer)

    # -- installation ------------------------------------------------------

    def wrap(self, owner: object, attr: str, layer: str, **hooks) -> None:
        """Route calls of ``owner.attr`` through :meth:`call`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs, **hooks)

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reduction ---------------------------------------------------------

    def layer_self_times(self) -> Dict[str, float]:
        return self_times(self.spans)

    def wall(self) -> float:
        """Summed duration of the root spans (thread-seconds)."""
        return sum(end - start for _i, _p, layer, start, end, _x in self.spans
                   if layer == ROOT)


class _SpanContext:
    def __init__(self, tracer: Tracer, layer: str) -> None:
        self.tracer = tracer
        self.layer = layer

    def __enter__(self) -> "_SpanContext":
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.id = next(self.tracer._ids)
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.id, self.parent, self.layer, self.start, end, {}))


def install_analyzer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every in-process layer."""
    from repro.batch import streaming
    from repro.core.cache import ModelCache
    from repro.core.engine import TaintEngine
    from repro.core.model import PluginModel
    from repro.core.phpsafe import PhpSafe
    from repro.core.results import JsonlFindingSink
    from repro.perf import counters
    from repro.php.lexer import Lexer
    from repro.php.parser import Parser

    tracer.wrap(Lexer, "tokenize", "lexer", note=lambda args, _r: args[0].source)
    tracer.wrap(Parser, "parse_file", "parser")
    tracer.wrap(PluginModel, "build", "model",
                note=lambda _a, model: (len(model.files), len(model.functions)))
    tracer.wrap(TaintEngine, "run", "engine",
                pseudo=("ir", lambda: counters.ir_lower_seconds))
    tracer.wrap(PhpSafe, "analyze", "results")
    for name in ("lookup", "store", "store_failure", "lookup_summary",
                 "store_summary", "lookup_ir", "store_ir"):
        tracer.wrap(ModelCache, name, "cache")
    tracer.wrap(streaming, "stream_scan", "streaming")
    tracer.wrap(JsonlFindingSink, "write_report", "streaming.sink")
