"""Memory-bounded streaming evaluation (ROADMAP item 5).

The classic batch path materializes every plugin, accumulates one
:class:`~repro.core.results.ToolReport` per plugin, and merges them at
the end — three unbounded growth axes that cap the scanner far below
million-LOC corpora.  :func:`stream_scan` removes all three:

- **corpus**: plugins are consumed from an *iterator* (lazily
  generated or loaded), at most one alive at a time;
- **artifacts**: the parse/summary cache is byte-capped
  (``max_cache_bytes``) and each plugin's file models are eagerly
  spilled the moment its analysis completes — huge models never wait
  for LRU pressure (file models never hold token lists: the token
  stream is dropped at parse time);
- **results**: findings stream to an on-disk JSONL sink
  (:class:`~repro.core.results.JsonlFindingSink`) and the report is
  dropped; SARIF export and telemetry read the stream back
  plugin-at-a-time via :func:`~repro.core.results.stream_reports`.

Soundness: every cache tier is content-addressed, so eviction/spill can
only cost recomputation, never change a result — the streaming-vs-
accumulating parity test (identical finding signatures at scale 0.25)
enforces this, and ``BENCH_scale.json`` records the RSS bound it buys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..core.cache import ModelCache, content_key
from ..core.phpsafe import PhpSafe, PhpSafeOptions
from ..core.results import JsonlFindingSink
from ..plugin import Plugin

#: default in-memory artifact budget for streaming scans (64 MB keeps a
#: working set of warm models while staying far below any tier's RSS
#: contract; raise it to trade memory for fewer re-parses)
DEFAULT_MAX_CACHE_BYTES = 64 * 1024 * 1024


def streaming_options(base: Optional[PhpSafeOptions] = None) -> PhpSafeOptions:
    """Options for a streaming scan: ``base``, or the defaults.
    Streaming needs no option of its own."""
    # kept because the benchmark calls it (perfbench/workloads.py:285)
    return base or PhpSafeOptions()


@dataclass
class StreamingSummary:
    """Running totals of one streaming scan — O(1) memory by design.

    This is deliberately *not* a :class:`ScanTelemetry`: per-plugin
    telemetry rows would re-introduce linear growth in corpus size.
    """

    sink_path: str = ""
    plugins: int = 0
    files: int = 0
    loc: int = 0
    findings: int = 0
    failures: int = 0
    incidents: int = 0
    files_skipped: int = 0
    loc_skipped: int = 0
    seconds: float = 0.0
    #: estimated bytes released by eager per-plugin spills
    spilled_bytes: int = 0
    #: high-water mark of the artifact cache's estimated bytes
    peak_cache_bytes: int = 0
    #: final cache occupancy snapshot (:meth:`ModelCache.occupancy`)
    cache: Dict[str, object] = field(default_factory=dict)

    @property
    def loc_per_second(self) -> float:
        return self.loc / self.seconds if self.seconds else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "sink_path": self.sink_path,
            "plugins": self.plugins,
            "files": self.files,
            "loc": self.loc,
            "findings": self.findings,
            "failures": self.failures,
            "incidents": self.incidents,
            "files_skipped": self.files_skipped,
            "loc_skipped": self.loc_skipped,
            "seconds": round(self.seconds, 6),
            "loc_per_second": round(self.loc_per_second, 1),
            "spilled_bytes": self.spilled_bytes,
            "peak_cache_bytes": self.peak_cache_bytes,
            "cache": dict(self.cache),
        }


def stream_scan(
    plugins: Iterable[Plugin],
    sink_path: str,
    options: Optional[PhpSafeOptions] = None,
    max_cache_bytes: int = DEFAULT_MAX_CACHE_BYTES,
    max_cache_entries: int = 4096,
    cache: Optional[ModelCache] = None,
) -> StreamingSummary:
    """Scan ``plugins`` one at a time, streaming findings to
    ``sink_path``; returns the run's :class:`StreamingSummary`.

    ``plugins`` may be any iterable — pass a generator to keep the
    corpus itself out of memory.  ``options`` defaults to
    :class:`~repro.core.phpsafe.PhpSafeOptions`; an explicit options
    object is honoured as-is so harnesses control every analysis knob.
    ``cache`` overrides the default byte-capped in-memory cache (e.g.
    with a :class:`~repro.batch.diskcache.DiskModelCache` so spilled
    artifacts demote to disk instead of vanishing).
    """
    if options is None:
        options = PhpSafeOptions()
    if cache is None:
        cache = ModelCache(
            max_entries=max_cache_entries, max_bytes=max_cache_bytes
        )
    tool = PhpSafe(options=options, cache=cache, use_process_cache=False)
    variant = "recover" if options.recover else ""

    summary = StreamingSummary(sink_path=sink_path)
    started = time.perf_counter()
    with JsonlFindingSink(sink_path, tool=tool.name) as sink:
        for plugin in plugins:
            report = tool.analyze(plugin)
            # the reviewer variable dump is the report's heaviest field
            # and has no streaming consumer — drop it before accounting
            report.variables.clear()
            sink.write_report(report)
            summary.plugins += 1
            summary.files += report.files_analyzed
            summary.loc += report.loc_analyzed
            summary.findings += len(report.findings)
            summary.failures += len(report.failures)
            summary.incidents += len(report.incidents)
            summary.files_skipped += report.files_skipped
            summary.loc_skipped += report.loc_skipped
            summary.peak_cache_bytes = max(
                summary.peak_cache_bytes, cache.current_bytes
            )
            # eager spill: this plugin's file models are dead weight now
            summary.spilled_bytes += cache.spill(
                content_key(path, source, variant)
                for path, source in plugin.iter_files()
            )
    summary.seconds = time.perf_counter() - started
    summary.cache = cache.occupancy()
    return summary
