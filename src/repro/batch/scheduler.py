"""Parallel batch scanning with per-plugin crash/timeout isolation.

Per-plugin analysis is embarrassingly parallel (every plugin is an
independent file set), so the scheduler fans a corpus out over a
``ProcessPoolExecutor`` of analyzer workers.  Robustness follows the
paper's Section V.E incident taxonomy: a worker that raises, exceeds
its deadline or dies outright yields a ``FileFailure(file="<plugin>",
completed=False)`` on that plugin's report instead of aborting the
batch.

Isolation mechanics:

- *Exceptions* are caught inside the worker and returned as a failure
  report.
- *Deadlines* are enforced in the worker with a ``SIGALRM`` interval
  timer, so a runaway plugin is interrupted mid-analysis.
- *Process death* (segfault, ``os._exit``) breaks the whole pool; the
  scheduler then restarts and re-runs each unresolved plugin in its own
  single-worker pool, which pins the crash on the guilty plugin while
  every innocent one still completes.

Workers are described by a picklable :class:`ToolSpec` (not a live tool
instance) and share a persistent :class:`DiskModelCache` when a cache
directory is configured, so repeated scans never re-parse unchanged
files.  ``jobs=1`` runs the identical worker pipeline in-process — same
findings, no pool overhead.

Every plugin job, here and in the ``serve`` daemon's workers, runs
through :func:`run_job`, which returns a :class:`JobResult`; a
telemetry row is built from that result by
:meth:`PluginScanStats.from_job`.
"""

from __future__ import annotations

import functools
import importlib
import signal
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cache import ModelCache
from ..core.phpsafe import PhpSafe, PhpSafeOptions
from ..core.results import FileFailure, ToolReport, finding_signatures
from ..incidents import Incident, IncidentSeverity, IncidentStage
from ..core.tool import AnalyzerTool
from ..perf import scoped
from ..plugin import Plugin
from .diskcache import DiskModelCache
from .telemetry import PluginScanStats, ScanTelemetry


@dataclass(frozen=True)
class ToolSpec:
    """Picklable recipe for constructing an analyzer inside a worker.

    ``name`` is a registry key (``"phpsafe"``, ``"rips"``, ``"pixy"``)
    or a ``"module:qualname"`` reference to any :class:`AnalyzerTool`
    subclass with a no-argument constructor.
    """

    name: str = "phpsafe"
    options: Optional[PhpSafeOptions] = None

    def build(self, cache: Optional[ModelCache] = None) -> AnalyzerTool:
        if self.name == "phpsafe":
            return PhpSafe(options=self.options, cache=cache)
        if self.name == "rips":
            from ..baselines import RipsLike

            return RipsLike()
        if self.name == "pixy":
            from ..baselines import PixyLike

            return PixyLike()
        if ":" in self.name:
            module_name, qualname = self.name.split(":", 1)
            tool_cls = importlib.import_module(module_name)
            for part in qualname.split("."):
                tool_cls = getattr(tool_cls, part)
            return tool_cls()  # type: ignore[operator]
        raise ValueError(f"unknown tool spec {self.name!r}")

    @property
    def tool_name(self) -> str:
        """The report name of the tool this spec builds."""
        names = {"phpsafe": "phpSAFE", "rips": "RIPS", "pixy": "Pixy"}
        return names.get(self.name, self.name)

    @classmethod
    def from_tool(cls, tool: AnalyzerTool) -> Optional["ToolSpec"]:
        """Capture a live tool instance, or ``None`` when it cannot be
        reconstructed in a worker (custom profile objects)."""
        from ..baselines import PixyLike, RipsLike

        if isinstance(tool, PhpSafe):
            options = tool.options
            if options.profile_name or options.rule_packs:
                # options-driven profiles (named base + rule packs) are
                # re-resolved in the worker; reject only hand-built
                # profile objects that the options cannot reproduce
                from ..rules import resolve_profile

                expected = resolve_profile(options).name
            else:
                expected = (
                    "wordpress" if options.wordpress_config else "generic-php"
                )
            if tool.profile.name != expected:
                return None
            return cls(name="phpsafe", options=options)
        if isinstance(tool, RipsLike):
            return cls(name="rips") if tool.profile.name == "rips" else None
        if isinstance(tool, PixyLike):
            return cls(name="pixy") if tool.profile.name == "pixy-2007" else None
        return None


@dataclass
class BatchOptions:
    """Knobs of one batch scan."""

    #: worker processes; 1 = run the worker pipeline in-process
    jobs: int = 1
    #: per-plugin deadline in seconds (None = no deadline)
    timeout: Optional[float] = None
    #: persistent parse-cache directory (None = per-process memory cache)
    cache_dir: Optional[str] = None


def build_tool(spec: ToolSpec, cache_dir: Optional[str]) -> AnalyzerTool:
    """The analyzer a worker runs: a :class:`DiskModelCache` over
    ``cache_dir`` when given, else a memory cache for phpSAFE (the
    baselines have no cache)."""
    cache: Optional[ModelCache] = None
    if cache_dir:
        cache = DiskModelCache(cache_dir)
    elif spec.name == "phpsafe":
        cache = ModelCache()
    return spec.build(cache=cache)


# -- the job runner ----------------------------------------------------------


class _ScanDeadline(BaseException):
    """Raised inside a worker when the per-plugin deadline fires.

    Derives from ``BaseException`` so the fault-tolerant pipeline's
    per-unit ``except Exception`` boundaries cannot swallow the alarm —
    the deadline must abort the whole plugin scan, not degrade to a
    recovered unit incident.
    """


def _failure_report(tool_name: str, plugin_slug: str, reason: str) -> ToolReport:
    report = ToolReport(tool=tool_name, plugin=plugin_slug)
    report.failures.append(
        FileFailure(file="<plugin>", reason=reason, completed=False)
    )
    report.incidents.append(
        Incident(
            stage=IncidentStage.ANALYSIS,
            severity=IncidentSeverity.FATAL,
            file="<plugin>",
            reason=reason,
            recovered=False,
        )
    )
    return report


@dataclass
class JobResult:
    """What one plugin job hands back (see :func:`run_job`)."""

    report: ToolReport
    #: "ok" | "timeout" | "error" | "crashed"
    outcome: str = "ok"
    #: the job's share of the tool's cache counts, keyed as
    #: :meth:`ModelCache.counts` (a fresh cache counts nothing)
    cache: Dict[str, int] = field(default_factory=lambda: ModelCache().counts())
    #: the new per-file digest manifest of an incremental job (None on
    #: failure, for plain scans and for tools without a rescan path)
    manifest: Optional[Dict[str, object]] = None
    #: rescan stats (:meth:`RescanStats.to_dict`); empty for plain scans
    rescan: Dict[str, object] = field(default_factory=dict)


def run_job(
    tool: AnalyzerTool,
    plugin: Plugin,
    manifest: Optional[Dict[str, object]] = None,
    incremental: bool = False,
) -> JobResult:
    """Analyze one plugin, isolating failures.

    ``incremental`` runs the tool's diff-aware :meth:`~PhpSafe.rescan`
    against ``manifest`` (``None`` forces a full tracked scan that
    still yields a manifest for the next submission); tools without a
    rescan path, and every plain batch job, run ``analyze``.  An
    exception or a fired deadline becomes a failure report.  The
    report's ``perf`` is the tool's own when it set one, else the
    counters measured around the call.
    """
    cache = getattr(tool, "cache", None)
    if cache is None:
        cache = ModelCache()  # an uncached tool counts nothing
    before = cache.counts()
    outcome = "ok"
    new_manifest: Optional[Dict[str, object]] = None
    rescan: Dict[str, object] = {}
    start = time.perf_counter()
    with scoped() as scope:
        try:
            if incremental and hasattr(tool, "rescan"):
                report, new_manifest, stats = tool.rescan(plugin, manifest)
                rescan = stats.to_dict()
            else:
                report = tool.analyze(plugin)
        except _ScanDeadline as deadline:
            outcome = "timeout"
            report = _failure_report(tool.name, plugin.slug, str(deadline))
        except Exception as error:
            outcome = "error"
            report = _failure_report(
                tool.name, plugin.slug, f"worker exception: {error!r}"
            )
    report.seconds = time.perf_counter() - start
    report.perf = report.perf or scope.report()
    # the reviewer variable dump is large and holds analysis-internal
    # objects; don't ship it over the result pickle channel
    report.variables = {}
    after = cache.counts()
    delta = {key: after[key] - before[key] for key in after}
    return JobResult(report, outcome, delta, new_manifest, rescan)


# -- worker side (runs in the child processes) ------------------------------

_worker_tool: Optional[AnalyzerTool] = None
_worker_timeout: Optional[float] = None


def _on_alarm(signum, frame):  # pragma: no cover - fires asynchronously
    raise _ScanDeadline(f"scan deadline of {_worker_timeout:g}s exceeded")


def _init_worker(spec: ToolSpec, options: BatchOptions) -> None:
    """Pool initializer: build the tool once per worker process."""
    global _worker_tool, _worker_timeout
    _worker_tool = build_tool(spec, options.cache_dir)
    _worker_timeout = options.timeout
    signal.signal(signal.SIGALRM, _on_alarm)


#: a job as it crosses the process boundary: plugin name, version and
#: files, the prior manifest, and whether to rescan incrementally
_Payload = Tuple[str, str, Dict[str, str], Optional[Dict[str, object]], bool]


def _payload(
    plugin: Plugin,
    manifest: Optional[Dict[str, object]] = None,
    incremental: bool = False,
) -> _Payload:
    return plugin.name, plugin.version, dict(plugin.files), manifest, incremental


def _run_payload(payload: _Payload) -> JobResult:
    """Process-pool entry point: :func:`run_job` under the SIGALRM
    deadline, which interrupts a runaway plugin mid-analysis."""
    name, version, files, manifest, incremental = payload
    assert _worker_tool is not None, "worker used before initialization"
    plugin = Plugin(name=name, version=version, files=files)
    if _worker_timeout:
        signal.setitimer(signal.ITIMER_REAL, _worker_timeout)
    try:
        return run_job(_worker_tool, plugin, manifest, incremental)
    finally:
        if _worker_timeout:
            signal.setitimer(signal.ITIMER_REAL, 0)


# -- scheduler side ---------------------------------------------------------


@dataclass
class BatchResult:
    """Reports (in input order) plus the run's telemetry."""

    reports: List[ToolReport]
    telemetry: ScanTelemetry

    def merged_report(self) -> Optional[ToolReport]:
        """Whole-corpus totals (plugin-scoped finding dedup)."""
        if not self.reports:
            return None
        return functools.reduce(ToolReport.merged, self.reports)

    def finding_signatures(self):
        """Canonical finding-signature set of the whole batch — the
        value the differential harness compares across configurations
        (see :func:`repro.core.results.finding_signatures`)."""
        return finding_signatures(self.reports)


class BatchScanner:
    """Fans per-plugin analysis out over worker processes."""

    def __init__(
        self,
        spec: Optional[ToolSpec] = None,
        options: Optional[BatchOptions] = None,
    ) -> None:
        self.spec = spec or ToolSpec()
        self.options = options or BatchOptions()

    def scan(self, plugins: Sequence[Plugin]) -> BatchResult:
        plugins = list(plugins)
        telemetry = ScanTelemetry(jobs=max(1, self.options.jobs))
        start = time.perf_counter()
        if self.options.jobs <= 1:
            results = self._scan_in_process(plugins)
        else:
            results = self._scan_parallel(plugins, telemetry)
        telemetry.wall_seconds = time.perf_counter() - start
        for result in results:
            telemetry.record(PluginScanStats.from_job(result))
        return BatchResult(
            reports=[result.report for result in results], telemetry=telemetry
        )

    # -- serial path -------------------------------------------------------

    def _scan_in_process(self, plugins: Sequence[Plugin]) -> List[JobResult]:
        """``jobs=1``: the identical worker pipeline, no pool."""
        _init_worker(self.spec, self.options)
        return [_run_payload(_payload(plugin)) for plugin in plugins]

    # -- parallel path -----------------------------------------------------

    def _scan_parallel(
        self, plugins: Sequence[Plugin], telemetry: ScanTelemetry
    ) -> List[JobResult]:
        results: Dict[int, JobResult] = {}
        unresolved = set(range(len(plugins)))
        pool_broken = False
        with ProcessPoolExecutor(
            max_workers=self.options.jobs,
            initializer=_init_worker,
            initargs=(self.spec, self.options),
        ) as executor:
            futures = {
                executor.submit(_run_payload, _payload(plugins[index])): index
                for index in sorted(unresolved)
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    results[index] = future.result()
                except (BrokenProcessPool, CancelledError):
                    # a worker died; which task killed it is unknown yet
                    pool_broken = True
                    continue
                except Exception as error:  # pragma: no cover - defensive
                    results[index] = crash_result(
                        self.spec, plugins[index], f"scheduler error: {error!r}"
                    )
                unresolved.discard(index)
        if pool_broken:
            telemetry.worker_restarts += 1
            self._isolate(plugins, sorted(unresolved), results, telemetry)
        return [results[index] for index in range(len(plugins))]

    def _isolate(
        self,
        plugins: Sequence[Plugin],
        indexes: Sequence[int],
        results: Dict[int, JobResult],
        telemetry: ScanTelemetry,
    ) -> None:
        """Re-run each unresolved plugin in its own single-worker pool so
        the crasher is identified and every innocent plugin completes."""
        for index in indexes:
            with ProcessPoolExecutor(
                max_workers=1,
                initializer=_init_worker,
                initargs=(self.spec, self.options),
            ) as solo:
                try:
                    results[index] = solo.submit(
                        _run_payload, _payload(plugins[index])
                    ).result()
                except (BrokenProcessPool, CancelledError):
                    telemetry.worker_restarts += 1
                    results[index] = crash_result(
                        self.spec, plugins[index], "worker process died during analysis"
                    )


def crash_result(spec: ToolSpec, plugin: Plugin, reason: str) -> JobResult:
    """The result of a job whose worker process died (or whose result
    never came back): nothing was measured."""
    report = _failure_report(spec.tool_name, plugin.slug, reason)
    return JobResult(report=report, outcome="crashed")


def scan_corpus(
    plugins: Sequence[Plugin],
    jobs: int = 1,
    timeout: Optional[float] = None,
    cache_dir: Optional[str] = None,
    spec: Optional[ToolSpec] = None,
) -> BatchResult:
    """One-call batch scan of a plugin corpus."""
    scanner = BatchScanner(
        spec=spec,
        options=BatchOptions(jobs=jobs, timeout=timeout, cache_dir=cache_dir),
    )
    return scanner.scan(plugins)
