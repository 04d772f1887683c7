"""The phpSAFE facade: the paper's single ``PHP-SAFE`` class.

"Since phpSAFE is developed in OOP, its functions become accessible
through the instantiation of a single PHP class called PHP-SAFE, which
receives as input the PHP file to be analyzed and delivers the results
in the properties of the object instantiated from the PHP-SAFE class."
(Section III) — this module is that class, in Python: construct a
:class:`PhpSafe` (optionally customizing the profile or feature flags),
call :meth:`analyze` on a plugin or :meth:`analyze_source` on a single
file, read the findings off the returned report.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from ..config.profiles import AnalyzerProfile, generic_php, wordpress
from ..incidents import Incident, IncidentSeverity, IncidentStage
from ..perf import counters, derive
from ..plugin import Plugin
from .cache import ModelCache, summary_key
from .engine import EngineOptions, TaintEngine, summary_is_valid
from .model import PluginModel
from .results import FileFailure, Finding, ToolReport
from .tool import AnalyzerTool


@dataclass
class PhpSafeOptions:
    """Feature flags — also the ablation knobs of experiment A1."""

    #: Load the WordPress-specific configuration (sources/filters/sinks
    #: and known instances like ``$wpdb``) on top of generic PHP.
    wordpress_config: bool = True
    #: Named base profile (``wordpress``, ``drupal``, ``joomla``,
    #: ``generic``); ``None`` keeps the legacy ``wordpress_config``
    #: switch semantics.  Resolved through ``repro.rules``.
    profile_name: Optional[str] = None
    #: Rule packs layered onto the base profile: shipped pack names
    #: (``ssrf``) or filesystem paths.  Pack content hashes flow into
    #: the profile fingerprint, hence into every cache key.
    rule_packs: Tuple[str, ...] = ()
    #: Parse OOP constructs: properties, methods, ``new``, ``$this``.
    oop: bool = True
    #: Analyze functions never called from plugin code (entry points).
    analyze_uncalled: bool = True
    #: Memoize function summaries (parse each function only once).
    use_summaries: bool = True
    #: Cumulative include-closure budget per file, in source bytes;
    #: reproduces the paper's memory-exhaustion failures (Section V.E).
    include_budget: int = 120_000
    #: Fault-tolerant pipeline (Section V.E): panic-mode lexer/parser
    #: recovery plus per-unit engine isolation.  ``False`` (the CLI's
    #: ``--strict``) reproduces the historical all-or-nothing behaviour.
    recover: bool = True
    #: Per-file wall-clock deadline, in seconds, for the serial path
    #: (the batch path gets its timeout from SIGALRM).  Only honoured
    #: with ``recover=True``; overrides ``engine.unit_deadline``.
    file_deadline: Optional[float] = None
    engine: EngineOptions = field(default_factory=EngineOptions)


#: Process-wide L1 artifact cache: parse models and function summaries,
#: shared by every tool constructed without an explicit cache
#: (the ``re`` module's compiled-pattern cache is the model).  Safe to
#: share because every tier is content-addressed — model slots key on
#: path + source digest + parse variant, and summary slots embed the
#: analyzer-configuration fingerprint — so two tools can only ever hit
#: the same slot when they would have computed the identical artifact.
#: Created lazily so importing the module costs nothing; bounded LRU so
#: long-lived processes (serve daemons, fleet workers) cannot grow it
#: without limit.
_PROCESS_CACHE: Optional[ModelCache] = None
_PROCESS_CACHE_ENTRIES = 512
#: Byte ceiling for the shared cache.  Entry counts alone are a poor
#: bound — 512 slots of multi-MB FileModels is gigabytes — so the cache
#: also evicts by approximate heap bytes, whichever cap trips first.
#: 256 MB keeps a warm fleet worker's artifact set resident while
#: guaranteeing long-lived daemons cannot leak models across jobs.
_PROCESS_CACHE_MAX_BYTES = 256 * 1024 * 1024


def process_cache() -> ModelCache:
    """The shared per-process artifact cache (created on first use)."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = ModelCache(
            max_entries=_PROCESS_CACHE_ENTRIES,
            max_bytes=_PROCESS_CACHE_MAX_BYTES,
        )
    return _PROCESS_CACHE


def process_cache_occupancy() -> Dict[str, object]:
    """Occupancy snapshot of the process cache for telemetry.

    Returns the cache's entry/byte usage against both caps without
    forcing the cache into existence — an untouched process reports
    zero occupancy.
    """
    if _PROCESS_CACHE is None:
        return {
            "entries": 0,
            "max_entries": _PROCESS_CACHE_ENTRIES,
            "bytes": 0,
            "max_bytes": _PROCESS_CACHE_MAX_BYTES,
            "evictions": 0,
            "byte_evictions": 0,
            "oversized": 0,
        }
    return _PROCESS_CACHE.occupancy()


class PhpSafe(AnalyzerTool):
    """phpSAFE: OOP-aware XSS/SQLi static analyzer for PHP plugins."""

    name = "phpSAFE"

    def __init__(
        self,
        profile: Optional[AnalyzerProfile] = None,
        options: Optional[PhpSafeOptions] = None,
        cache: Optional[ModelCache] = None,
        cache_dir: Optional[str] = None,
        use_process_cache: bool = True,
    ) -> None:
        self.options = options or PhpSafeOptions()
        if cache is None and cache_dir is not None:
            # late import: the batch subsystem builds on top of core
            from ..batch.diskcache import DiskModelCache

            cache = DiskModelCache(cache_dir)
        if cache is None and use_process_cache:
            cache = process_cache()
        #: cross-run parse cache (Section VI performance work);
        #: ``cache_dir`` selects the disk-persistent variant, the default
        #: is the process-wide L1, ``use_process_cache=False`` disables
        #: caching entirely (cold-measurement harnesses)
        self.cache = cache
        if profile is not None:
            self.profile = profile
        elif self.options.profile_name or self.options.rule_packs:
            # late import: rules builds on config, core builds on both
            from ..rules import resolve_profile

            self.profile = resolve_profile(self.options)
        elif self.options.wordpress_config:
            self.profile = wordpress()
        else:
            self.profile = generic_php()

    def _summary_fingerprint(self, engine_options: EngineOptions) -> str:
        """Configuration identity of the persistent summary cache: the
        knowledge base plus every engine option that changes what a
        function summary contains.  Resource budgets are excluded — a
        summary is the same analysis result regardless of how much
        budget was left when it was computed (faulted placeholder
        summaries are never persisted)."""
        spec = (
            self.profile.fingerprint(),
            engine_options.oop,
            engine_options.analyze_uncalled,
            engine_options.analyze_methods_standalone,
            engine_options.recover,
            tuple(sorted(kind.value for kind in engine_options.construct_kinds)),
            engine_options.unknown_call_policy,
            engine_options.max_include_depth,
            engine_options.max_trace,
        )
        return hashlib.sha256(repr(spec).encode("utf-8")).hexdigest()[:16]

    def _preload_summaries(
        self,
        engine: TaintEngine,
        model: PluginModel,
        fingerprint: str,
        digests: Dict[str, str],
    ) -> Set[str]:
        """Install valid cross-run summaries before the engine runs.

        A hit must survive dependency validation: every file the summary
        was computed from still has the same content, and every lookup
        that found nothing still finds nothing."""
        preloaded: Set[str] = set()
        for key, info in model.functions.items():
            digest = digests.get(info.file)
            if not digest:
                continue
            cached = self.cache.lookup_summary(summary_key(fingerprint, key, digest))
            if cached is None:
                counters.summary_cache_misses += 1
                continue
            if not summary_is_valid(cached, model, digests):
                self.cache.summary_stats.stale += 1
                counters.summary_cache_stale += 1
                continue
            engine.preload_summary(cached)
            preloaded.add(key)
            counters.summary_cache_hits += 1
        return preloaded

    def _store_summaries(
        self,
        engine: TaintEngine,
        model: PluginModel,
        fingerprint: str,
        digests: Dict[str, str],
        preloaded: Set[str],
    ) -> None:
        """Persist the summaries this run computed, pinned to the
        content digests of every file they depend on."""
        for key, summary in engine.summaries.items():
            if (
                key in preloaded
                or summary.faulted
                or summary.uses_globals
                or summary.uses_statics
            ):
                continue
            info = model.functions.get(key)
            if info is None:
                continue
            digest = digests.get(info.file)
            if not digest:
                continue
            dep_digests: Dict[str, str] = {}
            for path in summary.dep_files:
                dep_digest = digests.get(path)
                if not dep_digest:
                    break
                dep_digests[path] = dep_digest
            else:
                summary.dep_digests = dep_digests
                self.cache.store_summary(
                    summary_key(fingerprint, key, digest), summary
                )

    def _engine_options(
        self,
        track_units: bool = False,
        reuse_roots: FrozenSet[str] = frozenset(),
    ) -> EngineOptions:
        unit_deadline = self.options.engine.unit_deadline
        if self.options.file_deadline is not None:
            unit_deadline = self.options.file_deadline
        return EngineOptions(
            oop=self.options.oop,
            analyze_uncalled=self.options.analyze_uncalled,
            analyze_methods_standalone=True,
            use_summaries=self.options.use_summaries,
            recover=self.options.recover,
            unit_deadline=unit_deadline,
            track_units=track_units,
            reuse_roots=reuse_roots,
            **{
                key: getattr(self.options.engine, key)
                for key in (
                    "step_budget",
                    "max_include_depth",
                    "max_trace",
                    "unit_step_budget",
                    "max_eval_depth",
                )
            },
        )

    def analyze(self, plugin: Plugin) -> ToolReport:
        """Run the four stages on every file of ``plugin``."""
        start = time.perf_counter()
        report, _model, _engine = self._scan(plugin, self._engine_options())
        report.seconds = time.perf_counter() - start
        return report

    def _scan(
        self,
        plugin: Plugin,
        engine_options: EngineOptions,
        model: Optional[PluginModel] = None,
        carried: Sequence[Finding] = (),
        perf_before: Optional[Dict[str, float]] = None,
    ) -> Tuple[ToolReport, PluginModel, TaintEngine]:
        """The shared scan core behind :meth:`analyze` and
        :meth:`rescan`: build (or accept) the model, run the engine,
        shape the report.  ``carried`` findings from a prior manifest
        are min-merged with the live ones before deduplication.  A
        caller that built ``model`` itself passes the counter snapshot
        it took before the build, so ``report.perf`` still covers the
        front end."""
        if perf_before is None:
            perf_before = counters.snapshot()
        report = ToolReport(tool=self.name, plugin=plugin.slug)
        if model is None:
            model = PluginModel.build(
                plugin,
                include_budget=self.options.include_budget,
                cache=self.cache,
                recover=self.options.recover,
            )
        # unrecoverable skips keep their historical FileFailure shape so
        # the Section V.E robustness tables are unchanged
        for path, error in sorted(model.parse_failures.items()):
            report.failures.append(
                FileFailure(file=path, reason=str(error), is_error=False)
            )
        for path, error in sorted(model.budget_failures.items()):
            report.failures.append(
                FileFailure(file=path, reason=str(error), is_error=False)
            )
        fingerprint = ""
        if self.cache is not None:
            fingerprint = self._summary_fingerprint(engine_options)
        engine = TaintEngine(model, self.profile, engine_options)
        use_summary_cache = self.cache is not None and engine_options.use_summaries
        digests: Dict[str, str] = {}
        preloaded: Set[str] = set()
        if use_summary_cache:
            digests = model.file_digests()
            preloaded = self._preload_summaries(engine, model, fingerprint, digests)
        live = engine.run()
        if carried:
            merged = TaintEngine.dedupe_findings(list(live) + list(carried))
        else:
            merged = live
        for finding in merged:
            report.add_finding(finding)
        if use_summary_cache:
            self._store_summaries(engine, model, fingerprint, digests, preloaded)
        report.incidents = list(model.incidents) + list(engine.incidents)
        # recovered incidents map to "error message but analysis
        # completed" failures (the Pixy column of the paper's table)
        for incident in report.incidents:
            if incident.recovered:
                report.failures.append(
                    FileFailure(
                        file=incident.file,
                        reason=incident.describe(),
                        is_error=True,
                        completed=True,
                    )
                )
        if engine.aborted:
            report.failures.append(
                FileFailure(
                    file="<plugin>",
                    reason="analysis step budget exhausted",
                    is_error=True,
                )
            )
            if not any(
                incident.severity is IncidentSeverity.FATAL
                for incident in report.incidents
            ):
                report.incidents.append(
                    Incident(
                        stage=IncidentStage.ANALYSIS,
                        severity=IncidentSeverity.FATAL,
                        file="<plugin>",
                        reason="analysis step budget exhausted",
                        recovered=False,
                    )
                )
        report.files_analyzed = len(model.files)
        report.loc_analyzed = model.total_loc
        report.files_skipped = len(model.parse_failures) + len(model.budget_failures)
        report.loc_skipped = sum(model.skipped_loc.values())
        # reviewer resources (paper Section III.D): final variable dump
        report.variables = dict(engine.globals.records)
        # per-run observability: counter deltas plus derived rates
        report.perf = counters.since(perf_before)
        report.perf.update(derive(report.perf))
        return report, model, engine

    def rescan(
        self, plugin: Plugin, manifest: Optional[Dict[str, object]] = None
    ) -> "Tuple[ToolReport, Dict[str, object], RescanStats]":
        """Diff-aware scan against a prior manifest.

        Returns ``(report, new_manifest, stats)``.  With no (usable)
        manifest this is a full scan that additionally records unit
        footprints; with one, roots whose file digest, dependency set,
        and state couplings are unchanged are skipped and their
        findings carried forward — then re-validated against the
        executed units' actual footprints, falling back to a full
        tracked scan on any violation.  The report's finding set is
        identical to a cold :meth:`analyze` either way (``difftest``
        enforces this); only ``report.variables`` may omit entries a
        skipped unit would have written.
        """
        start = time.perf_counter()
        report, new_manifest, stats = self._rescan(plugin, manifest)
        report.seconds = time.perf_counter() - start
        return report, new_manifest, stats

    def _rescan(
        self, plugin: Plugin, manifest: Optional[Dict[str, object]]
    ) -> "Tuple[ToolReport, Dict[str, object], RescanStats]":
        from .incremental import (
            RescanStats,
            build_manifest,
            carried_findings,
            plan_rescan,
            plugin_file_digests,
            validate_rescan,
        )

        perf_before = counters.snapshot()
        digests = plugin_file_digests(plugin)
        base_options = self._engine_options(track_units=True)
        fingerprint = self._summary_fingerprint(base_options)
        model = PluginModel.build(
            plugin,
            include_budget=self.options.include_budget,
            cache=self.cache,
            recover=self.options.recover,
        )
        if self.options.recover:
            plan = plan_rescan(manifest, fingerprint, digests, model)
        else:
            # the skip machinery works on recover-mode analysis units
            plan = plan_rescan(None, fingerprint, digests, model)
            plan.reason = "strict mode has no skippable units"
        stats = RescanStats(
            changed_files=sorted(plan.changed_files),
            fallback_reason="",
        )
        if not plan.full and manifest is not None:
            options = self._engine_options(
                track_units=True, reuse_roots=plan.reuse_roots
            )
            report, model, engine = self._scan(
                plugin,
                options,
                model=model,
                carried=carried_findings(manifest, plan.reuse_roots),
                perf_before=perf_before,
            )
            violation = validate_rescan(manifest, plan, engine, model)
            if violation is None:
                new_manifest = build_manifest(
                    fingerprint,
                    digests,
                    engine,
                    prior=manifest,
                    reuse_roots=plan.reuse_roots,
                )
                stats.roots_total = len(new_manifest["roots"])  # type: ignore[arg-type]
                stats.roots_reused = len(plan.reuse_roots)
                return report, new_manifest, stats
            stats.fallback_reason = violation
        elif plan.reason:
            stats.fallback_reason = plan.reason
        report, model, engine = self._scan(
            plugin, base_options, model=model, perf_before=perf_before
        )
        new_manifest = build_manifest(fingerprint, digests, engine)
        stats.roots_total = len(new_manifest["roots"])  # type: ignore[arg-type]
        stats.roots_reused = 0
        return report, new_manifest, stats

    def analyze_source(self, source: str, filename: str = "input.php") -> ToolReport:
        """Convenience: analyze a single PHP source string."""
        plugin = Plugin(name=filename, files={filename: source})
        return self.analyze(plugin)
