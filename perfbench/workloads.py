"""The benchmark's three workloads.

Each workload builds its inputs from the seed in :meth:`Workload.setup`,
then measures whole passes over them in :meth:`Workload.phase` until the
requested seconds have elapsed and at least ``min_passes`` passes are
done, and checks every result against its oracle once the clock has
stopped.  Passes are whole so that the set of operations is the same
for every seed; only their order and the seeded edits change.  The
minimum keeps at least ten samples beyond the tail percentile among the
slowest plugins of a pass.

The analyzer is driven only through ``PhpSafe.analyze``,
``stream_scan`` and the ``phpsafe serve`` HTTP API.
"""

from __future__ import annotations

import contextlib
import os
import random
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.batch import streaming
from repro.core.cache import ModelCache
from repro.core.phpsafe import PhpSafe, process_cache_occupancy
from repro.core.results import read_finding_stream
from repro.corpus.generator import build_both, build_corpus
from repro.corpus.stress import get_tier, iter_stress_plugins, stress_options
from repro.perf import counters
from repro.php.lexer import count_loc
from repro.plugin import Plugin
from repro.service.sarif import result_signatures

from .daemon import Daemon, request
from .edits import Editor, Injection, edit_targets, flow_share
from .hostspeed import HostSpeed
from .oracle import (
    Located,
    OracleError,
    Score,
    TruthIndex,
    check_in_range,
    score_stress,
    stress_sinks,
)
from .spans import ROOT, Tracer, install_analyzer_spans

#: paper corpus scale (0.25: 70 plugins, 67k LOC over both versions)
SCALE = 0.25
STRESS_TIER = "scale-smoke"
#: a run sets up at least ``SETUP_REPEATS`` times and until set-up has
#: taken ``SETUP_MIN_S``; ``setup_s`` is the median.  Cheap set-ups (a
#: fifth of a second) repeat about six times; the priming set-up of
#: ``daemon-mixed`` (about 5 s) twice, to keep a run within its time budget.
SETUP_REPEATS = 2
SETUP_MIN_S = 1.0
#: closed-loop clients of the daemon (the host has two cores)
DAEMON_CLIENTS = 2
#: status poll interval of the daemon clients: the latency resolution
POLL_INTERVAL_S = 0.01
#: cycles of the daemon's sequence per round: in each round every plugin
#: is submitted once as a repeat of its stored version (a store read)
#: and ``ROUND_CYCLES - 1`` times as an edit, so the mix of store reads
#: and analyses, plugin by plugin, is the same for every seed.  The
#: resulting one-in-five repeat share is an assumption, not a measured
#: CI mix: the corpus cannot supply one (no plugin and 13 of 356 files
#: are identical between its 2012 and 2014 versions).  It keeps the
#: worker analyses, the costly path of the service, in the majority
#: while giving every run some seventy store reads to time.
ROUND_CYCLES = 5
#: ``stream_scan``'s default entry cap, passed explicitly so the
#: benchmark can read the cache's hit counters
STREAM_MAX_ENTRIES = 4096

#: layers whose self time the metrics report (``root`` is unattributed)
SELF_TIME_METRICS = {
    "lexer": "lexer.busy_s",
    "parser": "parser.busy_s",
    "model": "model.self_s",
    "ir": "ir.lower_s",
    "engine": "engine.self_s",
    "results": "results.self_s",
    "streaming": "streaming.self_s",
    "streaming.sink": "streaming.sink_s",
    "cache": "cache.io_s",
    "client.http": "client.http_s",
    "client.wait": "client.wait_s",
}


@dataclass
class Phase:
    """What one timed phase measured."""

    #: wall-clock bounds of the phase (``time.perf_counter``)
    start: float = 0.0
    end: float = 0.0
    #: LOC of source submitted by the operations that succeeded
    loc: int = 0
    #: wall-clock ``(start, end)`` of every operation that succeeded
    ops: List[Tuple[float, float]] = field(default_factory=list)
    #: operations that failed: left out of ``loc``, ``ops`` and the score
    failed: int = 0
    passes: int = 0
    score: Score = field(default_factory=Score)
    #: perf-counter deltas of the first pass (deterministic per seed)
    first: Dict[str, float] = field(default_factory=dict)
    #: perf-counter deltas of the whole phase
    totals: Dict[str, float] = field(default_factory=dict)
    #: number of traced notes per layer at the end of the first pass
    first_notes: Dict[str, int] = field(default_factory=dict)
    first_findings: int = 0
    #: per-layer values only the workload can measure
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.failed

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _span(tracer: Optional[Tracer], layer: str = ROOT):
    return tracer.span(layer) if tracer is not None else contextlib.nullcontext()


def _located(findings) -> FrozenSet[Located]:
    return frozenset((f.kind.value, f.file, f.line) for f in findings)


class Workload:
    """Seeded inputs, a timed phase, and the oracle of its outputs."""

    name = ""
    #: which cache tiers hold artifacts when the timed phase starts
    cache_state: Dict[str, str] = {}
    min_passes = 1
    #: passes of each phase of a traced run, which reports per-layer
    #: figures only; fewer than ``min_passes`` keep its three phases
    #: within a run's time
    trace_passes = 1

    def __init__(self, seed: int, workdir: str, src_dir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.src_dir = src_dir
        self.setups = 0
        #: host-speed samples, taken between the timed operations
        self.speed = HostSpeed()

    def setup(self) -> None:
        raise NotImplementedError

    def discard(self) -> None:
        """Release the previous set-up before the next one (untimed)."""

    def phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""

    def _passes(self, seconds: float, tracer: Optional[Tracer], phase: Phase,
                run_pass: Callable[[int], None]) -> None:
        """Run whole passes until ``seconds`` have elapsed and at least
        ``min_passes`` are done."""
        before = counters.snapshot()
        self.speed.sample()
        phase.start = time.perf_counter()
        with _span(tracer):
            while True:
                run_pass(phase.passes)
                if phase.passes == 0:
                    phase.first = counters.since(before)
                    if tracer is not None:
                        phase.first_notes = {k: len(v) for k, v in tracer.notes.items()}
                phase.passes += 1
                if phase.passes >= self.min_passes and (
                        time.perf_counter() - phase.start >= seconds):
                    break
        phase.end = time.perf_counter()
        self.speed.sample()
        phase.totals = counters.since(before)


# -- paper-cold ---------------------------------------------------------------


class PaperCold(Workload):
    """Both paper corpora, each plugin through a fresh uncached tool."""

    name = "paper-cold"
    cache_state = {"L1": "off", "disk": "off", "store": "off"}
    #: three passes time each of the largest plugins three times, so the
    #: tail percentile rests on more samples of them (with two passes
    #: ``op_tail_ms`` spread 6-8% over ten seeds)
    min_passes = 3

    def setup(self) -> None:
        corpora = build_both(SCALE)
        self.truth = TruthIndex([corpus.truth for corpus in corpora])
        self.items = [(corpus.version, plugin) for corpus in corpora
                      for plugin in corpus.plugins]
        random.Random(self.seed).shuffle(self.items)
        self.loc = {(v, p.name): p.loc for v, p in self.items}

    def phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        phase = Phase()
        #: findings of each plugin's first analysis that succeeded
        first: Dict[tuple, FrozenSet[Located]] = {}
        unstable: List[tuple] = []

        def run_pass(index: int) -> None:
            for version, plugin in self.items:
                key = (version, plugin.name)
                self.speed.sample()
                start = time.perf_counter()
                try:
                    tool = PhpSafe(use_process_cache=False)
                    report = tool.analyze(plugin)
                except Exception:
                    phase.failed += 1
                    continue
                phase.ops.append((start, time.perf_counter()))
                if tool.cache is not None:
                    raise OracleError("paper-cold analyzed with a cache")
                phase.loc += self.loc[key]
                found = _located(report.findings)
                if index == 0:
                    phase.first_findings += len(found)
                if first.setdefault(key, found) != found:
                    unstable.append(key)

        self._passes(seconds, tracer, phase, run_pass)
        if unstable:
            raise OracleError(f"findings changed between passes: {unstable[:3]}")
        for version, plugin in self.items:
            found = first.get((version, plugin.name))
            if found is not None:
                check_in_range(plugin, found)
                phase.score.add(self.truth.score(version, plugin.name, found))
        cached = (phase.totals["summary_cache_hits"], phase.totals["ir_cache_hits"],
                  process_cache_occupancy()["entries"])
        if any(cached):
            raise OracleError(f"cold workload hit a cache (summary, IR, L1): {cached}")
        return phase


# -- stress-stream ------------------------------------------------------------


class StressStream(Workload):
    """The ``scale-smoke`` stress tier through ``stream_scan``."""

    name = "stress-stream"
    cache_state = {"L1": "cold (fresh byte-capped cache per pass)", "disk": "off",
                   "store": "off"}
    #: the tail percentile lies among the huge and chain plugins (eight
    #: a pass).  With two passes it sat on the edge of the chains; with
    #: three, next to the fastest huge operation (``op_tail_ms`` spread
    #: 6-14% over ten seeds); four put it among the huge plugins' sixteen
    min_passes = 4

    def setup(self) -> None:
        self.tier = get_tier(STRESS_TIER)
        self.plugins = list(iter_stress_plugins(self.tier, self.seed))
        random.Random(self.seed).shuffle(self.plugins)
        self.sinks = {plugin.slug: stress_sinks(plugin) for plugin in self.plugins}
        located = sum(len(sinks) for sinks in self.sinks.values())
        if located != self.tier.expected_findings:
            raise OracleError(f"oracle located {located} seeded sinks, the tier "
                              f"declares {self.tier.expected_findings}")
        self.options = streaming.streaming_options(stress_options())

    def _timed(self, ops: Dict[str, Tuple[float, float]]) -> Iterator[Plugin]:
        """Yield the plugins; the time until the next one is requested
        is the operation time of the one yielded."""
        for plugin in self.plugins:
            self.speed.sample()
            start = time.perf_counter()
            yield plugin
            ops[plugin.slug] = (start, time.perf_counter())

    def phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        phase = Phase()
        #: the findings stream and the operation times of every pass
        passes: List[Tuple[str, Dict[str, Tuple[float, float]]]] = []
        hits = spilled = peak = evictions = 0

        def run_pass(index: int) -> None:
            nonlocal hits, spilled, peak, evictions
            cache = ModelCache(max_entries=STREAM_MAX_ENTRIES,
                               max_bytes=streaming.DEFAULT_MAX_CACHE_BYTES)
            sink = os.path.join(self.workdir, f"stream-{len(passes)}.jsonl")
            passes.append((sink, {}))
            summary = streaming.stream_scan(self._timed(passes[-1][1]), sink,
                                            options=self.options, cache=cache)
            hits += cache.stats.hits + cache.summary_stats.hits + cache.ir_stats.hits
            spilled += summary.spilled_bytes
            peak = max(peak, summary.peak_cache_bytes)
            evictions += cache.stats.evictions
            if index == 0:
                phase.first_findings = summary.findings

        self._passes(seconds, tracer, phase, run_pass)
        if hits:
            raise OracleError(f"cold workload hit its cache {hits} times")
        for sink, ops in passes:
            found: Dict[str, set] = {slug: set() for slug in self.sinks}
            for record in read_finding_stream(sink):
                if record.get("record") == "finding":
                    found[str(record["plugin"])].add(
                        (str(record["kind"]), str(record["file"]), int(record["line"])))
            os.remove(sink)
            pass_score = Score()
            for plugin in self.plugins:
                score = score_stress(self.sinks[plugin.slug], frozenset(found[plugin.slug]))
                if score.detected != score.expected or score.fp > 0:
                    phase.failed += 1
                else:
                    phase.ops.append(ops[plugin.slug])
                    phase.loc += plugin.loc
                pass_score.add(score)
            if (pass_score.tp + pass_score.fp, pass_score.detected) != (
                    self.tier.expected_findings,) * 2:
                raise OracleError(f"stream reported {pass_score.tp + pass_score.fp} "
                                  f"findings, {pass_score.detected} of "
                                  f"{self.tier.expected_findings} seeded")
            phase.score.add(pass_score)
        phase.extra.update({
            "streaming.spilled_bytes": spilled / phase.passes,
            "streaming.peak_cache_bytes": peak,
            "cache.evictions": evictions / phase.passes,
        })
        return phase


# -- daemon-mixed -------------------------------------------------------------


def _cache_metrics(delta: Dict[str, float]) -> Dict[str, float]:
    lookups = delta["hits"] + delta["misses"]
    return {
        "cache.l1_hit_ratio": _ratio(delta["hits"] - delta["disk_hits"], lookups),
        "cache.disk_hit_ratio": _ratio(delta["disk_hits"], lookups),
        "cache.summary_hit_ratio": _ratio(
            delta["summary_hits"], delta["summary_hits"] + delta["summary_misses"]),
        "cache.ir_hit_ratio": _ratio(delta["ir_hits"], delta["ir_hits"] + delta["ir_misses"]),
        "cache.evictions": delta["evictions"],
    }


class DaemonMixed(Workload):
    """Closed-loop clients against a ``phpsafe serve`` process.

    It submits the 2014 corpus plus a seeded edit stream: a fixed seeded
    permutation of the plugins, cycled, one seeded one-file edit per
    visit."""

    name = "daemon-mixed"
    cache_state = {"L1": "warm (worker processes primed by set-up)",
                   "disk": "warm (primed by set-up)", "store": "warm (primed by set-up)"}
    #: seven or eight jobs a round spend 0.3-0.5 s in analysis, against
    #: under 0.2 s for the rest; three rounds put the tail percentile
    #: well inside those jobs, where one round left it on their edge
    min_passes = 3 * ROUND_CYCLES
    trace_passes = ROUND_CYCLES

    daemon: Optional[Daemon] = None

    def setup(self) -> None:
        plugins = self._load_corpus()
        self.data_dir = os.path.join(self.workdir, f"daemon-{self.setups}")
        self.daemon = Daemon(self.src_dir, self.data_dir)
        ids = {}
        for plugin in plugins:
            self.speed.sample()
            status, body = request(self.daemon.url("/v1/scans"), _payload(plugin))
            if status not in (200, 202):
                raise RuntimeError(f"priming {plugin.name}: HTTP {status} {body}")
            ids[plugin.name] = body["id"]
        troubled: Dict[str, set] = {}
        for name, job_id in ids.items():
            body = self._wait(job_id)
            report = body["result"]["report"]
            troubled[name] = {f["file"] for f in report["failures"]} | {
                i["file"] for i in report["incidents"]}
        self.editor = self._editor(plugins, troubled)
        self.next_k = 0

    def _load_corpus(self) -> List[Plugin]:
        corpus = build_corpus("2014", SCALE)
        self.version = corpus.version
        self.truth = TruthIndex([corpus.truth])
        self.tainted_share = flow_share(corpus.truth)
        self.order = [plugin.name for plugin in corpus.plugins]
        random.Random(self.seed).shuffle(self.order)
        self.base_loc = {plugin.name: plugin.loc for plugin in corpus.plugins}
        return corpus.plugins

    def _editor(self, plugins: Sequence[Plugin], troubled: Dict[str, set]) -> Editor:
        targets = {p.name: edit_targets(p, troubled[p.name]) for p in plugins}
        empty = [name for name, paths in targets.items() if not paths]
        if empty:
            raise RuntimeError(f"plugins without an editable file: {empty}")
        return Editor(plugins, targets, self.tainted_share)

    def _score(self, plugin: Plugin, found: FrozenSet[Located],
               injections: Sequence[Injection]) -> Score:
        check_in_range(plugin, found)
        return self.truth.score(self.version, plugin.name, found, injections)

    def _wait(self, job_id: str) -> Dict[str, object]:
        while True:
            status, body = request(self.daemon.url(f"/v1/scans/{job_id}"))
            if status != 200 or body["state"] == "failed":
                raise RuntimeError(f"priming job {job_id}: HTTP {status} {body}")
            if body["state"] == "done":
                return body
            self.speed.sample()
            time.sleep(POLL_INTERVAL_S)

    def _rows(self) -> List[Dict[str, object]]:
        status, body = request(self.daemon.url("/metrics"))
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return body["plugins"]

    def discard(self) -> None:
        self.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def _take(self, lock, first_k: int, start: float, seconds: float):
        """Claim the next job of the seeded sequence, or None once time
        is up at a round boundary."""
        plugins = len(self.order)
        with lock:
            done = self.next_k - first_k
            if done >= self.min_passes * plugins and (
                    done % (ROUND_CYCLES * plugins) == 0) and (
                    time.perf_counter() - start >= seconds):
                return None
            k = self.next_k
            self.next_k += 1
            cycle, position = divmod(k, plugins)
            round_index, slot = divmod(cycle, ROUND_CYCLES)
            shuffled = random.Random(f"{self.seed}/round/{round_index}").sample(
                range(plugins), plugins)
            repeats = shuffled[slot::ROUND_CYCLES]
            name = self.order[position]
            if position in repeats:
                return (k, True) + self.editor.current(name)
            return (k, False) + self.editor.edit(name, random.Random(f"{self.seed}/{k}"), k)

    def _job(self, k: int, repeat: bool, plugin: Plugin, injections: List[Injection],
             tracer: Optional[Tracer]) -> Dict[str, object]:
        record: Dict[str, object] = {"plugin": plugin, "injections": injections,
                                     "ok": False, "polls": 0, "repeat": repeat}

        def http(path: str, payload=None):
            with _span(tracer, "client.http"):
                return request(self.daemon.url(path), payload)

        self.speed.sample()
        start = time.perf_counter()
        try:
            status, body = http("/v1/scans", _payload(plugin))
            record["submit_s"] = time.perf_counter() - start
            if status not in (200, 202):
                record["error"] = f"submit answered HTTP {status}"
                return record
            record["cached"] = bool(body.get("cached"))
            job_id = body["id"]
            while body["state"] not in ("done", "failed"):
                with _span(tracer, "client.wait"):
                    time.sleep(POLL_INTERVAL_S)
                status, body = http(f"/v1/scans/{job_id}")
                record["polls"] += 1
                if status != 200:
                    record["error"] = f"status poll answered HTTP {status}"
                    return record
            if body["state"] == "failed":
                record["error"] = f"job failed: {body.get('error')}"
                return record
            result = body.get("result")
            if result:
                record["queued_s"] = result["queued_seconds"]
                record["analyze_s"] = result["seconds"]
            fetch = time.perf_counter()
            status, sarif = http(f"/v1/scans/{job_id}/sarif")
            record["fetch_s"] = time.perf_counter() - fetch
            if status != 200:
                record["error"] = f"SARIF fetch answered HTTP {status}"
                return record
            record["found"] = frozenset(sig[1:4] for sig in result_signatures(sarif))
            record["ok"] = True
        except (OSError, ValueError, KeyError) as error:
            record["error"] = repr(error)
        finally:
            record["op"] = (start, time.perf_counter())
        return record

    def phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        phase = Phase()
        rows_before = len(self._rows())
        records: List[Dict[str, object]] = []
        lock = threading.Lock()
        first_k = self.next_k
        self.speed.sample()
        phase.start = time.perf_counter()

        def client() -> None:
            with _span(tracer):
                while True:
                    job = self._take(lock, first_k, phase.start, seconds)
                    if job is None:
                        return
                    records.append(self._job(*job, tracer))

        threads = [threading.Thread(target=client) for _ in range(DAEMON_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.end = time.perf_counter()
        self.speed.sample()
        phase.passes = (self.next_k - first_k) // len(self.order)

        analyzed = [r for r in records if r["ok"] and not r.get("cached")]
        for record in records:
            if not record["ok"]:
                phase.failed += 1
                continue
            phase.ops.append(record["op"])
            plugin = record["plugin"]
            phase.loc += self.base_loc[plugin.name] + len(record["injections"])
            phase.score.add(self._score(plugin, record["found"], record["injections"]))
        rows = self._phase_rows(rows_before, len(analyzed))
        _daemon_first_pass(phase, rows)
        phase.extra.update(_daemon_layers(records, analyzed, rows))
        return phase

    def _phase_rows(self, before: int, expected: int) -> List[Dict[str, object]]:
        """Telemetry rows of the phase's analyses (a row lands just
        after its job is marked done, so wait for the last ones)."""
        deadline = time.monotonic() + 30
        while True:
            rows = self._rows()[before:]
            if len(rows) >= expected or time.monotonic() > deadline:
                return rows
            time.sleep(POLL_INTERVAL_S)


def _payload(plugin: Plugin) -> Dict[str, object]:
    return {"name": plugin.name, "version": plugin.version, "files": dict(plugin.files)}


#: perf counters a telemetry row carries, as named by ``repro.perf``
_ROW_COUNTERS = ("tokens_lexed", "files_parsed", "engine_steps",
                 "summaries_computed", "ir_bodies_lowered", "taint_joins")


def _daemon_first_pass(phase: Phase, rows: List[Dict[str, object]]) -> None:
    """Counts of each plugin's first analysis in the phase (one seeded
    cycle, so they repeat for a seed), from the daemon's own counters."""
    first: Dict[str, Dict[str, object]] = {}
    for row in rows:
        first.setdefault(str(row["plugin"]).split("@")[0], row)
    phase.first = {key: sum(row["perf"].get(key, 0) for row in first.values())
                   for key in _ROW_COUNTERS}
    phase.first_findings = sum(row["findings"] for row in first.values())
    phase.extra["model.files"] = sum(row["files"] for row in first.values())


def _daemon_layers(records, analyzed, rows) -> Dict[str, float]:
    """Per-layer values of the daemon path: client-side timings, job
    documents, and the daemon's own counters from ``GET /metrics``."""

    def total(key: str, section: str) -> float:
        return sum(float(row[section].get(key, 0)) for row in rows)

    ok = [r for r in records if r["ok"]]
    return {
        **_cache_metrics({
            "hits": total("hits", "cache"), "misses": total("misses", "cache"),
            "disk_hits": total("disk_hits", "cache"), "evictions": 0,
            "summary_hits": total("summary_hits", "cache"),
            "summary_misses": total("summary_misses", "cache"),
            "ir_hits": total("ir_cache_hits", "perf"),
            "ir_misses": total("ir_cache_misses", "perf"),
        }),
        "incremental.roots_reused_share": _ratio(
            total("roots_reused", "rescan"), total("roots_total", "rescan")),
        "incremental.fallbacks": sum(bool(row["rescan"]["fallback"]) for row in rows),
        "server.submit_ms": 1000 * statistics.median(r["submit_s"] for r in ok),
        "queue.wait_ms": 1000 * statistics.median(r["queued_s"] for r in analyzed),
        "workers.analyze_ms": 1000 * statistics.median(r["analyze_s"] for r in analyzed),
        "store.dedup_share": _ratio(sum(bool(r.get("cached")) for r in ok), len(ok)),
        "sarif.fetch_ms": 1000 * statistics.median(r["fetch_s"] for r in ok),
        "client.polls_per_job": _ratio(sum(r["polls"] for r in ok), len(ok)),
    }


WORKLOADS = {cls.name: cls for cls in (PaperCold, StressStream, DaemonMixed)}


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(phase: Phase, tracer: Tracer, overhead: float) -> Dict[str, float]:
    """Every per-layer metric of one traced phase.

    Self times are totals over the phase and, with the unattributed
    root time, sum to ``trace.wall_s``.  Counts are those of the first
    pass, so they repeat exactly for a seed; rates divide whole-phase
    counts by whole-phase busy time.
    """
    selfs = tracer.layer_self_times()
    unknown = set(selfs) - set(SELF_TIME_METRICS) - {ROOT}
    if unknown:
        raise RuntimeError(f"spans of unreported layers: {sorted(unknown)}")
    wall = tracer.wall()
    first, totals = phase.first, phase.totals
    mark = phase.first_notes
    models = tracer.notes.get("model", [])[: mark.get("model", 0)]
    parsed_loc = sum(count_loc(source) for source in tracer.notes.get("lexer", []))
    metrics: Dict[str, float] = {
        metric: selfs.get(layer, 0.0) for layer, metric in SELF_TIME_METRICS.items()
    }
    metrics.update({
        "lexer.tokens": first.get("tokens_lexed", 0),
        "lexer.tokens_per_s": _ratio(totals.get("tokens_lexed", 0), metrics["lexer.busy_s"]),
        "parser.files": first.get("files_parsed", 0),
        "parser.loc_per_s": _ratio(parsed_loc, metrics["parser.busy_s"]),
        "model.files": sum(files for files, _functions in models),
        "model.functions": sum(functions for _files, functions in models),
        "ir.bodies_lowered": first.get("ir_bodies_lowered", 0),
        "engine.steps": first.get("engine_steps", 0),
        "engine.summaries_computed": first.get("summaries_computed", 0),
        "engine.taint_joins": first.get("taint_joins", 0),
        "results.findings": phase.first_findings,
        "incremental.roots_reused_share": 0.0,
        "incremental.fallbacks": 0,
        "streaming.spilled_bytes": 0,
        "streaming.peak_cache_bytes": 0,
        "cache.l1_hit_ratio": 0.0,
        "cache.disk_hit_ratio": 0.0,
        "cache.summary_hit_ratio": 0.0,
        "cache.ir_hit_ratio": 0.0,
        "cache.evictions": 0,
        "server.submit_ms": 0.0,
        "queue.wait_ms": 0.0,
        "workers.analyze_ms": 0.0,
        "store.dedup_share": 0.0,
        "sarif.fetch_ms": 0.0,
        "client.polls_per_job": 0.0,
        "trace.wall_s": wall,
        "trace.overhead_share": overhead,
        "trace.unattributed_share": _ratio(selfs.get(ROOT, 0.0), wall),
    })
    metrics.update(phase.extra)
    return metrics


def deterministic_counts(phase: Phase) -> Dict[str, float]:
    """First-pass work counters: equal for two runs of one seed."""
    keys = ("tokens_lexed", "files_parsed", "engine_steps", "summaries_computed",
            "ir_bodies_lowered")
    counts = {key: phase.first.get(key, 0) for key in keys}
    counts["findings"] = phase.first_findings
    return counts


# -- one run ------------------------------------------------------------------


def _phase_summary(phase: Phase, speed: HostSpeed) -> Dict[str, object]:
    """What a phase measured, its times both in wall and in reference
    seconds (:mod:`perfbench.hostspeed`)."""
    return {
        "wall_s": phase.wall_s,
        "ref_wall_s": speed.reference_seconds(phase.start, phase.end),
        "op_s": [end - start for start, end in phase.ops],
        "ref_op_s": [speed.reference_seconds(start, end) for start, end in phase.ops],
        "loc": phase.loc,
        "attempted": phase.attempted, "failed": phase.failed, "passes": phase.passes,
        "recall": phase.score.recall, "precision": phase.score.precision,
        "score": vars(phase.score), "counts": deterministic_counts(phase),
        "extra": dict(phase.extra),
    }


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str,
        src_dir: str) -> Dict[str, object]:
    """Set up ``name``, measure it, check it; returns the raw results."""
    workload = WORKLOADS[name](seed, workdir, src_dir)
    speed = workload.speed
    try:
        result = _measure(workload, seconds, trace)
    finally:
        workload.close()
    usage = [resource.getrusage(who).ru_maxrss for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result["peak_rss_mb"] = max(usage) / 1024.0
    result["probe_s"] = [seconds for _t, seconds in speed.samples]
    return result


def _measure(workload: Workload, seconds: float, trace: bool) -> Dict[str, object]:
    """The set-ups and phases of one run."""
    speed = workload.speed
    setups = []
    while len(setups) < SETUP_REPEATS or (
            sum(end - start for start, end in setups) < SETUP_MIN_S):
        if setups:
            workload.discard()
        workload.setups = len(setups)
        speed.sample()
        start = time.perf_counter()
        workload.setup()
        setups.append((start, time.perf_counter()))
        speed.sample()
    if trace:
        workload.min_passes = workload.trace_passes
    untraced = workload.phase(seconds, None)
    result: Dict[str, object] = {
        "setup_wall_s": [end - start for start, end in setups],
        "setup_s": [speed.reference_seconds(start, end) for start, end in setups],
        "untraced": _phase_summary(untraced, speed),
        "cache_state": dict(workload.cache_state),
    }
    if not trace:
        return result
    tracer = Tracer()
    install_analyzer_spans(tracer)
    try:
        traced = workload.phase(seconds, tracer)
    finally:
        tracer.uninstall()
    # an untraced phase on each side of the traced one cancels the drift
    # of a warm workload whose caches keep changing
    after = workload.phase(seconds, None)
    result["traced"] = _phase_summary(traced, speed)
    result["after"] = _phase_summary(after, speed)
    s_per_loc = {key: result[key]["ref_wall_s"] / result[key]["loc"]
                 for key in ("untraced", "traced", "after")}
    overhead = 2 * s_per_loc["traced"] / (s_per_loc["untraced"] + s_per_loc["after"]) - 1
    result["layers"] = layer_metrics(traced, tracer, overhead)
    return result


def child_main(name: str, seed: int, seconds: float, trace: bool,
               workdir: str, src_dir: str, result_path: str) -> None:
    """Child-process body: run one workload, pickle its message to
    ``result_path``."""
    import pickle
    import traceback

    # keeps every temporary file of the analyzer and the daemon in the checkout
    os.environ["TMPDIR"] = workdir
    try:
        message = {"ok": True, "result": run(name, seed, seconds, trace, workdir, src_dir)}
    except BaseException as error:
        message = {"ok": False, "error": f"{error!r}\n{traceback.format_exc()}",
                   "oracle": isinstance(error, OracleError)}
    with open(result_path, "wb") as handle:
        pickle.dump(message, handle)


if __name__ == "__main__":
    import sys

    from perfbench.workloads import child_main as _child_main

    _name, _seed, _seconds, _trace, _workdir, _src, _result = sys.argv[1:]
    _child_main(_name, int(_seed), float(_seconds), _trace == "1", _workdir, _src, _result)
