"""One plugin job runner behind the batch scanner and the daemon.

The same plugins scanned four ways — batch ``jobs=1`` and ``jobs=2``,
daemon with thread and with process isolation — must yield telemetry
rows of one shape and the same analysis outcome; each cache event must
land under its own named count.
"""

import time

import pytest

from repro.batch import BatchOptions, BatchScanner, DiskModelCache, ToolSpec
from repro.batch.scheduler import crash_result, run_job
from repro.batch.telemetry import PluginScanStats, ScanTelemetry
from repro.core import PhpSafe
from repro.core.cache import ModelCache, content_key
from repro.perf import FIELDS
from repro.plugin import Plugin
from repro.service import AnalysisService

PLUGINS = [
    Plugin(name="alpha", files={"index.php": "<?php echo $_GET['q'];"}),
    Plugin(
        name="beta",
        files={
            "index.php": "<?php include 'lib.php'; page($_POST['p']);",
            "lib.php": "<?php function page($m) { echo '<b>' . $m . '</b>'; }",
        },
    ),
    Plugin(name="gamma", files={"ok.php": "<?php $a = 1;", "bad.php": "<?php $a = ;"}),
]

#: keys of a telemetry row (schema v7)
ROW_KEYS = {
    "plugin", "seconds", "files", "loc", "findings", "failures", "incidents",
    "recovered", "files_skipped", "loc_skipped", "files_per_second", "cache",
    "perf", "queued_seconds", "outcome", "rescan",
}
CACHE_KEYS = {
    "hits", "misses", "disk_hits", "corrupt",
    "summary_hits", "summary_misses", "summary_stale",
}
RESCAN_KEYS = {"roots_total", "roots_reused", "fallback"}
#: rates :func:`repro.perf.derive` adds when their inputs are non-zero
RATES = {"tokens_per_second", "nodes_per_second", "taint_intern_hit_rate"}
#: what the analysis decided: the same whichever path ran it
SAME_ON_EVERY_PATH = (
    "plugin", "files", "loc", "findings", "failures", "incidents", "outcome",
)


def batch_rows(tool, jobs):
    result = BatchScanner(ToolSpec(tool), BatchOptions(jobs=jobs)).scan(PLUGINS)
    return [stats.to_dict() for stats in result.telemetry.plugins]


def daemon_rows(tool, isolation, tmp_path):
    service = AnalysisService(
        data_dir=str(tmp_path / isolation),
        spec=ToolSpec(tool),
        jobs=1,
        isolation=isolation,
    )
    service.start()
    try:
        ids = []
        for plugin in PLUGINS:
            code, body = service.submit(
                {"name": plugin.name, "version": plugin.version,
                 "files": dict(plugin.files)}
            )
            assert code == 202, body
            ids.append(body["id"])
        deadline = time.time() + 60
        while time.time() < deadline:
            states = [service.job_status(i)[1]["state"] for i in ids]
            if all(state in ("done", "failed") for state in states):
                break
            time.sleep(0.02)
        code, metrics = service.metrics()
        assert code == 200
        return metrics["plugins"]
    finally:
        service.shutdown()


@pytest.mark.parametrize("tool", ["phpsafe", "rips"])
def test_four_paths_give_rows_of_one_shape(tool, tmp_path):
    paths = {
        "batch jobs=1": batch_rows(tool, 1),
        "batch jobs=2": batch_rows(tool, 2),
        "daemon thread": daemon_rows(tool, "thread", tmp_path),
        "daemon process": daemon_rows(tool, "process", tmp_path),
    }
    expected = None
    for path, rows in paths.items():
        assert len(rows) == len(PLUGINS), path
        for row in rows:
            assert set(row) == ROW_KEYS, path
            assert set(row["cache"]) == CACHE_KEYS, path
            assert set(row["rescan"]) == RESCAN_KEYS, path
            # every path measures the job where it runs, so baseline
            # tools' rows carry the counters too
            assert set(FIELDS) <= set(row["perf"]) <= set(FIELDS) | RATES, path
        outcome = sorted(
            tuple(row[key] for key in SAME_ON_EVERY_PATH) for row in rows
        )
        if expected is None:
            expected = outcome
        assert outcome == expected, path
    assert any(row[3] for row in expected)  # some plugin has findings
    assert all(row[-1] == "ok" for row in expected)


def test_cache_events_land_under_their_names(tmp_path):
    cache_dir = str(tmp_path / "cache")
    plugin = PLUGINS[1]

    def job(files=None):
        scanned = plugin if files is None else Plugin(name=plugin.name, files=files)
        tool = PhpSafe(cache=DiskModelCache(cache_dir), use_process_cache=False)
        return run_job(tool, scanned).cache

    cold = job()
    assert cold["misses"] == 2 and cold["hits"] == 0
    assert cold["summary_misses"] >= 1

    warm = job()  # a fresh memory tier over the same directory
    assert warm["hits"] == 2 and warm["disk_hits"] == 2 and warm["misses"] == 0
    assert warm["summary_hits"] >= 1

    key = content_key("lib.php", plugin.files["lib.php"], PhpSafe().options.recover)
    path = DiskModelCache(cache_dir)._object_path(key)
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    corrupt = job()
    assert corrupt["corrupt"] == 1 and corrupt["misses"] == 1

    # outer()'s own file stays the same but its callee's changes: the
    # cached summary is found and rejected by dependency validation
    callee = {
        "index.php": "<?php include 'a.php'; include 'b.php'; outer($_GET['q']);",
        "a.php": "<?php function outer($m) { inner($m); }",
        "b.php": "<?php function inner($m) { echo htmlentities($m); }",
    }
    job(callee)
    stale = job({**callee, "b.php": "<?php function inner($m) { echo $m; }"})
    assert stale["summary_stale"] >= 1


def test_uncached_tool_and_crashed_worker_count_nothing():
    from repro.baselines import RipsLike

    zeros = dict.fromkeys(CACHE_KEYS, 0)
    result = run_job(RipsLike(), PLUGINS[0])
    assert result.cache == zeros
    assert result.report.perf["tokens_lexed"] > 0
    crashed = crash_result(ToolSpec("rips"), PLUGINS[0], "worker died")
    assert (crashed.outcome, crashed.cache, crashed.report.perf) == ("crashed", zeros, {})
    assert crashed.report.tool == result.report.tool == "RIPS"


def test_telemetry_sums_rows_by_name():
    telemetry = ScanTelemetry()
    for hits, misses in ((3, 1), (1, 3)):
        counts = ModelCache().counts()
        counts.update(hits=hits, misses=misses, summary_stale=1)
        telemetry.record(PluginScanStats(plugin="p", cache=counts, outcome="timeout"))
    section = telemetry.to_dict()["cache"]
    assert section["hits"] == 4 and section["misses"] == 4
    assert section["hit_rate"] == 0.5
    assert section["summary_stale"] == 2 and section["summary_hit_rate"] == 0.0
    assert telemetry.timeouts == 2


def test_failed_job_keeps_its_measurement():
    class Exploding(PhpSafe):
        def analyze(self, plugin):
            super().analyze(plugin)
            raise RuntimeError("boom")

    result = run_job(Exploding(use_process_cache=False), PLUGINS[0])
    assert result.outcome == "error"
    assert "boom" in result.report.failures[0].reason
    assert result.report.perf["files_parsed"] == 1
    assert result.report.plugin == PLUGINS[0].slug
