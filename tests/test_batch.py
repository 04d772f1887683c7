"""Batch scanning subsystem: scheduler, isolation, telemetry, disk cache."""

import json
import os
import time

import pytest

from repro.batch import (
    BatchOptions,
    BatchScanner,
    ToolSpec,
    scan_corpus,
)
from repro.batch.telemetry import SCHEMA
from repro.core import PhpSafe
from repro.core.results import ToolReport
from repro.core.tool import AnalyzerTool
from repro.corpus import build_corpus
from repro.plugin import Plugin


def small_plugins():
    return [
        Plugin(name="alpha", files={"index.php": "<?php echo $_GET['a'];"}),
        Plugin(
            name="beta",
            files={
                "index.php": "<?php echo $_GET['b'];",
                "lib.php": "<?php $x = 1;",
            },
        ),
        Plugin(
            name="gamma", files={"index.php": "<?php echo esc_html($_GET['c']);"}
        ),
    ]


def finding_keys(reports):
    return sorted((report.plugin, f.key) for report in reports for f in report.findings)


class CrashingTool(AnalyzerTool):
    """Dies hard (process exit, not an exception) on one plugin."""

    name = "crasher"

    def analyze(self, plugin: Plugin) -> ToolReport:
        if plugin.name == "beta":
            os._exit(13)
        report = ToolReport(tool=self.name, plugin=plugin.slug)
        report.files_analyzed = plugin.file_count
        return report


class SleepyTool(AnalyzerTool):
    """Exceeds any reasonable deadline on one plugin."""

    name = "sleepy"

    def analyze(self, plugin: Plugin) -> ToolReport:
        if plugin.name == "beta":
            time.sleep(30)
        return ToolReport(tool=self.name, plugin=plugin.slug)


class TestParallelEqualsSerial:
    def test_small_batch(self):
        plugins = small_plugins()
        serial = [PhpSafe().analyze(plugin) for plugin in plugins]
        result = scan_corpus(plugins, jobs=2)
        assert finding_keys(result.reports) == finding_keys(serial)
        assert [report.plugin for report in result.reports] == [
            plugin.slug for plugin in plugins
        ]

    def test_corpus_smoke(self, corpus_2012):
        """Tier-1 smoke: the parallel path returns findings identical to
        the serial path over (a slice of) the generated corpus."""
        plugins = corpus_2012.plugins[:6]
        serial = [PhpSafe().analyze(plugin) for plugin in plugins]
        result = scan_corpus(plugins, jobs=2)
        assert finding_keys(result.reports) == finding_keys(serial)

    def test_jobs1_runs_same_pipeline(self):
        plugins = small_plugins()
        serial = scan_corpus(plugins, jobs=1)
        parallel = scan_corpus(plugins, jobs=2)
        assert finding_keys(serial.reports) == finding_keys(parallel.reports)
        assert serial.telemetry.jobs == 1


class TestCrashIsolation:
    def test_dead_worker_becomes_file_failure(self):
        spec = ToolSpec(name="tests.test_batch:CrashingTool")
        result = scan_corpus(small_plugins(), jobs=2, spec=spec)
        by_plugin = {report.plugin: report for report in result.reports}
        crashed = by_plugin["beta"]
        assert crashed.failures, "crash must surface as a robustness incident"
        failure = crashed.failures[0]
        assert failure.file == "<plugin>"
        assert not failure.completed
        # the batch itself survived: the other plugins completed
        assert by_plugin["alpha"].files_analyzed == 1
        assert by_plugin["gamma"].files_analyzed == 1
        assert result.telemetry.worker_restarts >= 1
        assert result.telemetry.crashes == 1

    def test_worker_exception_is_isolated_without_restart(self):
        spec = ToolSpec(name="tests.test_batch:RaisingTool")
        result = scan_corpus(small_plugins(), jobs=2, spec=spec)
        by_plugin = {report.plugin: report for report in result.reports}
        assert "worker exception" in by_plugin["beta"].failures[0].reason
        assert result.telemetry.worker_restarts == 0
        assert result.telemetry.crashes == 1


class RaisingTool(AnalyzerTool):
    name = "raiser"

    def analyze(self, plugin: Plugin) -> ToolReport:
        if plugin.name == "beta":
            raise RuntimeError("boom")
        return ToolReport(tool=self.name, plugin=plugin.slug)


class TestDeadline:
    def test_timeout_becomes_file_failure(self):
        spec = ToolSpec(name="tests.test_batch:SleepyTool")
        result = scan_corpus(small_plugins(), jobs=2, timeout=0.3, spec=spec)
        by_plugin = {report.plugin: report for report in result.reports}
        failure = by_plugin["beta"].failures[0]
        assert failure.file == "<plugin>"
        assert not failure.completed
        assert "deadline" in failure.reason
        assert result.telemetry.timeouts == 1
        assert not by_plugin["alpha"].failures


class TestPersistentCache:
    def test_warm_rerun_hit_rate(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plugins = small_plugins()
        cold = scan_corpus(plugins, jobs=2, cache_dir=cache_dir)
        warm = scan_corpus(plugins, jobs=2, cache_dir=cache_dir)
        cache = warm.telemetry.cache_totals()
        assert cache["hit_rate"] > 0.9
        assert cache["hits"] >= 4
        assert finding_keys(cold.reports) == finding_keys(warm.reports)

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plugins = small_plugins()
        scan_corpus(plugins, jobs=1, cache_dir=cache_dir)
        warm = scan_corpus(plugins, jobs=2, cache_dir=cache_dir)
        assert warm.telemetry.cache_totals()["hit_rate"] > 0.9


class TestTelemetry:
    def test_schema_and_write(self, tmp_path):
        plugins = small_plugins()
        result = scan_corpus(plugins, jobs=1)
        payload = result.telemetry.to_dict()
        assert payload["schema"] == SCHEMA
        for key in ("jobs", "wall_seconds", "files_per_second", "cache",
                    "incidents", "plugins"):
            assert key in payload
        assert len(payload["plugins"]) == len(plugins)
        assert payload["plugins"][0]["outcome"] == "ok"
        out = tmp_path / "telemetry.json"
        result.telemetry.write(str(out))
        assert json.loads(out.read_text())["schema"] == SCHEMA

    def test_wall_time_and_throughput(self):
        result = scan_corpus(small_plugins(), jobs=1)
        assert result.telemetry.wall_seconds > 0
        assert result.telemetry.total_files == 4
        assert result.telemetry.files_per_second > 0


class TestToolSpec:
    def test_from_tool_roundtrip(self):
        tool = PhpSafe()
        spec = ToolSpec.from_tool(tool)
        assert spec is not None
        rebuilt = spec.build()
        assert rebuilt.profile.name == tool.profile.name
        assert rebuilt.options == tool.options

    def test_from_tool_rejects_custom_profile(self):
        from repro.config import generic_php

        tool = PhpSafe(profile=generic_php("custom-cms"))
        assert ToolSpec.from_tool(tool) is None

    def test_baseline_specs(self):
        from repro.baselines import PixyLike, RipsLike

        assert ToolSpec.from_tool(RipsLike()).name == "rips"
        assert ToolSpec.from_tool(PixyLike()).name == "pixy"

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError):
            ToolSpec(name="nonesuch").build()


class TestMergedReport:
    def test_merged_report_keeps_cross_plugin_findings(self):
        plugins = [
            Plugin(name="one", files={"index.php": "<?php echo $_GET['x'];"}),
            Plugin(name="two", files={"index.php": "<?php echo $_GET['y'];"}),
        ]
        result = scan_corpus(plugins, jobs=1)
        merged = result.merged_report()
        # both plugins flag index.php:1 — provenance keeps them distinct
        assert len(merged.findings) == 2
        assert {finding.plugin for finding in merged.findings} == {"one", "two"}

    def test_empty_batch(self):
        result = BatchScanner(options=BatchOptions(jobs=1)).scan([])
        assert result.reports == []
        assert result.merged_report() is None
