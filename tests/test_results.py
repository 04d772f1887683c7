"""Unit tests for findings, reports and the plugin container."""

import os

from repro.config.vulnerability import InputVector, VulnKind
from repro.core.results import FileFailure, Finding, ToolReport
from repro.plugin import Plugin


def finding(line=3, kind=VulnKind.XSS, file="a.php", **kwargs):
    return Finding(kind=kind, file=file, line=line, sink="echo", **kwargs)


class TestFinding:
    def test_key_identity(self):
        assert finding().key == ("xss", "a.php", 3)

    def test_primary_vector_prefers_lowest_tier(self):
        mixed = finding(vectors=(InputVector.DB, InputVector.GET))
        assert mixed.primary_vector is InputVector.GET
        db_only = finding(vectors=(InputVector.DB,))
        assert db_only.primary_vector is InputVector.DB
        assert finding().primary_vector is None

    def test_describe_contains_essentials(self):
        text = finding(vectors=(InputVector.GET,), variable="$x").describe()
        assert "XSS" in text and "a.php:3" in text and "GET" in text and "$x" in text


class TestToolReport:
    def test_add_finding_dedups_by_key(self):
        report = ToolReport(tool="t", plugin="p")
        assert report.add_finding(finding())
        assert not report.add_finding(finding(variable="different"))
        assert len(report.findings) == 1

    def test_different_kind_same_line_kept(self):
        report = ToolReport(tool="t", plugin="p")
        report.add_finding(finding())
        assert report.add_finding(finding(kind=VulnKind.SQLI))

    def test_findings_of(self):
        report = ToolReport(tool="t", plugin="p")
        report.add_finding(finding())
        report.add_finding(finding(kind=VulnKind.SQLI, line=9))
        assert len(report.findings_of(VulnKind.XSS)) == 1

    def test_failed_files_excludes_completed(self):
        report = ToolReport(tool="t", plugin="p")
        report.failures.append(FileFailure(file="a.php", reason="fatal"))
        report.failures.append(
            FileFailure(file="b.php", reason="warn", is_error=True, completed=True)
        )
        assert report.failed_files == ["a.php"]
        assert report.error_count == 1

    def test_merge(self):
        one = ToolReport(tool="t", plugin="p1", files_analyzed=2, loc_analyzed=10)
        one.add_finding(finding())
        two = ToolReport(tool="t", plugin="p2", files_analyzed=3, loc_analyzed=20)
        two.add_finding(finding())  # same key, but a *different* plugin
        two.add_finding(finding(line=99))
        merged = one.merged(two)
        assert len(merged.findings) == 3
        assert merged.files_analyzed == 5
        assert merged.loc_analyzed == 30

    def test_merged_keeps_cross_plugin_findings_sharing_file_names(self):
        """Regression: two plugins both shipping an ``index.php`` with a
        flaw at the same line used to collapse into one merged finding."""
        one = ToolReport(tool="t", plugin="plugin-a")
        one.add_finding(finding(file="index.php"))
        two = ToolReport(tool="t", plugin="plugin-b")
        two.add_finding(finding(file="index.php"))
        merged = one.merged(two)
        assert len(merged.findings) == 2
        assert sorted(f.plugin for f in merged.findings) == ["plugin-a", "plugin-b"]
        # per-plugin key semantics are untouched (truth matching uses it)
        assert merged.findings[0].key == merged.findings[1].key

    def test_merge_same_plugin_still_dedups(self):
        one = ToolReport(tool="t", plugin="p1")
        one.add_finding(finding())
        two = ToolReport(tool="t", plugin="p2")
        two.add_finding(finding(line=99))
        merged = one.merged(two)
        again = merged.merged(two)  # re-merging p2 must not double-count
        assert len(again.findings) == 2

    def test_chained_merge_preserves_provenance(self):
        reports = [ToolReport(tool="t", plugin=f"p{i}") for i in range(3)]
        for report in reports:
            report.add_finding(finding(file="index.php"))
        merged = reports[0].merged(reports[1]).merged(reports[2])
        assert len(merged.findings) == 3

    def test_add_finding_after_direct_assignment(self):
        # older call sites assign ``findings`` wholesale; the dedup index
        # must rebuild itself instead of trusting a stale set
        report = ToolReport(tool="t", plugin="p")
        report.findings = [finding()]
        assert not report.add_finding(finding())
        assert report.add_finding(finding(line=42))


class TestPlugin:
    def test_slug(self):
        assert Plugin(name="foo", version="1.2").slug == "foo@1.2"
        assert Plugin(name="foo").slug == "foo"

    def test_loc_and_file_count(self):
        plugin = Plugin(name="p", files={"a.php": "<?php\n$a = 1;\n"})
        assert plugin.file_count == 1
        assert plugin.loc == 2

    def test_iter_files_sorted(self):
        plugin = Plugin(name="p", files={"b.php": "2", "a.php": "1"})
        assert [path for path, _src in plugin.iter_files()] == ["a.php", "b.php"]

    def test_write_and_load_roundtrip(self, tmp_path):
        plugin = Plugin(
            name="demo",
            version="2.0",
            files={"demo.php": "<?php $a;\n", "inc/x.php": "<?php $b;\n"},
        )
        root = str(tmp_path)
        plugin_dir = plugin.write_to(root)
        assert os.path.isdir(plugin_dir)
        loaded = Plugin.load_from(plugin_dir, name="demo", version="2.0")
        assert loaded.files == plugin.files

    def test_load_ignores_non_php(self, tmp_path):
        (tmp_path / "readme.txt").write_text("hi")
        (tmp_path / "main.php").write_text("<?php $a;")
        loaded = Plugin.load_from(str(tmp_path))
        assert list(loaded.files) == ["main.php"]


class TestReportSeconds:
    """Every ``PhpSafe`` entry point times its own scan."""

    SOURCE = "<?php\nfunction f() { echo $_GET['q']; }\n"

    def test_analyze_source_sets_seconds(self):
        from repro.core import PhpSafe

        report = PhpSafe(use_process_cache=False).analyze_source(self.SOURCE)
        assert report.findings and report.seconds > 0

    def test_analyze_and_rescan_set_seconds(self):
        from repro.core import PhpSafe

        plugin = Plugin(name="p", files={"p.php": self.SOURCE})
        tool = PhpSafe(use_process_cache=False)
        assert tool.analyze(plugin).seconds > 0
        full, manifest, _stats = tool.rescan(plugin)
        assert full.seconds > 0
        incremental, _manifest, _stats = tool.rescan(plugin, manifest)
        assert incremental.seconds > 0
