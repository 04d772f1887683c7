"""Tests for the incremental parse cache (memory LRU + disk tier) and
the process-wide L1 artifact cache."""

import hashlib

from repro.batch import DiskModelCache
from repro.core import ModelCache, PhpSafe
from repro.core.cache import content_key
from repro.core.model import PluginModel
from repro.core.phpsafe import process_cache
from repro.core.results import finding_signatures
from repro.php.errors import PhpParseError
from repro.plugin import Plugin

SOURCE = "<?php echo $_GET['q'];"

# one source exercising interpolation, reference groups,
# ``global``/``static`` write-through, null coalescing, sanitizers,
# OOP property flow and cacheable function summaries
FLOW_SOURCE = """<?php
function render($x) { echo "<b>$x</b>"; }
$a = $_GET['q'];
$b =& $a;
echo $b;
echo htmlentities($_GET['w']);
$c = $_POST['p'] ?? 'default';
mysql_query("SELECT * FROM t WHERE x = $c");
render($_GET['r']);
class Box {
    public $v;
    function set($x) { $this->v = $x; }
    function show() { echo $this->v; }
}
$box = new Box();
$box->set($_GET['z']);
$box->show();
function accumulate() {
    static $s = '';
    $s = $s . $_GET['acc'];
    echo $s;
}
accumulate();
accumulate();
"""


class TestModelCache:
    def test_hit_after_store(self):
        cache = ModelCache()
        plugin = Plugin(name="p", files={"a.php": SOURCE})
        PluginModel.build(plugin, cache=cache)
        assert cache.stats.misses == 1
        PluginModel.build(plugin, cache=cache)
        assert cache.stats.hits == 1

    def test_content_change_misses(self):
        cache = ModelCache()
        PluginModel.build(Plugin(name="p", files={"a.php": SOURCE}), cache=cache)
        PluginModel.build(
            Plugin(name="p", files={"a.php": SOURCE + " echo 1;"}), cache=cache
        )
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_same_content_different_path_misses(self):
        # includes resolve by path, so the key is path-sensitive
        cache = ModelCache()
        PluginModel.build(Plugin(name="p", files={"a.php": SOURCE}), cache=cache)
        PluginModel.build(Plugin(name="p", files={"b.php": SOURCE}), cache=cache)
        assert cache.stats.misses == 2

    def test_parse_failures_cached(self):
        cache = ModelCache()
        plugin = Plugin(name="p", files={"bad.php": "<?php $a = ;"})
        first = PluginModel.build(plugin, cache=cache)
        second = PluginModel.build(plugin, cache=cache)
        assert "bad.php" in first.parse_failures
        assert "bad.php" in second.parse_failures
        assert cache.stats.hits == 1

    def test_eviction_bounds_size(self):
        cache = ModelCache(max_entries=4)
        for index in range(10):
            plugin = Plugin(name="p", files={f"f{index}.php": SOURCE})
            PluginModel.build(plugin, cache=cache)
        assert len(cache) <= 4

    def test_clear(self):
        cache = ModelCache()
        PluginModel.build(Plugin(name="p", files={"a.php": SOURCE}), cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 0


class TestLruEviction:
    def test_capacity_is_exactly_max_entries(self):
        cache = ModelCache(max_entries=3)
        for index in range(3):
            cache.store(f"f{index}.php", SOURCE, object())
        # the cache holds max_entries entries, not max_entries - 1
        assert len(cache) == 3
        assert cache.stats.evictions == 0
        cache.store("f3.php", SOURCE, object())
        assert len(cache) == 3
        assert cache.stats.evictions == 1

    def test_hit_touches_entry(self):
        cache = ModelCache(max_entries=2)
        cache.store("a.php", SOURCE, object())
        cache.store("b.php", SOURCE, object())
        # touching `a` makes `b` the LRU victim of the next insert
        model, _error = cache.lookup("a.php", SOURCE)
        assert model is not None
        cache.store("c.php", SOURCE, object())
        assert cache.lookup("a.php", SOURCE)[0] is not None
        assert cache.lookup("b.php", SOURCE) == (None, None)

    def test_untouched_entry_evicted_fifo(self):
        cache = ModelCache(max_entries=2)
        cache.store("a.php", SOURCE, object())
        cache.store("b.php", SOURCE, object())
        cache.store("c.php", SOURCE, object())
        assert cache.lookup("a.php", SOURCE) == (None, None)
        assert cache.lookup("b.php", SOURCE)[0] is not None

    def test_failure_entries_share_the_budget_and_evict(self):
        cache = ModelCache(max_entries=2)
        cache.store_failure("bad.php", "x", PhpParseError("nope", "bad.php", 1))
        cache.store("a.php", SOURCE, object())
        cache.store("b.php", SOURCE, object())  # evicts the failure (LRU)
        assert len(cache) == 2
        assert cache.lookup("bad.php", "x") == (None, None)
        assert cache.lookup("a.php", SOURCE)[0] is not None

    def test_restore_refreshes_instead_of_evicting(self):
        cache = ModelCache(max_entries=2)
        cache.store("a.php", SOURCE, object())
        cache.store("b.php", SOURCE, object())
        cache.store("a.php", SOURCE, object())  # refresh, not a new entry
        assert len(cache) == 2
        assert cache.stats.evictions == 0


class TestDiskModelCache:
    def test_disk_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plugin = Plugin(name="p", files={"a.php": SOURCE})
        first = DiskModelCache(cache_dir)
        PluginModel.build(plugin, cache=first)
        assert first.disk_len() == 1
        # a fresh process would construct a new cache over the same dir
        second = DiskModelCache(cache_dir)
        model = PluginModel.build(plugin, cache=second)
        assert second.stats.hits == 1
        assert second.stats.disk_hits == 1
        assert second.stats.misses == 0
        assert "a.php" in model.files

    def test_failure_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plugin = Plugin(name="p", files={"bad.php": "<?php $a = ;"})
        PluginModel.build(plugin, cache=DiskModelCache(cache_dir))
        second = DiskModelCache(cache_dir)
        model = PluginModel.build(plugin, cache=second)
        assert "bad.php" in model.parse_failures
        error = model.parse_failures["bad.php"]
        assert error.filename == "bad.php"  # structured fields survive pickling
        assert second.stats.disk_hits == 1

    def test_memory_eviction_keeps_disk_object(self, tmp_path):
        cache = DiskModelCache(str(tmp_path / "cache"), max_entries=1)
        cache.store("a.php", SOURCE, {"model": "a"})
        cache.store("b.php", SOURCE, {"model": "b"})  # evicts `a` from memory
        assert len(cache) == 1
        model, _error = cache.lookup("a.php", SOURCE)  # served from disk
        assert model == {"model": "a"}
        assert cache.stats.disk_hits == 1

    def test_corrupted_object_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cache = DiskModelCache(cache_dir)
        cache.store("a.php", SOURCE, {"model": "a"})
        path = cache._object_path(content_key("a.php", SOURCE))
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        fresh = DiskModelCache(cache_dir)
        assert fresh.lookup("a.php", SOURCE) == (None, None)
        assert fresh.stats.misses == 1

    def test_model_from_older_front_end_is_not_served(self, tmp_path):
        # A store written before the front-end format entered the key
        # (``path:digest``) holds models that carry their token list
        # and leave "\x41" undecoded; they must miss and be re-parsed.
        cache_dir = str(tmp_path / "cache")
        source = '<?php echo "\\x41";'
        fresh = PluginModel.build(
            Plugin(name="p", files={"a.php": source})
        ).files["a.php"]
        stale_source = '<?php echo "\\\\x41";'  # parses to the old value
        stale = PluginModel.build(
            Plugin(name="p", files={"a.php": stale_source})
        ).files["a.php"]
        stale.source = source
        stale.tokens = ["stale token"]
        old_key = "a.php:" + hashlib.sha256(source.encode()).hexdigest()
        DiskModelCache(cache_dir)._write_object(old_key, (stale, None))
        cache = DiskModelCache(cache_dir)
        model = PluginModel.build(
            Plugin(name="p", files={"a.php": source}), cache=cache
        )
        served = model.files["a.php"]
        assert cache.stats.disk_hits == 0 and cache.stats.misses == 1
        assert not hasattr(served, "tokens")
        assert repr(served.tree) == repr(fresh.tree)
        assert served.tree.statements[0].exprs[0].value == "A"

    def test_clear_drops_disk_tier(self, tmp_path):
        cache = DiskModelCache(str(tmp_path / "cache"))
        cache.store("a.php", SOURCE, {"model": "a"})
        cache.clear()
        assert cache.disk_len() == 0
        assert DiskModelCache(str(tmp_path / "cache")).lookup("a.php", SOURCE) == (
            None,
            None,
        )

    def test_analysis_through_disk_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plugin = Plugin(name="p", files={"a.php": SOURCE})
        plain = PhpSafe().analyze(plugin)
        warm = PhpSafe(cache_dir=cache_dir).analyze(plugin)
        rerun = PhpSafe(cache_dir=cache_dir).analyze(plugin)
        keys = lambda report: sorted(f.key for f in report.findings)
        assert keys(plain) == keys(warm) == keys(rerun)


class TestCachedAnalysis:
    def test_same_findings_with_and_without_cache(self):
        plugin = Plugin(
            name="p",
            files={
                "a.php": "<?php echo $_GET['x']; echo esc_html($_GET['y']);",
                "b.php": "<?php function hook() { echo $_POST['z']; }",
            },
        )
        plain = PhpSafe().analyze(plugin)
        cache = ModelCache()
        cached_tool = PhpSafe(cache=cache)
        first = cached_tool.analyze(plugin)
        second = cached_tool.analyze(plugin)  # fully from cache
        keys = lambda report: sorted(f.key for f in report.findings)
        assert keys(plain) == keys(first) == keys(second)
        assert cache.stats.hits >= 2

    def test_cache_shared_across_tools(self):
        cache = ModelCache()
        plugin = Plugin(name="p", files={"a.php": SOURCE})
        PhpSafe(cache=cache).analyze(plugin)
        PhpSafe(cache=cache).analyze(plugin)
        assert cache.stats.hit_rate >= 0.5


def _flow_signatures(tool: PhpSafe) -> frozenset:
    plugin = Plugin(name="flow", files={"a.php": FLOW_SOURCE})
    return frozenset(finding_signatures([tool.analyze(plugin)]))


class TestProcessCache:
    def test_default_tools_share_the_process_cache(self):
        shared = process_cache()
        assert PhpSafe().cache is shared
        assert PhpSafe().cache is shared

    def test_explicit_cache_wins(self):
        cache = ModelCache()
        assert PhpSafe(cache=cache).cache is cache

    def test_opt_out_disables_caching(self):
        assert PhpSafe(use_process_cache=False).cache is None

    def test_opt_out_parity(self):
        cached = _flow_signatures(PhpSafe())
        uncached = _flow_signatures(PhpSafe(use_process_cache=False))
        assert cached == uncached

    def test_second_tool_hits_shared_artifacts(self):
        # a unique source so other tests can't have warmed these slots
        source = FLOW_SOURCE + "\n<?php echo $_GET['process_cache_probe'];\n"
        plugin = Plugin(name="pc", files={"probe.php": source})
        shared = process_cache()
        PhpSafe().analyze(plugin)
        hits_before = shared.stats.hits
        summary_hits_before = shared.summary_stats.hits
        PhpSafe().analyze(plugin)
        assert shared.stats.hits > hits_before
        assert shared.summary_stats.hits > summary_hits_before
