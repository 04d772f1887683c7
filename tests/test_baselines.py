"""Behavioural tests for the RIPS-like and Pixy-like baselines.

Each test pins one capability difference the paper's comparison relies
on (Sections II, V.A, V.E).
"""

from repro.baselines import PixyLike, RipsLike
from repro.config.vulnerability import VulnKind
from repro.core import PhpSafe
from repro.plugin import Plugin

from tests.helpers import findings_of


def xss(source, tool):
    return [f for f in findings_of(source, tool) if f.kind is VulnKind.XSS]


def sqli(source, tool):
    return [f for f in findings_of(source, tool) if f.kind is VulnKind.SQLI]


class TestRipsCapabilities:
    def test_finds_procedural_flows(self):
        assert xss("<?php echo $_GET['x'];", RipsLike())

    def test_finds_uncalled_function_flows(self):
        # Section V.A: RIPS shares the plugin-entry-point feature
        assert xss("<?php function hook() { echo $_POST['v']; }", RipsLike())

    def test_blind_to_wpdb_source(self):
        source = "<?php $r = $wpdb->get_var('Q'); echo $r;"
        assert not xss(source, RipsLike())
        assert xss(source, PhpSafe())

    def test_blind_to_wpdb_sink(self):
        source = "<?php $wpdb->query('D WHERE x=' . $_GET['i']);"
        assert not sqli(source, RipsLike())
        assert sqli(source, PhpSafe())

    def test_blind_to_property_flows(self):
        source = (
            "<?php class W { public $d;"
            "public function a() { $this->d = $_GET['x']; }"
            "public function b() { echo $this->d; } }"
        )
        assert not xss(source, RipsLike())
        assert xss(source, PhpSafe())

    def test_scans_method_bodies_procedurally(self):
        # superglobal flows inside methods ARE in RIPS's reach
        source = "<?php class W { public function p() { echo $_GET['x']; } }"
        assert xss(source, RipsLike())

    def test_false_positive_on_wordpress_sanitizer(self):
        source = "<?php echo esc_html($_GET['x']);"
        assert xss(source, RipsLike())  # RIPS FP
        assert not xss(source, PhpSafe())

    def test_false_positive_on_absint_query(self):
        source = "<?php mysql_query('L ' . absint($_GET['n']));"
        assert sqli(source, RipsLike())  # the 2014 RIPS SQLi FP
        assert not sqli(source, PhpSafe())

    def test_knows_generic_php_sanitizers(self):
        assert not xss("<?php echo htmlentities($_GET['x']);", RipsLike())

    def test_never_fails_files(self):
        big = "<?php include 'lib.php'; echo $_GET['x'];"
        lib = "<?php " + "$pad = 'y';\n" * 20_000
        plugin = Plugin(name="p", files={"a.php": big, "lib.php": lib})
        rips = RipsLike().analyze(plugin)
        phpsafe = PhpSafe().analyze(plugin)
        assert not rips.failed_files
        assert phpsafe.failed_files  # phpSAFE's budget trips
        # RIPS finds the flow phpSAFE missed (the paper's 2014 effect)
        assert rips.findings


class TestPixyCapabilities:
    def test_finds_main_flow(self):
        assert xss("<?php echo $_GET['x'];", PixyLike())

    def test_skips_uncalled_functions(self):
        # Section V.A: "Pixy is unable to do so"
        assert not xss("<?php function hook() { echo $_POST['v']; }", PixyLike())

    def test_skips_method_bodies(self):
        source = "<?php class W { public function p() { echo $_GET['x']; } }"
        assert not xss(source, PixyLike())

    def test_register_globals_source(self):
        found = xss("<?php echo $uninitialized_skin;", PixyLike())
        assert found
        assert not xss("<?php echo $uninitialized_skin;", PhpSafe())

    def test_register_globals_source_inside_branch_and_loop(self):
        # a top-level branch or loop body still reads the global scope
        assert xss("<?php if ($c) { echo $skin; }", PixyLike())
        assert xss("<?php foreach ($rows as $r) { echo $skin; }", PixyLike())

    def test_initialized_variable_not_flagged(self):
        assert not xss("<?php $skin = 'blue'; echo $skin;", PixyLike())

    def test_fails_on_try_catch(self):
        plugin = Plugin(
            name="p",
            files={"compat.php": "<?php try { f(); } catch (Exception $e) {}"},
        )
        report = PixyLike().analyze(plugin)
        assert report.failed_files == ["compat.php"]
        assert report.error_count == 1

    def test_fails_on_closure_and_namespace(self):
        for body in ("$f = function () { return 1; };", "namespace X;"):
            plugin = Plugin(name="p", files={"f.php": f"<?php {body}"})
            assert PixyLike().analyze(plugin).failed_files

    def test_warns_on_final_but_completes(self):
        plugin = Plugin(
            name="p",
            files={"flags.php": "<?php final class F {}\necho $_GET['x'];"},
        )
        report = PixyLike().analyze(plugin)
        assert not report.failed_files  # completed
        assert report.error_count == 1  # but raised an error message
        assert report.findings  # and still analyzed the flow

    def test_failure_confines_to_file(self):
        plugin = Plugin(
            name="p",
            files={
                "bad.php": "<?php try { f(); } catch (E $e) {}",
                "good.php": "<?php echo $_GET['x'];",
            },
        )
        report = PixyLike().analyze(plugin)
        assert report.failed_files == ["bad.php"]
        assert report.findings

    def test_old_knowledge_base_misses_mysqli(self):
        # every input initialized so only the mysqli knowledge gap counts
        source = (
            "<?php $l = mysqli_connect('h'); $q = mysqli_query($l, 'S');"
            " $r = mysqli_fetch_assoc($q); echo $r['x'];"
        )
        assert not xss(source, PixyLike())
        assert xss(source, PhpSafe())


class TestToolInterface:
    def test_names(self):
        assert PhpSafe().name == "phpSAFE"
        assert RipsLike().name == "RIPS"
        assert PixyLike().name == "Pixy"

    def test_analyze_timed_sets_seconds(self):
        plugin = Plugin(name="p", files={"a.php": "<?php echo 1;"})
        report = RipsLike().analyze_timed(plugin)
        assert report.seconds > 0

    def test_reports_carry_loc_and_files(self):
        plugin = Plugin(name="p", files={"a.php": "<?php\n$a = 1;\n$b = 2;\n"})
        report = PixyLike().analyze(plugin)
        assert report.files_analyzed == 1
        assert report.loc_analyzed == 3
