"""Engine behaviour: control flow — branches joined, loops, includes."""

from repro.config.vulnerability import VulnKind

from tests.helpers import analyze, findings_of


def xss(source):
    return [f for f in findings_of(source) if f.kind is VulnKind.XSS]


class TestBranchJoin:
    def test_taint_in_one_branch_survives_join(self):
        source = "<?php $x = 'safe'; if ($c) { $x = $_GET['a']; } echo $x;"
        assert xss(source)

    def test_clean_assignment_in_branch_does_not_kill(self):
        # "the analysis takes into account all possible paths" — the
        # untainted else-path must not erase the tainted then-path
        source = (
            "<?php $x = $_GET['a'];"
            "if ($c) { $x = 'safe'; } echo $x;"
        )
        assert xss(source)

    def test_clean_on_both_paths_is_clean(self):
        source = (
            "<?php $x = $_GET['a'];"
            "if ($c) { $x = 'safe'; } else { $x = 'also'; } echo $x;"
        )
        assert not xss(source)

    def test_elseif_branches_joined(self):
        source = (
            "<?php $x = 'safe';"
            "if ($a) { $x = 1; } elseif ($b) { $x = $_COOKIE['c']; } echo $x;"
        )
        assert xss(source)

    def test_switch_cases_joined(self):
        source = (
            "<?php $x = 'safe'; switch ($m) {"
            "case 1: $x = 'ok'; break;"
            "case 2: $x = $_GET['v']; break; } echo $x;"
        )
        assert xss(source)

    def test_ternary_branches_joined(self):
        assert xss("<?php $x = $c ? 'safe' : $_GET['a']; echo $x;")

    def test_short_ternary(self):
        assert xss("<?php $x = $_GET['a'] ?: 'fallback'; echo $x;")

    def test_try_catch_joined(self):
        source = (
            "<?php $x = 'safe';"
            "try { $x = $_GET['a']; } catch (Exception $e) { $x = 'e'; } echo $x;"
        )
        assert xss(source)

    def test_condition_itself_evaluated(self):
        # assignment inside a condition still happens
        assert xss("<?php if ($x = $_GET['a']) { } echo $x;")


class TestLoops:
    def test_while_body_analyzed(self):
        assert xss("<?php while ($c) { echo $_GET['x']; }")

    def test_loop_carried_taint(self):
        # taint flows $a -> $b across iterations (needs two passes)
        source = "<?php $a = $_GET['x']; while ($c) { echo $b; $b = $a; }"
        assert xss(source)

    def test_accumulator_pattern(self):
        source = "<?php $out = ''; foreach ($ks as $k) { $out .= $_GET['v']; } echo $out;"
        assert xss(source)

    def test_for_loop_update_evaluated(self):
        assert xss("<?php for ($i = 0; $i < 3; $i = $_GET['n']) { } echo $i;")

    def test_do_while(self):
        assert xss("<?php do { echo $_POST['x']; } while ($c);")

    def test_foreach_value_inherits_subject_taint(self):
        source = "<?php $rows = mysql_fetch_array($r); foreach ($rows as $v) { echo $v; }"
        assert xss(source)

    def test_foreach_key_inherits_subject_taint(self):
        source = "<?php $data = $_POST['all']; foreach ($data as $k => $v) { echo $k; }"
        assert xss(source)

    def test_foreach_over_clean_is_clean(self):
        assert not xss("<?php foreach (array(1, 2) as $v) { echo $v; }")


class TestJoinKeepsAliasesAndStatics:
    """A ``=&`` alias or ``static`` declaration made on one path of a
    branch or loop holds after the join, as it does without the branch."""

    def test_alias_made_in_branch(self):
        assert xss("<?php if ($c) { $b =& $a; } $a = $_GET['x']; echo $b;")

    def test_alias_made_in_foreach(self):
        assert xss(
            "<?php foreach ($rows as $r) { $b =& $a; } $a = $_GET['x']; echo $b;"
        )

    def test_clean_write_through_branch_alias_keeps_taint(self):
        # the alias holds on one path only: on the other, $a keeps its
        # tainted value, so the write through $b must not erase it
        assert xss(
            "<?php $a = $_GET['x']; if ($c) { $b =& $a; } $b = 'safe'; echo $a;"
        )

    def test_clean_write_through_loop_alias_keeps_taint(self):
        assert xss(
            "<?php $a = $_GET['x']; foreach ($rows as $r) { $b =& $a; }"
            " $b = 'safe'; echo $a;"
        )

    def test_alias_groups_of_two_branches_stay_apart(self):
        # $a~$b on one path, $b~$d on the other: no path aliases $a, $d
        source = (
            "<?php if ($c) { $b =& $a; } else { $d =& $b; }"
            " $a = $_GET['x']; echo $d;"
        )
        assert not xss(source)
        assert xss(source.replace("echo $d", "echo $b"))

    def test_alias_on_every_path_stays_strong(self):
        source = (
            "<?php $a = $_GET['x']; if ($c) { $b =& $a; } else { $b =& $a; }"
            " $b = 'safe'; echo $a;"
        )
        assert not xss(source)

    def test_rebinding_leaves_the_old_slot(self):
        # `$b =& $c` moves $b to $c's slot; $a keeps its own value
        assert xss("<?php $a = $_GET['x']; $b =& $a; $b =& $c; $c = 'safe'; echo $a;")

    def test_unaliased_names_stay_apart(self):
        assert not xss("<?php if ($c) { $b =& $a; } $d = $_GET['x']; echo $b;")

    def test_static_declared_in_branch(self):
        body = "if ($c) { static $s; } echo $s; $s = $v;"
        source = "<?php function f($v) { %s }\nf($_GET['a']); f('x');"
        plain = xss(source % body.replace("if ($c) { static $s; }", "static $s;"))
        assert plain and [f.line for f in plain] == [1]
        assert [f.line for f in xss(source % body)] == [1]


class TestIncludes:
    def test_include_inlines_target_file(self):
        from repro.core import PhpSafe
        from repro.plugin import Plugin

        plugin = Plugin(
            name="p",
            files={
                "main.php": "<?php $id = $_GET['id']; include 'show.php';",
                "show.php": "<?php echo $id;",
            },
        )
        report = PhpSafe().analyze(plugin)
        # the sink fires when show.php is inlined with $id tainted
        assert any(f.file == "show.php" for f in report.findings)

    def test_include_cycle_terminates(self):
        from repro.core import PhpSafe
        from repro.plugin import Plugin

        plugin = Plugin(
            name="p",
            files={
                "a.php": "<?php include 'b.php'; echo $_GET['x'];",
                "b.php": "<?php include 'a.php';",
            },
        )
        report = PhpSafe().analyze(plugin)
        assert report.findings  # terminated and still found the flow

    def test_dirname_file_idiom_resolves(self):
        from repro.core import PhpSafe
        from repro.plugin import Plugin

        plugin = Plugin(
            name="p",
            files={
                "admin/panel.php": (
                    "<?php $v = $_GET['v'];"
                    "require_once(dirname(__FILE__) . '/../inc/render.php');"
                ),
                "inc/render.php": "<?php echo $v;",
            },
        )
        report = PhpSafe().analyze(plugin)
        assert any(f.file == "inc/render.php" for f in report.findings)


class TestGlobals:
    def test_global_statement_links_scopes(self):
        source = (
            "<?php $cfg = $_GET['c'];"
            "function show() { global $cfg; echo $cfg; } show();"
        )
        assert xss(source)

    def test_global_write_visible_at_main(self):
        source = (
            "<?php function init() { global $v; $v = $_POST['x']; }"
            "init(); echo $v;"
        )
        assert xss(source)

    # a function called on a top-level path writes its `global` names
    # into that path's state, whichever branch it sits in
    SET_X = "function f() { global $x; $x = $_GET['a']; } "

    def test_global_written_in_last_branch_survives_join(self):
        source = "<?php " + self.SET_X + "if ($c) { $y = 1; } else { f(); } echo $x;"
        assert xss(source)

    def test_global_written_in_branch_read_in_same_branch(self):
        assert xss("<?php " + self.SET_X + "if ($c) { f(); echo $x; }")

    def test_global_written_in_loop_read_in_loop(self):
        assert xss("<?php " + self.SET_X + "foreach ($rows as $r) { f(); echo $x; }")

    def test_local_does_not_leak_to_global(self):
        source = (
            "<?php function f() { $loc = $_GET['x']; } f(); echo $loc;"
        )
        assert not xss(source)


class TestRobustness:
    def test_parse_failure_recorded_not_raised(self):
        report = analyze("<?php $a = ;")
        assert report.failures
        assert not report.findings

    def test_other_files_still_analyzed_after_failure(self):
        from repro.core import PhpSafe
        from repro.plugin import Plugin

        plugin = Plugin(
            name="p",
            files={"bad.php": "<?php $a = ;", "good.php": "<?php echo $_GET['x'];"},
        )
        report = PhpSafe().analyze(plugin)
        assert report.findings
        # default mode recovers bad.php (recorded incident, no skip)
        assert report.failed_files == []
        assert any(
            incident.file == "bad.php" and incident.recovered
            for incident in report.incidents
        )

    def test_other_files_still_analyzed_after_failure_strict(self):
        from repro.core import PhpSafe, PhpSafeOptions
        from repro.plugin import Plugin

        plugin = Plugin(
            name="p",
            files={"bad.php": "<?php $a = ;", "good.php": "<?php echo $_GET['x'];"},
        )
        report = PhpSafe(options=PhpSafeOptions(recover=False)).analyze(plugin)
        assert report.findings
        assert report.failed_files == ["bad.php"]

    def test_include_budget_failure(self):
        from repro.core import PhpSafe, PhpSafeOptions
        from repro.plugin import Plugin

        big = "<?php\n" + "\n".join(
            f"function pad_{i}() {{ return '{'x' * 100}'; }}" for i in range(300)
        )
        plugin = Plugin(
            name="p",
            files={
                "huge/lib.php": big,
                "panel.php": "<?php include 'huge/lib.php'; echo $_GET['x'];",
            },
        )
        options = PhpSafeOptions(include_budget=10_000)
        report = PhpSafe(options=options).analyze(plugin)
        assert "panel.php" in report.failed_files
        # the flow inside the failed file is missed (paper Section V.E)
        assert not any(f.file == "panel.php" for f in report.findings)
