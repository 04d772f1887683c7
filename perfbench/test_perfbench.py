"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile

import pytest

from perfbench import run as runner
from perfbench import workloads
from perfbench.edits import Editor, edit_targets, flow_share
from perfbench.hostspeed import REFERENCE_PROBE_S, HostSpeed
from perfbench.oracle import (
    OracleError,
    TruthIndex,
    check_in_range,
    score_stress,
    stress_sinks,
)
from perfbench.spans import ROOT, Tracer, covered, self_times
from perfbench.stats import tail
from repro.core.phpsafe import PhpSafe
from repro.corpus.generator import build_both, build_corpus
from repro.evaluation.metrics import Confusion
from repro.evaluation.runner import evaluate_version
from repro.corpus.stress import StressTier, iter_stress_plugins
from repro.plugin import Plugin

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")
SMALL_TIER = StressTier(name="bench-test", tiny_plugins=4, tiny_loc=40, chain_plugins=1,
                        chain_depth=4, chain_loc=20, huge_plugins=1, huge_loc=300,
                        streaming_rss_mb=256)


def spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# -- percentile rule -----------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    value, percentile, samples = tail(values)
    assert (value, percentile, samples) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_needs_more_than_ten_samples():
    assert tail(list(range(11)))[0] == 0
    with pytest.raises(ValueError):
        tail(list(range(10)))


# -- span self time ---------------------------------------------------------------


def test_covered_is_the_union_clipped_to_the_parent():
    assert covered((0, 10), [(1, 3), (2, 5), (9, 12)]) == 5
    assert covered((0, 10), []) == 0


def test_self_time_is_parent_minus_covered_child_interval():
    spans = [
        (1, None, ROOT, 0.0, 10.0, {}),
        (2, 1, "model", 1.0, 5.0, {}),
        (3, 2, "lexer", 1.5, 2.5, {}),
        (4, 2, "parser", 2.5, 3.0, {}),
        (5, 1, "engine", 6.0, 9.0, {"ir": 1.0}),
    ]
    selfs = self_times(spans)
    assert selfs == {ROOT: 3.0, "model": 2.5, "lexer": 1.0, "parser": 0.5,
                     "engine": 2.0, "ir": 1.0}
    assert sum(selfs.values()) == 10.0


def test_tracer_attributes_the_whole_wall():
    class Layer:
        def inner(self):
            return sum(range(1000))

        def outer(self):
            return self.inner() + self.inner()

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    try:
        with tracer.span():
            Layer().outer()
    finally:
        tracer.uninstall()
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")
    parents = {span[2]: span[1] for span in tracer.spans}
    ids = {span[2]: span[0] for span in tracer.spans}
    assert parents["outer"] == ids[ROOT] and parents["inner"] == ids["outer"]
    selfs = tracer.layer_self_times()
    assert abs(sum(selfs.values()) - tracer.wall()) < 1e-9


# -- host speed -------------------------------------------------------------------


def test_reference_seconds_scale_wall_time_by_the_probe():
    speed = HostSpeed()
    half = REFERENCE_PROBE_S / 2  # the host ran twice as fast as the reference
    speed.samples = [(10.0, half), (12.0, REFERENCE_PROBE_S), (14.0, REFERENCE_PROBE_S)]
    # before the first and after the last sample, that sample's speed
    assert speed.reference_seconds(8.0, 9.0) == pytest.approx(2.0)
    assert speed.reference_seconds(15.0, 17.0) == pytest.approx(2.0)
    # between two samples, the mean of their probe times
    assert speed.reference_seconds(10.0, 12.0) == pytest.approx(2 / 0.75)
    assert speed.reference_seconds(12.5, 13.5) == pytest.approx(1.0)
    assert speed.reference_seconds(9.0, 14.0) == pytest.approx(2.0 + 2 / 0.75 + 2.0)
    with pytest.raises(ValueError):
        HostSpeed().reference_seconds(0.0, 1.0)


def test_samples_are_at_least_an_interval_apart():
    speed = HostSpeed()
    speed.sample()
    speed.sample()  # within the interval of the first: no probe
    assert len(speed.samples) == 1


# -- oracles ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus():
    return build_corpus("2014", scale=0.02)


def test_flow_share_is_the_ground_truths():
    truth = build_corpus("2014", scale=0.25).truth
    assert (truth.vulnerable_count(), len(truth.entries)) == (586, 858)
    assert flow_share(truth) == 586 / 858


def test_oracle_rejects_tampered_findings(small_corpus):
    plugin = small_corpus.plugins[0]
    report = PhpSafe(use_process_cache=False).analyze(plugin)
    truth = TruthIndex([small_corpus.truth])
    troubled = {f.file for f in report.failures} | {i.file for i in report.incidents}
    targets = edit_targets(plugin, troubled)
    editor = Editor([plugin], {plugin.name: targets[:1]}, flow_share(small_corpus.truth))
    # the first seed whose edit is a flow (every edit rewrites the one line)
    edited, injections = next(
        edit for edit in (editor.edit(plugin.name, random.Random(seed), seed)
                          for seed in range(100))
        if edit[1][0].tainted)
    found = frozenset((f.kind.value, f.file, f.line)
                      for f in PhpSafe(use_process_cache=False).analyze(edited).findings)
    score = truth.score(small_corpus.version, plugin.name, found, injections)
    assert score.expected == truth.vulnerable.get((small_corpus.version, plugin.name), 0)
    flow = ("xss", injections[0].path, injections[0].line)
    with pytest.raises(OracleError):  # an injected flow went missing
        truth.score(small_corpus.version, plugin.name, found - {flow}, injections)
    benign = [type(injections[0])(flow[1], flow[2], False, "echo esc_html($x);")]
    with pytest.raises(OracleError):  # a sanitized line was reported
        truth.score(small_corpus.version, plugin.name, found, benign)
    with pytest.raises(OracleError):  # a line past the end of the file
        check_in_range(plugin, {("xss", flow[1], 10 ** 6)})


def test_paper_score_equals_the_evaluation(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SCALE", 0.02)
    workload = workloads.PaperCold(3, str(tmp_path), "")
    workload.setup()
    score = workload.phase(0.0, None).score
    exact = Confusion()
    for corpus in build_both(0.02):
        evaluation = evaluate_version(corpus, [PhpSafe(use_process_cache=False)])
        exact = exact + evaluation.confusion("phpSAFE", convention="exact")
    assert score.expected > 0 and score.fp > 0
    assert (score.recall, score.precision) == (exact.recall, exact.precision)


def test_failed_operations_are_left_out_of_the_figures(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SCALE", 0.02)
    workload = workloads.PaperCold(3, str(tmp_path), "")
    workload.setup()
    broken = workload.items[0][1]
    analyze = PhpSafe.analyze

    def failing(tool, plugin, *args, **kwargs):
        if plugin is broken:
            raise RuntimeError("analysis failed")
        return analyze(tool, plugin, *args, **kwargs)

    monkeypatch.setattr(PhpSafe, "analyze", failing)
    phase = workload.phase(0.0, None)
    plugins = len(workload.items)
    assert phase.failed == phase.passes
    assert len(phase.ops) == phase.passes * (plugins - 1)
    assert phase.attempted == phase.passes * plugins
    assert phase.loc == phase.passes * (sum(workload.loc.values()) - broken.loc)


def test_stress_oracle_locates_every_seeded_flow():
    plugins = list(iter_stress_plugins(SMALL_TIER, seed=5))
    sinks = {p.name: stress_sinks(p) for p in plugins}
    assert sum(map(len, sinks.values())) == SMALL_TIER.expected_findings
    tool = PhpSafe(use_process_cache=False)
    for plugin in plugins:
        found = frozenset((f.kind.value, f.file, f.line)
                          for f in tool.analyze(plugin).findings)
        assert score_stress(sinks[plugin.name], found).recall == 1.0
        tampered = score_stress(sinks[plugin.name], found - {min(found)})
        assert tampered.detected < tampered.expected


def test_stress_oracle_ignores_unseeded_echoes():
    plugin = Plugin(name="p", files={"p.php": "<?php\necho $value;\n"})
    assert stress_sinks(plugin) == frozenset()


# -- metric names -----------------------------------------------------------------


def test_printed_metric_names_equal_the_declared_ones():
    declared = spec()
    phase = workloads.Phase(start=0.0, end=1.0, loc=1000,
                            ops=[(0.0, 0.01 * i) for i in range(1, 30)])
    tracer = Tracer()
    with tracer.span():
        pass
    layers = workloads.layer_metrics(phase, tracer, overhead=0.0)
    assert sorted(layers) == sorted(m["name"] for m in declared["per_layer"])
    speed = HostSpeed()
    speed.samples = [(0.0, REFERENCE_PROBE_S)]
    summary = workloads._phase_summary(phase, speed)
    e2e, _lines = runner.end_to_end({"untraced": summary, "setup_s": [1.0, 2.0, 3.0],
                                     "setup_wall_s": [1.0, 2.0, 3.0], "peak_rss_mb": 100.0})
    assert sorted(e2e) == sorted(m["name"] for m in declared["end_to_end"])
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared["workloads"])


# -- deterministic counters ---------------------------------------------------------


def _counts(cls, seed, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SCALE", 0.02)
    monkeypatch.setattr(workloads, "get_tier", lambda _name: SMALL_TIER)
    tmp_path.mkdir()
    workload = cls(seed, str(tmp_path), "")
    try:
        workload.setup()
        phase = workload.phase(0.0, None)
    finally:
        workload.close()
    assert phase.failed == 0
    return workloads.deterministic_counts(phase)


@pytest.mark.parametrize("cls", [workloads.PaperCold, workloads.StressStream])
def test_work_counters_repeat_for_a_seed(cls, tmp_path, monkeypatch):
    first = _counts(cls, 3, tmp_path / "a", monkeypatch)
    assert first == _counts(cls, 3, tmp_path / "b", monkeypatch)
    assert first["files_parsed"] > 0 and first["engine_steps"] > 0


def test_seeded_finding_counts_hold_on_a_fresh_seed(tmp_path, monkeypatch):
    # the stress oracle raises unless every seeded flow is reported
    stress = _counts(workloads.StressStream, 20261017, tmp_path / "s", monkeypatch)
    assert stress["findings"] == SMALL_TIER.expected_findings
    paper = [_counts(workloads.PaperCold, seed, tmp_path / str(seed), monkeypatch)
             for seed in (3, 20261017)]
    assert paper[0]["findings"] == paper[1]["findings"]


def test_reap_all_stops_orphaned_descendants():
    # a child that leaves a long sleeper behind, reparented to the subreaper
    script = (
        "import ctypes, os, subprocess, sys\n"
        "from perfbench import run\n"
        "ctypes.CDLL(None).prctl(run._PR_SET_CHILD_SUBREAPER, 1)\n"
        "subprocess.run(['sh', '-c', 'sleep 60 & echo $!'], check=True,\n"
        "               stdout=open('orphan.pid', 'w'))\n"
        "assert run._live_children(), 'the sleeper was not adopted'\n"
        "run.reap_all()\n"
        "assert not run._live_children()\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    sys.exit('a child was left to reap')\n"
        "except ChildProcessError:\n"
        "    pass\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
    with tempfile.TemporaryDirectory() as scratch:
        subprocess.run([sys.executable, "-c", script], cwd=scratch, env=env, check=True,
                       timeout=30)
        with open(os.path.join(scratch, "orphan.pid")) as handle:
            orphan = int(handle.read())
    assert not os.path.exists(f"/proc/{orphan}")
