"""Correctness oracles, independent of the analyzer under test.

- Paper corpora: findings are matched against the generator's
  :class:`~repro.corpus.spec.GroundTruth` with the evaluation's own
  matching rule (kind, file and sink line within the plugin).
- Edited versions add the benchmark's own lines (:mod:`perfbench.edits`):
  every tainted line must be reported, no benign line may be.
- Stress tiers: the seeded sinks are located in the generated source
  text, and each plugin must report exactly those.

A violation raises :class:`OracleError`; it is never folded into a
score.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.corpus.spec import GroundTruth
from repro.plugin import Plugin

from .edits import Injection

#: a reported finding as the oracles see it: (kind, file, line)
Located = Tuple[str, str, int]

XSS = "xss"


class OracleError(AssertionError):
    """The analyzer's output contradicts the workload's ground truth."""


@dataclass
class Score:
    """True/false positives and detected/expected vulnerable flows."""

    tp: int = 0
    fp: int = 0
    detected: int = 0
    expected: int = 0

    def add(self, other: "Score") -> None:
        self.tp += other.tp
        self.fp += other.fp
        self.detected += other.detected
        self.expected += other.expected

    @property
    def recall(self) -> float:
        return self.detected / self.expected if self.expected else 0.0

    @property
    def precision(self) -> float:
        reported = self.tp + self.fp
        return self.tp / reported if reported else 0.0


def check_in_range(plugin: Plugin, findings: Iterable[Located]) -> None:
    """Every finding must point at a line of a file of the plugin."""
    for kind, path, line in findings:
        source = plugin.files.get(path)
        if source is None:
            raise OracleError(f"{plugin.name}: finding in unknown file {path!r}")
        if not 1 <= line <= source.count("\n") + 1:
            raise OracleError(f"{plugin.name}: {kind} at {path}:{line} is past the end")


@dataclass
class TruthIndex:
    """Vulnerable-flow counts per plugin of one or more corpora."""

    truths: Sequence[GroundTruth]
    vulnerable: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for truth in self.truths:
            for entry in truth.vulnerabilities():
                key = (truth.version, entry.plugin)
                self.vulnerable[key] = self.vulnerable.get(key, 0) + 1

    def truth(self, version: str) -> GroundTruth:
        for truth in self.truths:
            if truth.version == version:
                return truth
        raise KeyError(version)

    def score(self, version: str, plugin: str, findings: FrozenSet[Located],
              injections: Sequence[Injection] = ()) -> Score:
        """Score one report of ``plugin`` against the corpus flows.

        Benchmark lines are pass/fail: every tainted one must be
        reported and no benign one may be.  They stay out of the score,
        so recall and precision measure the corpus flows alone and do
        not depend on how many edits a seed made tainted.
        """
        tainted = {(XSS, i.path, i.line) for i in injections if i.tainted}
        benign = {(XSS, i.path, i.line) for i in injections if not i.tainted}
        missing = tainted - findings
        if missing:
            raise OracleError(f"{plugin}: injected flows not reported: {sorted(missing)}")
        reported_benign = benign & findings
        if reported_benign:
            raise OracleError(f"{plugin}: sanitized lines reported: {sorted(reported_benign)}")
        truth = self.truth(version)
        score = Score(expected=self.vulnerable.get((version, plugin), 0))
        detected: Set[str] = set()
        for located in findings - tainted:
            entry = truth.lookup(plugin, *located)
            if entry is not None and entry.spec.is_vulnerable:
                score.tp += 1
                detected.add(entry.spec.spec_id)
            else:
                score.fp += 1
        score.detected = len(detected)
        return score


# -- stress tiers -------------------------------------------------------------

#: the seeded sink statements of repro.corpus.stress, as source text
_MAIN_ECHO = re.compile(r"""^echo '<div class="notice">' \. \$msg_\w+ \. '</div>';$""")
_CHAIN_ECHO = re.compile(r"^echo step_\w+_0\(")
_CHAIN_STEP = re.compile(r"^steps/step-(\d+)\.php$")


def stress_sinks(plugin: Plugin) -> FrozenSet[Located]:
    """Locations of the seeded XSS flows of one stress plugin."""
    steps = [int(m.group(1)) for m in map(_CHAIN_STEP.match, plugin.files) if m]
    deepest = f"steps/step-{max(steps)}.php" if steps else None
    sinks: List[Located] = []
    for path, source in plugin.iter_files():
        for number, text in enumerate(source.split("\n"), start=1):
            stripped = text.strip()
            if (
                _MAIN_ECHO.match(stripped)
                or _CHAIN_ECHO.match(stripped)
                or (path == deepest and stripped == "echo $value;")
            ):
                sinks.append((XSS, path, number))
    return frozenset(sinks)


def score_stress(sinks: FrozenSet[Located], findings: FrozenSet[Located]) -> Score:
    """Exact-match score of one stress plugin."""
    hits = len(sinks & findings)
    return Score(tp=hits, fp=len(findings - sinks), detected=hits, expected=len(sinks))
