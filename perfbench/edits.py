"""Seeded one-file edits of a plugin set, with the findings they imply.

Each edit appends one ``echo`` of a superglobal to one file of a plugin:
a *tainted* edit echoes it raw (an XSS the analyzer must report), a
*benign* edit passes it through ``esc_html`` (which it must not report).
Edits are tainted in the share of the corpus ground truth's seeded sink
sites that are real flows (:func:`flow_share`); the rest of those sites
are bait the analyzer must not report, like a benign edit.
A file carries at most one benchmark line: editing it again replaces
the previous one, so sizes stay bounded and an earlier tainted line can
disappear.  Appending keeps every original line number, so the corpus
ground truth still locates the original flows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.corpus.spec import GroundTruth
from repro.plugin import Plugin

SUPERGLOBALS = ("_GET", "_POST", "_COOKIE")


@dataclass(frozen=True)
class Injection:
    """One benchmark line: where it sits and whether it is a flow."""

    path: str
    line: int
    tainted: bool
    text: str


def _with_newline(source: str) -> str:
    return source if source.endswith("\n") else source + "\n"


def flow_share(truth: GroundTruth) -> float:
    """Share of the ground truth's seeded sink sites that are real flows
    (586 of 858 in the 2014 corpus at every scale)."""
    return truth.vulnerable_count() / len(truth.entries)


def edit_targets(plugin: Plugin, troubled: Set[str]) -> List[str]:
    """Files safe to append PHP to: analyzed without any failure or
    incident, and not ending in inline HTML."""
    return [
        path
        for path, source in plugin.iter_files()
        if path not in troubled and not source.rstrip().endswith("?>")
    ]


class Editor:
    """Tracks the current benchmark lines of every plugin."""

    def __init__(self, plugins: Sequence[Plugin], targets: Dict[str, List[str]],
                 tainted_share: float) -> None:
        self.base = {plugin.name: plugin for plugin in plugins}
        self.targets = targets
        self.tainted_share = tainted_share
        self.lines: Dict[str, Dict[str, Injection]] = {name: {} for name in self.base}

    def edit(self, name: str, rng: random.Random, serial: int) -> Tuple[Plugin, List[Injection]]:
        """Apply one seeded edit to ``name``; returns the new version."""
        path = rng.choice(self.targets[name])
        tainted = rng.random() < self.tainted_share
        value = f"${rng.choice(SUPERGLOBALS)}['perfbench_{serial}']"
        text = f"echo {value};" if tainted else f"echo esc_html({value});"
        line = _with_newline(self.base[name].files[path]).count("\n") + 1
        self.lines[name][path] = Injection(path, line, tainted, text)
        return self.current(name)

    def current(self, name: str) -> Tuple[Plugin, List[Injection]]:
        """The latest version of ``name`` and its benchmark lines."""
        base = self.base[name]
        files = dict(base.files)
        for path, injection in self.lines[name].items():
            files[path] = _with_newline(files[path]) + injection.text + "\n"
        plugin = Plugin(name=base.name, version=base.version, files=files)
        return plugin, sorted(self.lines[name].values(), key=lambda i: i.path)
