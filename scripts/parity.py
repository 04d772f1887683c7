#!/usr/bin/env python
"""Parity against another revision: same tokens, ASTs and findings.

Extracts a git revision's ``src/`` into a temporary directory with
``git archive`` and runs the same probe over it and over the working
tree, each in its own interpreter whose import path starts at that
tree's ``src/``.  The inputs are generated once, by the working tree,
and handed to both probes, so only the analyzers differ:

- front end, on both paper corpora (2012 and 2014) at scale 1.0, the
  ``scale-smoke`` stress tier and the mutation set of
  ``tests/test_fuzz_robustness.py`` plus its empty and binary inputs:
  the full and the significant token streams, strict and in recover
  mode, as ``(token name, value, line)`` triples with the lex
  incidents, and the ``repr`` of the strict and the recovered AST with
  the parse incidents (or the error raised);
- analysis, by phpSAFE, RIPS and Pixy on every plugin of both corpora
  and of the stress tier: the findings (kind, file, line, sink,
  variable, vectors, markup context, ``via_oop``, trace), the
  incidents, and the ``engine_steps``, ``taint_joins`` and
  ``summaries_computed`` counters of the run.

It prints one line per mismatch, per-tool counter totals and a summary,
and exits 1 on any mismatch.  Run from the repo root (the fuzz inputs
need pytest importable)::

    python scripts/parity.py --against origin/main
    python scripts/parity.py --against "$(git merge-base HEAD origin/main)"
"""

import argparse
import hashlib
import os
import pickle
import random
import subprocess
import sys
import tempfile

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(SCRIPTS)
#: mismatching inputs named in the output; the totals count them all
MAX_REPORT = 20
#: counters compared per plugin run, in reporting order
COUNTERS = ("engine_steps", "taint_joins", "summaries_computed")


def _git(*args: str) -> bytes:
    return subprocess.run(
        ("git",) + args, cwd=REPO_ROOT, check=True, capture_output=True
    ).stdout


def extract_src(rev: str, workdir: str) -> str:
    """Unpack ``rev``'s ``src/`` under ``workdir``; returns its path."""
    subprocess.run(
        ("tar", "-x", "-C", workdir), input=_git("archive", rev, "src"), check=True
    )
    return os.path.join(workdir, "src")


def build_inputs() -> dict:
    """Every input the parity covers, from the working tree's generators."""
    from repro.corpus.generator import build_corpus
    from repro.corpus.stress import get_tier, iter_stress_plugins
    from tests import test_fuzz_robustness as fuzz

    plugins = []
    for version in ("2012", "2014"):
        for plugin in build_corpus(version, scale=1.0).plugins:
            plugins.append((f"corpus-{version}", plugin.name, plugin.version, plugin.files))
    for plugin in iter_stress_plugins(get_tier("scale-smoke")):
        plugins.append(("stress", plugin.name, plugin.version, plugin.files))
    sources = [
        (f"{group}/{name}-{version}/{path}", source)
        for group, name, version, files in plugins
        for path, source in sorted(files.items())
    ]
    corpus = fuzz.corpus_sources()
    for index, strategy in enumerate(fuzz.STRATEGIES):
        rng = random.Random(fuzz.SEED + index)
        for trial in range(fuzz.MUTANTS_PER_STRATEGY):
            sources.append((f"fuzz/{strategy.__name__}/{trial}", strategy(rng, corpus)))
    for index, blob in enumerate(("", "\x00\x01\x02", "<?php", "<?php \xff\xfe")):
        sources.append((f"fuzz/blob/{index}", blob))
    return {"sources": sources, "plugins": plugins}


def _error(error: Exception) -> tuple:
    return ("error", type(error).__name__, str(error))


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def token_streams(source: str, label: str) -> list:
    """The four token streams of ``source`` as comparable triples."""
    from repro.php.lexer import Lexer

    streams = []
    for recover in (False, True):
        for significant in (False, True):
            lexer = Lexer(source, label, recover=recover, significant=significant)
            try:
                tokens = lexer.tokenize()
            except Exception as error:  # compared, not raised
                streams.append(_error(error))
                continue
            streams.append(
                (
                    [(token.name, token.value, token.line) for token in tokens],
                    [repr(incident) for incident in lexer.incidents],
                )
            )
    return streams


def parse_results(source: str, label: str) -> list:
    """Strict and recover-mode parses of ``source`` as ``repr`` strings."""
    from repro.php.parser import Parser, tokenize_significant

    results = []
    for recover in (False, True):
        try:
            tokens = tokenize_significant(source, label, recover=recover)
            parser = Parser(tokens, label, recover=recover)
            tree = parser.parse_file()
        except Exception as error:  # compared, not raised
            results.append(_error(error))
            continue
        results.append((repr(tree), [repr(i) for i in parser.incidents]))
    return results


def _finding_tuple(finding) -> tuple:
    return (
        finding.kind.value,
        finding.file,
        finding.line,
        finding.sink,
        finding.variable,
        tuple(vector.value for vector in finding.vectors),
        finding.markup_context,
        finding.via_oop,
        finding.trace,
    )


def probe(inputs_path: str, out_path: str) -> None:
    """Run this interpreter's ``repro`` over the inputs; pickle the results.

    Called in a child interpreter (see :func:`run_probe`); imports only
    names both revisions share.
    """
    from repro import PhpSafe, PixyLike, RipsLike
    from repro.perf import counters
    from repro.plugin import Plugin

    with open(inputs_path, "rb") as handle:
        inputs = pickle.load(handle)
    frontend = {
        label: (_digest(token_streams(source, label)), _digest(parse_results(source, label)))
        for label, source in inputs["sources"]
    }
    analysis = {}
    for tool in (PhpSafe(use_process_cache=False), RipsLike(), PixyLike()):
        for group, name, version, files in inputs["plugins"]:
            plugin = Plugin(name=name, version=version, files=dict(files))
            before = counters.snapshot()
            report = tool.analyze(plugin)
            delta = counters.since(before)
            analysis[(tool.name, f"{group}/{plugin.slug}")] = (
                [_finding_tuple(finding) for finding in report.findings],
                [repr(incident) for incident in report.incidents],
                tuple(delta[name] for name in COUNTERS),
            )
    with open(out_path, "wb") as handle:
        pickle.dump({"frontend": frontend, "analysis": analysis}, handle)


def run_probe(src: str, inputs_path: str, out_path: str) -> subprocess.Popen:
    """Start :func:`probe` in a child whose ``repro`` comes from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, SCRIPTS])
    code = f"import parity; parity.probe({inputs_path!r}, {out_path!r})"
    return subprocess.Popen([sys.executable, "-c", code], cwd=REPO_ROOT, env=env)


def compare(base: dict, head: dict) -> int:
    """Print mismatches and totals; returns the number of mismatches."""
    reported = 0

    def report(line: str) -> None:
        nonlocal reported
        reported += 1
        if reported <= MAX_REPORT:
            print(line)

    token_mismatches = ast_mismatches = 0
    for label, (base_tokens, base_ast) in base["frontend"].items():
        head_tokens, head_ast = head["frontend"][label]
        if base_tokens != head_tokens:
            token_mismatches += 1
            report(f"token mismatch: {label}")
        if base_ast != head_ast:
            ast_mismatches += 1
            report(f"AST mismatch: {label}")
    mismatches = {"finding": 0, "incident": 0, "counter": 0}
    totals = {}
    for key, (base_findings, base_incidents, base_counts) in base["analysis"].items():
        head_findings, head_incidents, head_counts = head["analysis"][key]
        label = f"{key[0]} {key[1]}"
        for kind, left, right in (
            ("finding", base_findings, head_findings),
            ("incident", base_incidents, head_incidents),
            ("counter", base_counts, head_counts),
        ):
            if left != right:
                mismatches[kind] += 1
                report(f"{kind} mismatch: {label}: {left!r:.200} != {right!r:.200}")
        tool_totals = totals.setdefault(key[0], [[0] * len(COUNTERS), [0] * len(COUNTERS)])
        for index in range(len(COUNTERS)):
            tool_totals[0][index] += base_counts[index]
            tool_totals[1][index] += head_counts[index]
    for tool, (base_sum, head_sum) in totals.items():
        pairs = ", ".join(
            f"{name} {left} -> {right}"
            for name, left, right in zip(COUNTERS, base_sum, head_sum)
        )
        print(f"{tool}: {pairs}")
    print(
        f"{len(base['frontend'])} front-end inputs: {token_mismatches} token and "
        f"{ast_mismatches} AST mismatches; {len(base['analysis'])} plugin runs: "
        f"{mismatches['finding']} finding, {mismatches['incident']} incident and "
        f"{mismatches['counter']} counter mismatches"
    )
    return token_mismatches + ast_mismatches + sum(mismatches.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--against", required=True, help="git revision whose analyzer is the oracle"
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]

    with tempfile.TemporaryDirectory(prefix="parity-") as workdir:
        base_src = extract_src(args.against, workdir)
        inputs_path = os.path.join(workdir, "inputs.pickle")
        with open(inputs_path, "wb") as handle:
            pickle.dump(build_inputs(), handle)
        outputs = {}
        children = []
        for side, src in (("base", base_src), ("head", os.path.join(REPO_ROOT, "src"))):
            outputs[side] = os.path.join(workdir, f"{side}.pickle")
            children.append(run_probe(src, inputs_path, outputs[side]))
        if any(child.wait() != 0 for child in children):
            print("a probe failed", file=sys.stderr)
            return 2
        results = {}
        for side, path in outputs.items():
            with open(path, "rb") as handle:
                results[side] = pickle.load(handle)
    print(f"parity vs {args.against}:")
    return 1 if compare(results["base"], results["head"]) else 0


if __name__ == "__main__":
    sys.exit(main())
