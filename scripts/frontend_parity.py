#!/usr/bin/env python
"""Front-end parity against another revision: same tokens, same ASTs.

Loads the PHP front end (``src/repro/php`` plus the two modules it
imports) of a git revision into a temporary directory with ``git show``,
imports it as a separate package next to the working tree's
``repro.php``, and runs both over the same inputs:

- both paper corpora (2012 and 2014) at scale 1.0,
- the ``scale-smoke`` stress tier,
- the mutation set of ``tests/test_fuzz_robustness.py`` plus its
  empty and binary inputs.

Per input it compares, between the two front ends:

- the full and the significant token streams, strict and in recover
  mode, as ``(token name, value, line)`` triples (or the error raised),
  plus the recovered lex incidents;
- the ``repr`` of the AST and the parse incidents, strict and in
  recover mode (or the error raised).

It prints one line per mismatch and a summary, and exits 1 on any
mismatch.  Run from the repo root::

    python scripts/frontend_parity.py --against origin/main
    python scripts/frontend_parity.py --against "$(git merge-base HEAD origin/main)"
"""

import argparse
import importlib
import os
import random
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)

from repro.corpus.generator import build_corpus  # noqa: E402
from repro.corpus.stress import get_tier, iter_stress_plugins  # noqa: E402

#: package name the other revision's front end is imported under
BASE_PACKAGE = "frontend_base"
#: modules outside ``repro/php`` that the front end imports
FRONTEND_DEPS = ("src/repro/incidents.py", "src/repro/perf.py")
#: mismatching inputs named in the output; the totals count them all
MAX_REPORT = 20


def _git(*args: str) -> str:
    return subprocess.run(
        ("git",) + args, cwd=REPO_ROOT, check=True, capture_output=True, text=True
    ).stdout


def load_frontend(rev: str, workdir: str):
    """Import ``rev``'s front end; returns its ``(lexer, parser)`` modules."""
    package = os.path.join(workdir, BASE_PACKAGE)
    os.makedirs(os.path.join(package, "php"))
    with open(os.path.join(package, "__init__.py"), "w") as handle:
        handle.write("")
    paths = _git("ls-tree", "-r", "--name-only", rev, "src/repro/php").split()
    for path in paths + list(FRONTEND_DEPS):
        if not path.endswith(".py"):
            continue
        target = os.path.join(package, os.path.relpath(path, "src/repro"))
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(_git("show", f"{rev}:{path}"))
    sys.path.insert(0, workdir)
    return (
        importlib.import_module(f"{BASE_PACKAGE}.php.lexer"),
        importlib.import_module(f"{BASE_PACKAGE}.php.parser"),
    )


def iter_inputs():
    """Yield ``(label, source)`` for every input the parity covers."""
    for version in ("2012", "2014"):
        for plugin in build_corpus(version, scale=1.0).plugins:
            for path, source in sorted(plugin.files.items()):
                yield f"corpus-{version}/{plugin.slug}/{path}", source
    for plugin in iter_stress_plugins(get_tier("scale-smoke")):
        for path, source in sorted(plugin.files.items()):
            yield f"stress/{plugin.slug}/{path}", source
    from tests import test_fuzz_robustness as fuzz

    sources = fuzz.corpus_sources()
    for index, strategy in enumerate(fuzz.STRATEGIES):
        rng = random.Random(fuzz.SEED + index)
        for trial in range(fuzz.MUTANTS_PER_STRATEGY):
            yield f"fuzz/{strategy.__name__}/{trial}", strategy(rng, sources)
    for index, blob in enumerate(("", "\x00\x01\x02", "<?php", "<?php \xff\xfe")):
        yield f"fuzz/blob/{index}", blob


def _error(error: Exception) -> tuple:
    return ("error", type(error).__name__, str(error))


def token_streams(lexer_module, source: str, label: str) -> list:
    """The four token streams of ``source`` as comparable triples."""
    streams = []
    for recover in (False, True):
        for significant in (False, True):
            lexer = lexer_module.Lexer(
                source, label, recover=recover, significant=significant
            )
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


def parse_results(parser_module, source: str, label: str) -> list:
    """Strict and recover-mode parses of ``source`` as ``repr`` strings."""
    results = []
    for recover in (False, True):
        try:
            tokens = parser_module.tokenize_significant(source, label, recover=recover)
            parser = parser_module.Parser(tokens, label, recover=recover)
            tree = parser.parse_file()
        except Exception as error:  # compared, not raised
            results.append(_error(error))
            continue
        results.append((repr(tree), [repr(i) for i in parser.incidents]))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--against", required=True, help="git revision whose front end is the oracle"
    )
    args = parser.parse_args(argv)

    from repro.php import lexer as new_lexer
    from repro.php import parser as new_parser

    with tempfile.TemporaryDirectory(prefix="frontend-parity-") as workdir:
        old_lexer, old_parser = load_frontend(args.against, workdir)
        inputs = token_mismatches = ast_mismatches = 0
        for label, source in iter_inputs():
            inputs += 1
            if token_streams(old_lexer, source, label) != token_streams(
                new_lexer, source, label
            ):
                token_mismatches += 1
                if token_mismatches + ast_mismatches <= MAX_REPORT:
                    print(f"token mismatch: {label}")
            if parse_results(old_parser, source, label) != parse_results(
                new_parser, source, label
            ):
                ast_mismatches += 1
                if token_mismatches + ast_mismatches <= MAX_REPORT:
                    print(f"AST mismatch: {label}")
    print(
        f"frontend parity vs {args.against}: {inputs} inputs, "
        f"{token_mismatches} token mismatches, {ast_mismatches} AST mismatches"
    )
    return 1 if token_mismatches or ast_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
