"""Benchmark the batch-scan subsystem: serial vs parallel vs warm cache.

Three configurations over the generated 2012 corpus:

- ``serial``: the paper-faithful in-process loop (``jobs=1``, no cache);
- ``parallel``: the ``ProcessPoolExecutor`` fan-out (``jobs=N``);
- ``warm-cache``: ``jobs=N`` re-run against a pre-populated persistent
  cache directory, where no file is re-parsed.

Parallel speedup tracks the host's core count (a single-core CI box
shows pool overhead instead); the warm-cache run must beat the cold one
regardless since parsing dominates scan cost.  Every configuration must
produce the identical findings set.
"""

import os

import pytest

from repro.batch import BatchOptions, BatchScanner, ToolSpec

JOBS = int(os.environ.get("REPRO_BENCH_JOBS", str(min(4, os.cpu_count() or 1))))

_FINDINGS = {}


def _finding_keys(reports):
    return sorted(
        (report.plugin, finding.key)
        for report in reports
        for finding in report.findings
    )


def _scan(plugins, jobs, cache_dir=None):
    scanner = BatchScanner(
        ToolSpec("phpsafe"), BatchOptions(jobs=jobs, cache_dir=cache_dir)
    )
    return scanner.scan(plugins)


@pytest.mark.parametrize("mode", ["serial", "parallel", "warm-cache"])
def test_batch_scan_modes(benchmark, corpus_2012, tmp_path_factory, mode):
    plugins = corpus_2012.plugins
    cache_dir = None
    jobs = 1 if mode == "serial" else JOBS
    if mode == "warm-cache":
        cache_dir = str(tmp_path_factory.mktemp("parse-cache"))
        _scan(plugins, jobs=jobs, cache_dir=cache_dir)  # populate

    result = benchmark.pedantic(
        _scan, args=(plugins, jobs, cache_dir), rounds=2, iterations=1
    )
    telemetry = result.telemetry
    _FINDINGS[mode] = _finding_keys(result.reports)
    print(
        f"\n{mode}: jobs={jobs} {telemetry.wall_seconds:.3f}s wall, "
        f"{telemetry.files_per_second:.0f} files/s, "
        f"cache hit rate {telemetry.cache_totals()['hit_rate']:.0%}"
    )
    if mode == "warm-cache":
        assert telemetry.cache_totals()["hit_rate"] > 0.9


def test_batch_modes_agree():
    """All configurations must report the identical findings set."""
    if len(_FINDINGS) < 3:
        pytest.skip("batch benches did not run (collection subset)")
    assert _FINDINGS["serial"] == _FINDINGS["parallel"] == _FINDINGS["warm-cache"]
