#!/usr/bin/env python3
"""Benchmark the phpSAFE analyzer end to end (see perfbench/README.md).

    python3 perfbench/run.py --workload paper-cold --seed 7 --seconds 8 --trace 0

Each workload runs in its own child process, so its peak RSS is its
own; this process adopts every process the run leaves orphaned and
reaps them all before it exits.  The output is a human-readable table
per workload, then one JSON line: ``{"correct", "attempted", "failed",
"metrics"}`` with every
end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  A run is correct only if every
operation succeeded and passed its oracle; an oracle violation ends it
without a result.  ``--workload all`` runs every
workload and keys the metrics ``<workload>/<metric>``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import pickle
import signal
import shutil
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
for _path in (SRC, ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: per-workload wall-clock limit, set-up and both phases included
CHILD_TIMEOUT_S = 170.0
#: time a leftover process gets to end after SIGTERM before SIGKILL
REAP_GRACE_S = 2.0
#: prctl option that makes orphaned descendants children of this process
_PR_SET_CHILD_SUBREAPER = 36
WORKDIR = os.path.join(ROOT, ".perfbench-work")


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_child(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Run one workload in a child process and return its message."""
    from perfbench.daemon import die_with_parent

    workdir = os.path.join(WORKDIR, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, "result.pickle")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.workloads", name, str(seed), repr(seconds),
         str(int(trace)), workdir, SRC, result_path],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, preexec_fn=die_with_parent,
    )
    try:
        process.wait(timeout=CHILD_TIMEOUT_S)
        with open(result_path, "rb") as handle:
            message = pickle.load(handle)
    except subprocess.TimeoutExpired:
        message = {"ok": False, "error": f"no result within {CHILD_TIMEOUT_S} s"}
    except (OSError, EOFError, pickle.UnpicklingError):
        message = {"ok": False,
                   "error": f"workload process exited {process.returncode} without a result"}
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(WORKDIR)
    return message


def _live_children() -> List[int]:
    """Children of this process that have not exited (Linux /proc)."""
    from perfbench.daemon import alive, children

    return [pid for pid in children(os.getpid()) if alive(pid)]


def reap_all() -> None:
    """Stop and reap every child, orphaned descendants included.

    A live child gets SIGTERM, then SIGKILL after ``REAP_GRACE_S``; the
    loop ends once no child, live or exited, is left to wait for."""
    deadline = time.monotonic() + REAP_GRACE_S
    signalled = set()
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        live = _live_children()
        late = time.monotonic() > deadline
        for pid in live:
            if pid not in signalled or late:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL if late else signal.SIGTERM)
                signalled.add(pid)
        time.sleep(0.01)


def end_to_end(result: Dict[str, object]) -> Tuple[Dict[str, float], List[str]]:
    """End-to-end metrics of the untraced phase, plus report lines.

    Times are in reference seconds (perfbench/hostspeed.py); the notes
    give the wall-clock value beside each."""
    from perfbench.stats import tail

    phase = result["untraced"]
    ref_tail, percentile, samples = tail(phase["ref_op_s"])
    wall_tail = tail(phase["op_s"])[0]
    metrics = {
        "setup_s": median(result["setup_s"]),
        "kloc_per_s": phase["loc"] / 1000.0 / phase["ref_wall_s"],
        "op_p50_ms": 1000.0 * median(phase["ref_op_s"]),
        "op_tail_ms": 1000.0 * ref_tail,
        "peak_rss_mb": result["peak_rss_mb"],
        "recall": phase["recall"],
        "precision": phase["precision"],
    }
    score = phase["score"]
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in result["setup_s"])
                   + f"; wall {median(result['setup_wall_s']):.3f} s",
        "kloc_per_s": f"{phase['loc']} LOC in {phase['ref_wall_s']:.3f} s, "
                      f"{phase['passes']} passes; wall {phase['wall_s']:.3f} s, "
                      f"{phase['loc'] / 1000.0 / phase['wall_s']:.4f} kLOC/s",
        "op_p50_ms": f"{samples} operations; wall {1000.0 * median(phase['op_s']):.4f} ms",
        "op_tail_ms": f"p{percentile:.1f} of {samples} operations, 10 beyond it; "
                      f"wall {1000.0 * wall_tail:.4f} ms",
        "recall": f"{score['detected']} of {score['expected']} vulnerable flows",
        "precision": f"{score['tp']} true of {score['tp'] + score['fp']} reported",
    }
    lines = [f"  {name:<14} {value:>14.4f}  {notes.get(name, '')}"
             for name, value in metrics.items()]
    share = phase["failed"] / phase["attempted"]
    lines.append(f"  {'failed_share':<14} {share:>14.4f}  "
                 f"{phase['failed']} of {phase['attempted']} operations")
    return metrics, lines


def report(name: str, result: Dict[str, object], spec: Dict[str, object],
           trace: bool) -> Dict[str, float]:
    """Print one workload's table; return the metrics it declares."""
    from perfbench.hostspeed import REFERENCE_PROBE_S
    from perfbench.workloads import POLL_INTERVAL_S, DaemonMixed

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {name}")
    print("  cache state: " + "; ".join(f"{k} {v}" for k, v in result["cache_state"].items()))
    probes = result["probe_s"]
    print(f"  host probe: median {1000 * median(probes):.3f} ms over {len(probes)} samples "
          f"(reference {1000 * REFERENCE_PROBE_S:g} ms)")
    if name == DaemonMixed.name:
        print(f"  status poll interval: {POLL_INTERVAL_S * 1000:g} ms")
    e2e, lines = end_to_end(result)
    print("  end to end (untraced; times in reference seconds, wall clock beside):")
    print("\n".join(lines))
    counts = result["untraced"]["counts"]
    print("  first-pass work: " + ", ".join(f"{k}={v:g}" for k, v in counts.items()))
    for key, value in sorted(result["untraced"]["extra"].items()):
        print(f"  {key:<30} {value:>14.4f} {units.get(key, '')}")
    if not trace:
        return e2e
    layers = result["layers"]
    print("  per layer (traced):")
    for key in [m["name"] for m in spec["per_layer"]]:
        print(f"  {key:<30} {layers[key]:>16.6f} {units[key]}")
    return layers


def main(argv=None) -> int:
    ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1)
    try:
        return _main(argv)
    finally:
        reap_all()


def _main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: analyzer sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    chosen = names if args.workload == "all" else [args.workload]
    metrics: Dict[str, Dict[str, object]] = {}
    attempted = failed = 0
    for name in chosen:
        message = run_child(name, args.seed, args.seconds, bool(args.trace))
        if not message["ok"]:
            kind = "oracle" if message.get("oracle") else "run"
            print(f"perfbench: {name}: {kind} failure: {message['error']}", file=sys.stderr)
            return 1
        result = message["result"]
        values = report(name, result, spec, bool(args.trace))
        if sorted(values) != sorted(declared):
            print(f"perfbench: {name} measured {sorted(values)}, BENCHMARK.json "
                  f"declares {sorted(declared)}", file=sys.stderr)
            return 1
        phases = [result[key] for key in ("untraced", "traced", "after") if key in result]
        attempted += sum(p["attempted"] for p in phases)
        failed += sum(p["failed"] for p in phases)
        if any(p["failed"] for p in phases):
            print(f"perfbench: {name}: {sum(p['failed'] for p in phases)} operations "
                  "failed", file=sys.stderr)
        prefix = "" if len(chosen) == 1 else name + "/"
        for key in declared:
            metrics[prefix + key] = {"value": values[key], "unit": units[key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
