"""``phpsafe serve`` as a child process, and a minimal HTTP client.

The daemon runs with its default worker count and isolation.  It binds
port 0 and announces the port it got on its first output line, which
it writes to a log file (a pipe nobody drains could stall it).
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

_ANNOUNCE = re.compile(r"listening on http://([\d.]+):(\d+)")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
_PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """Have Linux send this process SIGTERM when its parent exits, so a
    benchmark killed from outside leaves no process behind."""
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def request(url: str, payload: Optional[Dict[str, object]] = None
            ) -> Tuple[int, Dict[str, object]]:
    """One JSON request; returns ``(status, body)`` for any HTTP status."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    req = urllib.request.Request(url, data=data)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=REQUEST_TIMEOUT_S) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8") or "{}")


def children(pid: int) -> List[int]:
    """Direct children of ``pid`` (Linux /proc)."""
    found: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
    except OSError:
        pass
    return found


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


class Daemon:
    """One ``python -m repro serve`` process over ``data_dir``."""

    def __init__(self, src_dir: str, data_dir: str) -> None:
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self.log_path = os.path.join(data_dir, "daemon.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--data-dir", data_dir],
                env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, preexec_fn=die_with_parent,
            )
        self.base = self._wait_ready()

    def _wait_ready(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited {self.process.returncode}: {self.log()}")
            match = _ANNOUNCE.search(self.log())
            if match:
                base = f"http://{match.group(1)}:{match.group(2)}"
                status, body = request(base + "/healthz")
                if status == 200 and body.get("status") == "ok":
                    return base
            time.sleep(0.02)
        self.stop()
        raise RuntimeError("daemon never became healthy")

    def log(self) -> str:
        with open(self.log_path, errors="replace") as handle:
            return handle.read()

    def url(self, path: str) -> str:
        return self.base + path

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the daemon and for
        the worker processes it started."""
        if self.process.poll() is None:
            workers = children(self.process.pid)
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=STOP_TIMEOUT_S)
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.02)
            for pid in workers:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)
