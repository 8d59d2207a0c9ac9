"""Start, scrape and stop a ``qmatch serve`` process.

The service runs as its own process tree (asyncio front end plus the
pool workers), exactly as ``python -m repro.cli serve`` starts it; the
benchmark talks to it only over the socket.  Readiness is the
``serve.start`` event the server logs once it is listening.
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
from pathlib import Path
from typing import Optional

from qbench import httpclient

READY_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0


class ServiceError(RuntimeError):
    """The service failed to start or answer."""


def _children(pid: int) -> list:
    """Direct children of ``pid`` (from ``/proc``)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("latin-1")
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            out.append(int(entry))
    return out


def process_tree(pid: int) -> list:
    tree = [pid]
    for child in _children(pid):
        tree.extend(process_tree(child))
    return tree


#: ``prctl`` option that makes orphaned descendants re-parent to the caller.
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt every orphaned descendant, so that it can be reaped here.

    Without this, a service worker whose parent has exited re-parents to
    init and outlives the run.  Linux only; returns False elsewhere.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state = handle.read().decode("latin-1").rsplit(")", 1)[-1].split()
    except OSError:
        return False
    return bool(state) and state[0] != "Z"


def _ended(pid: int) -> bool:
    """Reap ``pid`` if it is a child that has exited; else True once it
    no longer runs."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:
        return not _alive(pid)


def kill_and_wait(pids, timeout: float = STOP_TIMEOUT) -> list:
    """SIGKILL ``pids`` and wait for each to end; returns survivors."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    left = [pid for pid in pids if not _ended(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.01)
        left = [pid for pid in left if not _ended(pid)]
    return left


def stop_descendants(timeout: float = STOP_TIMEOUT) -> list:
    """Kill and reap every process still running under this one.

    That covers service workers left by a failed stop and the
    ``multiprocessing`` resource tracker the helper pool starts, which
    would otherwise exit only after this process.  Returns the pids that
    could not be stopped.
    """
    deadline = time.monotonic() + timeout
    while True:
        left = [pid for pid in process_tree(os.getpid())[1:] if _alive(pid)]
        if not left or time.monotonic() >= deadline:
            break
        kill_and_wait(left, deadline - time.monotonic())
    # Reap children that had already exited when they were listed.
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break
    return left


def peak_rss_mb(pids) -> float:
    """Sum of each process's peak resident set (VmHWM), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="latin-1") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class ServiceProcess:
    """One ``qmatch serve`` process tree on an ephemeral port."""

    def __init__(self, root: Path, workdir: Path, extra_args=(),
                 name: str = "serve"):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.extra_args = list(extra_args)
        self.log_path = self.workdir / f"{name}.log"
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.ready_seconds = 0.0
        self._log_handle = None

    def start(self) -> float:
        """Launch and wait for ``serve.start``; returns seconds to ready."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = "0"
        self._log_handle = open(self.log_path, "w", encoding="utf-8")
        began = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--host", self.host, "--port", "0", *self.extra_args],
            cwd=str(self.root), env=env, stdout=subprocess.DEVNULL,
            stderr=self._log_handle,
        )
        deadline = began + READY_TIMEOUT
        while time.perf_counter() < deadline:
            url = self._ready_url()
            if url is not None:
                self.ready_seconds = time.perf_counter() - began
                self.port = int(url.rsplit(":", 1)[1])
                return self.ready_seconds
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise ServiceError(
            f"service did not become ready; log:\n{self.log_tail()}"
        )

    def _ready_url(self) -> Optional[str]:
        with open(self.log_path, encoding="utf-8") as handle:
            for line in handle:
                if '"serve.start"' in line:
                    return json.loads(line)["url"]
        return None

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(encoding="utf-8")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def metrics(self) -> dict:
        """``GET /metrics`` as ``{name{labels}: value}``."""
        status, body = httpclient.get(self.host, self.port, "/metrics")
        if status != 200:
            raise ServiceError(f"/metrics answered {status}")
        samples = {}
        for line in body.decode("utf-8").splitlines():
            if not line or line.startswith("#"):
                continue
            key, _, value = line.rpartition(" ")
            samples[key] = float(value)
        return samples

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(process_tree(self.process.pid))

    def stop(self):
        """SIGTERM (graceful drain), then reap the whole tree."""
        if self.process is None:
            return
        pids = process_tree(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=STOP_TIMEOUT)
        kill_and_wait(pids[1:])
        self.process = None
        if self._log_handle is not None:
            self._log_handle.close()
            self._log_handle = None


_LABEL = re.compile(r'(\w+)="([^"]*)"')


def metric_sum(samples: dict, name: str, **labels) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    total = 0.0
    for key, value in samples.items():
        metric, _, rest = key.partition("{")
        if metric != name:
            continue
        found = dict(_LABEL.findall(rest))
        if all(found.get(k) == v for k, v in labels.items()):
            total += value
    return total


def health(samples: dict) -> dict:
    """Respawns and refused requests, from one ``/metrics`` scrape."""
    refused = sum(
        metric_sum(samples, "qmatch_http_requests_total", status=code)
        for code in ("413", "429", "503")
    )
    return {
        "respawns": int(metric_sum(
            samples, "qmatch_service_pool_respawns_total",
        )),
        "refused": int(refused),
    }
