"""serve-warm: closed-loop clients against a warm verification daemon."""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

from common import (
    BENCH_DIR,
    BenchError,
    child_env,
    cpu_seconds,
    kill_tree,
    peak_rss_mb,
    reset_peak_rss,
    tree,
    wait_gone,
)
from repro.serve.grids import grid_ops

GRID = "fig11-quick"
# The verdict map every grid job must return: every op proved.
EXPECTED = {f"{monitor}.{op}": True for monitor, op in grid_ops(GRID)}


class Daemon:
    """One ``python -m repro.serve`` process and its scheduler workers.

    Its stdout and stderr go to ``log_path``, unfiltered.
    """

    def __init__(self, workdir: str, store: str, tag: str, traced: bool):
        self.log_path = os.path.join(workdir, f"daemon-{tag}.log")
        self.dump_dir = os.path.join(workdir, f"dumps-{tag}")
        spool = os.path.join(workdir, f"spool-{tag}")
        daemon_args = ["--jobs", "2", "--store", store, "--spool", spool, "--port", "0"]
        if traced:
            os.makedirs(self.dump_dir)
            cmd = [sys.executable, os.path.join(BENCH_DIR, "tracedaemon.py"), self.dump_dir, "--"]
        else:
            cmd = [sys.executable, "-m", "repro.serve", "--no-trace"]
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd + daemon_args, cwd=workdir, env=child_env(), stdout=self._log, stderr=subprocess.STDOUT
        )
        self._dumps = 0
        self.url = self._wait_listening(60.0)

    def _wait_listening(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with open(self.log_path) as fh:
                for line in fh:
                    if line.startswith("serving on "):
                        return line.split()[-1]
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise BenchError(f"daemon did not start; see {self.log_path}")

    def pids(self) -> list[int]:
        return tree(self.proc.pid)

    def dump(self) -> dict:
        """Ask a traced daemon for its probe and obs totals."""
        path = os.path.join(self.dump_dir, f"dump-{self._dumps}.json")
        self._dumps += 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise BenchError("traced daemon did not answer a dump request")
            time.sleep(0.01)
        with open(path) as fh:
            return json.load(fh)

    def stop(self) -> str:
        """SIGTERM the daemon, wait for it and its workers, return its log."""
        pids = self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                kill_tree(self.proc.pid)
                self.proc.wait()
        left = wait_gone(pids[1:], 10.0)
        for pid in left:
            kill_tree(pid)
        wait_gone(left, 5.0)
        self._log.close()
        with open(self.log_path) as fh:
            return fh.read()


def _client_loop(url: str, count: int, delay_s: float, out: list) -> None:
    """One closed-loop client: submit, wait for the verdicts, repeat."""
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(url)
    time.sleep(delay_s)
    for _ in range(count):
        start = time.perf_counter()
        record = {"ok": False}
        try:
            job = client.submit_grid(GRID)
            final = client.wait(job["id"], timeout_s=120.0)
            verdicts = client.verdict_map(job["id"])
            record["latency_s"] = time.perf_counter() - start
            record["run_s"] = (final["finished_t"] or 0.0) - (final["started_t"] or 0.0)
            record["ok"] = final["state"] == "done" and verdicts == EXPECTED
        except (ServeError, OSError, TimeoutError, KeyError, ValueError) as exc:
            record["error"] = repr(exc)
        out.append(record)


def serve_pass(daemon: Daemon, seed: int, index: int, jobs: int, clients: int) -> dict:
    """``jobs`` grid jobs split over ``clients`` closed-loop clients.

    The seed orders the clients' start and staggers them by up to 50 ms.
    """
    rng = random.Random(f"{seed}/serve{index}")
    shares = [jobs // clients + (1 if i < jobs % clients else 0) for i in range(clients)]
    order = list(range(clients))
    rng.shuffle(order)
    delays = [rng.uniform(0.0, 0.05) for _ in order]
    records: list[list] = [[] for _ in order]
    threads = [
        threading.Thread(target=_client_loop, args=(daemon.url, shares[c], delays[c], records[c]))
        for c in order
    ]
    pids = daemon.pids()
    reset_peak_rss(pids)
    cpu0 = cpu_seconds(pids) + time.process_time()
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    pids = daemon.pids()
    done = [r for rs in records for r in rs]
    return {
        "wall_s": wall,
        "cpu_s": cpu_seconds(pids) + time.process_time() - cpu0,
        "rss_mb": peak_rss_mb(pids),
        "latencies_s": [r["latency_s"] for r in done if r["ok"]],
        "run_s": [r["run_s"] for r in done if r["ok"]],
        "ok": [r["ok"] for r in done],
        "errors": [r["error"] for r in done if "error" in r],
    }


def fill(daemon: Daemon) -> bool:
    """One cold grid job: fills the store and forks the daemon's pool."""
    from repro.serve.client import ServeClient

    client = ServeClient(daemon.url)
    job = client.submit_grid(GRID)
    final = client.wait(job["id"], timeout_s=150.0)
    return final["state"] == "done" and all(client.verdict_map(job["id"]).values())
