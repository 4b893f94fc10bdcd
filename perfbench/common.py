"""Shared helpers: checkout layout, child processes, /proc sampling, statistics.

Everything here is measured from outside the program: CPU and memory
come from ``/proc``, store sizes from walking the store directory.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

_CLK_TCK = os.sysconf("SC_CLK_TCK")
# A whole run must end within 180 s, so no child may take longer than this.
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a child that died)."""


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources at {SRC}/repro: run from a full checkout")


def child_env() -> dict:
    """Environment for every process the benchmark starts.

    ``REPRO_*`` knobs are dropped so a stray setting (another store,
    certificates off, another SAT core) cannot change what is measured,
    and the hash seed is fixed so set and dict order is the same in
    every run.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def make_workdir() -> str:
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run's directory is still there


def run_child(kind: str, args: dict, workdir: str) -> dict:
    """Run ``child.py <kind>`` in a fresh interpreter and return its result.

    The child writes one JSON document to a file; its stdout and stderr
    go to the benchmark's stderr.  ``spawn_t`` (this process's
    ``perf_counter`` just before the fork) is added to the result so the
    caller can time interpreter start-up and imports as set-up.
    """
    fd, out = tempfile.mkstemp(suffix=".json", dir=workdir)
    os.close(fd)
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "child.py"),
        kind,
        json.dumps(dict(args, out=out)),
    ]
    spawn_t = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), stdout=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_tree(proc.pid)
        proc.kill()
        proc.wait()
        raise BenchError(f"child {kind} timed out after {CHILD_TIMEOUT_S}s")
    if code != 0:
        raise BenchError(f"child {kind} exited with {code}")
    with open(out) as fh:
        result = json.load(fh)
    os.unlink(out)
    result["spawn_t"] = spawn_t
    return result


# ---------------------------------------------------------------------------
# /proc sampling


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    # The command name may hold spaces and parentheses; fields resume
    # after the last ')'.
    return raw[raw.rindex(")") + 2 :].split()


def descendants(root: int) -> list[int]:
    """Live descendants of ``root`` (children, grandchildren, ...)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is None or fields[0] == "Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        for kid in children.get(todo.pop(), ()):
            out.append(kid)
            todo.append(kid)
    return out


def tree(root: int) -> list[int]:
    return [root] + descendants(root)


def cpu_seconds(pids) -> float:
    """User plus system CPU seconds of the given live processes."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


def reset_peak_rss(pids) -> None:
    """Restart each process's VmHWM from its current resident set, so a
    later ``peak_rss_mb`` reads the peak of what ran in between."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass


def peak_rss_mb(pids) -> float:
    """Largest peak resident set (VmHWM) among the given processes."""
    best = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        best = max(best, int(line.split()[1]))
                        break
        except OSError:
            continue
    return best / 1024.0


def alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def kill_tree(root: int) -> None:
    for pid in reversed(tree(root)):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def wait_gone(pids, timeout_s: float) -> list[int]:
    """Poll until every pid has exited; returns those still alive."""
    deadline = time.monotonic() + timeout_s
    left = [p for p in pids if alive(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [p for p in left if alive(p)]
    return left


def store_size(path: str) -> tuple[int, int]:
    """``(entries, bytes)`` of a verdict store directory.

    An entry is one ``<digest>.json`` verdict; certificates count
    towards the bytes only.
    """
    entries = size = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            size += os.path.getsize(os.path.join(dirpath, name))
            if name.endswith(".json") and not name.endswith(".cert.json"):
                entries += 1
    return entries, size


def audit_store(path: str, workdir: str) -> tuple[bool, str]:
    """Check every certificate in a store with the independent checker."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.smt.checkproof", "--store", path, "--require-certs"],
        cwd=workdir,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return proc.returncode == 0, lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# Statistics


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)
