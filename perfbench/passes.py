"""Timed passes, run inside a child interpreter (see ``child.py``).

A pass is one workload's fixed request set.  Every function here
returns plain JSON-able data: wall and CPU seconds, peak resident set,
one latency per request, and one verdict per request checked against
the expected one.  With ``trace`` the pass runs under layer probes and
an obs tracing session, and also returns what they recorded.
"""

from __future__ import annotations

import functools
import os
import random
import time

from common import cpu_seconds, descendants, peak_rss_mb, reset_peak_rss, tree
from probes import Probes, reduce_snapshot


def permuted(items, seed: int, tag: str) -> list:
    """The seed's order of ``items`` for one pass (``tag`` names the pass)."""
    out = list(items)
    random.Random(f"{seed}/{tag}").shuffle(out)
    return out


def _measure(run, trace: bool, install: str):
    """Run ``run()`` as a pass; sample the process tree around it."""
    from repro.core.scheduler import peek_scheduler

    me = os.getpid()
    probes = None
    if trace:
        from repro.obs import tracing

        probes = Probes()
        getattr(probes, install)()
    workers = descendants(me)
    reset_peak_rss([me] + workers)
    # This process's own CPU from the precise clock, its workers' from /proc.
    cpu0 = time.process_time() + cpu_seconds(workers)
    start = time.perf_counter()
    if trace:
        with tracing(absorb=False) as col:
            out = run()
    else:
        out = run()
    wall = time.perf_counter() - start
    pids = tree(me)
    cpu = time.process_time() + cpu_seconds(pids[1:]) - cpu0
    out.update(wall_s=wall, cpu_s=cpu, rss_mb=peak_rss_mb(pids))
    scheduler = peek_scheduler()
    out["workers"] = scheduler.pool_size if scheduler is not None else 0
    if trace:
        probes.uninstall()
        out["probes"] = probes.snapshot()
        out["reduced"] = reduce_snapshot(col.snapshot())
    return out


# ---------------------------------------------------------------------------
# Figure 11 grid


def _import_monitors() -> None:
    """Import the verifier stack (set-up, not part of any pass)."""
    import repro.certikos  # noqa: F401
    import repro.komodo  # noqa: F401
    import repro.serve.grids  # noqa: F401


def _prove_grid(order, jobs: int, store: str) -> dict:
    from repro.certikos import CertikosVerifier
    from repro.komodo import KomodoVerifier

    verifiers = {"certikos": CertikosVerifier, "komodo": KomodoVerifier}
    latencies, verdicts = [], {}
    sched = {"steals": 0, "retries": 0, "timeouts": 0}
    for monitor, op in order:
        start = time.perf_counter()
        # Construct per op, as the daemon's grid runner does: the
        # request includes compiling the monitor.
        verifier = verifiers[monitor](opt=1, jobs=jobs, cache_dir=store)
        result = verifier.prove_op(op)
        latencies.append(time.perf_counter() - start)
        verdicts[f"{monitor}.{op}"] = (
            "proved" if result.proved else "unknown" if result.unknown else "failed"
        )
        for key in sched:
            sched[key] += int((result.stats or {}).get(key, 0) or 0)
    return {"latencies_s": latencies, "verdicts": verdicts, "sched": sched}


def fig11_startup() -> dict:
    """A fresh interpreter's start-up alone: one more ``setup_s`` sample."""
    _import_monitors()
    return {"ready_t": time.perf_counter()}


def fig11_pass(order, jobs: int, store: str, trace: bool) -> dict:
    return _measure(lambda: _prove_grid(order, jobs, store), trace, "install_monitors")


def fig11_cold(seed: int, index: int, jobs: int, store: str, trace: bool) -> dict:
    """One cold pass: this fresh process, an empty store, a new pool."""
    from repro.core.scheduler import shutdown_scheduler
    from repro.serve.grids import grid_ops

    _import_monitors()
    ready_t = time.perf_counter()
    order = permuted(grid_ops("fig11"), seed, f"cold{index}")
    result = fig11_pass(order, jobs, store, trace)
    shutdown_scheduler()
    return {"ready_t": ready_t, "passes": [result]}


# ---------------------------------------------------------------------------
# BPF JIT checker (§7)


def timed_check(check, insn, jit):
    """Run one JIT check and stamp its own duration on the result.

    The sweep runs checks in scheduler workers; the stamp rides home on
    the pickled ``CheckResult``.  A sweep issues every check at once and
    returns every verdict at once, so a check's time from issue to
    verdict is mostly its place in the queue, which the seed's order
    decides; its own duration is what the solver stack under it moves.
    """
    start = time.perf_counter()
    result = check(insn, jit)
    result.bench_latency_s = time.perf_counter() - start
    return result


def _jit_requests(seed: int, index: int) -> dict:
    from repro.bpf_jit import (
        RV_BUGS,
        RvJit,
        X86Jit,
        X86_BUGS,
        check_rv_insn,
        check_x86_insn,
        rv_alu_test_insns,
        sweep,
        x86_alu_test_insns,
    )

    tag = f"jit{index}"
    witnesses = permuted(
        [(bug, check_rv_insn, RvJit) for bug in RV_BUGS]
        + [(bug, check_x86_insn, X86Jit) for bug in X86_BUGS],
        seed,
        tag + "w",
    )
    rv_insns = permuted(rv_alu_test_insns(), seed, tag + "rv")
    x86_insns = permuted(x86_alu_test_insns(), seed, tag + "x86")

    def run():
        latencies, verdicts = [], []
        for bug, check, jit_cls in witnesses:
            start = time.perf_counter()
            result = check(bug.witness, jit_cls(bugs={bug.id}))
            latencies.append(time.perf_counter() - start)
            # A bug witness must be refuted with a counterexample.
            verdicts.append(not result.ok and result.counterexample is not None)
        for check, jit, insns in (
            (check_rv_insn, RvJit(), rv_insns),
            (check_x86_insn, X86Jit(), x86_insns),
        ):
            results = sweep(functools.partial(timed_check, check), jit, insns, jobs=2)
            for insn, result in zip(insns, results):
                latencies.append(result.bench_latency_s)
                verdicts.append(result.ok and result.insn == insn)
        return {"latencies_s": latencies, "ok": verdicts}

    return run


def jit_sweep(seed: int, index: int, trace: bool) -> dict:
    """One JIT pass in this fresh process: witnesses, then both sweeps."""
    from repro.core.scheduler import peek_scheduler, shutdown_scheduler

    run = _jit_requests(seed, index)
    ready_t = time.perf_counter()
    result = _measure(run, trace, "install_jit")
    # The pool was forked by this pass, so its lifetime counters are
    # the pass's.
    telemetry = peek_scheduler().telemetry()
    result["sched"] = {key: telemetry[key] for key in ("steals", "retries", "timeouts")}
    shutdown_scheduler()
    return {"ready_t": ready_t, "passes": [result]}
