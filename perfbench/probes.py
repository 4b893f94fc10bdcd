"""Layer probes: time each layer from outside, at its public entry points.

``Probes.install_*`` replaces module and class attributes with timing
wrappers; nothing under ``src/`` is edited.  Each wrapper charges its
*self* time (its duration minus that of nested probed calls) to one
layer:

===========  ==============================================================
layer        wrapped entry points
===========  ==============================================================
compile      ``certikos.verify.build_image``, ``komodo.verify.build_image``
             (the mini-C compiler and assembler run by verifier
             construction); ``RvJit.emit_insn``, ``X86Jit.emit_insn``
engine       ``Refinement.make_impl``/``impl_step``;
             ``bpf_jit.checker.run_interpreter``/``run_insn``/``run_insns``
spec         ``Refinement.spec_step``/``abstract``/``rep_invariant``
vcgen        ``core.runner.obligations_from_context``
dispatch     ``core.runner.run_obligations``, ``core.runner.parallel_map``
prove        ``bpf_jit.checker.prove``
===========  ==============================================================

The ``Refinement`` fields are wrapped on the object each
``verifier.refinement(op)`` returns.  Inside a scheduler worker the
self time also goes out as a ``bench``-category obs span, so a traced
worker ships it home in its result envelope like any program span.

``reduce_snapshot`` folds an obs collector snapshot into the numbers the
per-layer table needs; ``layer_metrics`` turns probe totals plus that
reduction into the benchmark's per-layer metrics.
"""

from __future__ import annotations

from collections import defaultdict
import dataclasses
import functools
import threading
import time

from common import percentile

LAYERS = ("compile", "engine", "spec", "vcgen", "dispatch", "prove")


class Probes:
    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, layer: str, fn):
        from repro.core.scheduler import in_worker
        from repro.obs import get_collector

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self_s = dur - stack.pop()
                if stack:
                    stack[-1] += dur
                with self._lock:
                    self.busy[layer] += self_s
                    self.calls[layer] += 1
                if in_worker():
                    col = get_collector()
                    if col is not None:
                        col.add_span(
                            f"bench.{layer}", "bench", "main", start, dur, {"self_s": self_s}
                        )

        return timed

    def snapshot(self) -> dict:
        with self._lock:
            return {"busy": dict(self.busy), "calls": dict(self.calls)}

    # -- installation ----------------------------------------------------

    def _patch(self, owner, name: str, layer: str) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original))

    def _patch_refinement(self, verifier_cls) -> None:
        original = verifier_cls.refinement
        wrap = self.wrap

        def refinement(verifier, op):
            ref = original(verifier, op)
            return dataclasses.replace(
                ref,
                make_impl=wrap("engine", ref.make_impl),
                impl_step=wrap("engine", ref.impl_step),
                spec_step=wrap("spec", ref.spec_step),
                abstract=wrap("spec", ref.abstract),
                rep_invariant=wrap("spec", ref.rep_invariant),
            )

        self._undo.append((verifier_cls, "refinement", original))
        verifier_cls.refinement = refinement

    def install_monitors(self) -> None:
        """Probe the Figure-11 path: compile, Refinement fields, runner."""
        import repro.certikos.verify as certikos_verify
        import repro.core.runner as runner
        import repro.komodo.verify as komodo_verify

        for module in (certikos_verify, komodo_verify):
            self._patch(module, "build_image", "compile")
        self._patch_refinement(certikos_verify.CertikosVerifier)
        self._patch_refinement(komodo_verify.KomodoVerifier)
        self._patch(runner, "obligations_from_context", "vcgen")
        self._patch(runner, "run_obligations", "dispatch")

    def install_jit(self) -> None:
        """Probe the JIT checker: emission, interpreters, prove, dispatch."""
        from repro.bpf_jit import RvJit, X86Jit
        import repro.bpf_jit.checker as checker
        import repro.core.runner as runner

        self._patch(RvJit, "emit_insn", "compile")
        self._patch(X86Jit, "emit_insn", "compile")
        for name in ("run_interpreter", "run_insn", "run_insns"):
            self._patch(checker, name, "engine")
        self._patch(checker, "prove", "prove")
        self._patch(runner, "parallel_map", "dispatch")

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# Reading what the program records


def reduce_snapshot(snap: dict, since_index: int = 0) -> dict:
    """Fold an obs ``Collector.snapshot()`` into per-layer raw numbers.

    Spans are read from ``since_index`` on, so a long-lived daemon's
    collector can be read one pass at a time.
    """
    span_s = defaultdict(float)
    worker_busy = defaultdict(float)
    bench_busy = defaultdict(float)
    sat_solves = []
    sched_busy = queue_wait = 0.0
    for name, cat, _tid, _ts, dur, args in snap["spans"][since_index:]:
        args = args or {}
        if cat == "scheduler":
            sched_busy += dur
            queue_wait += args.get("queued_s", 0.0)
            worker_busy[args.get("worker", 0)] += dur
        elif cat == "bench":
            bench_busy[name[len("bench."):]] += args.get("self_s", dur)
        else:
            span_s[name] += dur
            if name == "sat.solve":
                sat_solves.append(dur)
    return {
        "counters": dict(snap["counters"]),
        "span_s": dict(span_s),
        "sched_busy_s": sched_busy,
        "queue_wait_s": queue_wait,
        "worker_busy_s": {str(k): v for k, v in worker_busy.items()},
        "bench_busy_s": dict(bench_busy),
        "sat_solve_p99_s": percentile(sat_solves, 99),
    }


def counter_delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


# Counters copied straight from the program's obs session.
COUNTERS = (
    "sym.terms",
    "sym.merges",
    "sym.splits",
    "solver.queries",
    "solver.cache.hits",
    "solver.cache.misses",
    "solver.certs",
    "bitblast.queries",
    "bitblast.vars",
    "bitblast.clauses",
    "sat.propagations",
    "sat.conflicts",
    "sat.decisions",
    "sat.learned_clauses",
    "sat.reused_clauses",
)


def layer_metrics(
    pass_s: float,
    probes: dict,
    reduced: dict,
    workers: int,
    sched: dict,
    store: tuple[int, int],
    serve: dict | None = None,
) -> tuple[dict, list[tuple[str, float, int]]]:
    """Per-layer metrics for one traced pass, plus the waterfall rows.

    ``probes`` are the parent-side probe totals (the process that
    evaluates the grid: the benchmark's child or the daemon);
    worker-side probe time arrives as ``bench`` spans in ``reduced``.
    ``sched`` holds the scheduler's steal/retry/timeout counts for the
    pass.  The waterfall lists each parent-side layer's self time and
    an ``unattributed`` row, which together add up to ``pass_s``.
    """
    busy = probes.get("busy", {})
    calls = probes.get("calls", {})
    worker = reduced["bench_busy_s"]
    counters = reduced["counters"]
    spans = reduced["span_s"]

    def layer(name):
        return busy.get(name, 0.0) + worker.get(name, 0.0)

    capacity = pass_s * workers
    per_worker = [reduced["worker_busy_s"].get(str(w), 0.0) for w in range(workers)]
    mean_busy = sum(per_worker) / workers if workers else 0.0
    hits = counters.get("solver.cache.hits", 0)
    misses = counters.get("solver.cache.misses", 0)
    parent_sum = sum(busy.get(name, 0.0) for name in LAYERS)
    metrics = {
        "compile.busy_s": layer("compile"),
        "engine.busy_s": layer("engine"),
        "spec.busy_s": layer("spec"),
        "runner.vcgen_s": layer("vcgen"),
        "runner.dispatch_s": layer("dispatch"),
        "scheduler.utilization": reduced["sched_busy_s"] / capacity if capacity else 0.0,
        "scheduler.imbalance": max(per_worker) / mean_busy if mean_busy else 0.0,
        "scheduler.idle_s": max(capacity - reduced["sched_busy_s"], 0.0),
        "scheduler.queue_wait_s": reduced["queue_wait_s"],
        "scheduler.steals": sched.get("steals", 0),
        "scheduler.retries": sched.get("retries", 0),
        "scheduler.timeouts": sched.get("timeouts", 0),
        "solver.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "solver.canonicalize_s": spans.get("canonicalize", 0.0),
        "solver.cache_lookup_s": spans.get("cache.lookup", 0.0),
        "solver.cert_build_s": counters.get("solver.cert_build_s", 0.0),
        "solver.prove_s": layer("prove"),
        "bitblast.s": spans.get("bitblast", 0.0),
        "sat.solve_s": spans.get("sat.solve", 0.0),
        "sat.solve_p99_ms": reduced["sat_solve_p99_s"] * 1000.0,
        "store.entries": store[0],
        "store.bytes": store[1],
        "serve.job_run_s": (serve or {}).get("job_run_s", 0.0),
        "serve.client_overhead_ms": (serve or {}).get("client_overhead_ms", 0.0),
        "bench.unattributed_s": pass_s - parent_sum,
    }
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    rows = [(name, busy.get(name, 0.0), calls.get(name, 0)) for name in LAYERS]
    rows.append(("unattributed", pass_s - parent_sum, 0))
    return metrics, rows

