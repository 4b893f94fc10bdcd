"""The repository benchmark: cold Figure-11 grid, BPF JIT sweep, warm daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from
``src/``.  Workloads (``BENCHMARK.json`` says why each exists):

``fig11-cold``
    The ``fig11`` grid (CertiKOS get_quota and yield, seven Komodo
    ops; 308 obligations) at O1 with ``jobs=2``.  Every pass runs in a
    fresh interpreter with an empty store and a newly forked scheduler
    pool, so no solver session, term table or store entry carries over.
``jit-sweep``
    The 15 JIT bug witnesses (each must give a counterexample), then
    the fixed RISC-V and x86-32 JITs over their instruction batteries
    via ``sweep(jobs=2)``.  Every pass runs in a fresh interpreter.
``serve-warm``
    ``python -m repro.serve --jobs 2 --no-trace`` over a store warmed
    during set-up, with two closed-loop clients each submitting
    ``fig11-quick`` jobs and waiting for the verdicts.  Every query is
    a store hit, so this is also the workload where compilation,
    symbolic evaluation, VC generation and store reads do the work.

The seed fixes the order of requests in every pass (op order,
instruction order, client start order).  A request is one ``prove_op``
(verifier construction included), one JIT check (its own duration, timed
where it runs), or one daemon job (submission to verdict map).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a few
untraced passes and then one traced pass, and prints the per-layer
metrics of the traced one (layer probes from ``probes.py`` plus what
the program's obs session records).  Before the last line, which is the JSON result, the
benchmark prints a table of every metric with unit and sample count.
It exits with 1 if any request got a wrong or no verdict, or the
certificate audit failed.  The audit (``python -m repro.smt.checkproof
--store DIR --require-certs``, outside the timed passes) checks the
cold-filled store of every serve-warm run and of every traced
fig11-cold run; the full grid's 124 certificates take 10 s to check,
too long for every untraced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BenchError,
    ROOT,
    SRC,
    audit_store,
    check_checkout,
    make_workdir,
    median,
    percentile,
    remove_workdir,
    run_child,
    store_size,
)
from probes import counter_delta, layer_metrics  # noqa: E402

JOBS = 2
# Minimum passes per run.  fig11-cold passes take 10-15 s, so four of
# them outlast the usual --seconds; each pass has its own op order, and
# the medians over four tame the spread of pass times and op latencies.
# jit-sweep passes take under a second, but a shared host's speed
# drifts over seconds, so 16 of them average it out better than 10 s.
# serve-warm needs 100 requests for its p90.
MIN_PASSES = {"fig11-cold": 4, "jit-sweep": 16, "serve-warm": 3}
# fig11-cold's set-up is a fresh interpreter's start-up; these extra
# start-ups (about 0.3 s each) join its passes' ones in the setup_s median.
EXTRA_STARTUPS = 8
# Untraced passes a --trace 1 run makes before its traced pass; their
# median is the baseline of the tracing overhead.
TRACE_BASELINE = {"fig11-cold": 1, "jit-sweep": 3, "serve-warm": 1}
# serve-warm: grid jobs per pass, split over this many clients (no more
# clients than scheduler workers; load comes from this one process).
SERVE_JOBS = 36
SERVE_CLIENTS = 2
# serve-warm set-ups per untraced run (daemon boot plus a cold fill job
# each); setup_s is their median.
SERVE_SETUPS = 3



def load_catalog() -> tuple[dict, dict]:
    """``({name: unit}, {name: unit})`` of the end-to-end and per-layer
    metrics, in ``BENCHMARK.json``'s order: the one list of metric names."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


class Outcome:
    """Requests attempted and failed, plus notes for the run log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.audit_ok = True
        self.notes: list[str] = []
        self.walls: list[float] = []

    def requests(self, oks) -> None:
        oks = list(oks)
        self.attempted += len(oks)
        self.failed += sum(1 for ok in oks if not ok)

    def audit(self, store: str, workdir: str) -> None:
        ok, line = audit_store(store, workdir)
        self.audit_ok = self.audit_ok and ok
        self.notes.append(f"certificate audit ({'ok' if ok else 'FAILED'}): {line}")


def end_to_end(setup: list[float], passes: list[dict], out: Outcome) -> tuple[dict, dict]:
    out.walls = [p["wall_s"] for p in passes]
    latencies = [x for p in passes for x in p["latencies_s"]]
    values = {
        "setup_s": median(setup),
        "pass_s": median([p["wall_s"] for p in passes]),
        "op_p50_ms": percentile(latencies, 50) * 1000.0,
        "op_p90_ms": percentile(latencies, 90) * 1000.0,
        "cpu_s": median([p["cpu_s"] for p in passes]),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    samples = {
        "setup_s": len(setup),
        "pass_s": len(passes),
        "op_p50_ms": len(latencies),
        "op_p90_ms": len(latencies),
        "cpu_s": len(passes),
        "peak_rss_mb": len(passes),
    }
    return values, samples


def fig11_oks(passes) -> list[bool]:
    return [v == "proved" for p in passes for v in p["verdicts"].values()]


def traced_layers(passes: list[dict], store: tuple[int, int], serve=None):
    """Per-layer metrics of the last (traced) pass; the others are untraced."""
    traced = passes[-1]
    metrics, rows = layer_metrics(
        traced["wall_s"],
        traced["probes"],
        traced["reduced"],
        traced["workers"],
        traced["sched"],
        store,
        serve,
    )
    metrics["bench.traced_pass_s"] = traced["wall_s"]
    untraced = median([p["wall_s"] for p in passes[:-1]])
    metrics["bench.trace_overhead_s"] = traced["wall_s"] - untraced
    return metrics, rows


# ---------------------------------------------------------------------------
# Workloads


def pass_plan(workload: str, seconds: float, trace: bool):
    """Yield ``(index, traced)`` for each pass a run makes.

    Untraced: passes until ``seconds`` have gone and at least
    ``MIN_PASSES`` ran.  Traced: the overhead baseline, then one traced
    pass.
    """
    if trace:
        baseline = TRACE_BASELINE[workload]
        yield from ((index, index == baseline) for index in range(baseline + 1))
        return
    start = time.perf_counter()
    index = 0
    while index < MIN_PASSES[workload] or time.perf_counter() - start < seconds:
        yield index, False
        index += 1


def run_fig11_cold(seed, seconds, trace, workdir, out: Outcome):
    store = os.path.join(workdir, "store")
    children = []
    for index, traced in pass_plan("fig11-cold", seconds, trace):
        shutil.rmtree(store, ignore_errors=True)  # every pass starts empty
        args = {"seed": seed, "index": index, "jobs": JOBS, "store": store, "trace": traced}
        children.append(run_child("fig11-cold", args, workdir))
    passes = [c["passes"][0] for c in children]
    out.requests(fig11_oks(passes))
    if trace:
        out.audit(store, workdir)
        return traced_layers(passes, store_size(store))
    children += [run_child("fig11-startup", {}, workdir) for _ in range(EXTRA_STARTUPS)]
    setup = [c["ready_t"] - c["spawn_t"] for c in children]
    return end_to_end(setup, passes, out)


def run_jit_sweep(seed, seconds, trace, workdir, out: Outcome):
    children = [
        run_child("jit-sweep", {"seed": seed, "index": index, "trace": traced}, workdir)
        for index, traced in pass_plan("jit-sweep", seconds, trace)
    ]
    passes = [c["passes"][0] for c in children]
    out.requests(ok for p in passes for ok in p["ok"])
    setup = [c["ready_t"] - c["spawn_t"] for c in children]
    if trace:
        return traced_layers(passes, (0, 0))
    return end_to_end(setup, passes, out)


def run_serve_warm(seed, seconds, trace, workdir, out: Outcome):
    import serving

    setups = []
    daemon = None
    try:
        # Set up several times, each a new daemon over an empty store,
        # and serve the passes from the last one.
        for k in range(1 if trace else SERVE_SETUPS):
            if daemon is not None:
                out.notes.extend(daemon_log_notes(f"set-up daemon {k - 1}", daemon.stop()))
            store = os.path.join(workdir, f"store-{k}")
            start = time.perf_counter()
            daemon = serving.Daemon(workdir, store, f"main-{k}", traced=False)
            if not serving.fill(daemon):
                raise BenchError("the daemon's cold fill job did not prove the grid")
            setups.append(time.perf_counter() - start)
        passes = []
        for index, traced in pass_plan("serve-warm", seconds, trace):
            if traced:
                break  # the traced pass needs a daemon under the probes
            passes.append(serving.serve_pass(daemon, seed, index, SERVE_JOBS, SERVE_CLIENTS))
    finally:
        log = daemon.stop() if daemon is not None else ""
    out.notes.extend(daemon_log_notes("untraced daemon", log))
    if trace:
        traced, traced_log = traced_serve_pass(workdir, store, seed, len(passes))
        out.notes.extend(daemon_log_notes("traced daemon", traced_log))
        passes.append(traced)
    for p in passes:
        out.requests(p["ok"])
        out.notes.extend(f"request error: {e}" for e in p["errors"])
    out.audit(store, workdir)
    if trace:
        return traced_layers(passes, store_size(store), passes[-1]["serve"])
    return end_to_end(setups, passes, out)


def traced_serve_pass(workdir, store, seed, index):
    """One pass against a daemon running under the layer probes."""
    import serving

    daemon = serving.Daemon(workdir, store, "traced", traced=True)
    try:
        # Warm the traced daemon's pool and term tables like the untraced one.
        if not serving.fill(daemon):
            raise BenchError("the traced daemon's warm-up job did not prove the grid")
        before = daemon.dump()
        result = serving.serve_pass(daemon, seed, index, SERVE_JOBS, SERVE_CLIENTS)
        after = daemon.dump()
    finally:
        log = daemon.stop()
    reduced = dict(after["reduced"])
    reduced["counters"] = counter_delta(after["reduced"]["counters"], before["reduced"]["counters"])
    result["probes"] = {
        key: counter_delta(after["probes"][key], before["probes"][key]) for key in ("busy", "calls")
    }
    result["reduced"] = reduced
    result["workers"] = after["telemetry"].get("pool_workers", JOBS)
    result["sched"] = counter_delta(after["telemetry"], before["telemetry"])
    run_s = result["run_s"]
    overhead = [lat - run for lat, run in zip(result["latencies_s"], run_s)]
    result["serve"] = {
        "job_run_s": median(run_s),
        "client_overhead_ms": median(overhead) * 1000.0,
    }
    return result, log


def daemon_log_notes(label: str, log: str) -> list[str]:
    """The daemon's whole log, unfiltered.

    On SIGTERM the daemon raises KeyboardInterrupt from its handler, and
    its forked scheduler workers inherit that handler, so the log may
    hold KeyboardInterrupt tracebacks from the workers.  That is a known
    program defect, recorded here as it is.
    """
    tracebacks = log.count("KeyboardInterrupt")
    notes = [f"{label} log: {len(log.splitlines())} lines, "
             f"{tracebacks} KeyboardInterrupt line(s) after SIGTERM"]
    notes.extend(f"  | {line}" for line in log.splitlines())
    return notes


WORKLOADS = {
    "fig11-cold": run_fig11_cold,
    "jit-sweep": run_jit_sweep,
    "serve-warm": run_serve_warm,
}


# ---------------------------------------------------------------------------
# Output


def print_table(title: str, values: dict, units: dict, samples: dict | None, rows=None) -> None:
    print(title)
    if rows:
        total = sum(busy for _, busy, _ in rows)
        print(f"  {'layer (self time, parent side)':<32} {'s':>10} {'share':>7} {'calls':>8}")
        for name, busy, calls in rows:
            share = busy / total if total else 0.0
            print(f"  {name:<32} {busy:>10.4f} {share:>7.1%} {calls:>8}")
        print(f"  {'pass_s (sum of the rows)':<32} {total:>10.4f}")
    print(f"  {'metric':<28} {'value':>16} {'unit':<6} {'samples':>7}")
    for name, value in values.items():
        n = "" if samples is None else samples.get(name, "")
        print(f"  {name:<28} {value:>16.6g} {units[name]:<6} {n:>7}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        end_to_end_units, per_layer_units = load_catalog()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    out = Outcome()
    workdir = make_workdir()
    try:
        values, extra = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), workdir, out
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_workdir(workdir)

    for note in out.notes:
        print(note, file=sys.stderr)
    if out.walls:
        walls = " ".join(f"{w:.3f}" for w in out.walls)
        print(f"pass walls in order (s): {walls}", file=sys.stderr)
    mode = "per-layer, traced pass" if args.trace else "end-to-end, untraced passes"
    title = f"perfbench {args.workload} seed={args.seed} ({mode})"
    units = per_layer_units if args.trace else end_to_end_units
    values = {name: values[name] for name in units}
    if args.trace:
        print_table(title, values, units, None, rows=extra)
    else:
        print_table(title, values, units, extra)
    share = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'failed_share':<28} {share:>16.6g} {'1':<6} {out.attempted:>7}")
    correct = out.failed == 0 and out.attempted > 0 and out.audit_ok
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
