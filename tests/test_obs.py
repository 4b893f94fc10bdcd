"""Tests for ``repro.obs``: the unified tracing & metrics layer.

Covers the contracts the observability PR promises: span nesting and
post-exit args attachment, bit-identical counters across seeded runs,
worker->parent trace reassembly through the work-stealing scheduler,
Chrome trace schema validity, the near-zero disabled fast path, SAT
counter reset between solves, and §3.2 region accounting (exclusive
time, worker reassembly, regions in every traced run).
"""

import sys
import time

import pytest

from repro import obs
from repro.core.runner import Obligation, run_obligations
from repro.smt import manager, mk_bv, mk_bvadd, mk_bvmul, mk_eq, mk_ult, mk_var
from repro.smt.sat.solver import SatSolver
from repro.smt.solver import Solver
from repro.smt.sorts import bv_sort
from repro.sym import fresh_bool, fresh_bv, merge

BV8 = bv_sort(8)


def _solve_some(prefix: str) -> None:
    """A small deterministic workload: one non-trivial check."""
    x = mk_var(f"{prefix}_x", BV8)
    y = mk_var(f"{prefix}_y", BV8)
    goal = mk_eq(mk_bvmul(x, y), mk_bv(24, 8))
    Solver().check(goal, mk_ult(x, y))


def _obligations(prefix: str, n: int = 5) -> list[Obligation]:
    out = []
    for i in range(n):
        x = mk_var(f"{prefix}_x{i}", BV8)
        y = mk_var(f"{prefix}_y{i}", BV8)
        goal = mk_eq(mk_bvadd(x, y), mk_bvadd(y, x))
        out.append(Obligation.from_terms(f"{prefix}[{i}]", [goal]))
    return out


class TestSpans:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.get_collector() is None
        # The disabled span is a shared singleton — no allocation.
        assert obs.span("a") is obs.span("b")
        with obs.span("noop") as args:
            assert args is None
        obs.count("nothing", 5)  # no-op, no error

    def test_span_nesting(self):
        with obs.tracing() as col:
            with obs.span("outer", cat="sym"):
                with obs.span("inner", cat="sym"):
                    time.sleep(0.001)
        assert [e.name for e in col.spans] == ["inner", "outer"]
        outer = col.spans[1]
        inner = col.spans[0]
        assert inner.ts >= outer.ts
        assert inner.ts + inner.dur <= outer.ts + outer.dur + 1e-6

    def test_args_attached_after_exit(self):
        """The mutable-args pattern: instrumentation fills the span's
        args dict after the ``with`` block closes."""
        with obs.tracing() as col:
            with obs.span("solve", cat="sat") as args:
                pass
            args["status"] = "unsat"
        assert col.spans[0].args["status"] == "unsat"

    def test_nested_tracing_absorbs_into_outer(self):
        with obs.tracing() as outer:
            obs.count("k", 1)
            with obs.tracing() as inner:
                obs.count("k", 2)
                with obs.span("inner-only"):
                    pass
            # Inner session folded into the outer on exit.
        assert outer.counters["k"] == 3
        assert [e.name for e in outer.spans] == ["inner-only"]
        assert inner.counters["k"] == 2

    def test_span_cap_drops_and_counts(self):
        col = obs.Collector(max_spans=3)
        with obs.tracing(collector=col):
            for i in range(5):
                with obs.span(f"s{i}"):
                    pass
        assert len(col.spans) == 3
        assert col.dropped_spans == 2

    def test_hooks_restored_after_tracing(self):
        # ``repro.sym.merge`` the attribute is the merge function.
        merge_module = sys.modules["repro.sym.merge"]
        assert manager.on_new_term is None and merge_module._merge_hook is None
        with obs.tracing():
            with obs.tracing():
                pass
            # Still installed while the outer session is open.
            assert manager.on_new_term is not None
        assert manager.on_new_term is None
        assert merge_module._merge_hook is None


def _ten_vars_one_merge(prefix: str) -> None:
    """12 terms: ten variables, the merge guard, and the merged ite."""
    xs = [fresh_bv(f"{prefix}_{i}", 8) for i in range(10)]
    merge(fresh_bool(f"{prefix}_c"), xs[0], xs[1])


class TestCounters:
    def test_nested_sessions_count_once(self):
        """An inner session's terms reach the outer collector once,
        through absorb, not also through a chained hook."""
        with obs.tracing() as solo:
            _ten_vars_one_merge("solo")
        with obs.tracing() as outer:
            with obs.tracing():
                _ten_vars_one_merge("nested")
        assert (solo.counters["sym.terms"], solo.counters["sym.merges"]) == (12, 1)
        assert outer.counters["sym.terms"] == solo.counters["sym.terms"]
        assert outer.counters["sym.merges"] == solo.counters["sym.merges"]

    def test_stack_counters_recorded(self):
        with obs.tracing() as col:
            _solve_some("ctrs")
        counters = col.counters
        assert counters["solver.queries"] == 1
        assert counters["bitblast.queries"] == 1
        assert counters["bitblast.clauses"] > 0
        assert counters["sym.terms"] > 0
        assert counters["sat.decisions"] > 0
        # Counters are integers only — wall-clock never leaks in.
        assert all(isinstance(v, int) for v in counters.values())

    def test_counters_deterministic_across_runs(self):
        """Two structurally identical workloads produce bit-identical
        counter maps.  Distinct variable prefixes per run keep the
        hash-consed DAG from making the second run trivially free."""
        with obs.tracing() as first:
            _solve_some("det_a")
        with obs.tracing() as second:
            _solve_some("det_b")
        assert first.counters == second.counters

    def test_cache_counters(self, tmp_path):
        from repro.core.store import VerdictStore

        x = mk_var("cachectr_x", BV8)
        goal = mk_eq(mk_bvadd(x, x), mk_bv(4, 8))
        with obs.tracing() as col:
            Solver(cache=VerdictStore(str(tmp_path))).check(goal)
            Solver(cache=VerdictStore(str(tmp_path))).check(goal)
        assert col.counters["solver.cache.misses"] == 1
        assert col.counters["solver.cache.hits"] == 1
        cache_spans = [e for e in col.spans if e.cat == "solver-cache"]
        assert {e.name for e in cache_spans} == {"canonicalize", "cache.lookup", "cert.build"}


def _worker_obs_enabled(_item) -> bool:
    return obs.enabled()


class TestWorkerReassembly:
    def test_workers_forked_in_a_session_trace_only_traced_tasks(self):
        """A pool forked inside ``tracing()`` must not keep tracing into
        the parent session's copy once the session is over."""
        from repro.core.runner import parallel_map
        from repro.core.scheduler import shutdown_scheduler

        shutdown_scheduler()
        try:
            with obs.tracing():
                inside = parallel_map(_worker_obs_enabled, range(4), jobs=2)
            outside = parallel_map(_worker_obs_enabled, range(4), jobs=2)
        finally:
            shutdown_scheduler()
        assert inside == [True] * 4
        assert outside == [False] * 4

    def test_scheduler_trace_reassembly(self):
        from repro.core.scheduler import shutdown_scheduler

        obligations = _obligations("reasm", 6)
        try:
            with obs.tracing() as col:
                results, stats = run_obligations(obligations, jobs=2)
        finally:
            shutdown_scheduler()
        assert [r.name for r in results] == [ob.name for ob in obligations]
        assert all(r.proved for r in results)

        sched = [e for e in col.spans if e.cat == "scheduler"]
        assert len(sched) == len(obligations)
        # One span per obligation, labelled with its worker's track.
        assert {e.name for e in sched} == {ob.name for ob in obligations}
        assert all(e.tid.startswith("worker-") for e in sched)
        for event in sched:
            assert event.args["status"] == "proved"
            assert event.args["attempts"] == 1
        # Worker-side solver activity landed on worker tracks too.
        sat_spans = [e for e in col.spans if e.cat == "sat"]
        assert sat_spans and all(e.tid.startswith("worker-") for e in sat_spans)
        assert col.counters["solver.queries"] == len(obligations)
        # These obligations enter no sym regions.
        assert col.regions == {}

    def test_sequential_trace_has_scheduler_layer(self):
        with obs.tracing() as col:
            results, _ = run_obligations(_obligations("seqtrace", 3), jobs=1)
        assert all(r.proved for r in results)
        sched = [e for e in col.spans if e.cat == "scheduler"]
        assert [e.name for e in sched] == [r.name for r in results]
        assert all(e.args["status"] == "proved" for e in sched)


class TestExport:
    def test_chrome_trace_schema(self):
        with obs.tracing() as col:
            with obs.span("a", cat="sym"):
                with obs.span("b", cat="sat"):
                    pass
            obs.count("sat.conflicts", 7)
        doc = obs.chrome_trace(col)
        assert obs.validate_chrome_trace(doc) == []
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} == {"X"}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
        assert doc["otherData"]["counters"]["sat.conflicts"] == 7

    def test_validate_rejects_malformed(self):
        assert obs.validate_chrome_trace([]) != []
        assert obs.validate_chrome_trace({"traceEvents": [{"name": "x"}]}) != []

    def test_jsonl_lines(self):
        import json

        with obs.tracing() as col:
            with obs.span("only", cat="bitblast"):
                pass
        lines = list(obs.jsonl_lines(col))
        rows = [json.loads(line) for line in lines]
        assert any(r.get("name") == "only" for r in rows)

    def test_report_renders(self):
        from repro.obs.report import render_report, summarize

        with obs.tracing() as col:
            run_obligations(_obligations("report", 2), jobs=1)
        text = render_report({"obs": summarize(col)})
        assert "obligations by wall time" in text
        assert "report[0]" in text

    def test_report_family_table(self, tmp_path):
        from repro.obs.report import family_table, render_report, summarize

        # Alpha-equivalent goals: the store answers all but the first.
        obligations = [
            Obligation(f"vc[{i}]: fam.op.O1: commutes", ob.payload, ob.num_goals, ob.info)
            for i, ob in enumerate(_obligations("family", 3))
        ]
        with obs.tracing() as col:
            run_obligations(obligations, jobs=1, cache_dir=str(tmp_path))
        summary = summarize(col)
        [fam] = family_table(summary["obligations"])
        assert fam["family"] == "commutes"
        assert (fam["count"], fam["misses"]) == (3, 1)
        assert fam["clauses"] > 0
        assert "obligations by VC family" in render_report({"obs": summary})

    def test_family_names(self):
        from repro.obs.report import family_table

        rows = [
            {"name": "vc[35]: certikos.yield.O1: AF lock-step refinement [part 2/22]",
             "wall_s": 0.5, "miss": True, "propagations": 100, "clauses": 10},
            {"name": "vc[29]: komodo.enter.O1: AF lock-step refinement [part 1/13]",
             "wall_s": 0.25, "miss": False, "propagations": 0, "clauses": 0},
            {"name": "vc[0]: memory access outside region", "wall_s": 0.1},
            {"name": "vc[35]: certikos.yield.O1: AF lock-step refinement", "wall_s": 0.01},
        ]
        fams = family_table(rows)
        assert [f["family"] for f in fams] == [
            "AF lock-step refinement (part)",
            "memory access outside region",
            "AF lock-step refinement",
        ]
        assert fams[0] == {
            "family": "AF lock-step refinement (part)",
            "count": 2,
            "misses": 1,
            "wall_s": 0.75,
            "propagations": 100,
            "clauses": 10,
        }


class TestDisabledOverhead:
    def test_disabled_fast_path_is_cheap(self):
        """The disabled guard is a global load + None test.  Generous
        absolute bound so slow CI machines do not flake: 200k
        span+region+count triples well under a second (that is > 5us
        per triple)."""
        assert not obs.enabled()
        span, region, count = obs.span, obs.region, obs.count
        start = time.perf_counter()
        for _ in range(200_000):
            with span("hot", cat="sat"):
                pass
            with region("hot"):
                pass
            count("hot.counter")
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"disabled obs path took {elapsed:.3f}s for 200k pairs"

    @pytest.mark.slow
    def test_toyrisc_verify_untraced(self):
        """End-to-end smoke with tracing disabled: the instrumented
        stack proves the §3.2 walkthrough with no collector active."""
        from repro.toyrisc import prove_sign_refinement

        assert not obs.enabled()
        assert prove_sign_refinement().proved
        assert not obs.enabled()


class TestSatCounterReset:
    def test_stats_reset_between_solves(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a, b])
        solver.add_clause([a, -b])
        assert solver.solve() == "sat"
        first = solver.stats()
        assert solver.solve() == "sat"
        second = solver.stats()
        # Per-solve counters restart from zero each query instead of
        # accumulating across solves.
        for key in ("conflicts", "decisions", "propagations", "restarts",
                    "learned_clauses", "conflict_literals", "max_decision_level"):
            assert second[key] <= first[key], key
        # The first solve decided something; a cumulative counter would
        # carry that into the second snapshot.
        assert first["decisions"] > 0
        assert second["decisions"] < 2 * first["decisions"]

    def test_stats_keys(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([a])
        solver.solve()
        stats = solver.stats()
        for key in ("vars", "clauses", "conflicts", "decisions", "propagations",
                    "restarts", "learned_clauses", "learned_kept",
                    "conflict_literals", "max_decision_level", "avg_learned_len"):
            assert key in stats


class TestProfilerIntegration:
    """§3.2 regions recorded by ``obs.region`` into ``Collector.regions``."""

    def test_exclusive_time(self):
        with obs.tracing() as col:
            with obs.region("parent"):
                time.sleep(0.02)
                with obs.region("child"):
                    time.sleep(0.02)
        parent = col.regions["parent"]
        child = col.regions["child"]
        assert parent["time_s"] >= parent["excl_s"]
        assert parent["time_s"] >= 0.035
        assert parent["excl_s"] < parent["time_s"] - 0.01  # child time excluded
        assert abs(child["excl_s"] - child["time_s"]) < 1e-6  # leaf: excl == incl

    def test_regions_emit_sym_spans(self):
        with obs.tracing() as col:
            with obs.region("spanned"):
                mk_var("profspan_x", BV8)
        spans = [e for e in col.spans if e.cat == "sym" and e.name == "spanned"]
        assert len(spans) == 1
        assert spans[0].args["terms"] >= 1

    def test_region_obs_only_without_profiler(self):
        """A region needs nothing but a tracing session: it lands in
        both the span list and the region table."""
        with obs.tracing() as col:
            with obs.region("unprofiled") as args:
                assert args == {}
        assert [e.name for e in col.spans if e.cat == "sym"] == ["unprofiled"]
        assert col.regions["unprofiled"]["calls"] == 1

    def test_profile_chains_obs_hooks(self):
        """One hook pair feeds the session's sym.* counters and the
        regions' deltas of them."""
        with obs.tracing() as col:
            with obs.region("both"):
                mk_var("chain_x", BV8)
        assert col.regions["both"]["terms"] == 1
        assert col.counters["sym.terms"] == 1

    def test_merge_from_roundtrip(self):
        """Absorbing a snapshot twice doubles calls and terms and keeps
        the max of max_union."""
        with obs.tracing(absorb=False) as col:
            with obs.region("r"):
                mk_var("mergefrom_x", BV8)
                merge(fresh_bool("mergefrom_c"), merge(fresh_bool("mergefrom_d"), "a", "b"), "c")
        snap = col.snapshot()
        other = obs.Collector()
        other.absorb(snap)
        other.absorb(snap)
        r = other.regions["r"]
        assert r["calls"] == 2 * col.regions["r"]["calls"]
        assert r["terms"] == 2 * col.regions["r"]["terms"]
        assert r["max_union"] == col.regions["r"]["max_union"] == 2


def _traced_regions(run, jobs: int) -> dict:
    from repro.core.scheduler import shutdown_scheduler

    try:
        with obs.tracing() as col:
            assert run(jobs).proved
    finally:
        shutdown_scheduler()
    return {row["name"]: row for row in obs.summarize(col)["regions"]}


class TestRegionsInTracedRuns:
    """A traced run reports its regions with no other switch: the
    interpreter runs in-process, its obligations in workers at jobs=2."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_toyrisc(self, jobs):
        from repro.toyrisc.spec import sign_refinement

        regions = _traced_regions(lambda j: sign_refinement(32).prove(jobs=j), jobs)
        assert regions["engine.step"]["calls"] > 0
        assert regions["toyrisc.fetch"]["calls"] > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_certikos_get_quota(self, jobs):
        from repro.certikos import CertikosVerifier

        regions = _traced_regions(
            lambda j: CertikosVerifier(jobs=j).prove_op("get_quota"), jobs
        )
        assert regions["engine.step"]["calls"] > 0
        assert regions["riscv.fetch"]["calls"] > 0
