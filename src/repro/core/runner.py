"""Parallel proof-obligation runner with a persistent solver cache.

Serval's symbolic optimizations deliberately decompose one monolithic
verification task into many small, independent proof obligations:
``split-pc`` (repro.core.engine) yields one guarded final state per
path through the binary, and ``split-cases`` (repro.core.symopt)
yields one proof per monitor-call handler.  Each verification
condition collected in the evaluation context is therefore an
independent check-sat query — the natural unit of parallelism and
memoization.

This module makes those units explicit:

  * :class:`Obligation` — a self-contained query (serialized term DAG
    for the goal formulas plus assumptions) that can be shipped to a
    worker process or hashed for the cache;
  * :func:`run_obligations` — dispatches obligations across worker
    processes via ``multiprocessing`` and reduces results
    deterministically (input order, first failure wins);
  * the persistent verdict store (``repro.core.store.VerdictStore``)
    keyed by the canonical hash-consed DAG digest, so alpha-equivalent
    queries hit across runs and across worker processes, every stored
    verdict with its proof certificate.

Everything above the solver boundary (``repro.sym.check_batch``,
``Refinement.prove(jobs=...)``, the verifiers' ``jobs``/``cache_dir``
knobs) funnels through here.

Parallel dispatch goes through the **process-wide work-stealing
scheduler** (``repro.core.scheduler``): one persistent pool shared by
every ``run_obligations`` call, with per-obligation timeout + bounded
retry and verdicts memoized in the sharded content-addressed store
(``repro.core.store.VerdictStore``).  ``jobs=1`` is the in-process
sequential baseline.  Both paths split a conjunctive obligation that
misses the store into one obligation per conjunct (the runner-level
analogue of Serval's ``split-cases``), so the long state-equality
refinement VCs spread across workers instead of pinning one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import os
import time
from typing import Callable, Iterable, Sequence

from ..obs import (
    count as _obs_count,
    observe as _obs_observe,
    span as _obs_span,
)
from ..smt import (
    SolverTimeout,
    Term,
    deserialize_terms,
    mk_and,
    mk_not,
    serialize_terms,
)
from ..smt.proof import build_conj_certificate
from ..smt.solver import UNSAT, CheckResult, Solver

__all__ = [
    "Obligation",
    "ObligationResult",
    "RunnerStats",
    "default_jobs",
    "obligations_from_context",
    "parallel_map",
    "reduce_results",
    "run_obligations",
]

PROVED = "proved"
FAILED = "failed"
UNKNOWN = "unknown"
# A round-one marker: "solve my conjuncts instead".  Never leaves
# run_obligations.
SPLIT = "split"


def default_jobs() -> int:
    """Worker count when the caller asks for ``jobs=0`` (all cores)."""
    return max(os.cpu_count() or 1, 1)


@dataclass
class Obligation:
    """One independent proof obligation.

    ``payload`` is the portable serialization of ``goals + assumptions``
    (see ``repro.smt.serialize_terms``); ``num_goals`` splits the two
    groups back apart on the worker side.  The obligation is proved by
    showing ``assumptions /\\ not(/\\ goals)`` unsatisfiable.
    """

    name: str
    payload: dict
    num_goals: int
    info: dict = field(default_factory=dict)

    @classmethod
    def from_terms(
        cls,
        name: str,
        goals: Sequence[Term],
        assumptions: Sequence[Term] = (),
        **info,
    ) -> "Obligation":
        goals = list(goals)
        roots = goals + list(assumptions)
        return cls(name, serialize_terms(roots), len(goals), dict(info))

    def to_json(self) -> dict:
        """Wire format for shipping an obligation to a remote runner
        (``repro.serve`` batch jobs).  Everything inside is already
        JSON-safe: the payload is ``serialize_terms`` output."""
        return {
            "name": self.name,
            "num_goals": self.num_goals,
            "payload": self.payload,
            "info": self.info,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Obligation":
        """Rebuild an obligation from :meth:`to_json` output.

        Validates shape only (types and payload structure) — the term
        DAG itself is checked when a worker deserializes it, so a
        malformed batch degrades to per-obligation ``unknown`` verdicts
        instead of taking the daemon down.  Raises ``ValueError`` on a
        document that is not an obligation at all.
        """
        if not isinstance(doc, dict):
            raise ValueError("obligation must be a JSON object")
        name = doc.get("name")
        num_goals = doc.get("num_goals")
        payload = doc.get("payload")
        if not isinstance(name, str) or not name:
            raise ValueError("obligation.name must be a non-empty string")
        if not isinstance(num_goals, int) or isinstance(num_goals, bool) or num_goals < 1:
            raise ValueError("obligation.num_goals must be a positive integer")
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("nodes"), list)
            or not isinstance(payload.get("roots"), list)
        ):
            raise ValueError("obligation.payload must carry serialized terms (nodes/roots)")
        if num_goals > len(payload["roots"]):
            raise ValueError("obligation.num_goals exceeds the payload's root count")
        info = doc.get("info", {})
        if not isinstance(info, dict):
            raise ValueError("obligation.info must be an object")
        return cls(name, payload, num_goals, dict(info))


@dataclass
class ObligationResult:
    """Verdict for one obligation, reduced deterministically."""

    name: str
    status: str  # proved | failed | unknown
    model_values: dict | None = None
    stats: dict = field(default_factory=dict)

    @property
    def proved(self) -> bool:
        return self.status == PROVED

    def span_args(self) -> dict:
        """Fields of this obligation's ``scheduler`` span: the verdict,
        whether the store was asked and missed, and the SAT work this
        run spent on it (none on a store hit)."""
        stats = self.stats
        hit = bool(stats.get("cache_hit"))
        return {
            "status": self.status,
            "miss": bool(stats.get("cached")) and not hit,
            "propagations": 0 if hit else stats.get("propagations", 0),
            "clauses": 0 if hit else stats.get("blasted_clauses", stats.get("sat_clauses", 0)),
        }

    def to_json(self) -> dict:
        """Wire format for a verdict (``repro.serve`` streams these).

        ``stats`` is filtered to JSON scalars so obs envelopes and other
        process-local baggage never leak onto the wire.
        """
        stats = {
            key: value
            for key, value in self.stats.items()
            if isinstance(value, (int, float, str, bool)) or value is None
        }
        doc: dict = {"name": self.name, "status": self.status, "stats": stats}
        if self.model_values is not None:
            doc["model"] = dict(self.model_values)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ObligationResult":
        if not isinstance(doc, dict) or not isinstance(doc.get("name"), str):
            raise ValueError("obligation result must be an object with a name")
        status = doc.get("status")
        if status not in (PROVED, FAILED, UNKNOWN):
            raise ValueError(f"obligation result has unknown status {status!r}")
        model = doc.get("model")
        if model is not None and not isinstance(model, dict):
            raise ValueError("obligation result model must be an object")
        stats = doc.get("stats", {})
        if not isinstance(stats, dict):
            raise ValueError("obligation result stats must be an object")
        return cls(doc["name"], status, model_values=model, stats=dict(stats))

    def __repr__(self) -> str:
        return f"ObligationResult({self.name}: {self.status})"


@dataclass
class RunnerStats:
    """Aggregate statistics for one ``run_obligations`` call."""

    obligations: int = 0
    jobs: int = 1
    wall_time_s: float = 0.0
    cache_queries: int = 0
    cache_hits: int = 0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.cache_queries if self.cache_queries else 0.0

    def as_dict(self) -> dict:
        return {
            "obligations": self.obligations,
            "jobs": self.jobs,
            "wall_time_s": self.wall_time_s,
            "cache_queries": self.cache_queries,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
        }


def obligations_from_context(ctx, assumptions: Sequence = (), prefix: str = "vc") -> list[Obligation]:
    """One obligation per VC collected during symbolic evaluation.

    This is where the engine's path decomposition becomes explicit:
    every ``assert_prop``/``bug_on`` recorded under a path guard is an
    independent query.  ``assumptions`` may be ``SymBool``s or raw
    boolean terms.
    """
    assume_terms = [a.term if hasattr(a, "term") else a for a in assumptions]
    out = []
    for i, vc in enumerate(ctx.vcs):
        out.append(
            Obligation.from_terms(
                f"{prefix}[{i}]: {vc.message}",
                [vc.formula],
                assume_terms,
                kind=vc.kind,
                index=i,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Worker side

def _conjunct_indices(obligation: Obligation, goals: Sequence[Term]) -> list[int] | None:
    """Payload node indices of the goal's conjuncts, when it splits.

    A single goal that is an ``and`` of two or more conjuncts splits
    into one sub-obligation per conjunct.  Deserialization rebuilds
    nodes verbatim, so the term's arguments are the payload node's
    arguments, in the same order in every process.
    """
    if obligation.num_goals != 1 or goals[0].op != "and":
        return None
    node = obligation.payload["nodes"][obligation.payload["roots"][0]]
    return list(node[2]) if len(node[2]) >= 2 else None


def _check_obligation(
    obligation: Obligation,
    cache_dir: str | None,
    max_conflicts: int | None,
    timeout_s: float | None,
    split: bool = False,
) -> ObligationResult:
    """Discharge one obligation in the current process.

    Top-level (not a closure) so worker processes can receive it via
    pickling under any multiprocessing start method.

    With ``split`` a conjunctive goal that misses the store (or meets
    no store) is not solved whole: the result is a :data:`SPLIT`
    marker carrying the conjuncts' payload node indices, and
    :func:`run_obligations` solves one sub-obligation per conjunct.
    """
    start = time.perf_counter()
    roots = deserialize_terms(obligation.payload)
    goals = roots[: obligation.num_goals]
    assumptions = roots[obligation.num_goals:]
    if cache_dir:
        # Sharded content-addressed store; grows a remote read-through/
        # write-back tier when REPRO_REMOTE_STORE points at a store server.
        from .store import open_store

        cache = open_store(cache_dir)
    else:
        cache = None
    solver = Solver(max_conflicts=max_conflicts, timeout_s=timeout_s, cache=cache)
    solver.add(*assumptions)
    negated = mk_not(mk_and(*goals))
    conjuncts = _conjunct_indices(obligation, goals) if split else None
    try:
        result = solver.lookup(negated) if conjuncts else None
        if conjuncts and result is None:
            stats = dict(solver.last_stats, time_s=time.perf_counter() - start)
            stats["cached"] = cache is not None
            stats["split"] = {
                "conjuncts": conjuncts,
                "query": solver.certificate_query(),
            }
            return ObligationResult(obligation.name, SPLIT, stats=stats)
        if result is None:
            result = solver.check(negated)
    except SolverTimeout:
        stats = dict(solver.last_stats, time_s=time.perf_counter() - start, timed_out=True)
        return ObligationResult(obligation.name, UNKNOWN, stats=stats)
    stats = dict(solver.last_stats)
    stats["time_s"] = time.perf_counter() - start
    stats["cache_hit"] = bool(stats.get("cache_hit", False))
    stats["cached"] = cache is not None and not stats.get("trivial", False)
    if result.is_unsat:
        return ObligationResult(obligation.name, PROVED, stats=stats)
    if result.is_sat:
        values = dict(result.model.items())
        return ObligationResult(obligation.name, FAILED, model_values=values, stats=stats)
    return ObligationResult(obligation.name, UNKNOWN, stats=stats)


# ---------------------------------------------------------------------------
# Splitting conjunctive obligations

def _parts(obligation: Obligation, marker: ObligationResult) -> list[Obligation]:
    """One sub-obligation per conjunct: ``assumptions /\\ not(c_j)``.

    The parts share the parent's node list; only the roots differ.
    """
    conjuncts = marker.stats["split"]["conjuncts"]
    payload = obligation.payload
    assumption_roots = payload["roots"][obligation.num_goals:]
    return [
        Obligation(
            f"{obligation.name} [part {j + 1}/{len(conjuncts)}]",
            {"nodes": payload["nodes"], "roots": [c] + assumption_roots},
            1,
            dict(obligation.info, part=j),
        )
        for j, c in enumerate(conjuncts)
    ]


def _fold(
    obligation: Obligation, marker: ObligationResult, parts: list[ObligationResult]
) -> ObligationResult:
    """Reduce a split obligation's part verdicts to one verdict.

    Proved iff every part is proved.  Otherwise the first failing
    part's model (a model of ``not c_j`` under the assumptions, hence
    of the whole query), or unknown when no part failed.
    """
    stats = {key: value for key, value in marker.stats.items() if key != "split"}
    stats["cache_hit"] = False
    stats["parts"] = len(parts)
    for key in ("time_s", "conflicts", "decisions", "propagations"):
        total = sum(r.stats.get(key, 0) or 0 for r in parts)
        if total:
            stats[key] = stats.get(key, 0) + total
    for j, result in enumerate(parts):
        if result.status == FAILED:
            stats["failed_part"] = j
            # Variables only the other conjuncts mention are free in
            # this part's query; any value extends its model.
            model = {
                str(name): (False if sort_tag == "b" else 0)
                for op, sort_tag, _args, name in obligation.payload["nodes"]
                if op == "var"
            }
            model.update(result.model_values or {})
            return ObligationResult(obligation.name, FAILED, model_values=model, stats=stats)
    for j, result in enumerate(parts):
        if result.status != PROVED:
            stats["failed_part"] = j
            stats["timed_out"] = bool(result.stats.get("timed_out"))
            return ObligationResult(obligation.name, UNKNOWN, stats=stats)
    return ObligationResult(obligation.name, PROVED, stats=stats)


def _store_composite(
    cache_dir: str, marker: ObligationResult, parts: list[ObligationResult]
) -> None:
    """Record a proved split obligation under the parent's digest, with
    a ``conj`` certificate naming its parts, so the next run hits it
    in round one."""
    digest = marker.stats.get("digest")
    part_digests = [r.stats.get("digest") for r in parts]
    if digest is None or None in part_digests:
        return
    from .store import open_store

    store = open_store(cache_dir)
    query = marker.stats["split"]["query"]
    emit_start = time.process_time()
    store.store_certificate(digest, build_conj_certificate(digest, query, part_digests))
    _obs_count("solver.certs")
    _obs_count("solver.cert_build_s", time.process_time() - emit_start)
    store.store(digest, {}, CheckResult(UNSAT))


# ---------------------------------------------------------------------------
# Dispatch

def _run_sequential(obligations, cache_dir, max_conflicts, timeout_s, split):
    """In-process: solver/sym events already record straight into the
    caller's collector; only the per-obligation scheduler-layer span
    needs adding."""
    start = time.perf_counter()
    results = []
    for ob in obligations:
        ob_start = time.perf_counter()
        with _obs_span(ob.name, cat="scheduler") as sargs:
            result = _check_obligation(ob, cache_dir, max_conflicts, timeout_s, split)
        _obs_observe("obligation.wall_seconds", time.perf_counter() - ob_start)
        if sargs is not None:
            sargs.update(result.span_args())
        results.append(result)
    return results, RunnerStats(jobs=1, wall_time_s=time.perf_counter() - start)


def _dispatch(obligations, jobs, cache_dir, max_conflicts, timeout_s, retries, split):
    if jobs <= 1 or len(obligations) <= 1:
        return _run_sequential(obligations, cache_dir, max_conflicts, timeout_s, split)
    from .scheduler import get_scheduler

    return get_scheduler(jobs).run(
        obligations,
        cache_dir=cache_dir,
        max_conflicts=max_conflicts,
        timeout_s=timeout_s,
        retries=retries,
        jobs_hint=jobs,
        split=split,
    )


def _combine_stats(first: RunnerStats, second: RunnerStats) -> RunnerStats:
    """Telemetry of two dispatch rounds as one run's."""
    from .scheduler import SchedulerStats

    if not isinstance(first, SchedulerStats):
        first, second = second, first
    if isinstance(second, SchedulerStats):
        wall = first.wall_time_s + second.wall_time_s
        if wall > 0:
            first.utilization = (
                first.utilization * first.wall_time_s + second.utilization * second.wall_time_s
            ) / wall
        first.steals += second.steals
        first.retries += second.retries
        first.timeouts += second.timeouts
        first.max_queue_depth = max(first.max_queue_depth, second.max_queue_depth)
    first.jobs = max(first.jobs, second.jobs)
    return first


def run_obligations(
    obligations: Sequence[Obligation],
    jobs: int = 1,
    cache_dir: str | None = None,
    max_conflicts: int | None = None,
    timeout_s: float | None = None,
    retries: int = 1,
) -> tuple[list[ObligationResult], RunnerStats]:
    """Discharge obligations, optionally across worker processes.

    ``jobs=1`` runs in-process (no multiprocessing overhead, the
    sequential baseline); ``jobs=0`` means one worker per core.  With
    ``jobs > 1`` the obligations feed the process-wide work-stealing
    scheduler (``repro.core.scheduler``): one persistent pool shared by
    every concurrent caller, per-obligation ``timeout_s`` with
    ``retries`` bounded re-runs, and the sharded verdict store at
    ``cache_dir``.

    Conjunctive goals are split on a store miss: round one looks every
    obligation up; each conjunctive miss comes back as a marker, and
    round two solves ``assumptions /\\ not(c_j)`` for every conjunct of
    every marker as one more batch.  The part verdicts fold back into
    one result per input obligation, and a proved parent is stored
    under its own digest with a ``conj`` certificate, so a warm run
    answers it in round one.

    The reduction is deterministic regardless of worker scheduling:
    results come back in input order, so "first failing obligation"
    is stable across parallel runs — parallel, work-stealing, and
    sequential runs produce identical verdicts in identical order.
    """
    from .scheduler import in_worker

    if jobs == 0:
        jobs = default_jobs()
    if in_worker():
        jobs = 1
    start = time.perf_counter()
    settings = (jobs, cache_dir, max_conflicts, timeout_s, retries)
    results, stats = _dispatch(obligations, *settings, split=True)
    split_at = [i for i, r in enumerate(results) if r.status == SPLIT]
    if split_at:
        parts: list[Obligation] = []
        spans = []
        for i in split_at:
            ob_parts = _parts(obligations[i], results[i])
            spans.append((i, len(parts), len(ob_parts)))
            parts.extend(ob_parts)
        part_results, part_stats = _dispatch(parts, *settings, split=False)
        results = list(results)
        for i, lo, count in spans:
            marker, own = results[i], part_results[lo : lo + count]
            results[i] = _fold(obligations[i], marker, own)
            if cache_dir and results[i].proved:
                _store_composite(cache_dir, marker, own)
        stats = _combine_stats(stats, part_stats)
    stats.obligations = len(obligations)
    stats.wall_time_s = time.perf_counter() - start
    stats.cache_queries = sum(1 for r in results if r.stats.get("cached"))
    stats.cache_hits = sum(1 for r in results if r.stats.get("cache_hit"))
    return results, stats


def parallel_map(fn: Callable, items: Iterable, jobs: int = 1) -> list:
    """Order-preserving map across worker processes.

    Generic escape hatch for workloads whose parallel unit is not an
    :class:`Obligation` — e.g. the BPF JIT checker sweeps, where the
    per-item work includes symbolic evaluation, not just solving.
    ``fn`` and the items must be picklable (top-level callables).

    With ``jobs > 1`` the items ride the same shared work-stealing pool
    as proof obligations, so a JIT sweep and a refinement proof can
    interleave on the same workers.
    """
    from .scheduler import get_scheduler, in_worker

    items = list(items)
    if jobs == 0:
        jobs = default_jobs()
    if jobs <= 1 or len(items) <= 1 or in_worker():
        return [fn(item) for item in items]
    return get_scheduler(jobs).map(fn, items)


def reduce_results(results: Sequence[ObligationResult]) -> ObligationResult | None:
    """Deterministic reduction: the first non-proved result, or None.

    Mirrors the sequential runner's "stop at first failure" semantics
    without depending on which worker finished first.
    """
    for result in results:
        if not result.proved:
            return result
    return None
