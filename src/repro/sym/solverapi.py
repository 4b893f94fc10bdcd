"""Verification entry points: prove, refute, and counterexamples.

These mirror Rosette's ``verify``/``solve`` queries (§3.1): a property
is proved by showing its negation unsatisfiable; a failed proof comes
back with a counterexample model for debugging specifications and
implementations.

``check_batch`` is the scaling entry point: it hands a set of
independent proof obligations to ``repro.core.runner``, which
dispatches them onto the process-wide work-stealing scheduler
(``repro.core.scheduler``) and memoizes verdicts in the shared
content-addressed store (``repro.core.store``).  ``verify_vcs`` routes
through it whenever the caller asks for parallelism or caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time

from ..smt import Model, Solver, SolverTimeout, Term, mk_and, mk_bool, mk_not
from .context import Context, VC
from .value import _coerce_bool

__all__ = ["ProofResult", "prove", "solve", "check_batch", "verify_vcs", "VerificationError"]


class VerificationError(Exception):
    """Raised by ``check_*`` helpers when a proof fails."""

    def __init__(self, message: str, result: "ProofResult"):
        super().__init__(message)
        self.result = result


@dataclass
class ProofResult:
    """Outcome of a proof attempt."""

    proved: bool
    counterexample: Model | None = None
    failed_vc: VC | None = None
    unknown: bool = False
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.proved

    def describe(self) -> str:
        if self.proved:
            return "proved"
        if self.unknown:
            return "unknown (budget exhausted)"
        what = self.failed_vc.message if self.failed_vc else "property"
        return f"failed: {what}; counterexample: {self.counterexample!r}"


def prove(
    prop,
    assumptions: list | tuple = (),
    max_conflicts: int | None = None,
    timeout_s: float | None = None,
) -> ProofResult:
    """Prove a single property under assumptions."""
    prop = _coerce_bool(prop)
    assume = mk_and(*(_coerce_bool(a).term for a in assumptions)) if assumptions else mk_bool(True)
    solver = Solver(max_conflicts=max_conflicts, timeout_s=timeout_s)
    solver.add(assume)
    result = solver.check(mk_not(prop.term))
    if result.is_unsat:
        return ProofResult(True, stats=solver.last_stats)
    if result.is_sat:
        return ProofResult(False, counterexample=result.model, stats=solver.last_stats)
    return ProofResult(False, unknown=True, stats=solver.last_stats)


def solve(*constraints, max_conflicts: int | None = None) -> Model | None:
    """Find a model of the conjunction, or None (Rosette's ``solve``)."""
    solver = Solver(max_conflicts=max_conflicts)
    solver.add(*(_coerce_bool(c).term for c in constraints))
    result = solver.check()
    return result.model if result.is_sat else None


def check_batch(
    obligations,
    jobs: int = 1,
    cache_dir: str | None = None,
    max_conflicts: int | None = None,
    timeout_s: float | None = None,
) -> list[ProofResult]:
    """Discharge a batch of independent proof obligations.

    ``obligations`` is a list of ``core.runner.Obligation`` objects, or
    ``(name, prop, assumptions)`` triples of symbolic booleans which are
    converted on the fly.  Returns one :class:`ProofResult` per
    obligation, in input order (the runner's reduction is deterministic
    regardless of worker scheduling).
    """
    from ..core.runner import Obligation, run_obligations

    converted = []
    for ob in obligations:
        if isinstance(ob, Obligation):
            converted.append(ob)
        else:
            name, prop, assume = ob
            converted.append(
                Obligation.from_terms(
                    name,
                    [_coerce_bool(prop).term],
                    [_coerce_bool(a).term for a in assume],
                )
            )
    results, stats = run_obligations(
        converted,
        jobs=jobs,
        cache_dir=cache_dir,
        max_conflicts=max_conflicts,
        timeout_s=timeout_s,
    )
    out = []
    for result in results:
        proof_stats = dict(result.stats, runner=stats.as_dict())
        if result.proved:
            out.append(ProofResult(True, stats=proof_stats))
        elif result.status == "failed":
            out.append(
                ProofResult(False, counterexample=Model(result.model_values or {}), stats=proof_stats)
            )
        else:
            out.append(ProofResult(False, unknown=True, stats=proof_stats))
    return out


def _verify_vcs_runner(
    ctx: Context,
    assume_terms: list[Term],
    jobs: int,
    cache_dir: str | None,
    max_conflicts: int | None,
    timeout_s: float | None,
) -> ProofResult:
    """Decomposed path: one obligation per VC, via the runner."""
    from ..core.runner import obligations_from_context, run_obligations

    start = time.perf_counter()
    obligations = obligations_from_context(ctx, assume_terms)
    results, run_stats = run_obligations(
        obligations,
        jobs=jobs,
        cache_dir=cache_dir,
        max_conflicts=max_conflicts,
        timeout_s=timeout_s,
    )
    stats = dict(
        run_stats.as_dict(),
        total_time_s=time.perf_counter() - start,
        num_vcs=len(ctx.vcs),
    )
    for result, vc in zip(results, ctx.vcs):
        if result.proved:
            continue
        if "failed_part" in result.stats:
            # A split VC: which conjunct (index into the goal's "and").
            stats["failed_part"] = result.stats["failed_part"]
        if result.status == "unknown":
            return ProofResult(False, unknown=True, failed_vc=vc, stats=stats)
        return ProofResult(
            False, counterexample=Model(result.model_values or {}), failed_vc=vc, stats=stats
        )
    return ProofResult(True, stats=stats)


def verify_vcs(
    ctx: Context,
    assumptions: list | tuple = (),
    max_conflicts: int | None = None,
    timeout_s: float | None = None,
    batch: bool = True,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> ProofResult:
    """Discharge every VC collected in a context.

    With ``batch=True`` all VCs are checked as one conjunction first
    (the common fast path: a single unsat query proves everything);
    on failure each VC is re-checked individually to identify the
    failing condition and produce its counterexample.

    With ``jobs > 1`` or a ``cache_dir``, VCs are instead discharged
    as independent obligations through ``repro.core.runner`` — in
    parallel across worker processes, with verdicts memoized in the
    persistent solver cache.  Results are deterministic: identical
    verdicts (and the same "first failing VC") as the sequential path.
    """
    if not ctx.vcs:
        return ProofResult(True)
    assume_terms = [_coerce_bool(a).term for a in assumptions]
    if jobs != 1 or cache_dir is not None:
        return _verify_vcs_runner(ctx, assume_terms, jobs, cache_dir, max_conflicts, timeout_s)
    start = time.perf_counter()

    def check_formulas(formulas: list[Term]) -> tuple[str, Model | None, dict]:
        solver = Solver(max_conflicts=max_conflicts, timeout_s=timeout_s)
        for t in assume_terms:
            solver.add(t)
        negated = mk_not(mk_and(*formulas))
        try:
            result = solver.check(negated)
        except SolverTimeout:
            return "unknown", None, solver.last_stats
        return result.status, result.model, solver.last_stats

    if batch:
        status, model, stats = check_formulas([vc.formula for vc in ctx.vcs])
        stats = dict(stats, total_time_s=time.perf_counter() - start, num_vcs=len(ctx.vcs))
        if status == "unsat":
            return ProofResult(True, stats=stats)
        if status == "unknown":
            return ProofResult(False, unknown=True, stats=stats)

    # Re-check VCs one by one to find the first failure.
    for vc in ctx.vcs:
        status, model, stats = check_formulas([vc.formula])
        if status == "unsat":
            continue
        stats = dict(stats, total_time_s=time.perf_counter() - start, num_vcs=len(ctx.vcs))
        if status == "unknown":
            return ProofResult(False, unknown=True, failed_vc=vc, stats=stats)
        return ProofResult(False, counterexample=model, failed_vc=vc, stats=stats)
    return ProofResult(True, stats={"total_time_s": time.perf_counter() - start, "num_vcs": len(ctx.vcs)})
