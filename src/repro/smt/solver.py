"""Solver frontend: assertion stack, check-sat, models.

This is the stack's substitute for Z3 (Figure 1, bottom box):
"constraint solving, counterexample generation".  Each ``check`` call
simplification-folds the assertion set (the term constructors already
did most of the work), bit-blasts it, and runs the CDCL core.

An optional verdict store (``repro.core.store.VerdictStore``) adds a
persistent memo over the check-sat boundary: queries are keyed by the
canonical (alpha-renamed) digest of their term DAG, so re-running a
verification — or running an equivalent obligation produced by a
different harness — replays the verdict and counterexample from disk
instead of re-solving.  Every verdict a store-backed check writes
carries a proof certificate.

Every check solves through one long-lived arena solver plus
bit-blaster pair per process (the :class:`IncrementalSession`).
Tseitin definitions and Ackermann constraints blast once per term node
and stay loaded; each obligation is discharged under assumptions (the
query's root literals) with decisions restricted to the query's
variable *cone*, so learned clauses survive from one obligation to the
next.  Why this is sound:

* permanent clauses are only Tseitin gate definitions, Ackermann
  consistency constraints, and learned clauses (pure resolution
  consequences of the former two — assumption literals are never
  resolved away, they surface as literals of the learned clause), so
  the clause database is satisfiable and semantically equivalent to
  "definitions + Ackermann" no matter how many queries it absorbed;
* every variable blasted for a node of the query's DAG is in the cone
  (the blaster records per-tid variable ranges), so when the cone is
  fully assigned and propagation is at fixpoint every definition
  clause of the query is checked — the cone assignment restricted to
  the query's own variables is a genuine model;
* any model of the query alone extends to a model of the whole
  database (other queries' inputs are free; pick uninterpreted
  function values consistently), so no resolution proof can refute a
  satisfiable query: UNSAT answers are never an artifact of sharing.

So a verdict equals the one the same check gets on a just-reset
session.  Per-query search counters (propagations, conflicts) do *not*:
they depend on what the session absorbed before, since earlier
queries' learned clauses and root-level facts steer the search.

Crash recovery: a check that fails with anything but
:class:`SolverTimeout` drops the session (as do worker-level failure
handlers, via :func:`reset_incremental_session`), so a
possibly-inconsistent session is rebuilt rather than reused.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..obs import (
    count as obs_count,
    enabled as _obs_enabled,
    observe as obs_observe,
    span as obs_span,
)
from .bitblast import BitBlaster
from .model import Model
from .proof import (
    CertificateError,
    ProofLog,
    build_model_certificate,
    build_unsat_certificate,
    canonical_query_payload,
)
from .sat import ArenaSolver
from .sat.solver import SAT, UNKNOWN, UNSAT
from .sorts import BOOL
from .terms import Term, canonicalize_nodes, mk_bool, serialize_terms

if TYPE_CHECKING:
    from ..core.store import VerdictStore

__all__ = [
    "Solver",
    "CheckResult",
    "SolverTimeout",
    "IncrementalSession",
    "get_incremental_session",
    "reset_incremental_session",
    "SAT",
    "UNSAT",
    "UNKNOWN",
]


class IncrementalSession:
    """A long-lived solver + blaster pair shared by all checks in a
    process (one per scheduler worker, since workers are processes)."""

    def __init__(self) -> None:
        self.sat = ArenaSolver()
        # Attached before the first clause so input units are never
        # missed; must be present from session birth because any later
        # query's refutation may lean on clauses blasted now.
        self.sat.proof = ProofLog()
        self.blaster = BitBlaster(self.sat)
        self.checks = 0


_session: IncrementalSession | None = None

# Solver variables past which the session is dropped and rebuilt.
_SESSION_MAX_VARS = 500_000


def get_incremental_session() -> IncrementalSession:
    """The process-wide session, created on first use and recycled when
    it outgrows ``_SESSION_MAX_VARS`` solver variables."""
    global _session
    if _session is not None and _session.sat.num_vars > _SESSION_MAX_VARS:
        _session = None
    if _session is None:
        _session = IncrementalSession()
    return _session


def reset_incremental_session() -> None:
    """Drop the process-wide session.

    Call after a crash mid-check (worker resilience handlers do): a
    half-blasted or interrupted session might hold inconsistent solver
    state, and rebuilding it only costs re-blasting on the next query.
    """
    global _session
    _session = None


def _walk_query(terms: list[Term]) -> tuple[set[int], set[str]]:
    """Collect every term id in the query DAG plus its variable names."""
    seen: set[int] = set()
    names: set[str] = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t.tid in seen:
            continue
        seen.add(t.tid)
        if t.op == "var":
            names.add(t.payload)
        stack.extend(t.args)
    return seen, names


class SolverTimeout(Exception):
    """Raised when a check exceeds its conflict or wall-clock budget."""


class CheckResult:
    """Outcome of a satisfiability check."""

    def __init__(self, status: str, model: Model | None = None, stats: dict | None = None):
        self.status = status
        self.model = model
        self.stats = stats or {}

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT

    def __repr__(self) -> str:
        return f"CheckResult({self.status})"


class Solver:
    """Assertion stack plus check-sat.

    Each ``check`` discharges into the process-wide incremental
    session (see module docstring): the query's roots become
    assumption literals over a shared clause arena, so CNF for shared
    structure is emitted once and learned clauses survive across
    checks.  An optional ``cache`` memoizes verdicts across checks,
    processes, and runs.
    """

    def __init__(
        self,
        max_conflicts: int | None = None,
        timeout_s: float | None = None,
        cache: VerdictStore | None = None,
    ):
        self._assertions: list[Term] = []
        self._scopes: list[int] = []
        self.max_conflicts = max_conflicts
        self.timeout_s = timeout_s
        self.cache = cache
        self.last_stats: dict = {}
        # Set per check(): the serialized node list behind the digest,
        # reused by certificate emission to avoid a second traversal.
        self._serialized_query: dict | None = None
        self._pending: tuple | None = None

    def add(self, *terms: Term) -> None:
        for t in terms:
            if t.sort is not BOOL:
                raise TypeError(f"assertion must be boolean, got {t.sort!r}")
            self._assertions.append(t)

    def push(self) -> None:
        self._scopes.append(len(self._assertions))

    def pop(self) -> None:
        if not self._scopes:
            raise RuntimeError("pop without matching push")
        del self._assertions[self._scopes.pop() :]

    @property
    def assertions(self) -> tuple[Term, ...]:
        return tuple(self._assertions)

    def check(self, *extra: Term) -> CheckResult:
        """Check satisfiability of the asserted formulas plus ``extra``."""
        start = time.perf_counter()
        answered = self._answer_without_solving(extra)
        if answered is not None:
            return answered
        terms, digest, var_map = self._pending
        self._pending = None
        try:
            return self._solve(terms, digest, var_map, start)
        except SolverTimeout:
            raise  # the session is backtracked and still consistent
        except BaseException:
            # Anything else may have interrupted the session mid
            # mutation; rebuild it on the next query.
            reset_incremental_session()
            raise

    def lookup(self, *extra: Term) -> CheckResult | None:
        """Answer ``check(*extra)`` without solving, or return None.

        Trivial queries and store hits come back exactly as ``check``
        would return them.  On a miss, ``last_stats["digest"]`` names
        the query and :meth:`certificate_query` is its certificate
        payload: the runner splits a conjunctive query at this point
        instead of solving it whole.
        """
        answered = self._answer_without_solving(extra)
        if answered is None:
            self.last_stats = {"time_s": 0.0}
            if self._pending[1] is not None:
                self.last_stats["digest"] = self._pending[1]
        return answered

    def certificate_query(self) -> dict | None:
        """The canonically renamed query payload of the last missed
        :meth:`lookup` (None without a cache)."""
        if self._pending is None or self._pending[1] is None:
            return None
        return canonical_query_payload(self._pending[0], self._pending[2], self._serialized_query)

    def _answer_without_solving(self, extra) -> CheckResult | None:
        """Round one of every check: trivial verdicts, then the cache.

        Returns the answer, or None after leaving ``(terms, digest,
        var_map)`` in ``self._pending`` for the solve.
        """
        self._pending = None
        obs_count("solver.queries")
        terms = list(self._assertions) + list(extra)
        # Fast path: syntactic trivialities.
        if any(t is mk_bool(False) for t in terms):
            obs_count("solver.trivial")
            return CheckResult(UNSAT, stats={"trivial": True, "time_s": 0.0})
        terms = [t for t in terms if t is not mk_bool(True)]
        if not terms:
            obs_count("solver.trivial")
            return CheckResult(SAT, Model({}), stats={"trivial": True, "time_s": 0.0})

        digest = var_map = None
        if self.cache is not None:
            with obs_span("canonicalize", cat="solver-cache") as cargs:
                # Serialize once: the node list feeds both the digest
                # and (on a miss) the certificate's query payload.
                self._serialized_query = serialize_terms(terms)
                digest, var_map = canonicalize_nodes(self._serialized_query)
            if cargs is not None:
                cargs["vars"] = len(var_map)
            with obs_span("cache.lookup", cat="solver-cache") as largs:
                cached = self.cache.lookup(digest, var_map)
            if largs is not None:
                largs["hit"] = cached is not None
            if cached is not None:
                obs_count("solver.cache.hits")
                self.last_stats = dict(cached.stats)
                self.last_stats["digest"] = digest
                cached.stats["digest"] = digest
                return cached
            obs_count("solver.cache.misses")
        self._pending = (terms, digest, var_map)
        return None

    def _emit_certificate(
        self, sat, blaster, terms, digest, var_map, status, model_values, assumptions
    ) -> None:
        """Assemble and store this query's certificate (cache-backed
        checks only).  Must run while the solver still holds the
        answer's assignment — before any maintain()/backtrack."""
        if self.cache is None:
            return
        serialized = getattr(self, "_serialized_query", None)
        # CPU time, not wall: with more workers than cores, wall inside
        # this window counts the *other* workers' preemption as cert cost.
        emit_start = time.process_time()
        try:
            with obs_span("cert.build", cat="solver-cache"):
                if status == UNSAT:
                    cert = build_unsat_certificate(
                        sat, terms, digest, var_map, assumptions, serialized
                    )
                elif status == SAT:
                    cert = build_model_certificate(
                        sat, blaster, terms, digest, var_map, model_values, serialized
                    )
                else:
                    return
            self.cache.store_certificate(digest, cert)
            obs_count("solver.certs")
            # Emission seconds, accumulated as a float counter: the CI
            # overhead gate divides this by the same run's wall clock.
            obs_count("solver.cert_build_s", time.process_time() - emit_start)
            self.last_stats["cert"] = True
        except CertificateError:
            # A cert we cannot assemble must never turn a sound verdict
            # into a failure; the store audit surfaces the gap instead.
            obs_count("solver.cert_errors")
            self.last_stats["cert_error"] = True

    def _solve(self, terms, digest, var_map, start) -> CheckResult:
        """Blast into the shared session, solve the query under
        assumptions with decisions restricted to its cone."""
        session = get_incremental_session()
        sat, blaster = session.sat, session.blaster
        session.checks += 1

        tids, names = _walk_query(terms)
        prior_tids = [
            tid for tid in tids if tid in blaster._bool_cache or tid in blaster._bv_cache
        ]
        emit_before = (
            {label: tuple(cell) for label, cell in blaster.emitted.items()}
            if _obs_enabled()
            else None
        )
        vars_before = sat.num_vars
        clauses_before = sat.added_clauses
        with obs_span("bitblast", cat="bitblast") as bargs:
            # Roots become assumptions, not unit clauses: nothing this
            # query asserts outlives it in the shared clause database.
            roots = [blaster.bool_lit(t) for t in terms]
        blast_time = time.perf_counter() - start
        new_vars = sat.num_vars - vars_before
        new_clauses = sat.added_clauses - clauses_before
        reused_clauses = blaster.clauses_for(prior_tids)
        obs_count("sat.reused_clauses", reused_clauses)
        if bargs is not None:
            bargs.update(vars=new_vars, clauses=new_clauses, reused_clauses=reused_clauses)
            obs_count("bitblast.queries")
            obs_count("bitblast.vars", new_vars)
            obs_count("bitblast.clauses", new_clauses)
            for label, (aux_vars, clauses) in sorted(blaster.emitted.items()):
                prev = emit_before.get(label, (0, 0)) if emit_before else (0, 0)
                d_vars, d_clauses = aux_vars - prev[0], clauses - prev[1]
                if d_vars or d_clauses:
                    obs_count(f"bitblast.aux_vars.{label}", d_vars)
                    obs_count(f"bitblast.clauses.{label}", d_clauses)

        cone = blaster.cone_vars(tids)
        sat_budget_s = None
        if self.timeout_s is not None:
            sat_budget_s = max(self.timeout_s - blast_time, 0.0)
        with obs_span("sat.solve", cat="sat") as sargs:
            status = sat.solve_with(
                roots,
                max_conflicts=self.max_conflicts,
                timeout_s=sat_budget_s,
                relevant=cone,
            )
        elapsed = time.perf_counter() - start
        obs_observe("bitblast.seconds", blast_time)
        obs_observe("sat.solve_seconds", max(0.0, elapsed - blast_time))
        sat_stats = sat.stats()
        if sargs is not None:
            sargs["status"] = status
            sargs.update(sat_stats)
            sargs["cone_vars"] = len(cone)
        self._note_sat_counters(sat_stats)
        self.last_stats = {
            "time_s": elapsed,
            "blast_time_s": blast_time,
            "sat_vars": sat.num_vars,
            "sat_clauses": sat.added_clauses,
            "blasted_vars": new_vars,
            "blasted_clauses": new_clauses,
            "reused_clauses": reused_clauses,
            "cone_vars": len(cone),
            "conflicts": sat.conflicts,
            "decisions": sat.decisions,
            "propagations": sat.propagations,
            "restarts": sat.restarts,
            "learned_clauses": sat.learned_clauses,
            "conflict_literals": sat.conflict_literals,
            "max_decision_level": sat.max_decision_level,
        }
        if digest is not None:
            self.last_stats["digest"] = digest
        if sat.timed_out or (self.timeout_s is not None and elapsed > self.timeout_s):
            self.last_stats["timed_out"] = True
            raise SolverTimeout(f"check exceeded {self.timeout_s}s (took {elapsed:.2f}s)")
        model_values = blaster.extract_model(names) if status == SAT else None
        # Certificates read the live assignment (model bits) and the
        # root-level trail (unit justifications), so they must be built
        # before maintain() backtracks the session.
        self._emit_certificate(
            sat, blaster, terms, digest, var_map, status, model_values, roots
        )
        if status == SAT:
            result = CheckResult(SAT, Model(model_values), stats=self.last_stats)
        elif status == UNSAT:
            result = CheckResult(UNSAT, stats=self.last_stats)
        else:
            result = CheckResult(UNKNOWN, stats=self.last_stats)
        # Between-query housekeeping: trim the learned DB here, since
        # cone-restricted solves never reduce it mid-search.
        sat.maintain()
        if self.cache is not None:
            self.cache.store(digest, var_map, result)
        return result

    @staticmethod
    def _note_sat_counters(sat_stats: dict) -> None:
        for key in (
            "conflicts",
            "decisions",
            "propagations",
            "restarts",
            "learned_clauses",
            "conflict_literals",
        ):
            obs_count(f"sat.{key}", sat_stats[key])


def check_sat(*terms: Term, max_conflicts: int | None = None) -> CheckResult:
    """One-shot satisfiability check of a conjunction of terms."""
    solver = Solver(max_conflicts=max_conflicts)
    solver.add(*terms)
    return solver.check()
