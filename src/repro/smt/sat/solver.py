"""A CDCL SAT solver (the bottom of the verification stack, Figure 1).

The paper discharges verification conditions with Z3; offline we
substitute a from-scratch conflict-driven clause-learning solver:

  * two-watched-literal unit propagation,
  * first-UIP conflict analysis with clause minimization,
  * EVSIDS decision heuristic with phase saving,
  * Luby restarts,
  * activity-based learned-clause deletion,
  * incremental solving under assumptions (used by push/pop).

Literals are non-zero Python ints (DIMACS convention): ``v`` for the
positive literal of variable ``v`` and ``-v`` for its negation.
"""

from __future__ import annotations

import heapq
import time

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


def luby(i: int) -> int:
    """The Luby restart sequence (0-indexed): 1 1 2 1 1 2 4 1 1 2 ...

    MiniSat's formulation: find the finite subsequence containing
    index ``i`` and recurse into it.
    """
    if i < 0:
        raise ValueError("luby sequence is 0-indexed")
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i = i % size
    return 1 << seq


class SatSolver:
    """CDCL solver over int literals.

    Typical use::

        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a])
        assert s.solve() == "sat"
        assert s.value(b) is True
    """

    def __init__(self) -> None:
        self.num_vars = 0
        # Indexed by variable (1-based). assign: 0 unassigned, 1 true, -1 false.
        self._assign = [0]
        self._level = [0]
        self._reason: list[list[int] | None] = [None]
        self._activity = [0.0]
        self._phase = [False]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        # Watches: dict literal -> list of clauses watching it.
        self._watches: dict[int, list[list[int]]] = {}
        self._clauses: list[list[int]] = []
        self._learned: list[list[int]] = []
        self._clause_act: dict[int, float] = {}
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._ok = True
        # VSIDS order: lazy max-heap of (-activity, var); stale entries
        # (assigned vars or outdated activities) are skipped on pop.
        self._order_heap: list[tuple[float, int]] = []
        # Per-solve search counters: reset at each solve() entry so the
        # numbers describe one query, not the solver's lifetime (the
        # stats feed per-obligation telemetry; cross-solve accumulation
        # would make them meaningless).  stats() packages them.
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.conflict_literals = 0
        self.max_decision_level = 0
        # Problem-size counter: clauses actually recorded by add_clause
        # (monotone, never reset — it measures the CNF, not a search).
        self.added_clauses = 0
        self.timed_out = False
        self.max_learned = 4000

    # -- variable / clause management --------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        v = self.num_vars
        self._watches[v] = []
        self._watches[-v] = []
        heapq.heappush(self._order_heap, (0.0, v))
        return v

    def ensure_vars(self, n: int) -> None:
        while self.num_vars < n:
            self.new_var()

    def add_clause(self, lits: list[int]) -> bool:
        """Add a clause at decision level 0.  Returns False on conflict."""
        if not self._ok:
            return False
        assert not self._trail_lim, "add_clause only at decision level 0"
        seen = set()
        clause = []
        for lit in lits:
            self.ensure_vars(abs(lit))
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            val = self._value(lit)
            if val is True:
                return True
            if val is False:
                continue  # falsified at level 0; drop
            seen.add(lit)
            clause.append(lit)
        if not clause:
            # Every literal already false at level 0.
            self._ok = False
            return False
        self.added_clauses += 1
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            if self._propagate() is not None:
                self._ok = False
            return self._ok
        self._attach(clause)
        self._clauses.append(clause)
        return True

    def _attach(self, clause: list[int]) -> None:
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    # -- assignment ---------------------------------------------------------

    def _value(self, lit: int) -> bool | None:
        a = self._assign[abs(lit)]
        if a == 0:
            return None
        return (a > 0) == (lit > 0)

    def value(self, lit: int) -> bool | None:
        """Model value of ``lit`` after a SAT answer."""
        return self._value(lit)

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        assign, phase = self._assign, self._phase
        heap = self._order_heap
        act = self._activity
        for i in range(len(self._trail) - 1, limit - 1, -1):
            lit = self._trail[i]
            var = abs(lit)
            phase[var] = lit > 0
            assign[var] = 0
            self._reason[var] = None
            heapq.heappush(heap, (-act[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # -- propagation ---------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        """Unit propagation.  Returns a conflicting clause or None."""
        watches = self._watches
        assign = self._assign
        trail = self._trail
        while self._qhead < len(trail):
            lit = trail[self._qhead]
            self._qhead += 1
            self.propagations += 1
            false_lit = -lit
            watchers = watches[false_lit]
            i = j = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                # Make sure the false literal is in position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                first = clause[0]
                a0 = assign[abs(first)]
                if a0 != 0 and (a0 > 0) == (first > 0):
                    watchers[j] = clause
                    j += 1
                    continue
                # Look for a new literal to watch.
                found = False
                for k in range(2, len(clause)):
                    lk = clause[k]
                    ak = assign[abs(lk)]
                    if ak == 0 or (ak > 0) == (lk > 0):
                        clause[1], clause[k] = lk, false_lit
                        watches[lk].append(clause)
                        found = True
                        break
                if found:
                    continue
                watchers[j] = clause
                j += 1
                if a0 != 0:
                    # Conflict: copy remaining watchers back.
                    while i < n:
                        watchers[j] = watchers[i]
                        j += 1
                        i += 1
                    del watchers[j:]
                    self._qhead = len(trail)
                    return clause
                self._enqueue(first, clause)
            del watchers[j:]
        return None

    # -- conflict analysis ----------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            inv = 1e-100
            act = self._activity
            for v in range(1, self.num_vars + 1):
                act[v] *= inv
            self._var_inc *= inv
            self._order_heap = [(-act[v], v) for v in range(1, self.num_vars + 1)]
            heapq.heapify(self._order_heap)
        else:
            heapq.heappush(self._order_heap, (-self._activity[var], var))

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning.  Returns (learned clause, backjump level)."""
        learned = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = None
        clause = conflict
        index = len(self._trail) - 1
        cur_level = self._decision_level()
        while True:
            for q in clause if lit is None else clause[1:]:
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Pick the next literal on the trail to resolve on.
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            index -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                learned[0] = -lit
                break
            clause = self._reason[var]
            clause = clause if clause is not None else []
            if clause and clause[0] != lit:
                # Normalize: reason clause's first literal is the implied one.
                idx = clause.index(lit)
                clause[0], clause[idx] = clause[idx], clause[0]

        # Clause minimization: drop literals implied by the rest.
        marked = {abs(q) for q in learned[1:]}
        minimized = [learned[0]]
        for q in learned[1:]:
            reason = self._reason[abs(q)]
            if reason is None:
                minimized.append(q)
                continue
            if all(abs(r) in marked or self._level[abs(r)] == 0 for r in reason[1:]):
                continue  # self-subsuming resolution with the reason
            minimized.append(q)
        learned = minimized

        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        levels = sorted((self._level[abs(q)] for q in learned[1:]), reverse=True)
        bj = levels[0]
        # Move a literal of the backjump level into watch position 1.
        for i in range(1, len(learned)):
            if self._level[abs(learned[i])] == bj:
                learned[1], learned[i] = learned[i], learned[1]
                break
        return learned, bj

    # -- main search -----------------------------------------------------------

    def _pick_branch(self) -> int:
        assign = self._assign
        act = self._activity
        heap = self._order_heap
        while heap:
            _, var = heapq.heappop(heap)
            if assign[var] != 0:
                continue
            # Entries may be stale (the activity was bumped after the
            # push) — an unassigned var from near the top is still a
            # good pick, and fresher duplicates are skipped later.
            return var if self._phase[var] else -var
        # Heap exhausted: fall back to a scan for any unassigned var.
        for v in range(1, self.num_vars + 1):
            if assign[v] == 0:
                return v if self._phase[v] else -v
        return 0

    def _reduce_learned(self) -> None:
        if len(self._learned) <= self.max_learned:
            return
        self._learned.sort(key=lambda c: self._clause_act.get(id(c), 0.0))
        keep_from = len(self._learned) // 2
        dropped = self._learned[:keep_from]
        locked = {id(self._reason[abs(lit)]) for lit in self._trail if self._reason[abs(lit)] is not None}
        kept_front = []
        for clause in dropped:
            if id(clause) in locked or len(clause) <= 2:
                kept_front.append(clause)
                continue
            for w in (clause[0], clause[1]):
                try:
                    self._watches[w].remove(clause)
                except ValueError:
                    pass
            self._clause_act.pop(id(clause), None)
        self._learned = kept_front + self._learned[keep_from:]

    def solve(
        self,
        assumptions: list[int] = (),
        max_conflicts: int | None = None,
        timeout_s: float | None = None,
    ) -> str:
        """Search for a model consistent with ``assumptions``.

        Returns "sat", "unsat", or "unknown" (budget exhausted).  After
        "sat", use :meth:`value` to read the model.  Two budgets bound
        the search: ``max_conflicts`` (deterministic) and ``timeout_s``,
        a wall-clock deadline checked every few conflicts so a hung
        obligation returns to its scheduler instead of pinning a worker
        forever.  ``self.timed_out`` records which budget fired.
        """
        self.timed_out = False
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.conflict_literals = 0
        self.max_decision_level = 0
        if not self._ok:
            return UNSAT
        self._backtrack(0)
        if self._propagate() is not None:
            self._ok = False
            return UNSAT

        restart_idx = 0
        conflicts_until_restart = 100 * luby(restart_idx)
        budget_left = max_conflicts
        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        deadline_check = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if deadline is not None:
                    deadline_check += 1
                    if deadline_check >= 32:
                        deadline_check = 0
                        if time.monotonic() > deadline:
                            self._backtrack(0)
                            self.timed_out = True
                            return UNKNOWN
                if budget_left is not None:
                    budget_left -= 1
                    if budget_left <= 0:
                        self._backtrack(0)
                        return UNKNOWN
                if self._decision_level() == 0:
                    self._ok = False
                    return UNSAT
                if self._decision_level() <= self._num_assumed:
                    # Conflict depends only on assumptions.
                    self._backtrack(0)
                    return UNSAT
                learned, bj = self._analyze(conflict)
                self.learned_clauses += 1
                self.conflict_literals += len(learned)
                self._backtrack(max(bj, self._num_assumed))
                if len(learned) == 1:
                    if self._value(learned[0]) is False:
                        self._backtrack(0)
                        if self._value(learned[0]) is False:
                            # The derived unit is refuted by the root
                            # level itself.
                            self._ok = False
                            return UNSAT
                    if self._value(learned[0]) is None:
                        self._enqueue(learned[0], None)
                else:
                    self._attach(learned)
                    self._learned.append(learned)
                    self._clause_act[id(learned)] = self._cla_inc
                    self._cla_inc *= 1.001
                    self._enqueue(learned[0], learned)
                self._var_inc *= self._var_decay
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restart_idx += 1
                    self.restarts += 1
                    conflicts_until_restart = 100 * luby(restart_idx)
                    self._backtrack(self._num_assumed)
                    self._reduce_learned()
                continue

            # No conflict: decide.
            if self._decision_level() < self._num_assumed:
                lit = assumptions[self._decision_level()]
                val = self._value(lit)
                if val is False:
                    # An assumption literal is already falsified (by the
                    # root level or by earlier assumptions).
                    self._backtrack(0)
                    return UNSAT
                if val is True:
                    self._trail_lim.append(len(self._trail))
                    continue
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)
                continue
            lit = self._pick_branch()
            if lit == 0:
                return SAT
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            if len(self._trail_lim) > self.max_decision_level:
                self.max_decision_level = len(self._trail_lim)
            self._enqueue(lit, None)

    @property
    def _num_assumed(self) -> int:
        return getattr(self, "_assumed_count", 0)

    def solve_with(
        self,
        assumptions: list[int],
        max_conflicts: int | None = None,
        timeout_s: float | None = None,
    ) -> str:
        """Solve under assumptions (kept as pseudo-decisions)."""
        self._assumed_count = len(assumptions)
        try:
            return self.solve(list(assumptions), max_conflicts=max_conflicts, timeout_s=timeout_s)
        finally:
            self._assumed_count = 0

    def stats(self) -> dict:
        """Counters for the most recent ``solve()`` call.

        Search counters (conflicts, decisions, propagations, restarts,
        learned clauses, conflict literals, max decision level) are
        per-solve; ``vars``/``clauses`` describe the loaded problem.
        ``avg_learned_len`` is the conflict-literal rate — long learned
        clauses are the classic symptom of a poorly decomposed query.
        """
        return {
            "vars": self.num_vars,
            "clauses": self.added_clauses,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned_clauses": self.learned_clauses,
            "learned_kept": len(self._learned),
            "conflict_literals": self.conflict_literals,
            "max_decision_level": self.max_decision_level,
            "avg_learned_len": (
                self.conflict_literals / self.learned_clauses if self.learned_clauses else 0.0
            ),
        }

    def model(self) -> dict[int, bool]:
        """The satisfying assignment, as {var: bool}."""
        return {
            v: self._assign[v] > 0
            for v in range(1, self.num_vars + 1)
            if self._assign[v] != 0
        }

    def iter_problem_clauses(self):
        """Yield the problem (non-learned) clauses as literal lists."""
        for clause in self._clauses:
            yield list(clause)


def to_dimacs(solver) -> str:
    """Render the problem clauses in DIMACS CNF format.

    Lets the CNF be cross-checked with an external SAT solver when one
    is available; learned clauses are excluded (they are implied).
    Works with any solver implementation exposing
    ``iter_problem_clauses()`` (both :class:`SatSolver` and the arena
    solver do).
    """
    clauses = list(solver.iter_problem_clauses())
    lines = [f"p cnf {solver.num_vars} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
