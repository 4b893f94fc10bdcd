"""Proof-certificate production for the SAT core and solver frontend.

Verdicts become *checkable evidence* here (ROADMAP: "Proof
certificates for trust at scale"):

  * :class:`ProofLog` is the optional sink a SAT solver drives while it
    searches.  When no log is attached the hot loop pays one attribute
    read per conflict; with one attached the solver records, per
    learned clause, the clauses it was resolved from (LRAT-style
    antecedent hints), the input unit clauses, deletions, and — at the
    moment an UNSAT answer is decided, before backtracking destroys the
    assignment — the *final core*: the conflict clause plus the reason
    chain that grounds it in assumptions and root-level units.
  * :func:`build_unsat_certificate` trims that session-long log to one
    query's refutation: the transitive antecedent closure of the final
    core, topologically ordered so every proof line is RUP (reverse
    unit propagation) with respect to the lines before it.  The
    certificate carries the blasted-clause manifest (exactly the
    problem clauses the refutation touches), the assumption literals,
    and the canonically-renamed query DAG the digest binds to.
  * :func:`build_model_certificate` packages a SAT answer as a
    bit-level model under canonical variable names plus the
    uninterpreted-function tables the assignment induces, so a
    solver-free evaluator can replay it against the query DAG.
  * :func:`build_conj_certificate` certifies a query refuted conjunct
    by conjunct: it names the ``drat`` certificates of the parts.

The independent checker (``python -m repro.smt.checkproof``) consumes
these documents with zero imports from this package; the wire format is
specified in docs/CERTIFICATES.md.

Soundness sketch for the trimmed DRAT trace: a first-UIP learned clause
(minimization included) is derivable by input resolution from its
recorded antecedents plus the root-level units justifying any literal
the analysis silently dropped, and input resolution implies RUP.  The
emission closure includes those units (with their own derivations,
recursively), and the dependency graph is acyclic because every
recorded justification predates the event that uses it — so the log's
event order is a topological order and each emitted line checks
against its predecessors.  Deletions are logged but never emitted: a
checker over a monotone clause database is sound, since adds are only
ever verified against consequences.
"""

from __future__ import annotations

from itertools import chain, filterfalse
import json
from operator import neg

from .terms import serialize_terms

__all__ = [
    "ProofLog",
    "CertificateError",
    "build_unsat_certificate",
    "build_model_certificate",
    "build_conj_certificate",
    "canonical_query_payload",
]

CERT_FORMAT = "repro-cert"
CERT_VERSION = 1

# Encoded manifest clauses a proof log keeps for reuse (see
# build_unsat_certificate); cleared past this many, which bounds the
# memo near 7 MB (the full Figure 11 grid fills about 50k at jobs=1).
_MANIFEST_MEMO_LIMIT = 50_000
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


class CertificateError(RuntimeError):
    """Raised when a certificate cannot be assembled from the log."""


class ProofLog:
    """Clause-proof sink for one incremental session's SAT solver.

    The solver drives it through these hooks (plus
    :meth:`capture_add_conflict`), all O(clause) and only on the cold
    paths (clause addition, conflict analysis, deletion, UNSAT exit):

    ``input_unit(lit)``
        an input clause reduced to a unit and asserted at level 0;
    ``learned(lits, ants, zeros, key=None)``
        a learned clause with the keys of the clauses its resolution
        consumed (``key`` is the arena offset of a stored clause;
        units pass ``None``) and ``zeros``, the root-level-false
        literals the analysis silently dropped (their negations are
        the unit clauses the RUP check of this line relies on;
        recording them *at learn time* keeps the dependency graph
        acyclic — a unit derived later from this very clause must
        never become its prerequisite);
    ``deleted_clause(key)``
        a learned clause detached by DB reduction;
    ``capture_final(sat, lits=None, key=None)``
        the UNSAT moment: walk the conflict's reason chain *now*,
        before backtracking unassigns it (level-0 justifications are
        permanent and stay deferred to emission time).
    """

    __slots__ = ("events", "key2event", "input_units", "deleted", "final", "manifest_text")

    def __init__(self) -> None:
        self.events: list[tuple[tuple[int, ...], tuple, tuple[int, ...], int | None]] = []
        self.key2event: dict = {}
        self.input_units: set[int] = set()
        self.deleted: list = []
        self.final: dict | None = None
        # Clause key -> JSON text without brackets, kept by emission.
        self.manifest_text: dict = {}

    # -- recording hooks (called by the solvers) -------------------------

    def input_unit(self, lit: int) -> None:
        self.input_units.add(lit)

    def learned(self, lits, ants, zeros=(), key=None) -> int:
        idx = len(self.events)
        self.events.append((tuple(lits), tuple(ants), tuple(zeros), key))
        if key is not None:
            self.key2event[key] = idx
        elif len(lits) == 1:
            # Learned unit: permanent level-0 fact, keyed by its literal
            # so emission-time justification walks can find the event.
            self.key2event[("u", lits[0])] = idx
        return idx

    def deleted_clause(self, key) -> None:
        self.deleted.append(key)

    def capture_final(self, sat, lits=None, key=None) -> None:
        """Record the refutation's support at the UNSAT decision point.

        Walks falsified literals back through their reason clauses while
        the trail is still intact.  Variables assigned at level 0 end the
        walk: their justifications are permanent, so the certificate
        states them as unit facts, collected here as ``root_units``.
        Decisions/assumptions terminate the walk too (the checker asserts
        the assumption literals itself).
        """
        if key is not None:
            lits = sat.proof_clause(key)
        keys: list = [key] if key is not None else []
        seen_keys = set(keys)
        seen_vars: set[int] = set()
        root_units: list[int] = []
        level = sat._level
        assign = sat._assign
        stack = list(lits)
        while stack:
            q = stack.pop()
            var = q if q > 0 else -q
            if var in seen_vars:
                continue
            seen_vars.add(var)
            if level[var] == 0:
                a = assign[var]
                if a != 0 and (a > 0) != (q > 0):
                    root_units.append(-q)
                continue
            rk = sat.proof_reason(var)
            if rk is None:
                continue
            if rk not in seen_keys:
                seen_keys.add(rk)
                keys.append(rk)
                stack.extend(sat.proof_clause(rk))
        self.final = {"lits": list(lits), "keys": keys, "from_key": key, "root_units": root_units}

    def capture_add_conflict(self, lits) -> None:
        """An ``add_clause`` whose every literal was already false at
        level 0: the rejected clause is the conflict, and since it never
        reached storage it must ride the certificate's CNF manifest
        explicitly, and each of its literals is refuted by a root-level
        unit fact."""
        self.final = {
            "lits": list(lits),
            "keys": [],
            "from_key": None,
            "add_clause": list(lits),
            "root_units": [-q for q in lits],
        }


# ---------------------------------------------------------------------------
# Emission


def canonical_query_payload(terms, var_map: dict[str, str], data: dict | None = None) -> dict:
    """Serialize query terms with variables alpha-renamed canonically.

    The renaming is digest-preserving (``canonicalize_query`` is
    alpha-blind), so the checker can recompute the canonical digest
    from the payload alone and compare it to the certificate's claim —
    the digest binding that ties a certificate to its store entry.
    ``data`` may carry an already-serialized node list for ``terms``
    (the frontend serializes once for the digest and reuses it here).
    """
    if data is None:
        data = serialize_terms(terms)
    nodes = [
        [op, sort_tag, args, var_map.get(str(payload), str(payload)) if op == "var" else payload]
        for op, sort_tag, args, payload in data["nodes"]
    ]
    return {"nodes": nodes, "roots": list(data["roots"])}


def build_unsat_certificate(sat, terms, digest, var_map, assumptions, serialized=None) -> bytes:
    """Trim the session proof log to this query's refutation.

    Returns the certificate's compact JSON encoding, ready to store.
    ``assumptions`` are the query's root literals.  Raises
    :class:`CertificateError` when the log carries no final core — an
    UNSAT answer the hooks did not see.
    """
    p = sat.proof
    if p is None or p.final is None:
        raise CertificateError("solver returned unsat but the proof log has no final core")

    # Hot path (runs once per cache-miss UNSAT, gated in CI at <10% of
    # grid wall): per-clause work goes through C-level filter/map/join.
    key2event = p.key2event
    input_units = p.input_units

    # Proof lines are learned-clause events, found by walking
    # antecedents back from the final core.  Problem clauses go to the
    # CNF manifest; so does every *root-level unit fact* a derivation
    # leans on, emitted as a unit clause rather than re-derived through
    # its reason chain.  The manifest is trusted wholesale by the
    # checker (it cannot re-blast the query), so deriving those units
    # would add manifest bulk — often the majority of it — without
    # adding a single checked step to the refutation skeleton, which
    # stays fully RUP-checked.
    #
    # Seed: the final core's clauses, plus a unit fact for every
    # root-level-false literal they mention (collected by the capture
    # walk), so the final unit-propagation check sees those literals
    # falsified.
    is_learned = key2event.__contains__
    final_keys = p.final["keys"]
    pending: list = list(filter(is_learned, final_keys))  # proof lines
    cnf_key_set = set(filterfalse(is_learned, final_keys))  # CNF
    cnf_units: set[int] = set(p.final["root_units"])
    if p.final["from_key"] is None and not p.final.get("add_clause"):
        # A final core with no conflict clause of its own: a single
        # literal that is both required and refuted.  When the literal
        # is itself a root-level unit (an input unit or a learned unit
        # the root level then contradicted), state it as a unit fact;
        # when it is an assumption, the checker asserts it directly.
        for lit in p.final["lits"]:
            if lit in input_units or ("u", lit) in key2event:
                cnf_units.add(lit)

    events = p.events
    learned: set = set()
    ant_groups = []
    zero_groups = []
    while pending:
        node = pending.pop()
        if node in learned:
            continue
        learned.add(node)
        _lits, ants, zeros, _key = events[key2event[node]]
        ant_groups.append(ants)
        pending.extend(filter(is_learned, ants))
        # The units standing in for literals the analysis dropped:
        # recorded at learn time, so they predate this clause.
        zero_groups.append(zeros)
    cnf_key_set.update(filterfalse(is_learned, chain.from_iterable(ant_groups)))
    cnf_units.update(map(neg, chain.from_iterable(zero_groups)))

    # Every justification predates the event that uses it, so event
    # order is a dependency order: each line is RUP given the lines
    # before it.
    proof_lines = [events[i][0] for i in sorted(map(key2event.__getitem__, learned))]

    # The manifest is encoded through a per-log memo of clause texts:
    # the parts of a split query lean on the same assumption circuitry,
    # so most of a part's manifest was already encoded for a sibling.
    keys = list(cnf_key_set)
    memo = p.manifest_text
    if len(memo) > _MANIFEST_MEMO_LIMIT:
        memo.clear()
    fresh = list(filterfalse(memo.__contains__, keys))
    if fresh:
        # One encoder call, split at the clause seams: the per-clause
        # work stays in C.
        memo.update(zip(fresh, _encode(sat.proof_clauses(fresh))[2:-2].split("],[")))
    # Clause texts without their brackets, joined by "],[" below.
    cnf_text = list(map(str, sorted(cnf_units)))
    cnf_text.extend(map(memo.__getitem__, keys))
    extra = p.final.get("add_clause")
    if extra:
        cnf_text.append(_encode(list(extra))[1:-1])

    head = _encode(
        {
            "format": CERT_FORMAT,
            "version": CERT_VERSION,
            "kind": "drat",
            "digest": digest,
            "mode": "incremental",
            "num_vars": sat.num_vars,
            "query": canonical_query_payload(terms, var_map, serialized),
            "assumptions": list(assumptions),
            "proof": proof_lines,
        }
    )
    # Splice the pre-encoded manifest in as the last member.
    cnf = f'[[{"],[".join(cnf_text)}]]' if cnf_text else "[]"
    return f'{head[:-1]},"cnf":{cnf}}}'.encode()


def build_model_certificate(
    sat, blaster, terms, digest, var_map, model_values, serialized=None
) -> dict:
    """Package a SAT answer as a replayable bit-level model.

    ``model_values`` maps the query's own variable names to values (the
    frontend already extracted them); the certificate stores them under
    canonical names so alpha-equivalent cache hits replay unchanged.
    Uninterpreted-function applications get explicit tables: argument
    values are evaluated bottom-up over the query DAG (inner applies
    first, so nested applications read tables already built) and result
    values are read off the blaster's per-node bit caches.
    """
    from .evaluator import eval_term

    funs: dict[str, list] = {}
    env: dict = dict(model_values)

    # Post-order over the query DAG so argument applies precede users.
    post: list = []
    seen: set[int] = set()
    stack = [(t, False) for t in terms]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            post.append(t)
            continue
        if t.tid in seen:
            continue
        seen.add(t.tid)
        stack.append((t, True))
        for a in t.args:
            stack.append((a, False))

    for t in post:
        if t.op != "apply":
            continue
        argv = tuple(eval_term(a, env) for a in t.args)
        bits = blaster._bool_cache.get(t.tid)
        if bits is not None:
            value: int | bool = bool(sat.value(bits))
        else:
            bv = blaster._bv_cache[t.tid]
            value = 0
            for i, lit in enumerate(bv):
                if sat.value(lit):
                    value |= 1 << i
        table = funs.setdefault(t.payload, [])
        key = [int(v) for v in argv]
        if not any(row[0] == key for row in table):
            table.append([key, int(value)])
        env.setdefault(t.payload, {})
        env[t.payload][argv] = value

    return {
        "format": CERT_FORMAT,
        "version": CERT_VERSION,
        "kind": "model",
        "digest": digest,
        "mode": "incremental",
        "query": canonical_query_payload(terms, var_map, serialized),
        "model": {
            var_map[name]: (int(value) if not isinstance(value, bool) else bool(value))
            for name, value in model_values.items()
            if name in var_map
        },
        "funs": funs,
    }


def build_conj_certificate(digest: str, query: dict, parts: list[str]) -> dict:
    """Certify ``assumptions /\\ not(and(c_1..c_n))`` by its parts.

    ``query`` is the parent's canonical payload (last root the negated
    conjunction) and ``parts`` the digests of the refuted
    ``assumptions /\\ not(c_j)`` queries, whose own ``drat``
    certificates sit in the same store.
    """
    return {
        "format": CERT_FORMAT,
        "version": CERT_VERSION,
        "kind": "conj",
        "digest": digest,
        "query": query,
        "parts": list(parts),
    }
