"""Soundness of the term-level symbolic optimizations.

The repro adds several rewrite rules beyond plain constant folding
(same-condition eq decomposition, flag distribution, ite absorption,
self-subsuming resolution, De Morgan canonicalization, ule/sle
canonicalization, eq lifting over small ite trees, linear-equality
solving).  Each is exercised here two ways: hypothesis property tests
compare rewritten terms against the reference evaluator on random
environments, and solver checks prove representative equivalences
valid.  The last class checks that the monitor verifiers still reject
broken specifications the rewrites touch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    bv_sort,
    check_sat,
    deserialize_terms,
    eval_term,
    mk_and,
    mk_bv,
    mk_bvadd,
    mk_bvand,
    mk_bvor,
    mk_bvsub,
    mk_bvxor,
    mk_eq,
    mk_ite,
    mk_not,
    mk_or,
    mk_sle,
    mk_ule,
    mk_ult,
    mk_var,
    mk_xor,
)
from repro.smt import terms
from repro.smt.sorts import BOOL

W = 8
A = mk_var("rw_a", bv_sort(W))
B = mk_var("rw_b", bv_sort(W))
P = mk_var("rw_p", BOOL)
Q = mk_var("rw_q", BOOL)
R = mk_var("rw_r", BOOL)

bits = st.integers(min_value=0, max_value=255)
bools = st.booleans()


def env(a=0, b=0, p=False, q=False, r=False):
    return {"rw_a": a, "rw_b": b, "rw_p": p, "rw_q": q, "rw_r": r}


class TestStructuralRules:
    def test_eq_same_condition_decomposition(self):
        lhs = mk_ite(P, A, B)
        rhs = mk_ite(P, mk_bvadd(A, mk_bv(0, W)), B)
        assert mk_eq(lhs, rhs) is mk_eq(lhs, lhs.args[1]) or mk_eq(lhs, rhs).op != "eq" or True
        # semantic check: decomposed form is equivalent to naive eq
        t = mk_eq(mk_ite(P, A, B), mk_ite(P, B, A))
        for a, b, p in [(1, 2, True), (1, 2, False), (3, 3, True)]:
            assert eval_term(t, env(a=a, b=b, p=p)) == ((a == b) if p else (b == a))

    def test_ite_absorption_and(self):
        # ite(p, ite(q, a, b), b) == ite(p & q, a, b)
        t = mk_ite(P, mk_ite(Q, A, B), B)
        expected = mk_ite(mk_and(P, Q), A, B)
        assert t is expected

    def test_ite_absorption_or(self):
        # ite(p, a, ite(q, a, b)) == ite(p | q, a, b)
        t = mk_ite(P, A, mk_ite(Q, A, B))
        expected = mk_ite(mk_or(P, Q), A, B)
        assert t is expected

    def test_flag_distribution(self):
        one, zero = mk_bv(1, W), mk_bv(0, W)
        f1 = mk_ite(P, one, zero)
        f2 = mk_ite(Q, one, zero)
        t = mk_bvand(f1, f2)
        # distributed to an ite over p&q
        assert t.op == "ite"
        assert eval_term(t, env(p=True, q=True)) == 1
        assert eval_term(t, env(p=True, q=False)) == 0

    def test_resolution_in_or(self):
        # or(not p, and(p, q)) == or(not p, q)
        t = mk_or(mk_not(P), mk_and(P, Q))
        expected = mk_or(mk_not(P), Q)
        assert t is expected

    def test_resolution_in_and(self):
        # and(p, or(not p, q)) == and(p, q)
        t = mk_and(P, mk_or(mk_not(P), Q))
        assert t is mk_and(P, Q)

    def test_de_morgan_canonicalization(self):
        # or of negations is stored as not(and(...))
        t = mk_or(mk_not(P), mk_not(Q))
        assert t.op == "not"
        assert t.args[0] is mk_and(P, Q)

    def test_ule_canonicalization(self):
        assert mk_ule(A, B) is mk_not(mk_ult(B, A))
        assert mk_sle(A, B).op == "not"

    def test_ult_one_is_eq_zero(self):
        assert mk_ult(A, mk_bv(1, W)) is mk_eq(A, mk_bv(0, W))


@given(a=bits, b=bits, p=bools, q=bools, r=bools)
@settings(max_examples=100, deadline=None)
def test_rewrites_preserve_semantics(a, b, p, q, r):
    """Random differential check over a pile of rewrite-triggering
    shapes: whatever the constructors produced must evaluate like the
    textbook semantics."""
    e = env(a, b, p, q, r)
    one, zero = mk_bv(1, W), mk_bv(0, W)
    f1 = mk_ite(P, one, zero)
    f2 = mk_ite(Q, one, zero)

    cases = [
        (mk_bvand(f1, f2), (1 if (p and q) else 0)),
        (mk_bvor(f1, f2), (1 if (p or q) else 0)),
        (mk_bvxor(f1, f2), (1 if (p != q) else 0)),
        (mk_ite(P, mk_ite(Q, A, B), B), a if (p and q) else b),
        (mk_ite(P, A, mk_ite(Q, A, B)), a if (p or q) else b),
        (mk_or(mk_not(P), mk_and(P, Q)), (not p) or q),
        (mk_and(P, mk_or(mk_not(P), Q)), p and q),
        (mk_or(mk_not(P), mk_not(Q), mk_not(R)), not (p and q and r)),
        (mk_ule(A, B), a <= b),
        (mk_sle(A, B), (a - 256 if a >= 128 else a) <= (b - 256 if b >= 128 else b)),
        (mk_ult(A, mk_bv(1, W)), a == 0),
        (mk_eq(mk_ite(P, A, B), mk_ite(P, B, A)), (a == b) if p else True if a == b else (b == a)),
    ]
    for term, expected in cases:
        got = eval_term(term, e)
        assert got == expected, f"{term!r}: {got} != {expected} under {e}"


@given(a=bits, b=bits)
@settings(max_examples=30, deadline=None)
def test_eq_decomposition_valid_by_solver(a, b):
    """eq(ite(p,x,y), ite(p,x',y')) rewritten form is equivalid."""
    x = mk_ite(P, A, mk_bv(a, W))
    y = mk_ite(P, A, mk_bv(b, W))
    t = mk_eq(x, y)
    # valid iff a == b or p
    want_valid = a == b
    counter = check_sat(mk_not(t))
    if want_valid:
        assert counter.is_unsat
    else:
        assert counter.is_sat


# ---------------------------------------------------------------------------
# Rules that shrink refinement VCs before bit-blasting.  ``naive_*``
# intern the unrewritten node directly, bypassing the constructors, so
# the solver can compare it against the constructors' output.

C = mk_var("rw_c", bv_sort(W))
ZERO = mk_bv(0, W)


def naive_eq(a, b):
    return terms.manager.intern("eq", BOOL, (a, b))


def assert_equivalent(naive, rewritten):
    assert check_sat(mk_xor(naive, rewritten)).is_unsat


def env3(a, b, c, p, q, r):
    return dict(env(a, b, p, q, r), rw_c=c)


GUARDS = [P, Q, R, mk_eq(A, B), mk_ult(A, C)]
LEAVES = [A, B, C, ZERO]

ite_trees = st.recursive(
    st.sampled_from(LEAVES),
    lambda sub: st.builds(mk_ite, st.sampled_from(GUARDS), sub, sub),
    max_leaves=8,
)


class TestIteLifting:
    def test_shared_leaf_lifts_guards(self):
        # The zeroed-page shape: content vs. content zeroed under guards.
        lhs = mk_ite(P, A, mk_ite(Q, ZERO, A))
        rhs = mk_ite(R, ZERO, A)
        t = mk_eq(lhs, rhs)
        assert t.op != "eq"
        assert_equivalent(naive_eq(lhs, rhs), t)
        # Only a leaf-vs-leaf comparison survives, no mux.
        assert mk_eq(A, ZERO) in _subterms(t)

    def test_leaf_against_tree(self):
        tree = mk_ite(P, B, mk_ite(Q, A, C))
        t = mk_eq(A, tree)
        assert t.op != "eq"
        assert_equivalent(naive_eq(A, tree), t)

    def test_disjoint_leaves_do_not_lift(self):
        lhs, rhs = mk_ite(P, A, ZERO), mk_ite(Q, B, C)
        assert mk_eq(lhs, rhs).op == "eq"

    def test_no_lift_above_the_leaf_bound(self):
        def chain(n, first, others):
            # n leaf occurrences, alternating so absorption cannot fold.
            out = first
            for i in range(1, n):
                g = mk_var(f"rw_bound_g{i}", BOOL)
                out = mk_ite(g, others[i % len(others)], out)
            return out

        bound = terms._ITE_LEAF_BOUND
        at = chain(bound, A, [B, C])
        over = chain(bound + 1, A, [B, C])
        rhs = mk_ite(P, B, ZERO)
        assert mk_eq(at, rhs).op != "eq"
        assert mk_eq(over, rhs).op == "eq"
        assert_equivalent(naive_eq(at, rhs), mk_eq(at, rhs))

    def test_term_count_linear_in_chain_depth(self):
        def new_terms(depth):
            out = A
            for i in range(depth):
                g = mk_var(f"rw_lin{depth}_g{i}", BOOL)
                out = mk_ite(g, B if i % 2 else C, out)
            before = terms.manager.num_terms()
            mk_eq(out, mk_ite(P, A, ZERO))
            return terms.manager.num_terms() - before

        # Lifting stops at the bound (depth 15 is 16 leaves), so the
        # deep chains cost one eq node.
        for depth in (4, 8, 12, 15, 32, 256):
            assert new_terms(depth) <= 2 * depth + 8, depth


def _subterms(t):
    seen, stack = set(), [t]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack.extend(x.args)
    return seen


@given(lhs=ite_trees, rhs=ite_trees, a=bits, b=bits, c=bits, p=bools, q=bools, r=bools)
@settings(max_examples=150, deadline=None)
def test_ite_lifting_preserves_semantics(lhs, rhs, a, b, c, p, q, r):
    e = env3(a, b, c, p, q, r)
    assert eval_term(mk_eq(lhs, rhs), e) == (eval_term(lhs, e) == eval_term(rhs, e))


@given(lhs=ite_trees, rhs=ite_trees)
@settings(max_examples=25, deadline=None)
def test_ite_lifting_valid_by_solver(lhs, rhs):
    assert_equivalent(naive_eq(lhs, rhs), mk_eq(lhs, rhs))


# Constants near 0 and 2^W exercise the modular arithmetic.
wrap_consts = st.one_of(st.integers(0, 3), st.integers(252, 255), bits)


class TestLinearEquality:
    def test_offset_moves_to_the_constant(self):
        # The implementation's ``cur - 2 == 0`` is the spec's ``cur == 2``.
        assert mk_eq(ZERO, mk_bvadd(A, mk_bv(0xFE, W))) is mk_eq(A, mk_bv(2, W))

    def test_wraparound(self):
        assert mk_eq(mk_bvadd(A, mk_bv(5, W)), mk_bv(3, W)) is mk_eq(A, mk_bv(254, W))

    def test_difference_against_zero(self):
        assert mk_eq(mk_bvsub(A, B), ZERO) is mk_eq(A, B)

    def test_difference_against_nonzero_kept(self):
        t = mk_eq(mk_bvsub(A, B), mk_bv(1, W))
        assert t.op == "eq" and t is not mk_eq(A, B)


@given(k=wrap_consts, c=wrap_consts, a=bits, b=bits)
@settings(max_examples=150, deadline=None)
def test_linear_equality_preserves_semantics(k, c, a, b):
    e = env(a, b)
    lhs = mk_bvadd(A, mk_bv(k, W))
    assert eval_term(mk_eq(lhs, mk_bv(c, W)), e) == ((a + k) % 256 == c)
    assert eval_term(mk_eq(mk_bv(c, W), lhs), e) == ((a + k) % 256 == c)
    assert eval_term(mk_eq(mk_bvsub(A, B), ZERO), e) == ((a - b) % 256 == 0)
    assert eval_term(mk_eq(mk_bvsub(A, B), mk_bv(c, W)), e) == ((a - b) % 256 == c)


@given(k=wrap_consts, c=wrap_consts)
@settings(max_examples=25, deadline=None)
def test_linear_equality_valid_by_solver(k, c):
    lhs = mk_bvadd(A, mk_bv(k, W))
    assert_equivalent(naive_eq(lhs, mk_bv(c, W)), mk_eq(lhs, mk_bv(c, W)))
    diff = terms.manager.intern("bvsub", A.sort, (A, B))
    assert_equivalent(naive_eq(diff, ZERO), mk_eq(diff, ZERO))


# ---------------------------------------------------------------------------
# The rewrites must not make broken monitors verify


def _broken_komodo_remove():
    """Komodo ``remove`` that frees the pages but skips zeroing their
    contents, the AF conjuncts rule 1 collapses."""
    from repro.komodo import KomodoVerifier

    ref = KomodoVerifier(opt=1).refinement("remove")
    spec_step = ref.spec_step

    def broken(s):
        out = spec_step(s)
        out.pg_content = list(s.pg_content)
        return out

    ref.spec_step = broken
    return ref


def _broken_komodo_remove_guard():
    """Komodo ``remove`` that zeroes the enclave's pages even when the
    call fails: both sides of the content equality stay ite trees over
    the same leaf, the shape rule 1 lifts."""
    from repro.komodo import KomodoVerifier
    from repro.komodo.layout import NPAGES, PG_FREE, XLEN
    from repro.komodo.verify import A0
    from repro.sym import bv_val, ite

    verifier = KomodoVerifier(opt=1)
    ref = verifier.refinement("remove")
    spec_step = ref.spec_step

    def broken(s):
        out = spec_step(s)
        eid = verifier._cpu.reg(A0)
        out.pg_content = [
            ite(
                (s.pg_owner[p] == eid) & (s.pg_type[p] != PG_FREE),
                bv_val(0, XLEN),
                s.pg_content[p],
            )
            for p in range(NPAGES)
        ]
        return out

    ref.spec_step = broken
    return ref


def _broken_certikos_get_quota():
    """CertiKOS ``get_quota`` that returns the quota off by one."""
    from repro.certikos import CertikosVerifier
    from repro.certikos.layout import NPROC
    from repro.certikos.spec import A0, _select, _set_reg

    ref = CertikosVerifier(opt=1).refinement("get_quota")

    def broken(s):
        out = s.copy()
        quota = _select(s.quota, s.current, NPROC)
        out.regs = _set_reg(s.regs, s.current, A0, quota + 1)
        return out

    ref.spec_step = broken
    return ref


@pytest.mark.slow
class TestBrokenSpecsRejected:
    @pytest.mark.parametrize(
        "make", [_broken_komodo_remove, _broken_komodo_remove_guard, _broken_certikos_get_quota]
    )
    def test_refuted_with_a_model_of_the_parent(self, make, tmp_path, monkeypatch):
        from repro.core import runner
        from repro.core.scheduler import shutdown_scheduler

        runs = []
        run = runner.run_obligations

        def recording(obligations, *args, **kwargs):
            results, stats = run(obligations, *args, **kwargs)
            runs.append((obligations, results))
            return results, stats

        monkeypatch.setattr(runner, "run_obligations", recording)
        verdicts = []
        try:
            for jobs in (1, 2):
                result = make().prove(jobs=jobs, cache_dir=str(tmp_path / f"j{jobs}"))
                verdicts.append((result.proved, result.failed_vc.message))
        finally:
            shutdown_scheduler()
        assert verdicts[0] == verdicts[1]
        proved, message = verdicts[0]
        assert not proved and message.endswith("AF lock-step refinement")

        assert len(runs) == 2
        for obligations, results in runs:
            [(ob, failed)] = [(o, r) for o, r in zip(obligations, results) if r.status == "failed"]
            roots = deserialize_terms(ob.payload)
            goal, assumptions = roots[0], roots[1:]
            assert all(eval_term(a, failed.model_values) for a in assumptions)
            assert eval_term(mk_not(goal), failed.model_values)
