"""Splitting conjunctive obligations on a store miss.

A VC whose goal is ``and(c_1..c_n)`` is looked up whole; on a miss the
runner solves ``assumptions /\\ not(c_j)`` per conjunct, folds the part
verdicts back into one verdict, and stores the proved parent under its
own digest with a ``conj`` certificate.  These tests cover the fold
(proofs, counterexamples, determinism across dispatch paths), the
composite entry and its certificate rule in ``checkproof``, and the
remote tier's all-or-nothing adoption of a composite.
"""

import gzip
import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.core import runner
from repro.core.remote import RemoteVerdictStore, StoreServer, _reset_breakers
from repro.core.runner import Obligation, run_obligations
from repro.core.scheduler import shutdown_scheduler
from repro.smt import (
    bv_sort,
    deserialize_terms,
    mk_and,
    mk_bv,
    mk_bvadd,
    mk_bvand,
    mk_bvor,
    mk_bvsub,
    mk_bvxor,
    mk_eq,
    mk_not,
    mk_ult,
    mk_var,
)
from repro.smt.checkproof import (
    CheckFailure,
    audit_store,
    canonical_digest,
    check_conj,
    store_cert_loader,
)
from repro.smt.evaluator import eval_term

BV8 = bv_sort(8)


def _vars(prefix):
    return mk_var(f"{prefix}_x", BV8), mk_var(f"{prefix}_y", BV8)


def _conjuncts(prefix):
    x, y = _vars(prefix)
    return [
        mk_eq(mk_bvsub(mk_bvadd(x, y), y), x),
        mk_eq(mk_bvxor(mk_bvxor(x, y), y), x),
        mk_eq(mk_bvand(mk_bvor(x, y), x), x),
    ]


def _assumption(prefix):
    x, _y = _vars(prefix)
    return mk_ult(x, mk_bv(100, 8))


def _conj_obligation(prefix, extra=()):
    goal = mk_and(*_conjuncts(prefix), *extra)
    assert goal.op == "and"
    return Obligation.from_terms(f"{prefix}.vc", [goal], [_assumption(prefix)])


def _load(path):
    with open(path, "rb") as handle:
        raw = handle.read()
    return json.loads(gzip.decompress(raw) if path.endswith(".gz") else raw)


    @pytest.mark.parametrize("missing", ["entry", "cert"])
    def test_composite_with_an_unavailable_part_is_never_adopted(self, tmp_path, missing):
        srv, digest = _proved_store(tmp_path, f"rgone{missing}")
        part = _load(_cert_path(srv, digest))["parts"][0]
        if missing == "entry":
            os.unlink(os.path.join(srv, part[:2], f"{part}.json"))
        else:
            os.unlink(_cert_path(srv, part))
        server = StoreServer(srv).start()
        try:
            local = RemoteVerdictStore(str(tmp_path / "cli"), server.url)
            with obs.tracing() as col:
                assert local.lookup(digest, {}) is None
            assert col.counters["store.remote.rejected_certs"] == 1
            assert local.digests() == []
        finally:
            server.close()


def _cert_path(store, digest):
    for name in (f"{digest}.cert.json", f"{digest}.cert.json.gz"):
        path = os.path.join(store, digest[:2], name)
        if os.path.exists(path):
            return path
    raise AssertionError(f"no certificate for {digest}")


def _proved_store(tmp_path, prefix):
    """A store holding one proved split obligation: (dir, parent digest)."""
    store = str(tmp_path / f"{prefix}-store")
    [result], _ = run_obligations([_conj_obligation(prefix)], jobs=1, cache_dir=store)
    assert result.proved and result.stats["parts"] == 3
    return store, result.stats["digest"]


def _part_digest(store, goal, assumptions):
    """Digest of a solved single-conjunct obligation written to ``store``."""
    ob = Obligation.from_terms("extra", [goal], assumptions)
    [result], _ = run_obligations([ob], jobs=1, cache_dir=store)
    assert result.proved
    return result.stats["digest"]


@pytest.fixture(autouse=True)
def _fresh_breakers():
    _reset_breakers()
    yield
    _reset_breakers()


# ---------------------------------------------------------------------------
# The fold


class TestFold:
    def test_split_parent_proved_and_stored_as_composite(self, tmp_path):
        store = str(tmp_path / "s")
        with obs.tracing() as col:
            [result], stats = run_obligations([_conj_obligation("fp")], jobs=1, cache_dir=store)
        assert result.proved and result.stats["parts"] == 3
        # One round-one miss, then one miss per part.
        assert col.counters["solver.cache.misses"] == 4
        assert stats.obligations == 1 and stats.cache_queries == 1
        cert = _load(_cert_path(store, result.stats["digest"]))
        assert cert["kind"] == "conj" and len(cert["parts"]) == 3
        summary = audit_store(store, require_certs=True)
        assert summary["failures"] == []
        assert (summary["conj"], summary["drat"]) == (1, 3)

    def test_warm_run_answers_in_round_one(self, tmp_path):
        store = str(tmp_path / "s")
        run_obligations([_conj_obligation("warm")], jobs=1, cache_dir=store)
        with obs.tracing() as col:
            [result], stats = run_obligations([_conj_obligation("warm")], jobs=1, cache_dir=store)
        assert result.proved and result.stats["cache_hit"]
        assert "parts" not in result.stats
        assert col.counters.get("solver.cache.misses", 0) == 0
        assert stats.cache_hits == 1

    def test_no_store_splits_too(self):
        with obs.tracing() as col:
            [result], _ = run_obligations([_conj_obligation("nostore")], jobs=1)
        assert result.proved and result.stats["parts"] == 3
        assert col.counters["solver.queries"] == 4

    def test_failing_conjunct_gives_a_model_of_the_parent(self, tmp_path):
        _x, y = _vars("fail")
        bad = mk_ult(y, mk_bv(10, 8))
        ob = _conj_obligation("fail", extra=[bad])
        [result], _ = run_obligations([ob], jobs=1, cache_dir=str(tmp_path / "s"))
        assert result.status == "failed"
        goal = mk_and(*_conjuncts("fail"), bad)
        assert goal.args[result.stats["failed_part"]] is bad
        model = result.model_values
        assert eval_term(_assumption("fail"), model)
        assert not eval_term(goal, model)
        # A failed parent is never stored as a composite.
        digest = result.stats["digest"]
        assert not os.path.exists(str(tmp_path / "s" / digest[:2] / f"{digest}.json"))

    def test_sequential_and_scheduler_fold_identically(self, tmp_path):
        _x, y = _vars("det")
        obligations = [
            _conj_obligation("det"),
            _conj_obligation("det", extra=[mk_ult(y, mk_bv(10, 8))]),
            Obligation.from_terms("det.single", [_conjuncts("det")[0]]),
        ]
        seq, _ = run_obligations(obligations, jobs=1, cache_dir=str(tmp_path / "a"))
        try:
            par, stats = run_obligations(obligations, jobs=2, cache_dir=str(tmp_path / "b"))
        finally:
            shutdown_scheduler()
        assert [r.status for r in seq] == [r.status for r in par] == ["proved", "failed", "proved"]
        assert seq[1].stats["failed_part"] == par[1].stats["failed_part"]
        assert stats.obligations == 3


# ---------------------------------------------------------------------------
# The split path still rejects broken code


@pytest.mark.slow
class TestBrokenSpec:
    def test_dropped_field_update_fails_the_af_vc(self, tmp_path, monkeypatch):
        """A Komodo ``stop`` spec that forgets its enc_state update is
        refuted by one AF conjunct, the same one on both dispatch paths,
        with a counterexample to the whole VC."""
        from repro.komodo import KomodoVerifier

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
                ref = KomodoVerifier(opt=1).refinement("stop")
                spec_step = ref.spec_step

                def broken(s, spec_step=spec_step):
                    out = spec_step(s)
                    out.enc_state = list(s.enc_state)
                    return out

                ref.spec_step = broken
                result = ref.prove(jobs=jobs, cache_dir=str(tmp_path / f"j{jobs}"))
                verdicts.append(
                    (result.proved, result.failed_vc.message, result.stats["failed_part"])
                )
        finally:
            shutdown_scheduler()
        assert verdicts[0] == verdicts[1]
        proved, message, _part = verdicts[0]
        assert not proved and message.endswith("AF lock-step refinement")

        for obligations, results in runs:
            [(ob, failed)] = [(o, r) for o, r in zip(obligations, results) if r.status == "failed"]
            roots = deserialize_terms(ob.payload)
            goal, assumptions = roots[0], roots[1:]
            assert all(eval_term(a, failed.model_values) for a in assumptions)
            assert eval_term(mk_not(goal), failed.model_values)


_WARM_PASS = """
import json, sys
from repro import obs
from repro.core.scheduler import shutdown_scheduler
from repro.serve.grids import run_grid
with obs.tracing() as col:
    verdicts, _ = run_grid("fig11", opt=1, jobs=2, cache_dir=sys.argv[1])
shutdown_scheduler()
print(json.dumps({"verdicts": verdicts, "counters": col.counters}))
"""


@pytest.mark.slow
class TestWarmGrid:
    def test_warm_fig11_pass_issues_no_sub_obligations(self, tmp_path):
        """A warm pass, in a fresh process like every real warm run,
        answers each split VC from its composite entry in round one."""
        from repro.serve.grids import run_grid

        store = str(tmp_path / "s")
        try:
            cold, _ = run_grid("fig11", opt=1, jobs=2, cache_dir=store)
        finally:
            shutdown_scheduler()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", _WARM_PASS, store],
            capture_output=True, text=True, env=env, timeout=600, check=True,
        )
        warm = json.loads(out.stdout.strip().splitlines()[-1])
        assert warm["verdicts"] == cold and all(cold.values())
        counters = warm["counters"]
        assert counters.get("solver.cache.misses", 0) == 0
        assert counters["solver.cache.hits"] == counters["solver.queries"]
        summary = audit_store(store, require_certs=True)
        assert summary["failures"] == [] and summary["conj"] > 0


# ---------------------------------------------------------------------------
# The conj certificate rule


class TestConjRule:
    def _setup(self, tmp_path):
        store, digest = _proved_store(tmp_path, "rule")
        cert = _load(_cert_path(store, digest))
        return store, cert

    def test_valid_composite_checks(self, tmp_path):
        store, cert = self._setup(tmp_path)
        assert check_conj(cert, store_cert_loader(store)) == {"conjuncts": 3, "parts": 3}

    def test_missing_part_rejected(self, tmp_path):
        store, cert = self._setup(tmp_path)
        os.unlink(_cert_path(store, cert["parts"][1]))
        with pytest.raises(CheckFailure, match="has no certificate"):
            check_conj(cert, store_cert_loader(store))

    def test_part_proving_another_conjunct_rejected(self, tmp_path):
        store, cert = self._setup(tmp_path)
        x, y = _vars("rule")
        other = _part_digest(
            store, mk_eq(mk_bvadd(x, y), mk_bvadd(y, x)), [_assumption("rule")]
        )
        cert["parts"][0] = other
        with pytest.raises(CheckFailure, match="not the parent's assumptions"):
            check_conj(cert, store_cert_loader(store))

    def test_duplicated_part_leaves_a_conjunct_uncovered(self, tmp_path):
        store, cert = self._setup(tmp_path)
        cert["parts"][0] = cert["parts"][1]
        with pytest.raises(CheckFailure, match="covered by no part"):
            check_conj(cert, store_cert_loader(store))

    def test_part_with_extra_assumption_rejected(self, tmp_path):
        store, cert = self._setup(tmp_path)
        _x, y = _vars("rule")
        conjunct = _conjuncts("rule")[0]
        extra = _part_digest(
            store, conjunct, [_assumption("rule"), mk_ult(y, mk_bv(50, 8))]
        )
        cert["parts"] = [extra] + cert["parts"]
        with pytest.raises(CheckFailure, match="not the parent's assumptions"):
            check_conj(cert, store_cert_loader(store))

    def test_part_with_changed_assumption_rejected(self, tmp_path):
        store, cert = self._setup(tmp_path)
        x, _y = _vars("rule")
        digests = [
            _part_digest(store, c, [mk_ult(x, mk_bv(99, 8))]) for c in _conjuncts("rule")
        ]
        cert["parts"] = digests
        with pytest.raises(CheckFailure, match="not the parent's assumptions"):
            check_conj(cert, store_cert_loader(store))

    def test_part_with_broken_proof_rejected(self, tmp_path):
        store, cert = self._setup(tmp_path)
        path = _cert_path(store, cert["parts"][2])
        part = _load(path)
        part["cnf"] = []  # nothing left to refute the query with
        with open(path[: -3] if path.endswith(".gz") else path, "w") as handle:
            json.dump(part, handle)
        if path.endswith(".gz"):
            os.unlink(path)
        with pytest.raises(CheckFailure, match="part"):
            check_conj(cert, store_cert_loader(store))

    def test_last_root_must_negate_a_conjunction(self, tmp_path):
        store, cert = self._setup(tmp_path)
        query = cert["query"]
        last = query["nodes"][query["roots"][-1]]
        assert last[0] == "not"
        # Drop the negation: the last root is the bare conjunction.
        query["roots"][-1] = last[2][0]
        cert["digest"] = canonical_digest(query)
        with pytest.raises(CheckFailure, match="not a negation"):
            check_conj(cert, store_cert_loader(store))
        # Negate one conjunct instead of the conjunction.
        and_node = query["nodes"][last[2][0]]
        query["nodes"].append(["not", "b", [and_node[2][0]], None])
        query["roots"][-1] = len(query["nodes"]) - 1
        cert["digest"] = canonical_digest(query)
        with pytest.raises(CheckFailure, match="does not negate a conjunction"):
            check_conj(cert, store_cert_loader(store))

    def test_tampered_parent_digest_rejected(self, tmp_path):
        store, cert = self._setup(tmp_path)
        cert["digest"] = ("0" if cert["digest"][0] != "0" else "1") + cert["digest"][1:]
        with pytest.raises(CheckFailure, match="digest binding broken"):
            check_conj(cert, store_cert_loader(store))

    def test_audit_fails_a_composite_with_a_missing_part(self, tmp_path):
        store, cert = self._setup(tmp_path)
        os.unlink(_cert_path(store, cert["parts"][0]))
        failures = dict(audit_store(store)["failures"])
        assert "has no certificate" in failures[cert["digest"]]


# ---------------------------------------------------------------------------
# Remote adoption


class TestRemoteComposite:
    def test_composite_adopted_with_its_parts(self, tmp_path):
        srv, digest = _proved_store(tmp_path, "radopt")
        server = StoreServer(srv).start()
        try:
            local_dir = str(tmp_path / "cli")
            local = RemoteVerdictStore(local_dir, server.url)
            with obs.tracing() as col:
                assert local.lookup(digest, {}).is_unsat
            assert col.counters.get("store.remote.rejected_certs", 0) == 0
            parts = _load(_cert_path(srv, digest))["parts"]
            for d in [digest] + parts:
                assert local._find_entry_file(d) is not None
            summary = audit_store(local_dir, require_certs=True)
            assert summary["failures"] == [] and (summary["conj"], summary["drat"]) == (1, 3)
        finally:
            server.close()

    def test_composite_with_a_failing_part_is_refused(self, tmp_path):
        srv, digest = _proved_store(tmp_path, "rrefuse")
        part = _load(_cert_path(srv, digest))["parts"][0]
        path = _cert_path(srv, part)
        doc = _load(path)
        doc["cnf"] = []  # nothing left to refute the query with
        os.unlink(path)
        with open(os.path.join(srv, part[:2], f"{part}.cert.json"), "w") as handle:
            json.dump(doc, handle)
        server = StoreServer(srv).start()
        try:
            local = RemoteVerdictStore(str(tmp_path / "cli"), server.url)
            with obs.tracing() as col:
                assert local.lookup(digest, {}) is None
            assert col.counters["store.remote.rejected_certs"] == 1
            # Neither the parent nor any part was adopted.
            assert local.digests() == []
        finally:
            server.close()
