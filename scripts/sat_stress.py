#!/usr/bin/env python3
"""SAT stress gate: corpus agreement across solver implementations, plus
obligation verdicts checked against the answers the grid fixes.

Usage: sat_stress.py [--corpus-only]

Three layers of checking, mirroring the ``sat-stress`` CI job:

  * **DIMACS corpus** (``tests/data/*.cnf``): every instance is solved
    by the arena solver (chronological backtracking on and off) and the
    legacy reference solver; all verdicts must agree with each other
    and with the ``c expect`` header, and every SAT model is checked
    against the clauses.
  * **Obligation grid**: a small verification grid, built so that
    obligation ``i`` fails exactly when ``i % 4 == 3``, must get those
    verdicts in the shared per-process session, and again with the
    session reset before every check.
  * **Certificates**: the grid runs cache-backed and the independent
    ``checkproof --require-certs`` audit must accept every stored
    verdict.

Exits nonzero on any disagreement.
"""

import argparse
import glob
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))


def load_dimacs(path):
    """Parse a DIMACS file -> (num_vars, clauses, expected verdict)."""
    num_vars, clauses, expect = 0, [], None
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("c expect"):
                expect = line.split()[2]
            elif line.startswith("c") or not line:
                continue
            elif line.startswith("p cnf"):
                num_vars = int(line.split()[2])
            else:
                lits = [int(tok) for tok in line.split()]
                assert lits[-1] == 0, f"{path}: clause not 0-terminated"
                clauses.append(lits[:-1])
    return num_vars, clauses, expect


def check_corpus() -> int:
    from repro.smt.sat import SAT, ArenaSolver, SatSolver, UNSAT

    paths = sorted(glob.glob(os.path.join(REPO, "tests", "data", "*.cnf")))
    if not paths:
        print("FAIL: no .cnf files under tests/data/", file=sys.stderr)
        return 1

    failures = 0
    variants = [
        ("arena", lambda: ArenaSolver()),
        ("arena-nochrono", lambda: _no_chrono()),
        ("legacy", lambda: SatSolver()),
    ]

    def _no_chrono():
        solver = ArenaSolver()
        solver.chrono_threshold = None
        return solver

    for path in paths:
        num_vars, clauses, expect = load_dimacs(path)
        verdicts = {}
        for label, make in variants:
            solver = make()
            solver.ensure_vars(num_vars)
            ok = True
            for clause in clauses:
                ok = solver.add_clause(list(clause)) and ok
            result = solver.solve() if ok else UNSAT
            verdicts[label] = result
            if result == SAT:
                for clause in clauses:
                    if not any(solver.value(lit) for lit in clause):
                        print(
                            f"FAIL: {os.path.basename(path)} [{label}]: "
                            f"model falsifies clause {clause}",
                            file=sys.stderr,
                        )
                        failures += 1
        agreed = len(set(verdicts.values())) == 1
        expected_ok = expect is None or all(v == expect for v in verdicts.values())
        status = "ok" if agreed and expected_ok else "FAIL"
        print(f"{status}: {os.path.basename(path):24s} {verdicts}")
        if not agreed:
            print(
                f"FAIL: {os.path.basename(path)}: implementations disagree: {verdicts}",
                file=sys.stderr,
            )
            failures += 1
        elif not expected_ok:
            print(
                f"FAIL: {os.path.basename(path)}: expected {expect}, got {verdicts}",
                file=sys.stderr,
            )
            failures += 1
    return 1 if failures else 0


def stress_obligations(prefix: str) -> list:
    """The stress grid: obligation ``i`` is invalid iff ``i % 4 == 3``."""
    from repro.core.runner import Obligation
    from repro.smt import bv_sort, fresh_var, mk_bv, mk_bvand, mk_bvmul, mk_bvxor, mk_eq, mk_ule

    obligations = []
    for i in range(10):
        x = fresh_var(f"{prefix}x", bv_sort(8))
        y = fresh_var(f"{prefix}y", bv_sort(8))
        if i % 4 == 3:
            goal = mk_eq(mk_bvmul(x, y), mk_bv(91, 8))  # not valid
        elif i % 2:
            goal = mk_ule(mk_bvand(x, mk_bv(0x3F, 8)), mk_bv(0x3F, 8))
        else:
            goal = mk_eq(mk_bvxor(mk_bvxor(x, y), y), mk_bvand(x, mk_bv(0xFF, 8)))
        obligations.append(Obligation.from_terms(f"{prefix}{i}", [goal]))
    return obligations


def check_grid() -> int:
    """Grid verdicts must be the constructed ones, both in the shared
    session and with the session reset before every check."""
    from repro.core.runner import FAILED, PROVED, run_obligations
    from repro.smt.solver import reset_incremental_session

    expected = [FAILED if i % 4 == 3 else PROVED for i in range(10)]
    obligations = stress_obligations("stress")
    results, _ = run_obligations(obligations, jobs=1)
    shared = [r.status for r in results]
    reset = []
    for obligation in obligations:
        reset_incremental_session()
        results, _ = run_obligations([obligation], jobs=1)
        reset.append(results[0].status)
    print(f"{'expected':12s} {expected}\n{'shared':12s} {shared}\n{'reset':12s} {reset}")
    if shared != expected or reset != expected:
        print("FAIL: grid verdicts differ from the constructed ones", file=sys.stderr)
        return 1
    print("grid verdicts hold")
    return 0


def check_certificates() -> int:
    """Run the stress grid cache-backed, then audit every stored
    verdict with the independent proof checker.

    The audit runs ``python -m repro.smt.checkproof --store`` in a child
    process, exactly as a third party would — nothing from this
    process's solver state can leak into the check.
    """
    import tempfile

    from repro.core.runner import run_obligations

    with tempfile.TemporaryDirectory(prefix="stress_certs_") as store:
        run_obligations(stress_obligations("cert"), jobs=1, cache_dir=store)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.smt.checkproof", "--store", store, "--require-certs"],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"FAIL: checkproof audit exited {proc.returncode}", file=sys.stderr)
            return 1
    print("certificate audit holds")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus-only", action="store_true")
    args = parser.parse_args()

    rc = check_corpus()
    if not args.corpus_only:
        rc = check_grid() or rc
        rc = check_certificates() or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
