"""The CI perf gate ``scripts/check_bench.py`` on synthetic artifacts.

Exit codes are the contract CI relies on: 0 the gate holds, 1 a
threshold is crossed, 3 the artifact lacks a field the gate needs (so
an untraced run or the wrong artifact can never pass).
"""

import json
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "check_bench.py")


def _artifact(wall_s=2.0, propagations=1000, certs=None, cert_build_s=None, counters=True):
    doc = {}
    if wall_s is not None:
        doc["wall_s"] = wall_s
    if counters:
        values = {"sat.propagations": propagations}
        if certs is not None:
            values["solver.certs"] = certs
        if cert_build_s is not None:
            values["solver.cert_build_s"] = cert_build_s
        doc["obs"] = {"counters": values}
    return doc


def _gate(tmp_path, *docs, flags=()):
    paths = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"artifact{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    proc = subprocess.run(
        [sys.executable, SCRIPT, *flags, *paths], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout + proc.stderr


class TestDefaultMode:
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("wall", [None, 0.0])
    def test_missing_wall_is_a_hard_failure(self, tmp_path, side, wall):
        docs = [_artifact(), _artifact()]
        docs[side] = _artifact(wall_s=wall)
        code, out = _gate(tmp_path, *docs)
        assert code == 3 and "wall_s" in out

    def test_missing_counters_is_a_hard_failure(self, tmp_path):
        code, out = _gate(tmp_path, _artifact(counters=False), _artifact())
        assert code == 3 and "obs.counters" in out

    def test_wall_over_the_ceiling_fails(self, tmp_path):
        code, out = _gate(tmp_path, _artifact(wall_s=2.6), _artifact(wall_s=2.0))
        assert code == 1 and "wall time regressed" in out

    def test_propagations_over_the_ceiling_fail(self, tmp_path):
        code, out = _gate(tmp_path, _artifact(propagations=1200), _artifact())
        assert code == 1 and "sat.propagations grew" in out

    def test_within_bounds_holds(self, tmp_path):
        code, out = _gate(
            tmp_path, _artifact(wall_s=2.4, propagations=1090), _artifact()
        )
        assert code == 0 and "perf gate holds" in out


class TestCertsMode:
    def test_no_certificates_fails(self, tmp_path):
        code, out = _gate(tmp_path, _artifact(certs=0, cert_build_s=0.0), flags=["--certs"])
        assert code == 1 and "no certificates" in out

    def test_over_the_cap_fails(self, tmp_path):
        code, out = _gate(tmp_path, _artifact(certs=40, cert_build_s=0.3), flags=["--certs"])
        assert code == 1 and "above the" in out

    def test_missing_wall_is_a_hard_failure(self, tmp_path):
        doc = _artifact(wall_s=None, certs=40, cert_build_s=0.1)
        code, out = _gate(tmp_path, doc, flags=["--certs"])
        assert code == 3 and "wall_s" in out

    def test_within_the_cap_holds(self, tmp_path):
        code, out = _gate(tmp_path, _artifact(certs=40, cert_build_s=0.1), flags=["--certs"])
        assert code == 0 and "cert overhead gate holds" in out
