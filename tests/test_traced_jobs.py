"""The benchmark's tracer still runs cmlab: a traced job prints what the
untraced job prints.

benchmarks/tracer.py wraps every public cmlab function and patches
SignedPerm.__post_init__, GaloisGroup.__post_init__ and
GaloisGroup.elements to count work; it also counts the calls of
sl2check.bracket and sl2check.build_v by name.  A refactor of those names
can break every traced benchmark run without failing a cmlab test.  These
cases run the tracer as the benchmark does, in a subprocess, and read
benchmarks/ without changing it.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "benchmarks" / "tracer.py"
ENTRY = "import sys; from cmlab.cli import main; sys.exit(main())"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# (Z/2)^4 semidirect the 4-cycle: the flip of 1, the cycle and rho, 64 elements
PAIR_G4 = {"g": 4, "generators": [
    {"flips": [1], "perm": [1, 2, 3, 4]},
    {"flips": [], "perm": [2, 3, 4, 1]},
    {"flips": [1, 2, 3, 4], "perm": [1, 2, 3, 4]},
]}


def traced_and_plain(tmp_path, argv):
    """(the traced run, the tracer's counters, the untraced run)."""
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(TRACER), str(spans), "0", "--", *argv],
                            capture_output=True, env=ENV, cwd=ROOT)
    plain = subprocess.run([sys.executable, "-c", ENTRY, *argv], capture_output=True, env=ENV, cwd=ROOT)
    counters = json.loads(spans.read_text(encoding="utf-8"))["counters"] if spans.exists() else {}
    return traced, counters, plain


@pytest.mark.parametrize("argv", [["orbits", "--input", "PAIR"], ["relations", "--weyl-full", "--g", "3"],
                                  ["sl2-check", "--g", "3"]],
                         ids=["orbits-g4-generators", "relations-weyl-full-g3", "sl2-check-g3"])
def test_traced_job_prints_the_untraced_bytes(tmp_path, argv):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(PAIR_G4), encoding="utf-8")
    argv = [str(pair) if a == "PAIR" else a for a in argv]
    traced, counters, plain = traced_and_plain(tmp_path, argv)
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.stdout == plain.stdout
    if argv[0] == "orbits":
        # the patched constructors and GaloisGroup.elements still count
        assert counters.get("hyperoct.signedperm.made", 0) > 0
        assert counters.get("galois.elements", 0) > 0
    if argv[0] == "sl2-check":
        # the hooks on sl2check.bracket and sl2check.build_v still count
        assert counters.get("sl2check.brackets", 0) > 0
        assert counters.get("sl2check.nilpotents_built", 0) > 0
