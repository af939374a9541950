"""The benchmark's tracer still runs cmlab: a traced job prints what the
untraced job prints.

benchmarks/tracer.py wraps every public cmlab function and patches
SignedPerm.__post_init__, GaloisGroup.__post_init__ and
GaloisGroup.elements to count work; it also counts the calls of
sl2check.bracket, sl2check.build_v, reciprocity.render_relation and
reciprocity.relation_to_json by name, and reads the result of
reciprocity.relations_from_kernel and hodge.pohlmann_basis and the
IntMatrix argument and IntLattice result of intlattice.kernel_basis.  A
refactor of those names or fields can break every traced benchmark run
without failing a cmlab test.  These cases run the tracer as the benchmark does,
in a subprocess, and read benchmarks/ without changing it.
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


# a corpus input of tests/data/cli_digests.json, by case name
CORPUS = {case["name"]: case["input"]
          for case in json.loads((ROOT / "tests" / "data" / "cli_digests.json").read_text(encoding="utf-8"))["cases"]}

# (command line, the JSON that --input holds or None, counters that must
# be nonzero): the constructors that tracer.py patches, the hooks it keys
# by name and the hooks that read a result's fields
JOBS = {
    # the patched constructors and GaloisGroup.elements
    "orbits-g4-generators": (["orbits"], PAIR_G4, ("hyperoct.signedperm.made", "galois.elements")),
    "relations-weyl-full-g3": (["relations", "--weyl-full", "--g", "3"], None, ()),
    # the hooks on sl2check.bracket and sl2check.build_v
    "sl2-check-g3": (["sl2-check", "--g", "3"], None, ("sl2check.brackets", "sl2check.nilpotents_built")),
    # the hook on hodge.pohlmann_basis, which counts the classes it returns
    "hodge-basis-weyl-full-g3": (["hodge-basis", "--weyl-full", "--g", "3", "--p", "2", "--n", "1"], None,
                                 ("hodge.basis_size", "hodge.candidates")),
    # the hook on intlattice.kernel_basis, which reads the IntMatrix argument
    # and the IntLattice result field by field, and the hook on
    # reciprocity.relations_from_kernel, which counts the relations
    "kernel-mu19-reflex": (["kernel"], CORPUS["cyclic-kernel"], ("intlattice.hnf_cells", "reciprocity.relations")),
    # the hook on reciprocity.render_relation, once per certificate line
    "reduce": (["reduce"], CORPUS["reduce"], ("reciprocity.renders",)),
    # the hook on cmtypes.orbit_decomposition, and the labels of a cyclic pair
    "compagnons-mu19": (["compagnons"], CORPUS["cyclic-compagnons"], ("cmtypes.decompositions",)),
    # pair relations lifted to Theta_I relations and reduced, each rendered
    "example-mu19": (["example-mu19"], None, ("reciprocity.relations", "reciprocity.renders")),
}


@pytest.mark.parametrize("name", JOBS)
def test_traced_job_prints_the_untraced_bytes(tmp_path, name):
    argv, data, nonzero = JOBS[name]
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = [*argv, "--input", str(path)]
    traced, counters, plain = traced_and_plain(tmp_path, argv)
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.stdout == plain.stdout
    assert {key: counters.get(key, 0) > 0 for key in nonzero} == dict.fromkeys(nonzero, True)
