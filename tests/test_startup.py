"""Start-up cost: a command loads only the modules its handler uses.

Each case runs in a fresh interpreter and lists the modules it has loaded
by the end; the parser alone loads no solver, and a command loads none of
the solvers that belong to other commands.
"""
import json
import subprocess
import sys

import pytest


def loaded_by(code: str) -> set:
    script = (
        "import contextlib, io, sys\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    {code}\n"
        "print(' '.join(sys.modules))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def cmlab_modules(loaded: set) -> set:
    return {m for m in loaded if m.split(".")[0] == "cmlab"}


def test_building_the_parser_loads_no_solver():
    loaded = loaded_by("import cmlab.cli; cmlab.cli.build_parser()")
    assert cmlab_modules(loaded) == {"cmlab", "cmlab.cli"}
    assert not loaded & {"dataclasses", "fractions", "json"}


def test_sl2_check_loads_no_lattice_code():
    loaded = loaded_by("import cmlab.cli; code = cmlab.cli.main(['sl2-check', '--g', '2'])")
    assert "cmlab.sl2check" in loaded
    assert not loaded & {"cmlab.hodge", "cmlab.reciprocity", "cmlab.intlattice"}
    # the sl2 algebra is integer: fractions would pull in decimal and numbers
    assert not loaded & {"fractions", "decimal", "numbers"}


def test_orbits_loads_no_hodge_sl2_or_fractions(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"weyl": 3}))
    loaded = loaded_by(f"import cmlab.cli; code = cmlab.cli.main(['orbits', '--input', {str(path)!r}])")
    assert "cmlab.cmtypes" in loaded
    assert not loaded & {"cmlab.hodge", "cmlab.sl2check", "fractions"}


RELATION_SIDE = {"cmlab", "cmlab.cli", "cmlab.cli_relations", "cmlab.reciprocity", "cmlab.hyperoct", "cmlab.record"}


def test_relations_weyl_full_loads_only_the_antiweyl_side():
    loaded = loaded_by("import cmlab.cli; code = cmlab.cli.main(['relations', '--weyl-full', '--g', '4'])")
    assert cmlab_modules(loaded) == RELATION_SIDE
    assert "json" not in loaded


def test_reduce_loads_only_the_antiweyl_side(tmp_path):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps({"g": 2, "vec": [1, 0, 0, 1], "tau": -1}))
    loaded = loaded_by(f"import cmlab.cli; code = cmlab.cli.main(['reduce', '--input', {str(path)!r}])")
    assert cmlab_modules(loaded) == RELATION_SIDE


HODGE_SIDE = {"cmlab", "cmlab.cli", "cmlab.cli_hodge", "cmlab.hodge", "cmlab.hyperoct", "cmlab.record"}
SL2_SIDE = {"cmlab", "cmlab.cli", "cmlab.cli_sl2", "cmlab.sl2check", "cmlab.hyperoct", "cmlab.record"}


@pytest.mark.parametrize("argv, expected", [
    (["hodge-basis", "--weyl-full", "--g", "3", "--p", "1", "--n", "1"], HODGE_SIDE),
    (["support", "--input", "QUAD"], HODGE_SIDE),
    (["sl2-check", "--g", "2"], SL2_SIDE),
], ids=["hodge-basis", "support", "sl2-check"])
def test_hodge_and_sl2_commands_load_no_lattice_or_relation_code(tmp_path, argv, expected):
    # hodge imports no relation code, the group code only for a pair, and
    # never the lattice code; sl2-check takes its subsets from hyperoct, not
    # from the group code
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({"g": 3, "first": [[], [2, 3], [2], [3]]}))
    argv = [str(path) if a == "QUAD" else a for a in argv]
    loaded = loaded_by(f"import cmlab.cli; code = cmlab.cli.main({argv!r})")
    assert cmlab_modules(loaded) == expected


PAIR_SIDE = {"cmlab", "cmlab.cli", "cmlab.cmtypes", "cmlab.galois", "cmlab.hyperoct", "cmlab.record"}
KERNEL_SIDE = PAIR_SIDE | {"cmlab.cli_relations", "cmlab.reciprocity", "cmlab.intlattice"}


@pytest.mark.parametrize("argv, expected", [
    (["orbits"], PAIR_SIDE | {"cmlab.cli_pairs"}),
    (["reflex"], PAIR_SIDE | {"cmlab.cli_pairs"}),
    (["compagnons"], PAIR_SIDE | {"cmlab.cli_pairs"}),
    (["kernel"], KERNEL_SIDE),
    (["relations"], KERNEL_SIDE),
    (["hodge-basis", "--p", "1", "--n", "1"], PAIR_SIDE | {"cmlab.cli_hodge", "cmlab.hodge"}),
], ids=["orbits", "reflex", "compagnons", "kernel", "relations", "hodge-basis"])
def test_a_cyclic_pair_loads_the_group_code_and_only_what_its_command_runs(tmp_path, argv, expected):
    # the pair is read through cmtypes and galois; only kernel and relations
    # load the lattice code, and only hodge-basis the Hodge code
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"cyclic": {"M": 8, "phi": [0, 1, 2, 3]}}))
    loaded = loaded_by(f"import cmlab.cli; code = cmlab.cli.main({[*argv, '--input', str(path)]!r})")
    assert cmlab_modules(loaded) == expected


def test_example_mu19_loads_every_module_but_hodge_and_sl2():
    loaded = loaded_by("import cmlab.cli; code = cmlab.cli.main(['example-mu19'])")
    assert cmlab_modules(loaded) == KERNEL_SIDE | {"cmlab.cli_mu19", "cmlab.cli_pairs"}


ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", [
    ["orbits", "--format", "json", "--input", "PAIR"],
    ["kernel", "--format", "table", "--input", "PAIR"],
    ["reduce", "--format", "json", "--input", "REL"],
    ["relations", "--weyl-full", "--g", "4", "--format", "table"],
    ["hodge-basis", "--weyl-full", "--g", "3", "--p", "1", "--n", "1", "--format", "json"],
    ["support", "--format", "table", "--input", "QUAD"],
    ["sl2-check", "--g", "2", "--format", "json"],
    ["example-mu19", "--format", "table"],
], ids=lambda argv: argv[0])
def test_a_plain_line_loads_no_argparse(tmp_path, argv):
    # a plain command line is read from the command table
    inputs = {"PAIR": {"cyclic": {"M": 8, "phi": [0, 1, 2, 3]}},
              "REL": {"g": 2, "vec": [1, 0, 0, 1], "tau": -1},
              "QUAD": {"g": 3, "first": [[], [2, 3], [2], [3]]}}
    for name, data in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    argv = [str(tmp_path / f"{a}.json") if a in inputs else a for a in argv]
    loaded = loaded_by(f"import cmlab.cli; code = cmlab.cli.main({argv!r}); assert code == 0")
    assert not loaded & ARGPARSE


def test_no_line_loads_argparse():
    # help and usage errors are rendered from the command table too
    for argv, code in [(["sl2-check", "--g", "2"], 0), (["--help"], 0), (["orbits", "--help"], 0),
                       (["relations", "--g", "3"], 2)]:
        script = (f"import sys\nfrom cmlab.cli import main\ntry:\n    code = main({argv!r})\n"
                  "except SystemExit as exc:\n    code = exc.code\n"
                  "print(' '.join(sys.modules))\nsys.exit(code)\n")
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert run.returncode == code, (argv, run.stderr)
        assert run.stdout.startswith("usage: cmlab") == (argv[-1] == "--help")
        assert not set(run.stdout.splitlines()[-1].split()) & ARGPARSE, argv
