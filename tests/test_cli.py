"""Command-line surface: exit codes, determinism, golden report, JSON."""
import contextlib
import fcntl
import gc
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmlab.cli_pairs
import cmlab.hodge
from cmlab.cli import _COMMANDS, _fill, build_parser, main, parse_args
from cmlab.galois import GaloisGroup, weyl_full
from cmlab.hodge import POHLMANN_HARD_BUDGET
from cmlab.hyperoct import SignedPerm, mask_of, subset_rank, subset_str
from oracles import argparse_parser, quadruple_support

GOLDEN = pathlib.Path(__file__).parent / "data" / "example_mu19.txt"

MU19_SPEC = {"cyclic": {"M": 18, "phi": [0, 2, 3, 6, 10, 13, 14, 16, 17]}}
MU19_STAR_SPEC = {"cyclic": {"M": 18, "phi": [0, 1, 2, 4, 5, 8, 12, 15, 16]}}


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def mu19_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "mu19.json"
    path.write_text(json.dumps(MU19_SPEC))
    return str(path)


@pytest.fixture(scope="module")
def mu19_star_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "mu19_star.json"
    path.write_text(json.dumps(MU19_STAR_SPEC))
    return str(path)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["kernel"])  # --input is required
        assert err.value.code == 2

    def test_domain_error_is_1(self, tmp_path, capsys):
        bad = write_json(
            tmp_path, "bad.json",
            {"g": 2, "generators": [{"flips": [], "perm": [2, 1]}]},
        )
        code, out, err = run_cli(["kernel", "--input", bad], capsys)
        assert code == 1 and out == ""
        assert "conjugation not in group" in err

    def test_unreadable_and_malformed_files(self, tmp_path, capsys):
        code, _, err = run_cli(["kernel", "--input", str(tmp_path / "nope.json")], capsys)
        assert code == 1 and "cannot read" in err
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, _, err = run_cli(["kernel", "--input", str(broken)], capsys)
        assert code == 1 and "not valid JSON" in err

    @pytest.mark.parametrize("content", [
        b'{"weyl": 3, "note": "\xff"}',  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
        b'{"weyl": ' + b"7" * 5000 + b"}",  # past the integer digit limit
    ], ids=["not-utf8", "deep-nesting", "long-integer"])
    def test_undecodable_file_is_1_naming_it(self, tmp_path, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        cmd = [sys.executable, "-m", "cmlab.cli", "orbits", "--input", str(path)]
        run = subprocess.run(cmd, capture_output=True, text=True)
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr.startswith(f"error: cannot read {path}: "), run.stderr
        assert "Traceback" not in run.stderr

    def test_success_is_0(self, capsys):
        code, out, _ = run_cli(["example-mu19"], capsys)
        assert code == 0 and out

    def test_reader_closing_the_pipe_early_is_1_without_traceback(self):
        # a one-page pipe holds far less than the ~14 kB report, so the
        # writer is still writing when the reader goes away after one line
        read_fd, write_fd = os.pipe()
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        cmd = [sys.executable, "-m", "cmlab.cli", "relations", "--weyl-full", "--g", "8"]
        proc = subprocess.Popen(cmd, stdout=write_fd, stderr=subprocess.PIPE)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as reader:
            assert reader.readline() == b"relations: 247\n"
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == "", err


class TestGolden:
    def test_example_mu19_matches_committed_output(self, capsys):
        code, out, _ = run_cli(["example-mu19"], capsys)
        assert code == 0
        assert out == GOLDEN.read_text(encoding="utf-8")

    def test_byte_determinism_across_processes(self):
        cmd = [sys.executable, "-m", "cmlab.cli", "example-mu19"]
        runs = [subprocess.run(cmd, capture_output=True, check=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout == GOLDEN.read_bytes()


class TestMu19Formats:
    """The table and the JSON of example-mu19 render one result."""

    @staticmethod
    def reports(capsys):
        assert main(["example-mu19"]) == 0
        table = capsys.readouterr().out.splitlines()
        assert main(["example-mu19", "--format", "json"]) == 0
        return table, json.loads(capsys.readouterr().out)

    def test_certificate_summaries_match_the_json_certificates(self, capsys):
        table, obj = self.reports(capsys)
        summary = re.compile(r"  reduction certificate: (\d+) parts, coefficients in \{(.*)\}, verified")
        summaries = [summary.fullmatch(line) for line in table if line.startswith("  reduction certificate:")]
        assert len(summaries) == 2 and all(summaries)
        assert [(int(m[1]), {int(c) for c in m[2].split(",")}) for m in summaries] == [
            (len(c["parts"]), {p["coeff"] for p in c["parts"]}) for c in obj["certificates"]]

    def test_orbit_table_and_labels_match_the_json(self, capsys):
        table, obj = self.reports(capsys)

        def labels(prefix):
            [line] = [line for line in table if line.startswith(prefix)]
            return [int(a) for a in re.findall(r"\[(\d+)\]", line.split(": ", 1)[1])]

        rows = [re.fullmatch(r"I\(\[(\d+)\]\) = \{([\d,]*)\}", line) for line in table]
        orbit_table = {m[1]: [int(j) for j in m[2].split(",") if j] for m in rows if m}
        assert len(orbit_table) == 18 and orbit_table == obj["orbit_table"]
        assert labels("labels with 1 not in I([a]): ") == obj["reflex_labels"]
        assert labels("L = ") == obj["compagnon_L"]
        assert labels("L' = ") == obj["compagnon_Lprime"]


class TestKernelAndRelations:
    def test_kernel_table(self, mu19_file, capsys):
        code, out, _ = run_cli(["kernel", "--input", mu19_file], capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "kernel rank: 2"
        assert lines[1] == "mt dimension: 8"
        assert "relation: Th[0]*Th[6]*Th[17] ~ Th[2]*Th[3]*Th[14]" in lines
        assert "relation: Th[0]*Th[6]*Th[13] ~ Th[3]*Th[10]*Th[16]" in lines

    def test_relations_weyl_full(self, capsys):
        code, out, _ = run_cli(["relations", "--weyl-full", "--g", "2"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "relations: 1",
            "relation: Th{}*Th{1,2} ~ Th{2}*Th{1}",
        ]

    def test_relations_needs_a_source(self, capsys):
        code, _, err = run_cli(["relations"], capsys)
        assert code == 1 and "--input" in err


class TestOrbitCommands:
    def test_orbits_table(self, mu19_star_file, capsys):
        code, out, _ = run_cli(["orbits", "--input", mu19_star_file], capsys)
        lines = out.splitlines()
        assert code == 0
        assert "I([5]) = {1,2,4,6,7,8,9}" in lines
        assert "orbits: 30" in lines
        assert lines[-1].startswith("orbit 29:")

    def test_reflex(self, mu19_star_file, capsys):
        code, out, _ = run_cli(["reflex", "--input", mu19_star_file], capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "reflex degree: 18"
        assert lines[1] == "reflex labels: [0] [2] [3] [6] [10] [13] [14] [16] [17]"
        assert len([x for x in lines if x.startswith("type ")]) == 9

    def test_compagnons(self, mu19_star_file, capsys):
        code, out, _ = run_cli(["compagnons", "--input", mu19_star_file], capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "compagnons: 30"
        assert len(lines) == 31
        assert ", labels [0] [2] [3] [6] [10] [13] [14] [16] [17]" in lines[1]

    def test_reflex_walks_only_the_orbit_of_the_empty_set(self, tmp_path, capsys):
        # at g = 20 the whole decomposition would enumerate 2^20 subsets
        pair = write_json(tmp_path, "m40.json", {"cyclic": {"M": 40, "phi": list(range(20))}})
        code, out, _ = run_cli(["reflex", "--input", pair], capsys)
        assert (code, out.splitlines()[0]) == (0, "reflex degree: 40")
        for command in ("orbits", "compagnons"):
            refused = run_cli([command, "--input", pair], capsys)
            assert refused == (1, "", "error: operation enumerates all 2^g subsets; g=20 exceeds the cap 16\n")

    def test_reflex_refuses_an_unlabeled_pair_before_the_walk(self, tmp_path, capsys, monkeypatch):
        def walked(group):
            raise AssertionError("the translates were walked")

        monkeypatch.setattr(cmlab.cli_pairs, "translate_masks", walked)
        pair = write_json(tmp_path, "weyl.json", {"weyl": 16})
        assert run_cli(["reflex", "--input", pair], capsys) == (1, "", "error: labels need a labeled (cyclic) group\n")


class TestHodgeBasis:
    def test_weyl_quadruple_list(self, capsys):
        argv = ["hodge-basis", "--p", "2", "--n", "1", "--g", "3", "--weyl-full"]
        code, out, _ = run_cli(argv, capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "basis size: 8"
        assert len(lines) == 9
        assert lines[1] == "0: {}@1 {2}@1 {1,3}@1 {1,2,3}@1"
        code2, out2, _ = run_cli(argv, capsys)
        assert out2 == out

    def test_label_slots(self, tmp_path, capsys):
        spec = write_json(tmp_path, "weyl2.json", {"weyl": 2})
        code, out, _ = run_cli(
            ["hodge-basis", "--p", "1", "--n", "1", "--input", spec], capsys
        )
        assert code == 0
        assert out.splitlines() == [
            "basis size: 2",
            "0: [phi1]@1 [phibar1]@1",
            "1: [phi2]@1 [phibar2]@1",
        ]

    def test_budget_error(self, capsys):
        argv = ["hodge-basis", "--p", "2", "--n", "1", "--g", "3",
                "--weyl-full", "--budget", "1"]
        code, _, err = run_cli(argv, capsys)
        assert code == 1 and "budget exceeded" in err

    def test_default_budget_is_the_hard_cap(self, capsys, monkeypatch):
        # without --budget no budget reaches the walk, which then stops at
        # POHLMANN_HARD_BUDGET; the cap is lowered here so that the walk
        # reaches it after a few nodes
        argv = ["hodge-basis", "--p", "3", "--n", "2", "--g", "5", "--weyl-full"]
        assert parse_args(argv).budget is None
        monkeypatch.setattr(cmlab.hodge, "POHLMANN_HARD_BUDGET", 50)
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == "error: enumeration budget exceeded: the walk visits more than 50 nodes\n"

    def test_budget_counts_walk_nodes(self, capsys):
        # C(32, 4) = 35,960 combinations exceed the budget; the walk's
        # 12,487 nodes do not
        argv = ["hodge-basis", "--p", "2", "--n", "1", "--g", "5", "--weyl-full", "--budget", "20000"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out.startswith("basis size: 320\n")

    def test_over_budget_exits_1_without_traceback(self):
        cmd = [sys.executable, "-m", "cmlab.cli", "hodge-basis", "--p", "2", "--n", "1",
               "--g", "5", "--weyl-full", "--budget", "10000"]
        run = subprocess.run(cmd, capture_output=True, text=True)
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr == "error: enumeration budget exceeded: the walk visits more than 10000 nodes\n"

    def test_large_g_is_refused_before_building_slots(self, capsys):
        # 2^20 subsets per copy: refused by the powerset cap, not after
        # millions of slots have been built
        start = time.perf_counter()
        argv = ["hodge-basis", "--p", "2", "--n", "1", "--g", "20", "--weyl-full"]
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 2
        assert code == 1 and out == ""
        assert err == "error: operation enumerates all 2^g subsets; g=20 exceeds the cap 16\n"

    def test_huge_power_is_refused_before_building_slots(self, tmp_path, capsys):
        # the first call of the walk alone would loop over 4 * 10^8 - 1 slots
        spec = write_json(tmp_path, "weyl2.json", {"weyl": 2})
        start = time.perf_counter()
        argv = ["hodge-basis", "--p", "1", "--n", str(10**8), "--input", spec]
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 2
        assert code == 1 and out == ""
        assert err == f"error: enumeration budget exceeded: the walk visits more than {POHLMANN_HARD_BUDGET} nodes\n"

    def test_no_jobs_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["hodge-basis", "--p", "2", "--n", "1", "--g", "3", "--weyl-full", "--jobs", "2"])
        assert err.value.code == 2


class TestNumericFlags:
    @pytest.mark.parametrize("argv", [
        ["hodge-basis", "--p", "2", "--n", "1", "--g", "3", "--weyl-full", "--budget", "-1"],
        ["hodge-basis", "--p", "2", "--n", "1", "--g", "3", "--weyl-full", "--budget", "0"],
        ["hodge-basis", "--p", "2", "--n", "1", "--g", "0", "--weyl-full"],
        ["relations", "--weyl-full", "--g", "-2"],
        ["sl2-check", "--g", "0"],
        ["sl2-check", "--g", "x"],
        # past int's digit limit
        ["sl2-check", "--g", "1" * 5000],
        ["hodge-basis", "--p", "2", "--n", "1", "--g", "3", "--weyl-full", "--budget", "1" * 5000],
    ])
    def test_non_positive_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err


class TestMalformedInput:
    @pytest.mark.parametrize("command, data, message", [
        ("kernel", {"cyclic": {"M": None, "phi": [0, 1, 2]}}, "cyclic.M must be an integer"),
        ("kernel", {"cyclic": {"M": 6, "phi": 5}}, "cyclic.phi must be a list"),
        ("kernel", {"cyclic": {"M": 6, "phi": [0, "1", 2]}}, "cyclic.phi[1] must be an integer"),
        ("kernel", {"cyclic": [6]}, "cyclic must be an object"),
        ("kernel", {"cyclic": {"phi": [0, 1, 2]}}, 'cyclic needs "M"'),
        ("orbits", {"g": "3", "generators": 5}, "g must be an integer"),
        ("orbits", {"g": 3, "generators": 5}, "generators must be a list"),
        ("orbits", {"generators": []}, 'input needs "g"'),
        ("orbits", {"g": 2, "generators": [{"flips": [1, 2]}]}, 'generators[0] needs "perm"'),
        ("orbits", {"g": 2, "generators": [7]}, "generators[0] must be an object"),
        ("orbits", {"g": 2, "generators": [{"flips": 1, "perm": [1, 2]}]},
         "generators[0].flips must be a list"),
        ("reflex", {"weyl": "x"}, "weyl must be an integer"),
        ("reflex", {"weyl": True}, "weyl must be an integer"),
        ("reduce", {"g": 3, "vec": 5}, "vec must be a list"),
        ("reduce", {"g": 3, "vec": [0] * 7 + [None]}, "vec[7] must be an integer"),
        ("reduce", {"g": 1, "vec": [1, 1], "tau": "-1"}, "tau must be an integer"),
        ("reduce", {"g": -1, "vec": []}, "g=-1"),
        ("support", {"g": 3, "first": [[2], 3, [2, 3], []]}, "first[1] must be a list"),
        ("support", {"g": 3, "first": [[2], [3], [2, 3], [2.0]]}, "first[3][0] must be an integer"),
        ("support", {"g": 3, "first": [[], [2, 3], [2], [3]], "second": {}}, "second must be a list"),
        ("support", {"g": 3.0, "first": []}, "g must be an integer"),
        ("reduce", {"g": 3, "vec": [0, 0, 0]}, "vec has 3 entries, expected 2^3 = 8"),
        ("support", {"g": 3, "first": [[], [2], [3]]}, "first has 3 index sets, expected 4"),
        ("support", {"g": 3, "first": [[], [9], [2], [3]]}, "first[1]: element 9 outside 1..3"),
        ("support", {"g": 3, "first": [[], [2, 3], [2], [3]], "second": [[], [2, 3], [2], [0]]},
         "second[3]: element 0 outside 1..3"),
        ("orbits", {"g": 3, "generators": [{"flips": [5], "perm": [1, 2, 3]}]},
         "generators[0]: element 5 outside 1..3"),
        ("orbits", {"g": 3, "generators": [{"flips": [], "perm": [2, 3, 1]}, {"flips": [], "perm": [1, 2]}]},
         "generators[1]: perm (1, 2) is not a bijection of 1..3"),
    ])
    def test_exit_1_naming_the_field(self, tmp_path, capsys, command, data, message):
        path = write_json(tmp_path, "bad.json", data)
        code, out, err = run_cli([command, "--input", path], capsys)
        assert code == 1 and out == ""
        assert message in err


class TestPinnedMessages:
    @pytest.mark.parametrize("argv, data, message", [
        (["reflex"], {"weyl": 3}, "labels need a labeled (cyclic) group"),
        (["orbits"], {"weyl": 17}, "operation enumerates all 2^g subsets; g=17 exceeds the cap 16"),
        (["kernel"], {"weyl": 17}, "operation enumerates all 2^g subsets; g=17 exceeds the cap 16"),
        (["hodge-basis", "--weyl-full", "--g", "2", "--p", "8", "--n", "1"], None,
         "the packed accumulator supports p <= 7"),
        (["sl2-check", "--g", "13"], None, "sl2-check supports g <= 12, got 13"),
        (["relations"], None, "needs --input FILE or --weyl-full with --g"),
        (["hodge-basis", "--p", "1", "--n", "1"], None, "needs --input FILE or --weyl-full with --g"),
        (["relations", "--weyl-full"], None, "--weyl-full needs --g"),
        (["kernel"], "{not json",
         "{path} is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (["kernel"], [1], "{path}: expected a JSON object"),
        (["kernel"], {"cyclic": {"M": 5, "phi": [0, 1]}}, "M=5 must be even"),
        (["orbits"], {"weyl": 3, "g": 2, "generators": [{"flips": [1, 2], "perm": [1, 2]}]},
         'input gives more than one pair: "weyl" and "generators"'),
        (["kernel"], {"cyclic": {"M": 8, "phi": [0, 1, 2, 3]}, "weyl": 4},
         'input gives more than one pair: "cyclic" and "weyl"'),
        (["reflex"], {"weyl": 17}, "operation enumerates all 2^g subsets; g=17 exceeds the cap 16"),
        (["orbits"], {"weyl": 25}, "ground-set size g=25 outside supported range 1..24"),
        (["support"], {"g": 0, "first": [[], [], [], []]}, "ground-set size g=0 outside supported range 1..24"),
        (["support"], {"g": 25, "first": [[], [2, 3], [2], [3]]},
         "ground-set size g=25 outside supported range 1..24"),
        # each size an input names is refused before the rest of the input
        # is read: the transversal, the generators and the vector are bad too
        (["orbits"], {"weyl": 0}, "ground-set size g=0 outside supported range 1..24"),
        (["kernel"], {"cyclic": {"M": 50, "phi": [0, 1]}}, "ground-set size g=25 outside supported range 1..24"),
        (["kernel"], {"cyclic": {"M": 51, "phi": [0, 1]}}, "M=51 must be even"),
        (["orbits"], {"g": 25, "generators": [{"flips": [], "perm": [1, 2]}]},
         "ground-set size g=25 outside supported range 1..24"),
        (["reduce"], {"g": 25, "vec": [1]}, "ground-set size g=25 outside supported range 1..24"),
        # a missing file, for each kind of input that --input holds
        *(([command, "--input", "no-such-input.json"], None,
           "cannot read no-such-input.json: [Errno 2] No such file or directory: 'no-such-input.json'")
          for command in ("kernel", "relations", "reduce", "support")),
        # a transversal of the right size with a repeated residue names it
        (["orbits"], {"cyclic": {"M": 4, "phi": [0, 4]}}, "residue 0 repeats mod 4: not a transversal"),
        # an index set or a flip set names each element once
        (["support"], {"g": 3, "first": [[2, 2], [3], [2, 3], []]}, "first[0]: element 2 repeats"),
        (["orbits"], {"g": 3, "generators": [{"flips": [1, 1], "perm": [2, 3, 1]}]},
         "generators[0]: element 1 repeats"),
        # a value that looks like a negative number is read as a value
        (["hodge-basis", "--weyl-full", "--g", "2", "--p", "-1", "--n", "1"], None, "need p >= 0 and n >= 1"),
        # a key outside the shape is refused by name, optional keys misspelt
        # included, at every depth of the input
        (["support"], {"g": 3, "first": [[], [2, 3], [2], [3]], "secnd": [[], [2, 3], [3], [2]]},
         'input: unknown key "secnd"'),
        (["reduce"], {"g": 1, "vec": [1, 1], "taux": -1}, 'input: unknown key "taux"'),
        (["reduce"], {"g": 1, "vec": [1, 1], "tau?": "x"}, 'input: unknown key "tau?"'),
        (["orbits"], {"weyl": 3, "extra": 1}, 'input: unknown key "extra"'),
        (["kernel"], {"cyclic": {"M": 6, "phi": [0, 1, 2], "N": 1}}, 'cyclic: unknown key "N"'),
        (["orbits"], {"g": 2, "generators": [{"flips": [], "perm": [2, 1], "x": 0}]},
         'generators[0]: unknown key "x"'),
        # a repeated key is refused, not read as its last value
        (["orbits"], '{"weyl": 3, "weyl": 20}', 'cannot read {path}: repeated key "weyl"'),
        (["orbits"], '{"g": 2, "generators": [{"flips": [], "perm": [2, 1], "perm": [1, 2]}]}',
         'cannot read {path}: repeated key "perm"'),
        # the name of a list entry is built only for an entry that fails
        (["reduce"], {"g": 16, "vec": [0] * 40_000 + ["x"] + [0] * 25_535}, "vec[40000] must be an integer"),
    ])
    def test_exact_stderr_and_exit_1(self, tmp_path, capsys, argv, data, message):
        path = tmp_path / "input.json"
        if data is not None:
            path.write_text(data if isinstance(data, str) else json.dumps(data))
            argv = [*argv, "--input", str(path)]
        assert run_cli(argv, capsys) == (1, "", f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize("argv, message", [
        (["relations", "--weyl-full", "--g", "2", "--input", "nonexist.json"],
         "cmlab relations: error: argument --input: not allowed with argument --weyl-full"),
        (["hodge-basis", "--p", "1", "--n", "1", "--input", "x.json", "--weyl-full", "--g", "2"],
         "cmlab hodge-basis: error: argument --weyl-full: not allowed with argument --input"),
        (["relations", "--g", "2"], "cmlab relations: error: --g needs --weyl-full"),
        (["hodge-basis", "--p", "1", "--n", "1", "--g", "2", "--input", "x.json"],
         "cmlab hodge-basis: error: --g needs --weyl-full"),
    ])
    def test_contradictory_flags_are_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(argv)
        out, err_text = capsys.readouterr()
        assert err.value.code == 2 and out == ""
        # the usage line is the subcommand's, as the message's prog names it
        prog = message.split(": ")[0]
        assert err_text.startswith(f"usage: {prog} ") and err_text.endswith(f"\n{message}\n")

    def test_a_flag_refuses_an_explicit_argument(self, capsys):
        # --weyl-full takes no value, so --weyl-full=yes is a usage error,
        # word for word as argparse gives it
        argv = ["relations", "--weyl-full=yes", "--g", "3"]
        stderr = ("usage: cmlab relations [-h] [--format {table,json}]\n"
                  "                       [--input FILE | --weyl-full] [--g G]\n"
                  "cmlab relations: error: argument --weyl-full: ignored explicit argument 'yes'\n")
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert (err.value.code, *capsys.readouterr()) == (2, "", stderr)
        assert argparse_outcome(argv)[:3] == (2, "", stderr)

    def test_help_and_usage_errors_are_pinned(self, monkeypatch):
        # the help is laid out at 80 columns whatever the terminal's width,
        # which COLUMNS would set
        for columns in (None, "40", "80", "200"):
            if columns is None:
                monkeypatch.delenv("COLUMNS", raising=False)
            else:
                monkeypatch.setenv("COLUMNS", columns)
            assert usage_transcript() == USAGE.read_text(encoding="utf-8"), f"COLUMNS={columns}"

    @pytest.mark.parametrize("width, lines", [(6, ["aaa", "bbb"]), (7, ["aaa bbb"])])
    def test_fill_counts_the_space_between_words(self, width, lines):
        # the space between two words counts: "aaa bbb" takes 7 columns
        assert _fill(["aaa", "bbb"], width, "") == lines


USAGE = pathlib.Path(__file__).parent / "data" / "cli_usage.txt"
USAGE_ARGV = [
    ["--help"],
    *([command, "--help"] for command in (
        "orbits", "reflex", "compagnons", "kernel", "relations", "hodge-basis",
        "reduce", "support", "sl2-check", "example-mu19")),
    ["relations", "--g", "3"],
    ["orbits"],
    ["sl2-check"],
    ["relations", "--input", "x", "--weyl-full", "--g", "2"],
    ["no-such-command"],
]


def usage_transcript() -> str:
    """What each USAGE_ARGV command line prints, after a '$ cmlab ...' line
    and its exit code."""
    parts = []
    for argv in USAGE_ARGV:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main(argv)
        parts.append(f"$ cmlab {' '.join(argv)}\n[exit {exc.value.code}]\n"
                     f"[stdout]\n{out.getvalue()}[stderr]\n{err.getvalue()}")
    return "".join(parts)


_FLAGS = sorted({flag for options in build_parser().values() for flag in options})
_NEAR_MISSES = ["--form", "--in", "--format=json", "--g=2", "--weyl-full=1", "-h", "--help", "--"]
_VALUES = ["0", "-1", "3_0", "\uff10", "", "x", "json", "yaml", "1" * 5000, "1", "2", "table", "job.json"]
_VALID = {"--format": ["table", "json"], "--input": ["job.json"], "--g": ["1", "3"], "--p": ["1", "2"],
          "--n": ["1"], "--budget": ["50"]}


@st.composite
def command_lines(draw):
    """argv over every command, flag, near-miss option and edge value: a
    command with valid values for its required options and some of its
    others, in any order, then up to three tokens inserted, replaced or
    deleted anywhere, the command too."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    line = [command]
    for flag, keywords in draw(st.permutations(list(build_parser()[command].items()))):
        if not (keywords.get("required") or draw(st.booleans())):
            continue
        if flag == "--weyl-full":
            # the bare flag, or with an explicit argument that both parsers refuse
            line.append(draw(st.just(flag) | st.sampled_from(_VALUES).map(f"{flag}={{}}".format)))
        else:
            line += [flag, draw(st.sampled_from(_VALID[flag]))]
    tokens = st.sampled_from([*_COMMANDS, *_FLAGS, *_NEAR_MISSES, *_VALUES])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(line)))
        line[at:at + draw(st.integers(0, 1))] = draw(st.sampled_from([[], [draw(tokens)]]))
    return line


def outcome(parse, argv) -> tuple:
    """What parse(argv) does: its exit code (0 when it returns), stdout,
    stderr and the parsed arguments as a dict (None when it exits)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = vars(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue(), None
    return 0, out.getvalue(), err.getvalue(), args


def argparse_outcome(argv) -> tuple:
    """outcome of the argparse parser, laid out at 80 columns as cmlab's help is."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        return outcome(argparse_parser().parse_args, argv)
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def refused_token(argv):
    """The token of a line that parse_args refuses where argparse reads on:
    an option before the command, or after it `--` or a flag cut short,
    such as --in or --form=json; None for other lines."""
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        return argv[0]
    if argv and argv[0] in _COMMANDS:
        flags = [*build_parser()[argv[0]], "--help"]
        for token in argv[1:]:
            begun = token.partition("=")[0]
            if begun.startswith("--") and begun not in flags and any(flag.startswith(begun) for flag in flags):
                return token
    return None


class TestPlainArgs:
    """parse_args reads every line as the argparse parser of the oracles
    does, help and usage errors among them, but for the spellings it
    refuses."""

    # one line per row, as the benchmark spells it: the command and its
    # options, then --format and --input last; relations and hodge-basis
    # also with a pair from --input
    PLAIN = [
        ["orbits", "--format", "{fmt}", "--input", "job.json"],
        ["reflex", "--format", "{fmt}", "--input", "job.json"],
        ["compagnons", "--format", "{fmt}", "--input", "job.json"],
        ["kernel", "--format", "{fmt}", "--input", "job.json"],
        ["relations", "--weyl-full", "--g", "4", "--format", "{fmt}"],
        ["relations", "--format", "{fmt}", "--input", "job.json"],
        ["hodge-basis", "--weyl-full", "--g", "3", "--p", "2", "--n", "1", "--format", "{fmt}"],
        ["hodge-basis", "--p", "2", "--n", "1", "--format", "{fmt}", "--input", "job.json"],
        ["reduce", "--format", "{fmt}", "--input", "job.json"],
        ["support", "--format", "{fmt}", "--input", "job.json"],
        ["sl2-check", "--g", "3", "--format", "{fmt}"],
        ["example-mu19", "--format", "{fmt}"],
    ]

    def test_every_command_has_a_plain_line(self):
        assert list(dict.fromkeys(line[0] for line in self.PLAIN)) == list(_COMMANDS)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("line", PLAIN, ids=lambda line: " ".join(line[:3]))
    def test_a_plain_line_takes_the_plain_path(self, line, fmt):
        argv = [token.format(fmt=fmt) for token in line]
        assert vars(parse_args(argv)) == vars(argparse_parser().parse_args(argv))

    @given(argv=command_lines())
    @settings(max_examples=400, deadline=None)
    def test_a_line_is_read_as_argparse_reads_it(self, argv):
        code, out, err, args = outcome(parse_args, argv)
        token = refused_token(argv)
        if token is not None:
            assert (code, out) == (2, "") and token in err.splitlines()[-1]
            return
        expected = argparse_outcome(argv)
        assert (code, args) == (expected[0], expected[3])
        if sys.version_info < (3, 13):
            # 3.13's argparse wraps some usage lines differently
            assert (out, err) == expected[1:3]

    def test_equals_sign_and_repeated_options(self):
        # the last of a repeated option wins
        args = parse_args(["sl2-check", "--g=2", "--format=json", "--g", "3"])
        assert (args.g, args.format) == (3, "json")

    @pytest.mark.parametrize("argv, message", [
        # an error before --help comes first
        (["orbits", "--format", "yaml", "--help"],
         "cmlab orbits: error: argument --format: invalid choice: 'yaml' (choose from 'table', 'json')"),
        # refused before any option is read, each naming the token
        (["orbits", "--form", "json", "--input", "x"], "cmlab orbits: error: unrecognized arguments: --form"),
        (["kernel", "--help", "--in", "x"], "cmlab kernel: error: unrecognized arguments: --in"),
        (["orbits", "--input", "x", "--", "--help"], "cmlab orbits: error: unrecognized arguments: --"),
        (["--format", "json", "orbits"], "cmlab: error: argument command: invalid choice: '--format' "
         "(choose from 'orbits', 'reflex', 'compagnons', 'kernel', 'relations', 'hodge-basis', 'reduce', "
         "'support', 'sl2-check', 'example-mu19')"),
        # a positive integer is written in decimal digits alone, as
        # _positive reads it; int() would take each of these
        *((["sl2-check", "--g", text], f"cmlab sl2-check: error: argument --g: expected a positive integer, "
                                       f"got {text!r}") for text in ("+3", " 3", "3_0")),
        # a negative number ends in a digit, so -5. is not a value
        (["sl2-check", "--g", "-5."], "cmlab sl2-check: error: argument --g: expected one argument"),
    ])
    def test_usage_errors_name_the_token(self, capsys, argv, message):
        assert TestProgramMode.exit_code(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1] == message

    @pytest.mark.parametrize("argv", [["orbits", "--help"], ["orbits", "--input", "x", "--bogus", "--help"]])
    def test_help_after_the_command(self, capsys, argv):
        assert TestProgramMode.exit_code(argv) == 0
        assert capsys.readouterr().out.startswith("usage: cmlab orbits [-h]")


# small JSON values over the keys the input shapes use; integers stay small
# because a Weyl group of genus 7 alone takes seconds to build
_KEYS = ("cyclic", "M", "phi", "weyl", "g", "generators", "flips", "perm",
         "vec", "tau", "first", "second")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.sampled_from(["", "1", "x"]) | st.just(1.5),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=12,
)
_INPUT_COMMANDS = (
    ["orbits"], ["reflex"], ["compagnons"], ["kernel"], ["relations"],
    ["hodge-basis", "--p", "1", "--n", "1"], ["reduce"], ["support"],
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@given(data=st.dictionaries(st.sampled_from(_KEYS), _JSON, max_size=4) | _JSON,
       command=st.sampled_from(_INPUT_COMMANDS))
@settings(max_examples=300, deadline=None)
def test_arbitrary_json_never_crashes(fuzz_file, data, command):
    fuzz_file.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, "--input", str(fuzz_file)])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert code in (0, 1), (command, data, err.getvalue())


class TestReduce:
    def test_certificate_output(self, tmp_path, capsys):
        vec = [0] * 8
        for I, sign in [([], 1), ([2, 3], 1), ([2], -1), ([3], -1)]:
            vec[subset_rank(3, mask_of(3, I))] += sign
        path = write_json(tmp_path, "quad.json", {"g": 3, "vec": vec})
        code, out, _ = run_cli(["reduce", "--input", path], capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("target: ")
        assert lines[-1] == "verified: yes"

    def test_unreachable_target(self, tmp_path, capsys):
        vec = [0] * 8
        vec[0] = 1
        path = write_json(tmp_path, "stray.json", {"g": 3, "vec": vec})
        code, _, err = run_cli(["reduce", "--input", path], capsys)
        assert code == 1 and "not a relation" in err

    def test_missing_fields(self, tmp_path, capsys):
        path = write_json(tmp_path, "empty.json", {"g": 3})
        code, _, err = run_cli(["reduce", "--input", path], capsys)
        assert code == 1 and '"vec"' in err

    def test_unreachable_target_under_optimized_mode(self, tmp_path):
        vec = [0] * 8
        vec[subset_rank(3, 0)] = 1
        path = write_json(tmp_path, "stray.json", {"g": 3, "vec": vec})
        cmd = [sys.executable, "-O", "-m", "cmlab.cli", "reduce", "--input", path]
        run = subprocess.run(cmd, capture_output=True, text=True)
        assert run.returncode == 1
        assert "error: not a relation: its image under rec* is not zero" in run.stderr
        assert "Traceback" not in run.stderr


class TestSupport:
    def test_equivalent_pair(self, tmp_path, capsys):
        path = write_json(tmp_path, "pair.json", {
            "g": 3,
            "first": [[], [2, 3], [2], [3]],
            "second": [[], [2, 3], [3], [2]],
        })
        code, out, _ = run_cli(["support", "--input", path], capsys)
        assert code == 0
        assert out.splitlines() == [
            "support size: 12",
            "canonical form: r=3 s=2",
            "second support size: 12",
            "equivalent: yes",
        ]

    def test_single_degenerate(self, tmp_path, capsys):
        path = write_json(tmp_path, "single.json", {
            "g": 2, "first": [[], [2], [2], []],
        })
        code, out, _ = run_cli(["support", "--input", path], capsys)
        assert code == 0
        assert out.splitlines() == ["support size: 4", "canonical form: r=2 s=1"]

    def test_g8_matches_the_walk(self, tmp_path, capsys):
        q = [[], [2, 3], [2], [3]]
        path = write_json(tmp_path, "g8.json", {"g": 8, "first": q})
        code, out, _ = run_cli(["support", "--input", path], capsys)
        size = len(quadruple_support(tuple(mask_of(8, s) for s in q), weyl_full(8)))
        assert (code, out.splitlines()) == (0, [f"support size: {size}", "canonical form: r=3 s=2"])

    def test_g24(self, tmp_path, capsys):
        # no group is built: the size is 2^24 24! over the stabilizer 22! and h = 4
        path = write_json(tmp_path, "g24.json", {"g": 24, "first": [[], [2, 3], [2], [3]]})
        code, out, _ = run_cli(["support", "--input", path], capsys)
        size = (1 << 24) * math.factorial(24) // (math.factorial(22) * 4)
        assert (code, out.splitlines()) == (0, [f"support size: {size}", "canonical form: r=3 s=2"])

    def test_missing_fields(self, tmp_path, capsys):
        path = write_json(tmp_path, "nofirst.json", {"g": 2})
        code, _, err = run_cli(["support", "--input", path], capsys)
        assert code == 1 and '"first"' in err


class TestSl2Check:
    def test_table(self, capsys):
        code, out, _ = run_cli(["sl2-check", "--g", "2"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "U={}: pass",
            "U={2}: pass",
            "all checks passed",
        ]

    def test_cap(self, capsys):
        code, _, err = run_cli(["sl2-check", "--g", "13"], capsys)
        assert code == 1 and "g <= 12" in err

    def test_g_below_two_names_the_flag(self):
        cmd = [sys.executable, "-m", "cmlab.cli", "sl2-check", "--g", "1"]
        run = subprocess.run(cmd, capture_output=True, text=True)
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr == "error: sl2-check needs --g >= 2\n"

    def test_g6_end_to_end(self):
        cmd = [sys.executable, "-m", "cmlab.cli", "sl2-check", "--g", "6"]
        run = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = run.stdout.splitlines()
        assert len(lines) == 33
        assert lines[0] == "U={}: pass" and lines[-2] == "U={2,3,4,5,6}: pass"
        assert all(line.endswith(": pass") for line in lines[:-1])
        assert lines[-1] == "all checks passed"

    def test_g8_end_to_end(self):
        cmd = [sys.executable, "-m", "cmlab.cli", "sl2-check", "--g", "8"]
        run = subprocess.run(cmd, capture_output=True, text=True, check=True)
        # one line per U inside {2,...,8}, in canonical order (by mask)
        want = [f"U={subset_str(bits)}: pass" for bits in range(0, 1 << 8, 2)]
        assert run.stdout.splitlines() == [*want, "all checks passed"]
        assert len(want) == 128


class TestOneRender:
    """A handler builds only the chosen format: a table run renders no JSON
    relation and a JSON run no table line."""

    def test_relation_commands(self, mu19_file, tmp_path, capsys, monkeypatch):
        import cmlab.cli_mu19
        import cmlab.cli_relations

        def refuse(*args):
            raise AssertionError("rendered the format that was not asked for")

        reduce_file = write_json(tmp_path, "r.json", {"g": 3, "vec": [1, 0, 0, 0, 0, 0, 0, 1], "tau": -1})
        commands = [["relations", "--weyl-full", "--g", "3"], ["reduce", "--input", reduce_file],
                    ["kernel", "--input", mu19_file], ["example-mu19"]]
        for fmt, unused in (("table", "relation_to_json"), ("json", "render_relation")):
            with monkeypatch.context() as patch:
                for module in (cmlab.cli_relations, cmlab.cli_mu19):
                    if hasattr(module, unused):
                        patch.setattr(module, unused, refuse)
                for argv in commands:
                    assert main([*argv, "--format", fmt]) == 0, argv
            capsys.readouterr()


class TestGroupWork:
    """A command reads a group's generators: it builds a few signed
    permutations and groups, not one per element of the group."""

    def test_weyl_commands_build_no_element_list(self, tmp_path, capsys, monkeypatch):
        made = 0

        def counting(init):
            def wrapper(self, *args):
                nonlocal made
                made += 1
                init(self, *args)
            return wrapper

        monkeypatch.setattr(SignedPerm, "__init__", counting(SignedPerm.__init__))
        monkeypatch.setattr(GaloisGroup, "__init__", counting(GaloisGroup.__init__))
        support = write_json(tmp_path, "support.json", {
            "g": 7, "first": [[2, 3, 6], [4, 5, 6], [2, 4, 6], [3, 5, 6]],
            "second": [[1, 7], [2, 4, 7], [1, 2, 7], [4, 7]]})
        assert main(["support", "--input", support]) == 0
        # a support is counted, not walked: no group at all
        assert made == 0
        weyl = write_json(tmp_path, "weyl.json", {"weyl": 7})
        for argv in (["orbits", "--input", weyl], ["relations", "--input", weyl]):
            assert main(argv) == 0, argv
        capsys.readouterr()
        # W_7 has 645,120 elements
        assert made < 100

        # W_6's three generators as an outside input: the closure that checks
        # them walks plain keys
        made = 0
        ident = [1, 2, 3, 4, 5, 6]
        generators = write_json(tmp_path, "w6.json", {"g": 6, "generators": [
            {"flips": [], "perm": [2, 1, 3, 4, 5, 6]}, {"flips": [], "perm": ident[1:] + ident[:1]},
            {"flips": [1], "perm": ident}]})
        for command in ("orbits", "compagnons"):
            assert main([command, "--input", generators]) == 0, command
        capsys.readouterr()
        # W_6 has 46,080 elements
        assert made < 100

    def test_weyl_16_is_walked_by_its_masks(self, tmp_path, capsys):
        # W_16 has 2^16 16! elements; the 2^16 CM types are one orbit
        weyl = write_json(tmp_path, "weyl.json", {"weyl": 16})
        code, out, _ = run_cli(["orbits", "--input", weyl], capsys)
        assert (code, out.splitlines()[:2]) == (0, ["orbits: 1", "orbit 0: degree 65536, key {}"])


class TestJsonRoundTrip:
    def test_all_report_types(self, mu19_star_file, mu19_file, tmp_path, capsys):
        reduce_file = write_json(tmp_path, "r.json", {
            "g": 3,
            "vec": [1 if k in (0, 7) else 0 for k in range(8)],
            "tau": -1,
        })
        support_file = write_json(tmp_path, "s.json", {
            "g": 3, "first": [[], [2, 3], [2], [3]],
        })
        commands = [
            ["orbits", "--input", mu19_star_file],
            ["reflex", "--input", mu19_star_file],
            ["compagnons", "--input", mu19_star_file],
            ["kernel", "--input", mu19_file],
            ["relations", "--weyl-full", "--g", "3"],
            ["hodge-basis", "--p", "1", "--n", "2", "--g", "2", "--weyl-full"],
            ["reduce", "--input", reduce_file],
            ["support", "--input", support_file],
            ["sl2-check", "--g", "2"],
            ["example-mu19"],
        ]
        for argv in commands:
            code, out, _ = run_cli(argv + ["--format", "json"], capsys)
            assert code == 0, argv
            parsed = json.loads(out)
            assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out, argv


DIGESTS = pathlib.Path(__file__).parent / "data" / "cli_digests.json"


def case_argv(case, fmt, tmp_dir) -> list:
    """The command line of a corpus case in one format, its input written
    to tmp_dir."""
    argv = [*case["argv"], "--format", fmt]
    if case["input"] is not None:
        path = pathlib.Path(tmp_dir) / "case.json"
        path.write_text(json.dumps(case["input"]))
        argv += ["--input", str(path)]
    return argv


def digest_of(case, fmt, tmp_dir) -> str:
    """sha256 of what a corpus case prints in one format; it must exit 0
    with nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(case_argv(case, fmt, tmp_dir))
    if (code, err.getvalue()) != (0, ""):
        raise AssertionError(f"{case['name']} --format {fmt}: exit {code}, stderr {err.getvalue()!r}")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


CORPUS = json.loads(DIGESTS.read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("case", CORPUS, ids=[case["name"] for case in CORPUS])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_output_bytes_are_pinned(case, fmt, tmp_path):
    # every command's output, pinned by sha256 on a small corpus; after an
    # intended output change rewrite the digests with
    # PYTHONPATH=src python tests/test_cli.py --write-digests
    assert digest_of(case, fmt, tmp_path) == case["sha256"][fmt]


def cmlab_cyclic_garbage(run) -> list:
    """The functions defined in cmlab, and the types defined there of the
    other objects, that run() leaves for the cyclic collector to free."""
    def defined_in(obj):
        return obj.__module__ if isinstance(obj, types.FunctionType) else type(obj).__module__

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return sorted({repr(obj) if isinstance(obj, types.FunctionType) else type(obj).__qualname__
                       for obj in gc.garbage if (defined_in(obj) or "").split(".")[0] == "cmlab"})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


# `cmlab` freezes the heap instead of collecting it at exit, which loses
# nothing only while reference counting frees every cmlab object
# (json's own cycles are its own)
@pytest.mark.parametrize("case", CORPUS, ids=[case["name"] for case in CORPUS])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_leaves_no_cyclic_garbage_of_its_own(case, fmt, tmp_path):
    assert cmlab_cyclic_garbage(lambda: digest_of(case, fmt, tmp_path)) == []


def test_budget_error_leaves_no_cyclic_garbage_of_its_own(capsys):
    argv = ["hodge-basis", "--weyl-full", "--g", "4", "--p", "2", "--n", "1", "--budget", "50"]
    codes = []
    assert cmlab_cyclic_garbage(lambda: codes.append(main(argv))) == []
    assert codes == [1]


class TestProgramMode:
    """main() runs the process's own command line and freezes the heap on
    the way out; main(argv) leaves the collector as it found it."""

    ENTRY = "import sys; from cmlab.cli import main; sys.exit(main())"
    # one corpus case per handler module
    FAMILIES = ["cyclic-orbits", "relations-weyl-full", "hodge-basis-weyl-full", "sl2-check", "example-mu19"]

    def run_program(self, argv):
        # in dev mode with warnings as errors: a warning or an unclosed file
        # in a program run fails the case
        return subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", self.ENTRY, *argv],
                              capture_output=True)

    @staticmethod
    def exit_code(argv=None) -> int:
        """main's exit code, returned or raised by parse_args."""
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    @pytest.mark.parametrize("argv, code", [
        (["sl2-check", "--g", "2"], 0),
        (["sl2-check", "--g", "13"], 1),
        (["relations", "--g", "2"], 2),
    ])
    def test_library_call_leaves_the_collector_alone(self, capsys, argv, code):
        before = (gc.isenabled(), gc.get_freeze_count())
        assert self.exit_code(argv) == code
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("argv, code", [(["sl2-check", "--g", "2"], 0), (["relations", "--g", "2"], 2)])
    def test_program_call_freezes_the_heap(self, capsys, monkeypatch, argv, code):
        monkeypatch.setattr(sys, "argv", ["cmlab", *argv])
        before = gc.get_freeze_count()
        try:
            assert self.exit_code() == code
            assert gc.get_freeze_count() > before
            assert gc.isenabled()
        finally:
            gc.unfreeze()

    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_program_prints_the_pinned_bytes(self, tmp_path, name, fmt):
        case = next(case for case in CORPUS if case["name"] == name)
        run = self.run_program(case_argv(case, fmt, tmp_path))
        assert (run.returncode, run.stderr) == (0, b"")
        assert hashlib.sha256(run.stdout).hexdigest() == case["sha256"][fmt]

    @pytest.mark.parametrize("argv, code", [
        (["sl2-check", "--g", "13"], 1),
        (["kernel", "--input", "BAD"], 1),
        (["relations", "--g", "2"], 2),
        (["no-such-command"], 2),
    ])
    def test_program_exits_as_the_library_call_does(self, tmp_path, capsys, argv, code):
        path = write_json(tmp_path, "bad.json", {"cyclic": {"M": 5, "phi": [0, 1]}})
        argv = [path if a == "BAD" else a for a in argv]
        assert self.exit_code(argv) == code
        out, err = capsys.readouterr()
        run = self.run_program(argv)
        assert (run.returncode, run.stdout.decode(), run.stderr.decode()) == (code, out, err)
        assert err

    # a report (table, json) or help that stdout cannot take: the program
    # says so on one line and exits 1; run through sh to start it with
    # stdout on /dev/full or closed
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["example-mu19"], ["example-mu19", "--format", "json"], ["-h"], ["kernel", "-h"],
                                      ["sl2-check", "--g", "3"]],
                             ids=["table", "json", "help", "command-help", "sl2-check"])
    @pytest.mark.parametrize("redirect, fault", [(">/dev/full", "No space left on device"), (">&-", "stdout is closed")],
                             ids=["full", "closed"])
    def test_stdout_that_cannot_take_the_output_is_one_error_line(self, argv, redirect, fault):
        cmd = [sys.executable, "-X", "dev", "-W", "error", "-c", self.ENTRY, *argv]
        run = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", *cmd], capture_output=True)
        assert (run.returncode, run.stdout, run.stderr.decode()) == (1, b"", f"error: cannot write the report: {fault}\n")


if __name__ == "__main__" and sys.argv[1:] == ["--write-digests"]:
    import tempfile

    corpus = json.loads(DIGESTS.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        for case in corpus["cases"]:
            case["sha256"] = {fmt: digest_of(case, fmt, tmp) for fmt in ("table", "json")}
    DIGESTS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
