"""Self-tests of the benchmark harness: python3 -m pytest benchmarks -q"""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_job
from stats import layer_self_times, tail
from workloads import WORKLOADS, Job, build_jobs, job_list_json, random_relation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "data" / "example_mu19.txt"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cmlab(args, cwd) -> bytes:
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from cmlab.cli import main; sys.exit(main())", *args],
        capture_output=True, env=ENV, cwd=cwd, check=True, timeout=120,
    )
    return done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_list_is_a_function_of_the_seed(workload):
    first = build_jobs(workload, 7)
    again = build_jobs(workload, 7)
    assert job_list_json(workload, 7, first) == job_list_json(workload, 7, again)
    assert [j.input_bytes() for j in first] == [j.input_bytes() for j in again]
    other = build_jobs(workload, 8)
    assert job_list_json(workload, 7, first) != job_list_json(workload, 8, other)
    # the seed changes inputs, never the commands: the cost stays put
    assert [j.argv for j in first] == [j.argv for j in other]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_formats_alternate_along_the_list(workload):
    formats = [j.meta["format"] for j in build_jobs(workload, 1)]
    assert all(a != b for a, b in zip(formats, formats[1:]))


def test_self_time_subtracts_direct_children():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("hodge.pohlmann_basis", 1.0, 6.0, 0),
        ("intlattice.hnf", 2.0, 4.0, 1),
        ("reciprocity.render_relation", 7.0, 9.0, 0),
        ("reciprocity.default_symbols", 7.5, 8.0, 3),
    ]
    layers = layer_self_times(spans)
    assert layers["cli"] == [3.0, 1]
    assert layers["hodge"] == [3.0, 1]
    assert layers["intlattice"] == [2.0, 1]
    assert layers["reciprocity"] == [2.0, 2]
    assert sum(s for s, _ in layers.values()) == 10.0


def test_tail_keeps_ten_samples_beyond_it():
    value, pct, n = tail(range(20, 0, -1))
    assert (value, pct, n) == (10, 50.0, 20)
    assert sum(x > value for x in range(1, 21)) == 10
    value, pct, n = tail(range(1, 12))
    assert (value, n) == (1, 11)
    assert pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        tail(range(10))


def _reduce_job(tmp_path, fmt):
    job = Job(0, ["reduce"], "reduce", {"g": 5, "format": fmt}, random_relation(random.Random(5), 5))
    path = tmp_path / "rel.json"
    path.write_bytes(job.input_bytes())
    return job, cmlab(["reduce", "--input", str(path), "--format", fmt], tmp_path)


def test_flipped_certificate_coefficient_fails_json(tmp_path):
    job, out = _reduce_job(tmp_path, "json")
    assert check_job(job, out, b"") == []
    obj = json.loads(out)
    obj["parts"][0]["coeff"] = -obj["parts"][0]["coeff"]
    assert check_job(job, json.dumps(obj).encode(), b"")


def test_flipped_certificate_coefficient_fails_table(tmp_path):
    job, out = _reduce_job(tmp_path, "table")
    assert check_job(job, out, b"") == []
    lines = out.decode().split("\n")
    lines[2] = ("-" if lines[2][0] == "+" else "+") + lines[2][1:]
    assert check_job(job, "\n".join(lines).encode(), b"")


def test_mu19_must_match_the_golden_byte_for_byte(tmp_path):
    job = build_jobs("antiweyl-relations", 1)[0]
    golden = GOLDEN.read_bytes()
    out = cmlab(job.argv, tmp_path)
    assert check_job(job, out, golden) == []
    assert check_job(job, out.replace(b"orbits: 30", b"orbits: 31"), golden)


def test_orbit_degrees_are_checked(tmp_path):
    job = build_jobs("cm-pairs", 4)[1]  # compagnons of a cyclic pair, json
    path = tmp_path / "pair.json"
    path.write_bytes(job.input_bytes())
    out = cmlab([*job.argv, "--input", str(path)], tmp_path)
    assert check_job(job, out, b"") == []
    obj = json.loads(out)
    obj["compagnons"][0]["degree"] += 1
    assert check_job(job, json.dumps(obj).encode(), b"")


def test_tracer_wraps_bindings_imported_by_name(tmp_path):
    args = ["relations", "--weyl-full", "--g", "3"]
    spans_out = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(spans_out), "0", "--", *args],
        capture_output=True, env=ENV, cwd=tmp_path, check=True, timeout=120,
    ).stdout
    assert traced == cmlab(args, tmp_path)
    record = json.loads(spans_out.read_text())
    names = [s[0] for s in record["spans"]]
    assert names[0] == "cli.main" and record["spans"][0][3] == -1
    # render_relation is called from cli through its own `from .reciprocity
    # import render_relation` binding
    renders = [s for s in record["spans"] if s[0] == "reciprocity.render_relation"]
    assert renders and all(record["spans"][s[3]][0] == "cli.main" for s in renders)
    assert record["counters"]["reciprocity.relations"] == 2 ** 3 - 3 - 1
    assert record["counters"]["reciprocity.symbols_built"] == 2 ** 3 * record["counters"]["reciprocity.renders"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cm-pairs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
