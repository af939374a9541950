"""cmlab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job is one fresh `cmlab` process (the console-script entry point,
run with PYTHONPATH=src), launched by a single closed-loop client: the next
job starts when the previous one has exited.  Outputs are checked by the
benchmark itself (checks.py).  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it runs the job list once untraced and
once under tracer.py and reports the per-layer metrics.  The last line of
stdout is one JSON object; the lines before it name every metric with its
unit, the seed and the job list.  The exit code is 0 only when every job
succeeded and every check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_job
from stats import layer_self_times, tail
from tracer import LAYERS
from workloads import NOMINAL_PASS_S, WORKLOADS, Job, build_jobs, job_list_json

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "example_mu19.txt"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK = ROOT / ".bench_run"

# the `cmlab` console script, spelled out so that no install is needed
ENTRY = "import sys; from cmlab.cli import main; sys.exit(main())"
SETUP = "import cmlab.cli; cmlab.cli.build_parser()"
SETUP_SAMPLES = 10
# a run must end within 180 s; a job still running at this point is killed
RUN_DEADLINE_S = 165.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

COUNTERS = (
    ("reciprocity.symbols_built", "count"),
    ("reciprocity.renders", "count"),
    ("reciprocity.relations", "count"),
    ("intlattice.hnf_cells", "count"),
    ("intlattice.max_entry_bits", "bits"),
    ("hodge.candidates", "count"),
    ("hodge.basis_size", "count"),
    ("hodge.hit_ratio", "ratio"),
    ("hodge.translates", "count"),
    ("hodge.cert_parts", "count"),
    ("galois.elements", "count"),
    ("hyperoct.act_subset.calls", "count"),
    ("hyperoct.compose.calls", "count"),
    ("hyperoct.signedperm.made", "count"),
    ("cmtypes.decompositions", "count"),
    ("cmtypes.subsets_scanned", "count"),
    ("sl2check.brackets", "count"),
    ("sl2check.nilpotents_built", "count"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)

PER_LAYER = tuple(
    (f"{layer}.{what}", unit)
    for layer in LAYERS
    for what, unit in (("self_s", "s"), ("calls", "count"), ("share", "ratio"))
) + COUNTERS


def steal_seconds() -> float:
    """Hypervisor steal time so far, summed over CPUs: time the virtual
    CPUs were ready to run while the host ran something else.  0 where
    /proc/stat does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


@dataclass
class JobRun:
    """One finished job process."""

    job: Job
    wall: float
    steal: float
    cpu: float
    rss_kb: int
    returncode: int
    stdout: bytes
    stderr: bytes

    @property
    def latency(self) -> float:
        """Launch to exit, less the time the host took the CPUs away."""
        return self.wall - self.steal


class Runner:
    """Closed-loop client: launches one job process at a time and reaps it
    with wait4, which gives that process's own CPU time and max RSS."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.out_path = workdir / "stdout"
        self.err_path = workdir / "stderr"

    def run(self, cmd) -> tuple:
        """(wall seconds, steal seconds, cpu seconds, max rss KB, exit code,
        stdout, stderr)."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            stolen = steal_seconds()
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            stolen = steal_seconds() - stolen
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, stolen, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
                self.out_path.read_bytes(), self.err_path.read_bytes())

    def run_job(self, job, inputs: Path, spans: Path | None = None) -> JobRun:
        args = list(job.argv)
        if job.input is not None:
            args += ["--input", str(inputs / f"job{job.id}.json")]
        if spans is None:
            cmd = [sys.executable, "-c", ENTRY, *args]
        else:
            cmd = [sys.executable, str(TRACER), str(spans), str(job.id), "--", *args]
        return JobRun(job, *self.run(cmd))

    def run_pass(self, jobs, inputs: Path, spans_dir: Path | None = None) -> tuple:
        """(runs, wall from the first launch to the last exit, steal in that
        interval, summed cpu)."""
        stolen = steal_seconds()
        start = time.perf_counter()
        runs = []
        for job in jobs:
            spans = None if spans_dir is None else spans_dir / f"job{job.id}.json"
            runs.append(self.run_job(job, inputs, spans))
        wall = time.perf_counter() - start
        return runs, wall, steal_seconds() - stolen, sum(r.cpu for r in runs)

    def setup_times(self, count: int) -> list:
        """Wall times of `count` fresh interpreters that import cmlab.cli and
        build its parser."""
        times = []
        for _ in range(count):
            wall, stolen, _, _, code, _, err = self.run([sys.executable, "-c", SETUP])
            if code != 0:
                raise RuntimeError(f"cmlab.cli does not import: {err.decode(errors='replace')[-500:]}")
            times.append(wall - stolen)
        return times


class Verdicts:
    """Checks every attempt: exit code, output check (once per job and
    distinct stdout), and identical stdout across the repeats of a job,
    within a pass (a job listed twice) and across passes."""

    def __init__(self, golden: bytes):
        self.golden = golden
        self.by_digest = {}
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, run: JobRun, reference: bytes | None = None) -> None:
        self.attempted += 1
        job = run.job
        problems = []
        if run.returncode != 0:
            tail_err = run.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            problems.append(f"exit code {run.returncode}: {tail_err[0][:200]}")
        else:
            same_job = (tuple(job.argv), job.input_bytes())
            key = (same_job, hashlib.sha256(run.stdout).hexdigest())
            if key not in self.by_digest:
                self.by_digest[key] = check_job(job, run.stdout, self.golden)
            problems += self.by_digest[key]
            first = self.first.setdefault(same_job, run.stdout)
            if run.stdout != first:
                problems.append("stdout differs from an earlier repeat of the job")
            if reference is not None and run.stdout != reference:
                problems.append("traced stdout differs from untraced stdout")
        if problems:
            self.failed += 1
            self.problems += [f"job {job.id} ({' '.join(job.argv)}): {p}" for p in problems]


def prepare(workload: str, seed: int, trace: int) -> tuple:
    jobs = build_jobs(workload, seed)
    workdir = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    for job in jobs:
        data = job.input_bytes()
        if data is not None:
            (inputs / f"job{job.id}.json").write_bytes(data)
    record = job_list_json(workload, seed, jobs)
    (workdir / "jobs.json").write_text(record, encoding="utf-8")
    return jobs, workdir, inputs, hashlib.sha256(record.encode()).hexdigest()


def end_to_end(runner: Runner, jobs, inputs: Path, passes: int, verdicts: Verdicts) -> tuple:
    # one untimed launch fills the bytecode cache; the timed set-up samples
    # are spread before, between and after the passes, so that they see the
    # same machine as the jobs
    runner.setup_times(1)
    per_slot = -(-SETUP_SAMPLES // (passes + 1))
    setup = runner.setup_times(per_slot)
    walls, cpus, latencies, rss, record = [], [], [], [], []
    for _ in range(passes):
        runs, wall, stolen, cpu = runner.run_pass(jobs, inputs)
        setup += runner.setup_times(per_slot)
        walls.append(wall - stolen)
        cpus.append(cpu)
        record.append({"wall_s": wall, "steal_s": stolen, "cpu_s": cpu,
                       "jobs": [[r.wall, r.steal, r.cpu, r.rss_kb] for r in runs]})
        for r in runs:
            latencies.append(r.latency)
            rss.append(r.rss_kb)
            verdicts.add(r)
    (runner.workdir / "timings.json").write_text(
        json.dumps({"setup_s": setup, "passes": record}), encoding="utf-8")
    tail_value, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_value,
        "peak_rss_mb": max(rss) / 1024.0,
    }
    plural = f"{passes} pass" + ("es" if passes > 1 else "")
    notes = {
        "setup_s": f"median of {len(setup)} interpreters",
        "wall_s": f"median of {plural}, "
                  f"less {sum(p['steal_s'] for p in record):.2f} s of hypervisor steal",
        "cpu_s": f"median of {plural}, user+sys of the job processes",
        "job_p50_s": f"n={n}",
        "job_tail_s": f"p{tail_pct:.1f}, n={n}",
        "peak_rss_mb": f"largest of {n} job processes",
    }
    return metrics, notes


def per_layer(runner: Runner, jobs, inputs: Path, workdir: Path, verdicts: Verdicts) -> tuple:
    plain, plain_wall, plain_steal, _ = runner.run_pass(jobs, inputs)
    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    traced, traced_wall, traced_steal, _ = runner.run_pass(jobs, inputs, spans_dir)
    plain_wall -= plain_steal
    traced_wall -= traced_steal
    for r in plain:
        verdicts.add(r)
    for r, ref in zip(traced, plain):
        verdicts.add(r, reference=ref.stdout)

    layers = {layer: [0.0, 0] for layer in LAYERS}
    counters = {}
    all_spans = []
    for job in jobs:
        path = spans_dir / f"job{job.id}.json"
        if not path.is_file():
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        for layer, (self_s, calls) in layer_self_times(record["spans"]).items():
            layers[layer][0] += self_s
            layers[layer][1] += calls
        for key, value in record["counters"].items():
            if key == "intlattice.max_entry_bits":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        all_spans += [[job.id, *span] for span in record["spans"]]
    (workdir / "spans.json").write_text(json.dumps(all_spans), encoding="utf-8")

    total = sum(self_s for self_s, _ in layers.values())
    metrics = {}
    for layer, (self_s, calls) in layers.items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.calls"] = calls + counters.get(f"{layer}.counted_calls", 0)
        metrics[f"{layer}.share"] = self_s / total if total else 0.0
    for name, _ in COUNTERS:
        metrics[name] = counters.get(name, 0)
    candidates = counters.get("hodge.candidates", 0)
    metrics["hodge.hit_ratio"] = counters.get("hodge.basis_size", 0) / candidates if candidates else 0.0
    metrics["cli.stdout_bytes"] = sum(len(r.stdout) for r in traced)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    notes = {"trace.overhead_frac": f"traced pass {traced_wall:.3f} s / untraced pass {plain_wall:.3f} s - 1"}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for needed in (SRC / "cmlab" / "cli.py", GOLDEN):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a checkout of the repository",
                  file=sys.stderr)
            return 2

    # on SIGTERM, unwind so that the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_DEADLINE_S
    jobs, workdir, inputs, digest = prepare(args.workload, args.seed, args.trace)
    runner = Runner(workdir, deadline)
    verdicts = Verdicts(GOLDEN.read_bytes())
    passes = max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))

    print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs, "
          f"job list {workdir.relative_to(ROOT)}/jobs.json sha256 {digest[:16]}")
    for job in jobs:
        print(f"  job {job.id}: cmlab {' '.join(job.argv)}" + (" --input <seeded>" if job.input else ""))
    try:
        if args.trace:
            print("traced run: one untraced pass, then one pass under tracer.py")
            metrics, notes = per_layer(runner, jobs, inputs, workdir, verdicts)
            units = dict(PER_LAYER)
        else:
            print(f"{passes} pass{'es' if passes > 1 else ''}, one job in flight")
            metrics, notes = end_to_end(runner, jobs, inputs, passes, verdicts)
            units = dict(END_TO_END)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in verdicts.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    fail_frac = verdicts.failed / verdicts.attempted
    print(f"fail_frac {fail_frac:.6g} ratio  ({verdicts.failed} of {verdicts.attempted} jobs failed)")

    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result, separators=(",", ":")))
    return 0 if verdicts.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
