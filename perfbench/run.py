"""End-to-end benchmark of the orbitop CLI.

    python3 perfbench/run.py --workload torus|mckay|groups --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A single client runs the
workload's jobs one after another (a closed loop); each job is a fresh
`python -m orbitop.cli ... --format json` process, so the program's
module-level caches start cold, as they do for a user of the CLI.  Passes
over the shuffled job list repeat while the next one is expected to end
within S seconds; at least one pass always runs.  Every report is checked
against the workload's expected answers.

With --trace 0 the last line of standard output reports the end-to-end
metrics, each the median over the passes of the run.  With --trace 1
every job of a pass runs untraced and then traced, under
perfbench/tracer.py, and the last line reports per-layer calls, self
times and counts, plus the traced over untraced pass time.  Lines before
the last are a readable summary.  Scratch files go to .bench_build/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
JOB_TIMEOUT_S = 90.0
# Stop starting jobs this long after the run began, so that the process
# exits within three minutes even if the program under test hangs.
HARD_LIMIT_S = 160.0

SETUP_CODE = (
    "import sys\n"
    "import orbitop.cli\n"
    "for ref in sys.argv[1:]:\n"
    "    orbitop.cli.load_scenario(ref)\n"
)


@dataclass
class JobRun:
    job: workloads.Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int | None
    stdout: bytes
    problems: list[str]
    out_path: Path
    spans_path: Path | None


def job_env() -> dict[str, str]:
    """The caller's environment without its Python settings, so that, as
    for an installed CLI, bytecode is cached and output is buffered."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    return env


def spawn(argv: list[str], env, out_path: Path, timeout: float):
    """Run argv to completion; return (wall s, rusage or None, exit code)."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildProcessError:
            # The timer's kill reaped the process first.
            status, usage = None, None
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            wall = time.perf_counter() - start
            timer.cancel()
        if status is None:
            proc.wait()
            return wall, None, None
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage, proc.returncode


def run_job(job, argv, env, work: Path, traced: bool, deadline: float) -> JobRun:
    tag = job.id.replace(":", "_")
    out_path = work / f"{tag}.out"
    spans_path = work / f"{tag}.spans.json" if traced else None
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), job.id, "--", *argv]
    else:
        cmd = [sys.executable, "-m", "orbitop.cli", *argv]
    budget = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
    if budget <= 0:
        problem = "not started: time limit"
        return JobRun(job, 0.0, 0.0, 0.0, None, b"", [problem], out_path, None)
    wall, usage, code = spawn(cmd, env, out_path, budget)
    stdout = out_path.read_bytes()
    if usage is None:
        problem = f"killed after {budget:.0f} s"
        return JobRun(job, wall, 0.0, 0.0, None, stdout, [problem], out_path, None)
    cpu = usage.ru_utime + usage.ru_stime
    rss_mb = usage.ru_maxrss / 1024.0
    return JobRun(job, wall, cpu, rss_mb, code, stdout, [], out_path, spans_path)


def check(run: JobRun) -> None:
    """Fill run.problems: a nonzero exit, an unreadable report, or a
    mismatch against the expected answers."""
    if run.problems:
        return
    if run.code != 0:
        err = run.out_path.with_suffix(".err").read_text(errors="replace")
        run.problems.append(f"exit code {run.code}: {' '.join(err.split()[-12:])}")
        return
    try:
        report = json.loads(run.stdout)
    except json.JSONDecodeError as exc:
        run.problems.append(f"report is not JSON: {exc}")
        return
    run.problems += workloads.mismatches(run.job, report)


def run_pass(jobs, refs, seed, env, work, kinds, deadline, rng):
    """One pass over the shuffled job list.  With kinds (False, True) each
    job runs untraced and then traced, so that both see the same load on
    the machine.  Returns one list of job runs per kind."""
    passes = {kind: [] for kind in kinds}
    for kind in kinds:
        (work / _kind_dir(kind)).mkdir(parents=True)
    order = list(jobs)
    rng.shuffle(order)
    for job in order:
        argv = workloads.job_argv(job, refs, seed)
        for kind in kinds:
            run = run_job(job, argv, env, work / _kind_dir(kind), kind, deadline)
            passes[kind].append(run)
    for runs in passes.values():
        for run in runs:
            check(run)
    return [passes[kind] for kind in kinds]


def _kind_dir(traced: bool) -> str:
    return "traced" if traced else "plain"


def pass_wall(runs: list[JobRun]) -> float:
    """Seconds a user running the pass's jobs back to back waits."""
    return sum(r.wall_s for r in runs)


def measure_setup(scenario_refs, env, work) -> list[float]:
    argv = [sys.executable, "-c", SETUP_CODE, *scenario_refs]
    times = []
    for i in range(SETUP_REPEATS):
        wall, _, code = spawn(argv, env, work / f"setup{i}.out", JOB_TIMEOUT_S)
        if code != 0:
            raise SystemExit(f"setup process failed with exit code {code}")
        times.append(wall)
    return times


def highest_percentile(n: int) -> int | None:
    """The highest whole percentile with at least ten of n samples above
    it, or None while that would not lie above the median."""
    if n < 20:
        return None
    return (100 * (n - 10)) // n


def layer_metrics(runs: list[JobRun]) -> dict[str, float]:
    """Per-layer totals over one traced pass."""
    calls = dict.fromkeys(tracer.span_names(), 0)
    self_ns = dict.fromkeys(tracer.span_names(), 0)
    counters = dict.fromkeys(tracer.COUNTER_NAMES, 0)
    for run in runs:
        if run.spans_path is None or not run.spans_path.exists():
            continue
        data = json.loads(run.spans_path.read_text())
        for name, (n, ns) in tracer.self_times(data["spans"]).items():
            if name in calls:
                calls[name] += n
                self_ns[name] += ns
        for name, value in data["counters"].items():
            counters[name] += value
    out: dict[str, float] = {}
    for name in tracer.span_names():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    out.update(counters)
    tried = counters["mckay.lifts.candidates"]
    out["mckay.lifts.accept_ratio"] = counters["mckay.lifts.accepted"] / tried if tried else 0.0
    return out


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "orbitop" / "cli.py").is_file():
        print(f"orbitop sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = BUILD / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def benchmark(args, work: Path) -> int:
    deadline = time.perf_counter() + HARD_LIMIT_S
    env = job_env()
    refs = workloads.write_inputs(args.seed, work)
    jobs = workloads.jobs_for(args.workload)

    # Compile bytecode into the cache once, so no timed process pays for it.
    spawn([sys.executable, "-c", "import orbitop.cli"], env, work / "warm.out", JOB_TIMEOUT_S)
    setup = measure_setup(
        [refs.get(s, s) for s in workloads.scenarios_of(args.workload)], env, work
    )

    rng = random.Random(args.seed)
    kinds = (False, True) if args.trace else (False,)
    rounds: list[list[list[JobRun]]] = []
    end_by = time.perf_counter() + args.seconds
    while True:
        pass_dir = work / f"pass{len(rounds)}"
        rounds.append(run_pass(jobs, refs, args.seed, env, pass_dir, kinds, deadline, rng))
        now = time.perf_counter()
        expected = statistics.median(sum(pass_wall(runs) for runs in r) for r in rounds)
        if now + expected > end_by or now > deadline:
            break
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds] if args.trace else []

    # A traced report must be byte-identical to the untraced one.
    for plain_runs, traced_runs in zip(plain, traced):
        reference = {r.job.id: r.stdout for r in plain_runs}
        for r in traced_runs:
            if not r.problems and r.stdout != reference[r.job.id]:
                r.problems.append("traced report differs from untraced report")
    all_runs = [r for r_ in rounds for runs in r_ for r in runs]
    failed = sum(1 for r in all_runs if r.problems)

    end_to_end = end_to_end_metrics(plain, setup)
    print_summary(args, jobs, plain, traced, setup, end_to_end, all_runs)
    if args.trace:
        metrics = per_layer_metrics(plain, traced)
        for name, m in metrics.items():
            if m["value"]:
                print(f"  {name:<44}{m['value']:14.6g} {m['unit']}")
    else:
        metrics = end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end_metrics(plain, setup) -> dict[str, dict]:
    """Medians over the untraced passes; setup_s over the setup processes."""
    def median_over_passes(per_pass):
        return statistics.median(per_pass(runs) for runs in plain)

    values = {
        "wall_s": (median_over_passes(pass_wall), "s"),
        "cpu_s": (median_over_passes(lambda runs: sum(r.cpu_s for r in runs)), "s"),
        "slowest_job_s": (median_over_passes(lambda runs: max(r.wall_s for r in runs)), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (median_over_passes(lambda runs: max(r.rss_mb for r in runs)), "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def per_layer_metrics(plain, traced) -> dict[str, dict]:
    """Medians over the traced passes, and traced over untraced pass time."""
    layers = [layer_metrics(runs) for runs in traced]
    metrics = {
        name: {"value": statistics.median(layer[name] for layer in layers),
               "unit": layer_unit(name)}
        for name in layers[0]
    }
    overhead = statistics.median(
        pass_wall(t) / pass_wall(p) for p, t in zip(plain, traced)
    )
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return metrics


def print_summary(args, jobs, plain, traced, setup, end_to_end, all_runs) -> None:
    print(f"workload {args.workload}  seed {args.seed}  jobs/pass {len(jobs)}  "
          f"untraced passes {len(plain)}  traced passes {len(traced)}")
    for name, m in end_to_end.items():
        n = f"{len(setup)} fresh interpreters" if name == "setup_s" else f"{len(plain)} passes"
        print(f"  {name:<16}{m['value']:10.4f} {m['unit']:<3} median of {n}")
    pct = highest_percentile(len(plain))
    print(f"  tail percentile of wall_s: {'p%d' % pct if pct else 'none'} "
          f"(n={len(plain)} passes; it needs 10 samples above it)")
    job_times = sorted(r.wall_s for runs in plain for r in runs)
    pct = highest_percentile(len(job_times))
    if pct:
        tail = statistics.quantiles(job_times, n=100)[pct - 1]
        print(f"  job_s: median {statistics.median(job_times):.4f} s, "
              f"p{pct} {tail:.4f} s, n={len(job_times)} jobs")
    failed = [r for r in all_runs if r.problems]
    print(f"  failed_ratio: {len(failed)}/{len(all_runs)} = {len(failed) / len(all_runs):.4f}")
    for r in failed:
        for problem in r.problems:
            print(f"  FAILED {r.job.id}: {problem}")
    per_job: dict[str, list[float]] = {}
    for runs in plain:
        for r in runs:
            per_job.setdefault(r.job.id, []).append(r.wall_s)
    for job_id, times in sorted(per_job.items()):
        print(f"    {job_id:<28}{statistics.median(times):8.3f} s")


if __name__ == "__main__":
    sys.exit(main())
