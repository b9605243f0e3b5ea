#!/usr/bin/env python3
"""The Mrs job benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench_job (CMake, Release)
into .bench_build/perfbench, generates the workload's inputs and oracle
from the seed outside every timed region, then runs one job after another,
each in its own process with a hard deadline, for S seconds.  Every job's
output is checked against the oracle; a job that errors, misses its
deadline or fails its oracle counts as failed.

With --trace 0 the last line of stdout carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics, taken from traced jobs
that alternate with untraced ones (whose job time gives the tracing
overhead), and a merged Chrome trace of the last traced job is written
under .bench_build/perfbench/traces.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import ledger  # noqa: E402

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
JOB = BUILD / "perfbench_job"
WORKLOADS = ("wordcount", "kmeans_bsp", "distsort_spill", "pi_typed")
DEFAULT_SEED = 2012

OP_DEADLINE_S = 60.0
# Everything after the build must end well inside the 180 s a run gets.
RUN_BUDGET_S = 165.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no Mrs sources at src/ - run from the "
                         "root of a checkout")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE
                            not in cache.read_text()):
        shutil.rmtree(BUILD)  # configured for another checkout
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench_job"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))


def run_child(args, deadline_s, env=None):
    """Run perfbench_job in its own process group; kill the group at the
    deadline.  Returns (returncode or None on timeout, stdout)."""
    proc = subprocess.Popen([str(JOB)] + args, stdout=subprocess.PIPE,
                            env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline_s))
        return proc.returncode, out.decode()
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""


def cpu_ticks():
    """The machine's (steal, total) CPU ticks from /proc/stat, or None
    where the kernel does not report them."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal
    return (fields[7], sum(fields)) if len(fields) == 8 else None


def run_op(workload, seed, data, trace, deadline_s):
    """One job in its own process.  Returns (record or None, failure)."""
    tmp = BUILD / "tmp" / ("%s-%d" % (workload, seed))
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(tmp))  # spill files stay in the checkout
    try:
        code, out = run_child(["run", workload, str(seed), str(data),
                               "1" if trace else "0"], deadline_s, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if code is None:
        return None, "hung: killed at the %.0f s deadline" % deadline_s
    if code != 0 or not out.strip():
        return None, "exited with code %s" % code
    record = json.loads(out.strip().splitlines()[-1])
    if not record["ok"] or not record["correct"]:
        return record, record["error"]
    return record, None


def measure(workload, seed, seconds, trace, budget_end):
    """Run jobs for `seconds`.  With tracing, untraced and traced jobs
    alternate.  Returns (untraced records, traced records, failures, the
    number of jobs whose output failed its oracle)."""
    data = BUILD / "data" / ("%s-%d" % (workload, seed))
    shutil.rmtree(data, ignore_errors=True)
    code, _ = run_child(["prepare", workload, str(seed), str(data)],
                        budget_end - time.monotonic())
    if code != 0:
        raise SystemExit("perfbench: preparing %s seed %d failed"
                         % (workload, seed))
    plain, traced, failures, walls = [], [], [], []
    wrong = 0
    start = time.monotonic()
    try:
        while True:
            want_trace = trace and len(traced) < len(plain)
            t = time.monotonic()
            deadline = min(OP_DEADLINE_S, budget_end - t)
            ticks = cpu_ticks()
            record, failure = run_op(workload, seed, data, want_trace,
                                     deadline)
            walls.append(time.monotonic() - t)
            if record is not None:
                record["steal_share"] = ledger.steal_share(ticks, cpu_ticks())
            if failure is not None:
                failures.append(failure)
                wrong += record is not None and record["ok"]
                log("job failed: workload=%s seed=%d trace=%d: %s"
                    % (workload, seed, want_trace, failure))
            else:
                (traced if want_trace else plain).append(record)
            now = time.monotonic()
            enough = plain and (traced or not trace)
            next_end = now + ledger.median(walls)
            if next_end > budget_end:
                break
            if enough and next_end > start + seconds:
                break
    finally:
        shutil.rmtree(data, ignore_errors=True)
    return plain, traced, failures, wrong


def report(workload, args):
    """Measure one workload and print its metrics; the last line is the
    result object."""
    budget_end = time.monotonic() + RUN_BUDGET_S
    plain, traced, failures, wrong = measure(workload, args.seed, args.seconds,
                                             args.trace == 1, budget_end)
    attempted = len(plain) + len(traced) + len(failures)
    if not plain or (args.trace and not traced):
        raise SystemExit("perfbench: no job of %s seed %d passed; nothing "
                         "to report" % (workload, args.seed))

    first = plain[0]
    print("perfbench: workload=%s seed=%d runner=%s nproc=%d slots=%d "
          "jobs=%d traced=%d failed=%d"
          % (workload, args.seed, first["runner"], first["nproc"],
             first["slots"], len(plain), len(traced), len(failures)))
    # Steal: the share of the machine's CPU time the hypervisor gave to
    # other guests while the job ran.  Shared VMs slow jobs in phases.
    print("perfbench: job_s (steal share) of each untraced job: %s"
          % " ".join("%.4f (%.3f)" % (r["job_end"] - r["job_start"],
                                      r["steal_share"]) for r in plain))

    for failure in failures:
        print("perfbench: failed job: workload=%s seed=%d: %s"
              % (workload, args.seed, failure))
    if args.trace:
        metrics = ledger.aggregate_layers(traced, plain)
        units = dict(ledger.PER_LAYER)
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / ("%s-seed%d.json" % (workload, args.seed))
        path.write_text(json.dumps(ledger.chrome_trace(traced[-1])))
        print("perfbench: merged trace of the last traced job: %s"
              % path.relative_to(ROOT))
    else:
        metrics, samples, p = ledger.aggregate_end_to_end(plain)
        units = dict(ledger.END_TO_END)
        print("perfbench: rounds: %d per job; the round tail "
              "(core.round_p99_s with --trace 1) is each job's p%d: the "
              "highest percentile with >= 10 rounds beyond it, capped at "
              "99, or the median below 20 rounds; work unit: %s"
              % (samples, p, first["work_unit"]))
    for name, value in metrics.items():
        print("perfbench: %-28s %.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        report(workload, args)


if __name__ == "__main__":
    main()
