"""Arithmetic of the Mrs job benchmark: the pure functions that turn the
per-operation records written by perfbench_job into metrics.

Nothing here runs or times anything, so test_ledger.py can check every
rule on hand-made inputs: the percentile rule, the interval union behind
core.gap_s and core.unaccounted_s, self time, and the round split.
"""

import math
import statistics

# Task spans recorded by the runtime; "fetch" spans nest inside them.
TASK_CATS = ("map", "reduce", "morsel")

END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("teardown_s", "s"),
    ("work_per_s", "1/s"),
    ("round_p50_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit).  Counters that the layer never touched on a workload read
# 0; ratios with no attempts read 0.
PER_LAYER = (
    ("core.submit_s", "s"),
    ("core.wait_s", "s"),
    ("core.collect_fetch_s", "s"),
    ("core.collect_fetch_bytes", "bytes"),
    ("core.driver_s", "s"),
    ("core.tasks", "count"),
    ("core.task_wall_s", "s"),
    ("core.task_cpu_s", "s"),
    ("core.task_overhead_s", "s"),
    ("core.task_bytes_in", "bytes"),
    ("core.task_bytes_out", "bytes"),
    ("core.gap_s", "s"),
    ("core.unaccounted_s", "s"),
    ("core.round_p99_s", "s"),
    ("core.pipelined_submits", "count"),
    ("core.shuffle_deposits", "count"),
    ("user.map_calls", "count"),
    ("user.map_s", "s"),
    ("user.reduce_calls", "count"),
    ("user.reduce_s", "s"),
    ("user.combine_calls", "count"),
    ("user.combine_s", "s"),
    ("rt.tasks_assigned", "count"),
    ("rt.tasks_completed", "count"),
    ("rt.tasks_failed", "count"),
    ("rt.tasks_speculated", "count"),
    ("rt.task_useful_ratio", "ratio"),
    ("rt.resident_hits", "count"),
    ("rt.resident_misses", "count"),
    ("rt.affinity_hits", "count"),
    ("rt.batch_fetches", "count"),
    ("rt.batch_buckets", "count"),
    ("rt.retries", "count"),
    ("rt.fetch_span_s", "s"),
    ("http.client_requests", "count"),
    ("http.client_s", "s"),
    ("http.client_connects", "count"),
    ("http.client_errors", "count"),
    ("http.server_requests", "count"),
    ("http.server_handle_s", "s"),
    ("http.pool_hits", "count"),
    ("http.pool_misses", "count"),
    ("http.pool_hit_ratio", "ratio"),
    ("http.pool_stale_closed", "count"),
    ("common.pool_steals", "count"),
    ("common.shuffle_lock_wait_s", "s"),
    ("fs.spill_bytes", "bytes"),
    ("fs.spill_runs_written", "count"),
    ("fs.spill_runs_read", "count"),
    ("fs.merges", "count"),
    ("fs.merge_fan_in_mean", "count"),
    ("fs.budget_high_water_bytes", "bytes"),
    ("interp.typed_calls", "count"),
    ("interp.deopts", "count"),
    ("interp.us_per_sample", "us"),
    ("obs.tracing_overhead_frac", "ratio"),
)

# Per-layer metrics read straight from obs::Registry counter deltas.
COUNTERS = {
    "core.pipelined_submits": ("mrs.thread.pipelined_submits",),
    "core.shuffle_deposits": ("mrs.shuffle.deposits",),
    "rt.tasks_assigned": ("mrs.master.tasks_assigned",),
    "rt.tasks_completed": ("mrs.master.tasks_completed",),
    "rt.tasks_failed": ("mrs.master.tasks_failed",),
    "rt.tasks_speculated": ("mrs.master.tasks_speculated",),
    "rt.resident_hits": ("mrs.master.resident_hits",),
    "rt.resident_misses": ("mrs.master.resident_misses",),
    "rt.affinity_hits": ("mrs.master.affinity_hits",),
    "rt.batch_fetches": ("mrs.slave.batch_fetches",),
    "rt.batch_buckets": ("mrs.slave.batch_buckets",),
    "rt.retries": ("mrs.retry.fetch", "mrs.retry.rpc"),
    "http.client_requests": ("mrs.http.client.requests",),
    "http.client_connects": ("mrs.http.client.connects",),
    "http.client_errors": ("mrs.http.client.errors",),
    "http.server_requests": ("mrs.http.server.requests",),
    "http.pool_hits": ("mrs.http.pool.hits",),
    "http.pool_misses": ("mrs.http.pool.misses",),
    "http.pool_stale_closed": ("mrs.http.pool.stale_closed",),
    "common.pool_steals": ("mrs.pool.steals",),
    "fs.spill_bytes": ("mrs.spill.bytes_spilled",),
    "fs.spill_runs_written": ("mrs.spill.runs_written",),
    "fs.spill_runs_read": ("mrs.spill.runs_read",),
    "fs.merges": ("mrs.spill.merges",),
    "interp.typed_calls": ("mrs.vm.typed_calls",),
    "interp.deopts": ("mrs.vm.deopts",),
}

# Per-layer metrics read from obs::Registry histogram sums (seconds).
HISTOGRAM_SUMS = {
    "http.client_s": "mrs.http.client.request_seconds",
    "http.server_handle_s": "mrs.http.server.handle_seconds",
    "common.shuffle_lock_wait_s": "mrs.shuffle.lock_wait_s",
}


def steal_share(before, after):
    """Share of the machine's CPU ticks lost to steal between two
    (steal, total) readings; 0 where either reading is missing."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def median(values):
    return statistics.median(values)


def nearest_rank(sorted_values, p):
    """The p-th percentile (0 < p <= 100) by the nearest-rank rule."""
    k = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[k - 1]


def tail_percentile(n, cap=99):
    """The highest whole percentile, at most `cap`, that has at least ten
    of `n` samples beyond it; None when n is too small for any."""
    for p in range(cap, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def tail(values, cap=99):
    """(percentile, value) of the reportable tail of `values`.  Below 20
    samples no percentile above the median has ten beyond it, and the
    median is reported as percentile 50."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered), cap)
    if p is None or p <= 50:
        return 50, median(ordered)
    return p, nearest_rank(ordered, p)


def clip(intervals, lo, hi):
    """`intervals` cut to the window [lo, hi]; empty pieces dropped."""
    out = []
    for start, end in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            out.append((start, end))
    return out


def union_length(intervals):
    """Total length covered by the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def uncovered(lo, hi, intervals):
    """Length of the window [lo, hi] that no interval covers."""
    return (hi - lo) - union_length(clip(intervals, lo, hi))


def self_time(parent, children):
    """A span's duration minus the part of it its child spans cover."""
    lo, hi = parent
    return uncovered(lo, hi, children)


def complement(lo, hi, intervals):
    """The parts of [lo, hi] that no interval covers, as intervals."""
    out = []
    cursor = lo
    for start, end in sorted(clip(intervals, lo, hi)):
        if start > cursor:
            out.append((cursor, start))
        cursor = max(cursor, end)
    if hi > cursor:
        out.append((cursor, hi))
    return out


def rounds(driver, job_start, job_end):
    """Per-round times of a job from its driver-lane spans.

    A round starts with the first submit after the driver has waited for
    a result, and runs to the start of the next round; the first starts
    with the job and the last ends with it.  Rounds therefore partition
    the job: a one-round job has one round of exactly `job_s`.
    """
    starts = [job_start]
    waited = False
    for kind, start, _end, _bytes in sorted(driver, key=lambda s: s[1]):
        if kind == "wait":
            waited = True
        elif kind == "submit" and waited:
            starts.append(start)
            waited = False
    ends = starts[1:] + [job_end]
    return [end - start for start, end in zip(starts, ends)]


def op_end_to_end(op):
    """End-to-end figures of one operation record."""
    job_s = op["job_end"] - op["job_start"]
    job_rounds = rounds(op["driver"], op["job_start"], op["job_end"])
    p, round_tail = tail(job_rounds)
    return {
        "job_s": job_s,
        "teardown_s": op["teardown_end"] - op["job_end"],
        "work_per_s": op["work"] / job_s,
        "cpu_s": op["cpu_s"],
        "peak_rss_mb": op["peak_rss_mb"],
        "round_p50_s": median(job_rounds),
        "round_tail_s": round_tail,
        "round_samples": len(job_rounds),
        "round_tail_percentile": p,
    }


def aggregate_end_to_end(ops):
    """Medians over operations of each operation's figures; set-up times
    pooled over every set-up of the run.  Returns (metrics, rounds per
    job, tail percentile used)."""
    per_op = [op_end_to_end(op) for op in ops]
    metrics = {
        "setup_s": median([s for op in ops for s in op["setup_samples"]]),
    }
    for name in ("job_s", "teardown_s", "work_per_s", "round_p50_s",
                 "cpu_s", "peak_rss_mb"):
        metrics[name] = median([e[name] for e in per_op])
    return (metrics, min(e["round_samples"] for e in per_op),
            min(e["round_tail_percentile"] for e in per_op))


def _ratio(num, den):
    return num / den if den else 0.0


def op_layers(op):
    """Per-layer figures of one traced operation record."""
    lo, hi = op["job_start"], op["job_end"]
    job_s = hi - lo
    driver = op["driver"]
    tasks = [t for t in op["tasks"] if t[1] in TASK_CATS]
    fetches = [t for t in op["tasks"] if t[1] == "fetch"]
    counters = op["counters"]
    hists = op["histograms"]
    user = op["user"]

    def driver_sum(kind, column=None):
        spans = [s for s in driver if s[0] == kind]
        if column is None:
            return sum(s[2] - s[1] for s in spans)
        return sum(s[column] for s in spans)

    task_iv = [(t[2], t[3]) for t in tasks]
    driver_iv = [(s[1], s[2]) for s in driver]
    # The driver's self time: the job span minus its runner calls.
    driver_self = complement(lo, hi, driver_iv)
    driver_busy = [(s[1], s[2]) for s in driver if s[0] != "wait"]
    user_s = sum(user[k][1] for k in ("map", "reduce", "combine"))
    task_wall = sum(t[3] - t[2] for t in tasks)

    m = {
        "core.submit_s": driver_sum("submit"),
        "core.wait_s": driver_sum("wait"),
        "core.collect_fetch_s": driver_sum("fetch"),
        "core.collect_fetch_bytes": driver_sum("fetch", 3),
        "core.driver_s": self_time((lo, hi), driver_iv),
        "core.tasks": len(tasks),
        "core.task_wall_s": task_wall,
        "core.task_cpu_s": sum(t[4] for t in tasks),
        "core.task_overhead_s": task_wall - user_s,
        "core.task_bytes_in": sum(t[5] for t in tasks),
        "core.task_bytes_out": sum(t[6] for t in tasks),
        "core.gap_s": uncovered(lo, hi, task_iv),
        # Job time covered by no task span, no driver activity outside
        # Wait, and no driver self time: the driver waits and nothing runs.
        "core.unaccounted_s": uncovered(
            lo, hi, task_iv + driver_busy + driver_self),
        "user.map_calls": user["map"][0],
        "user.map_s": user["map"][1],
        "user.reduce_calls": user["reduce"][0],
        "user.reduce_s": user["reduce"][1],
        "user.combine_calls": user["combine"][0],
        "user.combine_s": user["combine"][1],
        "rt.fetch_span_s": sum(t[3] - t[2] for t in fetches),
        "fs.budget_high_water_bytes": op["budget_high_water"],
    }
    for name, sources in COUNTERS.items():
        m[name] = sum(counters.get(c, 0) for c in sources)
    for name, hist in HISTOGRAM_SUMS.items():
        m[name] = hists[hist][1]
    fan_in = hists["mrs.spill.merge_fan_in"]
    m["fs.merge_fan_in_mean"] = _ratio(fan_in[1], fan_in[0])
    m["rt.task_useful_ratio"] = _ratio(m["rt.tasks_completed"],
                                       m["rt.tasks_assigned"])
    m["http.pool_hit_ratio"] = _ratio(
        m["http.pool_hits"], m["http.pool_hits"] + m["http.pool_misses"])
    m["interp.us_per_sample"] = (
        1e6 * m["user.map_s"] / op["work"]
        if op["work_unit"] == "samples" else 0.0)
    return m


def aggregate_layers(traced, untraced):
    """Medians of the per-layer figures over the traced operations; the
    tracing overhead and the round tail come from the untraced operations
    of the same run."""
    per_op = [op_layers(op) for op in traced]
    metrics = {name: median([m[name] for m in per_op])
               for name, _unit in PER_LAYER
               if name not in ("core.round_p99_s",
                               "obs.tracing_overhead_frac")}
    # Each job's tail round, by the rule in tail(); the median over jobs,
    # so one disturbed job does not set it.
    metrics["core.round_p99_s"] = median(
        [op_end_to_end(op)["round_tail_s"] for op in untraced])
    traced_job = median([op["job_end"] - op["job_start"] for op in traced])
    plain_job = median([op["job_end"] - op["job_start"] for op in untraced])
    metrics["obs.tracing_overhead_frac"] = traced_job / plain_job - 1
    return metrics


def chrome_trace(op):
    """One operation as a Chrome trace: a driver lane (setup, job with its
    runner calls, teardown) and one lane per thread that recorded task
    spans.  Timestamps are microseconds from the start of setup."""
    t0 = op["setup_start"]
    events = [{"ph": "M", "name": "thread_name", "pid": 1, "tid": 0,
               "args": {"name": "driver"}}]

    def span(name, cat, start, end, tid, args=None):
        event = {"ph": "X", "name": name, "cat": cat, "pid": 1, "tid": tid,
                 "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6}
        if args:
            event["args"] = args
        events.append(event)

    span("setup", "driver", op["setup_start"], op["setup_end"], 0)
    span("job", "driver", op["job_start"], op["job_end"], 0)
    span("teardown", "driver", op["job_end"], op["teardown_end"], 0)
    for kind, start, end, nbytes in op["driver"]:
        span(kind, "driver", start, end, 0,
             {"bytes": nbytes} if nbytes else None)
    lanes = {}
    for name, cat, start, end, cpu, bytes_in, bytes_out, tid in op["tasks"]:
        if tid not in lanes:
            lanes[tid] = len(lanes) + 1
            events.append({"ph": "M", "name": "thread_name", "pid": 1,
                           "tid": lanes[tid],
                           "args": {"name": "worker %d" % lanes[tid]}})
        span(name, cat, start, end, lanes[tid],
             {"cpu_s": cpu, "bytes_in": bytes_in, "bytes_out": bytes_out})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
