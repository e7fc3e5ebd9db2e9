"""Timing loop, set-up timing and the metrics computed from them.

One client runs the jobs in a closed loop: the next job starts when the
previous one has returned and been checked.  The loop cycles through the
job list until the next job would end after the deadline; every job runs
at least once.  Failed repetitions are counted and never timed.

The host's speed changes by up to 1.9x in phases lasting seconds to tens of
seconds.  A job much shorter than those phases has repetitions that run
wholly inside a fast phase, so its fastest repetition is its steadiest
figure; a job of a second or more spans phases, and the median of its
repetitions is steadier than any single one.  Over ten 40 s runs of each
workload on a 2-vCPU Intel Xeon VM, the fastest repetition alone gave
quartile spreads (as a share of the median) of 0.18, 0.29 and 0.11 for
structure, polytope and queries, the median alone 0.18, 0.13 and 0.32.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path

from tracing import MAX_STATS

SETUP_RUNS = 7
SHORT_JOB_S = 0.2  # fastest repetition below this: report the fastest, else the median

# the import, then the first build and inequalities (reduced and full) of
# every type; the measuring process does the same before it times anything
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from coterie import cli, cone, rootsys
for label in sys.argv[2:]:
    cone.inequalities(rootsys.build(label))
    cone.inequalities(rootsys.build(label), reduced=False)
print(time.perf_counter() - start)
"""


def setup_once(src: Path, types) -> float:
    """Set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(src), *types],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class SetupSampler:
    """Takes SETUP_RUNS set-up samples spread evenly over the run, between
    jobs, so that one slow phase of the host cannot hold all of them."""

    def __init__(self, src: Path, types, seconds: float):
        self.src, self.types = src, types
        self.interval = seconds / SETUP_RUNS
        self.next_at = time.perf_counter()
        self.times = []

    def between_jobs(self):
        if len(self.times) < SETUP_RUNS and time.perf_counter() >= self.next_at:
            self.times.append(setup_once(self.src, self.types))
            self.next_at += self.interval

    def finish(self) -> list:
        while len(self.times) < SETUP_RUNS:
            self.times.append(setup_once(self.src, self.types))
        return self.times


@dataclass
class JobRecord:
    times: list = field(default_factory=list)  # seconds of passing repetitions
    traced_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def typical(self, traced: bool = False):
        """The job's figure for the run: see the module docstring."""
        times = self.traced_times if traced else self.times
        if not times:
            return None
        return min(times) if min(times) < SHORT_JOB_S else statistics.median(times)


def run_rep(job, record: JobRecord, tracer=None) -> float:
    """Run one repetition, check it, and file its time if it passed.
    Returns the elapsed seconds either way."""
    record.attempted += 1
    problems = []
    with tracer.recording(job.name) if tracer is not None else nullcontext():
        start = time.perf_counter()
        try:
            out = job.call()
        except Exception:
            out = None
            problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        elapsed = time.perf_counter() - start
    if not problems:
        try:
            problems.extend(job.check(out))
            if job.expected is not None and job.fingerprint(out) != job.expected:
                problems.append("output differs from the recorded reference")
        except Exception:
            problems.append("check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1])
    if problems:
        record.failed += 1
        record.problems.extend(f"{job.name}: {p}" for p in problems[:3])
    else:
        (record.traced_times if tracer is not None else record.times).append(elapsed)
    return elapsed


def run_loop(jobs, seconds: float, tracer=None, between_jobs=None) -> dict:
    """Cycle through the jobs until the next one would overrun the deadline.
    With a tracer, each step runs the job once untraced and once traced,
    alternating which goes first from one pass to the next.  between_jobs,
    if given, is called before each step."""
    records = {job.name: JobRecord() for job in jobs}
    last = {}
    deadline = time.perf_counter() + seconds
    step = 0
    while True:
        job = jobs[step % len(jobs)]
        if step >= len(jobs) and time.perf_counter() + last[job.name] > deadline:
            break
        if between_jobs is not None:
            between_jobs()
        record = records[job.name]
        if tracer is None:
            last[job.name] = run_rep(job, record)
        else:
            traced_first = (step // len(jobs)) % 2 == 1
            modes = (tracer, None) if traced_first else (None, tracer)
            last[job.name] = sum(run_rep(job, record, t) for t in modes)
        step += 1
    return records


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# metrics


def wall_seconds(jobs, records, traced: bool = False) -> float:
    """The whole job list once: the sum of each job's typical passing time."""
    return sum(t for t in (records[j.name].typical(traced) for j in jobs) if t is not None)


def workload_figures(jobs, records) -> dict:
    """The per-command and per-query figures of the workload, (value, unit)."""
    by_kind = {}
    for job in jobs:
        typical = records[job.name].typical()
        if typical is not None:
            by_kind.setdefault(job.kind, []).append(typical)
    out = {}
    for kind in ("faces", "rays", "arrangement", "polytope", "orbit_polytope"):
        if kind in by_kind:
            out[f"{kind}_s"] = (sum(by_kind[kind]), "s")
    if "member" in by_kind:
        times = by_kind["member"]
        out["member_p50_us"] = (percentile(times, 0.50) * 1e6, "us")
        out["member_p99_us"] = (percentile(times, 0.99) * 1e6, "us")
        out["member_samples"] = (len(times), "count")
    if "gmember" in by_kind:
        times = by_kind["gmember"]
        out["gmember_p50_ms"] = (percentile(times, 0.50) * 1e3, "ms")
        out["gmember_p95_ms"] = (percentile(times, 0.95) * 1e3, "ms")
        out["gmember_samples"] = (len(times), "count")
    reps = [len(records[j.name].times) + len(records[j.name].traced_times) for j in jobs]
    out["repetitions_min"] = (min(reps), "count")
    out["repetitions_median"] = (statistics.median(reps), "count")
    return out


# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("rootsys.build.s", "s"),
    ("rootsys.inner.calls", "count"),
    ("rootsys.inner.self_s", "s"),
    ("exactla.solve_linear.calls", "count"),
    ("exactla.solve_linear.self_s", "s"),
    ("exactla.solve_linear.unique_ratio", "ratio"),
    ("exactla.mat_rank.calls", "count"),
    ("exactla.mat_rank.self_s", "s"),
    ("exactla.mat_inverse.self_s", "s"),
    ("exactla.mat_vec.self_s", "s"),
    ("exactla.ConeSystem.init.calls", "count"),
    ("exactla.ConeSystem.init.self_s", "s"),
    ("exactla.ConeSystem.satisfies.calls", "count"),
    ("exactla.ConeSystem.satisfies.self_s", "s"),
    ("exactla.feasible.calls", "count"),
    ("exactla.feasible.self_s", "s"),
    ("exactla.feasible.feasible_ratio", "ratio"),
    ("kernels.eval_rows.calls", "count"),
    ("kernels.eval_rows.self_s", "s"),
    ("kernels.rank_of.calls", "count"),
    ("kernels.rank_of.self_s", "s"),
    ("kernels.fm_step.calls", "count"),
    ("kernels.fm_step.self_s", "s"),
    ("kernels.fm_step.rows_in", "count"),
    ("kernels.fm_step.rows_out_peak", "count"),
    ("kernels.order_pairs_disagree.self_s", "s"),
    ("kernels.order_pairs_disagree.pairs", "count"),
    ("cone.inequalities.self_s", "s"),
    ("cone.member.calls", "count"),
    ("cone.member.self_s", "s"),
    ("cone.polytope_vertices.self_s", "s"),
    ("cone.polytope_vertices.subsets", "count"),
    ("cone.polytope_vertices.vertices", "count"),
    ("cone.polytope_vertices.useful_ratio", "ratio"),
    ("cone.orbit_polytope_vertices.self_s", "s"),
    ("cone.orbit_polytope_vertices.orbit_size", "count"),
    ("cone.r_i_general.self_s", "s"),
    ("cone.general_member_systems.self_s", "s"),
    ("cone.general_member.calls", "count"),
    ("cone.general_member.self_s", "s"),
    ("faces.face_of.calls", "count"),
    ("faces.face_of.self_s", "s"),
    ("faces.extremal_rays.self_s", "s"),
    ("faces.extremal_rays.rays", "count"),
    ("faces.cube_isomorphism_check.self_s", "s"),
    ("faces.all_orientations.self_s", "s"),
    ("faces.all_orientations.count", "count"),
    ("arrangement.weyl_orbit.self_s", "s"),
    ("arrangement.weyl_orbit.explored", "count"),
    ("arrangement.weyl_orbit.capped", "count"),
    ("arrangement.classifying_map.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

# ratio metric -> (numerator stat, denominator stat) of the same layer
RATIOS = {"unique_ratio": ("unique", "calls"), "feasible_ratio": ("feasible", "calls"), "useful_ratio": ("vertices", "subsets")}


def layer_figures(jobs, records, tracer) -> dict:
    """Per-layer statistics for the job list once: each job's totals are
    divided by its number of traced repetitions, then summed over jobs.
    The traced set-up (job "setup") ran once and is added as it is."""
    reps = {job.name: len(records[job.name].traced_times) for job in jobs}
    reps["setup"] = 1
    totals = {}
    for job, per_layer in tracer.stats.items():
        if not reps.get(job):
            continue  # no passing traced repetition
        for prefix, stats in per_layer.items():
            acc = totals.setdefault(prefix, {})
            for key, value in stats.items():
                if key in MAX_STATS:
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value / reps[job]
    out = {}
    for name, unit in LAYER_METRICS:
        prefix, stat = name.rsplit(".", 1)
        acc = totals.get(prefix, {})
        if stat in RATIOS:
            num, den = RATIOS[stat]
            value = acc.get(num, 0) / acc[den] if acc.get(den) else 0.0
        else:
            value = acc.get(stat, 0)
        out[name] = (value, unit)
    untraced = wall_seconds(jobs, records)
    traced = wall_seconds(jobs, records, traced=True)
    out["trace.overhead_s"] = (traced - untraced, "s")
    out["trace.spans"] = (len(tracer.spans) + tracer.spans_dropped, "count")
    return out
