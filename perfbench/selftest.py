"""Self-test: planted wrong results must count as failures, never as timed
successes.

    python3 perfbench/run.py --self-test

Runs small jobs of each kind through the same loop and checks as the
benchmark, first as they are (all must pass), then with one defect planted
at a time.  Exits 0 when every planted defect is caught.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction

import workloads
from measure import run_loop

from coterie import cone, rootsys


@contextmanager
def patched(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def small_jobs():
    rs = rootsys.build("A3")
    interior = workloads.interior_point(rs, random.Random(0), False)
    outside = (Fraction(-1), Fraction(2), Fraction(3))
    y = (1, 0, 2)
    jobs = {
        "member interior": workloads.member_job(0, rs, interior, "open", True),
        "member outside": workloads.member_job(1, rs, outside, "open", None),
        "rays": workloads.cli_job("rays", ["rays", "A3"], workloads.check_rays_plain(3)),
        "polytope": workloads.cli_job(
            "polytope", ["polytope", "A3", "1,0,2"], workloads.check_polytope(rs, y, "plain")
        ),
    }
    for job in jobs.values():  # reference fingerprints from the code as it is
        job.expected = job.fingerprint(job.call())
    return jobs


def flip_verdicts(original):
    return lambda *args, **kwargs: not original(*args, **kwargs)


def extra_vertex(original):
    return lambda cs, *args, **kwargs: original(cs, *args, **kwargs) + ((Fraction(5),) * cs.rs.rank,)


def main() -> int:
    jobs = small_jobs()
    corrupt = workloads.cli_job("rays", ["rays", "A3"], workloads.check_rays_plain(3))
    corrupt.expected = "0" * 16
    cases = [
        # (label, planted context, jobs that must fail)
        ("no defect", nullcontext(), []),
        # extremal_rays checks its rays with cone.member, so rays fails too
        ("flipped membership verdict", patched(cone, "member", flip_verdicts), ["member interior", "member outside", "rays"]),
        ("vertex outside the cross-section", patched(cone, "polytope_vertices", extra_vertex), ["polytope"]),
        ("corrupted expected digest", nullcontext(), ["rays"]),
    ]
    ok = True
    for label, context, must_fail in cases:
        run_jobs = dict(jobs, rays=corrupt) if label == "corrupted expected digest" else jobs
        with context:
            records = run_loop(list(run_jobs.values()), 0.0)
        for key, job in run_jobs.items():
            record = records[job.name]
            caught = record.failed == record.attempted and not record.times
            passed = record.failed == 0 and len(record.times) == record.attempted
            good = caught if key in must_fail else passed
            ok &= good
            verdict = "counted as failure" if caught else "passed and timed" if passed else "mixed"
            print(f"{'ok  ' if good else 'BAD '} {label:34s} {key:16s} {verdict}")
            for problem in record.problems[:1]:
                print(f"       {problem}")
    print("self-test passed" if ok else "self-test FAILED", file=sys.stderr)
    return 0 if ok else 1
