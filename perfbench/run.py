"""Benchmark for coterie: run one workload, check every output, print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload structure --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-digests 0-63

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"
REFERENCE_BACKEND = "pure"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("structure", "polytope", "queries"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", help="check that planted defects count as failures")
    p.add_argument("--record-digests", metavar="SEEDS", help="record reference outputs, e.g. 0-63")
    args = p.parse_args(argv)
    if not (args.workload or args.self_test or args.record_digests):
        p.error("give --workload, --self-test or --record-digests")
    return args


def environment(seed: int, workload: str, trace: int) -> dict:
    import coterie

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "coterie").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "backend": coterie.BACKEND,
        "comparable": coterie.BACKEND == REFERENCE_BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "source_sha256": source.hexdigest()[:16],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def number(value):
    """Integral values (counts) as ints, everything else with all its digits."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def run_workload(args) -> int:
    from measure import SetupSampler, layer_figures, run_loop, wall_seconds, workload_figures
    from tracing import Tracer
    import workloads

    from coterie import cone, rootsys

    OUT.mkdir(exist_ok=True)
    env = environment(args.seed, args.workload, args.trace)
    if not env["comparable"]:
        print(f"warning: backend {env['backend']} is not the reference {REFERENCE_BACKEND}; "
              "figures are not comparable", file=sys.stderr)
    types = workloads.TYPES[args.workload]
    tracer = Tracer() if args.trace else None
    # the first builds happen here, before the workload's inputs need them
    with tracer.recording("setup") if tracer else nullcontext():
        for label in types:
            cone.inequalities(rootsys.build(label))
            cone.inequalities(rootsys.build(label), reduced=False)
    workload = workloads.build(args.workload, args.seed, OUT)
    workloads.attach_expected(workload, args.seed, load_digests())
    checked = sum(job.expected is not None for job in workload.jobs)
    if tracer:
        records = run_loop(workload.jobs, args.seconds, tracer)
        setup_times = []
    else:
        sampler = SetupSampler(SRC, types, args.seconds)
        records = run_loop(workload.jobs, args.seconds, between_jobs=sampler.between_jobs)
        setup_times = sampler.finish()

    attempted = sum(r.attempted for r in records.values())
    failed = sum(r.failed for r in records.values())
    figures = workload_figures(workload.jobs, records)
    if tracer:
        metrics = layer_figures(workload.jobs, records, tracer)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_file, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        metrics = {
            "setup_s": (min(setup_times), "s"),
            "wall_s": (wall_seconds(workload.jobs, records), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    figures["fail_ratio"] = (failed / attempted, "ratio")
    figures["fingerprinted_jobs"] = (checked, "count")

    problems = [p for r in records.values() for p in r.problems]
    for p in problems[:20]:
        print("FAILED " + p, file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(workload.jobs)}  attempted {attempted}  failed {failed}")
    for name, (value, unit) in {**figures, **metrics}.items():
        value = number(value)
        print(f"  {name:42s} {value:>16.6f} {unit}" if isinstance(value, float) else f"  {name:42s} {value:>16} {unit}")
    print(json.dumps({"environment": env}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": number(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    detail = dict(result, environment=env, workload_figures={k: v for k, (v, _) in figures.items()},
                  setup_runs=setup_times, problems=problems[:200],
                  job_times={name: r.times for name, r in records.items()})
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coterie" / "__init__.py").is_file():
        print(f"error: no coterie sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        import selftest

        return selftest.main()
    if args.record_digests:
        import record

        return record.main(args.record_digests, DIGESTS, OUT)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
