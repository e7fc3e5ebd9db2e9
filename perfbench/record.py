"""Record reference fingerprints of every job into digests.json.

Run once on the reference code, and again only when a change alters the
outputs on purpose:

    python3 perfbench/run.py --record-digests 0-63

Each job runs once per seed and must pass its own checks before its
fingerprint is kept; seed-independent jobs are recorded once.  Seeds
outside the range keep the entries they have.
"""

from __future__ import annotations

import json
import sys

import workloads


def parse_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(seeds: str, path, out_dir) -> int:
    import coterie

    out_dir.mkdir(exist_ok=True)
    old = json.loads(path.read_text()) if path.exists() else {}
    table = {"backend": coterie.BACKEND, "fixed": {}, "seeded": old.get("seeded", {})}
    for seed in parse_range(seeds):
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, seed, out_dir)
            fingerprints = {}
            for job in workload.jobs:
                if not job.seeded and job.name in table["fixed"].get(name, {}):
                    fingerprints[job.name] = table["fixed"][name][job.name]
                    continue
                out = job.call()
                problems = job.check(out)
                if problems:
                    print(f"seed {seed}: {job.name}: {problems}", file=sys.stderr)
                    return 1
                fingerprints[job.name] = job.fingerprint(out)
            fixed, seeded = workloads.tabulate(workload, fingerprints)
            table["fixed"].setdefault(name, {}).update(fixed)
            table["seeded"].setdefault(str(seed), {})[name] = seeded
        print(f"seed {seed} recorded", file=sys.stderr)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0
