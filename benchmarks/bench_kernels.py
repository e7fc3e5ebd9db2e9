"""Timing comparison of the pure-Python and compiled integer kernels.

Runs each kernel on realistic workloads drawn from the library itself
(membership rows, elimination steps, face-cube order data) plus seeded
random matrices, checks that both backends return identical results, and
prints a speedup table.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import random
import sys
import time
from pathlib import Path

from coterie import _backend, cone, faces, rootsys

# the pairwise face-order encoding lives with the test oracles
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402


def _cleared_rows(rs, reduced=False):
    rows = []
    for c in cone.inequalities(rs, reduced=reduced).open_system.constraints:
        coeffs, bound, rel = c.cleared()
        rows.append((coeffs, bound, True))
    return rows


def bench_rank_of(mod, data):
    return [mod.rank_of(m) for m in data]


def bench_fm_step(mod, data):
    out = []
    for rows, col in data:
        out.append(sorted(mod.fm_step(rows, col)))
    return out


def bench_eval_rows(mod, data):
    rows, points = data
    return [mod.eval_rows(rows, p) for p in points]


def bench_order_pairs(mod, data):
    a, b, m = data
    return mod.order_pairs_disagree(a, b)


def make_workloads(rng):
    e8 = rootsys.build("E8")

    matrices = []
    for _ in range(40):
        n = rng.randint(8, 24)
        matrices.append(
            tuple(
                tuple(rng.randint(-10**6, 10**6) for _ in range(n))
                for _ in range(n)
            )
        )

    fm_rows = _cleared_rows(e8)
    fm_data = [(fm_rows, col) for col in range(4)]
    for label in ("E7", "D8", "B8"):
        rows = _cleared_rows(rootsys.build(label))
        fm_data.extend((rows, col) for col in range(3))

    eval_rows = [(c, b, 0 if s else 1) for c, b, s in fm_rows]
    points = [
        tuple(rng.randint(-50, 50) for _ in range(e8.rank)) for _ in range(3000)
    ]

    # the E8 face-lattice comparison: 3^7 faces, ~4.8M ordered pairs
    rule = oracles._rule_triples(faces.all_orientations(e8))
    cube = oracles._cube_triples(len(e8.edges))

    return {
        "rank_of": (bench_rank_of, matrices),
        "fm_step": (bench_fm_step, fm_data),
        "eval_rows": (bench_eval_rows, (eval_rows, points)),
        "order_pairs_disagree": (bench_order_pairs, (rule, cube, len(e8.edges))),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="timing repeats, best is kept")
    args = ap.parse_args()

    backends = _backend.available_backends()
    print(f"active backend: {_backend.BACKEND}")
    print(f"available: {', '.join(sorted(backends))}\n")

    workloads = make_workloads(random.Random(17))
    width = max(len(n) for n in workloads)
    header = f"{'kernel':<{width}}  {'pure':>10}  {'compiled':>10}  {'speedup':>7}"
    print(header)
    print("-" * len(header))

    for name, (fn, data) in workloads.items():
        results = {}
        times = {}
        for label, mod in backends.items():
            best = float("inf")
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                results[label] = fn(mod, data)
                best = min(best, time.perf_counter() - t0)
            times[label] = best
        if len(results) == 2 and results["pure"] != results["compiled"]:
            raise SystemExit(f"backend results disagree on {name}")
        pure = times.get("pure")
        comp = times.get("compiled")
        if pure is None or comp is None:
            only = pure if comp is None else comp
            print(f"{name:<{width}}  {only:>10.4f}s  (single backend)")
            continue
        print(f"{name:<{width}}  {pure:>9.4f}s  {comp:>9.4f}s  {pure / comp:>6.1f}x")


if __name__ == "__main__":
    main()
