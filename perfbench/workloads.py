"""Seeded inputs, job lists and output checks for the three workloads.

A job is one thing a user waits for: a CLI command run in process through
``coterie.cli.main`` with stdout captured, or one library query.  Every job
carries its own check, which returns a list of problems (empty when the
output is right), and a fingerprint that is compared with the one recorded
from the reference code in ``digests.json``.

The program receives only the inputs generated here from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from pathlib import Path
from typing import Callable, Optional

from coterie import cli, cone, rootsys

WORKLOADS = ("structure", "polytope", "queries")

ORBIT_CAP = 100_000  # the library's default orbit cap, which the CLI uses

# canonical A2 arrangement pulled back through a 3-dimensional shift space
A2_SHIFT_INSTANCE = """\
type A2
-1 0
0 -1
theta
1 0
0 1
1 1
nu
0 -1 1
-1 0 1
"""


@dataclass
class Job:
    name: str  # unique within the workload
    kind: str  # metric group, e.g. "faces" or "member"
    call: Callable[[], object]
    check: Callable[[object], list]
    fingerprint: Callable[[object], str]
    seeded: bool = True  # False when the inputs do not depend on the seed
    expected: Optional[str] = None  # recorded fingerprint, when there is one


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# CLI jobs


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


def run_cli(argv) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliOutput(code, out.getvalue(), err.getvalue())


def cli_job(kind: str, argv, check, seeded: bool = True) -> Job:
    def checked(out: CliOutput) -> list:
        if out.code != 0:
            return [f"exit code {out.code}: {out.stderr.strip()[:200]}"]
        return check(out.stdout)

    return Job(
        name=" ".join(argv),
        kind=kind,
        call=lambda: run_cli(argv),
        check=checked,
        fingerprint=lambda out: sha(out.stdout),
        seeded=seeded,
    )


def parse_point(text: str) -> tuple:
    return tuple(Fraction(p) for p in text.strip().strip("()").split(","))


def check_faces_plain(rank: int):
    def check(stdout: str) -> list:
        lines = stdout.splitlines()
        want_dims = face_dims(rank)
        got = {}
        for line in lines:
            if line.startswith("faces "):
                got["count"] = int(line.split()[1])
            elif line.startswith("dimensions: "):
                pairs = (tok.split(":") for tok in line.split()[1:])
                got["dims"] = {int(d): int(c) for d, c in pairs}
        problems = []
        if got.get("count") != 3 ** (rank - 1):
            problems.append(f"face count {got.get('count')} != 3^{rank - 1}")
        if got.get("dims") != want_dims:
            problems.append(f"dimension counts {got.get('dims')} != {want_dims}")
        if "cube order isomorphism: yes" not in lines:
            problems.append("cube order isomorphism not confirmed")
        return problems

    return check


def check_faces_json(rank: int):
    def check(stdout: str) -> list:
        payload = json.loads(stdout)
        problems = []
        if payload["count"] != 3 ** (rank - 1):
            problems.append(f"face count {payload['count']} != 3^{rank - 1}")
        dims = {int(d): c for d, c in payload["dimensions"].items()}
        if dims != face_dims(rank):
            problems.append(f"dimension counts {dims} != {face_dims(rank)}")
        if payload["cube_isomorphic"] is not True:
            problems.append("cube order isomorphism not confirmed")
        return problems

    return check


def face_dims(rank: int) -> dict:
    """Faces of the closed cone by dimension: k oriented edges out of m = rank-1
    give dimension rank-k, and there are C(m, k) 2^k such orientations."""
    m = rank - 1
    return {rank - k: comb(m, k) * 2**k for k in range(m + 1)}


def check_rays_plain(rank: int):
    def check(stdout: str) -> list:
        lines = stdout.splitlines()
        problems = []
        if f"rays {2 ** (rank - 1)}" not in lines:
            problems.append(f"ray count line 'rays {2 ** (rank - 1)}' missing")
        ray_lines = [ln for ln in lines if ln.startswith("  ") and "(" in ln]
        if len(ray_lines) != 2 ** (rank - 1) or any("degenerate" in ln for ln in ray_lines):
            problems.append(f"{len(ray_lines)} ray lines, expected {2 ** (rank - 1)}")
        if not lines or lines[-1] != "anomalies: none":
            problems.append("anomalies reported")
        return problems

    return check


def check_rays_latex(rank: int):
    def check(stdout: str) -> list:
        items = [ln for ln in stdout.splitlines() if ln.startswith("\\item")]
        if len(items) != 2 ** (rank - 1) or any("degenerate" in ln for ln in items):
            return [f"{len(items)} ray items, expected {2 ** (rank - 1)}"]
        return []

    return check


def check_arrangement(functionals):
    """The classifying matrix and k follow from the functionals; a generic
    orbit in rank >= 7 outgrows the cap, so it must report capped at the cap."""
    rows = [[-c for c in f] for f in functionals]
    ks = []
    for row in rows:
        g = 0
        for c in row:
            g = gcd(g, c)
        ks.append(g)

    def check(stdout: str) -> list:
        lines = stdout.splitlines()
        problems = []
        if f"orbit: capped (explored {ORBIT_CAP})" not in lines:
            problems.append("orbit not capped at the cap")
        try:
            at = lines.index("classifying matrix:")
            got_rows = [[int(t) for t in ln.split()] for ln in lines[at + 1 : at + 1 + len(rows)]]
            got_k = [int(t) for t in lines[at + 1 + len(rows)].split()[1:]]
        except (ValueError, IndexError):
            return problems + ["classifying matrix missing"]
        if got_rows != rows:
            problems.append("classifying matrix differs from the negated functionals")
        if got_k != ks:
            problems.append(f"k {got_k} != row gcds {ks}")
        return problems

    return check


def cross_section_ok(rs, y, vertex) -> bool:
    """Integer evaluation of the cross-section system at a vertex:
    (cartan^T v)_a >= 0 and v_k <= y_k, after clearing denominators."""
    d = 1
    for c in vertex:
        d = lcm(d, c.denominator)
    ints = [int(c * d) for c in vertex]
    n = rs.rank
    cartan = [[int(c) for c in row] for row in rs.cartan]
    for a in range(n):
        if sum(cartan[j][a] * ints[j] for j in range(n)) < 0:
            return False
    for k in range(n):
        yk = Fraction(y[k])
        if ints[k] * yk.denominator > yk.numerator * d:
            return False
    return True


def check_vertices(rs, y, vertices) -> list:
    problems = []
    if not vertices:
        problems.append("no vertices (the origin is always one)")
    if len(set(vertices)) != len(vertices):
        problems.append("repeated vertices")
    bad = [v for v in vertices if len(v) != rs.rank or not cross_section_ok(rs, y, v)]
    if bad:
        problems.append(f"{len(bad)} vertices violate the cross-section system")
    return problems


def check_polytope(rs, y, fmt: str):
    def check(stdout: str) -> list:
        if fmt == "json":
            payload = json.loads(stdout)
            vertices = [tuple(Fraction(c) for c in v) for v in payload["vertices"]]
            return check_vertices(rs, y, vertices)
        lines = stdout.splitlines()
        head = next((i for i, ln in enumerate(lines) if re.fullmatch(r"vertices \d+:", ln)), None)
        if head is None:
            return ["vertex list missing"]
        count = int(lines[head].split()[1].rstrip(":"))
        vertices = [parse_point(ln) for ln in lines[head + 1 : head + 1 + count]]
        problems = check_vertices(rs, y, vertices)
        if lines[head + 1 + count : head + 2 + count] != ["empty: false"]:
            problems.append("empty flag wrong")
        return problems

    return check


def reflect(cartan, x, a) -> tuple:
    """Simple reflection s_a on root coordinates: x - <x, alpha_a^v> alpha_a."""
    pairing = sum(cartan[j][a] * x[j] for j in range(len(x)))
    return tuple(c - pairing if k == a else c for k, c in enumerate(x))


def orbit_job(label: str, y) -> Job:
    rs = rootsys.build(label)
    cartan = [[int(c) for c in row] for row in rs.cartan]

    def call():
        return cone.orbit_polytope_vertices(rs, cone.cross_section(rs, y))

    def check(points) -> list:
        seen = set(points)
        problems = []
        if (0,) * rs.rank not in seen:
            problems.append("origin missing")
        if any(reflect(cartan, v, a) not in seen for v in seen for a in range(rs.rank)):
            problems.append("orbit set not closed under simple reflections")
        return problems

    return Job(
        name=f"orbit_polytope {label} {fmt_vec(y)}",
        kind="orbit_polytope",
        call=call,
        check=check,
        fingerprint=lambda points: sha(repr(sorted(points))),
    )


def fmt_vec(v) -> str:
    return ",".join(str(c) for c in v)


# ---------------------------------------------------------------------------
# seeded inputs


def tree_order(rs):
    """Nodes in breadth-first order from node 0, each with its tree parent."""
    adjacency = {k: [] for k in range(rs.rank)}
    for i, j in rs.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    order = [(0, None)]
    seen = {0}
    for node, _ in order:
        for nxt in sorted(adjacency[node]):
            if nxt not in seen:
                seen.add(nxt)
                order.append((nxt, node))
    return order


def ratio(rs, b, a) -> Fraction:
    """Coefficient of a_a in the (b, a) pair inequality a_b > ratio a_a."""
    c = rs.inv_coeffs
    return c[b][a] / c[a][a]


def interior_point(rs, rng, big: bool) -> tuple:
    """Walk the Dynkin tree, putting each coordinate strictly inside the
    interval its parent's two edge inequalities leave open."""
    x = [None] * rs.rank
    for node, parent in tree_order(rs):
        if parent is None:
            x[node] = Fraction(rng.randint(1, 200), rng.randint(1, 30))
            continue
        lo = ratio(rs, node, parent) * x[parent]
        hi = x[parent] / ratio(rs, parent, node)
        den = rng.randint(10**9, 10**12) if big else rng.randint(2, 12)
        x[node] = lo + Fraction(rng.randint(1, den - 1), den) * (hi - lo)
    return tuple(x)


def ray_multiple(rs, rng, big: bool) -> tuple:
    """A positive multiple of an extremal ray: pick a full orientation and
    propagate the tight edge equalities outward from node 0."""
    x = [None] * rs.rank
    for node, parent in tree_order(rs):
        if parent is None:
            x[node] = Fraction(1)
        elif rng.random() < 0.5:  # tight (node, parent): a_node = ratio a_parent
            x[node] = ratio(rs, node, parent) * x[parent]
        else:  # tight (parent, node): a_parent = ratio a_node
            x[node] = x[parent] / ratio(rs, parent, node)
    den = rng.randint(10**9, 10**12) if big else rng.randint(1, 9)
    scale = Fraction(rng.randint(1, 50 * den), den)
    return tuple(scale * c for c in x)


def random_point(rs, rng, big: bool) -> tuple:
    out = []
    for _ in range(rs.rank):
        den = rng.randint(10**9, 10**12) if big else rng.randint(1, 9)
        out.append(Fraction(rng.randint(-5 * den, 40 * den), den))
    return tuple(out)


def random_shift(rng, n: int) -> tuple:
    while True:
        delta = tuple(Fraction(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(n))
        if any(delta):
            return delta


def seeded_bound(rng, n: int, zero: bool) -> tuple:
    """Integer bounds; with zero=True at least one entry is 0 and one positive."""
    while True:
        y = tuple(rng.randint(0 if zero else 1, 3) for _ in range(n))
        if not zero or (0 in y and any(y)):
            return y


def seeded_arrangement(rng, label: str, count: int = 3) -> list:
    """Generic fundamental functionals (every entry negative), no two of them
    positive multiples of each other."""
    rank = rootsys.build(label).rank
    out, keys = [], set()
    while len(out) < count:
        f = tuple(-rng.randint(1, 4) for _ in range(rank))
        g = 0
        for c in f:
            g = gcd(g, c)
        key = tuple(c // g for c in f)
        if key not in keys:
            keys.add(key)
            out.append(f)
    return out


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    jobs: list


# every type whose build and inequalities count as the workload's set-up
TYPES = {
    "structure": ("E8", "D7", "A11", "C10", "E7"),
    "polytope": ("E7", "A7", "D7", "C6", "B6", "F4", "G2", "D6"),
    "queries": tuple(str(t) for t in rootsys.all_types()),
}


def structure(rng, out_dir: Path) -> Workload:
    functionals = seeded_arrangement(rng, "E7")
    arr_file = out_dir / "arrangement-E7.txt"
    arr_file.write_text("type E7\n" + "".join(" ".join(map(str, f)) + "\n" for f in functionals))
    canonical = [tuple(-1 if j == a else 0 for j in range(8)) for a in range(8)]
    jobs = [
        cli_job("faces", ["faces", "E8"], check_faces_plain(8), seeded=False),
        cli_job("faces", ["faces", "D7", "--format", "json"], check_faces_json(7), seeded=False),
        cli_job("rays", ["rays", "A11"], check_rays_plain(11), seeded=False),
        cli_job("rays", ["rays", "C10", "--format", "latex"], check_rays_latex(10), seeded=False),
        cli_job("arrangement", ["arrangement", "E8"], check_arrangement(canonical), seeded=False),
        cli_job("arrangement", ["arrangement", "--file", str(arr_file)], check_arrangement(functionals)),
    ]
    jobs[-1].name = "arrangement --file E7"  # the path differs between checkouts
    return Workload("structure", jobs)


def polytope(rng, out_dir: Path) -> Workload:
    specs = [  # E7 and A7 have fixed bounds
        ("E7", (1,) * 7, "plain"),
        ("A7", (0, 1, 1, 1, 1, 1, 0), "plain"),
        ("D7", seeded_bound(rng, 7, True), "json"),
        ("C6", seeded_bound(rng, 6, True), "plain"),
        ("B6", seeded_bound(rng, 6, True), "plain"),
        ("F4", seeded_bound(rng, 4, True), "plain"),
        ("G2", seeded_bound(rng, 2, True), "plain"),
    ]
    jobs = []
    for label, y, fmt in specs:
        argv = ["polytope", label, fmt_vec(y)] + (["--format", "json"] if fmt == "json" else [])
        check = check_polytope(rootsys.build(label), y, fmt)
        jobs.append(cli_job("polytope", argv, check, seeded=label not in ("E7", "A7")))
    # positive bounds, so the orbit is more than the origin; D6 keeps fixed
    # bounds because its orbit size, and so its cost, swings with them
    jobs.append(orbit_job("F4", seeded_bound(rng, 4, False)))
    d6 = orbit_job("D6", (1,) * 6)
    d6.seeded = False
    jobs.append(d6)
    return Workload("polytope", jobs)


MEMBER_PER_TYPE = 24  # 49 types: 1176 samples, 11 beyond the 99th percentile
GMEMBER_PER_RANK = 32  # ranks 2-8: 224 samples; with the shift instance 240, 12 beyond the 95th
GMEMBER_SHIFT = 16


def member_job(index: int, rs, x, mode: str, expect: Optional[bool]) -> Job:
    """expect: True for interior points, False for ray multiples in open mode
    (they lie in the closed cone only), None for random points."""

    def check(results) -> list:
        problems = []
        if len(set(results.values())) != 1:
            problems.append(f"routes disagree: {results}")
        if expect is not None and results["edges"] != expect:
            problems.append(f"verdict {results['edges']} expected {expect}")
        return problems

    return Job(
        name=f"member#{index}",
        kind="member",
        call=lambda: cone.member_all(rs, x, mode),
        check=check,
        fingerprint=lambda results: "1" if results["edges"] else "0",
    )


def gmember_job(index: int, inst, delta) -> Job:
    rs = inst.rs
    # the verdict depends on delta only through nu_i(delta), the point of
    # the canonical cone it composes to
    composed = tuple(sum(a * b for a, b in zip(row, delta)) for row in inst.nu)

    def check(verdict) -> list:
        want = cone.member(rs, composed, "open")
        return [] if verdict == want else [f"verdict {verdict}, cone.member says {want}"]

    return Job(
        name=f"gmember#{index}",
        kind="gmember",
        call=lambda: cone.general_member(inst, delta),
        check=check,
        fingerprint=lambda verdict: "1" if verdict else "0",
    )


def queries(rng, out_dir: Path) -> Workload:
    types = rootsys.all_types()
    members = []
    for t in types:
        rs = rootsys.build(t)
        for k in range(MEMBER_PER_TYPE):
            big = k % 2 == 1
            mode = rng.choice(("open", "closed"))
            shape = k % 3 if rs.rank > 1 else k % 2  # rank 1 has no boundary ray
            if shape == 0:
                members.append((rs, interior_point(rs, rng, big), mode, True))
            elif shape == 1:
                members.append((rs, random_point(rs, rng, big), mode, None))
            else:
                members.append((rs, ray_multiple(rs, rng, big), mode, mode == "closed"))
    gmembers = []
    for rank in range(2, 9):
        labels = [t for t in types if t.rank == rank]
        for k in range(GMEMBER_PER_RANK):
            rs = rootsys.build(labels[k % len(labels)])
            inst = cone.canonical_instance(rs)
            delta = interior_point(rs, rng, False) if k % 2 == 0 else random_shift(rng, rank)
            gmembers.append((inst, delta))
    shift = cone.parse_instance(A2_SHIFT_INSTANCE)
    for k in range(GMEMBER_SHIFT):
        # delta = (d3 - p2, d3 - p1, d3) composes to the point p
        p = interior_point(shift.rs, rng, False) if k % 2 == 0 else random_shift(rng, 2)
        d3 = Fraction(rng.randint(0, 20), rng.randint(1, 5))
        gmembers.append((shift, (d3 - p[1], d3 - p[0], d3)))
    jobs = [member_job(i, *spec) for i, spec in enumerate(members)]
    jobs += [gmember_job(i, *spec) for i, spec in enumerate(gmembers)]
    rng.shuffle(jobs)
    return Workload("queries", jobs)


GENERATORS = {"structure": structure, "polytope": polytope, "queries": queries}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return GENERATORS[name](rng, out_dir)


# ---------------------------------------------------------------------------
# recorded fingerprints
#
# digests.json holds {"fixed": {workload: {job: fp}}, "seeded": {seed:
# {workload: {job: fp}}}}; query verdicts are stored as one character per
# query, in index order, under the query kind.


def attach_expected(workload: Workload, seed: int, digests: dict) -> None:
    fixed = digests.get("fixed", {}).get(workload.name, {})
    seeded = digests.get("seeded", {}).get(str(seed), {}).get(workload.name, {})
    for job in workload.jobs:
        if "#" in job.name:
            kind, index = job.name.split("#")
            bits = seeded.get(kind)
            job.expected = bits[int(index)] if bits is not None else None
        else:
            job.expected = (seeded if job.seeded else fixed).get(job.name)


def tabulate(workload: Workload, fingerprints: dict) -> tuple:
    """Split one seed's fingerprints into (fixed, seeded) tables."""
    fixed, seeded, bits = {}, {}, {}
    for job in workload.jobs:
        fp = fingerprints[job.name]
        if "#" in job.name:
            kind, index = job.name.split("#")
            bits.setdefault(kind, {})[int(index)] = fp
        else:
            (seeded if job.seeded else fixed)[job.name] = fp
    for kind, by_index in bits.items():
        seeded[kind] = "".join(by_index[i] for i in range(len(by_index)))
    return fixed, seeded
