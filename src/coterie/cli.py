"""Command line front end.

Six subcommands: ``inequalities``, ``rays``, ``member``, ``faces``,
``polytope``, ``arrangement``.  Output formats are plain text (default),
JSON with a ``"schema": 1`` marker, and LaTeX.  LaTeX layouts exist for
``inequalities`` and ``rays``; the other commands fall back to plain.

Exit codes: 0 success, 2 usage or domain error, 3 invariant violation,
4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from math import gcd

from . import arrangement as arrmod
from . import cone, faces, rootsys
from .exactla import ResourceCapError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_CAP = 4

SCHEMA = 1


# ---------------------------------------------------------------------------
# formatting helpers


def _fmt_q(q) -> str:
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _latex_q(q) -> str:
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def _point_text(vec) -> str:
    return "(" + ", ".join(_fmt_q(q) for q in vec) + ")"


def _point_latex(vec) -> str:
    return "\\left(" + ", ".join(_latex_q(q) for q in vec) + "\\right)"


def _json_vec(vec) -> list:
    return [_fmt_q(q) for q in vec]


def _term(coeff, idx) -> str:
    # idx is 0-based internally, displayed 1-based; unit coefficients drop
    name = f"a_{idx + 1}"
    if coeff == 1:
        return name
    return f"{_fmt_q(coeff)}{name}"


def _parse_vector(text: str, rank: int) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rank:
        raise ValueError(f"expected {rank} comma-separated entries, got {len(parts)}")
    entries = []
    for p in parts:
        try:
            entries.append(Fraction(p))
        except ValueError as exc:
            raise ValueError(f"bad vector entry: {exc}") from None
        except ZeroDivisionError:
            raise ValueError(f"bad vector entry {p!r}: zero denominator") from None
    return tuple(entries)


def _linear_text(functional, rel, bound) -> str:
    terms = []
    for k, q in enumerate(functional):
        if q == 0:
            continue
        t = _term(abs(q), k)
        if not terms:
            terms.append(t if q > 0 else f"-{t}")
        else:
            terms.append(f"+ {t}" if q > 0 else f"- {t}")
    lhs = " ".join(terms) if terms else "0"
    return f"{lhs} {rel} {_fmt_q(bound)}"


def _constraint_text(c) -> str:
    coeffs, bound, rel = c.cleared()
    return _linear_text(coeffs, rel, bound)


def _constraint_json(c) -> dict:
    return {
        "functional": _json_vec(c.functional),
        "rel": c.rel,
        "bound": _fmt_q(c.bound),
    }


# ---------------------------------------------------------------------------
# three-term chain presentation of the per-edge conditions


def _chain(rs, i, j):
    """Side node, middle node, integer coefficients (r, s, t) for edge (i, j).

    The chain "r a_side > s a_mid > t a_side" packages the two directed
    conditions of the edge; r - t = 1 before integer scaling.  The middle
    whose triple is already integral is preferred, otherwise the higher
    numbered node sits in the middle and the triple is scaled by the lcm
    k of the denominators.
    """

    def triple(o, m):
        # cleared rows q a_o > p a_m and v a_m > u a_o: (q/p) a_o > a_m > (u/v) a_o,
        # scaled to r - t = 1 that is (q v, p v, p u) / (q v - p u), in lowest terms over k
        fwd, bwd = rootsys.pair_row(rs, o, m), rootsys.pair_row(rs, m, o)
        q, p, v, u = fwd[o], -fwd[m], bwd[m], -bwd[o]
        g = gcd(q * v, p * v, p * u, q * v - p * u)
        return (q * v // g, p * v // g, p * u // g), (q * v - p * u) // g

    mid_hi, k_hi = triple(i, j)
    mid_lo, k_lo = triple(j, i)
    if k_lo == 1 and k_hi != 1:
        return j, i, mid_lo
    return i, j, mid_hi


def _chain_text(rs, i, j) -> str:
    o, m, (r, s, t) = _chain(rs, i, j)
    return f"{_term(r, o)} > {_term(s, m)} > {_term(t, o)}"


def _chain_json(rs, i, j) -> dict:
    o, m, (r, s, t) = _chain(rs, i, j)
    return {
        "edge": [i + 1, j + 1],
        "side": o + 1,
        "middle": m + 1,
        "coefficients": [str(r), str(s), str(t)],
    }


def _pair_text(rs, b, a) -> str:
    # directed condition for the ordered pair (b, a), cleared to integers
    row = rootsys.pair_row(rs, b, a)
    return f"{_term(row[b], b)} > {_term(-row[a], a)}"


def _equality_text(rs, i, j, state) -> str:
    b, a = (i, j) if state == faces.RIGHT else (j, i)
    row = rootsys.pair_row(rs, b, a)
    lhs, rhs = (row[b], b), (-row[a], a)
    if lhs[1] > rhs[1]:
        lhs, rhs = rhs, lhs
    return f"{_term(lhs[0], lhs[1])} = {_term(rhs[0], rhs[1])}"


_SYMBOLIC = {
    "A": (
        "a_j > 0",
        "a_j > (j/(j+1)) a_(j+1)            for j < n",
        "a_j > ((n+1-j)/(n+2-j)) a_(j-1)    for j > 1",
    ),
    "B": (
        "a_j > 0",
        "a_j > (j/(j+1)) a_(j+1)            for j < n",
        "a_j > a_(j-1)                      for j > 1",
    ),
    "C": (
        "a_j > 0",
        "a_j > a_(j-1)                      for 1 < j < n",
        "a_j > (j/(j+1)) a_(j+1)            for j < n-1",
        "a_n > (1/2) a_(n-1)",
        "a_(n-1) > (2(n-1)/n) a_n",
    ),
    "D": (
        "a_j > 0",
        "a_j > (j/(j+1)) a_(j+1)            for j < n-2",
        "a_j > a_(j-1)                      for 1 < j <= n-2",
        "a_(n-2) > (2(n-2)/n) a_(n-1)",
        "a_(n-2) > (2(n-2)/n) a_n",
        "a_(n-1) > (1/2) a_(n-2)",
        "a_n > (1/2) a_(n-2)",
    ),
}


# ---------------------------------------------------------------------------
# subcommands


def cmd_inequalities(args) -> int:
    rs = rootsys.build(args.type)
    label = str(rs.stype)
    reduced = not args.full
    desc = cone.inequalities(rs, reduced=reduced)
    out = args.out

    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "inequalities",
            "type": label,
            "rank": rs.rank,
            "reduced": reduced,
            "constraints": [_constraint_json(c) for c in desc.open_system.constraints],
        }
        if reduced:
            payload["chains"] = [_chain_json(rs, i, j) for i, j in rs.edges]
        if args.symbolic and rs.stype.family in _SYMBOLIC:
            payload["symbolic"] = list(_SYMBOLIC[rs.stype.family])
        print(json.dumps(payload, indent=2), file=out)
        return EXIT_OK

    if args.format == "latex":
        kind = "reduced" if reduced else "full"
        print(f"% conditions for {label} ({kind})", file=out)
        print("\\begin{enumerate}", file=out)
        print("\\item $a_j > 0$.", file=out)
        if reduced:
            for i, j in rs.edges:
                print(f"\\item ${_chain_text(rs, i, j)}$.", file=out)
        else:
            for b, a in desc.pairs:
                print(f"\\item ${_pair_text(rs, b, a)}$.", file=out)
        print("\\end{enumerate}", file=out)
        return EXIT_OK

    kind = "reduced" if reduced else "full"
    print(f"type {label}", file=out)
    print(f"rank {rs.rank}", file=out)
    print(f"conditions ({kind}):", file=out)
    print("  a_j > 0", file=out)
    if reduced:
        for i, j in rs.edges:
            print(f"  {_chain_text(rs, i, j)}", file=out)
    else:
        for b, a in desc.pairs:
            print(f"  {_pair_text(rs, b, a)}", file=out)
    if args.symbolic:
        fam = rs.stype.family
        if fam in _SYMBOLIC:
            print(f"symbolic pattern ({fam} family, rank n):", file=out)
            for line in _SYMBOLIC[fam]:
                print(f"  {line}", file=out)
        else:
            print(f"symbolic pattern: none for family {fam}", file=out)
    return EXIT_OK


def cmd_rays(args) -> int:
    rs = rootsys.build(args.type)
    label = str(rs.stype)
    rays = faces.extremal_rays(rs)
    out = args.out
    anomalies = [(str(r.orientation), a) for r in rays for a in r.anomalies]
    # each edge's two equalities, rendered once and looked up by state
    texts = [
        {s: _equality_text(rs, i, j, s) for s in (faces.LEFT, faces.RIGHT)} for i, j in rs.edges
    ]

    def equalities(r) -> list:
        return [t[s] for t, s in zip(texts, r.orientation.states)]

    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "rays",
            "type": label,
            "rank": rs.rank,
            "count": len(rays),
            "rays": [
                {
                    "orientation": str(r.orientation),
                    "vector": _json_vec(r.vector) if r.vector is not None else None,
                    "equalities": equalities(r),
                    "anomalies": list(r.anomalies),
                }
                for r in rays
            ],
        }
        print(json.dumps(payload, indent=2), file=out)
    elif args.format == "latex":
        print(f"% extremal rays for {label}", file=out)
        print("\\begin{enumerate}", file=out)
        for r in rays:
            eqs = ", ".join(f"${t}$" for t in equalities(r))
            vec = _point_latex(r.vector) if r.vector is not None else "\\text{degenerate}"
            tail = f" with {eqs}" if eqs else ""
            print(f"\\item ${vec}${tail}.", file=out)
        print("\\end{enumerate}", file=out)
    else:
        print(f"type {label}", file=out)
        print(f"rays {len(rays)}", file=out)
        for r in rays:
            eqs = ", ".join(equalities(r))
            vec = _point_text(r.vector) if r.vector is not None else "degenerate"
            suffix = f"  [{eqs}]" if eqs else ""
            print(f"  {str(r.orientation) or '(no edges)'}  {vec}{suffix}", file=out)
        if anomalies:
            print("anomalies:", file=out)
            for orient, note in anomalies:
                print(f"  {orient}: {note}", file=out)
        else:
            print("anomalies: none", file=out)

    if anomalies:
        print("error: extremal ray anomalies detected", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_member(args) -> int:
    rs = rootsys.build(args.type)
    label = str(rs.stype)
    x = _parse_vector(args.point, rs.rank)
    out = args.out

    if args.method == "all":
        results = cone.member_all(rs, x, mode=args.mode)
        verdicts = set(results.values())
        agreement = len(verdicts) == 1
        member = results["edges"]
    else:
        results = {args.method: cone.member(rs, x, mode=args.mode, method=args.method)}
        agreement = True
        member = results[args.method]

    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "member",
            "type": label,
            "point": _json_vec(x),
            "mode": args.mode,
            "results": results,
            "agreement": agreement,
            "member": member,
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(f"type {label}", file=out)
        print(f"point {_point_text(x)}", file=out)
        print(f"mode {args.mode}", file=out)
        for name in ("edges", "full", "geometric"):
            if name in results:
                print(f"{name}: {'true' if results[name] else 'false'}", file=out)
        if args.method == "all":
            print(f"agreement: {'yes' if agreement else 'NO'}", file=out)
        print(f"member: {'true' if member else 'false'}", file=out)

    if not agreement:
        print("error: membership methods disagree", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_faces(args) -> int:
    rs = rootsys.build(args.type)
    label = str(rs.stype)
    if rs.rank > faces.CUBE_RANK_BOUND:
        raise ValueError(
            f"face lattice enumeration is bounded at rank {faces.CUBE_RANK_BOUND}"
        )
    out = args.out
    dims = faces.face_dimensions(rs)
    hist = {}
    for d in dims:
        hist[d] = hist.get(d, 0) + 1
    iso = faces.cube_isomorphism_check(rs)

    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "faces",
            "type": label,
            "rank": rs.rank,
            "count": len(dims),
            "dimensions": {str(d): hist[d] for d in sorted(hist)},
            "cube_isomorphic": iso,
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(f"type {label}", file=out)
        print(f"faces {len(dims)}", file=out)
        print(
            "dimensions: "
            + " ".join(f"{d}:{hist[d]}" for d in sorted(hist)),
            file=out,
        )
        print(f"cube order isomorphism: {'yes' if iso else 'NO'}", file=out)

    if not iso:
        print("error: face order does not match the cube order", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_polytope(args) -> int:
    rs = rootsys.build(args.type)
    label = str(rs.stype)
    y = _parse_vector(args.bound, rs.rank)
    cs = cone.cross_section(rs, y)
    vertices = cone.polytope_vertices(cs)
    out = args.out

    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "polytope",
            "type": label,
            "bound": _json_vec(y),
            "constraints": [_constraint_json(c) for c in cs.system.constraints],
            "vertices": [_json_vec(v) for v in vertices],
            "empty": not vertices,
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(f"type {label}", file=out)
        print(f"bound {_point_text(y)}", file=out)
        print("constraints:", file=out)
        for c in cs.system.constraints:
            print(f"  {_constraint_text(c)}", file=out)
        print(f"vertices {len(vertices)}:", file=out)
        for v in vertices:
            print(f"  {_point_text(v)}", file=out)
        print(f"empty: {'true' if not vertices else 'false'}", file=out)
    return EXIT_OK


def cmd_arrangement(args) -> int:
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            arr = arrmod.parse_arrangement(fh.read())
    else:
        if args.type is None:
            raise ValueError("give a type label or --file")
        arr = arrmod.canonical_arrangement(rootsys.build(args.type))
    rs = arr.rs
    label = str(rs.stype)
    orbit = arrmod.weyl_orbit(arr, cap=args.orbit_cap)
    capped = orbit.full == arrmod.IMPLICIT
    cm = arrmod.classifying_map(arr)
    out = args.out

    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "arrangement",
            "type": label,
            "rank": rs.rank,
            "fundamental": [[str(v) for v in h.functional] for h in arr.fundamental],
            "orbit": (
                {"capped": True, "explored": orbit.partial_size}
                if capped
                else {"capped": False, "size": len(orbit.full)}
            ),
            "classifying_matrix": [[str(v) for v in row] for row in cm.a_star],
            "k": [str(v) for v in cm.k],
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(f"type {label}", file=out)
        print(f"fundamental {len(arr.fundamental)}:", file=out)
        for h in arr.fundamental:
            print("  " + " ".join(str(v) for v in h.functional), file=out)
        if capped:
            print(f"orbit: capped (explored {orbit.partial_size})", file=out)
        else:
            print(f"orbit size {len(orbit.full)}", file=out)
        print("classifying matrix:", file=out)
        for row in cm.a_star:
            print("  " + " ".join(str(v) for v in row), file=out)
        print("k: " + " ".join(str(v) for v in cm.k), file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


# a '-' followed by a digit, '.' or '/' starts a negative entry (no option
# looks like that), so points such as -1,2 need no '--' in front
_NEGATIVE_ENTRY = re.compile(r"-[\d./]")


def _protect_negative_entries(argv: list) -> list:
    """Move every negative entry in a positional slot behind a '--', where
    argparse reads it as a positional whatever it looks like.  A token
    right after a long option without '=' is that option's value and stays
    put.  The moved entries keep their order and precede any positionals
    the caller already put behind a '--'; in every command they are the
    last positionals, so the positional order is unchanged."""
    end = argv.index("--") if "--" in argv else len(argv)
    kept, moved = [], []
    for pos, token in enumerate(argv[:end]):
        prev = argv[pos - 1] if pos else ""
        is_value = prev.startswith("--") and "=" not in prev
        if _NEGATIVE_ENTRY.match(token) and not is_value:
            moved.append(token)
        else:
            kept.append(token)
    if not moved:
        return argv
    return kept + ["--"] + moved + argv[end + 1 :]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coterie",
        description="Exact rational computations with dominance-order cones "
        "attached to simple root systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("plain", "json", "latex"),
            default="plain",
            help="output format (default plain)",
        )

    p = sub.add_parser("inequalities", help="defining conditions of the cone")
    p.add_argument("type", help="type label such as A4, D5, E8, G2")
    p.add_argument("--full", action="store_true", help="all ordered pairs, not just edges")
    p.add_argument(
        "--reduced",
        action="store_true",
        help="edge conditions only (the default; kept for symmetry with --full)",
    )
    p.add_argument(
        "--symbolic",
        action="store_true",
        help="append the closed-form rank-n pattern for the A, B, C, D families",
    )
    add_format(p)
    p.set_defaults(func=cmd_inequalities)

    p = sub.add_parser("rays", help="extremal rays of the closed cone")
    p.add_argument("type")
    add_format(p)
    p.set_defaults(func=cmd_rays)

    p = sub.add_parser("member", help="test a point for membership")
    p.add_argument("type")
    p.add_argument("point", help="comma-separated rational entries, e.g. 7,4 or 1/2,1")
    p.add_argument("--mode", choices=("open", "closed"), default="open")
    p.add_argument(
        "--method",
        choices=("all", "edges", "full", "geometric"),
        default="all",
        help="'all' runs every method and fails on disagreement",
    )
    add_format(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("faces", help="face census and cube-order check")
    p.add_argument("type")
    add_format(p)
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("polytope", help="bounded cross-section of the closed cone")
    p.add_argument("type")
    p.add_argument("bound", help="comma-separated nonnegative bounds, one per node")
    add_format(p)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("arrangement", help="stable oriented hyperplane arrangements")
    p.add_argument("type", nargs="?", default=None)
    p.add_argument("--file", default=None, help="read the arrangement from a file")
    p.add_argument("--orbit-cap", type=_positive_int, default=arrmod.ORBIT_CAP)
    add_format(p)
    p.set_defaults(func=cmd_arrangement)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_protect_negative_entries(list(argv)))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    args.out = sys.stdout
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (
        ValueError,
        OSError,
        rootsys.UnsupportedTypeError,
        arrmod.ArrangementFormatError,
        arrmod.DegenerateArrangementError,
        cone.MembershipPreconditionError,
        cone.InstanceFormatError,
        cone.DegenerateInstanceError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
