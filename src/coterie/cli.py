"""Command line front end.

Six subcommands: ``inequalities``, ``rays``, ``member``, ``faces``,
``polytope``, ``arrangement``.  Each ``cmd_*`` computes its result once, as
the JSON payload (with a ``"schema": 1`` marker), and ``main`` is the only
place that prints: JSON as it stands, plain text and LaTeX through the
command's renderers in ``RENDERERS``.  A renderer reads the payload and the
parsed options, never a library object, so the three formats agree.  LaTeX
layouts exist for ``inequalities`` (without the ``--symbolic`` block) and
``rays``; the other commands render LaTeX as plain text.

Exit codes: 0 success, 2 usage or domain error or unwritable output,
3 invariant violation, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import arrangement as arrmod
from . import cone, faces, rootsys
from .exactla import ResourceCapError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_CAP = 4

SCHEMA = 1


# ---------------------------------------------------------------------------
# payload numbers: rationals as "p" or "p/q" strings


def _json_vec(vec) -> list:
    # str of an int or a Fraction is "p" or "p/q"
    return [str(q) for q in vec]


def _ray_json(ints, texts: dict) -> list:
    """A ray's entries, each str(Fraction(c, d)) for d = ints[-1] > 0,
    written from the integers; d == 0 marks a primitive vector, written as
    it stands.  texts maps d to {c: text} for the entries already written,
    so the rays of one command write each distinct entry once."""
    d = ints[-1]
    if not d:
        return [str(c) for c in ints]
    written = texts.get(d)
    if written is None:
        written = texts[d] = {}
    out = []
    for c in ints:
        q = written.get(c)
        if q is None:
            g = gcd(c, d)
            q = written[c] = str(c // g) if g == d else f"{c // g}/{d // g}"
        out.append(q)
    return out


def _latex_q(q: str) -> str:
    num, slash, den = q.partition("/")
    if not slash:
        return num
    sign = "-" if num.startswith("-") else ""
    return f"{sign}\\frac{{{num.lstrip('-')}}}{{{den}}}"


def _point_latex(vec, texts: dict) -> str:
    """The vector's LaTeX, texts mapping each entry to the text already
    written for it, so one renderer call writes each distinct entry once."""
    parts = []
    for q in vec:
        t = texts.get(q)
        if t is None:
            t = texts[q] = _latex_q(q)
        parts.append(t)
    return "\\left(" + ", ".join(parts) + "\\right)"


def _cleared(entries) -> list:
    """Payload rationals scaled to integers by the lcm of their denominators."""
    parts = [q.partition("/") for q in entries]
    d = lcm(*(int(den or 1) for _, _, den in parts))
    return [int(num) * (d // int(den or 1)) for num, _, den in parts]


def _term(coeff: str, node: int) -> str:
    # node is 1-based as displayed; unit coefficients drop
    return f"a_{node}" if coeff == "1" else f"{coeff}a_{node}"


def _parse_vector(text: str, rank: int) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rank:
        raise ValueError(f"expected {rank} comma-separated entries in {text!r}, got {len(parts)}")
    entries = []
    for p in parts:
        try:
            entries.append(Fraction(p))
        except ValueError as exc:
            raise ValueError(f"bad vector entry: {exc}") from None
        except ZeroDivisionError:
            raise ValueError(f"bad vector entry {p!r}: zero denominator") from None
    return tuple(entries)


def _constraint_json(c) -> dict:
    return {
        "functional": _json_vec(c.functional),
        "rel": c.rel,
        "bound": str(c.bound),
    }


# ---------------------------------------------------------------------------
# three-term chain presentation of the per-edge conditions


def _chain_json(rs, i, j) -> dict:
    """Payload of edge (i, j): 1-based side and middle nodes, and the
    integer coefficients (r, s, t) as strings.

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
    o, m, mid = (j, i, mid_lo) if k_lo == 1 and k_hi != 1 else (i, j, mid_hi)
    return {
        "edge": [i + 1, j + 1],
        "side": o + 1,
        "middle": m + 1,
        "coefficients": [str(c) for c in mid],
    }


def _equality_text(rs, i, j, state) -> str:
    b, a = (i, j) if state == faces.RIGHT else (j, i)
    row = rootsys.pair_row(rs, b, a)
    return " = ".join(_term(str(c), k + 1) for k, c in sorted([(b, row[b]), (a, -row[a])]))


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
# subcommands: each returns (payload, error), error naming a failed invariant


def cmd_inequalities(args) -> tuple:
    rs = rootsys.build(args.type)
    reduced = not args.full
    desc = cone.inequalities(rs, reduced=reduced)
    payload = {
        "schema": SCHEMA,
        "command": "inequalities",
        "type": str(rs.stype),
        "rank": rs.rank,
        "reduced": reduced,
        "constraints": [_constraint_json(c) for c in desc.open_system.constraints],
    }
    if reduced:
        payload["chains"] = [_chain_json(rs, i, j) for i, j in rs.edges]
    if args.symbolic and rs.stype.family in _SYMBOLIC:
        payload["symbolic"] = list(_SYMBOLIC[rs.stype.family])
    return payload, None


def cmd_rays(args) -> tuple:
    rs = rootsys.build(args.type)
    rays = faces.extremal_rays(rs)
    # each edge's two equalities, rendered once and looked up by state
    texts = [
        {s: _equality_text(rs, i, j, s) for s in (faces.LEFT, faces.RIGHT)} for i, j in rs.edges
    ]
    entries = {}
    payload = {
        "schema": SCHEMA,
        "command": "rays",
        "type": str(rs.stype),
        "rank": rs.rank,
        "count": len(rays),
        "rays": [
            {
                "orientation": str(r.orientation),
                "vector": _ray_json(r.ints, entries) if r.ints is not None else None,
                "equalities": [t[s] for t, s in zip(texts, r.orientation.states)],
                "anomalies": list(r.anomalies),
            }
            for r in rays
        ],
    }
    return payload, "extremal ray anomalies detected" if any(r.anomalies for r in rays) else None


def cmd_member(args) -> tuple:
    rs = rootsys.build(args.type)
    x = _parse_vector(args.point, rs.rank)
    if args.method == "all":
        results = cone.member_all(rs, x, mode=args.mode)
    else:
        results = {args.method: cone.member(rs, x, mode=args.mode, method=args.method)}
    agreement = len(set(results.values())) == 1
    payload = {
        "schema": SCHEMA,
        "command": "member",
        "type": str(rs.stype),
        "point": _json_vec(x),
        "mode": args.mode,
        "results": results,
        "agreement": agreement,
        "member": results["edges" if args.method == "all" else args.method],
    }
    return payload, None if agreement else "membership methods disagree"


def cmd_faces(args) -> tuple:
    rs = rootsys.build(args.type)
    dims = faces.face_dimensions(rs)
    hist = Counter(dims)
    iso = faces.cube_isomorphism_check(rs)
    payload = {
        "schema": SCHEMA,
        "command": "faces",
        "type": str(rs.stype),
        "rank": rs.rank,
        "count": len(dims),
        "dimensions": {str(d): hist[d] for d in sorted(hist)},
        "cube_isomorphic": iso,
    }
    return payload, None if iso else "face order does not match the cube order"


def cmd_polytope(args) -> tuple:
    rs = rootsys.build(args.type)
    y = _parse_vector(args.bound, rs.rank)
    cs = cone.cross_section(rs, y)
    vertices = cone.polytope_vertices(cs)
    payload = {
        "schema": SCHEMA,
        "command": "polytope",
        "type": str(rs.stype),
        "bound": _json_vec(y),
        "constraints": [_constraint_json(c) for c in cs.system.constraints],
        "vertices": [_json_vec(v) for v in vertices],
        "empty": not vertices,
    }
    return payload, None


def cmd_arrangement(args) -> tuple:
    if args.file is None:
        if args.type is None:
            raise ValueError("give a type label or --file")
        arr = arrmod.canonical_arrangement(rootsys.build(args.type))
    elif args.type is not None:
        raise ValueError("give a type label or --file, not both")
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            arr = arrmod.parse_arrangement(fh.read())
    rs = arr.rs
    orbit = arrmod.weyl_orbit(arr, cap=args.orbit_cap)
    cm = arrmod.classifying_map(arr)
    payload = {
        "schema": SCHEMA,
        "command": "arrangement",
        "type": str(rs.stype),
        "rank": rs.rank,
        "fundamental": [[str(v) for v in h.functional] for h in arr.fundamental],
        "orbit": (
            {"capped": True, "explored": orbit.partial_size}
            if orbit.full == arrmod.IMPLICIT
            else {"capped": False, "size": len(orbit.full)}
        ),
        "classifying_matrix": [[str(v) for v in row] for row in cm.a_star],
        "k": [str(v) for v in cm.k],
    }
    return payload, None


# ---------------------------------------------------------------------------
# renderers: payload and parsed options in, output lines out


def _conditions(payload) -> list:
    """The inequality lines after a_j > 0: one chain per edge when reduced,
    else one cleared pair row per ordered pair (the rows after the rank
    positivity rows, +1 at b and -ratio at a)."""
    lines = []
    if payload["reduced"]:
        for chain in payload["chains"]:
            r, s, t = chain["coefficients"]
            o, m = chain["side"], chain["middle"]
            lines.append(f"{_term(r, o)} > {_term(s, m)} > {_term(t, o)}")
        return lines
    for c in payload["constraints"][payload["rank"] :]:
        row = _cleared(c["functional"])
        b = next(k for k, v in enumerate(row) if v > 0)
        a = next(k for k, v in enumerate(row) if v < 0)
        lines.append(f"{_term(str(row[b]), b + 1)} > {_term(str(-row[a]), a + 1)}")
    return lines


def _inequalities_plain(payload, args) -> list:
    kind = "reduced" if payload["reduced"] else "full"
    lines = [f"type {payload['type']}", f"rank {payload['rank']}", f"conditions ({kind}):", "  a_j > 0"]
    lines += [f"  {c}" for c in _conditions(payload)]
    if args.symbolic:
        fam = payload["type"][0]
        if "symbolic" in payload:
            lines.append(f"symbolic pattern ({fam} family, rank n):")
            lines += [f"  {line}" for line in payload["symbolic"]]
        else:
            lines.append(f"symbolic pattern: none for family {fam}")
    return lines


def _inequalities_latex(payload, args) -> list:
    kind = "reduced" if payload["reduced"] else "full"
    lines = [f"% conditions for {payload['type']} ({kind})", "\\begin{enumerate}", "\\item $a_j > 0$."]
    lines += [f"\\item ${c}$." for c in _conditions(payload)]
    lines.append("\\end{enumerate}")
    return lines


def _rays_plain(payload, args) -> list:
    lines = [f"type {payload['type']}", f"rays {payload['count']}"]
    anomalies = []
    for r in payload["rays"]:
        vec = f"({', '.join(r['vector'])})" if r["vector"] is not None else "degenerate"
        eqs = ", ".join(r["equalities"])
        suffix = f"  [{eqs}]" if eqs else ""
        lines.append(f"  {r['orientation'] or '(no edges)'}  {vec}{suffix}")
        anomalies += [f"  {r['orientation']}: {note}" for note in r["anomalies"]]
    if anomalies:
        return lines + ["anomalies:"] + anomalies
    return lines + ["anomalies: none"]


def _rays_latex(payload, args) -> list:
    lines = [f"% extremal rays for {payload['type']}", "\\begin{enumerate}"]
    entries = {}
    for r in payload["rays"]:
        eqs = ", ".join(f"${t}$" for t in r["equalities"])
        vec = _point_latex(r["vector"], entries) if r["vector"] is not None else "\\text{degenerate}"
        tail = f" with {eqs}" if eqs else ""
        lines.append(f"\\item ${vec}${tail}.")
    lines.append("\\end{enumerate}")
    return lines


def _member_plain(payload, args) -> list:
    results = payload["results"]
    lines = [f"type {payload['type']}", f"point ({', '.join(payload['point'])})", f"mode {payload['mode']}"]
    for name in ("edges", "full", "geometric"):
        if name in results:
            lines.append(f"{name}: {'true' if results[name] else 'false'}")
    if args.method == "all":
        lines.append(f"agreement: {'yes' if payload['agreement'] else 'NO'}")
    lines.append(f"member: {'true' if payload['member'] else 'false'}")
    return lines


def _faces_plain(payload, args) -> list:
    return [
        f"type {payload['type']}",
        f"faces {payload['count']}",
        "dimensions: " + " ".join(f"{d}:{k}" for d, k in payload["dimensions"].items()),
        f"cube order isomorphism: {'yes' if payload['cube_isomorphic'] else 'NO'}",
    ]


def _linear_text(coeffs, rel, bound) -> str:
    terms = []
    for k, q in enumerate(coeffs):
        if q == 0:
            continue
        t = _term(str(abs(q)), k + 1)
        if not terms:
            terms.append(t if q > 0 else f"-{t}")
        else:
            terms.append(f"+ {t}" if q > 0 else f"- {t}")
    lhs = " ".join(terms) if terms else "0"
    return f"{lhs} {rel} {bound}"


def _polytope_plain(payload, args) -> list:
    lines = [f"type {payload['type']}", f"bound ({', '.join(payload['bound'])})", "constraints:"]
    for c in payload["constraints"]:
        *coeffs, bound = _cleared(c["functional"] + [c["bound"]])
        lines.append(f"  {_linear_text(coeffs, c['rel'], bound)}")
    lines.append(f"vertices {len(payload['vertices'])}:")
    lines += [f"  ({', '.join(v)})" for v in payload["vertices"]]
    lines.append(f"empty: {'true' if payload['empty'] else 'false'}")
    return lines


def _arrangement_plain(payload, args) -> list:
    orbit = payload["orbit"]
    lines = [f"type {payload['type']}", f"fundamental {len(payload['fundamental'])}:"]
    lines += ["  " + " ".join(h) for h in payload["fundamental"]]
    if orbit["capped"]:
        lines.append(f"orbit: capped (explored {orbit['explored']})")
    else:
        lines.append(f"orbit size {orbit['size']}")
    lines.append("classifying matrix:")
    lines += ["  " + " ".join(row) for row in payload["classifying_matrix"]]
    lines.append("k: " + " ".join(payload["k"]))
    return lines


# command -> (plain renderer, LaTeX renderer)
RENDERERS = {
    "inequalities": (_inequalities_plain, _inequalities_latex),
    "rays": (_rays_plain, _rays_latex),
    "member": (_member_plain, _member_plain),
    "faces": (_faces_plain, _faces_plain),
    "polytope": (_polytope_plain, _polytope_plain),
    "arrangement": (_arrangement_plain, _arrangement_plain),
}


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


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
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
    form = p.add_mutually_exclusive_group()
    form.add_argument("--full", action="store_true", help="all ordered pairs, not just edges")
    form.add_argument(
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
    try:
        payload, error = args.func(args)
    except ResourceCapError as exc:
        print(f"error: resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    # every domain error of the library subclasses ValueError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        plain, latex = RENDERERS[args.command]
        text = "\n".join((latex if args.format == "latex" else plain)(payload, args))
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk
        # the unwritten rest stays buffered; pointing stdout at the null
        # device lets the interpreter's last flush of it succeed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
