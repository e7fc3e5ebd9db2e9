"""End-to-end acceptance checks, one verdict per numbered criterion.

The golden tables below were entered by hand and frozen before the library
was written.  Chain rows (o, m, r, s, t) encode the printed double
inequality r*a_o > s*a_m > t*a_o with 1-based subscripts; classical
families use the closed-form coefficient patterns in the rank n.
"""

import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

import support

from coterie import cli, cone, exactla, faces, rootsys

F = Fraction

TABLE_TYPES = ("A4", "B4", "C4", "D5", "E6", "E7", "E8", "F4", "G2")

CHAINS = {
    "E6": (
        (1, 2, 8, 4, 5),
        (3, 2, 5, 6, 4),
        (3, 4, 5, 6, 4),
        (3, 6, 4, 6, 3),
        (5, 4, 8, 4, 5),
    ),
    "E7": (
        (2, 1, 3, 4, 2),
        (2, 3, 6, 4, 5),
        (4, 3, 10, 12, 9),
        (5, 4, 9, 6, 8),
        (4, 7, 7, 12, 6),
        (6, 5, 4, 2, 3),
    ),
    "E8": (
        (1, 2, 4, 2, 3),
        (2, 3, 9, 6, 8),
        (3, 4, 16, 12, 15),
        (4, 5, 25, 20, 24),
        (8, 5, 16, 8, 15),
        (6, 5, 21, 14, 20),
        (7, 6, 8, 4, 7),
    ),
    "F4": (
        (1, 2, 4, 2, 3),
        (2, 3, 9, 12, 8),
        (3, 4, 4, 6, 3),
    ),
    "G2": ((2, 1, 4, 2, 3),),
}

A4_RAY_TABLE = {
    ">>>": (F(1, 4), F(1, 2), F(3, 4), F(1)),
    ">><": (F(2, 3), F(4, 3), F(2), F(1)),
    "><>": (F(9, 16), F(9, 8), F(3, 4), F(1)),
    "><<": (F(3, 2), F(3), F(2), F(1)),
    "<>>": (F(2, 3), F(1, 2), F(3, 4), F(1)),
    "<><": (F(16, 9), F(4, 3), F(2), F(1)),
    "<<>": (F(3, 2), F(9, 8), F(3, 4), F(1)),
    "<<<": (F(4), F(3), F(2), F(1)),
}


def criterion(num, desc):
    def mark(fn):
        fn._criterion = (num, desc)
        return fn

    return mark


def _classical_pairs(family, n):
    """Expected (b, a, coefficient) rows for a_b > coeff * a_a, 1-based."""
    out = set()
    if family == "A":
        for j in range(1, n):
            out.add((j, j + 1, F(j, j + 1)))
        for j in range(2, n + 1):
            out.add((j, j - 1, F(n + 1 - j, n + 2 - j)))
    elif family == "B":
        for j in range(1, n):
            out.add((j, j + 1, F(j, j + 1)))
        for j in range(2, n + 1):
            out.add((j, j - 1, F(1)))
    elif family == "C":
        for j in range(1, n - 1):
            out.add((j, j + 1, F(j, j + 1)))
        for j in range(2, n):
            out.add((j, j - 1, F(1)))
        out.add((n - 1, n, F(2 * (n - 1), n)))
        out.add((n, n - 1, F(1, 2)))
    elif family == "D":
        for j in range(1, n - 2):
            out.add((j, j + 1, F(j, j + 1)))
        for j in range(2, n - 1):
            out.add((j, j - 1, F(1)))
        out.add((n - 2, n - 1, F(2 * (n - 2), n)))
        out.add((n - 2, n, F(2 * (n - 2), n)))
        out.add((n - 1, n - 2, F(1, 2)))
        out.add((n, n - 2, F(1, 2)))
    return out


def _expected_pairs(label):
    if label in CHAINS:
        out = set()
        for o, m, r, s, t in CHAINS[label]:
            out.add((o, m, F(s, r)))
            out.add((m, o, F(t, s)))
        return out
    return _classical_pairs(label[0], int(label[1:]))


def _cli_text(*argv):
    buf = StringIO()
    with redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


@criterion(1, "reduced inequality tables match the frozen golden systems")
def test_criterion_1():
    t0 = time.perf_counter()
    for label in TABLE_TYPES:
        rs = rootsys.build(label)
        n = rs.rank
        expected = {exactla.clear_row(exactla.unit(n, a)) for a in range(n)}
        for b, a, q in _expected_pairs(label):
            row = [F(0)] * n
            row[b - 1] = F(1)
            row[a - 1] = -q
            expected.add(exactla.clear_row(row))
        got = {
            exactla.clear_row(c.functional)
            for c in cone.inequalities(rs).open_system.constraints
        }
        assert got == expected, label
    assert "25a_4 > 20a_5 > 24a_4" in _cli_text("inequalities", "E8")
    assert "9a_2 > 12a_3 > 8a_2" in _cli_text("inequalities", "F4")
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "A4 extremal rays match the golden orientation/ray table")
def test_criterion_2():
    t0 = time.perf_counter()
    rays = faces.extremal_rays(rootsys.build("A4"))
    assert {str(r.orientation): r.vector for r in rays} == A4_RAY_TABLE
    for r in rays:
        assert r.anomalies == ()
        assert r.vector[-1] == 1
    assert time.perf_counter() - t0 < 1.0


@criterion(3, "face poset is the oriented-edge cube for every type up to rank 8")
def test_criterion_3():
    t0 = time.perf_counter()
    for t in rootsys.all_types(8):
        rs = rootsys.build(str(t))
        assert faces.cube_isomorphism_check(rs), str(t)
    rs = rootsys.build("A4")
    for f in faces.all_orientations(rs):
        oriented = sum(1 for s in f.states if s != faces.NEUTRAL)
        assert faces.face_of(rs, f).dim == rs.rank - oriented
    assert time.perf_counter() - t0 < 30.0


@criterion(4, "rank-2 cone equals the open dominant chamber")
def test_criterion_4():
    t0 = time.perf_counter()
    rng = random.Random(24)
    for label in ("A2", "B2", "G2"):
        rs = rootsys.build(label)
        cone_sys = cone.inequalities(rs).open_system
        chamber = exactla.ConeSystem(
            2,
            tuple(
                exactla.constraint(row, exactla.GT, 0)
                for row in exactla.mat_transpose(rs.cartan)
            ),
        )
        # mutual implication: adding a negated row of one side to the other
        # side must be infeasible
        for sys_a, sys_b in ((cone_sys, chamber), (chamber, cone_sys)):
            for c in sys_b.constraints:
                neg = exactla.constraint(
                    support.vec_scale(F(-1), c.functional),
                    exactla.GE if c.rel == exactla.GT else exactla.GT,
                    -c.bound,
                )
                probe = exactla.ConeSystem(2, tuple(sys_a.constraints) + (neg,))
                assert not exactla.feasible(probe), (label, c)
        for _ in range(1000):
            x = support.rand_vec(rng, 2)
            assert cone.member(rs, x, mode="open") == support.dominant_in_root_coords(
                rs, x, strict=True
            ), (label, x)
    assert time.perf_counter() - t0 < 5.0


@criterion(5, "the three membership tests agree for every type up to rank 8")
def test_criterion_5():
    t0 = time.perf_counter()
    rng = random.Random(25)
    for t in rootsys.all_types(8):
        rs = rootsys.build(str(t))
        for _ in range(500):
            x = support.rand_vec(rng, rs.rank)
            for mode in ("open", "closed"):
                verdicts = cone.member_all(rs, x, mode=mode)
                assert len(set(verdicts.values())) == 1, (str(t), x, mode)
    assert time.perf_counter() - t0 < 20.0


@criterion(6, "ratio coefficients telescope along every tree path up to rank 8")
def test_criterion_6():
    t0 = time.perf_counter()
    for t in rootsys.all_types(8):
        assert support.chain_identity_check(rootsys.build(str(t))), str(t)
    assert time.perf_counter() - t0 < 1.0


@criterion(7, "sums of members stay members and wall heights add exactly")
def test_criterion_7():
    t0 = time.perf_counter()
    rng = random.Random(27)
    for t in rootsys.all_types(8):
        rs = rootsys.build(str(t))
        for _ in range(200):
            x = support.sample_member(rs, rng)
            y = support.sample_member(rs, rng)
            assert support.additivity_check(rs, x, y), (str(t), x, y)
    assert time.perf_counter() - t0 < 10.0


@criterion(8, "wall height functions satisfy the quadratic evaluation identity")
def test_criterion_8():
    t0 = time.perf_counter()
    rng = random.Random(28)
    for label in ("A2", "A3", "A4", "B3"):
        rs = rootsys.build(label)
        inst = cone.canonical_instance(rs)
        zero = support.zeros(rs.rank)
        for _ in range(100):
            d = support.rand_positive_vec(rng, rs.rank)
            lam = support.rand_vec(rng, rs.rank)
            i = rng.randrange(rs.rank)
            assert support.u_identity_check(inst, i, d, lam), (label, i, d, lam)
            # anchors: the full height at the origin, zero on the wall point
            assert support.u_value(inst, i, d, zero) == cone.nu_of(inst, i, d)
            assert support.u_value(inst, i, d, cone.r_i_general(inst, i, d)) == 0
    assert time.perf_counter() - t0 < 5.0


@criterion(9, "elimination membership matches the direct test, witnesses check out")
def test_criterion_9():
    t0 = time.perf_counter()
    rng = random.Random(29)
    for label in ("A2", "A3", "A4", "B3", "G2"):
        rs = rootsys.build(label)
        inst = cone.canonical_instance(rs)
        for k in range(200):
            d = support.rand_vec(rng, rs.rank, lo=0, hi=3, max_den=10)
            assert cone.general_member(inst, d) == cone.member(rs, d), (label, d)
            if k < 25:
                for system in cone.general_member_systems(inst, d):
                    fb = exactla.feasible(system)
                    if fb:
                        assert system.satisfies(fb.witness), (label, d)
    assert time.perf_counter() - t0 < 30.0


@criterion(10, "strictly dominant points are members, members are positive")
def test_criterion_10():
    t0 = time.perf_counter()
    rng = random.Random(30)
    types = rootsys.all_types(8)
    for t in types:
        rs = rootsys.build(str(t))
        for _ in range(31):  # 31 * 33 types > 1000 points
            x = support.sample_dominant(rs, rng, strict=True)
            assert cone.member(rs, x, mode="open"), (str(t), x)
        for _ in range(30):
            x = support.sample_member(rs, rng)
            assert all(c > 0 for c in x), (str(t), x)
    assert time.perf_counter() - t0 < 5.0
