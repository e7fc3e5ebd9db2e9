"""Tests for the cone description, membership routes, cross-section
polytopes, and pulled-back instances."""

import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import support
from coterie import arrangement as arrmod
from coterie import cone, exactla, faces, rootsys
from coterie.cone import (
    CrossSection,
    DegenerateInstanceError,
    GeneralCoterieInstance,
    InstanceFormatError,
    MembershipPreconditionError,
    additivity_check,
    canonical_instance,
    cross_section,
    epsilon_i,
    general_member,
    general_member_systems,
    inequalities,
    member,
    member_all,
    nu_of,
    ordered_pairs,
    parse_instance,
    polytope_vertices,
    orbit_polytope_vertices,
    r_alpha,
    r_i_general,
    ratio,
    u_identity_check,
    u_value,
)
from coterie.exactla import EQ, GE, GT, ResourceCapError

DATA = Path(__file__).parent / "data"

F = Fraction

type_labels = st.sampled_from([str(t) for t in rootsys.all_types(6)])


@st.composite
def type_and_point(draw):
    rs = rootsys.build(draw(type_labels))
    x = tuple(
        draw(st.fractions(min_value=-2, max_value=4, max_denominator=12))
        for _ in range(rs.rank)
    )
    return rs, x


class TestDescription:
    def test_a2_open_rows(self):
        desc = inequalities(rootsys.build("A2"))
        rows = {
            (tuple(c.functional), c.rel, c.bound)
            for c in desc.open_system.constraints
        }
        assert rows == {
            ((F(1), F(0)), GT, F(0)),
            ((F(0), F(1)), GT, F(0)),
            ((F(1), F(-1, 2)), GT, F(0)),
            ((F(-1, 2), F(1)), GT, F(0)),
        }

    def test_closed_relaxes_to_ge(self):
        desc = inequalities(rootsys.build("B3"))
        assert {c.rel for c in desc.closed_system.constraints} == {GE}
        assert [tuple(c.functional) for c in desc.closed_system.constraints] == [
            tuple(c.functional) for c in desc.open_system.constraints
        ]

    def test_reduced_row_count(self):
        """rank positivity rows plus two per tree edge."""
        for label in ("A5", "D6", "E8", "G2"):
            rs = rootsys.build(label)
            desc = inequalities(rs)
            assert len(desc.open_system.constraints) == rs.rank + 2 * len(rs.edges)

    def test_full_row_count(self):
        rs = rootsys.build("B4")
        desc = inequalities(rs, reduced=False)
        assert len(desc.open_system.constraints) == rs.rank + rs.rank * (rs.rank - 1)

    def test_reduced_pairs_subset_of_full(self):
        rs = rootsys.build("D5")
        assert set(ordered_pairs(rs, True)) <= set(ordered_pairs(rs, False))

    def test_cached(self):
        rs = rootsys.build("E6")
        assert inequalities(rs) is inequalities(rs)


class TestRatio:
    def test_g2_ratios(self):
        rs = rootsys.build("G2")
        assert ratio(rs, 0, 1) == F(3, 2)
        assert ratio(rs, 1, 0) == F(1, 2)

    def test_a4_chain_ratios(self):
        rs = rootsys.build("A4")
        assert ratio(rs, 0, 1) == F(1, 2)
        assert ratio(rs, 1, 0) == F(3, 4)
        assert ratio(rs, 2, 3) == F(3, 4)
        assert ratio(rs, 3, 2) == F(1, 2)


class TestRAlpha:
    def test_g2_example(self):
        assert r_alpha(rootsys.build("G2"), (7, 4), 1) == 2

    def test_a4_example(self):
        assert r_alpha(rootsys.build("A4"), (1, 1, 1, 1), 0) == F(5, 4)

    def test_scales_linearly(self):
        rs = rootsys.build("C3")
        x = (F(1, 3), F(2), F(5, 7))
        for a in range(3):
            assert r_alpha(rs, support.vec_scale(6, x), a) == 6 * r_alpha(rs, x, a)


class TestMember:
    def test_g2_worked_point(self):
        rs = rootsys.build("G2")
        assert member(rs, (7, 4))
        assert member(rs, (1, 2)) is False

    def test_boundary_point(self):
        """A ray is a closed member but not an open member."""
        rs = rootsys.build("A2")
        x = (F(1, 2), F(1))
        assert member(rs, x, mode="closed")
        assert not member(rs, x, mode="open")

    def test_origin_closed_only(self):
        rs = rootsys.build("B2")
        z = (0, 0)
        assert member(rs, z, mode="closed")
        assert not member(rs, z, mode="open")

    def test_mode_and_method_validated(self):
        rs = rootsys.build("A2")
        with pytest.raises(ValueError):
            member(rs, (1, 1), mode="half-open")
        with pytest.raises(ValueError):
            member(rs, (1, 1), method="guess")
        with pytest.raises(ValueError):
            member(rs, (1, 1, 1))

    @given(data=type_and_point())
    @settings(max_examples=120, deadline=None)
    def test_methods_agree(self, data):
        """The evaluation, full-system, and geometric routes give one answer."""
        rs, x = data
        for mode in ("open", "closed"):
            results = member_all(rs, x, mode=mode)
            assert len(set(results.values())) == 1

    @given(data=type_and_point())
    @settings(max_examples=60, deadline=None)
    def test_open_implies_closed(self, data):
        rs, x = data
        if member(rs, x, mode="open"):
            assert member(rs, x, mode="closed")

    def test_sampled_interior_points_pass(self):
        rng = random.Random(20260823)
        for label in ("A3", "B3", "C4", "D4", "F4", "G2"):
            rs = rootsys.build(label)
            for _ in range(25):
                x = support.sample_member(rs, rng)
                assert member(rs, x, method="geometric")

    def test_members_have_positive_coords(self):
        rng = random.Random(4)
        rs = rootsys.build("D4")
        for _ in range(50):
            x = support.rand_vec(rng, 4)
            if member(rs, x):
                assert all(v > 0 for v in x)


def oracle_points(rs, seed) -> list:
    """Seeded points for the comparison with the Fraction route: the origin,
    interior points, the same points with one coordinate zeroed or with the
    first entry negated, random points, and points exactly on walls (an
    extremal ray, and the sum of two rays that share the wall at one edge)."""
    rng = random.Random(seed)
    n = rs.rank
    points = [support.zeros(n)]
    for _ in range(4):
        x = support.sample_member(rs, rng)
        k = rng.randrange(n)
        points.append(x)
        points.append(tuple(F(0) if i == k else c for i, c in enumerate(x)))
        points.append((-x[0],) + x[1:])
        points.append(support.rand_vec(rng, n))
    m = len(rs.edges)
    for _ in range(4 if m else 0):
        s = [rng.choice((faces.LEFT, faces.RIGHT)) for _ in range(m)]
        t = [rng.choice((faces.LEFT, faces.RIGHT)) for _ in range(m)]
        pos = rng.randrange(m)
        t[pos] = s[pos]
        u, _ = faces._propagate_ray(rs, s)
        v, _ = faces._propagate_ray(rs, t)
        scale = F(rng.randint(1, 9), rng.randint(1, 9))
        points.append(tuple(scale * c for c in u))
        points.append(tuple(scale * (a + b) for a, b in zip(u, v)))
    return points


def route_disagreements(rs, points) -> list:
    """(point, mode, method) wherever a library route differs from the
    Fraction weight-residual oracle."""
    out = []
    for x in points:
        for mode in ("open", "closed"):
            want = oracles.member_geometric_by_fractions(rs, x, strict=(mode == "open"))
            for method in ("edges", "full", "geometric"):
                if member(rs, x, mode, method) != want:
                    out.append((x, mode, method))
    return out


class TestRoutesAgainstFractionOracle:
    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types()])
    def test_routes_match_oracle(self, label):
        rs = rootsys.build(label)
        points = oracle_points(rs, label)
        assert route_disagreements(rs, points) == []
        for mode in ("open", "closed"):
            verdicts = {oracles.member_geometric_by_fractions(rs, x, mode == "open") for x in points}
            assert verdicts == {True, False}, mode

    @pytest.mark.parametrize("label", ["A4", "B3", "D5", "E7", "G2"])
    def test_weight_off_by_one_is_caught(self, label):
        rs = rootsys.build(label)
        b, a = rs.edges[0]
        weights = [list(row) for row in rs.weights]
        weights[b][a] += 1
        planted = dataclasses.replace(rs, weights=tuple(map(tuple, weights)))
        caught = {method for _, _, method in route_disagreements(planted, oracle_points(rs, label))}
        assert caught == {"edges", "full", "geometric"}

    def test_flipped_residual_sign_is_caught(self, monkeypatch):
        residual = cone._weight_residual
        monkeypatch.setattr(cone, "_weight_residual", lambda *args: tuple(-v for v in residual(*args)))
        rs = rootsys.build("E6")
        caught = {method for _, _, method in route_disagreements(rs, oracle_points(rs, "E6"))}
        assert caught == {"geometric"}


class TestAdditivity:
    def test_sum_of_members_is_member(self):
        rng = random.Random(11)
        rs = rootsys.build("B3")
        for _ in range(20):
            x = support.sample_member(rs, rng)
            y = support.sample_member(rs, rng)
            assert additivity_check(rs, x, y)

    def test_requires_membership(self):
        rs = rootsys.build("A2")
        with pytest.raises(MembershipPreconditionError):
            additivity_check(rs, (1, 1), (-1, 1))


class TestCrossSection:
    def test_a2_unit_vertices(self):
        cs = cross_section(rootsys.build("A2"), (1, 1))
        assert polytope_vertices(cs) == (
            (F(0), F(0)),
            (F(1, 2), F(1)),
            (F(1), F(1, 2)),
            (F(1), F(1)),
        )

    def test_rank_one(self):
        cs = cross_section(rootsys.build("A1"), (1,))
        assert polytope_vertices(cs) == ((F(0),), (F(1),))

    def test_vertices_satisfy_system(self):
        rs = rootsys.build("B3")
        cs = cross_section(rs, (2, F(3, 2), 1))
        verts = polytope_vertices(cs)
        assert verts
        for v in verts:
            assert cs.system.satisfies(v)
            assert member(rs, v, mode="closed")
            assert all(a <= b for a, b in zip(v, cs.y))

    def test_zero_bound_collapses(self):
        cs = cross_section(rootsys.build("A2"), (0, 0))
        assert polytope_vertices(cs) == ((F(0), F(0)),)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            cross_section(rootsys.build("A2"), (1, -1))

    def test_subset_cap(self):
        cs = cross_section(rootsys.build("D4"), (1, 1, 1, 1))
        with pytest.raises(ResourceCapError):
            polytope_vertices(cs, subset_cap=3)

    def test_orbit_closure_a2(self):
        rs = rootsys.build("A2")
        cs = cross_section(rs, (1, 1))
        orbit = orbit_polytope_vertices(rs, cs)
        assert len(orbit) == 13
        base = set(polytope_vertices(cs))
        assert base <= set(orbit)

    def test_orbit_closure_a1(self):
        rs = rootsys.build("A1")
        cs = cross_section(rs, (1,))
        assert set(orbit_polytope_vertices(rs, cs)) == {(F(0),), (F(1),), (F(-1),)}


class TestReduction:
    """The edge conditions generate the full pair system."""

    def test_full_rows_hold_on_reduced_members(self):
        rng = random.Random(99)
        for label in ("A4", "B4", "C4", "D5", "E6", "F4", "G2"):
            rs = rootsys.build(label)
            full = inequalities(rs, reduced=False)
            for _ in range(10):
                x = support.sample_member(rs, rng)
                assert full.open_system.satisfies(x)

    def test_ratio_telescopes_along_paths(self):
        """ratio(b, a) equals the product of edge ratios along the tree path."""
        for label in ("A5", "D5", "E7", "F4"):
            rs = rootsys.build(label)
            for b, a in ordered_pairs(rs, False):
                path = rootsys.tree_path(rs, b, a)
                prod = F(1)
                for u, v in zip(path, path[1:]):
                    prod *= ratio(rs, u, v)
                assert prod == ratio(rs, b, a)


class TestInstanceValidation:
    def test_canonical_round_trip(self):
        inst = canonical_instance(rootsys.build("B3"))
        assert inst.shift_dim == 3
        for i in range(3):
            comp = inst.composite(i)
            assert comp == tuple(exactla.unit(3, i))

    def test_composite_mismatch_rejected(self):
        rs = rootsys.build("A2")
        arr = arrmod.canonical_arrangement(rs)
        with pytest.raises(DegenerateInstanceError):
            GeneralCoterieInstance(
                arr=arr, theta_star=((1, 0), (0, 1)), nu=((1, 1), (0, 1))
            )

    def test_wrong_nu_count_rejected(self):
        rs = rootsys.build("A2")
        arr = arrmod.canonical_arrangement(rs)
        with pytest.raises(DegenerateInstanceError):
            GeneralCoterieInstance(arr=arr, theta_star=((1, 0), (0, 1)), nu=((1, 0),))

    def test_parse_sample_file(self):
        inst = parse_instance((DATA / "instance_a2.txt").read_text())
        assert inst.shift_dim == 3
        assert inst.composite(0) == (F(1), F(0))
        assert inst.composite(1) == (F(0), F(1))

    def test_parse_rejects_missing_sections(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("type A2\n-1 0\n0 -1\n")

    def test_parse_rejects_bad_row(self):
        text = "type A2\n-1 0\n0 -1\ntheta\n1 0\nx 1\nnu\n-1 0\n0 -1\n"
        with pytest.raises(InstanceFormatError):
            parse_instance(text)


class TestInstanceGeometry:
    def test_canonical_r_is_weight_direction(self):
        """For the canonical instance the i-th wall vector is the multiple of
        the i-th weight with nu_i value matching the scaled pairing."""
        for label in ("A3", "C3", "G2"):
            rs = rootsys.build(label)
            inst = canonical_instance(rs)
            rng = random.Random(5)
            for i in range(rs.rank):
                delta = support.rand_positive_vec(rng, rs.rank)
                r = r_i_general(inst, i, delta)
                w = rootsys.fundamental_weight(rs, i)
                # parallel: r x w = 0 in every 2x2 minor
                for p in range(rs.rank):
                    for q in range(p + 1, rs.rank):
                        assert r[p] * w[q] == r[q] * w[p]
                assert nu_of(inst, i, r) == nu_of(inst, i, delta)

    def test_epsilon_scaling(self):
        """Scaling delta by t scales the wall vector by t, so epsilon by 1/t."""
        rs = rootsys.build("A2")
        inst = canonical_instance(rs)
        d = (F(3), F(2))
        assert epsilon_i(inst, 0, support.vec_scale(2, d)) == epsilon_i(inst, 0, d) / 2

    def test_u_identity_random(self):
        rng = random.Random(17)
        for label in ("A2", "B3", "G2"):
            rs = rootsys.build(label)
            inst = canonical_instance(rs)
            for _ in range(20):
                delta = support.rand_positive_vec(rng, rs.rank)
                lam = support.rand_vec(rng, rs.rank)
                for i in range(rs.rank):
                    assert u_identity_check(inst, i, delta, lam)

    def test_u_anchor_values(self):
        rs = rootsys.build("A2")
        inst = canonical_instance(rs)
        delta = (F(2), F(3))
        for i in range(2):
            assert u_value(inst, i, delta, support.zeros(2)) == nu_of(inst, i, delta)
            r = r_i_general(inst, i, delta)
            assert u_value(inst, i, delta, r) == 0

    def test_zero_nu_gives_zero_wall(self):
        """nu_i(delta) = 0 degenerates the wall vector to the origin."""
        rs = rootsys.build("A2")
        inst = canonical_instance(rs)
        assert r_i_general(inst, 0, (0, 0)) == tuple(support.zeros(2))
        assert r_i_general(inst, 0, (0, 5)) == tuple(support.zeros(2))


class TestGeneralMember:
    def test_matches_direct_membership_on_canonical(self):
        rng = random.Random(31)
        for label in ("A2", "A3", "B3", "G2"):
            rs = rootsys.build(label)
            inst = canonical_instance(rs)
            hits = 0
            for _ in range(60):
                d = support.rand_vec(rng, rs.rank, lo=0, hi=3, max_den=12)
                want = member(rs, d, mode="open")
                assert general_member(inst, d) == want
                hits += want
            assert hits > 0

    def test_negative_nu_precondition(self):
        inst = canonical_instance(rootsys.build("A2"))
        with pytest.raises(MembershipPreconditionError):
            general_member(inst, (-1, 1))

    def test_zero_delta_not_member(self):
        inst = canonical_instance(rootsys.build("A2"))
        assert general_member(inst, (0, 0)) is False

    def test_noncanonical_instance_agrees(self):
        """Pulled back through an injective shift map, membership of delta
        reduces to membership of the composed point."""
        inst = parse_instance((DATA / "instance_a2.txt").read_text())
        rs = inst.rs
        rng = random.Random(8)
        hits = 0
        for _ in range(60):
            d = support.rand_vec(rng, 3, lo=0, hi=2, max_den=9)
            values = tuple(nu_of(inst, i, d) for i in range(2))
            if any(v < 0 for v in values):
                continue
            got = general_member(inst, d)
            hits += got
            assert got == member(rs, values)
        assert hits > 0

    def test_row_cap(self):
        inst = canonical_instance(rootsys.build("A3"))
        with pytest.raises(ResourceCapError):
            general_member(inst, (1, 2, 1), max_rows=2)

    def test_systems_shape(self):
        inst = canonical_instance(rootsys.build("A2"))
        systems = general_member_systems(inst, (2, 3))
        assert len(systems) == 2
        for i, sys_i in enumerate(systems):
            rels = [c.rel for c in sys_i.constraints]
            assert rels.count(EQ) == 1
