"""Tests for the cone description, membership routes, cross-section
polytopes, and pulled-back instances."""

import dataclasses
import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import support
from coterie import _kernels_py as kernels
from coterie import arrangement as arrmod
from coterie import cone, exactla, faces, rootsys
from coterie.cone import (
    CrossSection,
    DegenerateInstanceError,
    GeneralCoterieInstance,
    InstanceFormatError,
    MembershipPreconditionError,
    canonical_instance,
    cross_section,
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
    r_i_general,
)
from coterie.exactla import EQ, GE, GT, ConeSystem, ResourceCapError
from coterie.rootsys import ratio

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

    def test_one_cache_entry_per_call_form(self):
        """A positional warm-up serves the keyword call of member's routes."""
        rs = rootsys.build("E6")
        assert inequalities(rs) is inequalities(rs, reduced=True)
        assert inequalities(rs, False) is inequalities(rs, reduced=False)


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
        assert support.r_alpha(rootsys.build("G2"), (7, 4), 1) == 2

    def test_a4_example(self):
        assert support.r_alpha(rootsys.build("A4"), (1, 1, 1, 1), 0) == F(5, 4)

    def test_scales_linearly(self):
        rs = rootsys.build("C3")
        x = (F(1, 3), F(2), F(5, 7))
        for a in range(3):
            assert support.r_alpha(rs, support.vec_scale(6, x), a) == 6 * support.r_alpha(rs, x, a)


ALL_LABELS = [str(t) for t in rootsys.all_types()]
GMEMBER_LABELS = [str(t) for t in rootsys.all_types(8) if t.rank >= 2]  # the benchmark's shift ranks


@st.composite
def workload_point(draw, labels=ALL_LABELS, shapes=("interior", "random", "ray")):
    """(rs, x, shape): a type and a Fraction point as the queries benchmark
    builds them, with denominators from 10**9 to 10**12 when big: an
    interior point (each coordinate strictly inside the interval its tree
    parent leaves open), a random point, or a multiple of an extremal ray
    (every edge tight on one side).  Rank 1 has no boundary ray."""
    rs = rootsys.build(draw(st.sampled_from(labels)))
    shape = draw(st.sampled_from([k for k in shapes if rs.rank > 1 or k != "ray"]))
    big = draw(st.booleans())

    def den(lo):
        return draw(st.integers(10**9, 10**12) if big else st.integers(lo, 12))

    if shape == "random":
        x = []
        for _ in range(rs.rank):
            d = den(1)
            x.append(F(draw(st.integers(-5 * d, 40 * d)), d))
        return rs, tuple(x), shape
    c = rs.inv_coeffs
    x = [None] * rs.rank
    for node, parent in support.bfs_order(rs):
        if parent is None:
            x[node] = F(draw(st.integers(1, 200)), draw(st.integers(1, 30))) if shape == "interior" else F(1)
            continue
        lo = x[parent] * c[node][parent] / c[parent][parent]
        hi = x[parent] * c[node][node] / c[parent][node]
        if shape == "interior":
            d = den(2)
            x[node] = lo + F(draw(st.integers(1, d - 1)), d) * (hi - lo)
        else:
            x[node] = draw(st.sampled_from((lo, hi)))
    if shape == "ray":
        d = den(1)
        scale = F(draw(st.integers(1, 50 * d)), d)
        x = [scale * v for v in x]
    return rs, tuple(x), shape


class TestQueriesAsTheBenchmarkBuildsThem:
    @given(data=workload_point())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_member_all_equals_each_route_on_the_uncleared_point(self, data):
        """member_all clears the point once; each route called on the point
        as given must agree with it, in both modes, on all 49 types."""
        rs, x, shape = data
        for mode in ("open", "closed"):
            verdicts = member_all(rs, x, mode)
            assert verdicts == {m: member(rs, x, mode, m) for m in ("edges", "full", "geometric")}
            if shape == "interior":
                assert verdicts["edges"] is True
            if shape == "ray":
                assert verdicts["edges"] is (mode == "closed")

    @given(data=workload_point(labels=GMEMBER_LABELS, shapes=("interior",)))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_feasible_repr_shows_the_fraction_witness(self, data):
        """The witness comparisons with the Fraction oracles compare reprs:
        a feasible wall system's repr holds its witness as Fractions."""
        rs, x, _ = data
        for system in general_member_systems(canonical_instance(rs), x):
            result = exactla.feasible(system)
            assert result.feasible and all(type(w) is Fraction for w in result.witness)
            assert repr(result) == f"Feasibility(feasible=True, witness={result.witness!r})"
            assert "Fraction(" in repr(result) and system.satisfies(result.witness)


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
    full = (faces.LEFT, faces.RIGHT)
    rays = dict(zip(product(full, repeat=m), oracles.propagated_rays(rs, full)))
    for _ in range(4 if m else 0):
        s = [rng.choice((faces.LEFT, faces.RIGHT)) for _ in range(m)]
        t = [rng.choice((faces.LEFT, faces.RIGHT)) for _ in range(m)]
        pos = rng.randrange(m)
        t[pos] = s[pos]
        u, _ = rays[tuple(s)]
        v, _ = rays[tuple(t)]
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


def description_mismatches(desc) -> list:
    """(mode, row index) wherever a description's row differs from the
    dense Fraction build of oracles.inequalities_by_fractions in its
    relation, its bound, its functional as rationals or the text of its
    entries, and (mode, "rows") where ConeSystem's cleared rows differ."""
    out = []
    systems = (desc.open_system, desc.closed_system)
    for mode, got, want in zip(("open", "closed"), systems, oracles.inequalities_by_fractions(desc.rs, desc.reduced)):
        assert got.dim == want.dim and len(got.constraints) == len(want.constraints)
        if got._rows != want._rows:
            out.append((mode, "rows"))
        for k, (c, w) in enumerate(zip(got.constraints, want.constraints)):
            same_text = list(map(str, c.functional)) == list(map(str, w.functional))
            if (c.functional, c.rel, c.bound) != (w.functional, w.rel, w.bound) or not same_text:
                out.append((mode, k))
    return out


def unshared_rows(cold: bool = False) -> list:
    """(type, reduced) wherever a closed row does not hold the very terms
    of its open row, with the same bound and the GE relation code; cold
    builds the descriptions past the cache."""
    build = cone._inequalities.__wrapped__ if cold else inequalities
    out = []
    for t in rootsys.all_types():
        for reduced in (True, False):
            desc = build(rootsys.build(str(t)), reduced)
            for (terms, bound, rel), (cterms, cbound, crel) in zip(
                desc.open_system._rows, desc.closed_system._rows, strict=True
            ):
                if not (cterms is terms and cbound == bound and (rel, crel) == (kernels.REL_GT, kernels.REL_GE)):
                    out.append((str(t), reduced))
                    break
    return out


def clearings_per_cold_build() -> int:
    """exactla._clear_terms calls in one uncached build of every type's
    reduced and full descriptions."""
    honest = exactla._clear_terms
    calls = []

    def counted(functional, bound):
        calls.append(1)
        return honest(functional, bound)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "_clear_terms", counted)
        for t in rootsys.all_types():
            rs = rootsys.build(str(t))
            for reduced in (True, False):
                cone._inequalities.__wrapped__(rs, reduced)
    return len(calls)


class TestDescriptionAgainstFractionOracle:
    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types()])
    def test_matches_dense_fraction_build(self, label):
        rs = rootsys.build(label)
        for reduced in (True, False):
            assert description_mismatches(inequalities(rs, reduced)) == []

    def test_rows_are_shared_and_hold_one_fraction(self):
        """Each functional is built once for both systems: positivity rows
        are int unit rows, pair rows hold -ratio as their only Fraction."""
        rs = rootsys.build("E8")
        desc = inequalities(rs, reduced=False)
        for c, d in zip(desc.open_system.constraints, desc.closed_system.constraints, strict=True):
            assert c.functional is d.functional and type(c.bound) is type(d.bound) is int
        for k, c in enumerate(desc.open_system.constraints):
            kinds = [type(q) for q in c.functional]
            assert kinds.count(Fraction) == (0 if k < rs.rank else 1)

    def test_closed_rows_share_the_open_rows_terms(self):
        """Every type, both forms: the closed system holds the open system's
        cleared terms, and a cold build clears no functional, since every
        row is built already cleared."""
        assert unshared_rows() == []
        assert clearings_per_cold_build() == 0

    def test_planted_fresh_closed_rows_are_caught(self, monkeypatch):
        """Closed rows built by fresh constraint(f, GE) calls: same rows,
        but no longer shared, and every closed row cleared once."""
        monkeypatch.setattr(
            exactla.LinearConstraint, "with_rel", lambda c, rel: exactla.constraint(c.functional, rel, c.bound)
        )
        labels = {str(t) for t in rootsys.all_types()}
        assert {label for label, _ in unshared_rows(cold=True)} == labels
        assert clearings_per_cold_build() == sum(
            len(inequalities(rootsys.build(str(t)), reduced).closed_system.constraints)
            for t in rootsys.all_types()
            for reduced in (True, False)
        )

    @pytest.mark.parametrize("label", ["A4", "B3", "D5", "E7", "G2"])
    def test_planted_open_row_in_closed_system_is_caught(self, label):
        desc = inequalities(rootsys.build(label), reduced=False)
        cons = list(desc.closed_system.constraints)
        cons[-1] = dataclasses.replace(cons[-1], rel=GT)
        planted = dataclasses.replace(desc, closed_system=ConeSystem(desc.rs.rank, tuple(cons)))
        assert description_mismatches(planted) == [("closed", "rows"), ("closed", len(cons) - 1)]

    @pytest.mark.parametrize("label", ["A4", "B3", "D5", "E7", "G2"])
    def test_planted_inverted_ratio_is_caught(self, monkeypatch, label):
        rs = rootsys.build(label)
        pairs = ordered_pairs(rs)
        wrong = next(p for p in pairs if ratio(rs, *p) != 1)
        honest = rootsys.pair_row

        def inverted(rs, b, a):
            # the (b, a) row of the ratio's inverse: its b and -a entries
            # swapped
            row = list(honest(rs, b, a))
            if (b, a) == wrong:
                row[b], row[a] = -row[a], -row[b]
            return tuple(row)

        monkeypatch.setattr(rootsys, "pair_row", inverted)
        # the uncached build, so the cached description stays as it is
        planted = cone._inequalities.__wrapped__(rs, True)
        k = rs.rank + pairs.index(wrong)
        assert description_mismatches(planted) == [("open", "rows"), ("open", k), ("closed", "rows"), ("closed", k)]


class TestAdditivity:
    def test_sum_of_members_is_member(self):
        rng = random.Random(11)
        rs = rootsys.build("B3")
        for _ in range(20):
            x = support.sample_member(rs, rng)
            y = support.sample_member(rs, rng)
            assert support.additivity_check(rs, x, y)

    def test_requires_membership(self):
        rs = rootsys.build("A2")
        with pytest.raises(MembershipPreconditionError):
            support.additivity_check(rs, (1, 1), (-1, 1))


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
        with pytest.raises(ValueError, match="node 2 is -1$"):
            cross_section(rootsys.build("A2"), (1, -1))

    def test_subset_cap(self, monkeypatch):
        monkeypatch.setattr(cone, "SUBSET_CAP", 3)
        cs = cross_section(rootsys.build("D4"), (1, 1, 1, 1))
        with pytest.raises(ResourceCapError):
            polytope_vertices(cs)

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

    @pytest.mark.parametrize("label", ["B3", "A2"])
    def test_orbit_needs_the_sections_root_system(self, label):
        """B3's reflections would close a C3 section to 57 points instead
        of its 27, and A2's fail on the length of its points."""
        cs = cross_section(rootsys.build("C3"), (1, 1, 1))
        with pytest.raises(ValueError, match=f"cross-section of C3 cannot take the Weyl group of {label}$"):
            orbit_polytope_vertices(rootsys.build(label), cs)
        assert len(orbit_polytope_vertices(rootsys.build("C3"), cs)) == 27

    def test_orbit_cap(self, monkeypatch):
        """The C3 section's orbit has 27 points: refused one below that,
        and closed in full at it."""
        rs = rootsys.build("C3")
        cs = cross_section(rs, (1, 1, 1))
        monkeypatch.setattr(arrmod, "ORBIT_CAP", 26)
        with pytest.raises(ResourceCapError, match="^orbit closure exceeds the cap 26$"):
            orbit_polytope_vertices(rs, cs)
        monkeypatch.setattr(arrmod, "ORBIT_CAP", 27)
        assert len(orbit_polytope_vertices(rs, cs)) == 27


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
                path = support.tree_path(rs, b, a)
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

    @pytest.mark.parametrize("wall", [-1, 2])
    def test_wall_index_out_of_range_rejected(self, wall):
        """A negative index would read the last wall and the wall count would
        raise IndexError; both are domain errors, which are ValueErrors."""
        inst = parse_instance((DATA / "instance_a2.txt").read_text())
        for call in (
            lambda: inst.composite(wall),
            lambda: nu_of(inst, wall, (1, 1, 1)),
            lambda: r_i_general(inst, wall, (1, 1, 1)),
        ):
            with pytest.raises(ValueError, match=f"wall {wall} out of range for 2 walls"):
                call()

    def test_cleared_nu_is_private_and_built_once(self):
        """Each nu row is cleared once, to (N_j, d_j), and the dominance
        rows are built once, with the instance; neither enters eq, hash or
        repr, and every shift's wall systems hold the same dominance rows."""
        plain = parse_instance((DATA / "instance_a2.txt").read_text())
        inst, _ = rescaled(plain, [], (F(1, 2), F(1, 3), F(1)))
        assert inst.nu == ((0, F(-1, 3), 1), (F(-1, 2), 0, 1))
        assert inst._nu_ints == ((((1, -1), (2, 3)), 3), (((0, -1), (2, 2)), 2))
        twin = dataclasses.replace(plain, theta_star=inst.theta_star, nu=inst.nu)
        assert twin == inst and hash(twin) == hash(inst) and twin._nu_ints == inst._nu_ints
        assert "_nu_ints" not in repr(inst) and "_dominance" not in repr(inst)
        for delta in ((1, 1, 3), (F(1, 2), 0, 2)):
            for system in general_member_systems(inst, delta):
                assert all(a is b for a, b in zip(system.constraints, inst._dominance, strict=False))
        # the canonical instance is built once per root system
        rs = rootsys.build("D5")
        assert canonical_instance(rs) is canonical_instance(rootsys.build("D5"))
        assert canonical_instance(rs) == cone.canonical_instance.__wrapped__(rs)

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
                w = support.fundamental_weight(rs, i)
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
        assert support.epsilon_i(inst, 0, support.vec_scale(2, d)) == support.epsilon_i(inst, 0, d) / 2

    def test_u_identity_random(self):
        rng = random.Random(17)
        for label in ("A2", "B3", "G2"):
            rs = rootsys.build(label)
            inst = canonical_instance(rs)
            for _ in range(20):
                delta = support.rand_positive_vec(rng, rs.rank)
                lam = support.rand_vec(rng, rs.rank)
                for i in range(rs.rank):
                    assert support.u_identity_check(inst, i, delta, lam)

    def test_u_anchor_values(self):
        rs = rootsys.build("A2")
        inst = canonical_instance(rs)
        delta = (F(2), F(3))
        for i in range(2):
            assert support.u_value(inst, i, delta, support.zeros(2)) == nu_of(inst, i, delta)
            r = r_i_general(inst, i, delta)
            assert support.u_value(inst, i, delta, r) == 0

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

    def test_row_cap(self, monkeypatch):
        monkeypatch.setattr(exactla, "ROW_CAP", 2)
        inst = canonical_instance(rootsys.build("A3"))
        with pytest.raises(ResourceCapError):
            general_member(inst, (1, 2, 1))

    def test_systems_shape(self):
        inst = canonical_instance(rootsys.build("A2"))
        systems = general_member_systems(inst, (2, 3))
        assert len(systems) == 2
        for i, sys_i in enumerate(systems):
            rels = [c.rel for c in sys_i.constraints]
            assert rels.count(EQ) == 1

    def test_rows_are_built_once(self):
        """The dominance rows, and each wall's strict row, are one object
        shared by every system that holds them."""
        inst = canonical_instance(rootsys.build("A3"))
        systems = general_member_systems(inst, (1, 2, 1))
        for k in range(6):
            shared = {id(s.constraints[k]) for i, s in enumerate(systems) if k != 3 + i}
            assert len(shared) == 1

    @pytest.mark.parametrize("form", [tuple, list, iter], ids=["tuple", "list", "iterator"])
    def test_shift_may_be_any_iterable(self, form):
        inst, _ = a2_file_shifts()
        for delta in ((1, 1, 3), (0, 1, 3), (2, 1, 3), (F(1, 2), 0, 2), (1, 1, 1)):
            assert [nu_of(inst, i, form(delta)) for i in range(2)] == [nu_of(inst, i, delta) for i in range(2)]
            assert r_i_general(inst, 0, form(delta)) == r_i_general(inst, 0, delta)
            got = general_member_systems(inst, form(delta))
            assert [s._rows for s in got] == [s._rows for s in general_member_systems(inst, delta)]
            assert general_member(inst, form(delta)) == general_member(inst, delta)
        with pytest.raises(ValueError, match="shift has length 2, expected 3"):
            nu_of(inst, 0, form((1, 1)))
        with pytest.raises(ValueError, match="shift has length 2, expected 3"):
            r_i_general(inst, 0, form((1, 1)))
        with pytest.raises(ValueError, match="shift has length 2, expected 3"):
            general_member_systems(inst, form((1, 1)))

    def test_shift_is_cleared_once_per_call(self, monkeypatch):
        """general_member clears its shift once and builds every wall system
        from those heights; the traced general_member_systems stays the
        wrapper over the same build."""
        honest = cone._shift_heights
        calls = []

        def counted(inst, delta):
            calls.append(delta)
            return honest(inst, delta)

        monkeypatch.setattr(cone, "_shift_heights", counted)
        inst = canonical_instance(rootsys.build("B3"))
        assert general_member(inst, (2, 3, F(7, 2))) is True
        assert general_member(inst, (2, 0, 4)) is False
        assert len(calls) == 2
        general_member_systems(inst, (2, 0, 4))
        assert len(calls) == 3

    def test_shared_rows_are_reduced_once(self):
        """Building a fresh instance clears and gcd-reduces its n dominance
        rows, and each member shift its own wall rows, each once however
        many wall systems hold it; expanding the rows for elimination
        reduces nothing again."""
        rs = rootsys.build("D5")
        counts = clearings_per_shift(lambda: cone.canonical_instance.__wrapped__(rs), member_shifts(rs, 3))
        assert counts == ([rs.rank] * 4, [], 0)
        counts = clearings_per_shift(lambda: a2_file_shifts()[0], [(1, 1, 3), (0, 1, 3)])
        assert counts == ([2, 2, 2], [], 0)

    def test_planted_row_reused_from_another_shift_is_caught(self, monkeypatch):
        """A dense row looked up by the row's support, as a cache keyed by
        the wall would be, hands a later shift the first shift's wall rows:
        the comparison with the Fraction build reports the later shifts."""
        honest = exactla._initial_rows
        by_support = {}

        def keyed_by_support(system):
            rows = [
                by_support.setdefault((system.dim, tuple(i for i, _ in terms)), (terms, bound)) + (rel,)
                for terms, bound, rel in system._rows
            ]
            return honest(SimpleNamespace(dim=system.dim, _rows=rows))

        rs = rootsys.build("C4")
        inst = cone.canonical_instance.__wrapped__(rs)
        shifts = member_shifts(rs, 3)
        assert rows_unlike_fraction_build(inst, shifts) == []
        monkeypatch.setattr(exactla, "_initial_rows", keyed_by_support)
        assert rows_unlike_fraction_build(inst, shifts) == shifts[1:]


def member_shifts(rs, count) -> list:
    """Seeded interior points of the cone: on the canonical instance every
    wall system of such a shift is feasible, so each is eliminated."""
    rng = random.Random(rs.rank)
    return [support.sample_member(rs, rng) for _ in range(count)]


def dense_rows(system) -> tuple:
    """The oracle for exactla._initial_rows: each constraint cleared
    densely afresh (support.cleared) and gcd-reduced, as the equality rows
    (coeffs, bound) and the inequality rows (coeffs, bound, strict)."""
    rows = [(kernels._reduce_row(*support.cleared(c)[:2]), c.rel) for c in system.constraints]
    return [row for row, rel in rows if rel == EQ], [row + (rel == GT,) for row, rel in rows if rel != EQ]


def rows_unlike_fraction_build(inst, shifts) -> list:
    """The shifts whose wall systems' exactla._initial_rows differ from the
    Fraction-built oracle's rows, each cleared and gcd-reduced afresh."""
    out = []
    for delta in shifts:
        got = list(map(exactla._initial_rows, general_member_systems(inst, delta)))
        if got != list(map(dense_rows, oracles.general_member_systems_by_fractions(inst, delta))):
            out.append(delta)
    return out


def clearings_per_shift(build, shifts) -> tuple:
    """The exactla._clear_terms calls build() makes for a fresh instance,
    then general_member(inst, delta) for each shift in turn (every shift
    must be a member); the rows among them left with a gcd above 1; and
    the kernels._reduce_row calls exactla._initial_rows makes in all."""
    clearings, unreduced, reductions = [], [], []
    honest_clear = exactla._clear_terms
    honest_rows = exactla._initial_rows
    honest_reduce = kernels._reduce_row

    def counted_clear(functional, bound):
        terms, b = honest_clear(functional, bound)
        clearings.append(terms)
        if gcd(*(c for _, c in terms), b) > 1:
            unreduced.append((terms, b))
        return terms, b

    def counted_rows(system):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_reduce_row", lambda *row: reductions.append(row) or honest_reduce(*row))
            return honest_rows(system)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "_clear_terms", counted_clear)
        mp.setattr(exactla, "_initial_rows", counted_rows)
        inst = build()
        counts = [len(clearings)]
        for delta in shifts:
            clearings.clear()
            assert general_member(inst, delta) is True
            counts.append(len(clearings))
    return counts, unreduced, len(reductions)


def builder_systems(cold: bool = False):
    """(builder, type, system) for every constraint builder in the library:
    inequalities (all 49 types, reduced and full, open and closed),
    cross_section, faces.face_of, the canonical instances' dominance rows
    and wall systems, and the wall systems of the A2 shift file; cold
    builds the descriptions and instances past their caches."""
    describe = cone._inequalities.__wrapped__ if cold else inequalities
    instance = cone.canonical_instance.__wrapped__ if cold else canonical_instance
    rng = random.Random(19)
    for t in rootsys.all_types():
        rs = rootsys.build(str(t))
        for reduced in (True, False):
            desc = describe(rs, reduced)
            yield "inequalities", t, desc.open_system
            yield "inequalities", t, desc.closed_system
        for y in ((1,) * rs.rank, support.rand_positive_vec(rng, rs.rank, 3, 6)):
            yield "cross_section", t, cross_section(rs, y).system
        for _ in range(3):
            f = faces.Orientation(rs.edges, tuple(rng.choice(faces.STATES) for _ in rs.edges))
            yield "face_of", t, faces.face_of(rs, f).system
        inst = instance(rs)
        yield "dominance", t, ConeSystem(rs.rank, inst._dominance)
        for delta in canonical_shifts(rs, random.Random(str(t))):
            for system in general_member_systems(inst, delta):
                yield "wall systems", t, system
    inst, shifts = a2_file_shifts()
    for delta in shifts:
        for system in general_member_systems(inst, delta):
            yield "wall systems", "A2 file", system


def unlike_dense_oracle(systems) -> list:
    """(builder, type) wherever a constraint's cleared_terms are not the
    sparse form of its dense clearing divided by the gcd (support.cleared,
    kernels._reduce_row), or a system's exactla._initial_rows differ from
    those dense rows (dense_rows)."""
    out = []
    for builder, t, system in systems:
        want = []
        for c in system.constraints:
            coeffs, bound = kernels._reduce_row(*support.cleared(c)[:2])
            want.append((tuple((i, v) for i, v in enumerate(coeffs) if v), bound, exactla._REL_CODE[c.rel]))
        got = [c.cleared_terms for c in system.constraints]
        if (got != want or exactla._initial_rows(system) != dense_rows(system)) and (builder, t) not in out:
            out.append((builder, t))
    return out


def unreduced_clear_terms(functional, bound) -> tuple:
    """exactla._clear_terms without the division by the gcd."""
    terms = [(i, q) for i, q in enumerate(functional) if q]
    d = lcm(bound.denominator, *(q.denominator for _, q in terms))
    ints = tuple((i, q.numerator * (d // q.denominator)) for i, q in terms)
    return ints, bound.numerator * (d // bound.denominator)


class TestClearedRowsAgainstDenseOracle:
    def test_every_builder_matches(self):
        assert unlike_dense_oracle(builder_systems()) == []

    def test_planted_unreduced_clearing_is_caught(self, monkeypatch):
        """Rows with a common factor keep it without the division: some
        cross-section and dominance rows (B, C and F types), the wall rows
        of most shifts, and the rows the Fraction build checks.  The pair
        and positivity rows of inequalities and face_of are primitive."""
        rs = rootsys.build("B3")
        shifts = member_shifts(rs, 3)
        monkeypatch.setattr(exactla, "_clear_terms", unreduced_clear_terms)
        broken = unlike_dense_oracle(builder_systems(cold=True))
        assert {builder for builder, _ in broken} == {"cross_section", "dominance", "wall systems"}
        assert ("wall systems", "A2 file") in broken
        assert rows_unlike_fraction_build(cone.canonical_instance.__wrapped__(rs), shifts) == shifts


def single_wall_instance(label, functional, theta_star, nu):
    rs = rootsys.build(label)
    arr = arrmod.Arrangement(rs=rs, fundamental=(functional,))
    return GeneralCoterieInstance(arr=arr, theta_star=theta_star, nu=(nu,))


class TestBoundaryRules:
    """nu_j(delta) = 0 and delta = 0, where the wall sphere collapses to
    the origin.  With another wall the collapsed row is 0 > 0, which no
    lambda meets; alone, its row is 0 = 0 and only dominance is left."""

    @pytest.mark.parametrize(
        "label, delta",
        [("A2", (0, 5)), ("A2", (3, 0)), ("B3", (1, 0, 2)), ("B3", (0, 0, 1)), ("B3", (0, 4, 0))],
    )
    def test_zero_nu_on_canonical_is_not_member(self, label, delta):
        inst = canonical_instance(rootsys.build(label))
        assert any(nu_of(inst, i, delta) == 0 for i in range(len(inst.nu)))
        assert general_member(inst, delta) is False

    @pytest.mark.parametrize(
        "inst, delta",
        [
            (single_wall_instance("A1", (-1,), ((1,), (1,)), (1, 0)), (0, 5)),
            (single_wall_instance("A2", (-1, -1), ((1, 0), (0, 1), (1, 1)), (1, 1, 0)), (0, 0, 5)),
        ],
        ids=["A1", "A2"],
    )
    def test_single_wall_zero_nu_is_member(self, inst, delta):
        assert nu_of(inst, 0, delta) == 0
        assert general_member(inst, delta) is True
        assert general_member(inst, support.zeros(len(delta))) is False


# ---------------------------------------------------------------------------
# closed-form ray points and u-identity wall rows against the solve oracle


def reduced_constraints(system) -> list:
    """Each constraint in order as its relation and gcd-reduced integer row,
    which a positive multiple of the row leaves unchanged."""
    return [(c.rel, kernels._reduce_row(*support.cleared(c)[:2])) for c in system.constraints]


def oracle_mismatches(inst, shifts) -> list:
    """(kind, wall, shift) wherever r_i_general, or a wall system constraint
    for constraint, differs from the solve-over-the-form oracle."""
    out = []
    for delta in shifts:
        for i in range(len(inst.nu)):
            if r_i_general(inst, i, delta) != oracles.r_i_general_by_solve(inst, i, delta):
                out.append(("ray", i, delta))
        got = cone.general_member_systems(inst, delta)
        want = oracles.general_member_systems_by_rays(inst, delta)
        for i, (g, w) in enumerate(zip(got, want, strict=True)):
            if reduced_constraints(g) != reduced_constraints(w):
                out.append(("rows", i, delta))
    return out


def canonical_shifts(rs, rng) -> list:
    """A positive shift, one with a zero entry, and one with a single
    nonzero entry: nu_j(delta) = delta_j on the canonical instance."""
    n = rs.rank
    positive = support.rand_positive_vec(rng, n)
    one_zero = list(support.rand_positive_vec(rng, n))
    one_zero[rng.randrange(n)] = F(0)
    single = [F(0)] * n
    single[rng.randrange(n)] = support.rand_fraction(rng, 1, 3, 7)
    return [positive, tuple(one_zero), tuple(single)]


def generated_instance(rng, label, walls, extra):
    """(instance, shifts): an orientation-valid instance over label with the
    given number of walls and shift dimension rank + extra.

    nu is [I | R] with shuffled columns and theta_star is solved row by row
    so that nu_a . theta_star = -l_a.  The shifts hit chosen wall heights
    nu(delta): all positive, one zero, and all zero."""
    rs = rootsys.build(label)
    n, m = rs.rank, rs.rank + extra
    assert walls <= m
    fund, seen = [], set()
    while len(fund) < walls:
        f = tuple(rng.randint(-3, 0) for _ in range(n))
        key = exactla.primitive(f)
        if any(f) and key not in seen:
            seen.add(key)
            fund.append(f)
    r = [[rng.randint(-2, 2) for _ in range(m - walls)] for _ in range(walls)]
    free = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(m - walls)]
    theta = [
        tuple(-fund[a][k] - sum(rb * row[k] for rb, row in zip(r[a], free)) for k in range(n))
        for a in range(walls)
    ] + free
    nu = [tuple(F(int(a == b)) for b in range(walls)) + tuple(map(F, r[a])) for a in range(walls)]
    perm = list(range(m))
    rng.shuffle(perm)
    inst = GeneralCoterieInstance(
        arr=arrmod.Arrangement(rs=rs, fundamental=tuple(fund)),
        theta_star=tuple(theta[k] for k in perm),
        nu=tuple(tuple(row[k] for k in perm) for row in nu),
    )
    heights = [support.rand_positive_vec(rng, walls, 3, 7)]
    heights.append(tuple(F(0) if a == 0 else v for a, v in enumerate(heights[0])))
    heights.append(support.zeros(walls))
    shifts = []
    for t in heights:
        s = support.rand_vec(rng, m - walls, -2, 2, 5)
        delta = [t[a] - sum(map(mul, r[a], s)) for a in range(walls)] + list(s)
        shifts.append(tuple(delta[k] for k in perm))
        assert tuple(nu_of(inst, a, shifts[-1]) for a in range(walls)) == tuple(t)
    return inst, shifts


# every family, rank <= 6; the non-simply-laced ones are where the form's
# symmetrizers differ from 1
GENERATED_LABELS = (
    "A1", "A3", "A6", "B2", "B3", "B5", "C3", "C4", "C6", "D4", "D5", "E6", "F4", "G2"
)
NON_SIMPLY_LACED = tuple(label for label in GENERATED_LABELS if label[0] in "BCFG")


def generated_instances(labels=GENERATED_LABELS, count=5):
    rng = random.Random(71)
    for label in labels:
        rank = rootsys.parse_type(label).rank
        for _ in range(count):
            extra = rng.randint(0, 2)
            # rank 1 has a single nonpositive direction
            walls = 1 if rank == 1 else rng.randint(1, min(3, rank + extra))
            yield label, generated_instance(rng, label, walls, extra)


def a2_file_shifts():
    """(instance, shifts) for tests/data/instance_a2.txt."""
    inst = parse_instance((DATA / "instance_a2.txt").read_text())
    rng = random.Random(12)
    shifts = [(1, 1, 1), (0, 1, 1), (1, 0, 1), (2, 1, 3)]
    shifts += [support.rand_vec(rng, 3, 0, 3, 9) for _ in range(12)]
    return inst, shifts


def mixes_root_lengths(inst) -> bool:
    """Some wall functional is supported on both short and long roots,
    the only case where the symmetrizers do not cancel."""
    lengths = [row[k] for k, row in enumerate(inst.rs.form)]
    return any(
        len({lengths[k] for k, c in enumerate(h.functional) if c}) > 1 for h in inst.arr.fundamental
    )


class TestRaysAndWallRowsAgainstSolveOracle:
    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types()])
    def test_canonical_every_type(self, label):
        rs = rootsys.build(label)
        shifts = canonical_shifts(rs, random.Random(label))
        assert oracle_mismatches(canonical_instance(rs), shifts) == []

    def test_a2_shift_file(self):
        assert oracle_mismatches(*a2_file_shifts()) == []

    def test_generated_instances(self):
        for label, (inst, shifts) in generated_instances():
            assert oracle_mismatches(inst, shifts) == [], label

    def test_generated_witnesses_match(self):
        """Same initial rows give the same eliminations: the verdicts and
        witnesses of both routes agree (rank <= 6)."""
        verdicts = set()
        for label, (inst, shifts) in generated_instances(count=2):
            for delta in shifts:
                got = general_member_systems(inst, delta)
                want = oracles.general_member_systems_by_rays(inst, delta)
                for g, w in zip(got, want, strict=True):
                    fg = exactla.feasible(g)
                    assert fg == exactla.feasible(w), (label, delta)
                    verdicts.add(fg.feasible)
        assert verdicts == {True, False}

    def test_no_solve_and_no_form(self, monkeypatch):
        """The ray points need no solve; the wall systems not even the form."""

        def refuse(*args):
            raise AssertionError("the general route called a Fraction solve or product")

        monkeypatch.setattr(exactla, "solve_linear", refuse)
        monkeypatch.setattr(exactla, "mat_vec", refuse)
        inst = parse_instance((DATA / "instance_a2.txt").read_text())
        assert r_i_general(inst, 0, (1, 1, 3)) == (F(2), F(1))
        no_form = dataclasses.replace(inst.rs, form=None)
        inst = dataclasses.replace(inst, arr=dataclasses.replace(inst.arr, rs=no_form))
        assert general_member(inst, (1, 1, 3)) is True
        assert general_member(inst, (2, 1, 3)) is False

    def test_dropped_symmetrizers_are_caught(self, monkeypatch):
        """u = weights . c instead of weights . e: the scaling cancels on the
        unit functionals of canonical instances, so only generated
        instances over B, C, F and G show it."""
        monkeypatch.setattr(rootsys, "symmetrizers", lambda rs: (1,) * rs.rank)
        for label in ("B3", "C4", "F4", "G2"):
            rs = rootsys.build(label)
            shifts = canonical_shifts(rs, random.Random(3))
            assert oracle_mismatches(canonical_instance(rs), shifts) == []
        mixed = 0
        for label, (inst, shifts) in generated_instances(NON_SIMPLY_LACED):
            if mixes_root_lengths(inst):
                mixed += 1
                assert {kind for kind, _, _ in oracle_mismatches(inst, shifts)} == {"ray"}, label
        assert mixed > 10

    def test_dropped_nu_factor_is_caught(self, monkeypatch):
        """The row u_j(lam) > 0 instead of nu_j(delta) u_j(lam) > 0 is the
        same row while nu_j(delta) > 0, so only zero wall heights show it.
        With nu_j(delta) = v / (d e), the planted row is u_j(lam) (d e) > 0:
        d e l_j(lam) > -v."""
        monkeypatch.setattr(
            cone, "_wall_row", lambda functional, v, d, e: (tuple(d * e * c for c in functional), -v)
        )
        for label in ("A2", "B3", "G2"):
            rs = rootsys.build(label)
            positive, *with_zero = canonical_shifts(rs, random.Random(4))
            inst = canonical_instance(rs)
            assert oracle_mismatches(inst, [positive]) == []
            for delta in with_zero:
                assert {kind for kind, _, _ in oracle_mismatches(inst, [delta])} == {"rows"}
        for label, (inst, shifts) in generated_instances(count=2):
            assert oracle_mismatches(inst, shifts[:1]) == []
            assert len(oracle_mismatches(inst, shifts[1:])) >= len(inst.nu), label
        inst = single_wall_instance("A1", (-1,), ((1,), (1,)), (1, 0))
        assert general_member(inst, (0, 5)) is False

    def test_planted_shared_equality_row_is_caught(self, monkeypatch):
        """System 0 holding wall 1's equality row in place of its own, the
        slip the shared rows invite, differs from the oracle in system 0
        alone, on every instance with two or more walls."""
        honest = cone.general_member_systems

        def swapped(inst, delta):
            systems = honest(inst, delta)
            n = inst.rs.rank
            cons = list(systems[0].constraints)
            cons[n] = systems[1].constraints[n + 1]
            return (exactla.ConeSystem(n, tuple(cons)),) + systems[1:]

        monkeypatch.setattr(cone, "general_member_systems", swapped)
        caught = 0
        for label in ("A2", "B3", "G2", "E6"):
            rs = rootsys.build(label)
            positive = canonical_shifts(rs, random.Random(4))[0]
            assert oracle_mismatches(canonical_instance(rs), [positive]) == [("rows", 0, positive)]
            caught += 1
        for label, (inst, shifts) in generated_instances(count=2):
            if len(inst.nu) >= 2:
                assert {(kind, i) for kind, i, _ in oracle_mismatches(inst, shifts[:1])} == {("rows", 0)}
                caught += 1
        assert caught > 10


# ---------------------------------------------------------------------------
# integer back-substitution against the Fraction oracle on wall systems


def wall_systems():
    """Every wall system of the canonical instances of all 49 types at their
    canonical_shifts, of the A2 shift file, and of generated_instances()."""
    for t in rootsys.all_types():
        rs = rootsys.build(str(t))
        for delta in canonical_shifts(rs, random.Random(str(t))):
            yield from general_member_systems(canonical_instance(rs), delta)
    inst, shifts = a2_file_shifts()
    for delta in shifts:
        yield from general_member_systems(inst, delta)
    for _, (inst, shifts) in generated_instances():
        for delta in shifts:
            yield from general_member_systems(inst, delta)


def witness_disagreements() -> tuple:
    """(rebuilt, mismatched, rejected) over wall_systems(): how many witnesses
    were rebuilt, how many differ from the Fraction oracle's, and how many
    feasible's own re-check rejected."""
    rebuilt = mismatched = rejected = 0
    for system in wall_systems():
        pair = oracles.rebuilt_witnesses(system)
        if pair is not None:
            got, want, refused = pair
            rebuilt += 1
            mismatched += not oracles.same_point(got, want)
            rejected += refused
    return rebuilt, mismatched, rejected


class TestBackSubstitutionOnWallSystems:
    def test_witnesses_match_fraction_oracle(self):
        rebuilt, mismatched, rejected = witness_disagreements()
        assert (mismatched, rejected) == (0, 0)
        assert rebuilt > 200

    def test_planted_midpoint_replaced_by_lo_is_caught(self, monkeypatch):
        honest = exactla._interval_point

        def low_end(lo, hi, den):
            return lo if lo is not None and hi is not None else honest(lo, hi, den)

        monkeypatch.setattr(exactla, "_interval_point", low_end)
        _, mismatched, rejected = witness_disagreements()
        assert mismatched > 0 and rejected > 0

    def test_planted_skipped_rescaling_is_caught(self, monkeypatch):
        """The last variable assigned (the first eliminated) is set without
        rescaling the coordinates assigned before it."""
        honest = exactla._assign

        def skipping(witness, den, var, p, q):
            if var != len(witness) - 1:
                return honest(witness, den, var, p, q)
            g = gcd(p, q)
            witness[var] = p // g
            return den * (q // g)

        monkeypatch.setattr(exactla, "_assign", skipping)
        _, mismatched, rejected = witness_disagreements()
        assert mismatched > 0 and rejected > 0


# ---------------------------------------------------------------------------
# integer wall rows against the wall systems built over Fractions


def rescaled(inst, shifts, scale) -> tuple:
    """(instance, shifts) with shift coordinate k divided by scale[k] > 0:
    nu's column k times scale[k] and theta_star's row k over it, so the
    composites and every nu_j(delta) stay as they were, while nu gains
    denominators (d_j > 1)."""
    theta = tuple(tuple(v / p for v in row) for row, p in zip(inst.theta_star, scale, strict=True))
    nu = tuple(tuple(v * p for v, p in zip(row, scale, strict=True)) for row in inst.nu)
    moved = GeneralCoterieInstance(arr=inst.arr, theta_star=theta, nu=nu)
    return moved, [tuple(F(x) / p for x, p in zip(delta, scale, strict=True)) for delta in shifts]


def integer_route_cases():
    """(label, instance, shift): the canonical instances of all 49 types at
    their canonical_shifts, and the A2 shift file and generated_instances(),
    each of these two also rescaled so that its nu has denominators."""
    for t in rootsys.all_types():
        rs = rootsys.build(str(t))
        for delta in canonical_shifts(rs, random.Random(str(t))):
            yield str(t), canonical_instance(rs), delta
    rng = random.Random(61)
    for label, (inst, shifts) in [("A2 file", a2_file_shifts()), *generated_instances()]:
        scale = [F(rng.randint(1, 3), rng.randint(2, 5)) for _ in range(inst.shift_dim)]
        moved, moved_shifts = rescaled(inst, shifts, scale)
        for delta in shifts:
            yield label, inst, delta
        for delta in moved_shifts:
            yield label + " rescaled", moved, delta


def fraction_route_mismatches(cases, witnesses: bool = True) -> list:
    """(label, shift, what, e) wherever the wall systems' exactla._initial_rows
    ("rows") or, with witnesses, the reprs of their feasible results
    ("witness") differ from those of the Fraction-built oracle; e is the
    shift's denominator."""
    out = []
    for label, inst, delta in cases:
        got = general_member_systems(inst, delta)
        want = oracles.general_member_systems_by_fractions(inst, delta)
        if list(map(exactla._initial_rows, got)) != list(map(exactla._initial_rows, want)):
            out.append((label, delta, "rows", denominators(inst, delta)[1]))
        elif witnesses and [repr(exactla.feasible(s)) for s in got] != [repr(exactla.feasible(s)) for s in want]:
            out.append((label, delta, "witness", denominators(inst, delta)[1]))
    return out


def denominators(inst, delta) -> tuple:
    """(the largest d_j of inst's nu rows, e of delta)."""
    return max(d for _, d in inst._nu_ints), exactla.clear_row(tuple(delta) + (1,))[-1]


class TestIntegerWallRowsAgainstFractionOracle:
    def test_rows_and_witnesses_match(self):
        cases = list(integer_route_cases())
        assert fraction_route_mismatches(cases) == []
        # both clearings are exercised: some nu row over d_j > 1, some
        # shift over e > 1, and some case with both
        dens = [denominators(inst, delta) for _, inst, delta in cases]
        assert any(d > 1 and e > 1 for d, e in dens)
        assert any(d == 1 and e > 1 for d, e in dens) and any(d > 1 and e == 1 for d, e in dens)

    def test_planted_dropped_nu_denominator_is_caught(self, monkeypatch):
        """v e l(lam) > -v^2, the row without its d_j factor: it differs
        exactly where some nu row has d_j > 1 and its height is nonzero."""
        honest = cone._wall_row
        monkeypatch.setattr(cone, "_wall_row", lambda functional, v, d, e: honest(functional, v, 1, e))
        broken = fraction_route_mismatches(integer_route_cases(), witnesses=False)
        assert len(broken) > 20
        assert all(label.endswith("rescaled") for label, _, _, _ in broken)

    def test_planted_e_for_e_squared_is_caught(self, monkeypatch):
        """The row multiplied by d_j^2 e where (d_j e)^2 belongs, against
        the bound -v^2 that (d_j e)^2 gives: only shifts with e > 1 show it."""
        honest = cone._wall_row
        monkeypatch.setattr(cone, "_wall_row", lambda functional, v, d, e: honest(functional, v, d, 1))
        broken = fraction_route_mismatches(integer_route_cases(), witnesses=False)
        assert len(broken) > 20
        labels = {label for label, _, _, _ in broken}
        assert "A2 file" in labels and "E8" in labels and any(label.endswith("rescaled") for label in labels)
        assert all(e > 1 for _, _, _, e in broken)
