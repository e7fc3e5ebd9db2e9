"""Tests for edge orientations, the face census, extremal rays, and the
cube-order comparison."""

import dataclasses
import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

import oracles
import pytest
import support

from coterie import cli, cone, faces, rootsys
from coterie.exactla import EQ, GE
from coterie.faces import (
    LEFT,
    NEUTRAL,
    RIGHT,
    Orientation,
    all_orientations,
    cube_isomorphism_check,
    extremal_rays,
    face_of,
    orientation,
)
from oracles import poset_order

F = Fraction

# frozen rank-4 chain ray table: orientation string -> extremal ray
A4_RAYS = {
    ">>>": (F(1, 4), F(1, 2), F(3, 4), F(1)),
    ">><": (F(2, 3), F(4, 3), F(2), F(1)),
    "><>": (F(9, 16), F(9, 8), F(3, 4), F(1)),
    "><<": (F(3, 2), F(3), F(2), F(1)),
    "<>>": (F(2, 3), F(1, 2), F(3, 4), F(1)),
    "<><": (F(16, 9), F(4, 3), F(2), F(1)),
    "<<>": (F(3, 2), F(9, 8), F(3, 4), F(1)),
    "<<<": (F(4), F(3), F(2), F(1)),
}


def face_points(rs) -> dict:
    """states -> the vector that the depth-first walk over all three states
    builds for that face."""
    walked = oracles.propagated_rays(rs, faces.STATES)
    return {o.states: x for o, (x, _) in zip(all_orientations(rs), walked, strict=True)}


def point_mismatches(rs) -> list:
    """Faces whose walked vector is not a positive multiple of the mean of
    their solved rays, each scaled to a_0 = 1."""
    return [
        "".join(states)
        for states, x in face_points(rs).items()
        if x is None
        or x[0] <= 0
        or tuple(Fraction(c, x[0]) for c in x)
        != oracles.face_point_by_rays(rs, Orientation(rs.edges, states))
    ]


class TestOrientation:
    def test_str_and_count(self):
        rs = rootsys.build("A4")
        o = orientation(rs, "><-")
        assert str(o) == "><-"
        assert o.oriented_count == 2
        assert not o.fully_oriented

    def test_state_validation(self):
        rs = rootsys.build("A4")
        with pytest.raises(ValueError):
            orientation(rs, ">>")
        with pytest.raises(ValueError):
            orientation(rs, ">>x")

    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types(6)])
    def test_enumerated_states_pass_validation(self, label):
        """all_orientations and extremal_rays build their orientations
        unchecked; each equals the one orientation() builds from its text."""
        rs = rootsys.build(label)
        built = list(all_orientations(rs)) + [r.orientation for r in extremal_rays(rs)]
        assert all(o == orientation(rs, str(o)) for o in built)

    def test_census_sizes(self):
        assert len(all_orientations(rootsys.build("G2"))) == 3
        assert len(all_orientations(rootsys.build("A4"))) == 27
        assert len(all_orientations(rootsys.build("E8"))) == 2187

    def test_rank_one_single_face(self):
        rs = rootsys.build("A1")
        orients = all_orientations(rs)
        assert orients == (Orientation(edges=(), states=()),)
        assert face_of(rs, orients[0]).dim == 1


class TestFaceOf:
    def test_fully_oriented_equalities(self):
        rs = rootsys.build("A4")
        f = face_of(rs, orientation(rs, ">>>"))
        eq_rows = {
            support.cleared(c)[0] for c in f.system.constraints if c.rel == EQ
        }
        assert eq_rows == {(2, -1, 0, 0), (0, 3, -2, 0), (0, 0, 4, -3)}
        assert f.dim == 1

    def test_reverse_chain_equalities(self):
        rs = rootsys.build("A4")
        f = face_of(rs, orientation(rs, "<<<"))
        eq_rows = {
            support.cleared(c)[0] for c in f.system.constraints if c.rel == EQ
        }
        assert eq_rows == {(-3, 4, 0, 0), (0, -2, 3, 0), (0, 0, -1, 2)}

    def test_neutral_face_is_whole_cone(self):
        rs = rootsys.build("D4")
        f = face_of(rs, orientation(rs, "---"))
        assert f.dim == 4
        assert all(c.rel == GE for c in f.system.constraints)

    def test_dim_drops_with_each_arrow(self):
        rs = rootsys.build("B3")
        for o in all_orientations(rs):
            assert face_of(rs, o).dim == rs.rank - o.oriented_count

    def test_dim_histogram_a4(self):
        rs = rootsys.build("A4")
        hist = {}
        for o in all_orientations(rs):
            d = face_of(rs, o).dim
            hist[d] = hist.get(d, 0) + 1
        assert hist == {1: 8, 2: 12, 3: 6, 4: 1}


class TestPosetOrder:
    def test_erasing_arrows_goes_up(self):
        rs = rootsys.build("A4")
        assert poset_order(orientation(rs, "->>"), orientation(rs, ">>>"))
        assert not poset_order(orientation(rs, ">>>"), orientation(rs, "->>"))

    def test_opposite_arrows_incomparable(self):
        rs = rootsys.build("A4")
        assert not poset_order(orientation(rs, ">--"), orientation(rs, "<--"))
        assert not poset_order(orientation(rs, "<--"), orientation(rs, ">--"))

    def test_reflexive(self):
        rs = rootsys.build("C3")
        for o in all_orientations(rs):
            assert poset_order(o, o)

    def test_mismatched_edge_sets_rejected(self):
        a2 = rootsys.build("A2")
        a3 = rootsys.build("A3")
        with pytest.raises(ValueError):
            poset_order(all_orientations(a2)[0], all_orientations(a3)[0])

    def test_order_matches_geometry(self):
        """f >= g exactly when g's relative-interior point lies on face f."""
        rs = rootsys.build("A3")
        orients = all_orientations(rs)
        systems = {o.states: face_of(rs, o).system for o in orients}
        interiors = face_points(rs)
        for f in orients:
            for g in orients:
                geometric = systems[f.states].satisfies(interiors[g.states])
                assert poset_order(f, g) == geometric


class TestExtremalRays:
    def test_a4_table(self):
        rays = extremal_rays(rootsys.build("A4"))
        assert len(rays) == 8
        got = {str(r.orientation): r.vector for r in rays}
        assert got == A4_RAYS

    def test_g2_rays(self):
        got = {str(r.orientation): r.vector for r in extremal_rays(rootsys.build("G2"))}
        assert got == {">": (F(3, 2), F(1)), "<": (F(2), F(1))}

    def test_rays_distinct(self):
        for label in ("A4", "D4", "F4"):
            rays = extremal_rays(rootsys.build(label))
            assert len({r.vector for r in rays}) == len(rays)

    def test_rays_on_boundary(self):
        for label in ("A3", "B3", "G2"):
            rs = rootsys.build(label)
            for r in extremal_rays(rs):
                assert cone.member(rs, r.vector, mode="closed")
                assert not cone.member(rs, r.vector, mode="open")

    def test_rank_one_ray_is_interior(self):
        rays = extremal_rays(rootsys.build("A1"))
        assert [r.vector for r in rays] == [(F(1),)]

    def test_no_anomalies_up_to_rank_six(self):
        for t in rootsys.all_types(6):
            for r in extremal_rays(rootsys.build(str(t))):
                assert r.anomalies == ()

    def test_ray_pass_leaves_no_cyclic_garbage(self):
        """The depth-first pass frees its partial vectors by reference
        counting, so they do not pile up between garbage collections."""
        rs = rootsys.build("D5")
        gc.collect()
        gc.disable()
        try:
            extremal_rays(rs)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ray_count_is_two_to_the_edges(self):
        for label in ("A5", "D5", "E6"):
            rs = rootsys.build(label)
            assert len(extremal_rays(rs)) == 2 ** len(rs.edges)


def edge_ratios(rs) -> list:
    """Per edge (i, j): [ratio(i, j), ratio(j, i)], the ratios of the
    inequalities a_i >= ratio(i, j) a_j and a_j >= ratio(j, i) a_i."""
    return [[rootsys.ratio(rs, i, j), rootsys.ratio(rs, j, i)] for i, j in rs.edges]


def terms_of(rs, ratios) -> tuple:
    """The two-term rows of faces._edge_terms that carry the given edge
    ratios: a primitive row's entries are its ratio's denominator and minus
    its numerator, as in rootsys.pair_row."""
    return tuple(
        (i, j, q.denominator, -q.numerator, -r.numerator, r.denominator)
        for (i, j), (q, r) in zip(rs.edges, ratios, strict=True)
    )


def plant_ratios(monkeypatch, rs, ratios):
    """Make the walk read the given edge ratios; the equality checks read
    faces._edge_rows and keep the true rows."""
    terms = terms_of(rs, ratios)
    monkeypatch.setattr(faces, "_edge_terms", lambda _: terms)


def per_ray_mismatches(rs) -> list:
    """Orientations where the fixed-scale walk of faces._checked_rays
    differs from propagating that ray on its own, which rescales as it
    goes: the primitive multiples of the two vectors, or the anomaly."""
    wrong = []
    for states, ints, problems in faces._checked_rays(rs):
        x, broken = oracles.propagate_ray(rs, states)
        if x is None:
            same = ints is None and problems == (broken,)
        else:
            same = ints == faces._ray_multiple(x)
        if not same:
            wrong.append("".join(states))
    return wrong


class TestRayPropagation:
    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types()])
    def test_matches_solve_oracle(self, label):
        rs = rootsys.build(label)
        assert extremal_rays(rs) == oracles.extremal_rays_by_solve(rs)

    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types()])
    def test_depth_first_matches_per_ray_oracle(self, label):
        assert per_ray_mismatches(rootsys.build(label)) == []

    def test_certificate_sums_the_checked_multiples(self):
        rs = rootsys.build("D5")
        rays = list(faces._checked_rays(rs))
        assert [s for s, _, _ in rays] == [o.states for o in all_orientations(rs) if o.fully_oriented]
        for (states, ints, problems), ray in zip(rays, extremal_rays(rs), strict=True):
            assert problems == () and ray.anomalies == ()
            assert all(isinstance(c, int) and c > 0 for c in ints)
            # the reported vector is the multiple scaled to last entry 1
            assert ray.vector == tuple(Fraction(c, ints[-1]) for c in ints)

    @pytest.mark.parametrize("label", ["A4", "D5", "E6", "B7"])
    def test_planted_wrong_branch_ratio_is_caught(self, monkeypatch, label):
        """The '<' branch of one edge takes the edge's '>' ratio: only the
        orientations below that branch change, and both oracles see them."""
        rs = rootsys.build(label)
        ratios = edge_ratios(rs)
        # the last edge whose two ratios differ
        pos = max(p for p, (q, r) in enumerate(ratios) if q != r)
        ratios[pos][1] = ratios[pos][0]
        plant_ratios(monkeypatch, rs, ratios)
        wrong = per_ray_mismatches(rs)
        assert wrong and all(s[pos] == LEFT for s in wrong)
        assert extremal_rays(rs) != oracles.extremal_rays_by_solve(rs)
        assert not cube_isomorphism_check(rs)

    @staticmethod
    def corrupt(monkeypatch, rs, pos, which, value):
        ratios = edge_ratios(rs)
        ratios[pos][which] = value
        plant_ratios(monkeypatch, rs, ratios)

    def test_corrupted_ratio_gives_anomaly(self, monkeypatch):
        rs = rootsys.build("A4")
        good = edge_ratios(rs)[1][0]
        self.corrupt(monkeypatch, rs, 1, 0, 2 * good)
        rays = extremal_rays(rs)
        hit = [r for r in rays if r.orientation.states[1] == RIGHT]
        assert hit and all(
            any("violates the equality on edge (2, 3)" in a for a in r.anomalies) for r in hit
        )
        assert all(r.anomalies == () for r in rays if r.orientation.states[1] == LEFT)
        assert not cube_isomorphism_check(rs)

    def test_corrupted_ratio_fails_the_rays_command(self, monkeypatch, capsys):
        rs = rootsys.build("D4")
        self.corrupt(monkeypatch, rs, 0, 1, F(3, 7))
        assert cli.main(["rays", "D4"]) == cli.EXIT_INVARIANT
        out = capsys.readouterr().out
        assert "anomalies:" in out and "anomalies: none" not in out

    def test_zero_denominator_leaves_node_free(self, monkeypatch, capsys):
        """A '<' row without its a_j term (bj = 0) reads bi a_i = 0, which
        leaves node j free: its ratio and the neutral mean, whose
        denominators would be 0, are the anomaly, as for fj = 0 on '>'."""
        rs = rootsys.build("A3")
        i, j, fi, fj, bi, _ = faces._edge_terms(rs)[0]
        terms = ((i, j, fi, fj, bi, 0),) + faces._edge_terms(rs)[1:]
        monkeypatch.setattr(faces, "_edge_terms", lambda _: terms)
        note = "zero ratio on edge (1, 2) leaves node 2 free"
        (_, _, by_state), _ = faces._step_ratios(rs)
        assert by_state[LEFT] == by_state[NEUTRAL] == note
        assert by_state[RIGHT] == (fi, -fj)
        rays = {str(r.orientation): r for r in extremal_rays(rs)}
        for text in ("<<", "<>"):
            assert rays[text].ints is None and rays[text].anomalies == (note,)
        assert rays[">>"].anomalies == rays["><"].anomalies == ()
        assert list(faces._checked_rays(rs)) == oracles.checked_rays_by_member(rs)
        assert not cube_isomorphism_check(rs)
        assert cli.main(["rays", "A3"]) == cli.EXIT_INVARIANT
        out = capsys.readouterr().out
        assert out.count(f": {note}") == 2 and out.count("degenerate") == 2

    def test_anomaly_text_writes_the_ray_as_its_line_does(self, monkeypatch):
        """A ray's anomalies write its vector the way the rays listing does,
        entries as p or p/q, never as Fraction reprs."""
        rs = rootsys.build("A3")
        member = cone.member

        def open_flipped(rs, x, mode="open", method="edges"):
            return member(rs, x, mode, method) != (mode == "open")

        monkeypatch.setattr(cone, "member", open_flipped)
        rays = {str(r.orientation): r for r in extremal_rays(rs)}
        assert rays["<<"].anomalies == ("ray (3, 2, 1) is interior, expected boundary",)
        assert rays[">>"].anomalies == ("ray (1/3, 2/3, 1) is interior, expected boundary",)
        assert extremal_rays(rs) == oracles.extremal_rays_by_solve(rs)

    def test_zero_ratio_leaves_ray_undetermined(self, monkeypatch):
        rs = rootsys.build("A3")
        self.corrupt(monkeypatch, rs, 0, 1, F(0))
        rays = {str(r.orientation): r for r in extremal_rays(rs)}
        # '<' on edge (1, 2) now reads a_2 = 0 a_1, which pins node 2 to 0
        assert rays["<>"].vector == (1, 0, 0)
        assert "ray (1, 0, 0) leaves the positive orthant" in rays["<>"].anomalies
        assert "ray (1, 0, 0) violates the equality on edge (1, 2)" in rays["<>"].anomalies
        # '>' on that edge does not use the corrupted ratio
        assert rays[">>"].anomalies == ()
        rs_b = rootsys.build("B3")
        # the (1, 2) row loses its a_2 term: fj = 0
        self.corrupt(monkeypatch, rs_b, 0, 0, F(0))
        assert faces._edge_terms(rs_b)[0][3] == 0
        # '>' reads a_1 = 0 a_2: node 1, the parent, cannot fix node 2
        broken = {str(r.orientation): r for r in extremal_rays(rs_b)}[">>"]
        assert broken.vector is None
        assert broken.anomalies == ("zero ratio on edge (1, 2) leaves node 2 free",)

    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types()])
    def test_planted_terms_of_the_true_ratios_are_the_edge_terms(self, label):
        """The planting above changes only the ratios it is given."""
        rs = rootsys.build(label)
        assert terms_of(rs, edge_ratios(rs)) == faces._edge_terms(rs)

    @pytest.mark.parametrize("order", [(3, 2, 1, 0), (0, 2, 1, 3), (1, 0, 2, 3)])
    def test_edges_out_of_tree_order_are_caught(self, order):
        """The walk sets a_j from a_i along rs.edges in order, so an edge
        listed before its node i is reached reads a_i = 0: every ray leaves
        the positive orthant, and the certificate fails."""
        rs = rootsys.build("D5")
        shuffled = dataclasses.replace(rs, edges=tuple(rs.edges[k] for k in order))
        rays = extremal_rays(shuffled)
        assert rays and all("leaves the positive orthant" in " ".join(r.anomalies) for r in rays)
        assert not cube_isomorphism_check(shuffled)
        assert cube_isomorphism_check(rs)


class TestRayCheck:
    """The equality, orthant and closed-cone rows are checked once per walk
    node in faces._checked_rays, the open cone by cone.member; the oracle
    walks the rays rescaling as it goes and makes both membership checks
    through cone.member."""

    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types()])
    def test_matches_member_oracle(self, label):
        rs = rootsys.build(label)
        assert list(faces._checked_rays(rs)) == oracles.checked_rays_by_member(rs)

    @pytest.mark.parametrize("label", ["A4", "B3", "C4", "D5", "E6", "F4"])
    def test_planted_points(self, monkeypatch, label):
        """An interior point, a point outside the closed cone and a point on
        one facet alone, planted as the first three rays through the
        ratios: every edge's '<' ratio becomes its neutral mean and the
        last edge's '>' ratio a hundredfold, so '<..<' walks to the top
        face's point, '<..<>' to that point with the last node (a leaf of
        the tree) raised far above its parent's reach, and '<..<><' to the
        point of the face whose one oriented edge is the second-last, '>'.
        Both routes report the same problems, and the membership problems
        are the ones each point calls for."""
        rs = rootsys.build(label)
        # a_j / a_i is r on '<' and 1 / q on '>'
        ratios = [[q, (r + 1 / q) / 2] for q, r in edge_ratios(rs)]
        ratios[-1][0] /= 100
        plant_ratios(monkeypatch, rs, ratios)
        got = list(faces._checked_rays(rs))
        assert got == oracles.checked_rays_by_member(rs)
        membership = [
            [p for p in problems if p.endswith("cone") or p.endswith("boundary")] for _, _, problems in got[:3]
        ]
        assert membership == [["is interior, expected boundary"], ["is outside the closed cone"], []]

    @pytest.mark.parametrize("label", ["A5", "B4", "C5", "D6", "F4", "G2"])
    def test_closed_pass_is_closed_membership(self, label):
        """On random integer points and on every face's point (in the
        closed cone, tight on the face's rows), the closed-row pass is the
        negation of member(..., "closed", "edges"); both verdicts occur."""
        rs = rootsys.build(label)
        rows = faces._closed_terms(rs)
        rng = random.Random(label)
        points = [tuple(rng.randint(-3, 12) for _ in range(rs.rank)) for _ in range(300)]
        points += [tuple(x) for x, _ in oracles.propagated_rays(rs, faces.STATES)]
        verdicts = [oracles.outside_closed(rows, x) for x in points]
        assert verdicts == [not cone.member(rs, x, "closed", "edges") for x in points]
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "F4", "G2", "E6"])
    def test_planted_ratios_match_member_oracle(self, label):
        """A zero, a negative and a wrong positive ratio planted on each
        branch of each edge in turn: the fixed-scale walk and its per-node
        verdicts give exactly the oracle's records, and each planted ratio
        shows as a problem.  Some walk vectors come out as negative
        multiples of their primitive rays (ints[0] < 0, against the walk's
        a_0 > 0), and their verdicts hold all the same."""
        rs = rootsys.build(label)
        negative = False
        for pos, which in product(range(len(rs.edges)), (0, 1)):
            true = edge_ratios(rs)[pos][which]
            for planted in (F(0), -true, true + 1):
                ratios = edge_ratios(rs)
                ratios[pos][which] = planted
                with pytest.MonkeyPatch.context() as mp:
                    plant_ratios(mp, rs, ratios)
                    got = list(faces._checked_rays(rs))
                    assert got == oracles.checked_rays_by_member(rs), (pos, which, planted)
                    assert any(problems for _, _, problems in got), (pos, which, planted)
                    negative |= any(ints is not None and ints[0] < 0 for _, ints, _ in got)
        assert negative

    @pytest.mark.parametrize("order", [(3, 2, 1, 0), (0, 2, 1, 3), (1, 0, 2, 3)])
    def test_edges_out_of_tree_order_match_member_oracle(self, order):
        """Rows whose nodes are written out of edge order, and equality rows
        due after their own edge, still give the oracle's records."""
        rs = rootsys.build("D5")
        shuffled = dataclasses.replace(rs, edges=tuple(rs.edges[k] for k in order))
        assert list(faces._checked_rays(shuffled)) == oracles.checked_rays_by_member(shuffled)


@pytest.fixture
def fresh_face_dimensions():
    """An empty face_dimensions cache before and after the test, so that
    dimensions computed under a planted defect reach no other test."""
    faces.face_dimensions.cache_clear()
    yield
    faces.face_dimensions.cache_clear()


def random_edge_rows(rng, m, n):
    """m pairs of integer rows over n columns, drawn from few values so that
    zero, repeated and dependent rows all occur."""
    pool = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(m + 1)]
    return [tuple(rng.choice(pool) for _ in range(2)) for _ in range(m)]


class TestFaceDimensions:
    @pytest.mark.parametrize("label", ["A1", "G2", "A4", "D5", "E6"])
    def test_match_face_of(self, label):
        rs = rootsys.build(label)
        want = tuple(face_of(rs, o).dim for o in all_orientations(rs))
        assert faces.face_dimensions(rs) == want

    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types(9)])
    def test_rank_pass_matches_per_face_ranks(self, label):
        rs = rootsys.build(label)
        assert faces.face_dimensions(rs) == oracles.face_dimensions_by_rank(rs)

    def test_rank_pass_on_dependent_rows(self):
        """The roots' edge rows are independent on every face, so only
        rows that are not reach the pass's zero remainders."""
        rng = random.Random(20)
        dependent = 0
        for _ in range(60):
            m, n = rng.randint(0, 5), rng.randint(1, 4)
            rows = random_edge_rows(rng, m, n)
            want = oracles.ranks_by_rank_of(rows)
            assert tuple(faces._echelon_ranks(rows)) == want, rows
            full = product(faces.STATES, repeat=m)
            dependent += any(r < len(s) - s.count(NEUTRAL) for s, r in zip(full, want))
        assert dependent > 30

    @pytest.mark.usefixtures("fresh_face_dimensions")
    @pytest.mark.parametrize("label", ["A2", "B3", "G2", "D4", "F4", "E6"])
    def test_planted_unpushed_row_is_caught(self, monkeypatch, label):
        """The first edge's '>' row is reduced but never pushed: every face
        orienting that edge '>' reads one dimension too high."""
        rs = rootsys.build(label)
        fwd, _ = faces._edge_rows(rs, *rs.edges[0])
        real = faces._pushed
        monkeypatch.setattr(faces, "_pushed", lambda basis, row: basis if row is fwd else real(basis, row))
        assert faces.face_dimensions(rs) != oracles.face_dimensions_by_rank(rs)
        assert not cube_isomorphism_check(rs)

    @pytest.mark.usefixtures("fresh_face_dimensions")
    def test_planted_skipped_basis_row_is_caught(self, monkeypatch):
        """The reduction skips the last basis row, so a row in the span of
        the basis can leave a nonzero remainder and raise the rank.  On the
        roots every face's rows are independent (each row lives on its tree
        edge, and a leaf edge's leaf column is in that row alone), so no
        reduction can reach zero there and the certificate cannot see this
        defect; the dependent rows of the oracle comparison do."""
        rng = random.Random(20)
        cases = [random_edge_rows(rng, rng.randint(2, 5), rng.randint(1, 4)) for _ in range(60)]
        real = faces._reduced
        monkeypatch.setattr(faces, "_reduced", lambda row, basis: real(row, basis[:-1]))
        wrong = [rows for rows in cases if tuple(faces._echelon_ranks(rows)) != oracles.ranks_by_rank_of(rows)]
        assert len(wrong) > 10
        rs = rootsys.build("E6")
        assert faces.face_dimensions(rs) == oracles.face_dimensions_by_rank(rs)
        assert cube_isomorphism_check(rs)

    def test_wrong_dimensions_fail_the_check(self, monkeypatch):
        rs = rootsys.build("B3")
        dims = list(faces.face_dimensions(rs))
        assert cube_isomorphism_check(rs)
        dims[4] += 1
        monkeypatch.setattr(faces, "face_dimensions", lambda _rs: tuple(dims))
        assert not cube_isomorphism_check(rs)

    @pytest.mark.parametrize("label", ["A4", "D5", "E6", "B7"])
    def test_any_moved_dimension_fails_the_check(self, monkeypatch, label):
        """The certificate checks dim = rank - oriented count per face and
        no covers; one face moved by one either way must still fail it."""
        rs = rootsys.build(label)
        real = faces.face_dimensions(rs)
        size = len(real)
        for index in (0, size // 3, size // 2, size - 1):
            for delta in (-1, 1):
                dims = list(real)
                dims[index] += delta
                monkeypatch.setattr(faces, "face_dimensions", lambda _rs, d=tuple(dims): d)
                assert not cube_isomorphism_check(rs), (index, delta)
        monkeypatch.setattr(faces, "face_dimensions", lambda _rs: real)
        assert cube_isomorphism_check(rs)

    @pytest.mark.parametrize("m", range(12))
    def test_expected_dimensions_are_the_neutral_counts(self, m):
        """The recurrence over the edges gives rank - m plus each face's
        neutral count, in product order, at every supported edge count."""
        rank = m + 1
        want = tuple(rank - m + s.count(faces.NEUTRAL) for s in product(faces.STATES, repeat=m))
        assert faces._expected_dimensions.__wrapped__(rank, m) == want


def vertex_list(mask):
    """The vertices of a vertex bitmask, as the list the library keys on."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def transpose(rows):
    """Bitset rows of a relation read the other way: bit i of row j is bit j
    of row i, set one related pair at a time."""
    size = len(rows)
    out = [bytearray((size + 7) >> 3) for _ in range(size)]
    for j, row in enumerate(rows):
        bits = bin(row)[:1:-1]  # bit i at position i
        i = bits.find("1")
        while i >= 0:
            out[i][j >> 3] |= 1 << (j & 7)
            i = bits.find("1", i + 1)
    return [int.from_bytes(row, "little") for row in out]


def rule_upsets(orients):
    return oracles.rule_upsets(o.states for o in orients)


class TestCubeEncoding:
    def test_square_vertex_sets(self):
        lists = dict(zip(product(faces.STATES, repeat=2), oracles._cube_vertex_lists(2)))
        assert sorted(lists[("-", "-")]) == [0, 1, 2, 3]
        assert sorted(lists[(">", "-")]) == [1, 3]
        assert lists[("<", ">")] == [2]
        assert lists[("<", "<")] == [0]

    def test_cube_order_is_vertex_subset(self):
        """The triple formula on cube encodings is literal set inclusion."""
        m = 3
        lists = list(oracles._cube_vertex_lists(m))
        triples = oracles._cube_triples(m)
        n = len(lists)
        for a in range(n):
            an, ar, al = triples[a]
            for b in range(n):
                bn, br, bl = triples[b]
                ge = (bn & ~an) == 0 and (ar & ~br) == 0 and (al & ~bl) == 0
                assert ge == (set(lists[b]) <= set(lists[a]))

    def test_complement_encoding_same_order(self):
        """Vertex sets in the n slot and their complements in the r slot
        describe the same order, so the kernel reports agreement."""
        m = 3
        sets = oracles.cube_vertex_sets_by_scan(m)
        mask = (1 << (1 << m)) - 1
        family_n = [(vs, 0, 0) for vs in sets]
        family_r = [(0, mask ^ vs, 0) for vs in sets]
        assert oracles._order_pairs_disagree(family_n, family_r) == -1

    def test_lacked_arrows(self):
        rs = rootsys.build("A3")
        keys = [oracles._lacked_arrows(orientation(rs, s).states) for s in ("<>", "-<", "--")]
        assert [sorted(k) for k in keys] == [[1, 2], [0, 1, 3], [0, 1, 2, 3]]

    @pytest.mark.parametrize("m", range(6))
    def test_rule_upsets_are_transposed_arrow_erasure(self, m):
        orients = all_orientations(rootsys.build(f"A{m + 1}"))
        pairwise = [sum(1 << j for j, g in enumerate(orients) if poset_order(f, g)) for f in orients]
        assert rule_upsets(orients) == transpose(pairwise)

    def test_supersets_of_key_lists(self):
        # item 3 has no keys, so every item includes its keys
        assert oracles._supersets([[1], [1, 2], [2], []]) == [0b0011, 0b0010, 0b0110, 0b1111]
        assert oracles._supersets([]) == []

    def test_detects_planted_mismatch(self):
        rs = rootsys.build("A2")
        rule = rule_upsets(all_orientations(rs))
        lists = list(oracles._cube_vertex_lists(1))
        assert oracles._first_disagreement(rule, oracles._supersets(lists)) == -1
        broken = list(lists)
        broken[0] = broken[1]
        # duplicating the top face makes '-' compare below '<', which the
        # arrow-erasing order rejects
        assert oracles._first_disagreement(rule, oracles._supersets(broken)) >= 0


@lru_cache(maxsize=None)
def pairwise_verdict(m):
    """The pairwise oracle on the real data; both orders depend on the
    number of edges alone, so one run per m serves every type."""
    orients = all_orientations(rootsys.build(f"A{m + 1}"))
    return oracles._order_pairs_disagree(oracles._rule_triples(orients), oracles._cube_triples(m))


def bitset_verdict(orients, vertex_lists):
    return oracles._first_disagreement(rule_upsets(orients), oracles._supersets(vertex_lists))


def reversed_rule_triples(orients):
    """The kernels' (n, r, l) triples of the converse of arrow erasure, so
    that the kernel's i >= j reads j >= i: f >= g asks n_g in n_f, r_f in
    r_g and l_f in l_g, so r and l (shifted apart) take the n slot and n the
    r slot."""
    shift = len(orients[0].states)
    return [(r | l << shift, n, 0) for n, r, l in oracles._rule_triples(orients)]


class TestBitsetCertificate:
    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types(9)])
    def test_agrees_with_pairwise_oracle(self, label):
        rs = rootsys.build(label)
        m = len(rs.edges)
        verdict = bitset_verdict(all_orientations(rs), oracles._cube_vertex_lists(m))
        assert verdict == pairwise_verdict(m) == -1

    def test_same_first_disagreement_on_planted_defects(self):
        """Corrupt one cube face or swap two orientations: the up-set route
        must find a disagreement exactly when the pairwise oracle does, the
        same first one as the oracle on the converse orders (the up-sets
        read the relation transposed), and that pair must really disagree."""
        rng = random.Random(31)
        for m in range(1, 6):
            orients = list(all_orientations(rootsys.build(f"A{m + 1}")))
            sets = oracles.cube_vertex_sets_by_scan(m)
            for _ in range(12):
                o, vs = list(orients), list(sets)
                a, b = rng.randrange(len(vs)), rng.randrange(len(vs))
                if rng.random() < 0.5:
                    vs[a] = vs[b] if a != b else vs[a] ^ 1
                else:
                    o[a], o[b] = o[b], o[a]
                verdict = bitset_verdict(o, [vertex_list(v) for v in vs])
                cube = [(v, 0, 0) for v in vs]  # the _cube_triples encoding
                want = oracles._order_pairs_disagree(oracles._rule_triples(o), cube)
                assert (verdict == -1) == (want == -1)
                converse = [(0, v, 0) for v in vs]
                assert verdict == oracles._order_pairs_disagree(reversed_rule_triples(o), converse)
                if verdict >= 0:
                    i, j = divmod(verdict, len(o))
                    # j >= i under exactly one of the two orders
                    assert poset_order(o[j], o[i]) != (vs[i] & ~vs[j] == 0)

    def test_every_single_face_corruption_is_caught(self):
        m = 3
        orients = all_orientations(rootsys.build("A4"))
        lists = list(oracles._cube_vertex_lists(m))
        for index in range(len(lists)):
            for v in range(1 << m):
                broken = list(lists)
                broken[index] = sorted(set(lists[index]) ^ {v})
                assert bitset_verdict(orients, broken) >= 0


class TestCubeIsomorphism:
    @pytest.mark.parametrize(
        "label", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4", "F4"]
    )
    def test_small_types(self, label):
        assert cube_isomorphism_check(rootsys.build(label))

    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types()])
    def test_every_type(self, label):
        assert cube_isomorphism_check(rootsys.build(label))

    def test_interior_points_realize_orientations(self):
        rs = rootsys.build("A3")
        terms = faces._edge_terms(rs)
        for states, point in face_points(rs).items():
            assert oracles.tight_states(terms, point) == states

    def test_a10(self):
        rs = rootsys.build("A10")
        dims = faces.face_dimensions(rs)
        assert len(dims) == 3**9 == 19683
        assert Counter(dims) == {1: 512, 2: 2304, 3: 4608, 4: 5376, 5: 4032, 6: 2016, 7: 672, 8: 144, 9: 18, 10: 1}
        assert cube_isomorphism_check(rs)

    def test_a10_streams_its_face_points(self):
        """With the face dimensions cached, the check certifies the 3^9 face
        points per edge state without building one of them: its traced peak
        stays below 1 MB."""
        rs = rootsys.build("A10")
        assert cube_isomorphism_check(rs)
        tracemalloc.start()
        try:
            assert cube_isomorphism_check(rs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_holder_table_peak_stays_near_its_size(self):
        """Each key's bytearray is dropped as its int is built, so building
        the cube-vertex table at m = 9 never holds both forms of it."""
        tracemalloc.start()
        try:
            table = oracles._index_sets(oracles._cube_vertex_lists(9), 3**9)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 2**9
        assert peak < 1.5 * kept

    @pytest.mark.parametrize("label", ["B11", "D12"])
    def test_ranks_eleven_and_twelve(self, label):
        rs = rootsys.build(label)
        assert len(faces.face_dimensions(rs)) == 3 ** (rs.rank - 1)
        assert cube_isomorphism_check(rs)

    @pytest.mark.parametrize("m", range(12))
    def test_cached_verdict_is_the_comparison(self, m):
        """Arrow erasure is the cube's face order at every supported edge
        count, which the certificate relies on: the streamed comparison
        against the stored relations up to m = 9, and alone at m = 10 and
        11, where each stored relation would take 9^m bits."""
        assert oracles.cube_orders_agree_streamed(m) is True
        if m <= 9:
            assert oracles.cube_orders_agree_by_relations(m) is True


@lru_cache(maxsize=None)
def oracle_cube(m):
    """Vertex sets and up-sets of the m-cube, one vertex at a time: the
    oracle's down-sets read transposed."""
    sets = oracles.cube_vertex_sets_by_scan(m)
    return sets, transpose(oracles.cube_downsets_by_vertex(sets))


def check_cube(m):
    sets, upsets = oracle_cube(m)
    lists = list(oracles._cube_vertex_lists(m))
    assert [set(vertex_list(vs)) for vs in sets] == [set(vl) for vl in lists]
    assert oracles._supersets(lists) == upsets


class TestCubeRoutinesAgainstOracles:
    @pytest.mark.parametrize("m", range(9))
    def test_vertex_sets_and_downsets(self, m):
        check_cube(m)

    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types(9)])
    def test_every_type(self, label):
        rs = rootsys.build(label)
        check_cube(len(rs.edges))
        assert point_mismatches(rs) == []

    def test_point_of_a_vertex_face_is_its_ray(self):
        """The full orientations' entries of the three-state walk are, as
        primitive multiples, the rays that faces._checked_rays checks."""
        for t in rootsys.all_types(9):
            rs = rootsys.build(str(t))
            points = face_points(rs)
            rays = faces._checked_rays(rs)
            assert all(faces._ray_multiple(points[states]) == ints for states, ints, _ in rays), str(t)

    def test_rank_one_is_a_one_vertex_cube(self):
        # m = 0: one face, no arrow to lack, one vertex
        rs = rootsys.build("A1")
        assert list(oracles._cube_vertex_lists(0)) == [[0]]
        assert oracles._supersets([[0]]) == [1]
        (only,) = all_orientations(rs)
        assert oracles._lacked_arrows(only.states) == []
        assert rule_upsets([only]) == [1]
        assert list(oracles.propagated_rays(rs, faces.STATES)) == [([1], None)]
        assert list(faces._checked_rays(rs)) == [((), (1,), ())]
        assert cube_isomorphism_check(rs)

    def test_rank_two_is_a_segment(self):
        # m = 1: faces '<', '-', '>' over the vertices 0 and 1
        rs = rootsys.build("A2")
        lists = list(oracles._cube_vertex_lists(1))
        assert lists == [[0], [1, 0], [1]]
        assert oracles._supersets(lists) == [0b011, 0b010, 0b110]
        assert rule_upsets(all_orientations(rs)) == [0b011, 0b010, 0b110]
        # a_2 = a_1 / 2 on '<' and 2 a_1 on '>', so 5/4 a_1 on '-', the
        # mean of the two rays scaled to a_1 = 1
        assert face_points(rs) == {(LEFT,): [2, 1], (NEUTRAL,): [4, 5], (RIGHT,): [1, 2]}
        assert cube_isomorphism_check(rs)


class TestCubeRoutinePlantedDefects:
    """A broken holder table or key list must fail the streamed comparison,
    and a broken face point the certificate itself."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_one_wrong_table_entry(self, monkeypatch, m):
        """One holder bit cleared: face 0 ('<' everywhere) is the vertex 0
        alone, and dropping it from the holders of vertex 0 drops it from
        its own up-set.  Orientation 0 does not lack arrow 0 (it lacks only
        the odd '>' arrows), so only the cube side changes."""
        real = oracles._index_sets

        def cleared(keysets, size):
            holders = real(keysets, size)
            if 0 in holders:
                holders[0] &= ~1
            return holders

        monkeypatch.setattr(oracles, "_index_sets", cleared)
        assert oracles.cube_orders_agree_streamed(m) is False

    @pytest.mark.parametrize("m", range(1, 7))
    def test_one_key_dropped(self, monkeypatch, m):
        """The top face ('-' everywhere, the only one with all 2^m vertices)
        loses its last vertex, 0, so it no longer lies above face 0."""
        real = oracles._cube_vertex_lists

        def dropped(edges):
            return (vertices[:-1] if len(vertices) == 1 << edges else vertices for vertices in real(edges))

        monkeypatch.setattr(oracles, "_cube_vertex_lists", dropped)
        assert oracles.cube_orders_agree_streamed(m) is False

    @pytest.mark.parametrize("label", ["A2", "B3", "G2", "D4", "F4", "E6"])
    def test_neutral_edge_taking_one_endpoint_ratio(self, monkeypatch, label):
        """The last edge's neutral state takes its '<' ratio instead of the
        mean: the rays stay right, and exactly the faces with that edge
        neutral move, onto their '<' subface."""
        rs = rootsys.build(label)
        real = faces._step_ratios

        def one_sided(rs):
            steps = real(rs)
            i, j, by_state = steps[-1]
            steps[-1] = (i, j, {**by_state, NEUTRAL: by_state[LEFT]})
            return steps

        monkeypatch.setattr(faces, "_step_ratios", one_sided)
        pos = len(rs.edges) - 1
        wrong = point_mismatches(rs)
        assert wrong and {s for s in face_points(rs) if s[pos] == NEUTRAL} == {tuple(s) for s in wrong}
        terms = faces._edge_terms(rs)
        for states, x in face_points(rs).items():
            if states[pos] == NEUTRAL:
                assert oracles.tight_states(terms, x) == states[:pos] + (LEFT,) + states[pos + 1 :]
        assert extremal_rays(rs) == oracles.extremal_rays_by_solve(rs)
        assert not cube_isomorphism_check(rs)


def plant_step(monkeypatch, pos, moved):
    """Make the walk and the certificate read edge pos's ratios with the
    states that moved(by_state) maps replaced, every other edge's intact."""
    real = faces._step_ratios

    def planted(rs):
        steps = real(rs)
        i, j, by_state = steps[pos]
        steps[pos] = (i, j, {**by_state, **moved(by_state)})
        return steps

    monkeypatch.setattr(faces, "_step_ratios", planted)


def both_verdicts(rs) -> tuple:
    return faces._points_realize_orientations(rs), oracles.face_points_realize_orientations(rs)


class TestPointCertificate:
    """The per-edge-state certificate of the face points against the oracle
    that walks all 3^m points and reads each one's tight set."""

    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types()])
    def test_agrees_with_per_face_oracle(self, label):
        assert both_verdicts(rootsys.build(label)) == (True, True)

    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types()])
    def test_step_ratios_are_positive(self, label):
        """The certificate rests on this: every state of every edge has a
        ratio num / den with num > 0 and den > 0, never an anomaly."""
        for _, _, by_state in faces._step_ratios(rootsys.build(label)):
            assert set(by_state) == set(faces.STATES)
            assert all(not isinstance(r, str) and r[0] > 0 and r[1] > 0 for r in by_state.values())

    @pytest.mark.parametrize("label", ["A2", "B3", "G2", "D4", "F4", "E6"])
    def test_planted_swapped_oriented_ratios(self, label):
        rs = rootsys.build(label)
        for pos in range(len(rs.edges)):
            with pytest.MonkeyPatch.context() as mp:
                plant_step(mp, pos, lambda r: {LEFT: r[RIGHT], RIGHT: r[LEFT]})
                assert both_verdicts(rs) == (False, False), pos

    @pytest.mark.parametrize("label", ["A2", "B3", "G2", "D4", "F4", "E6"])
    def test_planted_neutral_ratio_on_the_right_ratio(self, label):
        """The rays stay right, so only the face points can show this."""
        rs = rootsys.build(label)
        for pos in range(len(rs.edges)):
            with pytest.MonkeyPatch.context() as mp:
                plant_step(mp, pos, lambda r: {NEUTRAL: r[RIGHT]})
                assert both_verdicts(rs) == (False, False), pos
                assert extremal_rays(rs) == oracles.extremal_rays_by_solve(rs)
                assert not cube_isomorphism_check(rs)

    def test_planted_neutral_ratio_at_rank_twelve(self, monkeypatch):
        """The same defect on D12's last edge: the largest supported rank
        must fail the certificate too."""
        rs = rootsys.build("D12")
        plant_step(monkeypatch, len(rs.edges) - 1, lambda r: {NEUTRAL: r[RIGHT]})
        assert not cube_isomorphism_check(rs)

    @pytest.mark.parametrize("label", ["A2", "B3", "G2", "D4", "F4", "E6"])
    def test_planted_dropped_edge(self, label):
        """Without one edge the walk never sets some node, so some face
        point has a zero coordinate."""
        rs = rootsys.build(label)
        for pos in range(len(rs.edges)):
            dropped = dataclasses.replace(rs, edges=rs.edges[:pos] + rs.edges[pos + 1 :])
            assert both_verdicts(dropped) == (False, False), pos
            assert not cube_isomorphism_check(dropped)

    @pytest.mark.parametrize("order", [(3, 2, 1, 0), (0, 2, 1, 3), (1, 0, 2, 3)])
    def test_edges_out_of_tree_order(self, order):
        """Every node is still reached, but some edge reads a_i before it
        is set."""
        rs = rootsys.build("D5")
        shuffled = dataclasses.replace(rs, edges=tuple(rs.edges[k] for k in order))
        assert both_verdicts(shuffled) == (False, False)

    @pytest.mark.parametrize("label", ["E8", "D7"])
    def test_certificate_walks_no_face_points(self, monkeypatch, label):
        """A walk over all three states would visit the 3^m face points;
        with the face dimensions cached, only the rays' walk over the two
        oriented states may run."""
        rs = rootsys.build(label)
        faces.face_dimensions(rs)
        real = faces._product_walk
        widths = []

        def recorded(start, levels, step):
            widths.extend(map(len, levels))
            return real(start, levels, step)

        monkeypatch.setattr(faces, "_product_walk", recorded)
        assert cube_isomorphism_check(rs)
        assert widths == [2] * len(rs.edges)
