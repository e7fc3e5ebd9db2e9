"""Tests for root-system construction against closed forms and the
realization oracle."""

import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest
import sympy

import oracles
import support
from coterie import exactla
from coterie.rootsys import (
    SimpleType,
    UnsupportedTypeError,
    all_types,
    build,
    inner,
    pair_row,
    parse_type,
    ratio,
    simple_reflection,
    symmetrizers,
)
from support import (
    chain_identity_check,
    coroot_pairing,
    dominant_in_root_coords,
    fundamental_weight,
    weyl_apply,
)

F = Fraction


def checked_types(max_rank=8):
    return [build(t) for t in all_types(max_rank)]


class TestParseType:
    def test_accepts_case_and_spacing(self):
        assert parse_type("a4") == SimpleType("A", 4)
        assert parse_type("E 8") == SimpleType("E", 8)

    def test_supported_ranges(self):
        for s in ("A1", "A12", "B2", "B12", "C2", "C12", "D3", "D12", "E6", "E7", "E8", "F4", "G2"):
            parse_type(s)

    @pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D2", "E5", "E9", "F5", "F3", "G3", "H4", "A13", "X2", "A", "4"])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(UnsupportedTypeError):
            parse_type(bad)

    def test_all_types_count(self):
        # A:12, B:11, C:11, D:10, E:3, F:1, G:1
        assert len(all_types()) == 49
        assert len(all_types(8)) == 33


class TestBuildExamples:
    def test_a2_inverse_coefficients(self):
        assert build("A2").inv_coeffs == ((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)))

    def test_g2_inverse_coefficients(self):
        rs = build("G2")
        assert rs.inv_coeffs == ((F(2), F(3)), (F(1), F(2)))
        assert rs.cartan == ((F(2), F(-1)), (F(-3), F(2)))

    def test_a4_closed_form(self):
        rs = build("A4")
        for j in range(1, 5):
            for i in range(1, 5):
                expect = F(min(i, j) * (5 - max(i, j)), 5)
                assert rs.inv_coeffs[j - 1][i - 1] == expect
        assert rs.inv_coeffs[0][0] == F(4, 5)

    def test_bn_cn_closed_forms(self):
        b = build("B5")
        for j in range(1, 6):
            for i in range(1, 6):
                expect = F(min(i, j)) if i < 5 else F(j, 2)
                assert b.inv_coeffs[j - 1][i - 1] == expect
        c = build("C5")
        for j in range(1, 6):
            for i in range(1, 6):
                if j < 5:
                    expect = F(min(i, j)) if i < 5 else F(j)
                else:
                    expect = F(i, 2) if i < 5 else F(5, 2)
                assert c.inv_coeffs[j - 1][i - 1] == expect

    def test_dn_weight_columns(self):
        rs = build("D5")
        lam4 = fundamental_weight(rs, 3)
        assert lam4 == (F(1, 2), F(1), F(3, 2), F(5, 4), F(3, 4))
        lam5 = fundamental_weight(rs, 4)
        assert lam5 == (F(1, 2), F(1), F(3, 2), F(3, 4), F(5, 4))

    def test_edges_form_expected_trees(self):
        assert build("A4").edges == ((0, 1), (1, 2), (2, 3))
        assert build("D5").edges == ((0, 1), (1, 2), (2, 3), (2, 4))
        assert build("E6").edges == ((0, 1), (1, 2), (2, 3), (2, 5), (3, 4))
        assert build("E7").edges == ((0, 1), (1, 2), (2, 3), (3, 4), (3, 6), (4, 5))
        assert build("E8").edges == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 7), (5, 6))

    def test_build_caches(self):
        assert build("A3") is build(SimpleType("A", 3))


class TestRootSystemInvariants:
    @pytest.mark.parametrize("rs", checked_types(), ids=str)
    def test_cartan_shape(self, rs):
        """Diagonal 2, off-diagonal in {0,-1,-2,-3}, zero pattern symmetric."""
        n = rs.rank
        for i in range(n):
            assert rs.cartan[i][i] == 2
            for j in range(n):
                if i != j:
                    assert rs.cartan[i][j] in (0, -1, -2, -3)
                    assert (rs.cartan[i][j] == 0) == (rs.cartan[j][i] == 0)

    @pytest.mark.parametrize("rs", checked_types(), ids=str)
    def test_inverse_is_exact(self, rs):
        ct = exactla.mat_transpose(rs.cartan)
        assert support.mat_mul(rs.inv_coeffs, ct) == exactla.identity(rs.rank)
        assert support.mat_mul(ct, rs.inv_coeffs) == exactla.identity(rs.rank)

    @pytest.mark.parametrize("rs", checked_types(), ids=str)
    def test_inv_coeffs_positive(self, rs):
        assert all(v > 0 for row in rs.inv_coeffs for v in row)

    @pytest.mark.parametrize("rs", checked_types(), ids=str)
    def test_form_symmetric_and_normalized(self, rs):
        n = rs.rank
        d = symmetrizers(rs)
        assert min(rs.form[i][i] for i in range(n)) == 2
        for i in range(n):
            for j in range(n):
                assert rs.form[i][j] == rs.form[j][i]
                assert rs.form[i][j] == d[j] * rs.cartan[i][j]
                assert rs.form[i][j] == d[i] * rs.cartan[j][i]

    @pytest.mark.parametrize("rs", checked_types(), ids=str)
    def test_edges_form_tree(self, rs):
        """rank-1 edges, connected, matching noncommuting reflections."""
        n = rs.rank
        assert len(rs.edges) == n - 1
        assert all(support.tree_path(rs, 0, k) for k in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                si = simple_reflection(rs, i).matrix
                sj = simple_reflection(rs, j).matrix
                commute = support.mat_mul(si, sj) == support.mat_mul(sj, si)
                assert commute == ((i, j) not in rs.edges)

    @pytest.mark.parametrize("rs", checked_types(12), ids=str)
    def test_edges_in_tree_order(self, rs):
        """In edges order each edge (i, j), i < j, joins a node already
        reached from node 0 to a new node j: the ray walk in faces sets a_j
        from a_i in that order."""
        reached = {0}
        for i, j in rs.edges:
            assert i < j and i in reached and j not in reached
            reached.add(j)
        assert reached == set(range(rs.rank))

    @pytest.mark.parametrize("rs", checked_types(), ids=str)
    def test_pairing_of_weights(self, rs):
        """<lambda_a, beta^v> = delta: the defining property, via the form."""
        for a in range(rs.rank):
            lam = fundamental_weight(rs, a)
            pair = coroot_pairing(rs, lam)
            assert pair == exactla.unit(rs.rank, a)

    @pytest.mark.parametrize("rs", checked_types(), ids=str)
    def test_chain_identity(self, rs):
        assert chain_identity_check(rs)


def weight_mismatches(rs, cols) -> list:
    """Nodes alpha whose fundamental weight, column alpha of weights /
    weight_den, differs from the sympy-solved one in cols."""
    return [a for a in range(rs.rank) if list(fundamental_weight(rs, a)) != cols[a]]


class TestOracleAgreement:
    """Two-route checks against the vector realizations (sympy stack)."""

    @pytest.mark.parametrize("rs", checked_types(), ids=str)
    def test_form_matches_realization(self, rs):
        assert [list(r) for r in rs.form] == oracles.form_matrix(rs.stype)

    @pytest.mark.parametrize("rs", checked_types(), ids=str)
    def test_cartan_matches_realization(self, rs):
        assert [list(r) for r in rs.cartan] == oracles.cartan_matrix(rs.stype)

    @pytest.mark.parametrize("stype", [str(t) for t in all_types()], ids=str)
    def test_weights_match_pairing_solutions(self, stype):
        """weights / weight_den columns equal sympy-solved fundamental
        weights, and weight_den is their one common denominator: the lcm of
        their denominators, which is |det C| except for D_n with n even,
        whose weight lattice modulo the root lattice is Z/2 x Z/2."""
        rs = build(stype)
        cols = oracles.weight_columns(stype)
        assert weight_mismatches(rs, cols) == []
        assert rs.weight_den == lcm(*(q.denominator for col in cols for q in col))
        det = abs(sympy.Matrix(oracles.cartan_matrix(stype)).det())
        if rs.stype.family == "D" and rs.rank % 2 == 0:
            assert (rs.weight_den, det) == (2, 4)
        else:
            assert rs.weight_den == det


class TestIntegerWeights:
    @pytest.mark.parametrize("label", ["A1", "B5", "D6", "E8", "G2"])
    def test_tables_are_integers_and_inv_coeffs_fractions(self, label):
        rs = build(label)
        for table in (rs.cartan, rs.form, rs.weights):
            assert all(type(v) is int for row in table for v in row)
        assert all(type(v) is F for row in rs.inv_coeffs for v in row)
        assert rs.inv_coeffs == tuple(
            tuple(F(v, rs.weight_den) for v in row) for row in rs.weights
        )

    def test_planted_weight_is_caught(self):
        rs = build("E6")
        weights = [list(row) for row in rs.weights]
        weights[2][5] += 1
        planted = dataclasses.replace(rs, weights=tuple(map(tuple, weights)))
        assert weight_mismatches(planted, oracles.weight_columns("E6")) == [5]


class TestNodeIndices:
    """A negative node would count from the end, node rank would raise
    IndexError, and a node paired with itself is no pair condition."""

    @pytest.mark.parametrize(
        "beta, alpha, message",
        [
            (-1, 0, "node -1 out of range for B3"),
            (0, -1, "node -1 out of range for B3"),
            (3, 0, "node 3 out of range for B3"),
            (0, 3, "node 3 out of range for B3"),
            (1, 1, r"nodes \(1, 1\) of B3 must be distinct"),
        ],
    )
    def test_pair_needs_two_distinct_nodes_in_range(self, beta, alpha, message):
        rs = build("B3")
        for fn in (ratio, pair_row):
            with pytest.raises(ValueError, match=message):
                fn(rs, beta, alpha)

    @pytest.mark.parametrize("alpha", [-1, 3])
    def test_reflection_node_in_range(self, alpha):
        with pytest.raises(ValueError, match=f"node {alpha} out of range for B3"):
            simple_reflection(build("B3"), alpha)


class TestReflections:
    def test_negates_its_root(self):
        for rs in (build("A3"), build("G2"), build("B3")):
            for a in range(rs.rank):
                alpha = exactla.unit(rs.rank, a)
                assert weyl_apply(simple_reflection(rs, a), alpha) == support.vec_scale(-1, alpha)

    def test_involution(self):
        rng = random.Random(11)
        for rs in (build("A4"), build("F4"), build("D4")):
            for a in range(rs.rank):
                s = simple_reflection(rs, a)
                x = tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(rs.rank))
                assert weyl_apply(s, weyl_apply(s, x)) == x

    def test_a2_example(self):
        rs = build("A2")
        assert weyl_apply(simple_reflection(rs, 0), exactla.unit(2, 1)) == exactla.vec([1, 1])

    def test_form_invariance(self):
        rng = random.Random(12)
        for rs in (build("B3"), build("G2"), build("E6")):
            for a in range(rs.rank):
                s = simple_reflection(rs, a)
                v = tuple(F(rng.randint(-12, 12), rng.randint(1, 7)) for _ in range(rs.rank))
                w = tuple(F(rng.randint(-12, 12), rng.randint(1, 7)) for _ in range(rs.rank))
                assert inner(rs, weyl_apply(s, v), weyl_apply(s, w)) == inner(rs, v, w)


class TestDominance:
    def test_fundamental_weights_dominant(self):
        for rs in checked_types(4):
            for a in range(rs.rank):
                assert dominant_in_root_coords(rs, fundamental_weight(rs, a))

    def test_simple_root_not_dominant(self):
        rs = build("A2")
        assert not dominant_in_root_coords(rs, exactla.unit(2, 0))

    def test_zero_weak_only(self):
        rs = build("B3")
        zero = support.zeros(3)
        assert dominant_in_root_coords(rs, zero)
        assert not dominant_in_root_coords(rs, zero, strict=True)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
