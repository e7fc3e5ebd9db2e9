"""Tests for stable oriented hyperplane arrangements, orbits, and the
classifying map."""

import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import oracles
import pytest
import support

from coterie import arrangement as arrmod
from coterie import exactla, rootsys
from coterie._kernels_py import _reduce_row
from coterie.arrangement import (
    IMPLICIT,
    Arrangement,
    ArrangementFormatError,
    ClassifyingMap,
    DegenerateArrangementError,
    OrientedHyperplane,
    canonical_arrangement,
    classifying_map,
    parse_arrangement,
    weyl_orbit,
)
from support import env_augmented_cone_member, format_arrangement

DATA = Path(__file__).parent / "data"

F = Fraction


def functionals(arr):
    return {h.functional for h in arr.full}


class TestOrientedHyperplane:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            OrientedHyperplane((0, 0))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            OrientedHyperplane((F(1, 2), 1))


class TestValidation:
    def test_wrong_length_rejected(self):
        rs = rootsys.build("A2")
        with pytest.raises(ValueError):
            Arrangement(rs=rs, fundamental=(OrientedHyperplane((-1, 0, 0)),))

    def test_positive_entry_rejected(self):
        """Fundamental functionals must be nonpositive on the basis."""
        rs = rootsys.build("A2")
        with pytest.raises(ValueError):
            Arrangement(
                rs=rs,
                fundamental=(OrientedHyperplane((1, 0)), OrientedHyperplane((0, -1))),
            )

    def test_positive_multiples_rejected(self):
        rs = rootsys.build("A2")
        with pytest.raises(DegenerateArrangementError):
            Arrangement(
                rs=rs,
                fundamental=(OrientedHyperplane((-1, 0)), OrientedHyperplane((-2, 0))),
            )

    def test_distinct_kernels_accepted(self):
        rs = rootsys.build("A2")
        arr = Arrangement(
            rs=rs,
            fundamental=(OrientedHyperplane((-1, 0)), OrientedHyperplane((-1, -1))),
        )
        assert len(arr.fundamental) == 2


class TestWeylOrbit:
    def test_a1_orbit(self):
        orbit = weyl_orbit(canonical_arrangement(rootsys.build("A1")))
        assert functionals(orbit) == {(-1,), (1,)}

    def test_a2_orbit(self):
        orbit = weyl_orbit(canonical_arrangement(rootsys.build("A2")))
        assert functionals(orbit) == {
            (-1, 0),
            (0, -1),
            (1, 0),
            (0, 1),
            (-1, 1),
            (1, -1),
        }

    def test_orbit_members_are_primitive(self):
        from math import gcd

        orbit = weyl_orbit(canonical_arrangement(rootsys.build("B3")))
        for h in orbit.full:
            assert gcd(*[abs(v) for v in h.functional]) == 1

    def test_orbit_closed_under_reflections(self):
        rs = rootsys.build("C3")
        orbit = weyl_orbit(canonical_arrangement(rs))
        fs = functionals(orbit)
        for l in fs:
            for k in range(rs.rank):
                m = rootsys.simple_reflection(rs, k).matrix
                image = tuple(
                    sum(F(l[i]) * m[i][j] for i in range(rs.rank))
                    for j in range(rs.rank)
                )
                assert tuple(int(v) for v in image) in fs

    def test_cap_produces_implicit(self):
        arr = canonical_arrangement(rootsys.build("D4"))
        orbit = weyl_orbit(arr, cap=3)
        assert orbit.full == IMPLICIT
        # four fundamental members, so the cap is hit before the search
        assert orbit.partial_size == 3

    def test_scaling_does_not_change_orbit(self):
        """Orbit members are canonicalized, so a scaled fundamental set gives
        the same primitive functionals."""
        rs = rootsys.build("A2")
        scaled = Arrangement(
            rs=rs,
            fundamental=(OrientedHyperplane((-2, 0)), OrientedHyperplane((0, -3))),
        )
        assert functionals(weyl_orbit(scaled)) == functionals(
            weyl_orbit(canonical_arrangement(rs))
        )


def generic_arrangement(label, seed, count=3):
    """Fundamental functionals with every entry negative, no two of them
    positive multiples of each other."""
    rs = rootsys.build(label)
    rng = random.Random(seed)
    fund = {}
    while len(fund) < count:
        f = tuple(-rng.randint(1, 4) for _ in range(rs.rank))
        fund.setdefault(_reduce_row(f, 0)[0], f)
    return Arrangement(rs=rs, fundamental=tuple(fund.values()))


class TestSparseOrbitAgainstDense:
    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types()])
    def test_same_orbit_when_it_fits(self, label):
        arr = canonical_arrangement(rootsys.build(label))
        orbit = weyl_orbit(arr)
        if orbit.full == IMPLICIT:
            assert label in {"B11", "B12", "C11", "C12", "D11", "D12", "E8"}
            return
        dense = oracles.weyl_orbit_dense(arr)
        assert orbit == dense
        # the count that decides the cap agrees with the enumerated orbit
        assert arrmod.orbit_size(arr) == len(dense.full)

    @pytest.mark.parametrize("label", ["A3", "B4", "D5", "F4", "G2"])
    def test_same_orbit_generic(self, label):
        arr = generic_arrangement(label, seed=11)
        assert weyl_orbit(arr) == oracles.weyl_orbit_dense(arr)

    def test_same_partial_size_capped_e8(self):
        arr = canonical_arrangement(rootsys.build("E8"))
        orbit = weyl_orbit(arr)
        assert orbit.full == IMPLICIT
        assert orbit == oracles.weyl_orbit_dense(arr)

    def test_same_partial_size_capped_generic_e7(self):
        arr = generic_arrangement("E7", seed=5)
        orbit = weyl_orbit(arr)
        assert orbit.full == IMPLICIT
        assert orbit == oracles.weyl_orbit_dense(arr)

    @pytest.mark.parametrize("cap", [1, 2, 3, 7, 50])
    def test_same_partial_size_small_caps(self, cap):
        arr = canonical_arrangement(rootsys.build("E6"))
        assert weyl_orbit(arr, cap) == oracles.weyl_orbit_dense(arr, cap)

    def test_detects_planted_update(self, monkeypatch):
        rs = rootsys.build("B3")
        arr = canonical_arrangement(rs)
        updates = [list(u) for u in arrmod._reflection_updates(rs)]
        k, j, c = updates[1][0]
        updates[1][0] = (k, j, c + 1)
        monkeypatch.setattr(arrmod, "_reflection_updates", lambda _: tuple(map(tuple, updates)))
        assert weyl_orbit(arr, cap=1000) != oracles.weyl_orbit_dense(arr, cap=1000)


def weyl_group_order(stype):
    """|W| from the classical table."""
    n = stype.rank
    if stype.family == "A":
        return factorial(n + 1)
    if stype.family in "BC":
        return 2**n * factorial(n)
    if stype.family == "D":
        return 2 ** (n - 1) * factorial(n)
    return {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}[str(stype)]


def zero_entry_arrangement(label, seed):
    """One to three fundamental functionals with entries in {0, ..., -3},
    each with at least one zero entry, so every member has a nontrivial
    parabolic stabilizer; rank >= 2."""
    rs = rootsys.build(label)
    rng = random.Random(seed)
    count = rng.randint(1, min(3, rs.rank))
    fund = {}
    while len(fund) < count:
        f = [-rng.randint(0, 3) for _ in range(rs.rank)]
        f[rng.randrange(rs.rank)] = 0
        if any(f):
            fund.setdefault(_reduce_row(tuple(f), 0)[0], tuple(f))
    return Arrangement(rs=rs, fundamental=tuple(fund.values()))


SMALL_TYPES = [str(t) for t in rootsys.all_types(max_rank=6) if t.rank >= 2]


def size_mismatches(arrs, cap=5000):
    """The arrangements whose orbit_size disagrees with the dense
    enumeration: a different size where the orbit fits cap, a size within
    cap where the enumeration outgrew it."""
    out = []
    for arr in arrs:
        dense = oracles.weyl_orbit_dense(arr, cap)
        size = arrmod.orbit_size(arr)
        if (size <= cap) if dense.full == IMPLICIT else (size != len(dense.full)):
            out.append(arr)
    return out


class TestOrbitSize:
    @pytest.mark.parametrize("label", [str(t) for t in rootsys.all_types()])
    def test_weyl_group_order(self, label):
        """A functional with no zero entry has a trivial stabilizer, so its
        orbit has |W| members."""
        rs = rootsys.build(label)
        regular = Arrangement(rs=rs, fundamental=((-1,) * rs.rank,))
        assert arrmod.orbit_size(regular) == weyl_group_order(rs.stype)

    @pytest.mark.parametrize("label", SMALL_TYPES)
    def test_zero_entries_match_enumeration(self, label):
        arrs = [zero_entry_arrangement(label, seed) for seed in range(3)]
        assert not size_mismatches(arrs)
        for arr in arrs:
            assert weyl_orbit(arr, 5000) == oracles.weyl_orbit_dense(arr, 5000)

    def test_generic_matches_enumeration(self):
        assert not size_mismatches([generic_arrangement(label, seed=11) for label in SMALL_TYPES])

    def test_detects_dropped_det(self, monkeypatch):
        arrs = [canonical_arrangement(rootsys.build(label)) for label in SMALL_TYPES]
        assert not size_mismatches(arrs)
        monkeypatch.setattr(arrmod, "_det", lambda m: 1)
        assert size_mismatches(arrs)

    def test_detects_ignored_zero_entries(self, monkeypatch):
        arrs = [zero_entry_arrangement(label, 0) for label in SMALL_TYPES]
        assert not size_mismatches(arrs)
        monkeypatch.setattr(arrmod, "_stabilizer", lambda f: ())
        assert size_mismatches(arrs)


class TestCapBoundary:
    """A cap equal to the orbit size enumerates it all; one less reports
    IMPLICIT at the cap. Both agree with the dense enumeration."""

    @pytest.mark.parametrize(
        "arr",
        [
            canonical_arrangement(rootsys.build("F4")),
            canonical_arrangement(rootsys.build("E6")),
            zero_entry_arrangement("B4", 0),
            generic_arrangement("A3", seed=11),
        ],
        ids=["F4", "E6", "B4-zero", "A3-generic"],
    )
    def test_cap_at_and_below_size(self, arr):
        size = len(oracles.weyl_orbit_dense(arr).full)
        at = weyl_orbit(arr, cap=size)
        assert at.full != IMPLICIT and len(at.full) == size
        assert at == oracles.weyl_orbit_dense(arr, cap=size)
        below = weyl_orbit(arr, cap=size - 1)
        assert below.full == IMPLICIT and below.partial_size == size - 1
        assert below == oracles.weyl_orbit_dense(arr, cap=size - 1)


class TestClassifyingMap:
    def test_canonical_is_identity(self):
        for label in ("A2", "B3", "G2"):
            rs = rootsys.build(label)
            cm = classifying_map(canonical_arrangement(rs))
            assert cm.a_star == exactla.identity(rs.rank)
            assert cm.k == tuple([1] * rs.rank)

    def test_scaled_functional_scales_k(self):
        rs = rootsys.build("A2")
        arr = Arrangement(
            rs=rs,
            fundamental=(OrientedHyperplane((-3, 0)), OrientedHyperplane((0, -1))),
        )
        cm = classifying_map(arr)
        assert cm.a_star == ((3, 0), (0, 1))
        assert cm.k == (3, 1)

    def test_mixed_functional(self):
        rs = rootsys.build("A2")
        arr = Arrangement(
            rs=rs,
            fundamental=(OrientedHyperplane((-2, -4)), OrientedHyperplane((0, -1))),
        )
        cm = classifying_map(arr)
        assert cm.a_star == ((2, 4), (0, 1))
        assert cm.k == (2, 1)

    def test_empty_arrangement_rejected(self):
        arr = Arrangement(rs=rootsys.build("A2"), fundamental=())
        with pytest.raises(DegenerateArrangementError, match="^empty arrangement$"):
            classifying_map(arr)


class TestEnvAugmentedConeMember:
    def test_examples(self):
        rs = rootsys.build("A2")
        assert env_augmented_cone_member(rs, (3, 2), (1, 1))
        assert env_augmented_cone_member(rs, (1, 1), (1, 1))
        assert not env_augmented_cone_member(rs, (0, 0), (1, 1))

    def test_non_integer_difference_fails(self):
        rs = rootsys.build("A2")
        assert not env_augmented_cone_member(rs, (F(3, 2), 1), (1, 1))

    def test_non_dominant_base_rejected(self):
        rs = rootsys.build("A2")
        # (1, 0) has C^T x = (2, -1), not dominant
        with pytest.raises(ValueError):
            env_augmented_cone_member(rs, (2, 1), (1, 0))

    def test_dominance_check_uses_weights(self):
        rs = rootsys.build("G2")
        lam = tuple(support.fundamental_weight(rs, 0))
        assert env_augmented_cone_member(rs, support.vec_add(lam, (1, 1)), lam)


class TestFileFormat:
    def test_round_trip(self):
        arr = canonical_arrangement(rootsys.build("A2"))
        assert parse_arrangement(format_arrangement(arr)).fundamental == arr.fundamental

    def test_parse_sample_file(self):
        arr = parse_arrangement((DATA / "arrangement_a2.txt").read_text())
        assert str(arr.rs.stype) == "A2"
        assert [h.functional for h in arr.fundamental] == [(-1, 0), (0, -1)]

    def test_degenerate_file_rejected(self):
        with pytest.raises(DegenerateArrangementError):
            parse_arrangement((DATA / "arrangement_degenerate.txt").read_text())

    def test_missing_header(self):
        with pytest.raises(ArrangementFormatError):
            parse_arrangement("-1 0\n0 -1\n")

    def test_bad_entry(self):
        with pytest.raises(ArrangementFormatError):
            parse_arrangement("type A2\n-1 x\n0 -1\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\ntype A2\n-1 0  # inline\n\n0 -1\n"
        arr = parse_arrangement(text)
        assert len(arr.fundamental) == 2
