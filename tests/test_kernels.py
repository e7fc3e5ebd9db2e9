"""The integer kernels against independent routes: sympy for rank, dense
and Fraction evaluation for sparse rows, and lifted grid points for
Fourier-Motzkin steps."""

import random
from fractions import Fraction

import oracles
import support
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coterie import _kernels_py as kernels
from coterie import cone, exactla, faces, rootsys
from coterie._backend import BACKEND
from coterie.exactla import EQ, GE, GT, ConeSystem, constraint


def rand_int_rows(rng, m, n, lo=-6, hi=6):
    return [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m)]


def rand_fm_rows(rng, m, n):
    return [
        (
            tuple(rng.randint(-5, 5) for _ in range(n)),
            rng.randint(-8, 8),
            rng.random() < 0.5,
        )
        for _ in range(m)
    ]


def rand_eval_rows(rng, m, n):
    return [
        (
            tuple(rng.randint(-5, 5) for _ in range(n)),
            rng.randint(-6, 6),
            rng.randint(0, 2),
        )
        for _ in range(m)
    ]


def sparse(rows) -> list:
    """Dense (coeffs, bound, rel) rows as eval_rows' sparse (terms, bound, rel) rows."""
    return [(tuple((i, c) for i, c in enumerate(coeffs) if c), bound, rel) for coeffs, bound, rel in rows]


def test_backend_marker():
    assert BACKEND == "pure"


def rank_mismatches(cases):
    """The cases where kernels.rank_of disagrees with sympy's rank."""
    return [rows for rows in cases if kernels.rank_of(rows) != sympy.Matrix(rows).rank()]


def rank_cases():
    rng = random.Random(106)
    cases = [rand_int_rows(rng, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(60)]
    # fraction-free elimination grows entries; nothing may truncate them
    rng = random.Random(102)
    cases += [rand_int_rows(rng, 4, 4, lo=-(10**12), hi=10**12) for _ in range(25)]
    # a rank drop hidden in 10^12-sized entries
    cases.append([(10**12, 3 * 10**12 + 1), (2 * 10**12, 6 * 10**12 + 2)])
    return cases


class TestAgainstFractionRoute:
    def test_rank_matches_sympy(self):
        assert rank_mismatches(rank_cases()) == []

    def test_planted_wrong_rank_is_caught(self, monkeypatch):
        """exactla.mat_rank calls rank_of, so it follows a broken rank_of and
        cannot serve as the oracle; sympy does not."""
        true_rank = kernels.rank_of
        monkeypatch.setattr(kernels, "rank_of", lambda rows: true_rank(rows[1:]))
        assert exactla.mat_rank([[1, 2], [3, 4]]) == 1
        assert rank_mismatches(rank_cases())

    def test_eval_matches_direct(self):
        rng = random.Random(107)
        rels = {0: ">", 1: ">=", 2: "="}
        for _ in range(80):
            n = rng.randint(1, 4)
            rows = rand_eval_rows(rng, rng.randint(1, 5), n)
            x = tuple(rng.randint(-5, 5) for _ in range(n))
            want = True
            for coeffs, bound, rel in rows:
                v = sum(c * xi for c, xi in zip(coeffs, x))
                if rels[rel] == ">":
                    ok = v > bound
                elif rels[rel] == ">=":
                    ok = v >= bound
                else:
                    ok = v == bound
                want = want and ok
            assert kernels.eval_rows(sparse(rows), x) == want

    def test_fm_step_preserves_solutions(self):
        """Grid points of a projection: x solves the stepped system iff some
        lift solved the original rows."""
        rng = random.Random(108)

        def holds(rs_, point):
            for coeffs, bound, strict in rs_:
                v = sum(c * p for c, p in zip(coeffs, point))
                if strict and not v > bound:
                    return False
                if not strict and not v >= bound:
                    return False
            return True

        grid = [Fraction(t, 2) for t in range(-8, 9)]
        for _ in range(40):
            n = rng.randint(2, 3)
            rows = rand_fm_rows(rng, rng.randint(1, 5), n)
            col = rng.randrange(n)
            stepped = kernels.fm_step(rows, col)
            others = [k for k in range(n) if k != col]
            for _ in range(20):
                base = {k: rng.choice(grid) for k in others}
                point = [base.get(k, Fraction(0)) for k in range(n)]
                lifted = any(
                    holds(rows, [t if k == col else point[k] for k in range(n)])
                    for t in grid
                )
                if lifted:
                    assert holds(stepped, point)


# ---------------------------------------------------------------------------
# sparse evaluation against the dense oracle and the Fraction route

REL_NAMES = (GT, GE, EQ)

# mostly small entries, with zeros and 40-digit ints mixed in
ENTRIES = st.one_of(st.integers(-6, 6), st.just(0), st.integers(-(10**40), 10**40))


@st.composite
def eval_cases(draw):
    """(dense rows, integer point, denominator) with whole rows sometimes
    zero, so that empty term lists are evaluated too."""
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        coeffs = draw(st.lists(ENTRIES, min_size=n, max_size=n))
        if draw(st.booleans()) and draw(st.booleans()):
            coeffs = [0] * n
        rows.append((tuple(coeffs), draw(ENTRIES), draw(st.integers(0, 2))))
    x = tuple(draw(st.lists(ENTRIES, min_size=n, max_size=n)))
    d = draw(st.one_of(st.just(1), st.integers(2, 10**20)))
    return rows, x, d


def fraction_verdict(rows, x, d) -> bool:
    """Every row checked by support.holds at the rational point x / d."""
    point = tuple(Fraction(c, d) for c in x)
    return all(support.holds(constraint(coeffs, REL_NAMES[rel], bound), point) for coeffs, bound, rel in rows)


def system_of(rows, n) -> ConeSystem:
    """A ConeSystem holding dense (coeffs, bound, rel code) rows."""
    return ConeSystem(n, tuple(constraint(c, REL_NAMES[r], b) for c, b, r in rows))


class TestSparseEvaluation:
    @given(case=eval_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_oracle_and_fraction_route(self, case):
        rows, x, d = case
        want = fraction_verdict(rows, x, d)
        assert kernels.eval_rows(sparse(rows), x, d) == want
        # the dense oracle evaluates x against the bounds scaled by d
        assert oracles.eval_rows_dense([(c, b * d, r) for c, b, r in rows], x) == want
        # satisfies clears x / d itself and evaluates the system's sparse rows
        assert system_of(rows, len(x)).satisfies(tuple(Fraction(c, d) for c in x)) == want

    def test_planted_unscaled_bound_is_caught(self, monkeypatch):
        """satisfies passing the cleared point but comparing against the
        unscaled bound: x > 1 then holds at x = 3/4 (3 > 1, not 3 > 4), and
        seeded rows at points with denominators d > 1 disagree with the
        Fraction route, while d = 1 cannot show it."""
        honest = kernels.eval_rows
        monkeypatch.setattr(kernels, "eval_rows", lambda rows, x, d=1: honest(rows, x))
        assert system_of([((1,), 1, kernels.REL_GT)], 1).satisfies((Fraction(3, 4),)) is True
        rng = random.Random(109)
        wrong = {1: 0, 2: 0}
        for _ in range(200):
            n = rng.randint(1, 4)
            rows = rand_eval_rows(rng, rng.randint(1, 5), n)
            x = tuple(rng.randint(-5, 5) for _ in range(n))
            d = rng.choice((1, rng.randint(2, 9)))
            got = system_of(rows, n).satisfies(tuple(Fraction(c, d) for c in x))
            wrong[min(d, 2)] += got != fraction_verdict(rows, x, d)
        assert wrong[1] == 0 and wrong[2] > 0

    @given(
        row=st.lists(st.fractions(max_denominator=10**6) | st.just(Fraction(0)), min_size=1, max_size=6),
        bound=st.fractions(max_denominator=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_sparse_clearing_matches_dense_clearing(self, row, bound):
        """The sparse row is the dense clearing divided by its gcd."""
        c = constraint(row, GE, bound)
        coeffs, b, rel = support.cleared(c)
        coeffs, b = kernels._reduce_row(coeffs, b)
        assert c.cleared_terms == (sparse([(coeffs, b, rel)])[0][0], b, exactla._REL_CODE[rel])

    def test_all_zero_and_empty_rows(self):
        assert kernels.eval_rows([], (5,)) is True
        assert kernels.eval_rows([((), 0, kernels.REL_GE)], (5,)) is True
        assert kernels.eval_rows([((), 0, kernels.REL_GT)], (5,)) is False
        assert kernels.eval_rows([((), 0, kernels.REL_EQ)], (5,)) is True
        assert kernels.eval_rows([((), -1, kernels.REL_GT)], (5,)) is True

    def test_rows_hold_only_nonzero_terms(self):
        system = ConeSystem(3, (constraint((0, 2, 0), GT, 1), constraint((0, 0, 0), GE, 0)))
        assert system._rows == ((((1, 2),), 1, kernels.REL_GT), ((), 0, kernels.REL_GE))
        # Fourier-Motzkin still sees dense, gcd-reduced rows
        assert exactla._initial_rows(system) == ([], [((0, 2, 0), 1, True), ((0, 0, 0), 0, False)])


def cone_disagreements(points_by_type) -> list:
    """(type, mode, point) wherever the reduced system's sparse evaluation
    differs from the dense oracle on rows cleared afresh from its
    constraints, or from the Fraction route over those constraints."""
    out = []
    for label, points in points_by_type.items():
        desc = cone.inequalities(rootsys.build(label))
        for mode, system in (("open", desc.open_system), ("closed", desc.closed_system)):
            dense = [(f, b, exactla._REL_CODE[r]) for f, b, r in (support.cleared(c) for c in system.constraints)]
            for x in points:
                verdicts = {
                    system.satisfies(x),
                    oracles.eval_rows_dense(dense, exactla.clear_row(x)),
                    all(support.holds(c, x) for c in system.constraints),
                }
                if len(verdicts) != 1:
                    out.append((label, mode, x))
    return out


def cone_points() -> dict:
    """Per type up to rank 5: its extremal rays, interior samples, and
    points just outside."""
    rng = random.Random(111)
    out = {}
    for t in rootsys.all_types(5):
        rs = rootsys.build(str(t))
        points = [r.vector for r in faces.extremal_rays(rs)]
        points += [support.sample_member(rs, rng) for _ in range(4)]
        points += [support.rand_vec(rng, rs.rank) for _ in range(4)]
        out[str(t)] = points
    return out


class TestSparseRowsInTheCone:
    def test_cone_rows_agree(self):
        assert cone_disagreements(cone_points()) == []

    def test_planted_dropped_term_is_caught(self):
        """Drop the positive term of the first pair row of every reduced
        system, leaving -c a_alpha > 0 (or >= 0): interior points now fail
        the sparse row, and the comparison reports every type of rank >= 2."""
        points = cone_points()
        saved = []
        try:
            for label in points:
                desc = cone.inequalities(rootsys.build(label))
                for system in (desc.open_system, desc.closed_system):
                    rows = list(system._rows)
                    k = next((k for k, (terms, _, _) in enumerate(rows) if len(terms) == 2), None)
                    if k is None:  # A1 has no pair rows
                        continue
                    terms, bound, rel = rows[k]
                    rows[k] = (tuple(t for t in terms if t[1] < 0), bound, rel)
                    saved.append((system, system._rows))
                    object.__setattr__(system, "_rows", tuple(rows))
            broken = {label for label, _, _ in cone_disagreements(points)}
        finally:
            for system, rows in saved:
                object.__setattr__(system, "_rows", rows)
        assert broken == {label for label in points if label != "A1"}
