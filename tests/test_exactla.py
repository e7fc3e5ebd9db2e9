"""Tests for exact rational linear algebra and feasibility."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import oracles
import pytest
import support
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coterie import _kernels_py as kernels
from coterie import exactla
from coterie.exactla import (
    EQ,
    GE,
    GT,
    ConeSystem,
    InconsistentSystemError,
    LinearConstraint,
    ResourceCapError,
    SingularMatrixError,
    constraint,
    feasible,
    identity,
    mat_inverse,
    mat_rank,
    primitive,
    solve_linear,
    vec,
)

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
big_integers = st.integers(min_value=-(10**12), max_value=10**12)
dims = st.integers(min_value=1, max_value=4)
# constraint entries: kept as given (int, Fraction) or boxed (str, bool)
exact_or_boxed = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.fractions(max_denominator=10**9),
    st.fractions(max_denominator=10**9).map(str),
    st.integers(min_value=-50, max_value=50).map(str),
    st.booleans(),
)


@st.composite
def matrix_and_point(draw):
    n = draw(dims)
    m = draw(st.integers(min_value=1, max_value=4))
    a = tuple(tuple(draw(small_rationals) for _ in range(n)) for _ in range(m))
    x = tuple(draw(small_rationals) for _ in range(n))
    return a, x


@st.composite
def small_system(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.integers(min_value=1, max_value=5))
    cons = []
    for _ in range(rows):
        f = tuple(draw(st.integers(min_value=-4, max_value=4)) for _ in range(n))
        rel = draw(st.sampled_from([GT, GE, EQ]))
        bound = draw(st.integers(min_value=-4, max_value=4))
        cons.append(constraint(f, rel, bound))
    return ConeSystem(n, tuple(cons))


class TestSolveLinear:
    def test_identity_system(self):
        """Identity matrix returns b itself with empty kernel."""
        sol = solve_linear(identity(2), vec([3, 5]))
        assert sol.particular == vec([3, 5])
        assert sol.kernel == ()

    def test_symmetric_kernel(self):
        """x - y = 0 has kernel spanned by (1, 1)."""
        sol = solve_linear(((1, -1),), (0,))
        assert sol.particular == vec([0, 0])
        assert sol.kernel == ((1, 1),)

    def test_chain_equalities_give_ray_direction(self):
        """The 2a1=a2, 3a2=2a3, 4a3=3a4 system has the (1/4,1/2,3/4,1) line."""
        a = ((2, -1, 0, 0), (0, 3, -2, 0), (0, 0, 4, -3))
        sol = solve_linear(a, (0, 0, 0))
        assert sol.particular == vec([0, 0, 0, 0])
        assert sol.kernel == ((1, 2, 3, 4),)
        scaled = tuple(Fraction(c, 4) for c in sol.kernel[0])
        assert scaled == vec(["1/4", "1/2", "3/4", 1])

    def test_inconsistent_raises(self):
        with pytest.raises(InconsistentSystemError):
            solve_linear(((1, 1), (1, 1)), (0, 1))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear(((1, 1),), (0, 1))

    @given(ax=matrix_and_point())
    def test_substitution_reproduces_rhs(self, ax):
        """Solving A x = A x0 yields solutions that reproduce the rhs exactly."""
        a, x0 = ax
        b = exactla.mat_vec(a, x0)
        sol = solve_linear(a, b)
        assert exactla.mat_vec(a, sol.particular) == b
        for k in sol.kernel:
            assert exactla.mat_vec(a, vec(k)) == support.zeros(len(a))

    @given(ax=matrix_and_point())
    def test_kernel_vectors_primitive(self, ax):
        """Kernel basis vectors are primitive integer vectors."""
        a, x0 = ax
        sol = solve_linear(a, exactla.mat_vec(a, x0))
        for k in sol.kernel:
            assert k == primitive(k)
            assert all(isinstance(c, int) for c in k)


def _fraction(x):
    return Fraction(int(x.p), int(x.q))


def solve_outcome(solve, a, b):
    try:
        sol = solve(a, b)
    except InconsistentSystemError:
        return "inconsistent"
    return sol.particular, sol.kernel


def sympy_solve_outcome(a, b):
    """Particular solution with the free variables at 0, and the nullspace
    basis in free-column order, each vector made primitive."""
    m = sympy.Matrix(a)
    try:
        sol, params = m.gauss_jordan_solve(sympy.Matrix([[v] for v in b]))
    except ValueError:
        return "inconsistent"
    sol = sol.subs({t: 0 for t in params})
    kernel = tuple(primitive([_fraction(x) for x in k]) for k in m.nullspace())
    return tuple(_fraction(x) for x in sol), kernel


def solve_disagreements(cases):
    """The systems on which solve_linear disagrees with the Fraction
    Gauss-Jordan oracle or with sympy."""
    bad = []
    for a, b in cases:
        got = solve_outcome(solve_linear, a, b)
        if got != solve_outcome(oracles.solve_linear_by_fractions, a, b) or got != sympy_solve_outcome(a, b):
            bad.append((a, b))
    return bad


def inverse_outcome(inverse, m):
    try:
        return inverse(m)
    except SingularMatrixError:
        return "singular"


def sympy_inverse_outcome(m):
    m = sympy.Matrix(m)
    if m.det() == 0:
        return "singular"
    return tuple(tuple(_fraction(x) for x in row) for row in m.inv().tolist())


def inverse_disagreements(cases):
    """The matrices on which mat_inverse disagrees with the Fraction
    Gauss-Jordan oracle or with sympy."""
    bad = []
    for m in cases:
        got = inverse_outcome(mat_inverse, m)
        if got != inverse_outcome(oracles.mat_inverse_by_fractions, m) or got != sympy_inverse_outcome(m):
            bad.append(m)
    return bad


def _random_rows(rng, nrows, ncols, big):
    if big:
        return [[rng.randint(-(10**12), 10**12) for _ in range(ncols)] for _ in range(nrows)]
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ncols)] for _ in range(nrows)]


def _drop_rank(rng, rows):
    """Replace the last row by a combination of the first and second-to-last."""
    c = rng.randint(-3, 3)
    rows[-1] = [c * x + y for x, y in zip(rows[0], rows[-2])]


def solve_cases():
    """Square and rectangular systems, some rank-deficient, with consistent
    and random right-hand sides; every fourth has 10^12-sized entries."""
    rng = random.Random(109)
    cases = []
    for k in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        big = k % 4 == 3
        a = _random_rows(rng, m, n, big)
        if m >= 2 and k % 3 == 0:
            _drop_rank(rng, a)
        if k % 2 == 0:
            b = list(exactla.mat_vec(a, _random_rows(rng, 1, n, big)[0]))
        else:
            b = _random_rows(rng, 1, m, big)[0]
        cases.append((a, b))
    return cases


def inverse_cases():
    """Square matrices up to 5 x 5, every third singular, every fourth with
    10^12-sized entries."""
    rng = random.Random(110)
    cases = []
    for k in range(80):
        n = rng.randint(1, 5)
        rows = _random_rows(rng, n, n, k % 4 == 3)
        if n >= 2 and k % 3 == 0:
            _drop_rank(rng, rows)
        cases.append(rows)
    return cases


@st.composite
def linear_systems(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=5))
    entries = draw(st.sampled_from([small_rationals, big_integers]))
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        c = draw(small_rationals)
        a[-1] = [c * x + y for x, y in zip(a[0], a[-2])]
    if draw(st.booleans()):
        b = list(exactla.mat_vec(a, [draw(entries) for _ in range(n)]))
    else:
        b = [draw(entries) for _ in range(m)]
    return a, b


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entries = draw(st.sampled_from([small_rationals, big_integers]))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        c = draw(small_rationals)
        rows[-1] = [c * x + y for x, y in zip(rows[0], rows[-2])]
    return rows


class TestAgainstOracles:
    """The integer elimination against Gauss-Jordan on Fractions
    (tests/oracles.py) and against sympy."""

    @given(system=linear_systems())
    @settings(max_examples=150, deadline=None)
    def test_solve_matches_oracles(self, system):
        assert solve_disagreements([system]) == []

    @given(m=square_matrices())
    @settings(max_examples=100, deadline=None)
    def test_inverse_matches_oracles(self, m):
        assert inverse_disagreements([m]) == []

    def test_solve_cases_match_oracles(self):
        cases = solve_cases()
        outcomes = [solve_outcome(solve_linear, a, b) for a, b in cases]
        # the fixed cases reach every branch: inconsistent, unique, with kernel
        assert "inconsistent" in outcomes
        assert any(o != "inconsistent" and not o[1] for o in outcomes)
        assert any(o != "inconsistent" and o[1] for o in outcomes)
        assert solve_disagreements(cases) == []

    def test_inverse_cases_match_oracles(self):
        cases = inverse_cases()
        assert "singular" in [inverse_outcome(mat_inverse, m) for m in cases]
        assert inverse_disagreements(cases) == []


class TestPlantedEliminationDefect:
    """A broken kernels.eliminate shows up in the comparisons above, and the
    library follows it, so the library cannot be its own oracle."""

    def test_wrong_pivot_value_is_caught(self, monkeypatch):
        true_eliminate = kernels.eliminate

        def off_by_one(rows):
            rows, pivots, d = true_eliminate(rows)
            return rows, pivots, d + 1 if d > 0 else d - 1

        monkeypatch.setattr(kernels, "eliminate", off_by_one)
        assert solve_linear(((2,),), (2,)).particular == (Fraction(2, 3),)
        assert solve_disagreements(solve_cases())
        assert inverse_disagreements(inverse_cases())

    def test_dropped_row_is_caught(self, monkeypatch):
        true_eliminate = kernels.eliminate
        monkeypatch.setattr(kernels, "eliminate", lambda rows: true_eliminate(rows[:-1]))
        assert mat_rank(identity(2)) == 1
        assert solve_disagreements(solve_cases())
        assert inverse_disagreements(inverse_cases())


class TestPrimitive:
    def test_clears_and_reduces(self):
        assert primitive(vec(["1/4", "1/2", "3/4", 1])) == (1, 2, 3, 4)

    def test_sign_rule(self):
        assert primitive(vec(["-2/3", "4/3"])) == (1, -2)

    def test_zero_vector(self):
        assert primitive(vec([0, 0])) == (0, 0)

    @given(x=st.lists(small_rationals, min_size=1, max_size=5))
    def test_idempotent_and_parallel(self, x):
        """primitive is idempotent and preserves the rational line."""
        p = primitive(x)
        assert primitive(p) == p
        if any(x):
            i = next(k for k, c in enumerate(x) if c)
            ratio = Fraction(x[i]) / p[i]
            assert all(Fraction(c) == ratio * q for c, q in zip(x, p))


class TestMatrixOps:
    def test_inverse_matches_identity(self):
        m = ((2, -1), (-1, 2))
        inv = mat_inverse(m)
        assert support.mat_mul(m, inv) == identity(2)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            mat_inverse(((1, 2), (2, 4)))

    def test_rank_examples(self):
        assert mat_rank(((1, 2), (2, 4))) == 1
        assert mat_rank(identity(3)) == 3
        assert mat_rank(((0, 0),)) == 0

    @given(ax=matrix_and_point())
    def test_rank_bounded(self, ax):
        a, _ = ax
        assert 0 <= mat_rank(a) <= min(len(a), len(a[0]))


class TestFeasible:
    def test_open_interval(self):
        """{x > 0, x < 1} is feasible with a witness strictly inside."""
        system = ConeSystem(1, (constraint([1], GT, 0), constraint([-1], GT, -1)))
        res = feasible(system)
        assert res.feasible
        assert 0 < res.witness[0] < 1

    def test_empty_open_interval(self):
        system = ConeSystem(1, (constraint([1], GT, 0), constraint([-1], GT, 0)))
        assert not feasible(system).feasible

    def test_strict_vs_weak_point(self):
        """x >= 0 together with x <= 0 pins x = 0; adding strictness kills it."""
        weak = ConeSystem(1, (constraint([1], GE, 0), constraint([-1], GE, 0)))
        res = feasible(weak)
        assert res.feasible and res.witness == (Fraction(0),)
        strict = ConeSystem(1, (constraint([1], GT, 0), constraint([-1], GE, 0)))
        assert not feasible(strict).feasible

    def test_equalities_are_pivoted(self):
        system = ConeSystem(
            3,
            (
                constraint([1, 1, 0], EQ, 2),
                constraint([0, 1, -1], EQ, 0),
                constraint([0, 0, 1], GT, 0),
                constraint([1, 0, 0], GE, 0),
            ),
        )
        res = feasible(system)
        assert res.feasible
        x = res.witness
        assert x[0] + x[1] == 2 and x[1] == x[2] and x[2] > 0

    def test_unbounded_side_uses_bound_plus_one(self):
        system = ConeSystem(1, (constraint([1], GE, 7),))
        assert feasible(system).witness == (Fraction(8),)

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(exactla, "ROW_CAP", 5)
        cons = []
        for k in range(1, 12):
            cons.append(constraint([1, k, 0], GE, 0))
            cons.append(constraint([-1, 0, k], GE, -k))
        system = ConeSystem(3, tuple(cons))
        with pytest.raises(ResourceCapError):
            feasible(system)

    @pytest.mark.parametrize("shift", [Fraction(1, 2), Fraction(1), Fraction(-1, 2)])
    def test_perturbed_witness_raises(self, monkeypatch, shift):
        """Planted defect: a witness moved onto or past a bound of
        {x > 0, x < 1} (1/2 is the honest one) fails the integer re-check.
        The witness is (ints, den); the shift p / q moves it to
        (ints q + p den) / (den q)."""
        system = ConeSystem(1, (constraint([1], GT, 0), constraint([-1], GT, -1)))
        honest = exactla._back_substitute

        def moved(steps, dim):
            (x,), den = honest(steps, dim)
            return (x * shift.denominator + shift.numerator * den,), den * shift.denominator

        monkeypatch.setattr(exactla, "_back_substitute", moved)
        with pytest.raises(AssertionError, match="witness fails its own system"):
            feasible(system)

    def test_dropped_fm_row_caught_by_witness_check(self, monkeypatch):
        """Planted defect: an elimination that loses its derived row x0 > 5
        leaves x0 free, so the rebuilt x1 misses x0 - x1 > 0."""
        system = ConeSystem(2, (constraint([1, -1], GT, 0), constraint([0, 1], GT, 5)))
        assert feasible(system).feasible
        monkeypatch.setattr(exactla.kernels, "fm_step", lambda rows, var: [])
        with pytest.raises(AssertionError, match="witness fails its own system"):
            feasible(system)

    @given(system=small_system())
    @settings(max_examples=120)
    def test_witness_satisfies_system(self, system):
        """Any feasible verdict comes with an exactly satisfying witness."""
        res = feasible(system)
        if res.feasible:
            assert all(support.holds(c, res.witness) for c in system.constraints)

    @given(system=small_system())
    @settings(max_examples=60)
    def test_verdict_is_order_independent(self, system):
        """Eliminating variables in any order gives the same verdict."""
        base = feasible(system).feasible
        for order in itertools.permutations(range(system.dim)):
            assert feasible(support.permuted_columns(system, order)).feasible is base

    @given(system=small_system())
    @settings(max_examples=60, deadline=None)
    def test_infeasible_confirmed_by_grid(self, system):
        """No rational grid point satisfies an infeasible system."""
        if feasible(system).feasible:
            return
        dens = (1, 2, 3, 4) if system.dim <= 2 else (1, 2)
        values = sorted({Fraction(p, q) for q in dens for p in range(-3 * q, 3 * q + 1)})
        for point in itertools.product(values, repeat=system.dim):
            assert not all(support.holds(c, point) for c in system.constraints)


class TestBackSubstitution:
    """The witness rebuilt in integers over one denominator against the
    Fraction back-substitution on the same elimination steps."""

    @given(system=small_system(), data=st.data())
    @settings(max_examples=250)
    def test_matches_fraction_oracle(self, system, data):
        """In the default elimination order and, on a column-permuted copy
        of the system, in any other."""
        order = data.draw(st.none() | st.permutations(range(system.dim)))
        rebuilt = oracles.rebuilt_witnesses(system if order is None else support.permuted_columns(system, order))
        if rebuilt is not None:
            got, want, rejected = rebuilt
            assert oracles.same_point(got, want) and not rejected

    def test_interval_points(self):
        """Pairs (p, q) stand for p / (q den): here den = 3."""
        assert exactla._interval_point(None, None, 3) == (0, 1)
        assert exactla._interval_point((1, 2), None, 3) == (7, 2)  # 1/6 + 1
        assert exactla._interval_point(None, (1, 2), 3) == (-5, 2)  # 1/6 - 1
        assert exactla._interval_point((1, 2), (5, 4), 3) == (14, 16)  # (1/6 + 5/12) / 2

    def test_assign_rescales_assigned_coordinates(self):
        witness = [0, 3, 0]  # (0, 3/2, 0) over den = 2
        assert exactla._assign(witness, 2, 2, 10, 4) == 4
        assert witness == [0, 6, 5]  # (0, 3/2, 5/4): 10/4 reduced to 5/2


class TestConeSystem:
    def test_satisfies_scales_exactly(self):
        system = ConeSystem(2, (constraint([2, -1], GT, 0),))
        assert system.satisfies(vec(["2/3", "1/3"]))
        assert not system.satisfies(vec(["1/6", "1/3"]))

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            ConeSystem(2, (constraint([1], GT, 0),))
        system = ConeSystem(2, (constraint([1, 0], GT, 0),))
        with pytest.raises(ValueError):
            system.satisfies((1,))

    @given(system=small_system(), point=st.lists(small_rationals, min_size=1, max_size=3))
    @settings(max_examples=80)
    def test_satisfies_matches_direct_evaluation(self, system, point):
        if len(point) != system.dim:
            point = (list(point) * 3)[: system.dim]
        direct = all(support.holds(c, vec(point)) for c in system.constraints)
        assert system.satisfies(vec(point)) is direct

    @given(
        entries=st.lists(exact_or_boxed, min_size=1, max_size=6),
        bound=exact_or_boxed,
        rel=st.sampled_from([GT, GE, EQ]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_entries_kept_or_boxed(self, entries, bound, rel):
        """int and Fraction entries are kept as given, anything else is
        boxed; the clearing equals that of the all-Fraction vector divided
        by the gcd of its entries and bound, and each entry's text is that
        of its Fraction, as the CLI prints it."""
        c = constraint(entries, rel, bound)
        for got, raw in zip(c.functional + (c.bound,), entries + [bound], strict=True):
            if type(raw) in (int, Fraction):
                assert got is raw
            else:
                assert type(got) is Fraction and got == Fraction(raw)
            assert str(got) == str(Fraction(raw))
        f, b = vec(entries), Fraction(bound)
        d = lcm(b.denominator, *(q.denominator for q in f))
        ints = [q.numerator * (d // q.denominator) for q in f]
        b = b.numerator * (d // b.denominator)
        g = gcd(*ints, b) or 1
        terms = tuple((i, v // g) for i, v in enumerate(ints) if v)
        assert c.cleared_terms == (terms, b // g, exactla._REL_CODE[rel])

    @pytest.mark.parametrize("rel", [GT, GE, EQ])
    def test_with_rel_shares_the_cleared_terms(self, rel):
        """with_rel equals a fresh constraint under the new relation, and
        holds the very terms of the original instead of clearing again."""
        c = constraint(["1/2", 0, "-2/3"], GT, "1/6")
        other = c.with_rel(rel)
        fresh = constraint(c.functional, rel, c.bound)
        assert other == fresh and repr(other) == repr(fresh) and other.cleared_terms == fresh.cleared_terms
        assert other.cleared_terms[0] is c.cleared_terms[0] and other.functional is c.functional
        assert other.cleared_terms == (((0, 3), (2, -4)), 1, exactla._REL_CODE[rel])
        with pytest.raises(ValueError, match="unknown relation"):
            c.with_rel("<")
        assert not hasattr(c, "__dict__")

    @pytest.mark.parametrize("first", ["original", "sibling"])
    def test_reduced_row_is_built_once_and_shared(self, first):
        """The row is cleared and gcd-reduced once, when the constraint is
        built, and its with_rel siblings hold the very same terms, whether
        each sibling is taken from the original or from another sibling;
        a fresh constraint with the same row clears its own, and expanding
        the rows for elimination reduces nothing again."""
        clearings, reductions = [], []
        honest_clear, honest_reduce = exactla._clear_terms, kernels._reduce_row
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactla, "_clear_terms", lambda *row: clearings.append(row) or honest_clear(*row))
            mp.setattr(kernels, "_reduce_row", lambda *row: reductions.append(row) or honest_reduce(*row))
            c = constraint(["2/3", 0, "-4/3"], GT, "2/3")
            eq = c.with_rel(EQ)
            ge = (c if first == "original" else eq).with_rel(GE)
            assert len(clearings) == 1
            fresh = constraint(c.functional, GE, c.bound)
            assert len(clearings) == 2
            system = ConeSystem(3, (eq, c))
            assert exactla._initial_rows(system) == ([((1, 0, -2), 1)], [((1, 0, -2), 1, True)])
            assert (len(clearings), reductions) == (2, [])
        assert c.cleared_terms[0] is eq.cleared_terms[0] is ge.cleared_terms[0]
        assert c.cleared_terms[:2] == fresh.cleared_terms[:2] == (((0, 1), (2, -2)), 1)
        assert fresh.cleared_terms[0] is not c.cleared_terms[0]
        dense, bound = honest_reduce(*support.cleared(c)[:2])
        assert c.cleared_terms[:2] == (tuple((i, v) for i, v in enumerate(dense) if v), bound)

    def test_shared_constraint_is_cleared_once(self):
        shared = constraint(["1/2", "-2/3"], GT, 0)
        first = ConeSystem(2, (shared, constraint([1, 0], GE, 0)))
        second = ConeSystem(2, (constraint([0, 1], GT, 0), shared))
        assert first._rows[0][0] == ((0, 3), (1, -4))
        assert first._rows[0][0] is second._rows[1][0] is shared.cleared_terms[0]


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
