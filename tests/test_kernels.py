"""The integer kernels against independent routes: sympy for rank, direct
evaluation for rows, and lifted grid points for Fourier-Motzkin steps."""

import random
from fractions import Fraction

import sympy

from coterie import _kernels_py as kernels
from coterie import exactla
from coterie._backend import BACKEND


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
            assert kernels.eval_rows(rows, x) == want

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
