"""Exact rational linear algebra and feasibility of mixed linear systems.

Entries are ints or fractions.Fraction, vectors are tuples, matrices tuples
of row tuples; no floating point anywhere. clear_row turns a rational
vector into integers; the Fraction vector helpers (vec, vec_dot, ...) are
left for code off the integer paths, and mat_vec, with no library caller
left, for the tracer of perfbench. A LinearConstraint keeps
int and Fraction entries as given, boxes other input (str, bool, ...)
with Fraction, and clears its row once, to integers in sparse form: the
nonzero (index, coeff) terms, the bound and the relation code. The row is
divided by the gcd of its entries and bound when it is built, so it is the
one integer form of the constraint. A ConeSystem stores those rows as they
are, one object per constraint however many systems hold it, and with_rel
gives the same row under another relation without clearing it again. The
rows are evaluated at a cleared integer point, and expanded to dense
coefficients for elimination.
Solving, inversion and rank clear each row to integers and run one
fraction-free elimination, kernels.eliminate; Fraction appears only in
what they return. Feasibility of systems mixing strict/weak inequalities
and equalities is decided by Fourier-Motzkin elimination with strictness
tracking over the same cleared integer rows, from the last variable down,
refusing a step that would outgrow ROW_CAP rows. On success the witness is
rebuilt in integers over one positive common denominator and checked
against those rows in integers; Fraction appears only in the exact
rational witness returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from ._backend import kernels

GT = ">"
GE = ">="
EQ = "="
_REL_CODE = {GT: kernels.REL_GT, GE: kernels.REL_GE, EQ: kernels.REL_EQ}

ROW_CAP = 10**6  # most inequality rows one Fourier-Motzkin step may produce
_EXACT = (int, Fraction)  # entry types a constraint keeps unboxed; bool is boxed


class InconsistentSystemError(ValueError):
    """Linear equation system with no solution."""


class SingularMatrixError(ValueError):
    """Inversion attempted on a singular matrix."""


class ResourceCapError(RuntimeError):
    """An elimination or enumeration outgrew its configured cap."""


def vec(coords) -> tuple:
    return tuple(Fraction(c) for c in coords)


def unit(n: int, i: int) -> tuple:
    return tuple(int(j == i) for j in range(n))


def identity(n: int) -> tuple:
    return tuple(unit(n, i) for i in range(n))


def vec_dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def mat_vec(m, v) -> tuple:
    return tuple(vec_dot(row, v) for row in m)


def mat_transpose(m) -> tuple:
    return tuple(zip(*m)) if m else ()


def clear_row(coords) -> tuple:
    """Scale a rational vector by the positive lcm of denominators: integer
    entries.  A vector of ints comes back as it is, as a tuple."""
    coords = tuple(coords)
    if all(type(c) is int for c in coords):
        return coords
    coords = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coords]
    d = lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (d // c.denominator) for c in coords)


def primitive(coords) -> tuple:
    """Primitive integer representative of a rational direction.

    Clears denominators, divides by the gcd, and makes the first nonzero
    entry positive. The zero vector maps to itself.
    """
    ints, _ = kernels._reduce_row(clear_row(coords), 0)
    if next((c for c in ints if c), 0) < 0:
        return tuple(-c for c in ints)
    return ints


def mat_rank(m) -> int:
    rows = [r for r in map(clear_row, m) if any(r)]
    return kernels.rank_of(rows) if rows else 0


def mat_inverse(m) -> tuple:
    n = len(m)
    rows = [clear_row(tuple(row) + unit(n, i)) for i, row in enumerate(m)]
    rows, pivots, d = kernels.eliminate(rows)
    if pivots != list(range(n)):
        raise SingularMatrixError(f"singular matrix (rank < {n})")
    return tuple(tuple(Fraction(v, d) for v in row[n:]) for row in rows)


@dataclass(frozen=True)
class LinearSolution:
    """Affine solution set: particular + rational span of kernel basis.

    Kernel basis vectors are primitive integer vectors (denominators
    cleared, gcd 1, first nonzero entry positive).
    """

    particular: tuple
    kernel: tuple


def solve_linear(a, b) -> LinearSolution:
    """Solve a x = b exactly over the rationals.

    Raises InconsistentSystemError when the system has no solution.
    """
    rows = [clear_row(tuple(row) + (v,)) for row, v in zip(a, b, strict=True)]
    ncols = len(rows[0]) - 1 if rows else 0
    rows, pivots, d = kernels.eliminate(rows)
    if pivots and pivots[-1] == ncols:
        raise InconsistentSystemError("inconsistent linear system")
    # each pivot row divided by d is a row of the reduced echelon form
    particular = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        particular[col] = Fraction(row[ncols], d)
    kernel = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = d
        for row, col in zip(rows, pivots):
            v[col] = -row[fc]
        kernel.append(primitive(v))
    return LinearSolution(tuple(particular), tuple(kernel))


def _clear_terms(functional, bound) -> tuple:
    """(terms, bound) of the row functional . x REL bound scaled by the
    positive lcm of denominators and divided by the gcd of its entries and
    bound: terms lists the nonzero (index, coeff) pairs.  Only nonzero
    entries are cleared; zeros have denominator 1 and gcd-neutral value 0,
    so the lcm and the gcd are those of the dense row."""
    terms = [(i, q) for i, q in enumerate(functional) if q]
    d = lcm(bound.denominator, *(q.denominator for _, q in terms))
    ints = [(i, q.numerator * (d // q.denominator)) for i, q in terms]
    b = bound.numerator * (d // bound.denominator)
    g = gcd(b, *[c for _, c in ints])
    if g > 1:
        ints = [(i, c // g) for i, c in ints]
        b //= g
    return tuple(ints), b


@dataclass(frozen=True, slots=True)
class LinearConstraint:
    """functional . x  REL  bound, with REL one of >, >=, =.  int and
    Fraction entries (and bound) are kept as given, others boxed by Fraction.

    cleared_terms is the row (terms, bound, rel code), cleared to integers
    and gcd-reduced (_clear_terms), that every system holding the
    constraint evaluates and eliminates, built once per constraint;
    with_rel shares it with the same row under another relation."""

    functional: tuple
    rel: str
    bound: int | Fraction = 0
    cleared_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rel not in _REL_CODE:
            raise ValueError(f"unknown relation {self.rel!r}")
        functional = tuple(self.functional)
        if not all(type(c) in _EXACT for c in functional):  # else shared as given
            functional = tuple(c if type(c) in _EXACT else Fraction(c) for c in functional)
        b = self.bound if type(self.bound) in _EXACT else Fraction(self.bound)
        object.__setattr__(self, "functional", functional)
        object.__setattr__(self, "bound", b)
        object.__setattr__(self, "cleared_terms", _clear_terms(functional, b) + (_REL_CODE[self.rel],))

    def with_rel(self, rel: str) -> LinearConstraint:
        """The same functional and bound under the relation rel, holding
        this constraint's cleared terms instead of clearing them again."""
        if rel not in _REL_CODE:
            raise ValueError(f"unknown relation {rel!r}")
        other = object.__new__(LinearConstraint)
        object.__setattr__(other, "functional", self.functional)
        object.__setattr__(other, "rel", rel)
        object.__setattr__(other, "bound", self.bound)
        object.__setattr__(other, "cleared_terms", self.cleared_terms[:2] + (_REL_CODE[rel],))
        return other


def constraint(functional, rel, bound=0) -> LinearConstraint:
    return LinearConstraint(functional, rel, bound)


@dataclass(frozen=True)
class ConeSystem:
    """H-representation: conjunction of linear constraints in dimension dim."""

    dim: int
    constraints: tuple

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for c in self.constraints:
            if len(c.functional) != self.dim:
                raise ValueError("constraint length does not match system dimension")
        object.__setattr__(self, "_rows", tuple(c.cleared_terms for c in self.constraints))

    def satisfies(self, x) -> bool:
        """Exact evaluation at a rational point of length dim."""
        x = tuple(x)
        if len(x) != self.dim:
            raise ValueError(f"point has length {len(x)}, system dimension is {self.dim}")
        # the appended 1 clears to the common denominator d, which the rows
        # never index
        ints = clear_row(x + (1,))
        return kernels.eval_rows(self._rows, ints, ints[-1])


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    witness: Optional[tuple]

    def __bool__(self) -> bool:
        return self.feasible


def _initial_rows(system: ConeSystem):
    """The system's cleared rows expanded to dense coefficients, as the
    equality rows (coeffs, bound) and the inequality rows (coeffs, bound,
    strict) of Fourier-Motzkin elimination."""
    eq_rows = []
    ineq_rows = []
    for terms, bound, rel in system._rows:
        coeffs = [0] * system.dim
        for i, c in terms:
            coeffs[i] = c
        if rel == kernels.REL_EQ:
            eq_rows.append((tuple(coeffs), bound))
        else:
            ineq_rows.append((tuple(coeffs), bound, rel == kernels.REL_GT))
    return eq_rows, ineq_rows


def _verdict(eq_rows, ineq_rows) -> bool:
    for coeffs, bound in eq_rows:
        if any(coeffs):
            continue
        if bound != 0:
            return False
    for coeffs, bound, strict in ineq_rows:
        if any(coeffs):
            continue
        if strict and not 0 > bound:
            return False
        if not strict and not 0 >= bound:
            return False
    return True


def _interval_point(lo, hi, den: int) -> tuple:
    """The value back-substitution gives a Fourier-Motzkin variable, from
    its tightest lower and upper bounds: the midpoint of the interval, or
    bound +/- 1 on an unbounded side, or 0 when both sides are open.

    lo and hi are None or integer pairs (p, q), q > 0, each standing for
    p / (q * den); so is the result."""
    # If lo == hi, both bounds are weak: a strict pair at equal value
    # combines to an unsatisfiable verdict row, caught earlier.
    if lo is None and hi is None:
        return 0, 1
    if hi is None:
        return lo[0] + lo[1] * den, lo[1]
    if lo is None:
        return hi[0] - hi[1] * den, hi[1]
    return lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]


def _assign(witness: list, den: int, var: int, p: int, q: int) -> int:
    """Set witness[var] to p / (q * den), the witness being integers over
    the common denominator den > 0: rescale the coordinates already
    assigned by q, and return the new common denominator."""
    g = gcd(p, q)
    p, q = p // g, q // g
    if q > 1:
        witness[:] = [w * q for w in witness]
        den *= q
    witness[var] = p
    return den


def _back_substitute(steps, dim: int) -> tuple:
    """Rebuild a witness from feasible's elimination steps, last step first:
    an equality pivot fixes its variable, a Fourier-Motzkin step picks a
    point of the variable's interval (_interval_point).

    The witness is kept as integers over one positive common denominator
    den, unassigned coordinates 0, so a row's remaining terms are one
    integer dot product.  A row c x >= b bounds the variable by
    (b den - rest) / (c den), held as the pair (b den - rest, c) in units
    of 1 / den (sign moved so that the second entry is positive), and pairs
    are compared by cross-multiplication.  Returns (ints, den): the witness
    is ints / den."""
    witness = [0] * dim
    den = 1
    for var, kind, payload in reversed(steps):
        if kind == "eq":
            coeffs, bound = payload
            # feasible made the pivot coefficient positive
            p, q = bound * den - kernels.idot(coeffs, witness), coeffs[var]
        else:
            lo = hi = None
            for coeffs, bound, _ in payload:
                c = coeffs[var]
                if c == 0:
                    continue
                v = bound * den - kernels.idot(coeffs, witness)
                if c > 0:
                    if lo is None or v * lo[1] > lo[0] * c:
                        lo = (v, c)
                else:
                    v, c = -v, -c
                    if hi is None or v * hi[1] < hi[0] * c:
                        hi = (v, c)
            p, q = _interval_point(lo, hi, den)
        den = _assign(witness, den, var, p, q)
    return tuple(witness), den


def feasible(system: ConeSystem) -> Feasibility:
    """Exact feasibility of a mixed strict/weak/equality system.

    Variables are eliminated one at a time, from the last down: by
    substitution when an equality mentions the variable, otherwise by a
    Fourier-Motzkin step (a derived inequality is strict iff at least one
    parent is). On success the witness is rebuilt by back-substitution,
    taking the midpoint of each bounded interval and bound +/- 1 on
    unbounded sides, and checked in integers against the system's cleared
    rows (kernels.eval_rows) before it is boxed into Fractions; a witness
    that fails them raises AssertionError. Raises ResourceCapError if a
    Fourier-Motzkin step would produce more than ROW_CAP rows.
    """
    dim = system.dim
    eq_rows, ineq_rows = _initial_rows(system)
    steps = []
    for var in range(dim - 1, -1, -1):
        if not _verdict(eq_rows, ineq_rows):
            return Feasibility(False, None)
        piv_idx = next((k for k, row in enumerate(eq_rows) if row[0][var] != 0), None)
        if piv_idx is not None:
            pivot = eq_rows.pop(piv_idx)
            if pivot[0][var] < 0:
                pivot = (tuple(-c for c in pivot[0]), -pivot[1])
            steps.append((var, "eq", pivot))
            p = pivot[0][var]

            def substitute(coeffs, bound):
                c = coeffs[var]
                if c == 0:
                    return coeffs, bound
                coeffs = tuple(p * x - c * y for x, y in zip(coeffs, pivot[0]))
                return kernels._reduce_row(coeffs, p * bound - c * pivot[1])

            eq_rows = [substitute(coeffs, bound) for coeffs, bound in eq_rows]
            ineq_rows = [substitute(coeffs, bound) + (strict,) for coeffs, bound, strict in ineq_rows]
        else:
            steps.append((var, "fm", list(ineq_rows)))
            npos = sum(1 for r in ineq_rows if r[0][var] > 0)
            nneg = sum(1 for r in ineq_rows if r[0][var] < 0)
            nzero = len(ineq_rows) - npos - nneg
            if nzero + npos * nneg > ROW_CAP:
                raise ResourceCapError(
                    f"Fourier-Motzkin blow-up: {nzero + npos * nneg} rows exceeds cap {ROW_CAP}"
                )
            ineq_rows = kernels.fm_step(ineq_rows, var)
    if not _verdict(eq_rows, ineq_rows):
        return Feasibility(False, None)
    ints, den = _back_substitute(steps, dim)
    if not kernels.eval_rows(system._rows, ints, den):
        raise AssertionError("internal error: witness fails its own system")
    return Feasibility(True, tuple(Fraction(w, den) for w in ints))
