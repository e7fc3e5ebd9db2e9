"""The coterie cone of a root system, and its generalizations.

In root coordinates x = (a_1 .. a_n) the open cone is cut out by, for each
ordered pair of distinct simple roots (beta, alpha),

    a_beta > (c_{beta,alpha} / c_{alpha,alpha}) a_alpha

together with a_alpha > 0, where c_{beta,alpha} are the weight coordinates
(rootsys.ratio reads the ratio off the integer weights, and
rootsys.pair_row the row cleared to integers).  Only the pairs
joined by a Dynkin edge are needed; the rest follow by telescoping ratios
along the tree path, so the reduced description lists each edge in both
directions.  The closed cone replaces
every > by >=.

Three membership routes are kept deliberately independent: evaluating the
reduced system, evaluating the full system, and the geometric test that
checks r_alpha(x) = a_alpha / c_{alpha,alpha} > 0 and positivity of the
off-alpha coordinates of x - r_alpha(x) * weight_alpha for every alpha.
All three run on the point cleared to integers, against the integer root
data; member_all clears the point once and hands the integers to each
route.  Each row is built already cleared, from the integer pair rows,
and the closed system holds the open system's integer rows under its own
relation.

A general instance replaces the weight data by an arrangement pulled back
through a linear map theta_star; membership of a shift delta is decided by
eliminating the quantifier with exact Fourier-Motzkin over the wall rows
nu_j(delta) u_j(lam) > 0 (= 0 on the i-th wall).  The route runs in
integers: the instance clears each nu row once to an int row N_j over
d_j > 0 and builds its dominance rows once, general_member clears delta
once to D over e > 0 and builds every wall system from those heights,
and v_j = N_j . D is an int with the sign of nu_j(delta).  Times
(d_j e)^2, wall row j reads v_j d_j e l_j(lam) > -v_j^2; the dominance
rows are cleared and gcd-reduced once per instance and each wall row once
per shift, when the constraint is built, and the witness is checked in
integers before it is returned as Fractions.  The ray points r_i have a
closed form in the integer weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm
from operator import mul

from . import arrangement as arrmod
from . import exactla, rootsys
from .exactla import EQ, GE, GT, ConeSystem, ResourceCapError, constraint

SUBSET_CAP = 1_000_000


class MembershipPreconditionError(ValueError):
    """An operation required open-cone membership that does not hold."""


class DegenerateInstanceError(ValueError):
    """General instance with no well-defined ray data."""


class InstanceFormatError(ValueError):
    """Malformed instance file."""


# ---------------------------------------------------------------------------
# root-coordinate description


def ordered_pairs(rs: rootsys.RootSystem, reduced: bool = True) -> tuple:
    if reduced:
        pairs = []
        for i, j in rs.edges:
            pairs.append((i, j))
            pairs.append((j, i))
        return tuple(sorted(pairs))
    n = rs.rank
    return tuple((b, a) for b in range(n) for a in range(n) if a != b)


@dataclass(frozen=True)
class CoterieDescription:
    rs: rootsys.RootSystem
    reduced: bool
    pairs: tuple
    open_system: ConeSystem
    closed_system: ConeSystem


def inequalities(rs: rootsys.RootSystem, reduced: bool = True) -> CoterieDescription:
    """Defining inequalities, positivity rows first, then pair rows, cached
    once per (rs, reduced) however the call spells them.  Each row is built
    already cleared, from rootsys.pair_row's primitive integer row, so no
    row is cleared from its Fractions, and the closed system holds the
    open system's rows under GE."""
    return _inequalities(rs, reduced)


@lru_cache(maxsize=None)
def _inequalities(rs: rootsys.RootSystem, reduced: bool) -> CoterieDescription:
    n = rs.rank
    pairs = ordered_pairs(rs, reduced)
    cleared = exactla.LinearConstraint._cleared
    opened = [cleared(exactla.unit(n, a), GT, 0, ((a, 1),), 0) for a in range(n)]
    for b, a in pairs:
        # the functional holds -ratio, the terms are pair_row's two entries
        row = rootsys.pair_row(rs, b, a)
        f = [0] * n
        f[b] = 1
        f[a] = Fraction(row[a], row[b])
        terms = ((b, row[b]), (a, row[a])) if b < a else ((a, row[a]), (b, row[b]))
        opened.append(cleared(tuple(f), GT, 0, terms, 0))
    return CoterieDescription(
        rs=rs,
        reduced=reduced,
        pairs=pairs,
        open_system=ConeSystem(n, tuple(opened)),
        closed_system=ConeSystem(n, tuple(c.with_rel(GE) for c in opened)),
    )


def _point(rs: rootsys.RootSystem, x) -> tuple:
    x = tuple(x)
    if len(x) != rs.rank:
        raise ValueError(f"point has length {len(x)}, rank is {rs.rank}")
    return x


def _weight_residual(rs: rootsys.RootSystem, x, alpha: int) -> tuple:
    """W[alpha][alpha] x - x_alpha W[., alpha] with W = rs.weights, for an
    integer point x: the positive multiple W[alpha][alpha] / weight_den of
    x - r_alpha(x) lambda_alpha, whose alpha entry is zero by design."""
    w = rs.weights[alpha][alpha]
    xa = x[alpha]
    return tuple(w * xb - xa * row[alpha] for xb, row in zip(x, rs.weights))


def _member_geometric(rs: rootsys.RootSystem, x, strict: bool) -> bool:
    # r_alpha(x) positive, which is the sign of x_alpha, and the residual
    # positive away from alpha
    for a in range(rs.rank):
        if x[a] < 0 or (strict and x[a] == 0):
            return False
        for b, v in enumerate(_weight_residual(rs, x, a)):
            if b != a and (v < 0 or (strict and v == 0)):
                return False
    return True


def member(rs: rootsys.RootSystem, x, mode: str = "open", method: str = "edges") -> bool:
    """Membership of x in the coterie cone.

    mode: 'open' or 'closed'.  method: 'edges' (reduced system), 'full'
    (all ordered pairs), or 'geometric' (weight-residual test).
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"unknown mode {mode!r}")
    if method not in ("edges", "full", "geometric"):
        raise ValueError(f"unknown method {method!r}")
    x = _point(rs, x)
    if method == "geometric":
        # the cone is invariant under positive scaling
        return _member_geometric(rs, exactla.clear_row(x), strict=(mode == "open"))
    desc = inequalities(rs, reduced=(method == "edges"))
    system = desc.open_system if mode == "open" else desc.closed_system
    return system.satisfies(x)


def member_all(rs: rootsys.RootSystem, x, mode: str = "open") -> dict:
    """All three membership routes at once; they must agree.  The point is
    cleared once, and every route runs on that positive multiple of it."""
    ints = exactla.clear_row(_point(rs, x))
    return {m: member(rs, ints, mode, m) for m in ("edges", "full", "geometric")}


# ---------------------------------------------------------------------------
# cross-section polytopes


@dataclass(frozen=True)
class CrossSection:
    rs: rootsys.RootSystem
    y: tuple
    system: ConeSystem


def cross_section(rs: rootsys.RootSystem, y) -> CrossSection:
    """Dominant vectors lambda with lambda_k <= y_k coordinatewise.

    y must itself lie in the nonnegative orthant of root coordinates.
    """
    y = exactla.vec(y)
    n = rs.rank
    if len(y) != n:
        raise ValueError(f"bound vector has length {len(y)}, rank is {n}")
    for k, v in enumerate(y):
        if v < 0:
            raise ValueError(f"bound vector must be coordinatewise nonnegative: node {k + 1} is {v}")
    ct = exactla.mat_transpose(rs.cartan)
    cons = [constraint(row, GE, 0) for row in ct]
    for k in range(n):
        f = [0] * n
        f[k] = -1
        cons.append(constraint(f, GE, -y[k]))
    return CrossSection(rs=rs, y=y, system=ConeSystem(n, tuple(cons)))


def polytope_vertices(cs: CrossSection) -> tuple:
    """All vertices, solving each of at most SUBSET_CAP n-subsets of constraints as equalities."""
    n = cs.rs.rank
    rows = [(c.functional, c.bound) for c in cs.system.constraints]
    if comb(len(rows), n) > SUBSET_CAP:
        raise ResourceCapError(f"{comb(len(rows), n)} active sets exceed the cap {SUBSET_CAP}")
    verts = set()
    for subset in combinations(range(len(rows)), n):
        a = [list(rows[i][0]) for i in subset]
        b = [rows[i][1] for i in subset]
        try:
            sol = exactla.solve_linear(a, b)
        except exactla.InconsistentSystemError:
            continue
        if sol.kernel:
            continue
        if cs.system.satisfies(sol.particular):
            verts.add(tuple(sol.particular))
    return tuple(sorted(verts))


def orbit_polytope_vertices(rs: rootsys.RootSystem, cs: CrossSection) -> tuple:
    """Weyl-orbit closure of the cross-section vertex set, under the Weyl
    group of rs, which must be the cross-section's root system.  The
    vertices are cleared over one common denominator and closed in integers
    (arrangement.reflection_closure) up to arrangement.ORBIT_CAP points."""
    if rs != cs.rs:
        raise ValueError(f"cross-section of {cs.rs} cannot take the Weyl group of {rs}")
    verts = polytope_vertices(cs)
    den = lcm(*(c.denominator for v in verts for c in v))
    seeds = [tuple(c.numerator * (den // c.denominator) for c in v) for v in verts]
    closed = arrmod.reflection_closure(rs, seeds, arrmod.ORBIT_CAP, points=True)
    if closed is None:
        raise ResourceCapError(f"orbit closure exceeds the cap {arrmod.ORBIT_CAP}")
    return tuple(tuple(Fraction(c, den) for c in v) for v in sorted(closed))


# ---------------------------------------------------------------------------
# general instances


@dataclass(frozen=True)
class GeneralCoterieInstance:
    """Arrangement data pulled back through a rational linear map.

    theta_star is an m x n matrix (rows = functionals on the rank-n root
    space evaluated on a shift space of dimension m read column-wise; the
    composite nu_i . theta_star must equal minus the i-th fundamental
    functional of the arrangement).
    """

    arr: arrmod.Arrangement
    theta_star: tuple
    nu: tuple

    def __post_init__(self):
        n = self.arr.rs.rank
        theta = tuple(tuple(Fraction(v) for v in row) for row in self.theta_star)
        if any(len(row) != n for row in theta):
            raise DegenerateInstanceError("theta_star rows must have length rank")
        m = len(theta)
        nus = tuple(tuple(Fraction(v) for v in row) for row in self.nu)
        if len(nus) != len(self.arr.fundamental):
            raise DegenerateInstanceError(
                "need exactly one nu functional per fundamental hyperplane"
            )
        if any(len(row) != m for row in nus):
            raise DegenerateInstanceError("nu functionals must act on the theta domain")
        object.__setattr__(self, "theta_star", theta)
        object.__setattr__(self, "nu", nus)
        for i, h in enumerate(self.arr.fundamental):
            comp = self.composite(i)
            want = tuple(-Fraction(c) for c in h.functional)
            if comp != want:
                raise DegenerateInstanceError(
                    f"nu_{i} . theta_star = {comp} but the arrangement requires {want}"
                )
        # Built once per instance, outside the dataclass fields (so eq, hash
        # and repr ignore them): each nu row cleared to (N_j, d_j), an int
        # row over a positive denominator, with N_j as its nonzero (index,
        # coeff) terms, and the dominance rows.
        cleared = []
        for row in nus:
            ints = exactla.clear_row(row + (1,))
            cleared.append((tuple((k, c) for k, c in enumerate(ints[:-1]) if c), ints[-1]))
        object.__setattr__(self, "_nu_ints", tuple(cleared))
        dominance = tuple(constraint(row, GT, 0) for row in exactla.mat_transpose(self.arr.rs.cartan))
        object.__setattr__(self, "_dominance", dominance)

    @property
    def rs(self) -> rootsys.RootSystem:
        return self.arr.rs

    @property
    def shift_dim(self) -> int:
        return len(self.theta_star)

    def composite(self, i: int) -> tuple:
        """nu_i . theta_star as a functional on root coordinates."""
        _wall(self, i)
        n = self.arr.rs.rank
        m = len(self.theta_star)
        return tuple(
            sum(self.nu[i][k] * self.theta_star[k][j] for k in range(m)) for j in range(n)
        )


@lru_cache(maxsize=None)
def canonical_instance(rs: rootsys.RootSystem) -> GeneralCoterieInstance:
    """theta_star the identity, nu_i the coordinate functionals; recovers
    the plain coterie cone, with r_i = the scaled fundamental weights.
    Built once per root system; the instance is frozen, so callers share
    it."""
    n = rs.rank
    return GeneralCoterieInstance(
        arr=arrmod.canonical_arrangement(rs),
        theta_star=exactla.identity(n),
        nu=exactla.identity(n),
    )


def _wall(inst: GeneralCoterieInstance, i: int) -> None:
    """Reject a wall index outside 0 .. walls - 1; a negative one would
    otherwise count from the end."""
    if not 0 <= i < len(inst.nu):
        raise ValueError(f"wall {i} out of range for {len(inst.nu)} walls")


def _shift(inst: GeneralCoterieInstance, delta) -> tuple:
    """delta, any iterable, as a tuple of the instance's shift length."""
    delta = tuple(delta)
    if len(delta) != inst.shift_dim:
        raise ValueError(f"shift has length {len(delta)}, expected {inst.shift_dim}")
    return delta


def nu_of(inst: GeneralCoterieInstance, i: int, delta) -> Fraction:
    """nu_i(delta) for a shift of ints or Fractions; inst.nu is stored as
    Fractions, so nothing is boxed again."""
    _wall(inst, i)
    delta = _shift(inst, delta)
    return sum(map(mul, inst.nu[i], delta), Fraction(0))


def r_i_general(inst: GeneralCoterieInstance, i: int, delta) -> tuple:
    """The ray point of the i-th wall for the shift delta: c(x) = nu_i(delta)
    with B x parallel to c = nu_i . theta_star = -l_i, B the form.

    B = cartan . diag(d), d the symmetrizers, so B^-1 c is a multiple of
    u = weights . e, e_k = c_k lcm(d) / d_k, and x = nu_i(delta) u / (c . u).
    B is positive definite and l_i != 0, so c . u > 0: x exists and is unique.
    """
    _wall(inst, i)
    rs = inst.rs
    d = rootsys.symmetrizers(rs)
    m = lcm(*d)
    c = [-v for v in inst.arr.fundamental[i].functional]
    e = [ck * (m // dk) for ck, dk in zip(c, d)]
    u = [sum(map(mul, row, e)) for row in rs.weights]
    scale = nu_of(inst, i, delta) / sum(map(mul, c, u))
    return tuple(scale * v for v in u)


def _shift_heights(inst: GeneralCoterieInstance, delta) -> tuple:
    """(D, e, v): the shift cleared to the int vector D over e > 0, and the
    ints v_j = N_j . D, so that nu_j(delta) = v_j / (d_j e) has the sign of
    v_j."""
    ints = exactla.clear_row(_shift(inst, delta) + (1,))
    heights = tuple(sum([c * ints[k] for k, c in terms]) for terms, _ in inst._nu_ints)
    return ints[:-1], ints[-1], heights


def _wall_row(functional, v: int, d: int, e: int) -> tuple:
    """nu u(lam) > 0 with nu = v / (d e) and the wall height u(lam) = nu + l(lam),
    multiplied by (d e)^2 > 0: v d e l(lam) > -v^2, as the int (row, bound)."""
    s = v * d * e
    return tuple(s * c for c in functional), -v * v


def general_member_systems(inst: GeneralCoterieInstance, delta) -> tuple:
    """One existential system per wall: a strictly dominant lambda on the
    i-th wall sphere, strictly inside every other wall sphere.  By the
    u-identity, (r_j - lam, r_j) > 0 is nu_j(delta) u_j(lam) > 0 up to a
    positive factor, and both rows read 0 > 0 when nu_j(delta) = 0."""
    _, e, heights = _shift_heights(inst, delta)
    return _wall_systems(inst, e, heights)


def _wall_systems(inst: GeneralCoterieInstance, e: int, heights: tuple) -> tuple:
    """general_member_systems from the shift's denominator e and heights v_j."""
    n = inst.rs.rank
    # each row is built, cleared and reduced once; the systems share the
    # frozen constraints, and the equality rows the strict rows' terms
    walls = [
        _wall_row(h.functional, v, d, e)
        for h, v, (_, d) in zip(inst.arr.fundamental, heights, inst._nu_ints)
    ]
    inside = [constraint(row, GT, bound) for row, bound in walls]
    on = [c.with_rel(EQ) for c in inside]
    return tuple(
        ConeSystem(n, inst._dominance + tuple(on[i] if j == i else row for j, row in enumerate(inside)))
        for i in range(len(inside))
    )


def general_member(inst: GeneralCoterieInstance, delta) -> bool:
    """Whether the shift delta lies in the general coterie set, i.e. every
    wall system is feasible (exactla.feasible, under exactla.ROW_CAP).

    Requires nu_i(delta) >= 0 for every i.  The zero shift is excluded:
    every wall sphere degenerates to the origin, which is not strictly
    dominant, so no witness exists.
    """
    shift, e, heights = _shift_heights(inst, delta)
    if any(v < 0 for v in heights):
        raise MembershipPreconditionError(
            "delta must satisfy nu_i(delta) >= 0 for every wall"
        )
    if not any(shift):
        return False
    for system in _wall_systems(inst, e, heights):
        if not exactla.feasible(system):
            return False
    return True


def parse_instance(text: str) -> GeneralCoterieInstance:
    """Parse an instance file: arrangement lines, then `theta` rows, then
    `nu` rows.  Rational entries p/q are allowed in theta and nu."""
    arr_lines = []
    theta_rows = []
    nu_rows = []
    section = arr_lines
    for line in arrmod.content_lines(text):
        if line == "theta":
            if section is not arr_lines:
                raise InstanceFormatError("duplicate theta section")
            section = theta_rows
            continue
        if line == "nu":
            if section is not theta_rows:
                raise InstanceFormatError("nu section must follow theta")
            section = nu_rows
            continue
        section.append(line)
    if section is not nu_rows:
        raise InstanceFormatError("instance file needs theta and nu sections")
    try:
        arr = arrmod.arrangement_from_lines(arr_lines)
    except arrmod.ArrangementFormatError as exc:
        raise InstanceFormatError(str(exc)) from None

    def parse_rows(lines, label):
        rows = []
        for line in lines:
            try:
                rows.append(tuple(Fraction(tok) for tok in line.split()))
            except (ValueError, ZeroDivisionError):
                raise InstanceFormatError(f"bad {label} row {line!r}") from None
        if not rows:
            raise InstanceFormatError(f"empty {label} section")
        return tuple(rows)

    return GeneralCoterieInstance(
        arr=arr,
        theta_star=parse_rows(theta_rows, "theta"),
        nu=parse_rows(nu_rows, "nu"),
    )
