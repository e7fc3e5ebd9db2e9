"""W-stable oriented hyperplane arrangements on root coordinates.

An oriented hyperplane is stored as its integer functional l (the kernel
is implicit); fundamental members must satisfy the orientation condition
l(-alpha) >= 0 against every simple root, i.e. all entries <= 0.
Functionals are kept exactly as supplied: the classifying map reads its
saturation constants off the raw rows, so a scaled functional 3l is
meaningful data, while the Weyl orbit output is canonicalized to
gcd-reduced representatives (sign preserved - it is the orientation).
Whether an orbit outgrows its cap is decided by counting it
(orbit_size: |W| / |W_J| per fundamental member, W_J the parabolic
stabilizer), so a capped orbit is never enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd, prod
from typing import Optional, Union

from . import rootsys
from ._backend import kernels

ORBIT_CAP = 100_000
IMPLICIT = "implicit"


class DegenerateArrangementError(ValueError):
    """Arrangement violating nonzero/orientation/nondegeneracy conditions."""


class ArrangementFormatError(ValueError):
    """Malformed arrangement file."""


@dataclass(frozen=True)
class OrientedHyperplane:
    """Integer functional on root coordinates; kernel = {l = 0}."""

    functional: tuple

    def __post_init__(self):
        f = tuple(self.functional)
        if not f or not all(isinstance(c, int) for c in f):
            raise DegenerateArrangementError("functional must be a nonempty integer vector")
        if not any(f):
            raise DegenerateArrangementError("zero functional")
        object.__setattr__(self, "functional", f)


def _trusted_hyperplane(functional: tuple) -> OrientedHyperplane:
    """An OrientedHyperplane built without __post_init__, for a nonzero
    integer tuple known to be valid: the image of a validated functional
    under an integer involution."""
    h = object.__new__(OrientedHyperplane)
    object.__setattr__(h, "functional", functional)
    return h


@dataclass(frozen=True)
class Arrangement:
    """Fundamental-domain members plus (optionally) their full Weyl orbit.

    full is None until weyl_orbit runs, a tuple of OrientedHyperplane when
    the orbit fits the cap, or the IMPLICIT marker with partial_size set.
    """

    rs: rootsys.RootSystem
    fundamental: tuple
    full: Union[tuple, str, None] = None
    partial_size: Optional[int] = None

    def __post_init__(self):
        fund = tuple(
            h if isinstance(h, OrientedHyperplane) else OrientedHyperplane(tuple(h))
            for h in self.fundamental
        )
        object.__setattr__(self, "fundamental", fund)
        n = self.rs.rank
        for h in fund:
            if len(h.functional) != n:
                raise DegenerateArrangementError(
                    f"functional {h.functional} has length {len(h.functional)}, rank is {n}"
                )
            if any(c > 0 for c in h.functional):
                raise DegenerateArrangementError(
                    f"functional {h.functional} violates the orientation condition l(-alpha) >= 0"
                )
        seen = {}
        for h in fund:
            key = kernels._reduce_row(h.functional, 0)[0]
            if key in seen:
                raise DegenerateArrangementError(
                    f"functionals {seen[key]} and {h.functional} are positive multiples (degenerate)"
                )
            seen[key] = h.functional


def canonical_arrangement(rs: rootsys.RootSystem) -> Arrangement:
    """One hyperplane per simple root alpha: kernel spanned by the other
    simple roots, functional -e_alpha."""
    n = rs.rank
    fund = tuple(
        OrientedHyperplane(tuple(-1 if j == a else 0 for j in range(n))) for a in range(n)
    )
    return Arrangement(rs=rs, fundamental=fund)


@lru_cache(maxsize=None)
def _reflection_updates(rs: rootsys.RootSystem) -> tuple:
    """Per simple reflection, for the right action on functionals, the
    entries (k, j, c) where its integer matrix exceeds the identity by c:
    f maps to f + sum of f[k] c e_j, and only row alpha of s_alpha differs."""
    out = []
    for a in range(rs.rank):
        m = rootsys.simple_reflection(rs, a).matrix
        out.append(
            tuple(
                (k, j, v - (k == j))
                for k, row in enumerate(m)
                for j, v in enumerate(row)
                if v != (k == j)
            )
        )
    return tuple(out)


def _stabilizer(f) -> tuple:
    """Nodes k with f_k = 0. For f in the closed chamber (every entry <= 0)
    its stabilizer is the standard parabolic subgroup on these nodes
    (Humphreys 1990, Thm 1.12)."""
    return tuple(k for k, c in enumerate(f) if c == 0)


@lru_cache(maxsize=None)
def _highest_root(cartan: tuple) -> tuple:
    """Simple-root coefficients of the highest root of a connected integer
    Cartan matrix, by root strings taken one height at a time: beta + alpha_i
    is a root iff p > <beta, alpha_i^v>, where p counts the roots
    beta - alpha_i, beta - 2 alpha_i, ... below beta."""
    k = len(cartan)
    layer = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    roots = set(layer)
    while True:
        above = []
        for beta in layer:
            for i in range(k):
                down = list(beta)
                down[i] -= 1
                p = 0
                while tuple(down) in roots:
                    p += 1
                    down[i] -= 1
                if p > sum(b * row[i] for b, row in zip(beta, cartan)):
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                    if up not in roots:
                        roots.add(up)
                        above.append(up)
        if not above:
            # a connected system has one root of greatest height
            return layer[0]
        layer = above


def _det(m) -> int:
    """|det m| of a nonsingular integer matrix: the last Bareiss pivot."""
    return abs(kernels.eliminate(m)[2])


def _parabolic_order(rs: rootsys.RootSystem, nodes) -> int:
    """|W_X| of the standard parabolic subgroup on the nodes X: the product
    over the connected Dynkin components of X of k! c_1...c_k det C, with c
    the highest-root coefficients and C the component's Cartan matrix
    (Bourbaki, Lie Groups and Lie Algebras, Ch. VI 2)."""
    rest = set(nodes)
    order = 1
    while rest:
        comp = [rest.pop()]
        for a in comp:
            linked = {j for i, j in rs.edges if i == a} | {i for i, j in rs.edges if j == a}
            comp.extend(linked & rest)
            rest -= linked
        comp.sort()
        cartan = tuple(tuple(rs.cartan[i][j] for j in comp) for i in comp)
        order *= factorial(len(comp)) * prod(_highest_root(cartan)) * _det(cartan)
    return order


def orbit_size(arr: Arrangement) -> int:
    """Number of members of the Weyl orbit of arr.fundamental, by counting.

    Every fundamental functional lies in the closed chamber of the right
    action f -> f s_k, so its orbit has |W| / |W_J| members, J its zero
    nodes; distinct gcd-reduced chamber points lie in distinct orbits, so
    the sizes add.
    """
    rs = arr.rs
    order = _parabolic_order(rs, range(rs.rank))
    return sum(order // _parabolic_order(rs, _stabilizer(h.functional)) for h in arr.fundamental)


def reflection_closure(rs: rootsys.RootSystem, seeds, cap: int, points: bool = False) -> Optional[set]:
    """The closure of the integer vectors seeds under the simple reflections
    of rs, or None once it would grow past cap members.  A reflection s acts
    on the right on functionals, f -> f s (_reflection_updates), and with
    points on the left on points, x -> s x, by the transposed updates."""
    updates = _reflection_updates(rs)
    if points:
        updates = tuple(tuple((j, k, c) for k, j, c in changes) for changes in updates)
    seen = set(seeds)
    queue = list(seen)
    while queue:
        f = queue.pop()
        for changes in updates:
            g = list(f)
            for k, j, c in changes:
                g[j] += f[k] * c
            g = tuple(g)
            if g not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(g)
                queue.append(g)
    return seen


def weyl_orbit(arr: Arrangement, cap: int = ORBIT_CAP) -> Arrangement:
    """Close the fundamental functionals under all simple reflections.

    Members are deduplicated as gcd-reduced (sign-preserving) integer
    functionals. A reflection is an integer involution, so it maps a
    reduced functional to a reduced one and its image needs no second
    reduction. Whether the orbit exceeds cap is decided first by counting
    (orbit_size), without enumerating: if it does, the returned Arrangement
    carries the IMPLICIT marker and partial_size = cap, the number of
    members an enumeration would hold when it hit the cap. An orbit that
    fits is enumerated in full, and its members skip the validation of
    OrientedHyperplane: each is a nonzero integer tuple by construction.
    """
    seen = {kernels._reduce_row(h.functional, 0)[0] for h in arr.fundamental}
    if len(seen) <= cap and orbit_size(arr) <= cap:
        # the closure comes back None only if the count were ever wrong; it
        # then stops at the cap, with cap members
        seen = reflection_closure(arr.rs, seen, cap)
        if seen is not None:
            full = tuple(map(_trusted_hyperplane, sorted(seen)))
            return Arrangement(rs=arr.rs, fundamental=arr.fundamental, full=full)
    return Arrangement(rs=arr.rs, fundamental=arr.fundamental, full=IMPLICIT, partial_size=cap)


@dataclass(frozen=True)
class ClassifyingMap:
    """Rows -l_i(alpha) over the simple roots, plus their gcds k > 0."""

    a_star: tuple
    k: tuple


def classifying_map(arr: Arrangement) -> ClassifyingMap:
    if not arr.fundamental:
        raise DegenerateArrangementError("empty arrangement")
    rows = tuple(tuple(-c for c in h.functional) for h in arr.fundamental)
    return ClassifyingMap(a_star=rows, k=tuple(gcd(*row) for row in rows))


def content_lines(text: str) -> list:
    """The nonempty lines of a file, each stripped of its `#` comment."""
    return [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if line]


def parse_arrangement(text: str) -> Arrangement:
    """Parse the line-oriented arrangement format.

    Header `type <family><rank>`, then one line of space-separated integers
    per fundamental functional; `#` starts a comment.
    """
    return arrangement_from_lines(content_lines(text))


def arrangement_from_lines(lines: list) -> Arrangement:
    """parse_arrangement on the file's content_lines."""
    if not lines:
        raise ArrangementFormatError("empty arrangement file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "type":
        raise ArrangementFormatError(f"expected 'type <simple type>' header, got {lines[0]!r}")
    try:
        rs = rootsys.build(head[1])
    except rootsys.UnsupportedTypeError as exc:
        raise ArrangementFormatError(str(exc)) from None
    functionals = []
    for line in lines[1:]:
        try:
            functionals.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise ArrangementFormatError(f"non-integer functional line {line!r}") from None
    if not functionals:
        raise ArrangementFormatError("no functional lines")
    return Arrangement(rs=rs, fundamental=tuple(functionals))
