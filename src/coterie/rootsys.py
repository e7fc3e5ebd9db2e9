"""Root-system data for the simple types A-G.

Node numbering and edge sets follow the source tables this package
reproduces (they differ from Bourbaki for some exceptional types):

  A_n, B_n, C_n   chain 1-2-...-n; B_n has alpha_n short, C_n has
                  alpha_n long, the other nodes carrying the other length
  D_n             chain 1-...-(n-2) with both n-1 and n attached to n-2
  E6              chain 1-2-3-4-5 with node 6 attached to node 3
  E7              chain 1-2-3-4-5-6 with node 7 attached to node 4
  E8              chain 1-2-3-4-5-6-7 with node 8 attached to node 5
  F4              chain 1-2-3-4, alpha_1 and alpha_2 short
  G2              edge 1-2, alpha_1 short

Short roots are normalized to squared length 2. Everything downstream
(inequalities, faces, arrangements) consumes the RootSystem built here.
Its tables are integers; the fundamental weights are one integer matrix
over one denominator, taken from one fraction-free elimination of the
transposed Cartan matrix, never tabulated, and the cone's pair ratios and
cleared pair rows are read off it here alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from . import exactla
from ._backend import kernels

MAX_RANK = 12
_FAMILY_MIN = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_FAMILY_MAX = {"A": MAX_RANK, "B": MAX_RANK, "C": MAX_RANK, "D": MAX_RANK, "E": 8, "F": 4, "G": 2}


class UnsupportedTypeError(ValueError):
    """Type string outside the supported simple types."""


@dataclass(frozen=True, order=True)
class SimpleType:
    family: str
    rank: int

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_type(s) -> SimpleType:
    if isinstance(s, SimpleType):
        return s
    m = re.fullmatch(r"([A-Ga-g])\s*(\d+)", str(s).strip())
    if not m:
        raise UnsupportedTypeError(f"cannot parse type {s!r} (expected e.g. 'A4', 'E8')")
    family = m.group(1).upper()
    rank = int(m.group(2))
    if not _FAMILY_MIN[family] <= rank <= _FAMILY_MAX[family]:
        raise UnsupportedTypeError(
            f"rank {rank} out of range for family {family} "
            f"(supported: {_FAMILY_MIN[family]}..{_FAMILY_MAX[family]})"
        )
    return SimpleType(family, rank)


def all_types(max_rank: int = MAX_RANK):
    """All supported simple types with rank <= max_rank, deterministic order."""
    out = []
    for family in "ABCDEFG":
        lo, hi = _FAMILY_MIN[family], min(_FAMILY_MAX[family], max_rank)
        out.extend(SimpleType(family, n) for n in range(lo, hi + 1))
    return out


def _edges_and_norms(stype: SimpleType):
    """1-based edge list and squared lengths per node."""
    n = stype.rank
    f = stype.family
    chain = [(i, i + 1) for i in range(1, n)]
    if f == "A":
        return chain, [2] * n
    if f == "B":
        return chain, [4] * (n - 1) + [2]
    if f == "C":
        return chain, [2] * (n - 1) + [4]
    if f == "D":
        edges = [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
        return edges, [2] * n
    if f == "E":
        branch = {6: 3, 7: 4, 8: 5}[n]
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(branch, n)]
        return edges, [2] * n
    if f == "F":
        return chain, [2, 2, 4, 4]
    return chain, [2, 6]  # G2


@dataclass(frozen=True)
class RootSystem:
    """Cartan data for one simple type, in integers.

    cartan[i][j] = 2(alpha_i, alpha_j)/(alpha_j, alpha_j); form[i][j] is the
    W-invariant bilinear form (alpha_i, alpha_j) with short roots of squared
    length 2; weights = weight_den * (cartan^T)^-1 with weight_den > 0 the
    lcm of the denominators of that inverse, so column alpha of weights is
    weight_den * lambda_alpha in root coordinates.  Both come from one
    integer elimination of [cartan^T | I] (kernels.eliminate), whose pivot
    d and right half R give the inverse R / d: with G = gcd(d, R),
    weight_den = d / G and weights = R / G.  edges are the 0-based
    tree edges (i, j) with i < j, sorted.  In that order each edge (i, j)
    joins a node already reached from node 0 to a new node j, so one pass
    over edges reaches every node; the ray walk in faces relies on it.
    """

    stype: SimpleType
    cartan: tuple
    form: tuple
    weights: tuple
    weight_den: int
    edges: tuple

    def __hash__(self):
        # the nested tables make the generated hash O(rank^2) per call, and
        # cache lookups keyed on the system hash constantly
        return hash(self.stype)

    @cached_property
    def inv_coeffs(self) -> tuple:
        """(cartan^T)^-1 as Fractions: weights / weight_den.  Column alpha
        holds the fundamental weight lambda_alpha in root coordinates."""
        return tuple(tuple(Fraction(v, self.weight_den) for v in row) for row in self.weights)

    @property
    def rank(self) -> int:
        return self.stype.rank

    def __str__(self) -> str:
        return str(self.stype)


def build(stype) -> RootSystem:
    return _build(parse_type(stype))


@lru_cache(maxsize=None)
def _build(stype: SimpleType) -> RootSystem:
    n = stype.rank
    edges1, norms = _edges_and_norms(stype)
    edges = tuple(sorted((i - 1, j - 1) if i < j else (j - 1, i - 1) for i, j in edges1))
    form = [[0] * n for _ in range(n)]
    for i in range(n):
        form[i][i] = norms[i]
    for i, j in edges:
        # squared lengths are 2, 4 or 6, so the halved maximum is an integer
        form[i][j] = form[j][i] = -max(norms[i], norms[j]) // 2
    if any(2 * form[i][j] % form[j][j] for i in range(n) for j in range(n)):
        raise AssertionError(f"non-integral Cartan entry for {stype}")
    cartan = tuple(tuple(2 * form[i][j] // form[j][j] for j in range(n)) for i in range(n))
    # the pivot d is det(cartan) > 0, and R / d = (cartan^T)^-1
    rows = [col + exactla.unit(n, i) for i, col in enumerate(zip(*cartan))]
    rows, pivots, d = kernels.eliminate(rows)
    if pivots != list(range(n)):
        raise exactla.SingularMatrixError(f"singular Cartan matrix for {stype}")
    g = gcd(d, *(v for row in rows for v in row[n:]))
    weights = tuple(tuple(v // g for v in row[n:]) for row in rows)
    return RootSystem(
        stype=stype,
        cartan=cartan,
        form=tuple(tuple(row) for row in form),
        weights=weights,
        weight_den=d // g,
        edges=edges,
    )


def _nodes(rs: RootSystem, *nodes: int) -> None:
    """Reject a node index outside 0 .. rank - 1, which would otherwise
    count from the end or raise IndexError, and a repeated node."""
    for k in nodes:
        if not 0 <= k < rs.rank:
            raise ValueError(f"node {k} out of range for {rs}")
    if len(set(nodes)) < len(nodes):
        raise ValueError(f"nodes {nodes} of {rs} must be distinct")


def ratio(rs: RootSystem, beta: int, alpha: int) -> Fraction:
    """c_{beta,alpha} / c_{alpha,alpha}: the (beta, alpha) condition of the
    cone reads a_beta > ratio a_alpha."""
    _nodes(rs, beta, alpha)
    return Fraction(rs.weights[beta][alpha], rs.weights[alpha][alpha])


def pair_row(rs: RootSystem, beta: int, alpha: int) -> tuple:
    """The (beta, alpha) condition cleared to a primitive integer functional:
    weights[alpha][alpha] e_beta - weights[beta][alpha] e_alpha divided by
    the gcd of its two entries, so its beta and -alpha entries are the
    denominator and the numerator of ratio(beta, alpha)."""
    _nodes(rs, beta, alpha)
    den, num = rs.weights[alpha][alpha], rs.weights[beta][alpha]
    g = gcd(den, num)
    row = [0] * rs.rank
    row[beta] = den // g
    row[alpha] = -num // g
    return tuple(row)


def symmetrizers(rs: RootSystem) -> tuple:
    """d_i = (alpha_i, alpha_i)/2, so form[i][j] = d_j * cartan[i][j]."""
    return tuple(rs.form[i][i] // 2 for i in range(rs.rank))


def _cleared(x, n: int) -> tuple:
    """(integers, d) with x = integers / d and d > 0, for x of length n."""
    *ints, d = exactla.clear_row(tuple(x) + (1,))
    if len(ints) != n:
        raise ValueError(f"vectors must have length {n}")
    return ints, d


def inner(rs: RootSystem, v, w) -> Fraction:
    """W-invariant bilinear form on root coordinates: v^T . form . w."""
    v, dv = _cleared(v, rs.rank)
    w, dw = _cleared(w, rs.rank)
    return Fraction(sum(c * kernels.idot(row, w) for c, row in zip(v, rs.form)), dv * dw)


@dataclass(frozen=True)
class WeylElement:
    word: tuple
    matrix: tuple


def simple_reflection(rs: RootSystem, alpha: int) -> WeylElement:
    """s_alpha acting on root coordinates: x - <x, alpha^v> alpha.

    <x, alpha^v> = (cartan^T x)_alpha, so the matrix is the identity with
    row alpha replaced by e_alpha - (column alpha of cartan)^T.
    """
    _nodes(rs, alpha)
    n = rs.rank
    rows = tuple(
        tuple(int(j == k) - (rs.cartan[j][k] if k == alpha else 0) for j in range(n))
        for k in range(n)
    )
    return WeylElement(word=(alpha,), matrix=rows)
