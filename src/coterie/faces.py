"""Face lattice of the closed coterie cone via Dynkin edge orientations.

Every face is named by assigning each Dynkin edge {i, j} (i < j) one of
three states: '>' makes the (i, j) inequality an equality, '<' makes the
(j, i) inequality an equality, '-' leaves the edge slack.  With rank n
there are 3^(n-1) orientations; the fully oriented ones cut out the
2^(n-1) extremal rays.

The lattice is compared against the face lattice of an (n-1)-cube built
the blunt way, as explicit vertex lists ordered by inclusion: each cube
face lists the vertices pinned | s for every subset s of its free bits,
over the 2^m vertices, m = n-1.  Both orders are inclusion orders of small
key sets.  A face's up-set under either order is a bitset (a Python int)
over the 3^(n-1) faces: the AND, over the face's keys, of the faces holding
that key, read from one holder table per order (_index_sets).  A cube
face's keys are its vertices, so F >= G when F holds every vertex of G; an
orientation's keys are the arrows it lacks, numbered 2*pos for '<' and
2*pos + 1 for '>', so f >= g when f lacks every arrow that g lacks, which
is arrow erasure.  The two up-sets of each face are compared and dropped
in turn, so only the two tables, 2m + 2^m bitsets, are ever held, and
every supported rank runs.  Nothing assumes the product structure of the
cube.

Both orders depend on the edge count m alone, so they are compared once
per m (_cube_orders_agree) and the verdict is kept for every later check
at that m.

The orientation-to-face map is then certified geometrically through
exact integer ranks and per-face interior points.  The ranks come from
one streamed depth-first walk over the edges in enumeration order
(_product_walk): each path carries an integer echelon basis of (pivot,
primitive row) pairs, an oriented edge reduces its row against the basis
fraction-free and pushes the nonzero remainder, and a face's rank is the
basis length at its leaf.  Each face must have dimension rank minus its
oriented count, which also makes every cover drop the dimension by
exactly one.

The rays and the interior points are built along the edges: rs.edges
reaches every node from node 0, each edge (i, j) joining the reached node
i to the new node j, so each edge sets a_j to a_i times the edge's ratio.
The ratios are integer pairs read off the edge's two cleared rows
(_edge_terms), and a neutral edge takes the mean of its two ratios.  A
coordinate is the product of the ratios on its tree path, so a face's
point is the mean of the rays of its full orientings, each scaled to
a_0 = 1, and lies in the face's relative interior.  Its tight edge
inequalities must reproduce the orientation exactly.  Every row of the
reduced system involves one node or one edge, and at a face's point edge
(i, j)'s rows equal a_i times an integer fixed by the edge and its state,
over the ratio's positive denominator.  So once the edges form that tree
and every ratio is positive, each point is strictly positive and its
tight set is decided edge by edge: 3m (edge, state) checks stand for all
3^m faces, and no face point is built (_points_realize_orientations).
The rays are walked over the two oriented states (_propagated_rays), and
each is checked as its primitive integer multiple: against its equality
rows (_edge_rows), against the closed cone by one pass over the closed
system's integer rows (_outside_closed), and against the open cone
through cone.member.
extremal_rays keeps those integer multiples and builds a ray's Fraction
vector only when it is asked for; rays writes the entries from the ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from typing import Optional

from . import cone, exactla, rootsys
from .exactla import EQ, GE, ConeSystem, constraint

LEFT = "<"
NEUTRAL = "-"
RIGHT = ">"
STATES = (LEFT, NEUTRAL, RIGHT)


@dataclass(frozen=True)
class Orientation:
    """One state per Dynkin edge, edges in canonical (min, max) order.
    Built unchecked; orientation() validates states given from outside."""

    edges: tuple
    states: tuple

    def __str__(self) -> str:
        return "".join(self.states)

    @property
    def oriented_count(self) -> int:
        return len(self.states) - self.states.count(NEUTRAL)

    @property
    def fully_oriented(self) -> bool:
        return NEUTRAL not in self.states


def orientation(rs: rootsys.RootSystem, states) -> Orientation:
    """Build an Orientation from a string like '>><' or a state sequence."""
    states = tuple(states)
    if len(states) != len(rs.edges):
        raise ValueError("one state per edge required")
    if any(s not in STATES for s in states):
        raise ValueError(f"states must be drawn from {STATES}")
    return Orientation(edges=rs.edges, states=states)


def all_orientations(rs: rootsys.RootSystem) -> tuple:
    edges = rs.edges
    return tuple(Orientation(edges, s) for s in product(STATES, repeat=len(edges)))


@dataclass(frozen=True)
class Face:
    orientation: Orientation
    system: ConeSystem
    dim: int


@lru_cache(maxsize=None)
def _edge_rows(rs: rootsys.RootSystem, i: int, j: int) -> tuple:
    """Cleared integer functionals of the (i, j) and (j, i) inequalities."""
    return rootsys.pair_row(rs, i, j), rootsys.pair_row(rs, j, i)


@lru_cache(maxsize=None)
def _edge_terms(rs: rootsys.RootSystem) -> tuple:
    """Per edge (i, j), its two rows in two-term form (i, j, fi, fj, bi, bj):
    the (i, j) row reads fi a_i + fj a_j, the (j, i) row bi a_i + bj a_j."""
    out = []
    for i, j in rs.edges:
        fwd, bwd = _edge_rows(rs, i, j)
        out.append((i, j, fwd[i], fwd[j], bwd[i], bwd[j]))
    return tuple(out)


def face_of(rs: rootsys.RootSystem, f: Orientation) -> Face:
    """The face cut out by f: the closed reduced system with the oriented
    edges' inequalities substituted by equalities."""
    if f.edges != rs.edges:
        raise ValueError("orientation does not belong to this root system")
    n = rs.rank
    cons = [constraint(exactla.unit(n, a), GE, 0) for a in range(n)]
    eq_rows = []
    for (i, j), state in zip(rs.edges, f.states):
        fwd, bwd = _edge_rows(rs, i, j)
        cons.append(constraint(fwd, EQ if state == RIGHT else GE, 0))
        cons.append(constraint(bwd, EQ if state == LEFT else GE, 0))
        if state == RIGHT:
            eq_rows.append(list(fwd))
        elif state == LEFT:
            eq_rows.append(list(bwd))
    dim = n - exactla.mat_rank(eq_rows) if eq_rows else n
    return Face(orientation=f, system=ConeSystem(n, tuple(cons)), dim=dim)


@dataclass(frozen=True)
class ExtremalRay:
    """ints is the checked primitive integer multiple of the ray, None when
    the ray is undetermined; vector is the reported form, built on demand."""

    orientation: Orientation
    ints: Optional[tuple]
    anomalies: tuple = ()

    @property
    def vector(self) -> Optional[tuple]:
        return None if self.ints is None else _ray_vector(self.ints)


def _step_ratios(rs: rootsys.RootSystem) -> list:
    """Per edge (i, j) of rs.edges, in order: (i, j, ratios), where ratios
    maps each state of the edge to a_j / a_i as integers (num, den), den > 0,
    or to the anomaly of a zero ratio that leaves node j free.  They are read
    off the edge's primitive rows in _edge_terms: the '<' row gives
    (-bi, bj), the '>' row (fi, -fj), and a neutral edge takes their mean
    in lowest terms."""
    out = []
    for i, j, fi, fj, bi, bj in _edge_terms(rs):
        left = (-bi, bj)
        if fj:
            right = (fi, -fj)
            # -bi / bj + fi / -fj over 2, both denominators positive
            num, den = bi * fj + fi * bj, -2 * bj * fj
            g = gcd(num, den)
            mean = (num // g, den // g)
        else:
            right = mean = f"zero ratio on edge ({i + 1}, {j + 1}) leaves node {j + 1} free"
        out.append((i, j, dict(zip(STATES, (left, mean, right)))))
    return out


def _product_walk(start, levels, step):
    """Yield one leaf per tuple of product(*levels), in that order: a node
    at depth d with value x has the child step(x, b) for each branch b of
    levels[d], from start at the root.  Walked depth first, each partial
    value is computed once for all the tuples that extend it, and only the
    pending siblings along one path are held; the last level's values are
    yielded from their parent rather than pushed."""
    if not levels:
        yield start
        return
    last = len(levels) - 1
    stack = [(0, start)]
    while stack:
        depth, x = stack.pop()
        if depth == last:
            for b in levels[last]:
                yield step(x, b)
        else:
            stack.extend([(depth + 1, step(x, b)) for b in reversed(levels[depth])])


def _ray_step(node, branch):
    """The walk's (vector, anomaly) node extended over the edge (i, j):
    a_j = a_i num / den, the vector rescaled by den.  An anomaly, the
    node's or a zero ratio's, is passed on instead."""
    x, broken = node
    i, j, ratio = branch
    if broken or isinstance(ratio, str):
        return None, broken or ratio
    num, den = ratio
    y = [c * den for c in x] if den != 1 else list(x)
    y[j] = x[i] * num
    return y, None


def _propagated_rays(rs: rootsys.RootSystem, states):
    """Stream (integer vector, anomaly) per orientation over the given edge
    states, in the order of product(states): a_0 = 1, then every edge (i, j)
    of rs.edges in turn sets a_j to a_i times the state's ratio from
    _step_ratios (_ray_step).  Each edge joins a reached node i to a new
    node j (see RootSystem), so a_i is already set when a_j is.  A full
    orientation's equalities form a tree with nonzero coefficients, so they
    cut out exactly its ray's line; a zero ratio breaks the chain, and every
    orientation below it gets an anomaly instead of a vector."""
    levels = [[(i, j, by_state[s]) for s in states] for i, j, by_state in _step_ratios(rs)]
    return _product_walk(([1] + [0] * (rs.rank - 1), None), levels, _ray_step)


def _ray_multiple(k) -> tuple:
    """The primitive integer multiple of the nonzero integer vector k that
    the checks run on, whatever route built k: its last coordinate made
    positive, or, when that coordinate is zero, its leading entry."""
    g = gcd(*k)
    if (k[-1] or next(c for c in k if c)) < 0:
        g = -g
    return tuple(c // g for c in k)


def _ray_vector(ints) -> tuple:
    """The reported ray of a _ray_multiple: its last coordinate scaled to 1
    when possible, else the primitive vector itself."""
    d = ints[-1]
    return tuple(Fraction(c, d) for c in ints) if d else ints


def _closed_terms(rs: rootsys.RootSystem) -> list:
    """The closed reduced system's rows, the ones member(..., "closed",
    "edges") reads, in two-term form (i, fi, j, fj, bound), read as
    fi a_i + fj a_j >= bound: a positivity row has one term and gets fj = 0,
    a pair row has two."""
    out = []
    for terms, bound, _ in cone.inequalities(rs).closed_system._rows:
        (i, fi), (j, fj) = terms if len(terms) == 2 else (*terms, (0, 0))
        out.append((i, fi, j, fj, bound))
    return out


def _outside_closed(rows, ints) -> bool:
    """Whether the integer point violates one of the _closed_terms rows:
    the closed-cone test, in one pass over the rows and without clearing
    the point again."""
    for i, fi, j, fj, bound in rows:
        if fi * ints[i] + fj * ints[j] < bound:
            return True
    return False


def _checked_rays(rs: rootsys.RootSystem):
    """Yield (states, ints, problems) per full orientation, in the
    enumeration order of all_orientations: ints is the primitive integer
    multiple of the ray, or None when a zero ratio leaves it undetermined
    (problems then holds that anomaly alone); otherwise problems are the
    violated expectations, each to be read after "ray <vector> ".  The
    checks run on ints, which has the ray's signs and, the cone being
    invariant under positive scaling, its memberships.  The equalities are
    read from the rows of _edge_rows, not from the _edge_terms the walk
    takes its ratios from, so a wrong ratio there shows here."""
    n = rs.rank
    rows = [(i, j, *_edge_rows(rs, i, j)) for i, j in rs.edges]
    closed_rows = _closed_terms(rs)
    orders = product((LEFT, RIGHT), repeat=len(rs.edges))
    for states, (k, broken) in zip(orders, _propagated_rays(rs, (LEFT, RIGHT)), strict=True):
        if k is None:
            yield states, None, (broken,)
            continue
        ints = _ray_multiple(k)
        problems = []
        for (i, j, fwd, bwd), state in zip(rows, states):
            row = fwd if state == RIGHT else bwd
            if row[i] * ints[i] + row[j] * ints[j]:
                problems.append(f"violates the equality on edge ({i + 1}, {j + 1})")
        if min(ints) <= 0:
            problems.append("leaves the positive orthant")
        if _outside_closed(closed_rows, ints):
            problems.append("is outside the closed cone")
        if n > 1 and cone.member(rs, ints, "open", "edges"):
            # rank 1 is the degenerate case where the only ray is interior
            problems.append("is interior, expected boundary")
        yield states, ints, tuple(problems)


def extremal_rays(rs: rootsys.RootSystem) -> tuple:
    """One ray per fully oriented diagram, in the enumeration order of
    all_orientations; violations of the expected geometry are attached as
    anomalies, never dropped."""
    out = []
    for states, ints, problems in _checked_rays(rs):
        if ints is not None and problems:
            v = _ray_vector(ints)
            problems = tuple(f"ray {v} {p}" for p in problems)
        out.append(ExtremalRay(Orientation(rs.edges, states), ints, problems))
    return tuple(out)


# ---------------------------------------------------------------------------
# cube comparison


def _face_vertices(states):
    """Yield the vertices of the cube face named by the edge states, among
    the 2^m ('<' pins 0, '>' pins 1): pinned | s for every subset s of the
    neutral positions, from all of them down to none."""
    free = pinned = 0
    for pos, s in enumerate(states):
        if s == NEUTRAL:
            free |= 1 << pos
        elif s == RIGHT:
            pinned |= 1 << pos
    sub = free
    while True:
        yield pinned | sub
        if not sub:
            return
        sub = (sub - 1) & free


def _lacked_arrows(states) -> list:
    """The arrows a tuple of edge states lacks, each numbered
    2*pos + arrow ('<' is arrow 0, '>' arrow 1): both on a neutral edge,
    the opposite one on an oriented edge."""
    keys = []
    for pos, s in enumerate(states):
        if s != LEFT:
            keys.append(2 * pos)
        if s != RIGHT:
            keys.append(2 * pos + 1)
    return keys


def _index_sets(keys_per_index, size: int) -> dict:
    """key -> bitset of the indices whose keys include it, for the key
    collections of indices 0 .. size - 1: the bits are set in one bytearray
    per key, which becomes an int once (no big int grows bit by bit) and is
    popped as it does, so the table is never held twice."""
    rows = {}
    for index, keys in enumerate(keys_per_index):
        byte, bit = index >> 3, 1 << (index & 7)
        for key in keys:
            row = rows.get(key)
            if row is None:
                row = rows[key] = bytearray((size + 7) >> 3)
            row[byte] |= bit
    return {key: int.from_bytes(rows.pop(key), "little") for key in list(rows)}


def _reduced(row, basis) -> list:
    """row minus a combination of the basis rows, fraction-free: each
    (pivot, b) in turn clears the pivot entry as b[pivot] * row -
    row[pivot] * b, and the result is divided by the gcd of its entries.
    Every basis row is zero at the pivots pushed before it, so a cleared
    pivot stays clear, and the remainder is zero exactly when row lies in
    the span of the basis."""
    for p, b in basis:
        c = row[p]
        if c:
            bp = b[p]
            row = [bp * x - c * y for x, y in zip(row, b)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
    return row


def _pushed(basis, row) -> tuple:
    """The echelon basis with row's remainder appended under its first
    nonzero entry as pivot, or the basis itself when row lies in its span."""
    rest = _reduced(row, basis)
    for pivot, x in enumerate(rest):
        if x:
            return basis + ((pivot, rest),)
    return basis


def _echelon_ranks(edge_rows):
    """Rank of the equality rows of every tuple of edge states, in the order
    of product(STATES): edge_rows gives each edge's '<' and '>' rows, and a
    neutral edge adds none.  Each path of the walk carries one echelon
    basis, so each oriented edge costs one reduction for all the tuples that
    extend the path, and the rank at a leaf is the basis length."""
    levels = [(left, None, right) for left, right in edge_rows]
    walked = _product_walk((), levels, lambda basis, row: basis if row is None else _pushed(basis, row))
    return map(len, walked)


@lru_cache(maxsize=None)
def face_dimensions(rs: rootsys.RootSystem) -> tuple:
    """Dimension of every face, in the enumeration order of
    all_orientations: rank minus the integer rank of its equality rows,
    the (j, i) row on a '<' edge and the (i, j) row on a '>' edge."""
    rows = [_edge_rows(rs, i, j)[::-1] for i, j in rs.edges]
    return tuple(rs.rank - r for r in _echelon_ranks(rows))


@lru_cache(maxsize=None)
def _cube_orders_agree(m: int) -> bool:
    """Whether arrow erasure on the 3^m tuples of edge states is the
    inclusion order of the m-cube's faces.  Both orders depend on m alone,
    so they are compared once per edge count.  Two holder tables are built
    once, one for the arrows and one for the cube vertices; then each
    face's up-set under either order is the AND of its keys' holders, and
    the two up-sets are compared and dropped, face by face, so the
    complete relations are never stored."""
    size = 3**m
    arrows = _index_sets(map(_lacked_arrows, product(STATES, repeat=m)), size)
    vertices = _index_sets(map(_face_vertices, product(STATES, repeat=m)), size)
    everything = (1 << size) - 1
    for states in product(STATES, repeat=m):
        rule = cube = everything
        for key in _lacked_arrows(states):
            rule &= arrows[key]
        for v in _face_vertices(states):
            cube &= vertices[v]
        if rule != cube:
            return False
    return True


def _points_realize_orientations(rs: rootsys.RootSystem) -> bool:
    """Whether every face's point from _propagated_rays(rs, STATES) is
    strictly positive and makes tight exactly the edge inequalities its
    orientation names, decided once per (edge, state) pair rather than once
    per face.  Face s's point has a_0 = 1 and a_j = a_i num / den over each
    edge (i, j) in turn, (num, den) being the ratio of the edge's state s_e.
    If every edge joins a reached node i to a new node j, every node is
    reached, and every ratio has num > 0 and den > 0, then every coordinate
    is positive, and the edge's two rows read a_i (fi den + fj num) / den
    and a_i (bi den + bj num) / den there: their signs depend on (e, s_e)
    alone.  So each edge state is checked once, on those two numerators:
    '>' needs the (i, j) row zero and the (j, i) row positive, '<' the
    reverse, and '-' both positive."""
    reached = {0}
    for (i, j, by_state), (_, _, fi, fj, bi, bj) in zip(_step_ratios(rs), _edge_terms(rs), strict=True):
        if i not in reached or j in reached:
            return False
        reached.add(j)
        for state, ratio in by_state.items():
            if isinstance(ratio, str) or min(ratio) <= 0:
                return False
            num, den = ratio
            fwd, bwd = fi * den + fj * num, bi * den + bj * num
            if min(fwd, bwd) < 0 or (fwd == 0, bwd == 0) != (state == RIGHT, state == LEFT):
                return False
    return len(reached) == rs.rank


def cube_isomorphism_check(rs: rootsys.RootSystem) -> bool:
    """Verify that orientations, ordered by arrow erasure, form the face
    lattice of the (rank-1)-cube, and that the geometry agrees: checked
    rays, an interior point per face whose tight set reproduces the
    orientation exactly, and exact face dimensions.  The two orders are
    compared one face at a time, once per edge count, at every rank.  The
    interior points are certified per edge state, in O(m) for all 3^m
    faces and without building one of them (_points_realize_orientations).
    Every face f must have dimension rank minus its oriented count; a cover
    g of f orients one more edge, so dim g = dim f - 1 follows, and covers
    need no check of their own."""
    m = len(rs.edges)

    # combinatorial half: the two orders, one face's up-sets at a time
    if not _cube_orders_agree(m):
        return False

    # geometric half; stays in integer arithmetic throughout
    if any(problems for _, _, problems in _checked_rays(rs)):
        return False
    if not _points_realize_orientations(rs):
        return False
    free = rs.rank - m  # a face's dimension less its neutral count
    dims = zip(product(STATES, repeat=m), face_dimensions(rs), strict=True)
    return all(d == free + s.count(NEUTRAL) for s, d in dims)
