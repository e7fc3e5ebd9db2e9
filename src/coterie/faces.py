"""Face lattice of the closed coterie cone via Dynkin edge orientations.

Every face is named by assigning each Dynkin edge {i, j} (i < j) one of
three states: '>' makes the (i, j) inequality an equality, '<' makes the
(j, i) inequality an equality, '-' leaves the edge slack.  With rank n
there are 3^(n-1) orientations; the fully oriented ones cut out the
2^(n-1) extremal rays.

The lattice is certified from the geometry alone, with no comparison of
names.  A face of the cone C is the set of its points on which a given
set of valid inequalities is tight (Ziegler, Lectures on Polytopes, 2.1).
Let named(s) be the edge rows that the states s make equalities.  Each
face point p_s is tight on exactly named(s) (_points_realize_orientations),
so F_s = C cap {named(s) = 0} is the smallest face containing p_s, and
F_t is inside F_s exactly when named(s) is inside named(t): t orients every
edge that s orients, the same way, which is arrow erasure.  That arrow
erasure on the 3^m state tuples, m = n-1, is the inclusion order of the
m-cube's faces depends on m alone, so no input can break it; the tests
prove it at every supported m.  Whether some face of C lies outside the
3^m F_s is not decided here.

The orientation-to-face map is certified through exact integer ranks and
per-face interior points.  The ranks come from one streamed depth-first
walk over the edges in enumeration order (_product_walk): each path
carries an integer echelon basis of (pivot, primitive row) pairs, an
oriented edge reduces its row against the basis fraction-free and pushes
the nonzero remainder, and a face's rank is the basis length at its leaf.
Each face must have dimension rank minus its oriented count, which also
makes every cover drop the dimension by exactly one.

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
The rays are walked over the two oriented states at one scale fixed
before the walk, a_0 the product over the edges of the lcm of their two
denominators, so every a_j = a_i num / den is an exact integer that no
later edge changes (_ray_walk).  Every row a ray is checked against
has two terms, its edge equality (_edge_rows), one positivity row per
node and the closed system's rows (_closed_terms), so each is evaluated
once, at the walk node that writes the later of its two nodes, for all
the rays below it; the verdicts ride down the path as bits, and they are
those of the ray's primitive integer multiple whatever its sign against
the walk's vector (_checked_rays).  The open cone is checked per ray
through cone.member.
extremal_rays keeps those integer multiples and builds a ray's Fraction
vector only when it is asked for; rays writes the entries from the ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
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
    maps each state of the edge to a_j / a_i as integers (num, den), den
    nonzero, or to the anomaly of a ratio that leaves node j free.  They are
    read off the edge's primitive rows in _edge_terms: the '<' row gives
    (-bi, bj), the '>' row (fi, -fj), and a neutral edge takes their mean
    in lowest terms.  A row without its a_j term (bj = 0 or fj = 0) cannot
    fix node j from node i, so its state, and the mean, get the anomaly
    instead of a zero denominator."""
    out = []
    for i, j, fi, fj, bi, bj in _edge_terms(rs):
        free = f"zero ratio on edge ({i + 1}, {j + 1}) leaves node {j + 1} free"
        left = (-bi, bj) if bj else free
        right = (fi, -fj) if fj else free
        if bj and fj:
            # -bi / bj + fi / -fj over 2
            num, den = bi * fj + fi * bj, -2 * bj * fj
            g = gcd(num, den)
            mean = (num // g, den // g)
        else:
            mean = free
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


def _ray_multiple(k) -> tuple:
    """The primitive integer multiple of the nonzero integer vector k that
    the checks run on, whatever route built k: its last coordinate made
    positive, or, when that coordinate is zero, its leading entry."""
    g = gcd(*k)
    if (k[-1] or next(c for c in k if c)) < 0:
        g = -g
    return tuple([c // g for c in k])


def _ray_vector(ints) -> tuple:
    """The reported ray of a _ray_multiple: its last coordinate scaled to 1
    when possible, else the primitive vector itself."""
    d = ints[-1]
    return tuple(Fraction(c, d) for c in ints) if d else ints


def _closed_terms(rs: rootsys.RootSystem) -> list:
    """The closed reduced system's rows, the ones member(..., "closed",
    "edges") reads, in two-term form (i, fi, j, fj), read as
    fi a_i + fj a_j >= 0 (the system is a cone, so every bound is 0): a
    positivity row has one term and gets j = fj = 0, a pair row has two."""
    out = []
    for terms, _, _ in cone.inequalities(rs).closed_system._rows:
        (i, fi), (j, fj) = terms if len(terms) == 2 else (*terms, (0, 0))
        out.append((i, fi, j, fj))
    return out


# The verdict bits of a ray's walk; bit 2 + pos marks a violated equality
# on edge pos.
_ORTHANT = 1
_CLOSED = 2


def _verdicts(x, rows, bad: int) -> int:
    """bad with the verdicts of the two-term rows at the integer vector x:
    a row (i, fi, j, fj, neg, zero, pos) adds the bits named for the sign
    of fi x_i + fj x_j."""
    for i, fi, j, fj, neg, zero, pos in rows:
        v = fi * x[i] + fj * x[j]
        bad |= neg if v < 0 else pos if v else zero
    return bad


def _ray_step(node, branch):
    """The walk's (vector, verdicts) node extended over the edge (i, j):
    a_j = a_i num / den, exact at the walk's fixed scale, and then the
    verdicts of the rows that a_j completes.  An anomaly, the node's
    (None, text) or a ratio's, is passed on instead."""
    x, bad = node
    i, j, ratio, rows = branch
    if x is None:
        return node
    if isinstance(ratio, str):
        return None, ratio
    num, den = ratio
    y = x.copy()
    y[j] = x[i] * num // den
    return y, _verdicts(y, rows, bad)


def _problems(bad: int, edges) -> list:
    """The texts of the verdict bits of one ray, each to be read after
    "ray <vector> ": the violated equalities in edge order, then the
    orthant and the closed cone."""
    if not bad:
        return []
    problems = [
        f"violates the equality on edge ({i + 1}, {j + 1})" for pos, (i, j) in enumerate(edges) if bad >> pos & 4
    ]
    if bad & _ORTHANT:
        problems.append("leaves the positive orthant")
    if bad & _CLOSED:
        problems.append("is outside the closed cone")
    return problems


def _ray_walk(rs: rootsys.RootSystem) -> tuple:
    """(root, levels, late) of the fixed-scale ray walk that _checked_rays
    streams through _product_walk and _ray_step.

    The scale is a_0 = M, the product over the edges of the lcm of their
    two ratios' |den|, so every edge (i, j) sets a_j = a_i num / den, an
    exact integer that no later edge changes.  Each edge joins a reached
    node i to a new node j (see RootSystem), so a_i is set when a_j is, and
    a full orientation's equalities form a tree with nonzero coefficients,
    which cuts out exactly its ray's line; a ratio anomaly breaks the
    chain, and every ray below it gets the anomaly instead of a vector.
    Every row the checks read has two terms, so its value is final at the
    walk node that writes the later of its two nodes (node 0 and nodes no
    edge writes count as written at the root), and it is evaluated there
    once: each edge's equality row, read from _edge_rows rather than from
    the _edge_terms the walk takes its ratios from, so a wrong ratio there
    shows here; one positivity row per node; and the closed system's rows
    (_closed_terms).
    Rows with the same terms are evaluated once, with their bits merged.
    An edge listed before its node i is written cannot check its equality
    when its state is chosen; late holds (pos, i, j, {state: (fi, fj)})
    for those edges, to be checked at the leaf."""
    n, m = rs.rank, len(rs.edges)
    steps = _step_ratios(rs)
    written = [0] * n  # depth after which node x keeps its value
    scale = 1
    for depth, (_, j, by_state) in enumerate(steps):
        written[j] = depth + 1
        scale *= lcm(*(abs(by_state[s][1]) for s in (LEFT, RIGHT) if not isinstance(by_state[s], str)))

    def due(i, j):
        return max(written[i], written[j])

    def add(rows, terms, *bits):
        # bits per sign of the row's value: (negative, zero, positive)
        have = rows.get(terms, (0, 0, 0))
        rows[terms] = tuple(a | b for a, b in zip(have, bits))

    def flat(rows):
        return tuple(terms + bits for terms, bits in rows.items())

    shared = [{} for _ in range(m + 1)]  # the rows due at each depth
    # a one-term row has j = fj = 0, as in _closed_terms, so a node's
    # positivity row and its closed row a_x >= 0 share one evaluation
    for x in range(n):
        add(shared[written[x]], (x, 1, 0, 0), _ORTHANT, _ORTHANT, 0)
    for i, fi, j, fj in _closed_terms(rs):
        add(shared[due(i, j)], (i, fi, j, fj), _CLOSED, 0, 0)
    levels, late = [], []
    for pos, (i, j, by_state) in enumerate(steps):
        fwd, bwd = _edge_rows(rs, i, j)
        level = []
        for state, row in ((LEFT, bwd), (RIGHT, fwd)):
            rows = dict(shared[pos + 1])
            if due(i, j) == pos + 1:
                add(rows, (i, row[i], j, row[j]), 4 << pos, 0, 4 << pos)
            level.append((i, j, by_state[state], flat(rows)))
        if due(i, j) != pos + 1:
            late.append((pos, i, j, {LEFT: (bwd[i], bwd[j]), RIGHT: (fwd[i], fwd[j])}))
        levels.append(level)
    start = [scale] + [0] * (n - 1)
    return (start, _verdicts(start, flat(shared[0]), 0)), levels, late


def _checked_rays(rs: rootsys.RootSystem):
    """Yield (states, ints, problems) per full orientation, in the
    enumeration order of all_orientations: ints is the primitive integer
    multiple of the ray, or None when a zero ratio leaves it undetermined
    (problems then holds that anomaly alone); otherwise problems are the
    violated expectations, each to be read after "ray <vector> ".

    The rays come from one depth-first walk at a fixed scale (_ray_walk),
    which checks each row once, at the node where its value becomes final,
    on the walk's vector k, and carries the verdicts down the path.  They
    are the verdicts of ints = k / g too.  For g > 0 the rows keep their
    signs.  g < 0 means k_{n-1} < 0 < k_0 = M (no edge writes node 0), so
    k and ints both leave the orthant and break a positivity row of the
    closed system, a_{n-1} >= 0 for k and a_0 >= 0 for ints; the
    equalities do not depend on the sign.  The open cone is checked
    through one cone.member call per ray."""
    root, levels, late = _ray_walk(rs)
    orders = product((LEFT, RIGHT), repeat=len(rs.edges))
    for states, (k, bad) in zip(orders, _product_walk(root, levels, _ray_step), strict=True):
        if k is None:
            yield states, None, (bad,)
            continue
        for pos, i, j, rows in late:
            fi, fj = rows[states[pos]]
            if fi * k[i] + fj * k[j]:
                bad |= 4 << pos
        ints = _ray_multiple(k)
        problems = _problems(bad, rs.edges)
        if rs.rank > 1 and cone.member(rs, ints, "open", "edges"):
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
            v = f"({', '.join(map(str, _ray_vector(ints)))})"
            problems = tuple(f"ray {v} {p}" for p in problems)
        out.append(ExtremalRay(Orientation(rs.edges, states), ints, problems))
    return tuple(out)


# ---------------------------------------------------------------------------
# face dimensions and the certificate


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


def _points_realize_orientations(rs: rootsys.RootSystem) -> bool:
    """Whether every face's point is strictly positive and makes tight
    exactly the edge inequalities its orientation names, decided once per
    (edge, state) pair rather than once per face.  Face s's point has
    a_0 = 1 and a_j = a_i num / den over each edge (i, j) in turn,
    (num, den) being the ratio of the edge's state s_e.  If every edge
    joins a reached node i to a new node j, every node is reached, and
    every ratio has num > 0 and den > 0, then every coordinate is positive,
    and the edge's two rows read a_i (fi den + fj num) / den and
    a_i (bi den + bj num) / den there: their signs depend on (e, s_e)
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


@lru_cache(maxsize=None)
def _expected_dimensions(rank: int, m: int) -> tuple:
    """The dimension each face must have, in the enumeration order of
    all_orientations over m edges: rank - m plus its neutral count.  It
    depends on the rank and m alone, so it is built once per pair.  Each
    edge put in front, where product order varies it slowest, gives the
    faces with it LEFT, then NEUTRAL (one dimension more), then RIGHT."""
    dims = (rank - m,)
    for _ in range(m):
        dims = dims + tuple(d + 1 for d in dims) + dims
    return dims


def cube_isomorphism_check(rs: rootsys.RootSystem) -> bool:
    """Verify that orientations, ordered by arrow erasure, form the face
    lattice of the (rank-1)-cube, from the geometry alone: checked rays,
    an interior point per face whose tight set reproduces the orientation
    exactly, and exact face dimensions, in that order, in integers.

    The order needs no comparison of names.  The point p_s of face s is
    tight on exactly the rows named(s) that s makes equalities
    (_points_realize_orientations), so F_s = C cap {named(s) = 0} is the
    smallest face of the cone C containing p_s, and F_t is inside F_s
    exactly when named(s) is inside named(t), which is arrow erasure.  That
    arrow erasure is the cube's face order depends on the edge count
    alone, so no input can break it and the tests prove it once per count.
    The interior points are certified per edge state, in O(m) for all 3^m
    faces and without building one of them.  Every face f must have
    dimension rank minus its oriented count; a cover g of f orients one
    more edge, so dim g = dim f - 1 follows, and covers need no check of
    their own."""
    if any(problems for _, _, problems in _checked_rays(rs)):
        return False
    return _points_realize_orientations(rs) and face_dimensions(rs) == _expected_dimensions(rs.rank, len(rs.edges))
