"""Independent oracle routes used to cross-check the library.

Root systems are realized as explicit vectors in an ambient rational space
and fundamental-weight coordinates are recomputed with sympy from the
defining pairing equations. None of this shares code with the package
(different arithmetic stack, no matrix inversion of the package's Cartan
data), so agreement is a genuine two-route check.

The second half keeps the slower, direct routes that the library replaced
by faster algorithms: Gauss-Jordan solving and inversion over Fractions,
the arrow-erasure order one pair of orientations at a time, the pairwise
comparison of the face order with the cube order, the same comparison
over two stored complete relations, the cube's
vertex sets, down-sets and interior points built one vertex or ray at a
time, every face point's tight set read off its edge rows one face at a
time, face dimensions ranked one face at a time, extremal rays as Fraction nullspace solves, as one propagation
per ray and as one walk that rescales the vector at every edge, the ray
checks made by two cone.member calls and by one pass over the closed rows
per ray, Fourier-Motzkin witnesses rebuilt over Fractions, rows
evaluated as dense dot products, the Weyl orbit closed by dense matrix
products, the cone's inequality rows built once per system with every
entry a Fraction, the geometric membership test on Fraction vectors, and
the general-instance ray points solved over the form, with the wall rows
built from them, and the wall rows built over Fractions from the Fraction
wall heights nu_j(delta).  They run on the package's own data, so they
check the faster algorithms, not the data; the membership test reads only
the Cartan matrix, inverted here over Fractions, so it also checks the
integer weights, and the ray points read the form, not the weights.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

import pytest
import sympy

import support
from coterie import _kernels_py, arrangement, cone, exactla, faces, rootsys
from coterie.arrangement import IMPLICIT, Arrangement, OrientedHyperplane
from coterie.cone import DegenerateInstanceError, nu_of
from coterie.exactla import (
    EQ,
    GE,
    GT,
    ConeSystem,
    InconsistentSystemError,
    LinearSolution,
    SingularMatrixError,
    constraint,
    primitive,
    unit,
    vec,
)
from coterie.faces import LEFT, NEUTRAL, RIGHT, ExtremalRay, Orientation


def _unit(m, k):
    v = [sympy.Integer(0)] * m
    v[k] = sympy.Integer(1)
    return sympy.Matrix(v)


def realization(stype):
    """(root vectors, form scale) for the package's node numbering.

    Returns a list of sympy column vectors and a scalar s such that the
    W-invariant form with short roots of squared length 2 is s * dot.
    """
    stype = rootsys.parse_type(stype)
    n = stype.rank
    f = stype.family
    if f == "A":
        roots = [_unit(n + 1, i) - _unit(n + 1, i + 1) for i in range(n)]
        return roots, sympy.Integer(1)
    if f == "B":
        roots = [_unit(n, i) - _unit(n, i + 1) for i in range(n - 1)] + [_unit(n, n - 1)]
        return roots, sympy.Integer(2)
    if f == "C":
        roots = [_unit(n, i) - _unit(n, i + 1) for i in range(n - 1)] + [2 * _unit(n, n - 1)]
        return roots, sympy.Integer(1)
    if f == "D":
        roots = [_unit(n, i) - _unit(n, i + 1) for i in range(n - 1)]
        roots.append(_unit(n, n - 2) + _unit(n, n - 1))
        return roots, sympy.Integer(1)
    if f == "E":
        half = sympy.Rational(1, 2)
        b1 = sympy.Matrix([half, -half, -half, -half, -half, -half, -half, half])
        b2 = _unit(8, 0) + _unit(8, 1)
        bourbaki = [b1, b2] + [_unit(8, k - 2) - _unit(8, k - 3) for k in range(3, 9)]
        order = {6: [1, 3, 4, 5, 6, 2], 7: [7, 6, 5, 4, 3, 1, 2], 8: [8, 7, 6, 5, 4, 3, 1, 2]}[n]
        return [bourbaki[k - 1] for k in order], sympy.Integer(1)
    if f == "F":
        half = sympy.Rational(1, 2)
        b = [
            _unit(4, 1) - _unit(4, 2),
            _unit(4, 2) - _unit(4, 3),
            _unit(4, 3),
            sympy.Matrix([half, -half, -half, -half]),
        ]
        return [b[3], b[2], b[1], b[0]], sympy.Integer(2)
    roots = [
        _unit(3, 0) - _unit(3, 1),
        -2 * _unit(3, 0) + _unit(3, 1) + _unit(3, 2),
    ]
    return roots, sympy.Integer(1)  # G2


def _to_fraction(x):
    x = sympy.nsimplify(x)
    return Fraction(int(sympy.numer(x)), int(sympy.denom(x)))


def form_matrix(stype):
    """The bilinear form on simple roots, from the realization."""
    roots, scale = realization(stype)
    n = len(roots)
    return [[_to_fraction(scale * roots[i].dot(roots[j])) for j in range(n)] for i in range(n)]


def cartan_matrix(stype):
    """2 (a_i, a_j) / (a_j, a_j) from the realization."""
    b = form_matrix(stype)
    n = len(b)
    return [[Fraction(2) * b[i][j] / b[j][j] for j in range(n)] for i in range(n)]


def weight_columns(stype):
    """Fundamental weights in root coordinates, solved from the pairing
    equations with sympy (column alpha satisfies <w, beta^v> = delta)."""
    roots, scale = realization(stype)
    n = len(roots)
    norm = [scale * r.dot(r) for r in roots]
    cols = []
    for alpha in range(n):
        xs = sympy.symbols(f"x0:{n}")
        w = sum((xs[k] * roots[k] for k in range(n)), sympy.zeros(roots[0].rows, 1))
        eqs = []
        for beta in range(n):
            pairing = 2 * scale * w.dot(roots[beta]) / norm[beta]
            eqs.append(sympy.Eq(pairing, 1 if beta == alpha else 0))
        sol = sympy.solve(eqs, xs, dict=True)
        assert len(sol) == 1
        cols.append([_to_fraction(sol[0][x]) for x in xs])
    return cols


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination over Fractions


def solve_linear_by_fractions(a, b) -> LinearSolution:
    """exactla.solve_linear by Gauss-Jordan elimination on Fraction rows."""
    rows = [list(vec(row)) + [Fraction(v)] for row, v in zip(a, b, strict=True)]
    ncols = len(rows[0]) - 1 if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        rows[rank] = [x / p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(rows)):
        if rows[r][ncols] != 0:
            raise InconsistentSystemError("inconsistent linear system")
    particular = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        particular[col] = rows[r][ncols]
    free_cols = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -rows[r][fc]
        kernel.append(primitive(v))
    return LinearSolution(tuple(particular), tuple(kernel))


def mat_inverse_by_fractions(m) -> tuple:
    """exactla.mat_inverse by Gauss-Jordan elimination on Fraction rows."""
    n = len(m)
    aug = [list(vec(row)) + list(unit(n, i)) for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError(f"singular matrix (rank < {n})")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


# ---------------------------------------------------------------------------
# face order against the cube order, one ordered pair at a time


def poset_order(f: Orientation, g: Orientation) -> bool:
    """f >= g: f is g with some arrows erased."""
    if f.edges != g.edges:
        raise ValueError("orientations live on different edge sets")
    for a, b in zip(f.states, g.states):
        if b == NEUTRAL and a != NEUTRAL:
            return False
        if a == RIGHT and b != RIGHT:
            return False
        if a == LEFT and b != LEFT:
            return False
    return True


def _rule_triples(orients) -> list:
    """(neutral, right, left) edge bitmasks per orientation, the triple
    layout the kernels compare: f >= g iff g.n subset f.n, f.r subset g.r,
    f.l subset g.l."""
    triples = []
    for o in orients:
        l = n = r = 0
        for pos, s in enumerate(o.states):
            bit = 1 << pos
            if s == LEFT:
                l |= bit
            elif s == NEUTRAL:
                n |= bit
            else:
                r |= bit
        triples.append((n, r, l))
    return triples


def _cube_triples(m: int) -> list:
    """Encode vertex-set inclusion in the kernels' (n, r, l) comparison.
    The n slot tests subset as-is, so (vs, 0, 0) makes the order literal
    inclusion of vertex sets."""
    return [(vs, 0, 0) for vs in cube_vertex_sets_by_scan(m)]


def _order_pairs_disagree(rule_triples, cube_triples) -> int:
    return _kernels_py.order_pairs_disagree(rule_triples, cube_triples)


# ---------------------------------------------------------------------------
# face order against the cube order, stored as complete relations or
# compared one face at a time


def _cube_vertex_lists(m: int):
    """Yield the faces of the m-cube in the enumeration order of
    all_orientations, each as the list of its vertices among the 2^m ('<'
    pins 0, '>' pins 1): pinned | s for every subset s of the neutral
    positions, from all of them down to none."""
    for states in product(faces.STATES, repeat=m):
        free = pinned = 0
        for pos, s in enumerate(states):
            if s == NEUTRAL:
                free |= 1 << pos
            elif s == RIGHT:
                pinned |= 1 << pos
        vertices = []
        sub = free
        while True:  # every subset of free, from free down to 0
            vertices.append(pinned | sub)
            if not sub:
                break
            sub = (sub - 1) & free
        yield vertices


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


def _supersets(keysets) -> list:
    """Per item, the up-set bitset of the items whose keys include all of
    its own: the AND over its keys of the items holding that key."""
    keysets = list(keysets)
    size = len(keysets)
    holders = _index_sets(keysets, size)
    everything = (1 << size) - 1
    out = []
    for keys in keysets:
        up = everything
        for key in keys:
            up &= holders[key]
        out.append(up)
    return out


def _first_disagreement(a, b) -> int:
    """First flattened pair index i * size + j where j lies in the up-set
    of i under one order but not the other, or -1 when the orders agree."""
    size = len(a)
    for i, (x, y) in enumerate(zip(a, b, strict=True)):
        diff = x ^ y
        if diff:
            return i * size + (diff & -diff).bit_length() - 1
    return -1


def rule_upsets(state_tuples) -> list:
    """Per tuple of edge states, its up-set under arrow erasure, stored."""
    return _supersets([_lacked_arrows(states) for states in state_tuples])


def cube_orders_agree_by_relations(m: int) -> bool:
    """cube_orders_agree_streamed with both orders stored as complete
    relations, one up-set per face, 9^m bits per order."""
    rule = rule_upsets(product(faces.STATES, repeat=m))
    return _first_disagreement(rule, _supersets(_cube_vertex_lists(m))) == -1


def cube_orders_agree_streamed(m: int) -> bool:
    """Whether arrow erasure on the 3^m tuples of edge states is the
    inclusion order of the m-cube's faces, which the library's cube
    certificate relies on at m edges.  Two holder tables are built, one
    for the arrows and one for the cube vertices; then each face's up-set
    under either order is the AND of its keys' holders, and the two
    up-sets are compared and dropped, face by face, so neither complete
    relation is stored and every supported m (up to 11) runs."""
    size = 3**m
    arrows = _index_sets(map(_lacked_arrows, product(faces.STATES, repeat=m)), size)
    vertices = _index_sets(_cube_vertex_lists(m), size)
    everything = (1 << size) - 1
    for states, cube_keys in zip(product(faces.STATES, repeat=m), _cube_vertex_lists(m), strict=True):
        rule = cube = everything
        for key in _lacked_arrows(states):
            rule &= arrows[key]
        for v in cube_keys:
            cube &= vertices[v]
        if rule != cube:
            return False
    return True


# ---------------------------------------------------------------------------
# face dimensions, one face at a time


def ranks_by_rank_of(edge_rows) -> tuple:
    """Rank of the equality rows of every tuple of edge states, in the order
    of product(STATES), each ranked from scratch: edge_rows gives each
    edge's '<' and '>' rows, and a neutral edge adds none."""
    out = []
    for states in product(faces.STATES, repeat=len(edge_rows)):
        rows = [pair[s == RIGHT] for pair, s in zip(edge_rows, states) if s != NEUTRAL]
        out.append(_kernels_py.rank_of(rows) if rows else 0)
    return tuple(out)


def face_dimensions_by_rank(rs) -> tuple:
    """Dimension of every face, in the enumeration order of
    all_orientations: rank minus the rank of its equality rows, the (j, i)
    row on a '<' edge and the (i, j) row on a '>' edge."""
    rows = []
    for i, j in rs.edges:
        fwd, bwd = faces._edge_rows(rs, i, j)
        rows.append((bwd, fwd))
    return tuple(rs.rank - r for r in ranks_by_rank_of(rows))


# ---------------------------------------------------------------------------
# cube faces, down-sets and interior points, one vertex or ray at a time


def cube_vertex_sets_by_scan(m: int) -> list:
    """Faces of the m-cube in the enumeration order of all_orientations,
    each as a bitmask over the 2^m vertices ('<' pins 0, '>' pins 1)."""
    sets = []
    for states in product(faces.STATES, repeat=m):
        care = pinned = 0
        for pos, s in enumerate(states):
            if s != NEUTRAL:
                care |= 1 << pos
                if s == RIGHT:
                    pinned |= 1 << pos
        vs = 0
        for v in range(1 << m):
            if v & care == pinned:
                vs |= 1 << v
        sets.append(vs)
    return sets


def cube_downsets_by_vertex(vertex_sets) -> list:
    """Per face F, the bitset of faces G whose vertex set lies inside F's:
    G must avoid every vertex F misses, so the set is the AND over those
    vertices of NOT(faces containing the vertex), taken here as the
    complement of one OR."""
    size = len(vertex_sets)
    everything = (1 << size) - 1
    containing = {}  # vertex -> faces containing it
    cube = 0
    for index, vs in enumerate(vertex_sets):
        cube |= vs
        while vs:
            low = vs & -vs
            containing[low] = containing.get(low, 0) | (1 << index)
            vs ^= low
    out = []
    for vs in vertex_sets:
        missing = cube & ~vs
        meets_missing = 0
        while missing:
            low = missing & -missing
            meets_missing |= containing[low]
            missing ^= low
        out.append(everything & ~meets_missing)
    return out


@lru_cache(maxsize=None)
def _solved_rays_at_unit_a0(rs) -> dict:
    """states -> the extremal_rays_by_solve ray of that full orientation,
    as Fractions scaled to a_0 = 1."""
    rays = extremal_rays_by_solve(rs)
    return {r.orientation.states: tuple(Fraction(c, r.ints[0]) for c in r.ints) for r in rays}


def face_point_by_rays(rs, o: Orientation) -> tuple:
    """The mean of the extremal_rays_by_solve rays of all full orientings of
    o's neutral edges, each scaled to a_0 = 1: a positive combination of all
    of the face's rays, so a point of its relative interior."""
    rays = _solved_rays_at_unit_a0(rs)
    neutral_positions = [p for p, s in enumerate(o.states) if s == NEUTRAL]
    picked = []
    for combo in product((LEFT, RIGHT), repeat=len(neutral_positions)):
        states = list(o.states)
        for p, s in zip(neutral_positions, combo):
            states[p] = s
        picked.append(rays[tuple(states)])
    return tuple(sum(column, Fraction(0)) / len(picked) for column in zip(*picked))


def tight_states(edge_terms, point):
    """Which edge inequalities the integer point makes tight, given every
    edge's rows in the two-term form of faces._edge_terms; None if the point
    is not strictly positive or is tight in both directions of one edge."""
    if min(point) <= 0:
        return None
    states = []
    for i, j, fi, fj, bi, bj in edge_terms:
        vf = fi * point[i] + fj * point[j]
        vb = bi * point[i] + bj * point[j]
        if vf < 0 or vb < 0:
            return None
        if vf == 0 and vb == 0:
            return None
        states.append(RIGHT if vf == 0 else LEFT if vb == 0 else NEUTRAL)
    return tuple(states)


def face_points_realize_orientations(rs) -> bool:
    """faces._points_realize_orientations one face at a time: walk all 3^m
    face points of propagated_rays(rs, STATES) and evaluate every
    edge's two rows at each one, which must give exactly its orientation as
    the tight set.  A face left without a point (a zero ratio) fails."""
    terms = faces._edge_terms(rs)
    walked = propagated_rays(rs, faces.STATES)
    every = product(faces.STATES, repeat=len(rs.edges))
    return all(x is not None and tight_states(terms, x) == s for s, (x, _) in zip(every, walked, strict=True))


# ---------------------------------------------------------------------------
# the ray and face-point walk that rescales at every edge


def _rescaling_step(node, branch):
    """The walk's (vector, anomaly) node extended over the edge (i, j):
    a_j = a_i num / den, the vector rescaled by den.  An anomaly, the
    node's or a ratio's, is passed on instead."""
    x, broken = node
    i, j, ratio = branch
    if broken or isinstance(ratio, str):
        return None, broken or ratio
    num, den = ratio
    y = [c * den for c in x] if den != 1 else list(x)
    y[j] = x[i] * num
    return y, None


def propagated_rays(rs, states):
    """Stream (integer vector, anomaly) per orientation over the given edge
    states, in the order of product(states): a_0 = 1, then every edge (i, j)
    of rs.edges in turn sets a_j to a_i times the state's ratio from
    faces._step_ratios, rescaling the whole vector by each denominator
    rather than fixing one scale up front as faces._checked_rays does.
    Over STATES it builds every face point, over ('<', '>') every ray; a
    ratio anomaly breaks the chain, and every orientation below it gets the
    anomaly instead of a vector."""
    levels = [[(i, j, by_state[s]) for s in states] for i, j, by_state in faces._step_ratios(rs)]
    return faces._product_walk(([1] + [0] * (rs.rank - 1), None), levels, _rescaling_step)


# ---------------------------------------------------------------------------
# extremal rays as nullspaces of the equality rows


def extremal_rays_by_solve(rs) -> tuple:
    """One ray per fully oriented diagram from a Fraction nullspace solve
    of its equality rows, with the same anomaly checks and normalisation
    as faces.extremal_rays; both routes hold primitive integer multiples,
    so their records compare equal as they stand."""
    n = rs.rank
    out = []
    for states in product(faces.STATES, repeat=len(rs.edges)):
        f = Orientation(edges=rs.edges, states=states)
        if not f.fully_oriented:
            continue
        rows = []
        for (i, j), state in zip(rs.edges, f.states):
            fwd, bwd = faces._edge_rows(rs, i, j)
            rows.append(list(fwd if state == RIGHT else bwd))
        if rows:
            kernel = solve_linear_by_fractions(rows, [Fraction(0)] * len(rows)).kernel
        else:
            # edgeless rank-1 diagram: the whole line is the kernel
            kernel = tuple(exactla.unit(n, i) for i in range(n))
        anomalies = []
        if len(kernel) != 1:
            anomalies.append(f"equality system has kernel dimension {len(kernel)}")
            out.append(ExtremalRay(orientation=f, ints=None, anomalies=tuple(anomalies)))
            continue
        ints = faces._ray_multiple(kernel[0])
        v = faces._ray_vector(ints)
        text = f"({', '.join(map(str, v))})"
        if any(c <= 0 for c in v):
            anomalies.append(f"ray {text} leaves the positive orthant")
        if not cone.member(rs, v, "closed", "edges"):
            anomalies.append(f"ray {text} is outside the closed cone")
        if n > 1 and cone.member(rs, v, "open", "edges"):
            anomalies.append(f"ray {text} is interior, expected boundary")
        out.append(ExtremalRay(orientation=f, ints=ints, anomalies=tuple(anomalies)))
    return tuple(out)


def propagate_ray(rs, states) -> tuple:
    """(integer vector, anomaly) for one full orientation, propagated on its
    own from a_0 = 1 in the breadth-first order of support.bfs_order: every
    oriented edge fixes its child from its parent, the vector kept in
    integers by rescaling it whenever a ratio has a denominator; a zero
    ratio breaks the chain and comes back as an anomaly instead.  Neither
    the order nor the ratios come from faces: the ratios are the Fractions
    of rootsys.ratio, not the integer pairs of faces._edge_terms."""
    x = [0] * rs.rank
    x[0] = 1
    for child, parent in support.bfs_order(rs)[1:]:
        pos = rs.edges.index((min(parent, child), max(parent, child)))
        i, j = rs.edges[pos]
        # a_big = q a_small on this edge's equality
        big, q = (i, rootsys.ratio(rs, i, j)) if states[pos] == RIGHT else (j, rootsys.ratio(rs, j, i))
        if child == big:
            num, den = q.numerator, q.denominator
        elif q == 0:
            return None, f"zero ratio on edge ({i + 1}, {j + 1}) leaves node {child + 1} free"
        else:
            num, den = q.denominator, q.numerator
        # a_child = a_parent num / den
        value = x[parent] * num
        if den != 1:
            x = [c * den for c in x]
        x[child] = value
    return x, None


def outside_closed(rows, ints) -> bool:
    """Whether the integer point violates one of the faces._closed_terms
    rows, read as fi a_i + fj a_j >= 0: the closed-cone test in one pass
    over the rows, one point at a time."""
    return any(fi * ints[i] + fj * ints[j] < 0 for i, fi, j, fj in rows)


def checked_rays_by_member(rs) -> list:
    """faces._checked_rays with every check made the direct way: the rays
    of the rescaling walk (propagated_rays), each checked as its primitive
    multiple against its equality rows as dense dot products and against
    the closed and the open cone by one cone.member call each."""
    n = rs.rank
    out = []
    orders = product((LEFT, RIGHT), repeat=len(rs.edges))
    for states, (k, broken) in zip(orders, propagated_rays(rs, (LEFT, RIGHT)), strict=True):
        if k is None:
            out.append((states, None, (broken,)))
            continue
        ints = faces._ray_multiple(k)
        problems = []
        for (i, j), state in zip(rs.edges, states):
            fwd, bwd = faces._edge_rows(rs, i, j)
            if sum(map(mul, fwd if state == RIGHT else bwd, ints)) != 0:
                problems.append(f"violates the equality on edge ({i + 1}, {j + 1})")
        if min(ints) <= 0:
            problems.append("leaves the positive orthant")
        if not cone.member(rs, ints, "closed", "edges"):
            problems.append("is outside the closed cone")
        if n > 1 and cone.member(rs, ints, "open", "edges"):
            problems.append("is interior, expected boundary")
        out.append((states, ints, tuple(problems)))
    return out


# ---------------------------------------------------------------------------
# Fourier-Motzkin witnesses rebuilt over Fractions


def back_substitute_by_fractions(steps, dim: int) -> tuple:
    """exactla._back_substitute over Fractions.

    Rebuilds a witness from feasible's elimination steps, last step first:
    an equality pivot fixes its variable, a Fourier-Motzkin step picks the
    midpoint of the variable's interval, or bound +/- 1 on an unbounded side."""
    witness = [Fraction(0)] * dim
    assigned = []
    for var, kind, payload in reversed(steps):
        if kind == "eq":
            coeffs, bound = payload
            rest = sum((Fraction(coeffs[k]) * witness[k] for k in assigned), Fraction(0))
            witness[var] = (Fraction(bound) - rest) / coeffs[var]
        else:
            # If lo == hi below, both bounds are weak: a strict pair at equal
            # value combines to an unsatisfiable verdict row, caught earlier.
            lo = hi = None
            for coeffs, bound, strict in payload:
                c = coeffs[var]
                if c == 0:
                    continue
                rest = sum((Fraction(coeffs[k]) * witness[k] for k in assigned), Fraction(0))
                value = (Fraction(bound) - rest) / c
                if c > 0:
                    if lo is None or value > lo:
                        lo = value
                else:
                    if hi is None or value < hi:
                        hi = value
            if lo is None and hi is None:
                witness[var] = Fraction(0)
            elif hi is None:
                witness[var] = lo + 1
            elif lo is None:
                witness[var] = hi - 1
            else:
                witness[var] = (lo + hi) / 2
        assigned.append(var)
    return tuple(witness)


def rebuilt_witnesses(system):
    """Run exactla.feasible(system) and rebuild its witness twice
    from the same elimination steps: (the library's witness as its integer
    pair (ints, den), this oracle's Fraction witness, whether feasible's own
    re-check rejected the library's), or None when feasible decided
    infeasible before back-substitution."""
    seen = []
    library = exactla._back_substitute

    def both(steps, dim):
        pair = library(steps, dim)
        seen.append((pair, back_substitute_by_fractions(steps, dim)))
        return pair

    rejected = False
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "_back_substitute", both)
        try:
            exactla.feasible(system)
        except AssertionError as exc:
            if "witness fails its own system" not in str(exc):
                raise
            rejected = True
    return seen[0] + (rejected,) if seen else None


def same_point(pair, witness) -> bool:
    """Whether the integer pair (ints, den), den > 0, is the point of the
    Fraction witness: ints[k] q_k == p_k den for each entry p_k / q_k."""
    ints, den = pair
    return den > 0 and len(ints) == len(witness) and all(
        x * w.denominator == w.numerator * den for x, w in zip(ints, witness)
    )


# ---------------------------------------------------------------------------
# constraint rows evaluated densely


def eval_rows_dense(rows, x) -> bool:
    """kernels.eval_rows on dense (coeffs, bound, rel) rows, each evaluated
    as a full dot product."""
    for coeffs, bound, rel in rows:
        v = sum(map(mul, coeffs, x))
        if rel == _kernels_py.REL_GT:
            if not v > bound:
                return False
        elif rel == _kernels_py.REL_GE:
            if not v >= bound:
                return False
        else:
            if v != bound:
                return False
    return True


# ---------------------------------------------------------------------------
# Weyl orbit by dense reflection matrices


def weyl_orbit_dense(arr, cap: int = arrangement.ORBIT_CAP):
    """arrangement.weyl_orbit with every reflection applied as a full
    n x n product and every image gcd-reduced again."""
    # columns of each integer reflection matrix: image entry j is f . column j
    mats = []
    for a in range(arr.rs.rank):
        m = rootsys.simple_reflection(arr.rs, a).matrix
        mats.append([tuple(int(row[j]) for row in m) for j in range(arr.rs.rank)])
    seen = {_kernels_py._reduce_row(h.functional, 0)[0] for h in arr.fundamental}
    if len(seen) > cap:
        return Arrangement(rs=arr.rs, fundamental=arr.fundamental, full=IMPLICIT, partial_size=cap)
    queue = list(seen)
    while queue:
        f = queue.pop()
        for columns in mats:
            g = _kernels_py._reduce_row(tuple(sum(map(mul, f, col)) for col in columns), 0)[0]
            if g not in seen:
                if len(seen) >= cap:
                    return Arrangement(
                        rs=arr.rs, fundamental=arr.fundamental, full=IMPLICIT, partial_size=len(seen)
                    )
                seen.add(g)
                queue.append(g)
    full = tuple(OrientedHyperplane(f) for f in sorted(seen))
    return Arrangement(rs=arr.rs, fundamental=arr.fundamental, full=full)


# ---------------------------------------------------------------------------
# the cone's rows as dense Fractions


def inequalities_by_fractions(rs, reduced: bool) -> tuple:
    """(open system, closed system) of cone.inequalities, built as the
    library built them before its rows were shared and left unboxed: every
    row built once per system, every entry and bound a Fraction."""
    n = rs.rank
    pairs = cone.ordered_pairs(rs, reduced)

    def rows(rel):
        cons = [constraint(vec(unit(n, a)), rel, Fraction(0)) for a in range(n)]
        for b, a in pairs:
            f = [0] * n
            f[b] = 1
            f[a] = -rootsys.ratio(rs, b, a)
            cons.append(constraint(vec(f), rel, Fraction(0)))
        return tuple(cons)

    return ConeSystem(n, rows(GT)), ConeSystem(n, rows(GE))


# ---------------------------------------------------------------------------
# geometric membership on Fraction vectors


@lru_cache(maxsize=None)
def fraction_weights(rs) -> tuple:
    """(cartan^T)^-1 by Fraction Gauss-Jordan: c_{beta,alpha}, computed
    without the package's integer weights."""
    return mat_inverse_by_fractions(exactla.mat_transpose(rs.cartan))


def member_geometric_by_fractions(rs, x, strict: bool) -> bool:
    """The weight-residual membership test on Fraction vectors, as the
    library ran it before its root data became integral: r_alpha(x) =
    a_alpha / c_{alpha,alpha} positive and x - r_alpha(x) * lambda_alpha
    positive away from alpha, with c from fraction_weights."""
    x = vec(x)
    c = fraction_weights(rs)
    for a in range(rs.rank):
        r = x[a] / c[a][a]
        if r < 0 or (strict and r == 0):
            return False
        weight = tuple(c[b][a] for b in range(rs.rank))
        residual = support.vec_sub(x, support.vec_scale(r, weight))
        for b in range(rs.rank):
            if b == a:
                continue
            if residual[b] < 0 or (strict and residual[b] == 0):
                return False
    return True


# ---------------------------------------------------------------------------
# general-instance ray points by exact solves, and wall rows from them


def r_i_general_by_solve(inst, i: int, delta) -> tuple:
    """cone.r_i_general as two exact solves over the form.

    Solves: x orthogonal (under the form) to the kernel of nu_i . theta_star,
    normalized by (nu_i . theta_star)(x) = nu_i(delta).
    """
    rs = inst.rs
    n = rs.rank
    comp = list(inst.composite(i))
    if not any(comp):
        raise DegenerateInstanceError(
            f"nu_{i} . theta_star is identically zero; the ray direction is undefined"
        )
    target = nu_of(inst, i, delta)
    kernel = exactla.solve_linear([comp], [Fraction(0)]).kernel
    # (mu, x)_B as a row functional; the form is symmetric so B mu works.
    rows = [exactla.mat_vec(rs.form, list(mu)) for mu in kernel]
    rows.append(comp)
    rhs = [Fraction(0)] * len(kernel) + [target]
    try:
        sol = exactla.solve_linear(rows, rhs)
    except exactla.InconsistentSystemError:
        raise DegenerateInstanceError(
            f"no ray point for wall {i}: orthogonality system inconsistent"
        ) from None
    if sol.kernel:
        raise DegenerateInstanceError(f"ray point for wall {i} is not unique")
    return tuple(sol.particular)


def general_member_systems_by_rays(inst, delta) -> tuple:
    """cone.general_member_systems with each wall row built from the ray
    point r_j: a strictly dominant lambda on the i-th wall sphere, strictly
    inside every other wall sphere."""
    rs = inst.rs
    n = rs.rank
    rays = [r_i_general_by_solve(inst, i, delta) for i in range(len(inst.nu))]
    ct = exactla.mat_transpose(rs.cartan)
    # (r_j - lam, r_j) >= 0 with equality exactly at j = i:
    # functional -(B r_j), bound -(r_j, B r_j), the same for every i.
    walls = []
    for r in rays:
        br = exactla.mat_vec(rs.form, r)
        walls.append((tuple(-v for v in br), -exactla.vec_dot(r, br)))
    systems = []
    for i in range(len(rays)):
        cons = [constraint(row, GT, 0) for row in ct]
        for j, (f, bound) in enumerate(walls):
            cons.append(constraint(f, EQ if j == i else GT, bound))
        systems.append(ConeSystem(n, tuple(cons)))
    return tuple(systems)


def general_member_systems_by_fractions(inst, delta) -> tuple:
    """cone.general_member_systems built over Fractions, as the library
    built it before its wall rows became integers: nu_j(delta) summed as a
    Fraction, and each wall row nu_j(delta) u_j(lam) > 0 (= 0 on the i-th
    wall) written as the Fraction row nu_j(delta) l_j with bound
    -nu_j(delta)^2."""
    delta = vec(delta)
    n = inst.rs.rank
    walls = []
    for nu, h in zip(inst.nu, inst.arr.fundamental, strict=True):
        height = exactla.vec_dot(nu, delta)
        walls.append((tuple(height * c for c in h.functional), -height * height))
    dominance = [constraint(row, GT, 0) for row in exactla.mat_transpose(inst.rs.cartan)]
    systems = []
    for i in range(len(walls)):
        cons = list(dominance)
        for j, (f, bound) in enumerate(walls):
            cons.append(constraint(f, EQ if j == i else GT, bound))
        systems.append(ConeSystem(n, tuple(cons)))
    return tuple(systems)
