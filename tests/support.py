"""Shared helpers for the test suite: seeded exact samplers, the small
Fraction vector and matrix helpers the library no longer needs, the
Fraction evaluation and dense clearing of one constraint, the additivity
of cone members, and the wall heights of a general instance with their
quadratic identity.

All sampling is driven by random.Random instances with fixed seeds recorded
in the tests, and produces Fractions with bounded denominators so every
check stays exact and reproducible.
"""

from fractions import Fraction
from operator import add

from coterie import cone, exactla, rootsys


def zeros(n: int) -> tuple:
    return (Fraction(0),) * n


def vec_add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_scale(c, a) -> tuple:
    c = Fraction(c)
    return tuple(c * x for x in a)


def mat_mul(a, b) -> tuple:
    return tuple(tuple(exactla.vec_dot(row, col) for col in zip(*b)) for row in a)


def holds(c, x) -> bool:
    """Whether the rational point x meets the constraint c, evaluated over
    Fractions: the direct route the library's cleared integer rows are
    checked against."""
    v = exactla.vec_dot(c.functional, x)
    if c.rel == exactla.GT:
        return v > c.bound
    if c.rel == exactla.GE:
        return v >= c.bound
    return v == c.bound


def cleared(c) -> tuple:
    """The dense integer form (coeffs, bound, rel) of the constraint c,
    scaled by the positive lcm of denominators: the clearing that its
    sparse cleared_terms are checked against."""
    ints = exactla.clear_row(tuple(c.functional) + (c.bound,))
    return ints[:-1], ints[-1], c.rel


def additivity_check(rs, x, y) -> bool:
    """x + y stays in the open cone and every r_alpha adds."""
    if not cone.member(rs, x, "open", "edges"):
        raise cone.MembershipPreconditionError("x is not in the open cone")
    if not cone.member(rs, y, "open", "edges"):
        raise cone.MembershipPreconditionError("y is not in the open cone")
    # both checks are homogeneous: run them on d x and d y, d > 0 a common denominator
    ints = exactla.clear_row(tuple(x) + tuple(y))
    x, y = ints[: rs.rank], ints[rs.rank :]
    s = tuple(map(add, x, y))
    if not cone.member(rs, s, "open", "edges"):
        return False
    r = cone.r_alpha
    return all(r(rs, s, a) == r(rs, x, a) + r(rs, y, a) for a in range(rs.rank))


def u_value(inst, i: int, delta, lam) -> Fraction:
    """The wall height nu_i(delta - theta_star(lam)) with theta_star acting
    column-wise."""
    lam = exactla.vec(lam)
    if len(lam) != inst.rs.rank:
        raise ValueError(f"lambda has length {len(lam)}, rank is {inst.rs.rank}")
    image = exactla.mat_vec(inst.theta_star, lam)
    delta = exactla.vec(delta)
    if len(delta) != inst.shift_dim:
        raise ValueError(f"shift has length {len(delta)}, expected {inst.shift_dim}")
    return exactla.vec_dot(exactla.vec(inst.nu[i]), exactla.vec_sub(delta, image))


def epsilon_i(inst, i: int, delta) -> Fraction:
    """nu_i(delta) / (r_i, r_i)."""
    r = cone.r_i_general(inst, i, delta)
    rr = rootsys.inner(inst.rs, r, r)
    if rr == 0:
        raise cone.DegenerateInstanceError(f"(r_{i}, r_{i}) = 0; the wall height is undefined")
    return cone.nu_of(inst, i, delta) / rr


def u_identity_check(inst, i: int, delta, lam) -> bool:
    """u_i(lam) equals epsilon_i * (r_i - lam, r_i)."""
    r = cone.r_i_general(inst, i, delta)
    if not any(r):
        raise cone.DegenerateInstanceError(f"r_{i}(delta) = 0; the identity needs a nonzero ray")
    lam = exactla.vec(lam)
    lhs = u_value(inst, i, delta, lam)
    rhs = epsilon_i(inst, i, delta) * rootsys.inner(inst.rs, exactla.vec_sub(list(r), lam), r)
    return lhs == rhs


def rand_fraction(rng, lo=-2, hi=4, max_den=60) -> Fraction:
    q = rng.randint(1, max_den)
    p = rng.randint(lo * q, hi * q)
    return Fraction(p, q)


def rand_vec(rng, n, lo=-2, hi=4, max_den=60) -> tuple:
    return tuple(rand_fraction(rng, lo, hi, max_den) for _ in range(n))


def rand_positive_vec(rng, n, hi=4, max_den=60) -> tuple:
    out = []
    for _ in range(n):
        q = rng.randint(1, max_den)
        p = rng.randint(1, hi * q)
        out.append(Fraction(p, q))
    return tuple(out)


def bfs_order(rs):
    """Nodes in BFS order from node 0 with their tree parents."""
    adjacency = {k: [] for k in range(rs.rank)}
    for i, j in rs.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = {0: None}
    order = [(0, None)]
    queue = [0]
    while queue:
        node = queue.pop(0)
        for nxt in sorted(adjacency[node]):
            if nxt not in seen:
                seen[nxt] = node
                order.append((nxt, node))
                queue.append(nxt)
    return order


def sample_member(rs, rng) -> tuple:
    """Exact interior member: walk the Dynkin tree picking each coordinate
    inside the open interval its parent's constraints allow."""
    c = rs.inv_coeffs
    coords = [None] * rs.rank
    for node, parent in bfs_order(rs):
        if parent is None:
            coords[node] = Fraction(rng.randint(1, 240), rng.randint(1, 60))
            continue
        p = parent
        lo = coords[p] * c[node][p] / c[p][p]
        hi = coords[p] * c[node][node] / c[p][node]
        assert lo < hi
        den = rng.randint(2, 24)
        t = Fraction(rng.randint(1, den - 1), den)
        coords[node] = lo + t * (hi - lo)
    return tuple(coords)


def sample_dominant(rs, rng, strict=True) -> tuple:
    """Random dominant vector: nonnegative (positive if strict) combination
    of the fundamental weights."""
    weights = []
    for _ in range(rs.rank):
        q = rng.randint(1, 60)
        p = rng.randint(1 if strict else 0, 4 * q)
        weights.append(Fraction(p, q))
    cols = exactla.mat_transpose(rs.inv_coeffs)
    x = zeros(rs.rank)
    for w, col in zip(weights, cols):
        x = vec_add(x, vec_scale(w, col))
    return x
