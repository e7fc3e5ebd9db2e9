"""Shared helpers for the test suite: seeded exact samplers, the small
Fraction vector and matrix helpers the library no longer needs, the
Fraction evaluation and dense clearing of one constraint, the column
permutation that sets feasible's elimination order, the additivity
of cone members, the wall heights of a general instance with their
quadratic identity, and the root-system and arrangement functions that
only the tests use: fundamental weights, tree paths and the chain
identity, reflections, the coroot pairing and dominance, the
augmented-cone lattice test and the arrangement writer.

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


def vec_sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b, strict=True))


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


def permuted_columns(system, order) -> exactla.ConeSystem:
    """The system with its variables renumbered so that exactla.feasible,
    which eliminates from the last variable down, eliminates the original
    variables in the given order: new variable k is order[dim - 1 - k]."""
    cols = tuple(reversed(order))
    return exactla.ConeSystem(
        system.dim,
        tuple(exactla.constraint([c.functional[j] for j in cols], c.rel, c.bound) for c in system.constraints),
    )


def cleared(c) -> tuple:
    """The dense integer form (coeffs, bound, rel) of the constraint c,
    scaled by the positive lcm of denominators and not gcd-reduced: the
    clearing that its sparse cleared_terms, once divided by the gcd
    (kernels._reduce_row), are checked against."""
    ints = exactla.clear_row(tuple(c.functional) + (c.bound,))
    return ints[:-1], ints[-1], c.rel


def r_alpha(rs, x, alpha: int) -> Fraction:
    """Height of x over the alpha wall: a_alpha / c_{alpha,alpha}."""
    x = tuple(x)
    if len(x) != rs.rank:
        raise ValueError(f"point has length {len(x)}, rank is {rs.rank}")
    return Fraction(x[alpha]) * rs.weight_den / rs.weights[alpha][alpha]


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
    r = r_alpha
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
    return exactla.vec_dot(exactla.vec(inst.nu[i]), vec_sub(delta, image))


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
    rhs = epsilon_i(inst, i, delta) * rootsys.inner(inst.rs, vec_sub(list(r), lam), r)
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


# ---------------------------------------------------------------------------
# root-system and arrangement functions only the tests use


def fundamental_weight(rs, alpha: int) -> tuple:
    """Fundamental weight lambda_alpha in root coordinates: column alpha of inv_coeffs."""
    if not 0 <= alpha < rs.rank:
        raise ValueError(f"node {alpha} out of range for {rs}")
    return tuple(rs.inv_coeffs[b][alpha] for b in range(rs.rank))


def weyl_apply(w, x) -> tuple:
    """The Weyl element w acting on x in root coordinates."""
    return tuple(exactla.vec_dot(row, x) for row in w.matrix)


def coroot_pairing(rs, x) -> tuple:
    """(<x, alpha^v>)_alpha = cartan^T . x for x in root coordinates."""
    return tuple(exactla.vec_dot(col, x) for col in zip(*rs.cartan))


def dominant_in_root_coords(rs, x, strict: bool = False) -> bool:
    """x in the closed (strict: open) Weyl chamber, root coordinates."""
    pair = coroot_pairing(rs, x)
    if strict:
        return all(v > 0 for v in pair)
    return all(v >= 0 for v in pair)


def tree_path(rs, start: int, goal: int) -> tuple:
    """Unique path start..goal in the Dynkin tree (inclusive, 0-based)."""
    adjacency = {k: [] for k in range(rs.rank)}
    for i, j in rs.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    prev = {start: None}
    queue = [start]
    while queue:
        node = queue.pop(0)
        if node == goal:
            break
        for nxt in adjacency[node]:
            if nxt not in prev:
                prev[nxt] = node
                queue.append(nxt)
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


def chain_identity_check(rs) -> bool:
    """c_{alpha,gamma} = (c_{alpha,beta}/c_{beta,beta}) c_{beta,gamma} along tree paths.

    Checked for every ordered pair (alpha, gamma) and every interior node
    beta of the connecting path, cross-multiplied in the integer weights.
    """
    w = rs.weights
    for a in range(rs.rank):
        for g in range(rs.rank):
            if a == g:
                continue
            path = tree_path(rs, a, g)
            for b in path[1:-1]:
                if w[a][g] * w[b][b] != w[a][b] * w[b][g]:
                    return False
    return True


def env_augmented_cone_member(rs, chi, lam) -> bool:
    """(chi, lam) lies in the augmented-cone lattice: lam dominant and
    chi - lam a nonnegative integer combination of simple roots."""
    chi = exactla.vec(chi)
    lam = exactla.vec(lam)
    if len(chi) != rs.rank or len(lam) != rs.rank:
        raise ValueError(f"vectors must have length {rs.rank}")
    if not dominant_in_root_coords(rs, lam):
        raise ValueError("lam is not dominant")
    diff = vec_sub(chi, lam)
    return all(c.denominator == 1 and c >= 0 for c in diff)


def format_arrangement(arr) -> str:
    """The arrangement in the line format that parse_arrangement reads."""
    lines = [f"type {arr.rs.stype}"]
    for h in arr.fundamental:
        lines.append(" ".join(str(c) for c in h.functional))
    return "\n".join(lines) + "\n"
