"""Integer work loops.

Everything here operates on plain Python ints (arbitrary precision), so
arithmetic stays exact. Higher-level code clears denominators before
calling in.

Functions:
  eliminate     fraction-free Gauss-Jordan elimination, the one loop behind
                exactla's rank, solve and inverse
  rank_of       matrix rank through eliminate
  _reduce_row   gcd normalisation of a (coeffs, bound) row
  fm_step       one Fourier-Motzkin elimination step
  eval_rows     evaluation of sparse (terms, bound, rel) rows at a cleared point
  order_pairs_disagree  first disagreement of two partial orders (the test
                oracles compare the face order with it)

Row encodings:
  inequality rows for fm_step: (coeffs tuple, bound, strict flag), dense
  evaluation rows:             (terms, bound, rel code), sparse: terms is a
                               tuple of the row's nonzero (index, coeff)
                               pairs, so a cone row costs at most two
                               products; rel code 0 = ">", 1 = ">=", 2 = "="
"""

from math import gcd
from operator import mul

REL_GT = 0
REL_GE = 1
REL_EQ = 2


def idot(f, x):
    return sum(map(mul, f, x))


def eliminate(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (rows, pivots, d): the eliminated rows, the pivot column of each
    of the first len(pivots) rows, and the pivot value d they all share, so
    that those rows divided by d are the reduced row echelon form and the
    remaining rows are zero.  The pivot is the first nonzero entry at or
    below the current rank.  Every row is updated at every step as
    (p * row - c * top) // prev, so each division is exact (Bareiss 1968).
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[piv], mat[rank] = mat[rank], mat[piv]
        top = mat[rank]
        p = top[col]
        for r in range(nrows):
            if r != rank:
                c = mat[r][col]
                mat[r] = [(p * x - c * y) // prev for x, y in zip(mat[r], top)]
        pivots.append(col)
        prev = p
    return mat, pivots, prev


def rank_of(rows):
    """Rank of an integer matrix."""
    return len(eliminate(rows)[1])


def _reduce_row(coeffs, bound):
    """Divide an integer row (coeffs, bound) by the gcd of its entries."""
    g = gcd(*coeffs, bound)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        bound = bound // g
    return coeffs, bound


def fm_step(rows, col):
    """One Fourier-Motzkin step eliminating variable `col`.

    rows must contain only inequalities (callers pivot equalities out first).
    A derived row is strict iff at least one parent is strict. Rows with the
    same functional are merged to the strongest bound.
    """
    keep = []
    pos = []
    neg = []
    for row in rows:
        c = row[0][col]
        if c == 0:
            keep.append(row)
        elif c > 0:
            pos.append(row)
        else:
            neg.append(row)
    merged = {}

    def add(coeffs, bound, strict):
        old = merged.get(coeffs)
        if old is None:
            merged[coeffs] = (bound, strict)
        else:
            ob, os = old
            if bound > ob or (bound == ob and strict and not os):
                merged[coeffs] = (bound, strict if bound > ob else (strict or os))

    for coeffs, bound, strict in keep:
        add(coeffs, bound, strict)
    for f, b, s in pos:
        a = f[col]
        for g, c, t in neg:
            m = -g[col]
            coeffs = tuple(m * fi + a * gi for fi, gi in zip(f, g))
            coeffs, bound = _reduce_row(coeffs, m * b + a * c)
            add(coeffs, bound, s or t)
    return [(coeffs, bound, strict) for coeffs, (bound, strict) in merged.items()]


def eval_rows(rows, x, d=1):
    """True iff the rational point x / d (x integer, d > 0) satisfies every
    (terms, bound, rel) row, compared as terms . x against bound * d.
    x may be longer than the rows' dimension; only indexed entries count."""
    for terms, bound, rel in rows:
        v = 0
        for i, c in terms:
            v += c * x[i]
        bound *= d
        if rel == REL_GT:
            if not v > bound:
                return False
        elif rel == REL_GE:
            if not v >= bound:
                return False
        else:
            if v != bound:
                return False
    return True


def order_pairs_disagree(a, b):
    """Compare two partial orders given as mask triples on the same index set.

    a[i] = (n_i, r_i, l_i) and b[i] likewise, each mask a small nonneg int.
    i >= j holds iff (n_j & ~n_i) == 0 and (r_i & ~r_j) == 0 and
    (l_i & ~l_j) == 0. Returns the first flattened pair index where the two
    orders disagree, or -1 when they agree everywhere.
    """
    size = len(a)
    for i in range(size):
        an, ar, al = a[i]
        bn, br, bl = b[i]
        for j in range(size):
            gn, gr, gl = a[j]
            hn, hr, hl = b[j]
            ge_a = (gn & ~an) == 0 and (ar & ~gr) == 0 and (al & ~gl) == 0
            ge_b = (hn & ~bn) == 0 and (br & ~hr) == 0 and (bl & ~hl) == 0
            if ge_a != ge_b:
                return i * size + j
    return -1
