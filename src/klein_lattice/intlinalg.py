"""Exact linear algebra over the integers and rationals.

Matrices are tuples of tuples (rows); vectors are tuples.  Everything is
either a Python int or a fractions.Fraction -- no floating point.  Isometry
matrices act on column vectors, sublattice bases are stored as row vectors.
"""

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import mul, sub


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a):
    """A^T.  A matrix with no rows keeps no column count and gives (), so
    Sublattice.contains, which needs one, branches on an empty basis."""
    return tuple(zip(*a))


# Products are summed as sum(map(mul, ...)), which iterates in C; a generator
# expression resumes a Python frame per entry.  Values, types (int stays int)
# and zip's truncation to the shorter operand are those of the plain sum.


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(a, v):
    return tuple([sum(map(mul, row, v)) for row in a])


def block_diagonal(a, b):
    """The square block matrix with a and b on the diagonal, zeros elsewhere."""
    na, nb = len(a), len(b)
    return tuple(tuple(row) + (0,) * nb for row in a) + tuple(
        (0,) * na + tuple(row) for row in b
    )


def matrix_order(m, bound):
    """The least k <= bound with m^k = I, or None when there is none."""
    ident = identity_matrix(len(m))
    power, k = m, 1
    while power != ident:
        if k >= bound:
            return None
        power, k = mat_mul(power, m), k + 1
    return k


def dot(u, v):
    return sum(map(mul, u, v))


def is_zero_vector(v):
    return not any(v)


def primitive_vector(v):
    """Scale a rational vector to a primitive integer vector, same direction.
    An entry without a denominator (a float) raises AttributeError, the zero
    vector included."""
    dens = [x.denominator for x in v]
    if not any(v):
        return (0,) * len(v)
    den = lcm(*dens)
    w = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*w)
    return tuple([x // g for x in w])


def bareiss_det(a):
    """Fraction-free determinant of an integer matrix."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def snf(a):
    """Smith normal form.  Returns (D, U, V) with U*A*V = D, U and V unimodular.

    The diagonal of D is nonnegative with d1 | d2 | ... .
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(row) for row in a]
    u = [list(row) for row in identity_matrix(rows)]
    v = [list(row) for row in identity_matrix(cols)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        for j in range(cols):
            d[dst][j] += q * d[src][j]
        for j in range(rows):
            u[dst][j] += q * u[src][j]

    def add_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def make_nonnegative(i):
        if d[i][i] < 0:
            for j in range(cols):
                d[i][j] = -d[i][j]
            for j in range(rows):
                u[i][j] = -u[i][j]

    t = 0
    while t < min(rows, cols):
        # find a nonzero pivot
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                while d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                while d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        t += 1
    # make diagonal nonnegative and enforce divisibility
    n = min(rows, cols)
    for i in range(n):
        make_nonnegative(i)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            a_, b_ = d[i][i], d[i + 1][i + 1]
            if b_ != 0 and a_ != 0 and b_ % a_ != 0:
                # standard 2x2 repair: add column, re-reduce the block; every
                # swap brings in a nonzero entry, so d[i][i] stays nonzero
                add_col(i, i + 1, 1)
                while True:
                    dirty = False
                    if d[i + 1][i] != 0:
                        add_row(i + 1, i, -(d[i + 1][i] // d[i][i]))
                        if d[i + 1][i] != 0:
                            swap_rows(i, i + 1)
                            dirty = True
                    if d[i][i + 1] != 0:
                        add_col(i + 1, i, -(d[i][i + 1] // d[i][i]))
                        if d[i][i + 1] != 0:
                            swap_cols(i, i + 1)
                            dirty = True
                    if not dirty:
                        break
                make_nonnegative(i)
                make_nonnegative(i + 1)
                changed = True
    return (
        tuple(tuple(row) for row in d),
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in v),
    )


def invariant_factors(a):
    d, _, _ = snf(a)
    n = min(len(d), len(d[0]) if d else 0)
    return tuple(d[i][i] for i in range(n) if d[i][i] != 0)


def int_kernel(a):
    """Basis (list of column vectors, as tuples) of {x in Z^n : A x = 0}.

    The basis spans a saturated (primitive) sublattice of Z^n.  A matrix with
    no rows carries no n and gives [], so orthogonal_complement branches.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d, _, v = snf(a)
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    vt = transpose(v)
    return [vt[j] for j in range(rank, cols)]


def solve_int(a, b):
    """One integer solution x of A x = b, or None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d, u, v = snf(a)
    ub = mat_vec(u, b)
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < min(rows, cols) else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
    return mat_vec(v, tuple(y))


def _row_reduce(rows, ncols):
    """Fraction Gauss-Jordan elimination, pivoting on the first ncols columns.

    Returns (m, pivots): m holds the reduced rows as lists of Fractions (any
    columns past ncols are carried along), row i has a 1 in column pivots[i]
    and every other row a 0 there.  The pivot of a column is its first
    nonzero entry at or below the current row; the loop stops once every row
    has a pivot.
    """
    m = [list(map(Fraction, row)) for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = pivot_row = list(map(mul, m[r], repeat(inv)))
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                m[i] = list(map(sub, m[i], map(mul, repeat(m[i][c]), pivot_row)))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def solve_frac(a, b):
    """One rational solution of A x = b, or None if inconsistent."""
    cols = len(a[0]) if a else 0
    m, pivots = _row_reduce([tuple(row) + (b[i],) for i, row in enumerate(a)], cols)
    if any(row[cols] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(m, pivots):
        x[c] = row[cols]
    return tuple(x)


def frac_inverse(a):
    """Exact inverse of a square rational matrix; None if singular."""
    n = len(a)
    ident = identity_matrix(n)
    m, pivots = _row_reduce([tuple(row) + ident[i] for i, row in enumerate(a)], n)
    if len(pivots) < n:
        return None
    return tuple(tuple(row[n:]) for row in m)


def unimodular_inverse(a):
    """Integer inverse of a unimodular integer matrix.

    Raises ValueError when a is singular or its inverse is not integral.
    """
    inv = frac_inverse(a)
    if inv is None or any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(int(x) for x in row) for row in inv)


def rank(a):
    if not a:
        return 0
    return len(_row_reduce(a, len(a[0]))[1])


def complete_basis(b):
    """Extend the rows of b (a primitive-lattice basis) to a basis of Z^n.

    Returns an n x n unimodular matrix whose first len(b) rows span the same
    lattice as the rows of b.
    """
    t = len(b)
    d, u, v = snf(b)
    for i in range(t):
        if d[i][i] != 1:
            raise ValueError("rows do not span a primitive sublattice")
    vinv = unimodular_inverse(v)
    return vinv


def congruence_diagonalize(g):
    """Symmetric congruence diagonalization over the rationals.

    Returns (diag, t) with t invertible rational and t^T g t = diag(diag).
    Step k clears row and column k past the diagonal with pivot m[k][k].
    When m[k][k] = 0 it first takes the first j > k with m[j][j] != 0 or
    m[k][j] != 0 and adds c * (row, column) j to k, which makes the pivot
    2c*m[k][j] + m[j][j]; c = 1 unless that is 0, then c = -1. The two
    values differ by 4*m[k][j], so the pivot is nonzero. With no such j,
    row k is already zero past the diagonal and diag[k] = 0.
    """
    n = len(g)
    m = [[Fraction(x) for x in row] for row in g]
    t = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def add_col_row(dst, src, c):
        # congruence: col_dst += c*col_src, then row_dst += c*row_src
        for i in range(n):
            m[i][dst] += c * m[i][src]
        for j in range(n):
            m[dst][j] += c * m[src][j]
        for i in range(n):
            t[i][dst] += c * t[i][src]

    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j] or m[k][j]), None)
            if j is None:
                continue
            add_col_row(k, j, -1 if 2 * m[k][j] + m[j][j] == 0 else 1)
        piv_val = m[k][k]
        for i in range(k + 1, n):
            if m[k][i] != 0:
                add_col_row(i, k, -m[k][i] / piv_val)
    diag = tuple(m[i][i] for i in range(n))
    return diag, tuple(tuple(row) for row in t)
