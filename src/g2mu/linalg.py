"""Exact linear algebra over the rationals and integers, in plain Python.

Everything here is dense and small (dimensions <= ~50).  An integer matrix
is a tuple of int row tuples and a rational matrix the integer pair (N, d),
N such rows and d > 0, meaning N / d; scalars and vectors stay ints and
Fractions.  `clear_denominators` makes the pair from rows of ints,
Fractions or strings, once, where a matrix enters the program.  det,
inverse, is_identity, positive_definite and enumerate_ellipsoid read a
pair (an integer matrix passes as (N, 1)); rank, nullspace,
primitive_integer and int_compound read integer rows.  Rows are read
through operator.index, so a Fraction or a float raises TypeError rather
than being cleared again.  One fraction-free (Bareiss) elimination,
`_echelon`, serves det, rank, nullspace (primitive integer vectors),
inverse and positive_definite (its leading pivots, with det); its rows
also drive the one lattice-shell enumerator, `enumerate_ellipsoid`, which
prunes each coordinate with an integer square root and returns every
shell with its exact value, so no float or tolerance enters it.
Minors come from Laplace expansion of each minor into minors one size
smaller, and products from `int_matmul`, which combines the rows of its
right factor over the nonzero entries of both.  Integer matrices also get a
Hermite-style kernel routine, whose bases are saturated, so that lattice
computations never leave Z; `canonical_sign` orients its vectors and the
modes l, -l that share a fibre.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, isqrt, lcm
from operator import index, mul


def frac(x):
    """Coerce integers, strings like '3/4' and Fractions to Fraction.

    Integers are taken through operator.index, so a float raises TypeError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(index(x))


def frac_vector(entries):
    return tuple(frac(x) for x in entries)


def transpose(a):
    return tuple(zip(*a))


def matvec(a, v):
    """The exact product a v of a matrix and a vector, as a tuple."""
    return tuple(sum(map(mul, row, v)) for row in a)


def is_identity(a):
    """Whether the square rational matrix a = (N, d) is the identity matrix."""
    N, d = a
    return all(x == d * (i == j) for i, row in enumerate(N) for j, x in enumerate(row))


def _echelon(rows, reduced=False):
    """Fraction-free (Bareiss) row echelon form of an integer matrix, in place.

    rows is a list of lists of ints.  Returns (pivots, D, swaps): the pivot
    columns, the last pivot D (1 if there is none) and the number of row
    swaps.  Each step replaces a row by (pivot * row - f * top) / D_prev,
    a division that is exact by Bareiss' theorem, so every entry stays a
    minor of the input.  A square matrix of full rank has det = (-1)^swaps D;
    with no swap the k-th diagonal entry is the leading k x k minor.
    With reduced=True the rows above each pivot are cleared as well, so the
    first len(pivots) rows end as D times the reduced row echelon form.
    """
    m = len(rows)
    pivots, prev, swaps = [], 1, 0
    for c in range(len(rows[0]) if m else 0):
        r = len(pivots)
        if r == m:
            break
        if not rows[r][c]:
            p = next((i for i in range(r + 1, m) if rows[i][c]), None)
            if p is None:
                continue
            rows[r], rows[p] = rows[p], rows[r]
            swaps += 1
        top = rows[r]
        pk = top[c]
        for i in range(0 if reduced else r + 1, m):
            f = rows[i][c]
            if i == r:
                continue
            if f:
                rows[i] = [(x * pk - f * y) // prev for x, y in zip(rows[i], top)]
            else:
                rows[i] = [x * pk // prev for x in rows[i]]
        pivots.append(c)
        prev = pk
    return pivots, prev, swaps


def _int_rows(a):
    """The integer matrix a as a list of lists of ints; a Fraction raises TypeError."""
    return [[index(x) for x in row] for row in a]


def rank(a):
    """Rank of an integer matrix, by a forward fraction-free pass."""
    return len(_echelon(_int_rows(a))[0])


def nullspace(a):
    """Basis of {x : a x = 0} over Q for an integer matrix a (m x n).

    One primitive integer vector per free column f, positive at f and zero
    at the other free columns: the rref kernel basis, each vector scaled.
    """
    rows = _int_rows(a)
    n = len(rows[0])
    pivots, D, _ = _echelon(rows, reduced=True)
    s = 1 if D > 0 else -1
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = s * D
        for row, c in zip(rows, pivots):
            v[c] = -s * row[f]
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def inverse(a):
    """Exact inverse of a square rational matrix a = (N, d) as a pair (A, D):
    a^-1 = A / D with D > 0 least.  Raises ValueError if a is singular."""
    N, d = a
    n = len(N)
    rows = [row + [int(j == i) for j in range(n)] for i, row in enumerate(_int_rows(N))]
    pivots, D, _ = _echelon(rows, reduced=True)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    # rows = [D I | D N^-1], and a^-1 = d N^-1
    A = [row[n:] for row in rows]
    g = gcd(D, *(x for row in A for x in row))
    if D < 0:
        g = -g
    e = gcd(d, D // g)
    return tuple(tuple(x // g * (d // e) for x in row) for row in A), D // g // e


def clear_denominators(a):
    """The pair (N, d) of rows a of ints, Fractions or strings like '3/4': a = N / d.

    d is the lcm of the entry denominators, so N is the smallest integer
    multiple of a.  A float raises TypeError; a ragged a, ValueError.
    """
    rows = [[x if type(x) is int or type(x) is Fraction else frac(x) for x in row]
            for row in a]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("ragged matrix")
    d = lcm(1, *(x.denominator for row in rows for x in row if type(x) is not int))
    if d == 1:
        return tuple(tuple(map(int, row)) for row in rows), 1
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows), d


def int_matmul(a, b):
    """Product of two integer matrices as a tuple of row tuples, in Python ints.

    Row i of the product is the combination of the rows of b weighted by
    row i of a, taken over the nonzero entries of both: one product per
    pair of nonzero entries a_ik, b_kj, so a sparse factor (a signed
    permutation, a diagonal Gram, a sparse basis) costs only its entries.
    """
    sparse_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    n = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * n
        for k, x in enumerate(row):
            if x:
                for j, y in sparse_rows[k]:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def det(a):
    """Exact determinant of a rational matrix a = (N, d), a Fraction, from one
    fraction-free pass over N."""
    N, d = a
    pivots, D, swaps = _echelon(_int_rows(N))
    return Fraction((-1) ** swaps * D if len(pivots) == len(N) else 0, d ** len(N))


@lru_cache(maxsize=None)
def _laplace_plans(n, p):
    """plans[k][j] = ((c, t, odd), ...) over the k-subsets J of range(n) holding j,
    for k = 1..p: c is the position of J among the k-subsets, t that of J
    minus j among the (k-1)-subsets, and odd whether j has an odd place in J."""
    plans = [None]
    position = {(): 0}
    for k in range(1, p + 1):
        subsets = list(combinations(range(n), k))
        by_column = [[] for _ in range(n)]
        for c, J in enumerate(subsets):
            for t, j in enumerate(J):
                by_column[j].append((c, position[J[:t] + J[t + 1:]], t % 2))
        plans.append(tuple(map(tuple, by_column)))
        position = {J: c for c, J in enumerate(subsets)}
    return tuple(plans)


def int_compound(b, p, rows=None):
    """Minors det b[I, J] of an integer matrix, in Python ints.

    Returns one row tuple per increasing row p-subset I (all of them, or the
    0-based tuples in `rows`), holding the minors over the increasing
    column p-subsets J in lexicographic order.  Each k-minor is the Laplace
    expansion along its first row into (k-1)-minors of the remaining rows,
    taken over the nonzero entries of that row only (one for a signed
    permutation); the (k-1)-minors are shared between all I with the same
    tail, and the expansion plans are built once per (columns, p).
    """
    b = _int_rows(b)
    m = len(b)
    n = len(b[0]) if m else 0
    if not 0 <= p <= min(m, n):
        raise ValueError(f"no {p}x{p} minors in a {m}x{n} matrix")
    plans = _laplace_plans(n, p)
    sizes = [comb(n, k) for k in range(p + 1)]
    known = {(): [1]}

    def minors(I):
        out = known.get(I)
        if out is None:
            tail = minors(I[1:])
            out = [0] * sizes[len(I)]
            plan = plans[len(I)]
            for j, x in enumerate(b[I[0]]):
                if x:
                    for c, t, odd in plan[j]:
                        y = tail[t]
                        if y:
                            out[c] += -x * y if odd else x * y
            known[I] = out
        return out

    return tuple(tuple(minors(tuple(I)))
                 for I in (combinations(range(m), p) if rows is None else rows))


def integer_kernel(a):
    """Z-basis of the lattice {x in Z^n : a x = 0} for integer a (m x n).

    Hermite-style reduction of the transpose with a unimodular companion:
    rows of the companion matching zero rows of the echelon form are a
    basis of the kernel lattice (not merely of the rational kernel).
    """
    mat = [[int(x) for x in row] for row in a]
    m = len(mat)
    n = len(mat[0]) if m else 0
    # work rows: [row of a^T | row of I_n]
    work = [[mat[i][j] for i in range(m)] + [1 if k == j else 0 for k in range(n)]
            for j in range(n)]
    r = 0
    for c in range(m):
        while True:
            live = [i for i in range(r, n) if work[i][c] != 0]
            if not live:
                break
            pivot = min(live, key=lambda i: abs(work[i][c]))
            work[r], work[pivot] = work[pivot], work[r]
            done = True
            for i in range(r + 1, n):
                if work[i][c] != 0:
                    q = work[i][c] // work[r][c]
                    if q:
                        work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                    if work[i][c] != 0:
                        done = False
            if done:
                break
        if any(work[i][c] != 0 for i in range(r, n)):
            r += 1
    # oriented deterministically: first nonzero entry positive
    return [canonical_sign(row[m:]) for row in work[r:] if all(x == 0 for x in row[:m])]


def canonical_sign(v):
    """The integer vector v or -v, whichever has its first nonzero entry positive."""
    v = tuple(int(x) for x in v)
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return v


def primitive_integer(vec):
    """Divide an integer vector by the gcd of its entries, as a tuple of ints.

    The sign is kept: the result is vec times a positive rational.
    """
    (ints,) = _int_rows([vec])
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def positive_definite(gram):
    """(U, [1, D_1, .., D_r]) for gram = (N, d): U the rows of one fraction-free
    pass over N and D_k the leading minors of N.  The pass swaps no row exactly
    when no D_k is 0, and then leaves them on its diagonal.  Raises ValueError
    unless gram is symmetric positive definite (d > 0 and every D_k > 0,
    Sylvester's criterion)."""
    N, d = gram
    U = _int_rows(N)
    r = len(U)
    if any(U[i][j] != U[j][i] for i in range(r) for j in range(i)):
        raise ValueError("gram matrix is not symmetric")
    pivots, _, swaps = _echelon(U)
    if d <= 0 or swaps or len(pivots) < r or any(U[k][k] <= 0 for k in range(r)):
        raise ValueError("gram matrix is not positive definite")
    return U, [1] + [U[k][k] for k in range(r)]


def rational_sqrt(q):
    """Exact square root of a nonnegative Fraction, or None."""
    q = frac(q)
    if q < 0:
        return None
    a, b = q.numerator, q.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


def enumerate_ellipsoid(gram, bound, shift=None):
    """The lattice shells {Q: points} of Q(x + shift) <= bound, ascending in Q.

    `gram` is a positive-definite rational matrix, the pair (G, d), `bound`
    a rational and `shift` a rational vector (defaults to 0); each Q is the
    exact Fraction value (x + shift)^T gram (x + shift) and each shell's
    integer points are sorted.  Everything runs in Python ints: with
    gram = G / d and shift = W / e, Q = y^T G y / (d e^2) for y = e x + W.
    The fraction-free rows U_k of G (`positive_definite`, whose pass swaps
    no rows since every leading minor D_k is positive) give
    y^T G y = sum_k (U_k . y)^2 / (D_k D_{k+1}), so each coordinate in turn
    is bounded by an `isqrt` of an integer budget (Fincke-Pohst pruning,
    exact).  The budget left at a leaf gives Q exactly.  Raises ValueError
    unless gram is symmetric positive definite.
    """
    U, D = positive_definite(gram)
    d, r = gram[1], len(U)
    (W,), e = clear_denominators([shift if shift is not None else [0] * r])
    bound = frac(bound)
    if bound < 0:
        return {}
    scale = d * e * e
    top = bound.numerator * scale // bound.denominator   # y^T G y <= top
    x, y, found = [0] * r, [0] * r, {}

    def descend(k, budget):
        # budget = D[k + 1] * (top - the terms of the coordinates above k)
        Uk, step = U[k], D[k + 1] * e
        s = D[k + 1] * W[k] + sum(Uk[j] * y[j] for j in range(k + 1, r))
        room = D[k] * budget
        m = isqrt(room)
        for xk in range(-((m + s) // step), (m - s) // step + 1):
            t = step * xk + s
            left = (room - t * t) // D[k + 1]
            x[k], y[k] = xk, e * xk + W[k]
            if k:
                descend(k - 1, left)
            else:
                found.setdefault(top - left, []).append(tuple(x))

    descend(r - 1, top * D[r])
    return {Fraction(n, scale): sorted(found[n]) for n in sorted(found)}
