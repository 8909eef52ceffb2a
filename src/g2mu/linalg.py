"""Exact linear algebra over the rationals and integers.

Everything here is dense and small (dimensions <= ~50).  Row reduction
(rref, nullspace, inverse) runs in Fraction arithmetic.  Determinants,
minors and matrix products clear denominators once and then stay in Python
ints: determinants by fraction-free (Bareiss) elimination, compound
matrices by Laplace expansion of each minor into minors one size smaller,
products by integer matmul with one division at the end.  Integer matrices
also get a Hermite-style kernel routine so that lattice computations never
leave Z.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import index

import numpy as np


def frac(x):
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    raise TypeError(f"cannot convert {x!r} to an exact rational")


def frac_matrix(rows):
    """Rectangular matrix of Fractions as a numpy object array."""
    data = [[frac(x) for x in row] for row in rows]
    ncols = {len(r) for r in data}
    if len(ncols) != 1:
        raise ValueError("ragged matrix")
    out = np.empty((len(data), ncols.pop()), dtype=object)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def frac_vector(entries):
    out = np.empty(len(entries), dtype=object)
    for i, x in enumerate(entries):
        out[i] = frac(x)
    return out


def identity_frac(n):
    out = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def zeros_frac(m, n):
    return np.full((m, n), Fraction(0), dtype=object)


def to_float(a):
    return np.array([[float(x) for x in row] for row in a], dtype=float) \
        if getattr(a, "ndim", 1) == 2 else np.array([float(x) for x in a], dtype=float)


def is_identity(m):
    """Whether the square array m is the identity matrix."""
    n = m.shape[0]
    return all(m[i, j] == (1 if i == j else 0) for i in range(n) for j in range(n))


def rref(a):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    rows = [[frac(x) for x in row] for row in a]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return frac_matrix(rows) if m else zeros_frac(0, n), pivots


def rank(a):
    return len(rref(a)[1])


def nullspace(a):
    """Basis (columns not normalised) of {x : a x = 0} over Q.

    Returns a list of Fraction vectors of length ncols(a).
    """
    a = frac_matrix(a) if not isinstance(a, np.ndarray) or a.dtype != object else a
    m, n = a.shape
    if m == 0:
        return [frac_vector([1 if j == i else 0 for j in range(n)]) for i in range(n)]
    red, pivots = rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, fc]
        basis.append(frac_vector(v))
    return basis


def inverse(a):
    """Exact inverse of a square Fraction matrix."""
    a = frac_matrix(a) if not isinstance(a, np.ndarray) or a.dtype != object else a
    n = a.shape[0]
    aug = np.concatenate([a, identity_frac(n)], axis=1)
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return red[:, n:]


def clear_denominators(a):
    """(b, d) with b an integer matrix (lists of ints) and a = b / d.

    d is the lcm of the entry denominators, so b is the smallest integer
    multiple of a.
    """
    rows = [[x if type(x) in (int, Fraction) else frac(x) for x in row] for row in a]
    d = lcm(1, *(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def scaled(b, d):
    """The exact matrix b / d of an integer matrix b, as Fractions."""
    return np.array([[Fraction(x, d) for x in row] for row in b], dtype=object)


def matmul(*factors):
    """Exact product of rational matrices, in Python ints.

    Each factor is cleared of denominators once (a = b / d), the integer
    matrices are multiplied, and each entry is divided by the product of
    the d's at the end.  A float entry raises TypeError.
    """
    out, scale = None, 1
    for a in factors:
        b, d = clear_denominators(a)
        b = np.array(b, dtype=object)
        out = b if out is None else out @ b
        scale *= d
    return scaled(out, scale)


def _bareiss(rows):
    """Determinant of a square integer matrix; eliminates in place."""
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        pk = top[k]
        for row in rows[k + 1:]:
            f = row[k]
            # exact division: Bareiss' theorem
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - f * top[j]) // prev
        prev = pk
    return sign * rows[n - 1][n - 1] if n else 1


def det(a):
    """Exact determinant: clear denominators, then integer Bareiss."""
    b, d = clear_denominators(a)
    return Fraction(_bareiss(b), d ** len(b))


def int_det(a):
    """Determinant of an integer matrix, in Python ints throughout.

    Raises ValueError if an entry is not an integer.
    """
    b, d = clear_denominators(a)
    if d != 1:
        raise ValueError("matrix is not integral")
    return _bareiss(b)


def int_compound(b, p, rows=None):
    """Minors det b[I, J] of an integer matrix, in Python ints.

    Returns one list per increasing row p-subset I (all of them, or the
    0-based tuples in `rows`), holding the minors over the increasing
    column p-subsets J in lexicographic order.  Each k-minor is the Laplace
    expansion along its first row into (k-1)-minors of the remaining rows;
    those are shared between all I with the same tail and skipped where the
    expanding entry is 0.
    """
    b = [[index(x) for x in row] for row in b]
    m = len(b)
    n = len(b[0]) if m else 0
    if not 0 <= p <= min(m, n):
        raise ValueError(f"no {p}x{p} minors in a {m}x{n} matrix")
    # plans[k][c] = (j, position of J minus j among (k-1)-subsets, odd) for J = k-subset c
    plans = [None]
    position = {(): 0}
    for k in range(1, p + 1):
        subsets = list(combinations(range(n), k))
        plans.append([[(j, position[J[:t] + J[t + 1:]], t % 2) for t, j in enumerate(J)]
                      for J in subsets])
        position = {J: c for c, J in enumerate(subsets)}
    known = {(): [1]}

    def minors(I):
        out = known.get(I)
        if out is None:
            tail = minors(I[1:])
            first = b[I[0]]
            out = []
            for plan in plans[len(I)]:
                s = 0
                for j, c, odd in plan:
                    x = first[j]
                    if x:
                        y = tail[c]
                        if y:
                            s = s - x * y if odd else s + x * y
                out.append(s)
            known[I] = out
        return out

    return [minors(tuple(I)) for I in (combinations(range(m), p) if rows is None else rows)]


def compound(a, p):
    """The p-th compound matrix C[I, J] = det a[I, J], exact.

    I and J run over the increasing p-subsets of rows and columns in
    lexicographic order.  Denominators are cleared once (a = b / d), the
    minors of b are taken in ints, and each is divided by d^p at the end.
    """
    b, d = clear_denominators(a)
    return scaled(int_compound(b, p), d ** p)


def int_rank(a):
    """Rank of an integer matrix, fraction-free elimination in Z."""
    rows = [[int(x) for x in row] for row in a]
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    prev = 1
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                rows[i][j] = (rows[i][j] * rows[r][c] - rows[i][c] * rows[r][j]) // prev
            rows[i][c] = 0
        prev = rows[r][c]
        r += 1
        if r == m:
            break
    return r


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
    basis = [tuple(row[m:]) for row in work[r:] if all(x == 0 for x in row[:m])]
    # orient deterministically: first nonzero entry positive
    out = []
    for v in basis:
        lead = next((x for x in v if x != 0), 1)
        out.append(tuple(-x for x in v) if lead < 0 else v)
    return out


def primitive_integer(vec):
    """Scale a rational vector to a primitive integer vector (object array).

    The sign is kept: the result is vec times a positive rational.
    """
    (ints,), _ = clear_denominators([vec])
    g = gcd(*ints) or 1
    return np.array([x // g for x in ints], dtype=object)


def gram_schmidt(vectors, gram):
    """Orthogonalise Fraction vectors w.r.t. the bilinear form `gram`.

    Returns (orthogonal vectors, their squared norms); no normalisation,
    so everything stays rational.
    """
    ortho = []
    norms = []
    for v in vectors:
        w = np.array(v, dtype=object)
        for u, nu in zip(ortho, norms):
            coeff = (w @ gram @ u) / nu
            w = w - coeff * u
        nw = w @ gram @ w
        if nw == 0:
            raise ValueError("vectors are linearly dependent")
        ortho.append(w)
        norms.append(nw)
    return ortho, norms


def principal_minors_positive(g):
    g = frac_matrix(g) if not isinstance(g, np.ndarray) or g.dtype != object else g
    n = g.shape[0]
    return all(det(g[:k, :k]) > 0 for k in range(1, n + 1))


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
    """All integer vectors x with Q(x + shift) <= bound, Q given by `gram`.

    `gram` is an exact positive-definite Fraction matrix, `bound` a
    Fraction, `shift` a rational vector (defaults to 0).  Enumeration uses
    a floating Cholesky factor for pruning with a safety margin; every
    candidate is confirmed with exact arithmetic before being returned.
    Includes x = -shift if it is integral and bound >= 0.
    """
    gram = frac_matrix(gram) if not isinstance(gram, np.ndarray) or gram.dtype != object else gram
    r = gram.shape[0]
    bound = frac(bound)
    if bound < 0:
        return []
    w = [frac(x) for x in (shift if shift is not None else [0] * r)]
    gf = to_float(gram)
    try:
        chol = np.linalg.cholesky(gf)
    except np.linalg.LinAlgError as exc:
        raise ValueError("gram matrix is not positive definite") from exc
    R = chol.T  # Q(v) = ||R v||^2
    wf = np.array([float(x) for x in w])
    slack = float(bound) * 1e-9 + 1e-12
    budget0 = float(bound) + slack
    results = []

    def exact_q(x):
        v = frac_vector([xi + wi for xi, wi in zip(x, w)])
        return v @ gram @ v

    def descend(i, x, partial):
        # partial[j] = sum_{k>i} R[j,k] (x_k + w_k) for j <= i
        s = partial[i]
        rad = np.sqrt(max(budget_left[i], 0.0))
        lo = (-rad - s) / R[i, i] - wf[i]
        hi = (rad - s) / R[i, i] - wf[i]
        for xi in range(int(np.ceil(lo - 1e-9)), int(np.floor(hi + 1e-9)) + 1):
            term = R[i, i] * (xi + wf[i]) + s
            used = term * term
            if used > budget_left[i] + slack:
                continue
            x[i] = xi
            if i == 0:
                if exact_q(x) <= bound:
                    results.append(tuple(x))
            else:
                budget_left[i - 1] = budget_left[i] - used
                new_partial = partial.copy()
                for j in range(i):
                    new_partial[j] += R[j, i] * (xi + wf[i])
                descend(i - 1, x, new_partial)
        x[i] = 0

    budget_left = [0.0] * r
    budget_left[r - 1] = budget0
    descend(r - 1, [0] * r, [0.0] * r)
    return sorted(results)
