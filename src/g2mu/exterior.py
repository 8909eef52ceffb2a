"""Exact exterior algebra on (R^7)*: forms, metrics, star and pullback.

Forms are stored densely: a grade-p form is a tuple of C(7,p) Fraction
coefficients, indexed by the lexicographically ordered strictly increasing
multi-indices with entries in 1..7.  Forms and metrics are immutable
named tuples; a float coefficient raises TypeError.  A metric's inverse,
Lambda-Grams and star matrices are cached per Gram pair, and pullback
matrices per frame pair and grade, as the integer tables are; a frame's
entries are read through operator.index before its cache is looked up.
Floating values (random Fourier coefficients) live in `fourier`, which
acts on them through matrices built from the integer tables here: the
sparse tables of `e^a ^ .` and `e_a -| .`, and the matrix of `. ^ c` for
a constant form c.

Every rational matrix is an integer pair (N, d) meaning N / d, as in
`linalg`: frames, Gram matrices and their inverses, Lambda-Grams, star,
pullback and wedge matrices.  The star on grade p, `Metric7.star_matrix`,
is vol times the rows of the Lambda-Gram, signed and permuted as the
Euclidean star (`hodge_table`).  Each operation on forms applies its
matrix: `hodge_star` the star matrix, `wedge` a `wedge_matrix`, `pullback`
a `pullback_matrix` and `inner` a Lambda-Gram, through one helper that
clears the form's coefficients once, multiplies in Python ints over its
nonzero entries only, and builds Fractions only for the coefficients it
returns.

Sign conventions are pinned by a single rule: the Hodge star satisfies
a ^ star(b) = <a, b>_g vol_g with vol_g = sqrt(det g) * theta^{1...7}.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import index, mul

from . import linalg

DIM = 7

INDICES = {p: tuple(combinations(range(1, DIM + 1), p)) for p in range(DIM + 1)}
POSITION = {p: {idx: k for k, idx in enumerate(INDICES[p])} for p in range(DIM + 1)}


def _merge_sign(left, right):
    """Sign of sorting the concatenation of two disjoint sorted tuples."""
    inversions = sum(1 for i in left for j in right if i > j)
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def wedge_table(p, q):
    """Sparse structure constants for Lambda^p x Lambda^q -> Lambda^(p+q).

    Entries (i, j, k, sign): basis form i of grade p wedged with basis form
    j of grade q equals sign times basis form k of grade p+q.
    """
    entries = []
    for i, left in enumerate(INDICES[p]):
        lset = set(left)
        for j, right in enumerate(INDICES[q]):
            if lset & set(right):
                continue
            merged = tuple(sorted(left + right))
            entries.append((i, j, POSITION[p + q][merged], _merge_sign(left, right)))
    return tuple(entries)


@lru_cache(maxsize=None)
def hodge_table(p):
    """Entries (pos_in, pos_out, sign) for the Euclidean star on grade p."""
    entries = []
    full = set(range(1, DIM + 1))
    for pos_in, idx in enumerate(INDICES[p]):
        complement = tuple(sorted(full - set(idx)))
        entries.append((pos_in, POSITION[DIM - p][complement], _merge_sign(idx, complement)))
    return tuple(entries)


@lru_cache(maxsize=None)
def interior_table(p):
    """Entries (axis, pos_in, pos_out, sign): e_(axis+1) -| basis form pos_in
    of grade p equals sign times basis form pos_out of grade p-1."""
    entries = []
    for pos_in, idx in enumerate(INDICES[p]):
        for r, axis in enumerate(idx):
            entries.append((axis - 1, pos_in, POSITION[p - 1][idx[:r] + idx[r + 1:]],
                            -1 if r % 2 else 1))
    return tuple(entries)


def wedge_matrix(form, p):
    """Matrix of v -> v ^ form on grade-p coefficient vectors, as a pair (N, d)."""
    c, d = _cleared(form)
    out = [[0] * comb(DIM, p) for _ in range(comb(DIM, p + form.grade))]
    for i, j, k, sign in wedge_table(p, form.grade):
        if c[j]:
            out[k][i] += sign * c[j]
    return tuple(map(tuple, out)), d


def _cleared(form):
    """(c, d): the coefficients of form as integers c, with form = c / d."""
    (c,), d = linalg.clear_denominators([form.coeffs])
    return c, d


def _apply(matrix, a, grade):
    """The grade-`grade` form matrix * a, for a matrix pair (N, d): a's
    coefficients cleared once, each row summed over a's nonzero entries."""
    N, d = matrix
    c, e = _cleared(a)
    nonzero = [(i, x) for i, x in enumerate(c) if x]
    return ExteriorForm(grade, [Fraction(sum(row[i] * x for i, x in nonzero), d * e)
                                for row in N])


class ExteriorForm(namedtuple("ExteriorForm", "grade coeffs")):
    """A constant-coefficient alternating form on R^7 with exact coefficients."""
    __slots__ = ()

    def __new__(cls, grade, coeffs):
        if not 0 <= grade <= DIM:
            raise ValueError(f"grade must lie in 0..{DIM}, got {grade}")
        coeffs = linalg.frac_vector(coeffs)
        if len(coeffs) != comb(DIM, grade):
            raise ValueError(
                f"grade-{grade} form needs {comb(DIM, grade)} coefficients, got {len(coeffs)}")
        return super().__new__(cls, grade, coeffs)

    @classmethod
    def from_terms(cls, grade, terms):
        """Build from {multi-index tuple: coefficient}."""
        coeffs = [0] * comb(DIM, grade)
        for idx, val in terms.items():
            idx = tuple(idx)
            if idx not in POSITION[grade]:
                raise ValueError(f"{idx} is not a strictly increasing multi-index of grade {grade}")
            coeffs[POSITION[grade][idx]] = val
        return cls(grade, coeffs)

    def coefficient(self, idx):
        return self.coeffs[POSITION[self.grade][tuple(idx)]]

    def _check_grade(self, other):
        if self.grade != other.grade:
            raise ValueError(f"grade mismatch: {self.grade} vs {other.grade}")

    def __add__(self, other):
        self._check_grade(other)
        return ExteriorForm(self.grade, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check_grade(other)
        return ExteriorForm(self.grade, [x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return ExteriorForm(self.grade, [-x for x in self.coeffs])

    def scale(self, c):
        c = linalg.frac(c)
        return ExteriorForm(self.grade, [x * c for x in self.coeffs])

    __mul__ = scale
    __rmul__ = scale

    def is_zero(self):
        return not any(self.coeffs)

    def __repr__(self):
        terms = [f"{c}*" + ("theta^" + "".join(map(str, idx)) if idx else "1")
                 for c, idx in zip(self.coeffs, INDICES[self.grade]) if c]
        return f"ExteriorForm(grade={self.grade}, {' + '.join(terms) or '0'})"


def wedge(a, b):
    """Exterior product; rejects results of grade > 7."""
    if a.grade + b.grade > DIM:
        raise ValueError(f"wedge of grades {a.grade} and {b.grade} exceeds {DIM}")
    return _apply(wedge_matrix(b, a.grade), a, a.grade + b.grade)


def interior(v, a):
    """Interior product v -| a of a rational vector v (7 components) with a form."""
    if a.grade == 0:
        raise ValueError("interior product needs grade >= 1")
    (w,), d = linalg.clear_denominators([v])
    c, e = _cleared(a)
    out = [0] * comb(DIM, a.grade - 1)
    for axis, pos_in, pos_out, sign in interior_table(a.grade):
        if w[axis] and c[pos_in]:
            out[pos_out] += sign * w[axis] * c[pos_in]
    return ExteriorForm(a.grade - 1, [Fraction(x, d * e) for x in out])


# the 7x7 identity matrix as a pair
IDENTITY = (tuple(tuple(int(i == j) for j in range(DIM)) for i in range(DIM)), 1)


class Metric7(namedtuple("Metric7", "gram vol")):
    """Flat metric on R^7: its Gram matrix, a pair (N, d), plus the volume
    factor sqrt(det); its inverse, Lambda-Grams and star matrices are pairs
    as well, cached per Gram pair."""
    __slots__ = ()

    def __new__(cls, gram):
        N, d = gram
        if len(N) != DIM or any(len(row) != DIM for row in N):
            raise ValueError("metric needs a 7x7 Gram matrix")
        # symmetry, positive definiteness and det from one elimination
        _, minors = linalg.positive_definite(gram)
        vol = linalg.rational_sqrt(Fraction(minors[DIM], d ** DIM))
        if vol is None:
            raise ValueError("det(gram) is not a rational square")
        return super().__new__(cls, (tuple(map(tuple, N)), d), vol)

    @classmethod
    def euclidean(cls):
        return cls(IDENTITY)

    def inverse_gram(self):
        """The inverse Gram matrix as a pair (A, D): g^-1 = A / D."""
        return _inverse_gram(self.gram)

    def lambda_gram(self, p):
        """Gram matrix of <theta^I, theta^J>_g on grade p, as a pair (N, d): entry
        (I, J) is the minor det(g^-1)[I, J], from the exact minor kernel."""
        return _lambda_gram(self.gram, p)

    def star_matrix(self, p):
        """The Hodge star on grade-p coefficient vectors as a pair (N, d): the rows
        of vol * lambda_gram(p), signed and permuted as the Euclidean star."""
        return _star_matrix(self, p)


@lru_cache(maxsize=None)
def _inverse_gram(gram):
    return linalg.inverse(gram)


@lru_cache(maxsize=None)
def _lambda_gram(gram, p):
    A, D = _inverse_gram(gram)
    return linalg.int_compound(A, p), D ** p


@lru_cache(maxsize=None)
def _star_matrix(metric, p):
    (weighted, d), vol = metric.lambda_gram(p), metric.vol
    out = [None] * comb(DIM, p)
    for pos_in, pos_out, sign in hodge_table(p):
        s = sign * vol.numerator
        out[pos_out] = tuple([s * x for x in weighted[pos_in]])
    return tuple(out), d * vol.denominator


def inner(a, b, metric):
    """<a, b>_g of two forms of equal grade, exact."""
    if a.grade != b.grade:
        raise ValueError("inner product needs equal grades")
    return sum(map(mul, a.coeffs, _apply(metric.lambda_gram(b.grade), b, b.grade).coeffs))


def hodge_star(a, metric):
    """Hodge star fixed by a ^ star(b) = <a,b>_g vol_g."""
    return _apply(metric.star_matrix(a.grade), a, DIM - a.grade)


def metric_from_frame(frame):
    """Metric induced by pulling the Euclidean metric back along F = (B, d).

    Convention (F*w)(u_1,..,u_p) = w(F u_1,..,F u_p), so the Gram matrix is
    F^T F = (B^T B, d^2) and the volume factor is det F (must be positive).
    """
    B, d = frame
    if len(B) != DIM or any(len(row) != DIM for row in B):
        raise ValueError("frame must be 7x7")
    if linalg.det(frame) <= 0:
        raise ValueError("frame must be nonsingular and orientation preserving (det > 0)")
    return Metric7((linalg.int_matmul(linalg.transpose(B), B), d * d))


def pullback(frame, a):
    """Pullback F*a with (F*a)_J = sum_I det(F[I, J]) a_I, for a frame F = (B, d)."""
    return _apply(pullback_matrix(frame, a.grade), a, a.grade)


def pullback_matrix(frame, p):
    """Matrix of F* on grade-p coefficient vectors, as a pair (N, d).

    Entry (J, I) is det F[I, J], so with F = (B, d) the matrix is the
    transpose of the p-th compound of B (linalg.int_compound) over d^p.
    Cached per frame pair and grade, keyed on the entries read through
    operator.index: a float frame raises TypeError before any lookup, and
    cannot hit the entry of the integer frame that it equals.
    """
    B, d = frame
    return _pullback_matrix(tuple(tuple(map(index, row)) for row in B), index(d), index(p))


@lru_cache(maxsize=None)
def _pullback_matrix(B, d, p):
    return linalg.transpose(linalg.int_compound(B, p)), d ** p
