"""Exact exterior algebra on (R^7)*: forms, metrics, star and pullback.

Forms are stored densely: a grade-p form is a vector of C(7,p) Fraction
coefficients, indexed by the lexicographically ordered strictly increasing
multi-indices with entries in 1..7.  Forms are exact only and never
mutated after construction; a float coefficient raises TypeError.
Floating values (random Fourier coefficients) live in `fourier`, which
acts on them through matrices built from the integer tables here: the
stacks of `e^a ^ .` and `e_a -| .`, and the matrix of `. ^ c` for a
constant form c.

Frames, Gram matrices and pullback matrices are exact as well.  A metric
converts its Gram matrices to float once, for the floating Fourier forms.

Sign conventions are pinned by a single rule: the Hodge star satisfies
a ^ star(b) = <a, b>_g vol_g with vol_g = sqrt(det g) * theta^{1...7}.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

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
def covector_wedge_stack(p):
    """E with E[a] the integer matrix of v -> e^(a+1) ^ v on grade-p vectors."""
    E = np.zeros((DIM, comb(DIM, p + 1), comb(DIM, p)), dtype=np.int64)
    for i, j, k, sign in wedge_table(1, p):
        E[i, k, j] = sign
    return read_only(E)


@lru_cache(maxsize=None)
def interior_stack(p):
    """I with I[a] the integer matrix of v -> e_(a+1) -| v on grade-p vectors."""
    I = np.zeros((DIM, comb(DIM, p - 1), comb(DIM, p)), dtype=np.int64)
    for pos_in, idx in enumerate(INDICES[p]):
        for r, axis in enumerate(idx):
            pos_out = POSITION[p - 1][idx[:r] + idx[r + 1:]]
            I[axis - 1, pos_out, pos_in] = -1 if r % 2 else 1
    return read_only(I)


def wedge_matrix(form, p):
    """Exact matrix of v -> v ^ form on grade-p coefficient vectors."""
    q = form.grade
    out = np.zeros((comb(DIM, p + q), comb(DIM, p)), dtype=object)
    for i, j, k, sign in wedge_table(p, q):
        if form.coeffs[j]:
            out[k, i] += sign * form.coeffs[j]
    return out


class ExteriorForm:
    """A constant-coefficient alternating form on R^7 with exact coefficients."""

    __slots__ = ("grade", "coeffs")

    def __init__(self, grade, coeffs):
        if not 0 <= grade <= DIM:
            raise ValueError(f"grade must lie in 0..{DIM}, got {grade}")
        arr = linalg.frac_vector(coeffs)
        if arr.shape != (comb(DIM, grade),):
            raise ValueError(
                f"grade-{grade} form needs {comb(DIM, grade)} coefficients, got {arr.shape}")
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "coeffs", read_only(arr))

    def __setattr__(self, *_):
        raise AttributeError("ExteriorForm is immutable")

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
        return ExteriorForm(self.grade, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_grade(other)
        return ExteriorForm(self.grade, self.coeffs - other.coeffs)

    def __neg__(self):
        return ExteriorForm(self.grade, -self.coeffs)

    def scale(self, c):
        return ExteriorForm(self.grade, self.coeffs * linalg.frac(c))

    __mul__ = scale
    __rmul__ = scale

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, ExteriorForm) or self.grade != other.grade:
            return NotImplemented
        return bool(np.all(self.coeffs == other.coeffs))

    def __repr__(self):
        terms = [f"{c}*" + ("theta^" + "".join(map(str, idx)) if idx else "1")
                 for c, idx in zip(self.coeffs, INDICES[self.grade]) if c]
        return f"ExteriorForm(grade={self.grade}, {' + '.join(terms) or '0'})"


def wedge(a, b):
    """Exterior product; rejects results of grade > 7."""
    if a.grade + b.grade > DIM:
        raise ValueError(f"wedge of grades {a.grade} and {b.grade} exceeds {DIM}")
    return ExteriorForm(a.grade + b.grade, wedge_matrix(b, a.grade) @ a.coeffs)


def interior(v, a):
    """Interior product v -| a of a rational vector v (7 components) with a form."""
    if a.grade == 0:
        raise ValueError("interior product needs grade >= 1")
    contraction = np.tensordot(linalg.frac_vector(v), interior_stack(a.grade), axes=1)
    return ExteriorForm(a.grade - 1, contraction @ a.coeffs)


class Metric7:
    """Flat metric on R^7: exact Gram matrix plus its volume factor sqrt(det).

    Float views (gram_float, lambda_gram_float) are converted once and serve
    the floating Fourier forms.
    """

    __slots__ = ("gram", "gram_float", "vol", "_inverse", "_lambda_gram",
                 "_lambda_gram_float")

    def __init__(self, gram, vol=None):
        gram = linalg.frac_matrix(gram)
        if gram.shape != (DIM, DIM):
            raise ValueError("metric needs a 7x7 Gram matrix")
        if any(gram[i, j] != gram[j, i] for i in range(DIM) for j in range(i)):
            raise ValueError("Gram matrix must be symmetric")
        if not linalg.principal_minors_positive(gram):
            raise ValueError("Gram matrix must be positive definite")
        if vol is None:
            vol = linalg.rational_sqrt(linalg.det(gram))
            if vol is None:
                raise ValueError("det(gram) is not a rational square; pass vol explicitly")
        else:
            vol = linalg.frac(vol)
            if vol * vol != linalg.det(gram) or vol <= 0:
                raise ValueError("vol must equal sqrt(det gram)")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "gram_float", read_only(linalg.to_float(gram)))
        object.__setattr__(self, "vol", vol)
        object.__setattr__(self, "_inverse", None)
        object.__setattr__(self, "_lambda_gram", {})
        object.__setattr__(self, "_lambda_gram_float", {})

    def __setattr__(self, *_):
        raise AttributeError("Metric7 is immutable")

    @classmethod
    def euclidean(cls):
        return cls(linalg.identity_frac(DIM), vol=1)

    def inverse_gram(self):
        if self._inverse is None:
            object.__setattr__(self, "_inverse", linalg.scaled(*linalg.inverse(self.gram)))
        return self._inverse

    def lambda_gram(self, p):
        """Gram matrix of <theta^I, theta^J>_g on grade p.

        Entry (I, J) is the minor det(g^-1)[I, J], so the matrix is the p-th
        compound of the inverse metric, from the exact minor kernel.
        """
        if p not in self._lambda_gram:
            self._lambda_gram[p] = read_only(linalg.compound(self.inverse_gram(), p))
        return self._lambda_gram[p]

    def lambda_gram_float(self, p):
        """Float view of lambda_gram(p), converted once."""
        if p not in self._lambda_gram_float:
            self._lambda_gram_float[p] = read_only(linalg.to_float(self.lambda_gram(p)))
        return self._lambda_gram_float[p]

    def norm_sq_vector(self, v):
        """g(v, v) for a rational tangent vector v, exact."""
        vv = linalg.frac_vector(v)
        return vv @ self.gram @ vv

    def flat(self, v):
        """Musical isomorphism: the covector g(v, .) as a 1-form."""
        return ExteriorForm(1, self.gram @ linalg.frac_vector(v))


def read_only(arr):
    """Mark a cached array read-only and return it."""
    arr.flags.writeable = False
    return arr


def inner(a, b, metric):
    """<a, b>_g of two forms of equal grade, exact."""
    if a.grade != b.grade:
        raise ValueError("inner product needs equal grades")
    return a.coeffs @ metric.lambda_gram(a.grade) @ b.coeffs


def hodge_star(a, metric):
    """Hodge star fixed by a ^ star(b) = <a,b>_g vol_g."""
    p = a.grade
    weighted = (metric.lambda_gram(p) @ a.coeffs) * metric.vol
    out = [0] * comb(DIM, DIM - p)
    for pos_in, pos_out, sign in hodge_table(p):
        out[pos_out] = sign * weighted[pos_in]
    return ExteriorForm(DIM - p, out)


def metric_from_frame(frame):
    """Metric induced by pulling the Euclidean metric back along F.

    Convention (F*w)(u_1,..,u_p) = w(F u_1,..,F u_p), so the Gram matrix is
    F^T F and the volume factor is det F (must be positive).
    """
    F = linalg.frac_matrix(frame)
    if F.shape != (DIM, DIM):
        raise ValueError("frame must be 7x7")
    d = linalg.det(F)
    if d == 0:
        raise ValueError("frame is singular")
    if d < 0:
        raise ValueError("frame must be orientation preserving (det > 0)")
    return Metric7(F.T @ F, vol=d)


def pullback(frame, a):
    """Pullback F*a with (F*a)_J = sum_I det(F[I, J]) a_I (minor expansion)."""
    if a.grade == 0:
        return a
    return ExteriorForm(a.grade, pullback_matrix(frame, a.grade) @ a.coeffs)


def pullback_matrix(frame, p):
    """Matrix of F* on grade-p coefficient vectors.

    Entry (J, I) is det F[I, J], so the matrix is the transpose of the p-th
    compound of F, taken from linalg.compound.
    """
    return linalg.compound(frame, p).T