"""Exterior algebra on (R^7)*: metrics are exact; forms keep both backends.

Forms are stored densely: a grade-p form is a vector of C(7,p) coefficients
indexed by the lexicographically ordered strictly increasing multi-indices
with entries in 1..7.  The exact backend uses Fraction coefficients in a
numpy object array; the floating backend uses complex128, for values that
really are floating (random Fourier coefficients).  All operations are
pure; forms are never mutated after construction.

Frames, Gram matrices and pullback matrices are exact only: a float frame
or Gram matrix raises TypeError.  A metric converts its Gram matrices to
float once, for the floating form backend.

Sign conventions are pinned by a single rule: the Hodge star satisfies
a ^ star(b) = <a, b>_g vol_g with vol_g = sqrt(det g) * theta^{1...7}.
"""

from fractions import Fraction
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
def interior_table(p):
    """Entries (axis, pos_in, pos_out, sign) with axis in 1..7:
    e_axis interior-product theta^I = sign * theta^(I minus axis)."""
    entries = []
    for pos_in, idx in enumerate(INDICES[p]):
        for r, axis in enumerate(idx):
            reduced = idx[:r] + idx[r + 1:]
            entries.append((axis, pos_in, POSITION[p - 1][reduced], -1 if r % 2 else 1))
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


def _is_exact_dtype(arr):
    return arr.dtype == object


def _coerce_coeffs(coeffs, exact):
    arr = np.asarray(coeffs)
    if exact is None:
        exact = arr.dtype == object or arr.dtype.kind in "iu"
    if exact:
        out = np.empty(arr.shape[0], dtype=object)
        for k, x in enumerate(arr):
            out[k] = x if isinstance(x, Fraction) else linalg.frac(x)
        return out
    return arr.astype(complex)


class ExteriorForm:
    """A constant-coefficient alternating form on R^7."""

    __slots__ = ("grade", "coeffs")

    def __init__(self, grade, coeffs, exact=None):
        if not 0 <= grade <= DIM:
            raise ValueError(f"grade must lie in 0..{DIM}, got {grade}")
        arr = _coerce_coeffs(coeffs, exact)
        if arr.shape != (comb(DIM, grade),):
            raise ValueError(
                f"grade-{grade} form needs {comb(DIM, grade)} coefficients, got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, *_):
        raise AttributeError("ExteriorForm is immutable")

    @property
    def is_exact(self):
        return _is_exact_dtype(self.coeffs)

    @classmethod
    def zero(cls, grade, exact=True):
        n = comb(DIM, grade)
        return cls(grade, [0] * n) if exact else cls(grade, np.zeros(n, dtype=complex))

    @classmethod
    def from_terms(cls, grade, terms, exact=True):
        """Build from {multi-index tuple: coefficient}."""
        n = comb(DIM, grade)
        coeffs = [0] * n
        for idx, val in terms.items():
            idx = tuple(idx)
            if idx not in POSITION[grade]:
                raise ValueError(f"{idx} is not a strictly increasing multi-index of grade {grade}")
            coeffs[POSITION[grade][idx]] = val
        if exact:
            return cls(grade, coeffs)
        return cls(grade, np.array(coeffs, dtype=complex))

    def coefficient(self, idx):
        return self.coeffs[POSITION[self.grade][tuple(idx)]]

    def to_float(self):
        if not self.is_exact:
            return self
        return ExteriorForm(self.grade, np.array([complex(x) for x in self.coeffs]))

    def _binary_compat(self, other):
        if self.grade != other.grade:
            raise ValueError(f"grade mismatch: {self.grade} vs {other.grade}")
        if self.is_exact != other.is_exact:
            return self.to_float(), other.to_float()
        return self, other

    def __add__(self, other):
        a, b = self._binary_compat(other)
        return ExteriorForm(a.grade, a.coeffs + b.coeffs)

    def __sub__(self, other):
        a, b = self._binary_compat(other)
        return ExteriorForm(a.grade, a.coeffs - b.coeffs)

    def __neg__(self):
        return ExteriorForm(self.grade, -self.coeffs)

    def scale(self, c):
        if self.is_exact and isinstance(c, (int, Fraction)):
            return ExteriorForm(self.grade, self.coeffs * linalg.frac(c))
        return ExteriorForm(self.grade, self.to_float().coeffs * complex(c))

    __mul__ = scale
    __rmul__ = scale

    def is_zero(self, tol=0.0):
        if self.is_exact:
            return all(x == 0 for x in self.coeffs)
        return bool(np.max(np.abs(self.coeffs), initial=0.0) <= tol)

    def __eq__(self, other):
        if not isinstance(other, ExteriorForm) or self.grade != other.grade:
            return NotImplemented
        a, b = self._binary_compat(other)
        return bool(np.all(a.coeffs == b.coeffs))

    def allclose(self, other, tol=1e-9):
        a, b = self._binary_compat(other)
        diff = a.coeffs - b.coeffs
        if a.is_exact:
            return all(x == 0 for x in diff)
        return bool(np.max(np.abs(diff), initial=0.0) <= tol)

    def __repr__(self):
        terms = []
        for k, idx in enumerate(INDICES[self.grade]):
            c = self.coeffs[k]
            if (c == 0) if self.is_exact else (abs(c) < 1e-14):
                continue
            label = "theta^" + "".join(map(str, idx)) if idx else "1"
            terms.append(f"{c}*{label}")
        body = " + ".join(terms) if terms else "0"
        return f"ExteriorForm(grade={self.grade}, {body})"


def wedge(a, b):
    """Exterior product; rejects results of grade > 7."""
    if a.grade + b.grade > DIM:
        raise ValueError(f"wedge of grades {a.grade} and {b.grade} exceeds {DIM}")
    a, b = _same_backend(a, b)
    out = _accumulator(a, b, a.grade + b.grade)
    for i, j, k, sign in wedge_table(a.grade, b.grade):
        out[k] += sign * a.coeffs[i] * b.coeffs[j]
    return ExteriorForm(a.grade + b.grade, out)


def _same_backend(a, b):
    if a.is_exact != b.is_exact:
        return a.to_float(), b.to_float()
    return a, b


def _accumulator(a, b, grade):
    n = comb(DIM, grade)
    if a.is_exact and b.is_exact:
        return [Fraction(0)] * n
    return np.zeros(n, dtype=complex)


def interior(v, a):
    """Interior product v ⌟ a of a vector v (7 components) with a form."""
    if a.grade == 0:
        raise ValueError("interior product needs grade >= 1")
    exact = a.is_exact and _is_rational(v)
    if not exact:
        a = a.to_float()
        v = [complex(x) for x in v]
    else:
        v = [linalg.frac(x) for x in v]
    out = [Fraction(0)] * comb(DIM, a.grade - 1) if exact else np.zeros(comb(DIM, a.grade - 1), dtype=complex)
    for axis, pos_in, pos_out, sign in interior_table(a.grade):
        c = v[axis - 1]
        if c != 0:
            out[pos_out] += sign * c * a.coeffs[pos_in]
    return ExteriorForm(a.grade - 1, out)


class Metric7:
    """Flat metric on R^7: exact Gram matrix plus its volume factor sqrt(det).

    Float views (gram_float, lambda_gram_float) are converted once and serve
    the floating form backend.
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
        """g(v, v) for a tangent vector v: exact for integer or rational v."""
        if _is_rational(v):
            vv = linalg.frac_vector(v)
            return vv @ self.gram @ vv
        vv = np.array([float(x) for x in v])
        return float(vv @ self.gram_float @ vv)

    def flat(self, v):
        """Musical isomorphism: the covector g(v, .) as a 1-form."""
        if _is_rational(v):
            return ExteriorForm(1, list(self.gram @ linalg.frac_vector(v)))
        return ExteriorForm(1, np.array(self.gram_float @ np.array([complex(x) for x in v]),
                                        dtype=complex))


def read_only(arr):
    """Mark a cached array read-only and return it."""
    arr.flags.writeable = False
    return arr


def _is_rational(v):
    return all(isinstance(x, (int, Fraction, np.integer)) for x in v)


def inner(a, b, metric):
    """<a, b>_g: exact for exact forms, conjugate-linear in b on the floating backend."""
    a, b = _same_backend(a, b)
    if a.grade != b.grade:
        raise ValueError("inner product needs equal grades")
    if a.is_exact:
        return a.coeffs @ metric.lambda_gram(a.grade) @ b.coeffs
    return complex(a.coeffs @ metric.lambda_gram_float(a.grade) @ np.conj(b.coeffs))


def hodge_star(a, metric):
    """Hodge star fixed by a ^ star(b) = <a,b>_g vol_g."""
    p = a.grade
    if a.is_exact:
        weighted = (metric.lambda_gram(p) @ a.coeffs) * metric.vol
        out = [Fraction(0)] * comb(DIM, DIM - p)
    else:
        weighted = (metric.lambda_gram_float(p) @ a.coeffs) * float(metric.vol)
        out = np.zeros(comb(DIM, DIM - p), dtype=complex)
    for pos_in, pos_out, sign in hodge_table(p):
        out[pos_out] = sign * weighted[pos_in]
    return ExteriorForm(DIM - p, out)


def orthonormal_forms(grade, vectors, metric):
    """Floating orthonormal forms spanning the exact coefficient vectors.

    Gram-Schmidt runs in exact arithmetic w.r.t. the metric; only the final
    unit normalisation is floating.
    """
    ortho, norms = linalg.gram_schmidt([list(v) for v in vectors], metric.lambda_gram(grade))
    return [ExteriorForm(grade,
                         (np.array([float(x) for x in v]) / np.sqrt(float(n2))).astype(complex))
            for v, n2 in zip(ortho, norms)]


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
    return ExteriorForm(a.grade, list(pullback_matrix(frame, a.grade) @ a.coeffs))


def pullback_matrix(frame, p):
    """Matrix of F* on grade-p coefficient vectors.

    Entry (J, I) is det F[I, J], so the matrix is the transpose of the p-th
    compound of F, taken from linalg.compound.
    """
    return linalg.compound(frame, p).T
