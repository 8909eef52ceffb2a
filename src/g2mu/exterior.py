"""Exterior algebra on (R^7)* with exact-rational and complex-float backends.

Forms are stored densely: a grade-p form is a vector of C(7,p) coefficients
indexed by the lexicographically ordered strictly increasing multi-indices
with entries in 1..7.  The exact backend uses Fraction coefficients in a
numpy object array; the floating backend uses complex128.  All operations
are pure; forms are never mutated after construction.

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
    exact = a.is_exact and all(isinstance(x, (int, Fraction, np.integer)) for x in v)
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
    """Flat metric on R^7: Gram matrix plus its volume factor sqrt(det)."""

    __slots__ = ("gram", "vol", "_inverse", "_lambda_gram")

    def __init__(self, gram, vol=None):
        exact = True
        try:
            gram = linalg.frac_matrix(gram)
        except TypeError:
            gram = np.array(gram, dtype=float)
            exact = False
        if gram.shape != (DIM, DIM):
            raise ValueError("metric needs a 7x7 Gram matrix")
        if exact:
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
        else:
            if not np.allclose(gram, gram.T):
                raise ValueError("Gram matrix must be symmetric")
            if np.min(np.linalg.eigvalsh(gram)) <= 0:
                raise ValueError("Gram matrix must be positive definite")
            if vol is None:
                vol = float(np.sqrt(np.linalg.det(gram)))
            else:
                vol = float(vol)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "vol", vol)
        object.__setattr__(self, "_inverse", None)
        object.__setattr__(self, "_lambda_gram", {})

    def __setattr__(self, *_):
        raise AttributeError("Metric7 is immutable")

    @property
    def is_exact(self):
        return self.gram.dtype == object

    @classmethod
    def euclidean(cls, exact=True):
        if exact:
            return cls(linalg.identity_frac(DIM), vol=1)
        return cls(np.eye(DIM), vol=1.0)

    def inverse_gram(self):
        if self._inverse is None:
            inv = linalg.inverse(self.gram) if self.is_exact else np.linalg.inv(self.gram)
            object.__setattr__(self, "_inverse", inv)
        return self._inverse

    def lambda_gram(self, p):
        """Gram matrix of <theta^I, theta^J>_g on grade p.

        Entry (I, J) is the minor det(g^-1)[I, J], so the matrix is the p-th
        compound of the inverse metric (exact minors for exact metrics).
        """
        if p not in self._lambda_gram:
            if self.is_exact:
                out = linalg.compound(self.inverse_gram(), p)
            elif p == 0:
                out = np.ones((1, 1))
            else:
                ginv = self.inverse_gram()
                idx = INDICES[p]
                n = len(idx)
                out = np.zeros((n, n))
                for i, I in enumerate(idx):
                    for j, J in enumerate(idx):
                        sub = [[ginv[a - 1, b - 1] for b in J] for a in I]
                        out[i, j] = float(np.linalg.det(np.array(sub)))
            out.flags.writeable = False
            self._lambda_gram[p] = out
        return self._lambda_gram[p]

    def norm_sq_vector(self, v):
        """g(v, v) for a tangent vector v."""
        if self.is_exact and all(isinstance(x, (int, Fraction, np.integer)) for x in v):
            vv = linalg.frac_vector([linalg.frac(x) for x in v])
            return vv @ self.gram @ vv
        vv = np.array([float(x) for x in v])
        return float(vv @ (self.gram if not self.is_exact else linalg.to_float(self.gram)) @ vv)

    def flat(self, v):
        """Musical isomorphism: the covector g(v, .) as a 1-form."""
        if self.is_exact and all(isinstance(x, (int, Fraction, np.integer)) for x in v):
            vv = linalg.frac_vector([linalg.frac(x) for x in v])
            return ExteriorForm(1, list(self.gram @ vv))
        gf = self.gram if not self.is_exact else linalg.to_float(self.gram)
        return ExteriorForm(1, np.array(gf @ np.array([complex(x) for x in v]), dtype=complex))


def inner(a, b, metric):
    """<a, b>_g, conjugate-linear in b on the floating backend."""
    a, b = _same_backend(a, b)
    if a.grade != b.grade:
        raise ValueError("inner product needs equal grades")
    gp = metric.lambda_gram(a.grade)
    if a.is_exact and metric.is_exact:
        return a.coeffs @ gp @ b.coeffs
    gp = gp if not metric.is_exact else linalg.to_float(gp)
    return complex(a.to_float().coeffs @ gp @ np.conj(b.to_float().coeffs))


def hodge_star(a, metric):
    """Hodge star fixed by a ^ star(b) = <a,b>_g vol_g."""
    p = a.grade
    exact = a.is_exact and metric.is_exact
    if not exact:
        a = a.to_float()
    gp = metric.lambda_gram(p)
    if exact:
        weighted = (gp @ a.coeffs) * metric.vol
        out = [Fraction(0)] * comb(DIM, DIM - p)
    else:
        gpf = gp if not metric.is_exact else linalg.to_float(gp)
        weighted = (gpf @ a.coeffs) * float(metric.vol)
        out = np.zeros(comb(DIM, DIM - p), dtype=complex)
    for pos_in, pos_out, sign in hodge_table(p):
        out[pos_out] = sign * weighted[pos_in]
    return ExteriorForm(DIM - p, out)


def metric_from_frame(frame):
    """Metric induced by pulling the Euclidean metric back along F.

    Convention (F*w)(u_1,..,u_p) = w(F u_1,..,F u_p), so the Gram matrix is
    F^T F and the volume factor is det F (must be positive).
    """
    try:
        F = linalg.frac_matrix(frame)
        exact = True
    except TypeError:
        F = np.array(frame, dtype=float)
        exact = False
    if F.shape != (DIM, DIM):
        raise ValueError("frame must be 7x7")
    d = linalg.det(F) if exact else float(np.linalg.det(F))
    if d == 0:
        raise ValueError("frame is singular")
    if d < 0:
        raise ValueError("frame must be orientation preserving (det > 0)")
    return Metric7(F.T @ F, vol=d)


def pullback(frame, a):
    """Pullback F*a with (F*a)_J = sum_I det(F[I, J]) a_I (minor expansion)."""
    try:
        F = linalg.frac_matrix(frame)
        exact = a.is_exact
    except TypeError:
        F = np.array(frame, dtype=float)
        exact = False
    p = a.grade
    if p == 0:
        return a if exact else a.to_float()
    if not exact:
        a = a.to_float()
    mat = pullback_matrix(frame, p, exact=exact)
    if exact:
        return ExteriorForm(p, list(mat @ a.coeffs))
    return ExteriorForm(p, np.array(mat @ a.coeffs, dtype=complex))


def pullback_matrix(frame, p, exact=True):
    """Matrix of F* on grade-p coefficient vectors.

    Entry (J, I) is det F[I, J], so the matrix is the transpose of the p-th
    compound of F; the exact branch takes it from linalg.compound.
    """
    if exact:
        return linalg.compound(frame, p).T
    F = np.array(frame, dtype=float)
    idx = INDICES[p]
    n = len(idx)
    out = np.zeros((n, n))
    for j, J in enumerate(idx):
        for i, I in enumerate(idx):
            sub = [[F[a - 1, b - 1] for b in J] for a in I]
            out[j, i] = float(np.linalg.det(np.array(sub)))
    return out
