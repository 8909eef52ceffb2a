"""The standard G2 package on R^7: model 3-form, type projections, I/J maps.

The model 3-form is

    phi0 = theta^123 + theta^145 + theta^167 + theta^246
           - theta^257 - theta^347 - theta^356,

whose stabiliser in GL+(7,R) is the exceptional group G2.  Under G2 the
exterior powers split into irreducible pieces

    Lambda^2 = Lambda^2_7 + Lambda^2_14,
    Lambda^3 = Lambda^3_1 + Lambda^3_7 + Lambda^3_27,

with the grade-4/5 splittings obtained by Hodge duality.  Projections are
assembled from the defining descriptions of the pieces (spans of
contractions, kernels of wedge maps), which keeps every projector an exact
rational matrix whenever the frame is rational.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from . import linalg
from .exterior import (DIM, INDICES, ExteriorForm, Metric7, hodge_star, interior,
                       metric_from_frame, pullback, pullback_matrix, wedge)

PHI0_TERMS = {
    (1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1, (2, 4, 6): 1,
    (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1,
}

VALID_COMPONENTS = {2: (7, 14), 3: (1, 7, 27), 4: (1, 7, 27), 5: (7, 14)}


def standard_phi0(exact=True):
    """The model G2 3-form with unit coefficients."""
    return ExteriorForm.from_terms(3, PHI0_TERMS, exact=exact)


class TypeLabel:
    """A G2-irreducible component of Lambda^2 or Lambda^3 (4/5 by duality)."""

    __slots__ = ("grade", "component")

    def __init__(self, grade, component):
        if grade not in (2, 3):
            raise ValueError("TypeLabel grade must be 2 or 3")
        if component not in VALID_COMPONENTS[grade]:
            raise ValueError(f"grade {grade} has no component of dimension {component}")
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "component", component)

    def __setattr__(self, *_):
        raise AttributeError("TypeLabel is immutable")

    def __eq__(self, other):
        return isinstance(other, TypeLabel) and (self.grade, self.component) == \
            (other.grade, other.component)

    def __hash__(self):
        return hash((self.grade, self.component))

    def __repr__(self):
        return f"TypeLabel(grade={self.grade}, component={self.component})"


def _span_projector(basis_columns, gram):
    """Orthogonal projector onto span(B) w.r.t. gram: B (B^T G B)^-1 B^T G."""
    B = np.stack(basis_columns, axis=1)
    BtG = B.T @ gram
    inv = linalg.inverse(BtG @ B)
    return B @ inv @ BtG


def _primitive_integer(vec):
    """Scale a rational vector to a primitive integer vector."""
    denom = lcm(*(linalg.frac(x).denominator for x in vec)) if len(vec) else 1
    ints = [int(linalg.frac(x) * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    g = g or 1
    out = np.array([x // g for x in ints], dtype=object)
    return out


@lru_cache(maxsize=None)
def _base_data():
    """Exact type-space bases and projectors for the standard structure."""
    g = Metric7.euclidean()
    phi = standard_phi0()
    psi = hodge_star(phi, g)
    basis = {}

    e = [[1 if j == i else 0 for j in range(DIM)] for i in range(DIM)]
    basis[(2, 7)] = [np.array(interior(v, phi).coeffs) for v in e]
    basis[(3, 1)] = [np.array(phi.coeffs)]
    basis[(3, 7)] = [np.array(interior(v, psi).coeffs) for v in e]

    # Lambda^2_14 = ker(alpha -> alpha ^ psi), Lambda^3_27 = ker(a -> (a^phi, a^psi))
    wedge_psi = np.stack(
        [np.array(wedge(ExteriorForm.from_terms(2, {idx: 1}), psi).coeffs)
         for idx in INDICES[2]], axis=1)
    basis[(2, 14)] = linalg.nullspace(wedge_psi)

    rows = []
    for idx in INDICES[3]:
        b = ExteriorForm.from_terms(3, {idx: 1})
        rows.append(np.concatenate([np.array(wedge(b, phi).coeffs),
                                    np.array(wedge(b, psi).coeffs)]))
    basis[(3, 27)] = linalg.nullspace(np.stack(rows, axis=1))

    gram2 = g.lambda_gram(2)
    gram3 = g.lambda_gram(3)
    projectors = {}
    bases = {}
    for (grade, comp), cols in basis.items():
        gram = gram2 if grade == 2 else gram3
        P = _span_projector(cols, gram)
        P.flags.writeable = False
        projectors[(grade, comp)] = P
        bases[(grade, comp)] = tuple(_primitive_integer(v) for v in cols)
    return projectors, bases


def _base_projectors():
    return _base_data()[0]


def _star_matrix(metric, p, exact):
    from math import comb
    n = comb(DIM, p)
    cols = []
    for k in range(n):
        coeffs = [0] * n
        coeffs[k] = 1
        form = ExteriorForm(p, coeffs) if exact else ExteriorForm(p, np.array(coeffs, dtype=complex))
        cols.append(np.array(hodge_star(form, metric).coeffs))
    out = np.stack(cols, axis=1)
    if not exact:
        out = out.astype(complex)
    return out


class G2Structure:
    """A flat G2-structure F*phi0 with its 4-form, metric and projectors."""

    __slots__ = ("frame", "phi", "psi", "metric", "_proj_cache", "_star_cache",
                 "_pullback_cache", "_fiber_cache", "is_exact", "_phi_int")

    def __init__(self, frame=None):
        if frame is None:
            frame = linalg.identity_frac(DIM)
        try:
            frame = linalg.frac_matrix(frame)
            exact = True
        except TypeError:
            frame = np.array(frame, dtype=float)
            exact = False
        metric = metric_from_frame(frame)
        phi = pullback(frame, standard_phi0(exact=exact))
        psi = hodge_star(phi, metric)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "is_exact", exact)
        object.__setattr__(self, "_proj_cache", {})
        object.__setattr__(self, "_star_cache", {})
        object.__setattr__(self, "_pullback_cache", {})
        object.__setattr__(self, "_fiber_cache", {})
        object.__setattr__(self, "_phi_int", _integer_terms(phi) if exact else None)
        # phi ^ psi = 7 vol is the structural sanity check of the pair
        sanity = wedge(self.phi, self.psi)
        vol7 = 7 * (metric.vol if exact else float(metric.vol))
        if exact:
            if sanity.coeffs[0] != vol7:
                raise ValueError("phi ^ star(phi) != 7 vol; inconsistent construction")
        elif abs(sanity.coeffs[0] - vol7) > 1e-9 * abs(vol7):
            raise ValueError("phi ^ star(phi) != 7 vol; inconsistent construction")

    def __setattr__(self, *_):
        raise AttributeError("G2Structure is immutable")

    @classmethod
    def standard(cls):
        return cls(None)

    _shared_instances = {}

    @classmethod
    def for_frame(cls, frame=None):
        """Shared instance per frame so fibre caches are reused across runs."""
        if frame is None:
            key = "identity"
        else:
            try:
                key = tuple(tuple(linalg.frac(x) for x in row) for row in frame)
            except TypeError:
                key = tuple(tuple(float(x) for x in row) for row in frame)
        if key not in cls._shared_instances:
            cls._shared_instances[key] = cls(frame)
        return cls._shared_instances[key]

    def type_space_basis(self, grade, component):
        """Exact basis vectors (coefficient arrays) of a typed subspace."""
        if component not in VALID_COMPONENTS.get(grade, ()):
            raise ValueError(f"no component {component} in grade {grade}")
        if grade not in (2, 3):
            raise ValueError("exact bases are kept for grades 2 and 3 only")
        key = ("type_basis", grade, component)
        cache = self._fiber_cache
        if key not in cache:
            base = _base_data()[1][(grade, component)]
            if self.is_exact and linalg.is_identity(self.frame):
                cols = base
            elif self.is_exact:
                M = self.frame_pullback_matrix(grade)
                cols = tuple(_primitive_integer(M @ v) for v in base)
            else:
                M = self.frame_pullback_matrix(grade)
                cols = tuple(M @ np.array([float(x) for x in v]) for v in base)
            cache[key] = cols
        return cache[key]

    # -- matrices ---------------------------------------------------------

    def star_matrix(self, p):
        if p not in self._star_cache:
            mat = _star_matrix(self.metric, p, self.is_exact)
            self._star_cache[p] = mat
        return self._star_cache[p]

    def frame_pullback_matrix(self, p, inverse=False):
        key = (p, inverse)
        if key not in self._pullback_cache:
            F = self.frame
            if inverse:
                F = linalg.inverse(F) if self.is_exact else np.linalg.inv(F)
            self._pullback_cache[key] = pullback_matrix(F, p, exact=self.is_exact)
        return self._pullback_cache[key]

    def projector(self, grade, component):
        """Matrix of the orthogonal projection onto Lambda^grade_component."""
        if component not in VALID_COMPONENTS.get(grade, ()):
            raise ValueError(f"no component {component} in grade {grade}")
        key = (grade, component)
        if key not in self._proj_cache:
            if grade in (2, 3):
                base = _base_projectors()[key]
                if self.is_exact:
                    if linalg.is_identity(self.frame):
                        P = base
                    else:
                        M = self.frame_pullback_matrix(grade)
                        Minv = self.frame_pullback_matrix(grade, inverse=True)
                        P = M @ base @ Minv
                else:
                    M = self.frame_pullback_matrix(grade)
                    P = M @ linalg.to_float(base) @ np.linalg.inv(M)
            else:
                # grades 4, 5 via star conjugation: pi_q = star o pi_q o star
                dual = self.projector(DIM - grade, component)
                s_to3 = self.star_matrix(grade)        # Lambda^grade -> Lambda^(7-grade)
                s_back = self.star_matrix(DIM - grade)  # and back
                P = s_back @ dual @ s_to3
                # star o star = id in odd dimension, so no sign correction
            if isinstance(P, np.ndarray):
                P.flags.writeable = False
            self._proj_cache[key] = P
        return self._proj_cache[key]

    # -- operations ---------------------------------------------------------

    def project(self, label, a):
        """Orthogonal projection of a onto the labelled component.

        Accepts forms of the label's grade or its Hodge-dual grade 7-grade.
        """
        if a.grade == label.grade:
            P = self.projector(label.grade, label.component)
        elif a.grade == DIM - label.grade:
            P = self.projector(a.grade, label.component)
        else:
            raise ValueError(
                f"form of grade {a.grade} does not match label grade {label.grade}")
        return _apply_matrix(P, a)

    def type_basis(self, label):
        """Orthonormal basis of the component, from its defining description.

        Spans and kernels are computed exactly when the frame is rational;
        the returned forms are floating-point after unit normalisation.
        """
        grade, comp = label.grade, label.component
        phi, psi = self.phi, self.psi
        e = [[1 if j == i else 0 for j in range(DIM)] for i in range(DIM)]
        if (grade, comp) == (2, 7):
            raw = [np.array(interior(v, phi).coeffs) for v in e]
        elif (grade, comp) == (3, 1):
            raw = [np.array(phi.coeffs)]
        elif (grade, comp) == (3, 7):
            raw = [np.array(interior(v, psi).coeffs) for v in e]
        elif (grade, comp) == (2, 14):
            cols = [np.array(wedge(ExteriorForm.from_terms(2, {idx: 1}, exact=self.is_exact),
                                   psi).coeffs) for idx in INDICES[2]]
            raw = _nullspace_cols(cols, self.is_exact)
        elif (grade, comp) == (3, 27):
            cols = []
            for idx in INDICES[3]:
                b = ExteriorForm.from_terms(3, {idx: 1}, exact=self.is_exact)
                cols.append(np.concatenate([np.array(wedge(b, phi).coeffs),
                                            np.array(wedge(b, psi).coeffs)]))
            raw = _nullspace_cols(cols, self.is_exact)
        else:
            raise ValueError(f"unsupported label {label}")
        gram = self.metric.lambda_gram(grade)
        if self.is_exact:
            ortho, norms = linalg.gram_schmidt([list(v) for v in raw], gram)
            out = []
            for v, n2 in zip(ortho, norms):
                vf = np.array([float(x) for x in v]) / np.sqrt(float(n2))
                out.append(ExteriorForm(grade, vf.astype(complex)))
            return out
        gramf = gram
        vecs = [np.array([complex(x) for x in v]) for v in raw]
        out = []
        ortho = []
        for v in vecs:
            w = v.astype(complex)
            for u in ortho:
                w = w - (w @ gramf @ np.conj(u)) * u
            w = w / np.sqrt(abs(w @ gramf @ np.conj(w)))
            ortho.append(w)
            out.append(ExteriorForm(grade, w))
        return out

    def apply_I(self, a):
        """(4/3) pi_1 + pi_7 - pi_27 on 3-forms (Hessian symbol of the 3-form functional)."""
        if a.grade != 3:
            raise ValueError("apply_I needs a 3-form")
        return self._combo(a, 3, {1: Fraction(4, 3), 7: Fraction(1), 27: Fraction(-1)})

    def apply_J(self, a):
        """(3/4) pi_1 + pi_7 - pi_27 on 4-forms (Hessian symbol of the 4-form functional)."""
        if a.grade != 4:
            raise ValueError("apply_J needs a 4-form")
        return self._combo(a, 4, {1: Fraction(3, 4), 7: Fraction(1), 27: Fraction(-1)})

    def _combo(self, a, grade, weights):
        out = None
        for comp, w in weights.items():
            piece = _apply_matrix(self.projector(grade, comp), a).scale(w)
            out = piece if out is None else out + piece
        return out

    def is_g2_element(self, A, tol=1e-9):
        """Whether A preserves this structure's 3-form: A*(F*phi0) = F*phi0.

        For an exact structure this is an exact test in integers: with
        phi = c / s for an integer vector c and A = B / d for an integer
        matrix B, it checks sum_I det B[I, J] c_I = d^3 c_J for every J,
        where I runs over the nonzero terms of phi only.  A must then be
        rational.  Float frames compare the pullback within tol.
        """
        if not self.is_exact:
            return pullback(A, self.phi).allclose(self.phi, tol=tol)
        B, d = linalg.clear_denominators(A)
        if len(B) != DIM or any(len(row) != DIM for row in B):
            raise ValueError("A must be 7x7")
        rows, coeffs, target = self._phi_int
        minors = linalg.int_compound(B, 3, rows)
        d3 = d ** 3
        return all(sum(c * m[J] for c, m in zip(coeffs, minors)) == d3 * t
                   for J, t in enumerate(target))


def _integer_terms(phi):
    """The smallest integer multiple c of the exact 3-form phi, as
    (0-based index triples I with c_I != 0, those c_I, all 35 entries of c)."""
    scale = lcm(*(x.denominator for x in phi.coeffs))
    c = [int(x * scale) for x in phi.coeffs]
    terms = [(tuple(a - 1 for a in I), x) for I, x in zip(INDICES[3], c) if x]
    return tuple(I for I, _ in terms), tuple(x for _, x in terms), tuple(c)


def _nullspace_cols(cols, exact):
    mat = np.stack(cols, axis=1)
    if exact:
        return linalg.nullspace(mat)
    # floating nullspace via SVD
    u, s, vh = np.linalg.svd(np.array(mat, dtype=complex))
    tol = max(mat.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
    null = vh[np.sum(s > tol):].conj()
    return [row for row in null]


def _apply_matrix(P, a):
    if a.is_exact and P.dtype == object:
        return ExteriorForm(a.grade, list(P @ a.coeffs))
    Pf = P if P.dtype != object else linalg.to_float(P)
    return ExteriorForm(a.grade, np.array(Pf @ a.to_float().coeffs, dtype=complex))
