"""Trigonometric-polynomial forms on T^7 and the refined derivative calculus.

A FourierForm is a finite sum  (2 pi i)^k * sum_l chi_l * a_l  where
chi_l(x) = exp(2 pi i g(l, x)), l runs over Z^7 and each a_l is a constant
exterior form.  The power of (2 pi i) is tracked separately from the
coefficients: every first-order operator below multiplies by exactly one
factor of (2 pi i), so identities between compositions of equal order can
be checked exactly on the rational backend and to machine precision on the
floating one.

Mode-level actions (the common factor (2 pi i) is implicit):

    d    : a_l -> lflat ^ a_l             coexterior d : a_l -> -(l . a_l)
    Delta: a_l -> -|l|^2 a_l  (two factors)

The ten refined operators split d and its adjoint along the G2-type
decomposition; the six with first-order formulas are built from the
printed compositions of d, the Hodge star, wedging with phi/psi and type
projections, and the four adjoint-named ones are realised as exact formal
adjoints on each Fourier mode.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import linalg
from .exterior import (DIM, ExteriorForm, hodge_star, inner, interior,
                       interior_table, read_only, wedge, wedge_table)

TWO_PI = 2.0 * np.pi

ZERO_MODE = (0,) * DIM


class PreconditionFailed(ValueError):
    """An operation's mathematical precondition does not hold."""


def _mode_key(l):
    return tuple(int(x) for x in l)


class FourierForm:
    """Finitely supported map Z^7 -> Lambda^p, with a tracked (2 pi i)-power."""

    __slots__ = ("structure", "grade", "scale_pow", "modes")

    def __init__(self, structure, grade, modes, scale_pow=0):
        clean = {}
        for l, coeff in modes.items():
            key = _mode_key(l)
            if coeff.grade != grade:
                raise ValueError("all mode coefficients must share the form's grade")
            if not coeff.is_zero():
                clean[key] = coeff
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "scale_pow", int(scale_pow))
        object.__setattr__(self, "modes", clean)

    def __setattr__(self, *_):
        raise AttributeError("FourierForm is immutable")

    @classmethod
    def constant(cls, structure, form):
        return cls(structure, form.grade, {ZERO_MODE: form})

    @classmethod
    def zero(cls, structure, grade):
        return cls(structure, grade, {})

    def is_zero(self, tol=0.0):
        return all(c.is_zero(tol) for c in self.modes.values())

    @property
    def is_exact(self):
        return all(c.is_exact for c in self.modes.values())

    def to_float(self):
        return FourierForm(self.structure, self.grade,
                           {l: c.to_float() for l, c in self.modes.items()},
                           self.scale_pow)

    def with_pow(self, target):
        """Re-express with a different (2 pi i)-power (floating backend)."""
        if target == self.scale_pow or not self.modes:
            return FourierForm(self.structure, self.grade, self.modes, target)
        z = (TWO_PI * 1j) ** (self.scale_pow - target)
        return FourierForm(self.structure, self.grade,
                           {l: c.to_float().scale(z) for l, c in self.modes.items()}, target)

    def _pair(self, other):
        if self.structure is not other.structure:
            raise ValueError("forms live over different structures")
        if self.grade != other.grade:
            raise ValueError("grade mismatch")
        if self.scale_pow == other.scale_pow or not other.modes:
            return self, FourierForm(other.structure, other.grade, other.modes, self.scale_pow)
        if not self.modes:
            return FourierForm(self.structure, self.grade, {}, other.scale_pow), other
        if self.is_exact and other.is_exact:
            raise ValueError("cannot mix (2 pi i)-powers exactly; convert to float first")
        p = min(self.scale_pow, other.scale_pow)
        return self.with_pow(p), other.with_pow(p)

    def __add__(self, other):
        a, b = self._pair(other)
        modes = dict(a.modes)
        for l, c in b.modes.items():
            modes[l] = modes[l] + c if l in modes else c
        return FourierForm(a.structure, a.grade, modes, a.scale_pow)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return FourierForm(self.structure, self.grade,
                           {l: coeff.scale(c) for l, coeff in self.modes.items()},
                           self.scale_pow)

    __mul__ = scale
    __rmul__ = scale

    def harmonic_part(self):
        modes = {ZERO_MODE: self.modes[ZERO_MODE]} if ZERO_MODE in self.modes else {}
        return FourierForm(self.structure, self.grade, modes, self.scale_pow)

    def nonharmonic_part(self):
        return FourierForm(self.structure, self.grade,
                           {l: c for l, c in self.modes.items() if l != ZERO_MODE},
                           self.scale_pow)

    def map_modes(self, func, grade=None, pow_shift=0):
        """New form with coefficient a_l replaced by func(l, a_l); drops zeros."""
        out = {}
        for l, c in self.modes.items():
            val = func(l, c)
            if val is not None:
                out[l] = val
        return FourierForm(self.structure, self.grade if grade is None else grade,
                           out, self.scale_pow + pow_shift)

    def __repr__(self):
        return (f"FourierForm(grade={self.grade}, modes={len(self.modes)}, "
                f"pow={self.scale_pow})")


# -- L^2 pairing ------------------------------------------------------------

def l2_inner(f1, f2):
    """L^2 inner product (conjugate-linear in the second slot), complex float.

    The characters chi_l are orthonormal, so this is a finite sum of fibre
    inner products; the (2 pi i)-powers are multiplied in.
    """
    if f1.structure is not f2.structure:
        raise ValueError("forms live over different structures")
    g = f1.structure.metric
    z1 = (TWO_PI * 1j) ** f1.scale_pow
    z2 = (TWO_PI * 1j) ** f2.scale_pow
    total = 0j
    for l, c1 in f1.modes.items():
        c2 = f2.modes.get(l)
        if c2 is not None:
            total += complex(inner(c1.to_float(), c2.to_float(), g))
    return z1 * np.conj(z2) * total


def l2_norm(f):
    val = l2_inner(f, f)
    return float(np.sqrt(max(val.real, 0.0)))


def residual(f1, f2):
    """L^2 distance between two forms (value space, powers folded in)."""
    if f1.scale_pow != f2.scale_pow and f1.modes and f2.modes:
        a = f1.to_float()
        b = f2.to_float().with_pow(f1.scale_pow)
    else:
        a, b = f1, f2
    return l2_norm(a - b)


# -- first-order operators ----------------------------------------------------

def exterior_d(f):
    """d(chi_l a) = (2 pi i) chi_l (lflat ^ a); kills constant modes."""
    if f.grade > 6:
        raise ValueError("cannot apply d to a 7-form")
    g = f.structure.metric

    def step(l, c):
        if l == ZERO_MODE:
            return None
        lflat = g.flat(l)
        return wedge(lflat if c.is_exact else lflat.to_float(), c)

    return f.map_modes(step, grade=f.grade + 1, pow_shift=1)


def coexterior_d(f):
    """d*(chi_l a) = -(2 pi i) chi_l (l . a); formal adjoint of d."""
    if f.grade < 1:
        raise ValueError("cannot apply d* to a 0-form")

    def step(l, c):
        if l == ZERO_MODE:
            return None
        return interior(l, c).scale(-1)

    return f.map_modes(step, grade=f.grade - 1, pow_shift=1)


def laplacian(f):
    """Hodge Laplacian: multiplication by 4 pi^2 |l|^2_g on each mode."""
    g = f.structure.metric

    def step(l, c):
        if l == ZERO_MODE:
            return None
        n2 = g.norm_sq_vector(l)
        return c.scale(-n2 if c.is_exact else -float(n2))

    return f.map_modes(step, pow_shift=2)


def green(f):
    """Green's operator: inverts the Laplacian off the constant modes."""
    g = f.structure.metric

    def step(l, c):
        if l == ZERO_MODE:
            return None
        n2 = g.norm_sq_vector(l)
        if c.is_exact:
            return c.scale(Fraction(-1) / n2)
        return c.scale(-1.0 / float(n2))

    return f.map_modes(step, pow_shift=-2)


def wedge_const(f, form, left=False):
    """Mode-wise wedge with a constant form (on the right unless left=True)."""
    def step(_, c):
        a, b = (form, c) if left else (c, form)
        return wedge(a, b)

    return f.map_modes(step, grade=f.grade + form.grade)


def star(f):
    """Mode-wise Hodge star."""
    g = f.structure.metric
    return f.map_modes(lambda _, c: hodge_star(c, g), grade=DIM - f.grade)


def project_type(f, grade, component):
    """Mode-wise orthogonal type projection."""
    structure = f.structure
    return f.map_modes(lambda _, c: structure.apply_projector(grade, component, c))


def apply_I(f):
    return f.map_modes(lambda _, c: f.structure.apply_I(c))


# -- refined operators ---------------------------------------------------------

@dataclass(frozen=True)
class RefinedOp:
    """One of the ten refined derivative operators."""
    name: str
    domain: tuple      # (grade, component or None)
    codomain: tuple
    adjoint_of: str = None


REFINED_OPS = {
    "d1_7": RefinedOp("d1_7", (0, None), (1, None)),
    "d7_7": RefinedOp("d7_7", (1, None), (1, None)),
    "d7_14": RefinedOp("d7_14", (1, None), (2, 14)),
    "d7_27": RefinedOp("d7_27", (1, None), (3, 27)),
    "d14_27": RefinedOp("d14_27", (2, 14), (3, 27)),
    "d27_27": RefinedOp("d27_27", (3, 27), (3, 27)),
    "d7_1": RefinedOp("d7_1", (1, None), (0, None), adjoint_of="d1_7"),
    "d14_7": RefinedOp("d14_7", (2, 14), (1, None), adjoint_of="d7_14"),
    "d27_7": RefinedOp("d27_7", (3, 27), (1, None), adjoint_of="d7_27"),
    "d27_14": RefinedOp("d27_14", (3, 27), (2, 14), adjoint_of="d14_27"),
}


def _wedge_matrix_right(const_form, p, exact):
    """Matrix of v -> v ^ const_form on grade-p coefficient vectors."""
    q = const_form.grade
    n_out = comb(DIM, p + q)
    n_in = comb(DIM, p)
    out = linalg.zeros_frac(n_out, n_in) if exact else np.zeros((n_out, n_in), dtype=complex)
    coeffs = const_form.coeffs if exact else const_form.to_float().coeffs
    for i, j, k, s in wedge_table(p, q):
        if coeffs[j] != 0:
            out[k, i] = out[k, i] + s * coeffs[j]
    return out


def _wedge_matrix_covector(cov, p, exact):
    """Matrix of v -> cov ^ v on grade-p coefficient vectors (cov a 1-form)."""
    n_out = comb(DIM, p + 1)
    n_in = comb(DIM, p)
    out = linalg.zeros_frac(n_out, n_in) if exact else np.zeros((n_out, n_in), dtype=complex)
    coeffs = cov.coeffs if exact else cov.to_float().coeffs
    for i, j, k, s in wedge_table(1, p):
        if coeffs[i] != 0:
            out[k, j] = out[k, j] + s * coeffs[i]
    return out


def _gram_inv_float(structure, p):
    return np.linalg.inv(structure.metric.lambda_gram_float(p))


def _fiber_matrix(structure, name, l, exact):
    """Mode-level matrix of a refined operator (the (2 pi i) is implicit).

    Exact matrices serve the rational backend; the floating variant is
    assembled from the structure's float views so that random-form sweeps
    never touch Fraction arithmetic.  Memoised per (name, mode, backend).
    """
    op = REFINED_OPS[name]
    metric = structure.metric
    if op.adjoint_of is not None:
        primal = REFINED_OPS[op.adjoint_of]
        T = structure.memo(_fiber_matrix, op.adjoint_of, l, exact)
        if exact:
            g_dom = metric.lambda_gram(primal.domain[0])
            g_cod = metric.lambda_gram(primal.codomain[0])
            M = -(linalg.scaled(*linalg.inverse(g_dom)) @ T.T @ g_cod)
        else:
            M = -(structure.memo(_gram_inv_float, primal.domain[0]) @ T.T
                  @ metric.lambda_gram_float(primal.codomain[0]))
    else:
        if exact:
            star = structure.star_matrix
            proj = structure.projector
            psi = structure.psi
            lflat = metric.flat(l)
        else:
            star = structure.star_matrix_float
            proj = structure.projector_float
            psi = structure.psi.to_float()
            lflat = metric.flat(l).to_float()
        eps = lambda p: _wedge_matrix_covector(lflat, p, exact)
        if name == "d1_7":
            M = eps(0)
        elif name == "d7_7":
            # alpha -> star d(alpha ^ psi)
            M = star(6) @ eps(5) @ _wedge_matrix_right(psi, 1, exact)
        elif name == "d7_14":
            M = proj(2, 14) @ eps(1)
        elif name == "d7_27":
            # alpha -> pi_27 d star(alpha ^ psi)
            M = proj(3, 27) @ eps(2) @ star(5) @ _wedge_matrix_right(psi, 1, exact)
        elif name == "d14_27":
            M = proj(3, 27) @ eps(2) @ proj(2, 14)
        elif name == "d27_27":
            # gamma -> star pi_27(d gamma)
            M = star(4) @ proj(4, 27) @ eps(3) @ proj(3, 27)
        else:
            raise ValueError(f"unknown refined operator {name}")
        if not exact:
            M = np.ascontiguousarray(M.real.astype(float)) if M.dtype == complex else M
    return read_only(M)


def refined(name, f, strict=False, tol=1e-9):
    """Apply a refined derivative operator mode-wise.

    Inputs are first projected onto the operator's domain type; with
    strict=True a component outside the domain type raises instead.
    """
    if name not in REFINED_OPS:
        raise ValueError(f"unknown refined operator {name!r}")
    op = REFINED_OPS[name]
    dom_grade, dom_comp = op.domain
    if f.grade != dom_grade:
        raise ValueError(f"{name} needs a grade-{dom_grade} input, got grade {f.grade}")
    if dom_comp is not None:
        projected = project_type(f, dom_grade, dom_comp)
        if strict:
            err = residual(projected, f)
            if err > tol * max(1.0, l2_norm(f.to_float())):
                raise PreconditionFailed(
                    f"input to {name} has a component outside Lambda^{dom_grade}_{dom_comp}")
        f = projected
    cod_grade = op.codomain[0]

    def step(l, c):
        if l == ZERO_MODE:
            return None
        M = f.structure.memo(_fiber_matrix, name, l, c.is_exact)
        if c.is_exact:
            return ExteriorForm(cod_grade, list(M @ c.coeffs))
        return ExteriorForm(cod_grade, np.asarray(M @ c.coeffs, dtype=complex))

    return f.map_modes(step, grade=cod_grade, pow_shift=1)


# -- mode fibre subspaces -------------------------------------------------------

def _contraction_on_type(structure, lc, grade, component):
    """iota_l B for the typed-subspace basis matrix B, an integer matrix."""
    K = structure.memo(_axis_contractions, grade, component)
    return np.tensordot(np.array(lc, dtype=object), K, axes=1)


def _axis_contractions(structure, grade, component):
    """K[a] = iota_{e_a} B, so that iota_l B = sum_a l_a K[a], in Python ints."""
    B = np.stack(structure.type_space_basis(grade, component), axis=1)
    K = np.zeros((DIM, comb(DIM, grade - 1), B.shape[1]), dtype=object)
    for axis, pos_in, pos_out, s in interior_table(grade):
        K[axis - 1, pos_out] += s * B[pos_in]
    return K


def typed_contraction_kernel(structure, l, grade, component):
    """Exact basis of {u in Lambda^grade_component : l . u = 0} at mode l.

    This is the fibre of the eigenspaces H_l (grade 2, component 14,
    dimension 8) and H'_l (grade 3, component 27, dimension 12).  The typed
    subspace is parametrised once by an integer basis matrix B, so only the
    small system (iota_l B) x = 0 is solved per mode; iota_l B is the
    integer combination sum_a l_a iota_{e_a} B of seven per-structure
    matrices.  Basis vectors are scaled to primitive integer vectors.
    Memoised per (l, grade, component) on the structure; l and -l share a
    basis.
    """
    return structure.memo(_kernel_basis, _canonical_sign(_mode_key(l)), grade, component)


def _kernel_basis(structure, lc, grade, component):
    C = _contraction_on_type(structure, lc, grade, component)
    B = np.stack(structure.type_space_basis(grade, component), axis=1)
    # B and the kernel vectors are integral, so B @ x stays in ints
    return tuple(linalg.primitive_integer(B @ x) for x in linalg.nullspace(C))


def typed_contraction_kernel_dim(structure, l, grade, component):
    """Dimension of the fibre, via an exact integer rank."""
    return structure.memo(_kernel_dim, _canonical_sign(_mode_key(l)), grade, component)


def _kernel_dim(structure, lc, grade, component):
    C = _contraction_on_type(structure, lc, grade, component)
    return C.shape[1] - linalg.rank(C)


def _canonical_sign(l):
    for x in l:
        if x != 0:
            return l if x > 0 else tuple(-y for y in l)
    return l


# -- random form generation -----------------------------------------------------

def random_fourier(structure, grade, rng, n_modes=3, linf=3, component=None,
                   include_constant=False):
    """Seeded random FourierForm; coefficients uniform in [-1,1] per re/im part."""
    n = comb(DIM, grade)
    modes = {}
    keys = set()
    while len(keys) < n_modes:
        l = tuple(int(x) for x in rng.integers(-linf, linf + 1, size=DIM))
        if l != ZERO_MODE:
            keys.add(l)
    if include_constant:
        keys.add(ZERO_MODE)
    for l in sorted(keys):
        coeffs = rng.uniform(-1, 1, size=n) + 1j * rng.uniform(-1, 1, size=n)
        modes[l] = ExteriorForm(grade, coeffs)
    f = FourierForm(structure, grade, modes)
    if component is not None:
        f = project_type(f, grade, component)
    return f


# -- the appendix identity suite --------------------------------------------------

def _identity_suite(structure, strict=False):
    """List of (name, input kind, lhs builder, rhs builder)."""
    phi, psi = structure.phi, structure.psi
    vol = hodge_star(ExteriorForm.from_terms(0, {(): 1}), structure.metric)

    def R(name, f):
        return refined(name, f, strict=strict)

    def frac_scale(f, q):
        return f.scale(q if f.is_exact else float(q))

    suite = [
        # scalar block
        ("om0_d", 0, lambda f: exterior_d(f), lambda f: R("d1_7", f)),
        ("om0_d_fphi", 0, lambda f: exterior_d(wedge_const(f, phi)),
         lambda f: wedge_const(R("d1_7", f), phi, left=False)),
        ("om0_d_fpsi", 0, lambda f: exterior_d(wedge_const(f, psi)),
         lambda f: wedge_const(R("d1_7", f), psi, left=False)),
        # one-form block
        ("om1_d", 1, lambda a: exterior_d(a),
         lambda a: frac_scale(star(wedge_const(R("d7_7", a), psi)), Fraction(1, 3))
         + R("d7_14", a)),
        ("om1_d_wedge_phi", 1, lambda a: exterior_d(wedge_const(a, phi)),
         lambda a: frac_scale(wedge_const(R("d7_7", a), psi), Fraction(2, 3))
         - star(R("d7_14", a))),
        ("om1_d_star_wedge_phi", 1, lambda a: exterior_d(star(wedge_const(a, phi))),
         lambda a: frac_scale(wedge_const(R("d7_1", a), psi), Fraction(4, 7))
         + frac_scale(wedge_const(R("d7_7", a), phi), Fraction(1, 2))
         + star(R("d7_27", a))),
        ("om1_d_star_wedge_psi", 1, lambda a: exterior_d(star(wedge_const(a, psi))),
         lambda a: frac_scale(wedge_const(R("d7_1", a), phi), Fraction(-3, 7))
         - frac_scale(star(wedge_const(R("d7_7", a), phi)), Fraction(1, 2))
         + R("d7_27", a)),
        ("om1_d_wedge_psi", 1, lambda a: exterior_d(wedge_const(a, psi)),
         lambda a: star(R("d7_7", a))),
        ("om1_d_star", 1, lambda a: exterior_d(star(a)),
         lambda a: wedge_const(R("d7_1", a), vol).scale(-1)),
        # two-form (14-type) block
        ("om2_14_d", (2, 14), lambda b: exterior_d(b),
         lambda b: frac_scale(star(wedge_const(R("d14_7", b), phi)), Fraction(1, 4))
         + R("d14_27", b)),
        ("om2_14_dstar", (2, 14), lambda b: coexterior_d(b),
         lambda b: R("d14_7", b)),
        # three-form (27-type) block
        ("om3_27_d", (3, 27), lambda c: exterior_d(c),
         lambda c: frac_scale(wedge_const(R("d27_7", c), phi), Fraction(1, 4))
         + star(R("d27_27", c))),
        # second term printed with a spurious star upstream (grade bookkeeping
        # forces a 2-form; the adjoint-defined operator already produces one)
        ("om3_27_dstar", (3, 27), lambda c: coexterior_d(c),
         lambda c: frac_scale(star(wedge_const(R("d27_7", c), psi)), Fraction(1, 3))
         + R("d27_14", c)),
        # the 14 quadratic identities equivalent to d^2 = 0
        ("d2_01_d77_d17", 0, lambda f: R("d7_7", R("d1_7", f)), None),
        ("d2_02_d714_d17", 0, lambda f: R("d7_14", R("d1_7", f)), None),
        ("d2_03_d71_d77", 1, lambda a: R("d7_1", R("d7_7", a)), None),
        ("d2_04_d147_d714", 1, lambda a: R("d14_7", R("d7_14", a)),
         lambda a: frac_scale(R("d7_7", R("d7_7", a)), Fraction(2, 3))),
        ("d2_05_d277_d727", 1, lambda a: R("d27_7", R("d7_27", a)),
         lambda a: R("d7_7", R("d7_7", a))
         + frac_scale(R("d1_7", R("d7_1", a)), Fraction(12, 7))),
        ("d2_06_d714_d77", 1,
         lambda a: R("d7_14", R("d7_7", a)) + R("d27_14", R("d7_27", a)).scale(2), None),
        ("d2_07_d1427_d714", 1,
         lambda a: R("d14_27", R("d7_14", a)).scale(3) + R("d7_27", R("d7_7", a)), None),
        ("d2_08_d2727_d727", 1,
         lambda a: R("d27_27", R("d7_27", a)).scale(2) - R("d7_27", R("d7_7", a)), None),
        ("d2_09_d71_d147", (2, 14), lambda b: R("d7_1", R("d14_7", b)), None),
        ("d2_10_d77_d147", (2, 14),
         lambda b: R("d7_7", R("d14_7", b)) + R("d27_7", R("d14_27", b)).scale(2), None),
        ("d2_11_d727_d147", (2, 14),
         lambda b: R("d7_27", R("d14_7", b)) + R("d27_27", R("d14_27", b)).scale(4), None),
        ("d2_12_d147_d2714", (3, 27),
         lambda c: R("d14_7", R("d27_14", c)).scale(3) + R("d7_7", R("d27_7", c)), None),
        ("d2_13_d277_d2727", (3, 27),
         lambda c: R("d27_7", R("d27_27", c)).scale(2) - R("d7_7", R("d27_7", c)), None),
        ("d2_14_d714_d277", (3, 27),
         lambda c: R("d7_14", R("d27_7", c)) + R("d27_14", R("d27_27", c)).scale(4), None),
        # Laplacians
        ("lap_0", 0, lambda f: coexterior_d(exterior_d(f)),
         lambda f: R("d7_1", R("d1_7", f))),
        ("lap_1", 1, lambda a: exterior_d(coexterior_d(a)) + coexterior_d(exterior_d(a)),
         lambda a: R("d7_7", R("d7_7", a)) + R("d1_7", R("d7_1", a))),
        ("lap_2_14", (2, 14),
         lambda b: exterior_d(coexterior_d(b)) + coexterior_d(exterior_d(b)),
         lambda b: frac_scale(R("d7_14", R("d14_7", b)), Fraction(5, 4))
         + R("d27_14", R("d14_27", b))),
        ("lap_3_27", (3, 27),
         lambda c: exterior_d(coexterior_d(c)) + coexterior_d(exterior_d(c)),
         lambda c: frac_scale(R("d7_27", R("d27_7", c)), Fraction(7, 12))
         + R("d14_27", R("d27_14", c)) + R("d27_27", R("d27_27", c))),
    ]
    return suite


def verify_appendix(structure, trials=100, seed=0, linf=3, n_modes=3, strict=False):
    """Check every refined-derivative identity on seeded random forms.

    Returns {"seed", "trials", "identities": {name: max residual}}.
    Failures are reported through the residuals, never raised.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    suite = _identity_suite(structure, strict=strict)
    maxres = {name: 0.0 for name, *_ in suite}
    for _ in range(trials):
        inputs = {
            0: random_fourier(structure, 0, rng, n_modes=n_modes, linf=linf),
            1: random_fourier(structure, 1, rng, n_modes=n_modes, linf=linf),
            (2, 14): random_fourier(structure, 2, rng, n_modes=n_modes, linf=linf,
                                    component=14),
            (3, 27): random_fourier(structure, 3, rng, n_modes=n_modes, linf=linf,
                                    component=27),
        }
        for name, kind, lhs, rhs in suite:
            f = inputs[kind]
            left = lhs(f)
            if rhs is None:
                right = FourierForm(structure, left.grade, {}, left.scale_pow)
            else:
                right = rhs(f)
            maxres[name] = max(maxres[name], residual(left, right))
    return {"seed": seed, "trials": trials, "identities": maxres}


# -- the Hessian block structure ---------------------------------------------------

def split_S4(f, tol=1e-9):
    """Split a coexact (1+27)-type 3-form into its S4^+ and S4^- parts.

    Input must lie in d*(Omega^4) intersect Omega^3_{1+27}: no constant
    mode, coclosed, and no 7-component.  Returns (omega_plus, omega_minus)
    with pi_27 d omega_plus = 0 and pi_7 d omega_minus = 0.
    """
    if f.grade != 3:
        raise ValueError("split_S4 needs a 3-form")
    scale = max(l2_norm(f.to_float()), 1.0)
    if not f.harmonic_part().is_zero(tol):
        raise PreconditionFailed("input has a harmonic (constant) part")
    if l2_norm(coexterior_d(f).to_float()) > tol * scale * TWO_PI * 10:
        raise PreconditionFailed("input is not coclosed (d* f != 0)")
    if l2_norm(project_type(f, 3, 7).to_float()) > tol * scale:
        raise PreconditionFailed("input has a nonzero Omega^3_7 component")
    f_one = project_type(f, 3, 1)
    gamma = project_type(f, 3, 27)
    corr = refined("d7_27", refined("d27_7", green(gamma)))
    corr = corr.scale(Fraction(7, 12) if corr.is_exact else 7.0 / 12.0)
    omega_plus = f_one + corr
    omega_minus = gamma - corr
    return omega_plus, omega_minus


@dataclass(frozen=True)
class HessianReport:
    """Block decomposition of a Hessian-type operator applied to one form."""
    kind: str
    blocks: dict       # label -> component FourierForm
    applied: dict      # label -> operator applied to that component
    checks: dict       # label -> residual of the block's defining identity


def hessian_blocks(kind, f, tol=1e-9):
    """Decompose f into the diagonal blocks of the Hessian operators.

    kind "E" (grade 2): harmonic / exact / coexact-7 / coexact-14 blocks
    with actions Id, Delta, Delta, -Delta; verifies d* I d = -d* d on the
    coexact-14 block.  kind "F" (grade 3): harmonic / exact / coexact-7 /
    S4^+ / S4^- blocks with actions Id, Delta, Delta, 3 Delta, -Delta;
    verifies pi_27 d = 0 on S4^+ and pi_7 d = 0 on S4^-.
    """
    if kind not in ("E", "F"):
        raise ValueError("kind must be 'E' or 'F'")
    grade = 2 if kind == "E" else 3
    if f.grade != grade:
        raise ValueError(f"kind {kind} needs a grade-{grade} form")
    structure = f.structure
    g = structure.metric
    f = f.to_float()

    blocks = {label: {} for label in _block_labels(kind)}
    for l, c in f.modes.items():
        if l == ZERO_MODE:
            blocks["harmonic"][l] = c
            continue
        n2 = float(g.norm_sq_vector(l))
        lflat = g.flat(l).to_float()
        c_ex = wedge(lflat, interior(l, c)).scale(1.0 / n2)
        c_co = c - c_ex
        blocks["exact"][l] = c_ex
        if kind == "E":
            basis7 = [interior(v, structure.phi).to_float()
                      for v in np.eye(DIM, dtype=int)]
        else:
            basis7 = [interior(v, structure.psi).to_float()
                      for v in np.eye(DIM, dtype=int)]
        cols = [np.asarray(interior(l, wedge(lflat, b.to_float())).coeffs)
                for b in basis7]
        P = _span_proj_cols(cols, g.lambda_gram_float(grade))
        c_co7 = ExteriorForm(grade, np.asarray(P @ c_co.coeffs, dtype=complex))
        rest = c_co - c_co7
        blocks["coexact_7"][l] = c_co7
        if kind == "E":
            blocks["coexact_14"][l] = rest
        else:
            kernel = typed_contraction_kernel(structure, l, 3, 27)
            colsm = [np.array([complex(x) for x in v]) for v in kernel]
            Pm = _span_proj_cols(colsm, g.lambda_gram_float(3))
            c_minus = ExteriorForm(3, np.asarray(Pm @ rest.coeffs, dtype=complex))
            blocks["S_minus"][l] = c_minus
            blocks["S_plus"][l] = rest - c_minus

    out_blocks = {}
    out_applied = {}
    for label, modes in blocks.items():
        comp = FourierForm(structure, grade, modes, f.scale_pow)
        out_blocks[label] = comp
        factor = _block_action(kind, label)
        if label == "harmonic":
            out_applied[label] = comp
        else:
            out_applied[label] = laplacian(comp).scale(factor)

    checks = {}
    if kind == "E":
        gamma = out_blocks["coexact_14"]
        lhs = coexterior_d(apply_I(exterior_d(gamma)))
        rhs = coexterior_d(exterior_d(gamma)).scale(-1)
        checks["dstar_I_d_equals_minus_dstar_d"] = residual(lhs, rhs)
    else:
        plus, minus = out_blocks["S_plus"], out_blocks["S_minus"]
        checks["pi27_d_Splus"] = l2_norm(project_type(exterior_d(plus), 4, 27).to_float())
        checks["pi7_d_Sminus"] = l2_norm(project_type(exterior_d(minus), 4, 7).to_float())
        checks["Splus_Sminus_orthogonal"] = abs(l2_inner(plus, minus))
    return HessianReport(kind=kind, blocks=out_blocks, applied=out_applied, checks=checks)


def _block_labels(kind):
    if kind == "E":
        return ("harmonic", "exact", "coexact_7", "coexact_14")
    return ("harmonic", "exact", "coexact_7", "S_plus", "S_minus")


def _block_action(kind, label):
    if label in ("harmonic",):
        return 1.0
    if label in ("exact", "coexact_7"):
        return 1.0
    if label == "coexact_14" or label == "S_minus":
        return -1.0
    if label == "S_plus":
        return 3.0
    raise ValueError(label)


def _span_proj_cols(cols, gram_float):
    B = np.stack([np.asarray(c, dtype=complex) for c in cols], axis=1)
    BtG = B.T @ gram_float
    return B @ np.linalg.inv(BtG @ B) @ BtG
