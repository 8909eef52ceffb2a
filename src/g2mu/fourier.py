"""Trigonometric-polynomial forms on T^7 and the refined derivative calculus.

A FourierForm is a finite sum  sum_l chi_l a_l  with chi_l(x) =
exp(2 pi i g(l, x)), l in Z^7 and each a_l a constant complex form.  It is
stored as one read-only complex array of the actual coefficients: one row
per mode, modes sorted, C(7,p) columns.  The coefficients are floats
because they really are floating (seeded random draws); the exact algebra
stays in `exterior` and `g2`.  The draws come from the standard library's
seeded generator, random.Random, so numpy.random is never imported; numpy
holds the arrays and does the linear algebra.

Every operator acts on each mode chi_l a through one matrix:

    star, wedge with phi / psi / vol,   a constant float matrix each
    type projections
    d, d* and the ten refined           2 pi i M(l) with M(l) = sum_a l_a K[a],
    operators                           K a per-structure stack of 7 matrices
    Laplacian, Green's operator         the factor 4 pi^2 |l|^2_g, its inverse

so every mode matrix is linear in l (or |l|^2 times a constant), and all of
them vanish on the constant mode.  For d, K[a] = sum_b g_ab (e^b ^ .), so
M(l) a = lflat ^ a; for d*, K[a] = -(e_a -| .).

The ten refined operators split d and its adjoint along the G2-type
decomposition; the six with first-order formulas are built from the
printed compositions of d, the Hodge star, wedging with phi/psi and type
projections, and the four adjoint-named ones are the formal adjoints
-G_dom^-1 K[a]^T G_cod of their primals' stacks.

The float matrices are views of the structure's exact ones (`gram_float`,
`lambda_gram_float`, `projector_float`, `star_matrix_float`): each exact
matrix is an integer pair (N, d), converted once by `pair_to_float`, entry
by entry as n / d, and kept read-only in the structure's memo; the integer
stacks of `e^a ^ .` and `e_a -| .` are built once from the tables in
`exterior`.
The exact mode fibres that the Hessian blocks project onto are `g2`'s
`typed_contraction_kernel`.
"""

import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .exterior import DIM, ExteriorForm, interior_table, wedge_matrix, wedge_table
from .g2 import HESSIAN_WEIGHTS, typed_contraction_kernel

TWO_PI = 2.0 * np.pi

_TOL = 1e-9  # relative tolerance of the float precondition checks
_LINF = 3    # random modes have entries in [-_LINF, _LINF]

ZERO_MODE = (0,) * DIM


class PreconditionFailed(ValueError):
    """An operation's mathematical precondition does not hold."""


def _mode_key(l):
    return tuple(int(x) for x in l)


def read_only(arr):
    """Mark a cached array read-only and return it."""
    arr.flags.writeable = False
    return arr


def pair_to_float(N, d):
    """A float array of N / d: each n / d is correctly rounded, as float(Fraction(n, d))."""
    return np.array([[n / d for n in row] for row in N], dtype=float)


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
    for axis, pos_in, pos_out, sign in interior_table(p):
        I[axis, pos_out, pos_in] = sign
    return read_only(I)


def _float_view(structure, exact, *args):
    """The pair exact(*args), a method of the structure or of its metric, as floats."""
    return read_only(pair_to_float(*exact(*args)))


def _gram_float(structure):
    return read_only(pair_to_float(*structure.metric.gram))


def gram_float(structure):
    """Float view of the metric's Gram matrix, converted once per structure."""
    return structure.memo(_gram_float)


def lambda_gram_float(structure, p):
    """Float view of the metric's lambda_gram(p), converted once per structure."""
    return structure.memo(_float_view, structure.metric.lambda_gram, p)


def projector_float(structure, grade, component):
    """Float view of structure.projector(grade, component), converted once."""
    return structure.memo(_float_view, structure.projector, grade, component)


def star_matrix_float(structure, p):
    """Float view of structure.star_matrix(p), converted once."""
    return structure.memo(_float_view, structure.star_matrix, p)


class FourierForm:
    """Finitely supported map Z^7 -> Lambda^p (complex), one array row per mode."""
    # not a tuple: tuple equality would compare the numpy array elementwise and raise
    __slots__ = ("structure", "grade", "modes", "coeffs")

    def __init__(self, structure, grade, modes, coeffs):
        keys = [_mode_key(l) for l in modes]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        modes = tuple(keys[k] for k in order)
        if len(set(modes)) != len(modes):
            raise ValueError("modes must be distinct")
        arr = np.array(coeffs, dtype=complex).reshape(len(modes), comb(DIM, grade))[order]
        _set_fields(self, structure, grade, modes, arr)

    def __setattr__(self, *_):
        raise AttributeError("FourierForm is immutable")

    @classmethod
    def constant(cls, structure, form):
        return cls(structure, form.grade, [ZERO_MODE], [form.coeffs])

    @classmethod
    def zero(cls, structure, grade):
        return cls(structure, grade, [], [])

    def _like(self, coeffs, grade=None):
        """A form on the same modes with the given complex coefficient rows."""
        return _form(self.structure, self.grade if grade is None else grade, self.modes,
                     coeffs)

    def mode(self, l):
        """The coefficient row of mode l (zero if l is absent)."""
        l = _mode_key(l)
        if l in self.modes:
            return self.coeffs[self.modes.index(l)]
        return np.zeros(comb(DIM, self.grade), dtype=complex)

    def is_zero(self, tol=0.0):
        return bool(np.max(np.abs(self.coeffs), initial=0.0) <= tol)

    def __add__(self, other):
        modes, a, b = _aligned(self, other)
        return _form(self.structure, self.grade, modes, a + b)

    def __sub__(self, other):
        modes, a, b = _aligned(self, other)
        return _form(self.structure, self.grade, modes, a - b)

    def __neg__(self):
        return self._like(-self.coeffs)

    def scale(self, c):
        return self._like(self.coeffs * complex(c))

    __mul__ = scale
    __rmul__ = scale

    def harmonic_part(self):
        return self._like(self.coeffs * _constant_mask(self)[:, None])

    def nonharmonic_part(self):
        return self._like(self.coeffs * ~_constant_mask(self)[:, None])

    def __repr__(self):
        return f"FourierForm(grade={self.grade}, modes={len(self.modes)})"


def _set_fields(f, structure, grade, modes, coeffs):
    for name, value in zip(FourierForm.__slots__, (structure, grade, modes, read_only(coeffs))):
        object.__setattr__(f, name, value)


def _form(structure, grade, modes, coeffs):
    """A FourierForm from sorted distinct mode tuples and a fresh complex array."""
    f = object.__new__(FourierForm)
    _set_fields(f, structure, grade, modes, coeffs)
    return f


def _constant_mask(f):
    return np.array([l == ZERO_MODE for l in f.modes], dtype=bool)


def _aligned(f1, f2):
    """(modes, rows of f1, rows of f2) over the union of both forms' modes."""
    if f1.structure is not f2.structure:
        raise ValueError("forms live over different structures")
    if f1.grade != f2.grade:
        raise ValueError("grade mismatch")
    if f1.modes == f2.modes:
        return f1.modes, f1.coeffs, f2.coeffs
    modes = tuple(sorted(set(f1.modes) | set(f2.modes)))
    position = {l: k for k, l in enumerate(modes)}
    rows = []
    for f in (f1, f2):
        out = np.zeros((len(modes), f.coeffs.shape[1]), dtype=complex)
        out[[position[l] for l in f.modes]] = f.coeffs
        rows.append(out)
    return modes, rows[0], rows[1]


# -- L^2 pairing ------------------------------------------------------------

def l2_inner(f1, f2):
    """L^2 inner product (conjugate-linear in the second slot), complex float.

    The characters chi_l are orthonormal, so this is a finite sum of fibre
    inner products.
    """
    _, a, b = _aligned(f1, f2)
    gram = lambda_gram_float(f1.structure, f1.grade)
    return complex(np.sum((a @ gram) * np.conj(b)))


def l2_norm(f):
    val = l2_inner(f, f)
    return float(np.sqrt(max(val.real, 0.0)))


def residual(f1, f2):
    """L^2 distance between two forms."""
    return l2_norm(f1 - f2)


# -- operators ----------------------------------------------------------------

def _apply(f, matrix, grade):
    """Apply one constant matrix to every mode."""
    return f._like(f.coeffs @ matrix.T, grade)


def _at_modes(K, modes):
    """The mode matrices M(l) = sum_a l_a K[a] of a stack K, one per mode."""
    L = np.array(modes, dtype=float).reshape(-1, DIM)
    return (L @ K.reshape(DIM, -1)).reshape(len(L), *K.shape[1:])


def _apply_stack(f, K, grade):
    """chi_l a -> 2 pi i chi_l M(l) a, with M(l) = sum_a l_a K[a]."""
    M = _at_modes(K, f.modes)
    return f._like(2j * np.pi * np.einsum("mij,mj->mi", M, f.coeffs), grade)


def _norm_sq(f):
    """|l|^2_g for every mode of f, as floats."""
    L = np.array(f.modes, dtype=float).reshape(-1, DIM)
    return np.einsum("ma,ab,mb->m", L, gram_float(f.structure), L)


def _d_stack(structure, p):
    """K[a] = sum_b g_ab (e^b ^ .) on grade p, so that M(l) a = lflat ^ a."""
    return read_only(np.tensordot(gram_float(structure), covector_wedge_stack(p), axes=1))


def _dstar_stack(structure, p):
    """K[a] = -(e_a -| .) on grade p."""
    return read_only(-interior_stack(p).astype(float))


def exterior_d(f):
    """d(chi_l a) = (2 pi i) chi_l (lflat ^ a); kills constant modes."""
    if f.grade > 6:
        raise ValueError("cannot apply d to a 7-form")
    return _apply_stack(f, f.structure.memo(_d_stack, f.grade), f.grade + 1)


def coexterior_d(f):
    """d*(chi_l a) = -(2 pi i) chi_l (l -| a); formal adjoint of d."""
    if f.grade < 1:
        raise ValueError("cannot apply d* to a 0-form")
    return _apply_stack(f, f.structure.memo(_dstar_stack, f.grade), f.grade - 1)


def laplacian(f):
    """Hodge Laplacian: multiplication by 4 pi^2 |l|^2_g on each mode."""
    return f._like(f.coeffs * (4 * np.pi ** 2 * _norm_sq(f))[:, None])


def green(f):
    """Green's operator: inverts the Laplacian off the constant modes."""
    n2 = 4 * np.pi ** 2 * _norm_sq(f)
    factor = np.divide(1.0, n2, out=np.zeros_like(n2), where=n2 > 0)
    return f._like(f.coeffs * factor[:, None])


_CONSTANT_GRADES = {"phi": 3, "psi": 4, "vol": 7}


def _wedge_float(structure, name, p):
    """Float matrix of v -> v ^ c on grade p, for c = phi, psi or vol_g."""
    form = ExteriorForm(7, [structure.metric.vol]) if name == "vol" else \
        getattr(structure, name)
    return read_only(pair_to_float(*wedge_matrix(form, p)))


def wedge_const(f, name):
    """Mode-wise wedge on the right with the structure's phi, psi or vol."""
    grade = f.grade + _CONSTANT_GRADES[name]
    if grade > DIM:
        raise ValueError(f"wedge of grades {f.grade} and {_CONSTANT_GRADES[name]} exceeds {DIM}")
    return _apply(f, f.structure.memo(_wedge_float, name, f.grade), grade)


def star(f):
    """Mode-wise Hodge star."""
    return _apply(f, star_matrix_float(f.structure, f.grade), DIM - f.grade)


def project_type(f, grade, component):
    """Mode-wise orthogonal type projection."""
    return _apply(f, projector_float(f.structure, grade, component), f.grade)


# -- refined operators ---------------------------------------------------------

class RefinedOp(namedtuple("RefinedOp", "name domain codomain adjoint_of", defaults=(None,))):
    """One of the ten refined derivative operators; `domain` and `codomain`
    are (grade, component or None)."""
    __slots__ = ()


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


def _refined_stack(structure, name):
    """The stack K of a refined operator: it acts on chi_l a by 2 pi i M(l)."""
    op = REFINED_OPS[name]
    if op.adjoint_of is not None:
        primal = REFINED_OPS[op.adjoint_of]
        K = structure.memo(_refined_stack, op.adjoint_of)
        g_dom = lambda_gram_float(structure, primal.domain[0])
        g_cod = lambda_gram_float(structure, primal.codomain[0])
        return read_only(-(np.linalg.inv(g_dom) @ K.transpose(0, 2, 1) @ g_cod))
    star_m = lambda p: star_matrix_float(structure, p)
    proj = lambda grade, component: projector_float(structure, grade, component)
    d = lambda p: structure.memo(_d_stack, p)
    psi = structure.memo(_wedge_float, "psi", 1)
    if name == "d1_7":
        K = d(0)
    elif name == "d7_7":
        # alpha -> star d(alpha ^ psi)
        K = star_m(6) @ d(5) @ psi
    elif name == "d7_14":
        K = proj(2, 14) @ d(1)
    elif name == "d7_27":
        # alpha -> pi_27 d star(alpha ^ psi)
        K = proj(3, 27) @ d(2) @ star_m(5) @ psi
    elif name == "d14_27":
        K = proj(3, 27) @ d(2) @ proj(2, 14)
    else:
        # gamma -> star pi_27(d gamma)
        K = star_m(4) @ proj(4, 27) @ d(3) @ proj(3, 27)
    return read_only(K)


def refined(name, f):
    """Apply a refined derivative operator mode-wise; inputs are first
    projected onto the operator's domain type."""
    if name not in REFINED_OPS:
        raise ValueError(f"unknown refined operator {name!r}")
    op = REFINED_OPS[name]
    dom_grade, dom_comp = op.domain
    if f.grade != dom_grade:
        raise ValueError(f"{name} needs a grade-{dom_grade} input, got grade {f.grade}")
    if dom_comp is not None:
        f = project_type(f, dom_grade, dom_comp)
    return _apply_stack(f, f.structure.memo(_refined_stack, name), op.codomain[0])


# -- random form generation -----------------------------------------------------

def random_fourier(structure, grade, rng, n_modes=3, component=None,
                   include_constant=False):
    """Seeded random FourierForm drawn from `rng`, a standard-library
    random.Random: each mode's entries uniform in [-_LINF, _LINF], each
    coefficient's real and imaginary parts uniform in [-1, 1]."""
    n = comb(DIM, grade)
    keys = set()
    while len(keys) < n_modes:
        l = tuple(rng.randint(-_LINF, _LINF) for _ in range(DIM))
        if l != ZERO_MODE:
            keys.add(l)
    if include_constant:
        keys.add(ZERO_MODE)
    modes = sorted(keys)
    coeffs = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
              for _ in modes]
    f = FourierForm(structure, grade, modes, coeffs)
    if component is not None:
        f = project_type(f, grade, component)
    return f


# -- the appendix identity suite --------------------------------------------------

def _identity_suite():
    """List of (name, input kind, lhs builder, rhs builder)."""
    suite = [
        # scalar block
        ("om0_d", 0, lambda f: exterior_d(f), lambda f: refined("d1_7", f)),
        ("om0_d_fphi", 0, lambda f: exterior_d(wedge_const(f, "phi")),
         lambda f: wedge_const(refined("d1_7", f), "phi")),
        ("om0_d_fpsi", 0, lambda f: exterior_d(wedge_const(f, "psi")),
         lambda f: wedge_const(refined("d1_7", f), "psi")),
        # one-form block
        ("om1_d", 1, lambda a: exterior_d(a),
         lambda a: star(wedge_const(refined("d7_7", a), "psi")).scale(Fraction(1, 3))
         + refined("d7_14", a)),
        ("om1_d_wedge_phi", 1, lambda a: exterior_d(wedge_const(a, "phi")),
         lambda a: wedge_const(refined("d7_7", a), "psi").scale(Fraction(2, 3))
         - star(refined("d7_14", a))),
        ("om1_d_star_wedge_phi", 1, lambda a: exterior_d(star(wedge_const(a, "phi"))),
         lambda a: wedge_const(refined("d7_1", a), "psi").scale(Fraction(4, 7))
         + wedge_const(refined("d7_7", a), "phi").scale(Fraction(1, 2))
         + star(refined("d7_27", a))),
        ("om1_d_star_wedge_psi", 1, lambda a: exterior_d(star(wedge_const(a, "psi"))),
         lambda a: wedge_const(refined("d7_1", a), "phi").scale(Fraction(-3, 7))
         - star(wedge_const(refined("d7_7", a), "phi")).scale(Fraction(1, 2))
         + refined("d7_27", a)),
        ("om1_d_wedge_psi", 1, lambda a: exterior_d(wedge_const(a, "psi")),
         lambda a: star(refined("d7_7", a))),
        ("om1_d_star", 1, lambda a: exterior_d(star(a)),
         lambda a: wedge_const(refined("d7_1", a), "vol").scale(-1)),
        # two-form (14-type) block
        ("om2_14_d", (2, 14), lambda b: exterior_d(b),
         lambda b: star(wedge_const(refined("d14_7", b), "phi")).scale(Fraction(1, 4))
         + refined("d14_27", b)),
        ("om2_14_dstar", (2, 14), lambda b: coexterior_d(b),
         lambda b: refined("d14_7", b)),
        # three-form (27-type) block
        ("om3_27_d", (3, 27), lambda c: exterior_d(c),
         lambda c: wedge_const(refined("d27_7", c), "phi").scale(Fraction(1, 4))
         + star(refined("d27_27", c))),
        # second term printed with a spurious star upstream (grade bookkeeping
        # forces a 2-form; the adjoint-defined operator already produces one)
        ("om3_27_dstar", (3, 27), lambda c: coexterior_d(c),
         lambda c: star(wedge_const(refined("d27_7", c), "psi")).scale(Fraction(1, 3))
         + refined("d27_14", c)),
        # the 14 quadratic identities equivalent to d^2 = 0
        ("d2_01_d77_d17", 0, lambda f: refined("d7_7", refined("d1_7", f)), None),
        ("d2_02_d714_d17", 0, lambda f: refined("d7_14", refined("d1_7", f)), None),
        ("d2_03_d71_d77", 1, lambda a: refined("d7_1", refined("d7_7", a)), None),
        ("d2_04_d147_d714", 1, lambda a: refined("d14_7", refined("d7_14", a)),
         lambda a: refined("d7_7", refined("d7_7", a)).scale(Fraction(2, 3))),
        ("d2_05_d277_d727", 1, lambda a: refined("d27_7", refined("d7_27", a)),
         lambda a: refined("d7_7", refined("d7_7", a))
         + refined("d1_7", refined("d7_1", a)).scale(Fraction(12, 7))),
        ("d2_06_d714_d77", 1,
         lambda a: refined("d7_14", refined("d7_7", a))
         + refined("d27_14", refined("d7_27", a)).scale(2), None),
        ("d2_07_d1427_d714", 1,
         lambda a: refined("d14_27", refined("d7_14", a)).scale(3)
         + refined("d7_27", refined("d7_7", a)), None),
        ("d2_08_d2727_d727", 1,
         lambda a: refined("d27_27", refined("d7_27", a)).scale(2)
         - refined("d7_27", refined("d7_7", a)), None),
        ("d2_09_d71_d147", (2, 14), lambda b: refined("d7_1", refined("d14_7", b)), None),
        ("d2_10_d77_d147", (2, 14),
         lambda b: refined("d7_7", refined("d14_7", b))
         + refined("d27_7", refined("d14_27", b)).scale(2), None),
        ("d2_11_d727_d147", (2, 14),
         lambda b: refined("d7_27", refined("d14_7", b))
         + refined("d27_27", refined("d14_27", b)).scale(4), None),
        ("d2_12_d147_d2714", (3, 27),
         lambda c: refined("d14_7", refined("d27_14", c)).scale(3)
         + refined("d7_7", refined("d27_7", c)), None),
        ("d2_13_d277_d2727", (3, 27),
         lambda c: refined("d27_7", refined("d27_27", c)).scale(2)
         - refined("d7_7", refined("d27_7", c)), None),
        ("d2_14_d714_d277", (3, 27),
         lambda c: refined("d7_14", refined("d27_7", c))
         + refined("d27_14", refined("d27_27", c)).scale(4), None),
        # Laplacians
        ("lap_0", 0, lambda f: coexterior_d(exterior_d(f)),
         lambda f: refined("d7_1", refined("d1_7", f))),
        ("lap_1", 1, lambda a: exterior_d(coexterior_d(a)) + coexterior_d(exterior_d(a)),
         lambda a: refined("d7_7", refined("d7_7", a)) + refined("d1_7", refined("d7_1", a))),
        ("lap_2_14", (2, 14),
         lambda b: exterior_d(coexterior_d(b)) + coexterior_d(exterior_d(b)),
         lambda b: refined("d7_14", refined("d14_7", b)).scale(Fraction(5, 4))
         + refined("d27_14", refined("d14_27", b))),
        ("lap_3_27", (3, 27),
         lambda c: exterior_d(coexterior_d(c)) + coexterior_d(exterior_d(c)),
         lambda c: refined("d7_27", refined("d27_7", c)).scale(Fraction(7, 12))
         + refined("d14_27", refined("d27_14", c)) + refined("d27_27", refined("d27_27", c))),
    ]
    return suite


def verify_appendix(structure, trials=100, seed=0):
    """Check every refined-derivative identity on random forms drawn from
    random.Random(seed).

    Returns {"seed", "trials", "identities": {name: max residual}}.
    Failures are reported through the residuals, never raised.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    suite = _identity_suite()
    maxres = {name: 0.0 for name, *_ in suite}
    for _ in range(trials):
        inputs = {
            0: random_fourier(structure, 0, rng),
            1: random_fourier(structure, 1, rng),
            (2, 14): random_fourier(structure, 2, rng, component=14),
            (3, 27): random_fourier(structure, 3, rng, component=27),
        }
        for name, kind, lhs, rhs in suite:
            f = inputs[kind]
            res = l2_norm(lhs(f)) if rhs is None else residual(lhs(f), rhs(f))
            maxres[name] = max(maxres[name], res)
    return {"seed": seed, "trials": trials, "identities": maxres}


# -- the Hessian block structure ---------------------------------------------------

def split_S4(f):
    """Split a coexact (1+27)-type 3-form into its S4^+ and S4^- parts.

    Input must lie in d*(Omega^4) intersect Omega^3_{1+27}: no constant
    mode, coclosed, and no 7-component.  Returns (omega_plus, omega_minus)
    with pi_27 d omega_plus = 0 and pi_7 d omega_minus = 0.
    """
    if f.grade != 3:
        raise ValueError("split_S4 needs a 3-form")
    scale = max(l2_norm(f), 1.0)
    if not f.harmonic_part().is_zero(_TOL):
        raise PreconditionFailed("input has a harmonic (constant) part")
    if l2_norm(coexterior_d(f)) > _TOL * scale * TWO_PI * 10:
        raise PreconditionFailed("input is not coclosed (d* f != 0)")
    if l2_norm(project_type(f, 3, 7)) > _TOL * scale:
        raise PreconditionFailed("input has a nonzero Omega^3_7 component")
    gamma = project_type(f, 3, 27)
    corr = refined("d7_27", refined("d27_7", green(gamma))).scale(Fraction(7, 12))
    return project_type(f, 3, 1) + corr, gamma - corr


class HessianReport(namedtuple("HessianReport", "kind blocks checks")):
    """One form split into the diagonal blocks of a Hessian-type operator:
    `blocks` maps each block label to its component FourierForm, `checks`
    each block identity's name to its residual."""
    __slots__ = ()


_BLOCK_LABELS = {
    "E": ("harmonic", "exact", "coexact_7", "coexact_14"),
    "F": ("harmonic", "exact", "coexact_7", "S_plus", "S_minus"),
}


def hessian_blocks(kind, f):
    """Decompose f into the diagonal blocks of the Hessian operators.

    kind "E" (grade 2): harmonic / exact / coexact-7 / coexact-14 blocks
    with actions Id, Delta, Delta, -Delta; verifies d* I d = -d* d on the
    coexact-14 block.  kind "F" (grade 3): harmonic / exact / coexact-7 /
    S4^+ / S4^- blocks with actions Id, Delta, Delta, 3 Delta, -Delta;
    verifies pi_27 d = 0 on S4^+ and pi_7 d = 0 on S4^-, and that the two
    are orthogonal, each residual relative to max(|f|, 1) (its square for
    the inner product), the scale of split_S4's preconditions.
    """
    if kind not in _BLOCK_LABELS:
        raise ValueError("kind must be 'E' or 'F'")
    grade = 2 if kind == "E" else 3
    if f.grade != grade:
        raise ValueError(f"kind {kind} needs a grade-{grade} form")
    structure = f.structure
    gram = lambda_gram_float(structure, grade)
    n2 = _norm_sq(f)
    # lflat ^ (l -| .) on grade p, and l -| (lflat ^ .) on grade p
    exact_part = _at_modes(structure.memo(_d_stack, grade - 1), f.modes) @ \
        _at_modes(interior_stack(grade), f.modes)
    wrap = _at_modes(interior_stack(grade + 1), f.modes) @ \
        _at_modes(structure.memo(_d_stack, grade), f.modes)
    basis7 = np.array(structure.type_space_basis(grade, 7), dtype=float).T

    rows = {label: np.zeros_like(f.coeffs) for label in _BLOCK_LABELS[kind]}
    for m, (l, c) in enumerate(zip(f.modes, f.coeffs)):
        if l == ZERO_MODE:
            rows["harmonic"][m] = c
            continue
        c_ex = exact_part[m] @ c / n2[m]
        c_co = c - c_ex
        c_co7 = _span_projector(wrap[m] @ basis7, gram) @ c_co
        rest = c_co - c_co7
        rows["exact"][m] = c_ex
        rows["coexact_7"][m] = c_co7
        if kind == "E":
            rows["coexact_14"][m] = rest
        else:
            kernel = np.array(typed_contraction_kernel(structure, l, 3, 27), dtype=float).T
            rows["S_minus"][m] = _span_projector(kernel, gram) @ rest
            rows["S_plus"][m] = rest - rows["S_minus"][m]

    blocks = {label: f._like(r) for label, r in rows.items()}

    if kind == "E":
        gamma = blocks["coexact_14"]
        proj = lambda grade, component: projector_float(structure, grade, component)
        symbol_I = sum(float(w) * proj(3, c) for c, w in HESSIAN_WEIGHTS[3].items())
        lhs = coexterior_d(_apply(exterior_d(gamma), symbol_I, 3))
        rhs = -coexterior_d(exterior_d(gamma))
        checks = {"dstar_I_d_equals_minus_dstar_d": residual(lhs, rhs)}
    else:
        plus, minus = blocks["S_plus"], blocks["S_minus"]
        scale = max(l2_norm(f), 1.0)
        checks = {
            "pi27_d_Splus": l2_norm(project_type(exterior_d(plus), 4, 27)) / scale,
            "pi7_d_Sminus": l2_norm(project_type(exterior_d(minus), 4, 7)) / scale,
            "Splus_Sminus_orthogonal": abs(l2_inner(plus, minus)) / scale ** 2,
        }
    return HessianReport(kind=kind, blocks=blocks, checks=checks)


def _span_projector(B, gram):
    """The gram-orthogonal projector onto the span of the real columns of B."""
    BtG = B.T @ gram
    return B @ np.linalg.inv(BtG @ B) @ BtG


def verify_hessian(structure, trials=100, seed=0):
    """Check the Hessian block structure on seeded random forms.

    Each of max(1, trials // 10) draws from random.Random(seed + 1) takes
    the S4 blocks of d* of a random 4-form and splits their sum again with
    split_S4, then takes the E blocks of a random 2-form (3 modes each).
    Returns {"split_checks", "hessian_checks"}, each {name: max residual};
    as in verify_appendix, failures show in the residuals, never raise.
    """
    rng = random.Random(seed + 1)
    split_checks, hessian_checks = {}, {}
    for _ in range(max(1, trials // 10)):
        # the F blocks' own checks stay out, so that the report keeps its keys
        blocks = hessian_blocks("F", coexterior_d(random_fourier(structure, 4, rng))).blocks
        omega = blocks["S_plus"] + blocks["S_minus"]
        plus, minus = split_S4(omega)
        for name, value in (
                ("pi27_d_plus", l2_norm(project_type(exterior_d(plus), 4, 27))),
                ("pi7_d_minus", l2_norm(project_type(exterior_d(minus), 4, 7))),
                ("plus_minus_inner", abs(l2_inner(plus, minus))),
                ("split_reassembles", residual(plus + minus, omega))):
            split_checks[name] = max(split_checks.get(name, 0.0), value)
        for name, value in hessian_blocks("E", random_fourier(structure, 2, rng)).checks.items():
            hessian_checks[name] = max(hessian_checks.get(name, 0.0), value)
    return {"split_checks": split_checks, "hessian_checks": hessian_checks}
