"""Trigonometric-polynomial forms on T^7 and the refined derivative calculus.

A FourierForm is a finite sum  sum_l chi_l a_l  with chi_l(x) =
exp(2 pi i g(l, x)), l in Z^7 and each a_l a constant complex form.  It is
an immutable named tuple of the actual coefficients: the modes sorted, and
one tuple of C(7,p) Python complex numbers per mode.  The coefficients are
floats because they really are floating (seeded random draws from the
standard library's random.Random); the exact algebra stays in `exterior`
and `g2`.  The module imports only the standard library.

Every operator acts on each mode chi_l a through one matrix:

    star, wedge with phi / psi / vol,   a constant matrix each
    type projections
    d, d* and the ten refined           2 pi i M(l) with M(l) = sum_a l_a K[a],
    operators                           K a per-structure stack of 7 matrices
    Laplacian, Green's operator         the factor 4 pi^2 |l|^2_g, its inverse

so every mode matrix is linear in l (or |l|^2 times a constant), and all of
them vanish on the constant mode.  For d, K[a] = sum_b g_ab (e^b ^ .), so
M(l) a = lflat ^ a; for d*, K[a] = -(e_a -| .).  A stack is kept as one
matrix [K[0] ... K[6]] applied to the 7 C(7,p) products l_a a_j, so M(l)
itself is never formed.

The ten refined operators split d and its adjoint along the G2-type
decomposition; the six with first-order formulas are built from the
printed compositions of d, the Hodge star, wedging with phi/psi and type
projections, and the four adjoint-named ones are the formal adjoints
-G_dom^-1 K[a]^T G_cod of their primals' stacks, G_dom^-1 being the exact
inverse of the Lambda-Gram (the compound of g).  The stack of an operator
on a typed domain ends with that type's projection, so it projects its
input itself.

Every matrix is sparse: a tuple of rows, each a tuple of (column, float)
over the row's nonzero entries.  The d and d* stacks come from the integer
tables of `e^a ^ .` and `e_a -| .` in `exterior`; the refined stacks are
composed exactly, in integers over the structure's pairs (N, d), and like
the views of the star, the wedges, the projectors and the Lambda-Grams
(`star_matrix_float`, `projector_float`, `lambda_gram_float`) each is
rounded once, entry by entry as n / d, into the structure's memo.  The
exact mode fibres that the Hessian blocks project onto are `g2`'s
`typed_contraction_kernel`; those projections solve their small Gram
systems by Cholesky factorisation.
"""

import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import add, mul, sub

from .exterior import DIM, ExteriorForm, interior_table, wedge_matrix, wedge_table
from .g2 import HESSIAN_WEIGHTS, typed_contraction_kernel
from .linalg import int_compound

TWO_PI = 2.0 * math.pi

_TOL = 1e-9  # relative tolerance of the float precondition checks
_LINF = 3    # random modes have entries in [-_LINF, _LINF]

ZERO_MODE = (0,) * DIM


class PreconditionFailed(ValueError):
    """An operation's mathematical precondition does not hold."""


def _mode_key(l):
    return tuple(int(x) for x in l)


# -- sparse matrices -----------------------------------------------------------
#
# An exact matrix is a pair (rows, d) meaning rows / d, each row a dict
# {column: int} of its nonzero entries; a float matrix is a tuple of rows of
# (column, float) pairs.

def _sparse(pair):
    """A dense integer pair (N, d) as an exact sparse matrix."""
    N, d = pair
    return [{j: x for j, x in enumerate(row) if x} for row in N], d


def _matmul(A, B):
    """The product of two exact sparse matrices."""
    (a, d), (b, e) = A, B
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: z for j, z in acc.items() if z})
    return out, d * e


def _on_axes(A, p):
    """I_7 (x) A for A on grade p: A on each of a stack's 7 column blocks."""
    rows, d = A
    n = comb(DIM, p)
    return [{a * n + j: x for j, x in row.items()} for a in range(DIM) for row in rows], d


def _rounded(A):
    """An exact sparse matrix as float rows, each entry n / d correctly rounded."""
    rows, d = A
    return tuple(tuple((j, x / d) for j, x in sorted(row.items())) for row in rows)


def _matvec(M, v):
    """A float sparse matrix times a vector, as a tuple of complex numbers."""
    return tuple([sum([x * v[j] for j, x in row], 0j) for row in M])


def _at_mode(K, l, c):
    """sum_a l_a K[a] c: the stack K on the products l_a c_j."""
    return _matvec(K, [x * y for x in l for y in c])


# -- float views -----------------------------------------------------------------

def _float_view(structure, exact, *args):
    """The pair exact(*args), a method of the structure or of its metric, as float rows."""
    return _rounded(_sparse(exact(*args)))


def lambda_gram_float(structure, p):
    """Float view of the metric's lambda_gram(p), converted once per structure."""
    return structure.memo(_float_view, structure.metric.lambda_gram, p)


def projector_float(structure, grade, component):
    """Float view of structure.projector(grade, component), converted once."""
    return structure.memo(_float_view, structure.projector, grade, component)


def star_matrix_float(structure, p):
    """Float view of structure.star_matrix(p), converted once."""
    return structure.memo(_float_view, structure.star_matrix, p)


class FourierForm(namedtuple("FourierForm", "structure grade modes coeffs")):
    """Finitely supported map Z^7 -> Lambda^p (complex): `modes` sorted, and
    one tuple of C(7,p) complex coefficients per mode in `coeffs`."""
    __slots__ = ()

    def __new__(cls, structure, grade, modes, coeffs):
        keys = [_mode_key(l) for l in modes]
        if len(set(keys)) != len(keys):
            raise ValueError("modes must be distinct")
        rows = [tuple(map(complex, row)) for row in coeffs]
        if len(rows) != len(keys) or any(len(row) != comb(DIM, grade) for row in rows):
            raise ValueError(f"need one row of {comb(DIM, grade)} coefficients per mode")
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return super().__new__(cls, structure, grade, tuple(keys[k] for k in order),
                               tuple(rows[k] for k in order))

    @classmethod
    def constant(cls, structure, form):
        return cls(structure, form.grade, [ZERO_MODE], [form.coeffs])

    @classmethod
    def zero(cls, structure, grade):
        return cls(structure, grade, [], [])

    def _like(self, coeffs, grade=None):
        """A form on the same modes with the given complex coefficient rows."""
        return FourierForm._make((self.structure, self.grade if grade is None else grade,
                                  self.modes, tuple(coeffs)))

    def mode(self, l):
        """The coefficient row of mode l (zero if l is absent)."""
        l = _mode_key(l)
        if l in self.modes:
            return self.coeffs[self.modes.index(l)]
        return (0j,) * comb(DIM, self.grade)

    def is_zero(self, tol=0.0):
        return all(abs(x) <= tol for row in self.coeffs for x in row)

    def __add__(self, other):
        return _combined(self, other, add)

    def __sub__(self, other):
        return _combined(self, other, sub)

    def __neg__(self):
        return self._like(tuple(-x for x in row) for row in self.coeffs)

    def scale(self, c):
        c = complex(c)
        return self._like(tuple(c * x for x in row) for row in self.coeffs)

    __mul__ = scale
    __rmul__ = scale

    def harmonic_part(self):
        return _constant_part(self, True)

    def nonharmonic_part(self):
        return _constant_part(self, False)

    def __repr__(self):
        return f"FourierForm(grade={self.grade}, modes={len(self.modes)})"


def _constant_part(f, constant):
    """f's rows on the constant mode (constant=True) or on every other mode; zero elsewhere."""
    zero = (0j,) * comb(DIM, f.grade)
    return f._like(row if (l == ZERO_MODE) == constant else zero
                   for l, row in zip(f.modes, f.coeffs))


def _combined(f1, f2, op):
    """The form with rows op(row of f1, row of f2) over the union of their modes."""
    modes, a, b = _aligned(f1, f2)
    return FourierForm._make((f1.structure, f1.grade, modes,
                              tuple(tuple(map(op, x, y)) for x, y in zip(a, b))))


def _aligned(f1, f2):
    """(modes, rows of f1, rows of f2) over the union of both forms' modes."""
    if f1.structure is not f2.structure:
        raise ValueError("forms live over different structures")
    if f1.grade != f2.grade:
        raise ValueError("grade mismatch")
    if f1.modes == f2.modes:
        return f1.modes, f1.coeffs, f2.coeffs
    modes = tuple(sorted(set(f1.modes) | set(f2.modes)))
    zero = (0j,) * comb(DIM, f1.grade)
    rows = [dict(zip(f.modes, f.coeffs)) for f in (f1, f2)]
    return modes, *(tuple(r.get(l, zero) for l in modes) for r in rows)


# -- L^2 pairing ------------------------------------------------------------

def l2_inner(f1, f2):
    """L^2 inner product (conjugate-linear in the second slot), complex float.

    The characters chi_l are orthonormal, so this is a finite sum of fibre
    inner products.
    """
    _, a, b = _aligned(f1, f2)
    gram = lambda_gram_float(f1.structure, f1.grade)
    return sum((sum(map(mul, _matvec(gram, x), map(complex.conjugate, y)), 0j)
                for x, y in zip(a, b)), 0j)


def l2_norm(f):
    val = l2_inner(f, f)
    return math.sqrt(max(val.real, 0.0))


def residual(f1, f2):
    """L^2 distance between two forms."""
    return l2_norm(f1 - f2)


# -- operators ----------------------------------------------------------------

def _apply(f, matrix, grade):
    """Apply one constant matrix to every mode."""
    return f._like((_matvec(matrix, c) for c in f.coeffs), grade)


def _apply_stack(f, K, grade):
    """chi_l a -> 2 pi i chi_l M(l) a, with M(l) = sum_a l_a K[a]."""
    return f._like((_at_mode(K, [2j * math.pi * x for x in l], c)
                    for l, c in zip(f.modes, f.coeffs)), grade)


def _norm_sq(structure, l):
    """|l|^2_g, rounded once from the exact Gram pair."""
    N, d = structure.metric.gram
    return sum(x * sum(map(mul, row, l)) for x, row in zip(l, N) if x) / d


def _scaled(f, factor):
    """chi_l a -> factor(|l|^2_g) chi_l a."""
    rows = []
    for l, c in zip(f.modes, f.coeffs):
        s = factor(_norm_sq(f.structure, l))
        rows.append(tuple(s * x for x in c))
    return f._like(rows)


def _exact_d(structure, p):
    """The d stack on grade p, K[a] = sum_b g_ab (e^b ^ .), as an exact matrix."""
    N, d = structure.metric.gram
    n = comb(DIM, p)
    rows = [{} for _ in range(comb(DIM, p + 1))]
    for b, j, k, sign in wedge_table(1, p):
        for a in range(DIM):
            if N[a][b]:
                rows[k][a * n + j] = sign * N[a][b]
    return rows, d


def _d_stack(structure, p):
    return _rounded(_exact_d(structure, p))


def _dstar_stack(structure, p):
    """The d* stack on grade p, K[a] = -(e_a -| .)."""
    n = comb(DIM, p)
    rows = [{} for _ in range(comb(DIM, p - 1))]
    for axis, pos_in, pos_out, sign in interior_table(p):
        rows[pos_out][axis * n + pos_in] = -sign
    return _rounded((rows, 1))


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
    return _scaled(f, lambda n2: 4 * math.pi ** 2 * n2)


def green(f):
    """Green's operator: inverts the Laplacian off the constant modes."""
    return _scaled(f, lambda n2: 1.0 / (4 * math.pi ** 2 * n2) if n2 > 0 else 0.0)


_CONSTANT_GRADES = {"phi": 3, "psi": 4, "vol": 7}


def _wedge_float(structure, name, p):
    """Float matrix of v -> v ^ c on grade p, for c = phi, psi or vol_g."""
    form = ExteriorForm(7, [structure.metric.vol]) if name == "vol" else \
        getattr(structure, name)
    return _rounded(_sparse(wedge_matrix(form, p)))


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


def _exact_refined(structure, name):
    """The stack of a refined operator as an exact matrix; it acts on chi_l a
    by 2 pi i M(l)."""
    op = REFINED_OPS[name]
    if op.adjoint_of is not None:
        primal = REFINED_OPS[op.adjoint_of]
        dom, cod = primal.domain[0], primal.codomain[0]
        K, d = structure.memo(_exact_refined, op.adjoint_of)
        # -K[a]^T, block by block
        minus_kt = [{} for _ in range(comb(DIM, dom))]
        for i, row in enumerate(K):
            for col, x in row.items():
                a, j = divmod(col, comb(DIM, dom))
                minus_kt[j][a * comb(DIM, cod) + i] = -x
        # lambda_gram(p) is the compound of g^-1, so its inverse is the compound of g
        N, e = structure.metric.gram
        g_dom_inverse = _sparse((int_compound(N, dom), e ** dom))
        g_cod = _on_axes(_sparse(structure.metric.lambda_gram(cod)), cod)
        return reduce(_matmul, (g_dom_inverse, (minus_kt, d), g_cod))
    star_m = lambda p: _sparse(structure.star_matrix(p))
    proj = lambda grade, component: _sparse(structure.projector(grade, component))
    d = lambda p: _exact_d(structure, p)
    psi = lambda: _sparse(wedge_matrix(structure.psi, 1))
    if name == "d1_7":
        chain = [d(0)]
    elif name == "d7_7":
        # alpha -> star d(alpha ^ psi)
        chain = [star_m(6), d(5), _on_axes(psi(), 1)]
    elif name == "d7_14":
        chain = [proj(2, 14), d(1)]
    elif name == "d7_27":
        # alpha -> pi_27 d star(alpha ^ psi)
        chain = [proj(3, 27), d(2), _on_axes(_matmul(star_m(5), psi()), 1)]
    elif name == "d14_27":
        chain = [proj(3, 27), d(2), _on_axes(proj(2, 14), 2)]
    else:
        # gamma -> star pi_27(d gamma)
        chain = [star_m(4), proj(4, 27), d(3), _on_axes(proj(3, 27), 3)]
    return reduce(_matmul, chain)


def _refined_stack(structure, name):
    return _rounded(structure.memo(_exact_refined, name))


def refined(name, f):
    """Apply a refined derivative operator mode-wise; inputs are projected onto
    the operator's domain type first, by the projection that ends its stack."""
    if name not in REFINED_OPS:
        raise ValueError(f"unknown refined operator {name!r}")
    op = REFINED_OPS[name]
    if f.grade != op.domain[0]:
        raise ValueError(f"{name} needs a grade-{op.domain[0]} input, got grade {f.grade}")
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

def _identity_suite(refined):
    """List of (name, input kind, lhs builder, rhs builder), the builders
    applying the refined operators through `refined(name, form)`."""
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
    random.Random(seed).  The identities share terms, so a trial applies each
    refined operator to each form once.

    Returns {"seed", "trials", "identities": {name: max residual}}.
    Failures are reported through the residuals, never raised.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    maxres = {name: 0.0 for name, *_ in _identity_suite(refined)}
    for _ in range(trials):
        suite = _identity_suite(lru_cache(maxsize=None)(refined))
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
    d_in, d_out = (structure.memo(_d_stack, p) for p in (grade - 1, grade))
    dstar_in, dstar_out = (structure.memo(_dstar_stack, p) for p in (grade, grade + 1))
    basis7 = structure.type_space_basis(grade, 7)
    zero = (0j,) * comb(DIM, grade)

    rows = {label: [] for label in _BLOCK_LABELS[kind]}
    for l, c in zip(f.modes, f.coeffs):
        if l == ZERO_MODE:
            parts = {"harmonic": c}
        else:
            # lflat ^ (l -| c) / |l|^2, with l -| . = -K_d*(l)
            n2 = _norm_sq(structure, l)
            exact = tuple(-x / n2 for x in _at_mode(d_in, l, _at_mode(dstar_in, l, c)))
            coexact = tuple(map(sub, c, exact))
            # the span of l -| (lflat ^ v) over v in Lambda^grade_7, up to sign
            wrap = [_at_mode(dstar_out, l, _at_mode(d_out, l, v)) for v in basis7]
            parts = {"exact": exact, "coexact_7": _span_projection(wrap, gram, coexact)}
            rest = tuple(map(sub, coexact, parts["coexact_7"]))
            if kind == "E":
                parts["coexact_14"] = rest
            else:
                kernel = typed_contraction_kernel(structure, l, 3, 27)
                parts["S_minus"] = _span_projection(kernel, gram, rest)
                parts["S_plus"] = tuple(map(sub, rest, parts["S_minus"]))
        for label, out in rows.items():
            out.append(parts.get(label, zero))

    blocks = {label: f._like(r) for label, r in rows.items()}

    if kind == "E":
        dgamma = exterior_d(blocks["coexact_14"])
        # the Hessian symbol I = sum_c w_c pi_c on 3-forms
        terms = [project_type(dgamma, 3, c).scale(w) for c, w in HESSIAN_WEIGHTS[3].items()]
        lhs = coexterior_d(sum(terms[1:], terms[0]))
        rhs = -coexterior_d(dgamma)
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


def _span_projection(columns, gram, c):
    """The gram-orthogonal projection of c onto the span of the real vectors
    `columns`: sum_k x_k b_k with (B^T G B) x = B^T G c."""
    weighted = [_matvec(gram, b) for b in columns]
    A = [[sum(map(mul, w, b), 0j).real for b in columns] for w in weighted]
    x = _cholesky_solve(A, [sum(map(mul, w, c), 0j) for w in weighted])
    return tuple(sum([xk * b[j] for xk, b in zip(x, columns)], 0j) for j in range(len(c)))


def _cholesky_solve(A, b):
    """x with A x = b, for a symmetric positive definite float matrix A."""
    n = len(A)
    L = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = A[i][j] - sum([L[i][k] * L[j][k] for k in range(j)], 0.0)
            L[i][j] = math.sqrt(s) if i == j else s / L[j][j]
    y = []
    for i in range(n):
        y.append((b[i] - sum([L[i][k] * y[k] for k in range(i)], 0j)) / L[i][i])
    x = [0j] * n
    for i in reversed(range(n)):
        x[i] = (y[i] - sum([L[k][i] * x[k] for k in range(i + 1, n)], 0j)) / L[i][i]
    return x


def verify_hessian(structure, trials=100, seed=0):
    """Check the Hessian block structure on seeded random forms.

    Each of max(1, trials // 10) draws from random.Random(seed + 1) takes
    the F blocks of d* of a random 4-form and splits the sum of their S4
    blocks again with split_S4, then takes the E blocks of a random 2-form
    (3 modes each).  Returns {"split_checks", "hessian_checks"}, each
    {name: max residual}, the F and E blocks' own checks in the second; as
    in verify_appendix, failures show in the residuals, never raise.
    """
    rng = random.Random(seed + 1)
    split_checks, hessian_checks = {}, {}
    for _ in range(max(1, trials // 10)):
        F = hessian_blocks("F", coexterior_d(random_fourier(structure, 4, rng)))
        omega = F.blocks["S_plus"] + F.blocks["S_minus"]
        plus, minus = split_S4(omega)
        for name, value in (
                ("pi27_d_plus", l2_norm(project_type(exterior_d(plus), 4, 27))),
                ("pi7_d_minus", l2_norm(project_type(exterior_d(minus), 4, 7))),
                ("plus_minus_inner", abs(l2_inner(plus, minus))),
                ("split_reassembles", residual(plus + minus, omega))):
            split_checks[name] = max(split_checks.get(name, 0.0), value)
        E = hessian_blocks("E", random_fourier(structure, 2, rng))
        for name, value in {**F.checks, **E.checks}.items():
            hessian_checks[name] = max(hessian_checks.get(name, 0.0), value)
    return {"split_checks": split_checks, "hessian_checks": hessian_checks}
