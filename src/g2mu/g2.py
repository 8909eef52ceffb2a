"""The standard G2 package on R^7: model 3-form, type projections, I/J maps.

The model 3-form is

    phi0 = theta^123 + theta^145 + theta^167 + theta^246
           - theta^257 - theta^347 - theta^356,

whose stabiliser in GL+(7,R) is the exceptional group G2.  Under G2 the
exterior powers split into irreducible pieces

    Lambda^2 = Lambda^2_7 + Lambda^2_14,
    Lambda^3 = Lambda^3_1 + Lambda^3_7 + Lambda^3_27,

with the grade-4/5 splittings obtained by Hodge duality.  The type spaces
of the standard structure are derived once from their defining
descriptions (spans of contractions, kernels of wedge maps) as primitive
integer bases.  Its projectors are built apart from the bases, each on
first use, in integers and without an inverse: pi_1 = phi phi^T / 7,
pi_7 = B B^T / k for the contraction basis B = (e_i -| phi) or
(e_i -| psi) with B^T B = k I, and pi_14, pi_27 as complements, each
checked to fix its kernel basis (a failed check raises ArithmeticError).
Grades 4 and 5 are conjugated by the Euclidean star, a signed permutation,
so their projectors are those of grades 3 and 2 with rows and columns
re-indexed and signed.

A structure F*phi0 with a rational frame F (det F > 0) transports all of
this by the exact pullback matrices M_p = N_p / d_p of F: bases are N_p v
scaled to primitive integers, and every projector on grades 2 to 5 is
M_p pi M_p^-1, since F* commutes with the star; the products run in
integers.  The star itself is the metric's (`Metric7.star_matrix` in
`exterior`), built once per Gram pair.  Bases are tuples of ints; the
frame, projectors and pullback matrices are integer pairs (N, d) meaning
N / d, as in `linalg`.

The mode fibres of the oracle, {u in Lambda^grade_component : l -| u = 0},
are exact kernels here as well (`typed_contraction_kernel`): iota_{e_a} B
is kept per structure as sparse integer entries, so each mode solves one
small integer system.  `symmetry_generators` gives a few integer matrices
that fix the structure's phi: five signed permutations fixing phi0, kept as
a constant table and moved into lattice coordinates; the oracle takes one
fibre per orbit of the modes under them.  HESSIAN_WEIGHTS holds the weights
of the Hessian symbols I and J on the type components, which `apply_I`,
`apply_J` and `fourier.hessian_blocks` read.

A G2Structure owns every cache that depends on it: one memo keyed by the
producing function and its arguments, which also holds what `fourier` and
`oracle` derive from it (float views, mode stacks, fibre traces).  Its
metric's inverse, Lambda-Grams and star matrices are cached per Gram pair
in `exterior`.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from . import linalg
from .exterior import (DIM, IDENTITY, INDICES, ExteriorForm, Metric7, hodge_star,
                       hodge_table, interior, interior_table, metric_from_frame, pullback,
                       pullback_matrix, wedge, wedge_matrix)

PHI0_TERMS = {
    (1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1, (2, 4, 6): 1,
    (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1,
}

VALID_COMPONENTS = {2: (7, 14), 3: (1, 7, 27), 4: (1, 7, 27), 5: (7, 14)}

# {grade: {component: w}}: the Hessian symbols I (grade 3) and J (grade 4) of
# the 3- and 4-form functionals are sum_c w pi_c
HESSIAN_WEIGHTS = {
    3: {1: Fraction(4, 3), 7: Fraction(1), 27: Fraction(-1)},
    4: {1: Fraction(3, 4), 7: Fraction(1), 27: Fraction(-1)},
}


def standard_phi0():
    """The model G2 3-form with unit coefficients."""
    return ExteriorForm.from_terms(3, PHI0_TERMS)


@lru_cache(maxsize=None)
def _standard_bases():
    """Exact type-space bases of phi0, as primitive integer vectors."""
    phi = standard_phi0()
    psi = hodge_star(phi, Metric7.euclidean())
    axes = [[int(i == a) for i in range(DIM)] for a in range(DIM)]
    spans = {
        (2, 7): [interior(e, phi).coeffs for e in axes],
        (3, 1): [phi.coeffs],
        (3, 7): [interior(e, psi).coeffs for e in axes],
    }
    # each span cleared once: a positive common scale leaves primitive vectors alike
    basis = {key: tuple(map(linalg.primitive_integer, linalg.clear_denominators(cols)[0]))
             for key, cols in spans.items()}
    # Lambda^2_14 = ker(. ^ psi); Lambda^3_27 = ker(a -> (a ^ phi, a ^ psi)); the
    # kernel of N / d is the kernel of N
    basis[(2, 14)] = tuple(linalg.nullspace(wedge_matrix(psi, 2)[0]))
    basis[(3, 27)] = tuple(linalg.nullspace(wedge_matrix(phi, 3)[0] + wedge_matrix(psi, 3)[0]))
    return basis


def _contraction_projector(B):
    """(N, k) with N / k the Euclidean orthogonal projector onto the span of
    the integer vectors B (its columns), which must satisfy B^T B = k I."""
    BtB = linalg.int_matmul(B, linalg.transpose(B))
    k = BtB[0][0]
    if any(x != k * (i == j) for i, row in enumerate(BtB) for j, x in enumerate(row)):
        raise ArithmeticError("contraction basis is not orthogonal with equal norms")
    return linalg.int_matmul(linalg.transpose(B), B), k


def _complement(parts, B):
    """(N, k) with N / k = I minus the projectors (N_i, k_i) in parts,
    checked to fix every one of the integer kernel basis vectors B."""
    k = lcm(*(k_i for _, k_i in parts))
    n = len(B[0])
    N = [[k * (i == j) - sum(N_i[i][j] * (k // k_i) for N_i, k_i in parts)
          for j in range(n)] for i in range(n)]
    if any(linalg.matvec(N, v) != tuple(k * x for x in v) for v in B):
        raise ArithmeticError("complementary projector does not fix its kernel basis")
    return tuple(map(tuple, N)), k


@lru_cache(maxsize=None)
def _standard_projectors():
    """Exact type projectors of phi0 on grades 2 to 5, built in integers.

    pi_1 = phi phi^T / 7 and pi_7 = B B^T / k for the contraction basis
    B = (e_i -| phi) or (e_i -| psi); pi_14 and pi_27 are the complements.
    Grades 4 and 5 are conjugated by the Euclidean star S: with star e_i =
    s_i e_a on grade p and star e_b = t_b e_j on grade 7 - p, entry (a, b)
    of S pi S^-1 is s_i t_b pi[i][j].  Each is a pair (N, k) meaning N / k.
    """
    B = _standard_bases()
    raw = {key: _contraction_projector(B[key]) for key in ((2, 7), (3, 1), (3, 7))}
    raw[(2, 14)] = _complement([raw[(2, 7)]], B[(2, 14)])
    raw[(3, 27)] = _complement([raw[(3, 1)], raw[(3, 7)]], B[(3, 27)])
    for (grade, comp), (N, k) in list(raw.items()):
        back = hodge_table(DIM - grade)
        conjugated = [None] * len(N)
        for i, a, s in hodge_table(grade):
            conjugated[a] = tuple(s * t * N[i][j] for _, j, t in back)
        raw[(DIM - grade, comp)] = (tuple(conjugated), k)
    return raw


def _frame_pullback_matrix(structure, p, inverse):
    return pullback_matrix(structure.memo(_inverse_frame) if inverse else structure.frame, p)


def _inverse_frame(structure):
    return linalg.inverse(structure.frame)


def _type_space_basis(structure, grade, component):
    base = _standard_bases()[(grade, component)]
    if linalg.is_identity(structure.frame):
        return base
    M, _ = structure.frame_pullback_matrix(grade)
    return tuple(linalg.primitive_integer(linalg.matvec(M, v)) for v in base)


def _projector(structure, grade, component):
    # F* commutes with the star when det F > 0, so every grade transports alike
    N, k = _standard_projectors()[(grade, component)]
    if not linalg.is_identity(structure.frame):
        M, d = structure.frame_pullback_matrix(grade)
        Minv, e = structure.frame_pullback_matrix(grade, inverse=True)
        N, k = linalg.int_matmul(linalg.int_matmul(M, N), Minv), d * k * e
    return N, k


# -- symmetries ------------------------------------------------------------------

# Five signed permutations that fix phi0, as the signed 1-based images of
# e1..e7.  The first two already generate all 1,344 signed permutations that
# fix phi0; the three sign changes are kept too because, unlike those two,
# they stay integral in the lattice coordinates of a diagonal frame.
_PHI0_SYMMETRIES = tuple(
    tuple(tuple((s > 0) - (s < 0) if abs(s) == i else 0 for s in images)
          for i in range(1, DIM + 1))
    for images in ((2, 4, 6, 1, -3, -5, 7), (1, 2, 3, 5, -4, -7, 6), (-1, 2, -3, 4, -5, 6, -7),
                   (1, -2, -3, 4, 5, -6, -7), (1, 2, 3, -4, -5, -6, -7)))


def symmetry_generators(structure):
    """Integer matrices A that fix the structure's phi: a few generators of the
    signed permutations S fixing phi0, moved into lattice coordinates as
    A = F^-1 S F.  A candidate is kept only if A is integral and passes
    `is_g2_element`; under the identity frame all are kept and generate the
    1,344 signed permutations that fix phi0."""
    return structure.memo(_symmetry_generators)


def _symmetry_generators(structure):
    N, d = structure.frame
    M, e = structure.memo(_inverse_frame)
    out = []
    for S in _PHI0_SYMMETRIES:
        A = linalg.int_matmul(linalg.int_matmul(M, S), N)
        if all(x % (d * e) == 0 for row in A for x in row):
            A = tuple(tuple(x // (d * e) for x in row) for row in A)
            if structure.is_g2_element((A, 1)):
                out.append(A)
    return tuple(out)


# -- mode fibre subspaces -------------------------------------------------------

def typed_contraction_kernel(structure, l, grade, component):
    """Exact basis of {u in Lambda^grade_component : l . u = 0} at mode l.

    This is the fibre of the eigenspaces H_l (grade 2, component 14,
    dimension 8) and H'_l (grade 3, component 27, dimension 12).  The typed
    subspace is parametrised once by its integer basis B, so only the small
    system (iota_l B) x = 0 is solved per mode; iota_l B is the integer
    combination sum_a l_a iota_{e_a} B, summed over sparse per-structure
    entries.  Basis vectors are scaled to primitive integer vectors.
    Memoised per (l, grade, component) on the structure; l and -l share a
    basis.
    """
    return structure.memo(_kernel_basis, linalg.canonical_sign(l), grade, component)


def _kernel_basis(structure, lc, grade, component):
    C = _contraction_on_type(structure, lc, grade, component)
    B = linalg.transpose(structure.type_space_basis(grade, component))
    # B and the kernel vectors are integral, so B x stays in ints
    return tuple(linalg.primitive_integer(linalg.matvec(B, x)) for x in linalg.nullspace(C))


def _contraction_on_type(structure, lc, grade, component):
    """iota_l B for the typed-subspace basis matrix B, as a list of int rows."""
    n = len(structure.type_space_basis(grade, component))
    C = [[0] * n for _ in range(comb(DIM, grade - 1))]
    for row, col, axis, x in structure.memo(_axis_contractions, grade, component):
        C[row][col] += lc[axis] * x
    return C


def _axis_contractions(structure, grade, component):
    """iota_{e_a} B for every axis a, as sparse integer entries.

    Entry (row, col, a, x) says that iota_{e_a} B has x at (row, col), so
    that iota_l B = sum_a l_a iota_{e_a} B is a sum over the entries.  The
    type-space bases are sparse, so there are few: 56 for Lambda^2_14 and
    162 for Lambda^3_27 in the standard frame.
    """
    B = structure.type_space_basis(grade, component)
    return tuple((pos_out, col, axis, sign * v[pos_in])
                 for axis, pos_in, pos_out, sign in interior_table(grade)
                 for col, v in enumerate(B) if v[pos_in])


_MISSING = object()


class Memo:
    """The one cache of a G2Structure: memo(fn, *args) is fn(structure, *args),
    computed once per structure and kept under the key (fn, args).

    It grows by the entries its callers ask for: a fixed number per grade
    and component, per Fourier mode and per oracle class and radius that a
    command visits; the modules that cache on it list theirs (`oracle`).
    Nothing is evicted; a CLI command builds one structure.

    A callable object rather than a method, so that the time fn takes is
    booked to the public function that asked for it in a per-function
    profile, not to the cache.
    """

    __slots__ = ("_structure", "_values")

    def __init__(self, structure):
        self._structure = structure
        self._values = {}

    def __call__(self, fn, *args):
        # one lookup, so a hit hashes its key once
        key = (fn, args)
        value = self._values.get(key, _MISSING)
        if value is _MISSING:
            value = self._values[key] = fn(self._structure, *args)
        return value


class G2Structure:
    """A flat G2-structure F*phi0 with its 4-form, metric and projectors.

    The frame F is a rational matrix, the pair (N, d) of
    `linalg.clear_denominators`, or None for the identity; a float in N
    raises TypeError.  Everything derived from the structure is kept in its
    Memo, `memo`.
    """
    # not a tuple like the other values: it owns the Memo, a mutable cache
    __slots__ = ("frame", "phi", "psi", "metric", "memo", "_phi_int")

    def __init__(self, frame=None):
        if frame is None:
            frame = IDENTITY
        metric = metric_from_frame(frame)
        phi = pullback(frame, standard_phi0())
        psi = hodge_star(phi, metric)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "_phi_int", _integer_terms(phi))
        object.__setattr__(self, "memo", Memo(self))
        # phi ^ psi = 7 vol is the structural sanity check of the pair
        if wedge(phi, psi).coeffs[0] != 7 * metric.vol:
            raise ValueError("phi ^ star(phi) != 7 vol; inconsistent construction")

    def __setattr__(self, *_):
        raise AttributeError("G2Structure is immutable")

    def type_space_basis(self, grade, component):
        """Exact basis vectors (primitive integer tuples) of a typed subspace."""
        if component not in VALID_COMPONENTS.get(grade, ()):
            raise ValueError(f"no component {component} in grade {grade}")
        if grade not in (2, 3):
            raise ValueError("exact bases are kept for grades 2 and 3 only")
        return self.memo(_type_space_basis, grade, component)

    # -- matrices ---------------------------------------------------------

    def frame_pullback_matrix(self, p, inverse=False):
        return self.memo(_frame_pullback_matrix, p, inverse)

    def projector(self, grade, component):
        """Matrix of the orthogonal projection onto Lambda^grade_component, a pair."""
        if component not in VALID_COMPONENTS.get(grade, ()):
            raise ValueError(f"no component {component} in grade {grade}")
        return self.memo(_projector, grade, component)

    # -- operations ---------------------------------------------------------

    def apply_projector(self, grade, component, a):
        """pi_component of the grade-`grade` form a, exact."""
        N, k = self.projector(grade, component)
        return ExteriorForm(a.grade, [Fraction(x, k) for x in linalg.matvec(N, a.coeffs)])

    def apply_I(self, a):
        """(4/3) pi_1 + pi_7 - pi_27 on 3-forms (Hessian symbol of the 3-form functional)."""
        return self._hessian_symbol(3, a)

    def apply_J(self, a):
        """(3/4) pi_1 + pi_7 - pi_27 on 4-forms (Hessian symbol of the 4-form functional)."""
        return self._hessian_symbol(4, a)

    def _hessian_symbol(self, grade, a):
        """sum_c w pi_c (a) over the weights HESSIAN_WEIGHTS[grade], a of that grade."""
        if a.grade != grade:
            raise ValueError(f"the Hessian symbol on grade {grade} needs a {grade}-form")
        pieces = [self.apply_projector(grade, c, a).scale(w)
                  for c, w in HESSIAN_WEIGHTS[grade].items()]
        return sum(pieces[1:], pieces[0])

    def is_g2_element(self, A):
        """Whether A preserves this structure's 3-form: A*(F*phi0) = F*phi0.

        An exact test in integers: with phi = c / s for an integer vector c
        and the rational matrix A = (B, d), it checks
        sum_I det B[I, J] c_I = d^3 c_J for every J, where I runs over the
        nonzero terms of phi only.
        """
        B, d = A
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
