"""Brute-force verification of the eigenspace multiplicity formulas.

For a flat orbifold the negative spectrum of both Hessian operators is
carried by spaces of twisted constant forms

    H_l  = {chi_l a : a in Lambda^2_14,  l . a = 0}   (dimension 8),
    H'_l = {chi_l a : a in Lambda^3_27,  l . a = 0}   (dimension 12),

summed over lattice vectors l of a fixed squared length: the shells of
`linalg.enumerate_ellipsoid`, exact and in ascending order.  The group acts by
pullback; the dimension of the invariant subspace is the group average of
the character.  This module computes that dimension two independent ways:

  * brute force: explicit bases of the fibres (`fiber_basis`, a
    `g2.typed_contraction_kernel` checked against the dimension in KINDS),
    explicit pullback matrices, exact restricted traces and exact
    root-of-unity phases.  Bases, pullback matrices and the integer part N
    of the metric's Lambda-Gram pair (N, d) are integer rows, so each
    trace is computed in Python ints with one division at the end, once per
    matrix part and fibre (l and -l share one);
  * closed form: the tr8/tr12 trace polynomials weighted by the same phases
    over the fixed vectors of each element, once per element and phase.

Both read an element's fixed vectors and phases from the shells of its
twisted fixed lattice (`epstein.fixed_lattice`), walked once per element and
radius by `epstein.twisted_shells`, the walk the zeta sums also take, so what
they check against each other is the trace.  The classes themselves are the
nonzero shells of the identity element's lattice: Z^7 with Gram G and zero
twist.  Agreement of the two routes on every class is the
oracle for the character formula behind the mu-invariants.

The module is plain Python, like the exact core it reads; mpmath is
imported only for a phase whose cosine is irrational.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
from .epstein import fixed_lattice_cached, twisted_shells
from .exterior import DIM
from .g2 import _canonical_sign, typed_contraction_kernel, typed_contraction_kernel_dim
from .invariants import tr8_su3, tr12_su3
from .orbifold import AffineElement

# exact cosines of 2 pi q at the rational angles where they are rational
_RATIONAL_COS = {
    Fraction(0): Fraction(1),
    Fraction(1, 2): Fraction(-1),
    Fraction(1, 3): Fraction(-1, 2),
    Fraction(2, 3): Fraction(-1, 2),
    Fraction(1, 4): Fraction(0),
    Fraction(3, 4): Fraction(0),
    Fraction(1, 6): Fraction(1, 2),
    Fraction(5, 6): Fraction(1, 2),
}

KINDS = {"H": (2, 14, 8), "Hprime": (3, 27, 12)}


class NonIntegerDimension(ArithmeticError):
    """The averaged character failed to be a nonnegative integer."""


class NotFixed(ValueError):
    """The lattice vector is not fixed by the element's matrix part."""


@dataclass(frozen=True)
class EigenClass:
    """All lattice vectors sharing one exact squared length, within radius_sq."""
    norm_sq: Fraction
    vectors: tuple
    radius_sq: Fraction

    def __len__(self):
        return len(self.vectors)


@dataclass(frozen=True)
class SpectralReport:
    norm_sq: Fraction
    kind: str
    dim_bruteforce: int
    dim_formula: int

    @property
    def match(self):
        return self.dim_bruteforce == self.dim_formula

    def to_json_dict(self):
        return {
            "norm_sq": str(self.norm_sq),
            "kind": self.kind,
            "dim_bruteforce": self.dim_bruteforce,
            "dim_formula": self.dim_formula,
            "match": self.match,
        }


def enumerate_classes(orbifold, radius_sq):
    """Nonzero lattice vectors with |l|^2_g <= radius_sq, grouped by norm.

    These are the shells of the identity element's fixed lattice, from the
    enumeration that also gives the identity its fixed modes.
    """
    radius_sq = linalg.frac(radius_sq)
    if radius_sq < 0:
        raise ValueError("radius_sq must be nonnegative")
    shells = orbifold.structure.memo(_mode_shells, AffineElement.identity(), radius_sq)
    return [EigenClass(norm_sq=q, vectors=tuple(l for l, _ in pairs), radius_sq=radius_sq)
            for q, pairs in shells.items()]


def fiber_basis(structure, l, kind):
    """Exact basis of the fibre of H_l (kind "H") or H'_l ("Hprime") at the mode l:
    {a in Lambda^grade_component : l . a = 0}, checked to have dimension 8 or 12."""
    grade, component, expected = KINDS[kind]
    basis = typed_contraction_kernel(structure, l, grade, component)
    if len(basis) != expected:
        raise NonIntegerDimension(f"fibre at {l} has dimension {len(basis)}, expected {expected}")
    return basis


def _restricted_trace(structure, mat_pullback, basis):
    """Exact trace of proj_span o pullback restricted to span(basis).

    This is the diagonal-block trace of the big representation matrix: the
    action composed with the orthogonal projection back onto the fibre,
    tr((B^T G B)^-1 B^T G M B).  When the fibre is invariant (fixed modes)
    the projection is a no-op.  G may be any integer multiple of the
    Lambda-Gram matrix, since the scalar cancels; with (B^T G B)^-1 = A / D
    the trace is tr(P M B) / D for the integer matrix P = A B^T G, kept per
    fibre, so each trace is one integer product M B and one division.
    """
    B, P, D = structure.memo(_fibre_trace_data, tuple(map(tuple, basis)))
    MB = linalg.int_matmul(mat_pullback, B)
    return Fraction(sum(sum(map(mul, row, col)) for row, col in zip(P, zip(*MB))), D)


def _fibre_trace_data(structure, basis):
    """(B, A B^T G, D) for an integer fibre basis (the rows of B^T), with
    G the integer part of the Lambda-Gram pair and (B^T G B)^-1 = A / D."""
    G, _ = structure.metric.lambda_gram({21: 2, 35: 3}[len(basis[0])])
    B = linalg.transpose(basis)
    BtG = linalg.int_matmul(basis, G)
    A, D = linalg.inverse((linalg.int_matmul(BtG, B), 1))
    return B, linalg.int_matmul(A, BtG), D


class _PhaseSum:
    """Exact accumulator for sums of coeff * exp(2 pi i q).

    Each phase q is a reduced Fraction in [0, 1), as `_mode_shells` gives
    it; each coeff an int or a Fraction.
    """

    def __init__(self):
        self.terms = {}

    def add(self, q, coeff):
        self.terms[q] = self.terms.get(q, 0) + coeff

    def value(self):
        """The exact rational value; requires conjugation symmetry."""
        total = Fraction(0)
        for q, c in self.terms.items():
            q_conj = (1 - q) % 1
            c_conj = self.terms.get(q_conj, Fraction(0))
            if c != c_conj:
                raise NonIntegerDimension(
                    f"phase sum is not real: coeff({q}) = {c}, coeff({q_conj}) = {c_conj}")
            total += c * _cos_2pi(q)
        return total


def _cos_2pi(q):
    if q in _RATIONAL_COS:
        return _RATIONAL_COS[q]
    # cos(2 pi q) is irrational for other rational q (Niven); such phases can
    # only arise from user groups outside the shipped examples, where the
    # final average is still an integer -- evaluate with enough precision to
    # recover it and let the integrality check below be the arbiter.
    import mpmath
    with mpmath.workdps(50):
        val = mpmath.cos(2 * mpmath.pi * mpmath.mpf(q.numerator) / q.denominator)
        approx = Fraction(val).limit_denominator(10 ** 30)
    return approx


def _fixed_vectors(element, cls, structure):
    """((l, q), ...): the class's modes fixed by the element, with their phases."""
    return structure.memo(_mode_shells, element, cls.radius_sq).get(cls.norm_sq, ())


def _mode_shells(structure, element, radius_sq):
    """{Q: ((l, q), ...)}: the element's fixed modes with 0 < |l|^2 = Q <= radius_sq.

    Each point x of the element's fixed lattice, enumerated once, gives
    l = x B and the phase q = k / f from its twist residue k.
    """
    lat = fixed_lattice_cached(structure, element)
    f, shells = twisted_shells(lat.gram, radius_sq, lat.twist)
    columns = list(zip(*lat.basis))
    return {Q: tuple((tuple(sum(map(mul, x, col)) for col in columns), Fraction(k, f))
                     for x, k in pts)
            for Q, pts in shells.items()}


def invariant_dimension_bruteforce(orbifold, cls, kind):
    """dim of the invariant part of H(lambda) by explicit group averaging.

    Builds the block matrix of each element in the explicit fibre bases;
    off-diagonal blocks (modes moved elsewhere) contribute no trace, so the
    average is the phase-weighted sum of restricted traces over fixed modes.
    The identity block's trace is the fibre dimension itself.
    """
    structure = orbifold.structure
    grade, component, _ = KINDS[kind]
    acc = _PhaseSum()
    for element in orbifold.group:
        fixed = _fixed_vectors(element, cls, structure)
        if not fixed:
            continue
        if element.is_identity():
            for l, q in fixed:
                acc.add(q, typed_contraction_kernel_dim(structure, l, grade, component))
            continue
        for l, q in fixed:
            acc.add(q, structure.memo(_fixed_trace, element.matrix, _canonical_sign(l), kind))
    return _integer_average(acc, len(orbifold.group))


def _fixed_trace(structure, matrix, l, kind):
    """tr(A* | F_l) for the matrix part A: it depends on A and the fibre
    F_l = F_{-l} only, so elements sharing A (and modes l, -l) share it."""
    mat = structure.memo(_element_pullback_matrix, matrix, KINDS[kind][0])
    return _restricted_trace(structure, mat, fiber_basis(structure, l, kind))


def invariant_dimension_formula(orbifold, cls, kind):
    """Same dimension via the closed-form character: phases times tr8/tr12."""
    poly = tr8_su3 if kind == "H" else tr12_su3
    acc = _PhaseSum()
    for element in orbifold.group:
        value = poly(element.matrix)
        fixed = _fixed_vectors(element, cls, orbifold.structure)
        for q, count in Counter(q for _, q in fixed).items():
            acc.add(q, count * value)
    return _integer_average(acc, len(orbifold.group))


def _integer_average(acc, order):
    total = acc.value() / order
    if total.denominator != 1 or total < 0:
        raise NonIntegerDimension(f"averaged character {total} is not a nonnegative integer")
    return int(total)


def _element_pullback_matrix(structure, matrix, grade):
    """Pullback matrix of the matrix part (transposed compound), in Python ints."""
    return linalg.transpose(linalg.int_compound(matrix, grade))


def su3_trace_check(orbifold, element, l):
    """Residuals |tr(A | fibre) - tr8(A)| and |tr(A | fibre') - tr12(A)|.

    Exact Fractions; both vanish because the fibres at a fixed direction
    realise the 8- and 12-dimensional pieces whose characters the trace
    polynomials compute.  l must be a nonzero fixed vector of the
    element's matrix part.
    """
    A = element.matrix
    if all(x == 0 for x in l):
        raise NotFixed("l must be nonzero")
    if any(sum(A[i][j] * l[j] for j in range(DIM)) != l[i] for i in range(DIM)):
        raise NotFixed(f"{l} is not fixed by the element")
    return tuple(abs(orbifold.structure.memo(_fixed_trace, A, _canonical_sign(l), kind) - poly(A))
                 for kind, poly in (("H", tr8_su3), ("Hprime", tr12_su3)))


def spectral_reports(orbifold, radius_sq):
    """One SpectralReport per (class, kind); the oracle's main entry point."""
    out = []
    for cls in enumerate_classes(orbifold, radius_sq):
        for kind in KINDS:
            out.append(SpectralReport(
                norm_sq=cls.norm_sq,
                kind=kind,
                dim_bruteforce=invariant_dimension_bruteforce(orbifold, cls, kind),
                dim_formula=invariant_dimension_formula(orbifold, cls, kind),
            ))
    return out
