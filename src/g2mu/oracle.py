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
    root-of-unity phases over every fixed pair: one walk per class
    (`_orbits`) joins the orbits of the group's matrix parts, each keyed
    at the first mode the walk reaches, into the orbits under the lattice
    matrices that fix phi, for the identity's term.  The same walk gives
    each fixed mode l a transport T, a product of those matrices with
    T r = +-l for the key r of l's orbit, and each fixed pair (A, l) reads
    its trace at r: tr(A* | F_l) equals tr((T^-1 A T)* | F_r), since T*
    carries F_l onto F_r.  So fibre kernels and their trace data are built
    once per orbit and kind (`invariant_dimension_bruteforce` says why
    each step holds and where).
    Bases, pullback matrices and the integer part N of the metric's
    Lambda-Gram pair (N, d) are integer rows, so each trace is computed in
    Python ints with one division at the end, once per conjugate T^-1 A T
    and orbit key.  A mode moves by index under a signed permutation,
    which every matrix part, symmetry and conjugate is under the identity
    frame (`_mode_map`), and by `linalg.matvec` under any other matrix;
    conjugation and pullback matrices take the general kernels
    (`int_matmul`, `inverse`, `pullback_matrix`) for every matrix;
  * closed form: the tr8/tr12 trace polynomials weighted by the same phases
    over all fixed vectors of each element, once per element and phase.

The orbits only regroup the terms of the brute-force sum; every term is
still a kernel or a restricted trace, so that route reads no trace
polynomial and stays independent of the closed form.  Both read an
element's fixed vectors and phases from the shells of its twisted fixed
lattice (`epstein.fixed_lattice`): the lattice's shells are enumerated once
per lattice and radius, shared by the elements with one matrix part, and
each element's twist gives its phases, so what the routes check against
each other is the trace.  The classes themselves are the nonzero shells of
the identity element's lattice: Z^7 with Gram G and zero twist, whose
points are the modes.  Agreement of the two routes on every class is the
oracle for the character formula behind the mu-invariants.

The oracle keeps what it derives on the structure's `g2.Memo`: per orbit
key and kind, a fibre kernel, and trace data at a key that a non-identity
element fixes; per matrix that it moves or conjugates by, a mode map or an
inverse (pullback matrices are `exterior`'s, cached per matrix and grade);
per step X^-1 A X of a transport, its conjugate; per (conjugate, key,
kind), a restricted trace; per fixed lattice and radius, its shells; per
element and radius, its fixed modes, phases and phase counts; per class,
its orbits and transports.  m3's spectrum at radius 9 keeps 48 kernels,
12 trace data, 34 conjugation steps, 30 traces and 8 inverses.

The module is plain Python, like the exact core it reads, and imports no
third-party package.  A phase whose cosine is irrational has no exact
value here: it raises a TypeError that names the phase and ends the
command in a traceback (ROADMAP item 3).
"""

from collections import Counter, namedtuple
from fractions import Fraction
from functools import partial
from itertools import chain
from operator import itemgetter, mul, neg

from . import g2, linalg
from .epstein import fixed_lattice
from .exterior import IDENTITY, pullback_matrix
from .g2 import typed_contraction_kernel
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


class EigenClass(namedtuple("EigenClass", "norm_sq vectors radius_sq")):
    """All lattice vectors sharing one exact squared length, within radius_sq."""
    __slots__ = ()


class SpectralReport(namedtuple("SpectralReport", "norm_sq kind dim_bruteforce dim_formula")):
    __slots__ = ()

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
    return [EigenClass(norm_sq=q, vectors=modes, radius_sq=radius_sq)
            for q, (modes, _, _) in shells.items()]


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
    the trace is tr(W M) / D for the integer matrix W = B A B^T G, kept per
    fibre, so each trace is one product per entry of M and one division.
    """
    W, D = structure.memo(_fibre_trace_data, tuple(map(tuple, basis)))
    return Fraction(sum(map(mul, W, chain.from_iterable(mat_pullback))), D)


def _fibre_trace_data(structure, basis):
    """(W, D) for an integer fibre basis (the rows of B^T): W the entries of
    (B A B^T G)^T row by row, with G the integer part of the Lambda-Gram
    pair and (B^T G B)^-1 = A / D."""
    G, _ = structure.metric.lambda_gram({21: 2, 35: 3}[len(basis[0])])
    B = linalg.transpose(basis)
    BtG = linalg.int_matmul(basis, G)
    A, D = linalg.inverse((linalg.int_matmul(BtG, B), 1))
    W = linalg.int_matmul(B, linalg.int_matmul(A, BtG))
    return tuple(chain.from_iterable(zip(*W))), D


def _cos_2pi(q):
    if q in _RATIONAL_COS:
        return _RATIONAL_COS[q]
    # cos(2 pi q) is irrational for every other rational q (Niven); only a user
    # group outside the shipped examples gives such a phase, and it ends the
    # command in this TypeError (ROADMAP item 3)
    raise TypeError(f"cos(2 pi {q}) is irrational")


def _fixed_vectors(element, cls, structure):
    """((l, q), ...): the class's modes fixed by the element, with their phases."""
    modes, phases, _ = structure.memo(_mode_shells, element, cls.radius_sq).get(
        cls.norm_sq, ((), (), {}))
    return tuple(zip(modes, phases))


def _mode_shells(structure, element, radius_sq):
    """{Q: (modes, phases, {q: n})}: the element's fixed modes l with
    0 < |l|^2 = Q <= radius_sq, their phases in the same order, and the
    number n of them that carry each phase q.

    The points x of the element's fixed lattice and their modes l = x B come
    from `_lattice_modes`, one enumeration per lattice and radius, which the
    elements with one matrix part share; only the phase is the element's
    own: q = k / f for the residue k = T . x mod f of the twist T / f.  An
    untwisted lattice (f = 1), the identity's among them, gives each shell
    one tuple of the shared phase 0.
    """
    lat = fixed_lattice(element, structure.metric)
    shells = structure.memo(_lattice_modes, lat.basis, lat.gram, radius_sq)
    (T,), f = linalg.clear_denominators([lat.twist])
    if f == 1:
        zero = Fraction(0)
        return {Q: (modes, (zero,) * len(modes), {zero: len(modes)})
                for Q, (_, modes) in shells.items()}
    out = {}
    for Q, (points, modes) in shells.items():
        phases = tuple(Fraction(sum(map(mul, T, x)) % f, f) for x in points)
        out[Q] = modes, phases, Counter(phases)
    return out


def _lattice_modes(structure, basis, gram, radius_sq):
    """{Q: (points, modes)}: the nonzero shells Q <= radius_sq of the lattice
    with this Gram, each point x with its mode l = x B, which is x itself
    when the basis B is the unit matrix (the identity's lattice, Z^7).  The
    modes are a tuple, hashable as the vectors of a class."""
    shells = linalg.enumerate_ellipsoid(gram, radius_sq)
    shells.pop(Fraction(0), None)
    if basis == IDENTITY[0]:
        return {Q: (tuple(points),) * 2 for Q, points in shells.items()}
    columns = list(zip(*basis))
    return {Q: (points, tuple(tuple(sum(map(mul, x, col)) for col in columns) for x in points))
            for Q, points in shells.items()}


def invariant_dimension_bruteforce(orbifold, cls, kind):
    """dim of the invariant part of H(lambda) by explicit group averaging.

    Builds the block matrix of each element in the explicit fibre bases;
    off-diagonal blocks (modes moved elsewhere) contribute no trace, so the
    average is the phase-weighted sum of restricted traces over the fixed
    pairs (g, l), A_g l = l, each read once with its own phase.  The
    identity's term, the sum of the fibre dimensions over the class, is
    |O| dim F_l summed over the orbits O of the class under the lattice
    matrices that fix phi (`g2.symmetry_generators`), the group's matrix
    parts and -1, each keyed by a mode l of O, since such a matrix carries
    one fibre onto another.

    Each other pair's trace is moved to the key r of its mode's orbit O: the
    walk gives every fixed mode l a transport T, a product of those matrices
    with T r = +-l, and tr(A* | F_l) = tr((T^-1 A T)* | F_r).  T fixes phi
    and the metric, so its pullback T* carries F_{T r} = F_l onto F_r and
    intertwines A* there with (T^-1 A T)* = T* A* (T^-1)*; -1 commutes with
    every A and F_l = F_{-l}, so it drops out.  So one kernel and one
    trace-data inverse are built per orbit and kind, whichever modes the
    group fixes.

    The orbits and the transports come from one walk, `_orbits`, and the
    orbit sizes are checked to add up to the class.  Nothing here reads tr8
    or tr12: the fibres are kernels, the traces restricted traces of
    explicit pullback matrices.
    """
    structure = orbifold.structure
    orbits, transports = structure.memo(_orbits, orbifold.group,
                                        g2.symmetry_generators(structure), cls)
    if sum(orbits.values()) != len(cls.vectors):
        raise ArithmeticError(f"orbits of class {cls.norm_sq} cover {sum(orbits.values())} "
                              f"of its {len(cls.vectors)} modes")
    acc = Counter()
    acc[Fraction(0)] += sum(size * len(fiber_basis(structure, l, kind))
                            for l, size in orbits.items())
    for element in orbifold.group:
        if element.is_identity():
            continue
        for l, q in _fixed_vectors(element, cls, structure):
            r, word = transports[l]
            moved = _conjugate(structure, element.matrix, word)
            acc[q] += structure.memo(_fixed_trace, moved, r, kind)
    return _integer_average(acc, len(orbifold.group))


def _orbits(structure, group, symmetries, cls):
    """({v: |O|}, {l: (r, word)}) for the class's modes.

    The walk keys each orbit of the modes under the group's matrix parts
    Gamma at the first of its modes that it reaches, and joins these
    Gamma-orbits into the first table: the orbits O under the group that
    `symmetries`, Gamma and -1 generate, each keyed by its first mode v in
    the class.  The second holds a transport of each mode l that a
    non-identity element fixes: the key r of its orbit, v with +-sign made
    canonical, and a word X_1 .. X_n of Gamma and `symmetries` whose
    product T = X_1 .. X_n has T r = +-l.

    A mode l moves as A l, the action of `epstein.fixed_lattice`, whose fixed
    modes are the l with A l = l; a signed permutation moves it by index
    (`_mode_map`).  Each symmetry S that is not a matrix part moves every
    member P w of a walked Gamma-orbit Gamma w, while -1, which commutes with
    Gamma, moves Gamma w onto Gamma(-w), so it moves the key w alone.  An
    image x = S P w, or -w, in no Gamma-orbit reached so far keys its own,
    Gamma x = {Q x}, with the word (S, P) + word(w) (identities and -1 left
    out), and each member P x gets (P,) + word(x).  An image off the class
    ends the walk, which would otherwise not end under a shear.  The modes
    that a non-identity element fixes are those of the Gamma-orbits smaller
    than the group: those with a nontrivial stabiliser in Gamma, or all
    when an element other than the identity has the identity matrix part.
    """
    parts = tuple(dict.fromkeys(element.matrix for element in group))
    one = parts[0]
    part_moves = [(structure.memo(_mode_map, A), A) for A in reversed(parts)]
    movers = [(structure.memo(_mode_map, S), S) for S in symmetries if S not in parts]
    modes, seen, out, transports = set(cls.vectors), set(), {}, {}

    def gamma_orbit(x):
        """{P x: P}, each member marked seen."""
        orbit = {move(x): A for move, A in part_moves}
        seen.update(orbit)
        return orbit

    for v in cls.vectors:
        if v in seen:
            continue
        walk, members, words = [v], {v: gamma_orbit(v)}, {v: ()}
        for w in walk:
            # -1 first: its step drops out, so l and -l share a transport
            images = [tuple(map(neg, w))]
            for move, _ in movers:
                images += map(move, members[w])
            if seen.issuperset(images):
                continue
            steps = [()] + [(S, P) for _, S in movers for P in members[w].values()]
            for x, step in zip(images, steps):
                if x not in seen:
                    if x not in modes:
                        raise ArithmeticError(f"a symmetry moves mode {x} off its class")
                    walk.append(x)
                    members[x] = gamma_orbit(x)
                    words[x] = _word(step, one) + words[w]
        out[v] = sum(map(len, members.values()))
        r = linalg.canonical_sign(v)
        for w, orbit in members.items():
            if len(orbit) < len(group):
                for u, P in orbit.items():
                    transports[u] = r, _word((P,), one) + words[w]
    return out, transports


def _word(letters, one):
    """The letters other than the identity matrix `one`."""
    return tuple(X for X in letters if X != one)


def _mode_map(structure, A):
    """The map l -> A l: by index when each row i of A has one nonzero entry,
    A[i][perm[i]] = signs[i] = +-1, so that A l = signs * l[perm], else
    `linalg.matvec`.  Under the identity frame every matrix part, symmetry
    and conjugate is a signed permutation, so the walk's moves go by index."""
    entries = [[(j, x) for j, x in enumerate(row) if x] for row in A]
    if any(len(row) != 1 or row[0][1] not in (1, -1) for row in entries):
        return partial(linalg.matvec, A)
    perm, signs = zip(*(row[0] for row in entries))
    pick = itemgetter(*perm)
    return lambda l: tuple(map(mul, signs, pick(l)))


def _unimodular_inverse(structure, A):
    """A^-1 for an integer matrix of determinant +-1, as integer rows."""
    inv, _ = linalg.inverse((A, 1))
    return inv


def _conjugate(structure, A, word):
    """T^-1 A T for the product T = X_1 .. X_n of the word, one letter at a time
    from X_1, each step X^-1 A X kept per (X, A) on the structure."""
    for X in word:
        A = structure.memo(_conjugate_by, X, A)
    return A


def _conjugate_by(structure, X, A):
    """X^-1 A X, with X^-1 kept per X on the structure."""
    return linalg.int_matmul(linalg.int_matmul(structure.memo(_unimodular_inverse, X), A), X)


def _fixed_trace(structure, matrix, l, kind):
    """tr(A* | F_l) for an integer matrix A that fixes phi and l, a matrix part
    or its conjugate by a transport: it depends on A and the fibre
    F_l = F_{-l} only, so the fixed pairs that move to one (A, +-l) share it."""
    mat, _ = pullback_matrix((matrix, 1), KINDS[kind][0])
    return _restricted_trace(structure, mat, fiber_basis(structure, l, kind))


def invariant_dimension_formula(orbifold, cls, kind):
    """Same dimension via the closed-form character: phases times tr8/tr12,
    each phase weighted by the number of the element's fixed modes in the
    class that carry it, counted once with its shells (`_mode_shells`)."""
    poly = tr8_su3 if kind == "H" else tr12_su3
    acc = Counter()
    for element in orbifold.group:
        value = poly(element.matrix)
        shells = orbifold.structure.memo(_mode_shells, element, cls.radius_sq)
        for q, count in shells.get(cls.norm_sq, ((), (), {}))[2].items():
            acc[q] += count * value
    return _integer_average(acc, len(orbifold.group))


def _integer_average(acc, order):
    """The real part of sum coeff exp(2 pi i q) / order for a Counter {q: coeff} of
    reduced phases q in [0, 1), checked to be conjugation symmetric and then a
    nonnegative integer."""
    total = Fraction(0)
    for q, c in acc.items():
        q_conj = (1 - q) % 1
        if c != acc[q_conj]:
            raise NonIntegerDimension(
                f"phase sum is not real: coeff({q}) = {c}, coeff({q_conj}) = {acc[q_conj]}")
        total += c * _cos_2pi(q)
    total /= order
    if total.denominator != 1 or total < 0:
        raise NonIntegerDimension(f"averaged character {total} is not a nonnegative integer")
    return int(total)


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
    if linalg.matvec(A, l) != tuple(l):
        raise NotFixed(f"{l} is not fixed by the element")
    return tuple(abs(orbifold.structure.memo(_fixed_trace, A, linalg.canonical_sign(l), kind)
                     - poly(A))
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
