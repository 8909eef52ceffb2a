import hashlib
import itertools
import json
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from g2mu import g2, linalg
from g2mu.exterior import (DIM, INDICES, ExteriorForm, hodge_star, inner, interior, pullback,
                           wedge)
from g2mu.g2 import VALID_COMPONENTS, G2Structure, standard_phi0

COMPONENTS = {2: (7, 14), 3: (1, 7, 27)}


def obj(a):
    """An exact matrix or vector as a numpy object array, for test-side algebra."""
    return np.array(a, dtype=object)


def _fractions(pair):
    """The rational matrix (N, d) as Fraction rows, for test-side algebra."""
    N, d = pair
    return tuple(tuple(Fraction(x, d) for x in row) for row in N)


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _rank(P):
    """Rank of a rational projector (N, d): the rank of its integer rows N."""
    return linalg.rank(P[0])


@pytest.fixture(scope="module")
def s():
    return G2Structure()


def rand_form(rng, p):
    """A seeded random form with rational coefficients."""
    n = comb(DIM, p)
    return ExteriorForm(p, [Fraction(int(x), int(y)) for x, y in
                            zip(rng.integers(-9, 10, n), rng.integers(1, 7, n))])


def test_phi0_coefficients():
    phi = standard_phi0()
    assert phi.coefficient((1, 2, 3)) == 1
    assert phi.coefficient((2, 5, 7)) == -1
    assert sum(1 for c in phi.coeffs if c != 0) == 7


def test_psi_not_hardcoded(s):
    pairing = wedge(s.phi, s.psi)
    assert pairing.coeffs[0] == 7 * s.metric.vol


def test_projector_ranks_and_completeness(s):
    p27, p214 = s.projector(2, 7), s.projector(2, 14)
    assert np.equal(obj(_fractions(p27)) + obj(_fractions(p214)), _eye(21)).all()
    assert _rank(p27) == 7 and _rank(p214) == 14
    p31, p37, p327 = s.projector(3, 1), s.projector(3, 7), s.projector(3, 27)
    assert np.equal(sum(obj(_fractions(p)) for p in (p31, p37, p327)), _eye(35)).all()
    assert [_rank(p) for p in (p31, p37, p327)] == [1, 7, 27]


def test_projector_idempotent_orthogonal(s):
    for grade, comps in COMPONENTS.items():
        projs = [obj(_fractions(s.projector(grade, c))) for c in comps]
        for i, p in enumerate(projs):
            assert np.equal(p @ p, p).all()
            for j, q in enumerate(projs):
                if i != j:
                    assert all(x == 0 for x in (p @ q).flat)


def test_projection_completeness_random(s):
    rng = np.random.default_rng(0)
    for _ in range(25):
        a2 = rand_form(rng, 2)
        total = s.apply_projector(2, 7, a2) + s.apply_projector(2, 14, a2)
        assert total == a2
        a3 = rand_form(rng, 3)
        total3 = (s.apply_projector(3, 1, a3) + s.apply_projector(3, 7, a3)
                  + s.apply_projector(3, 27, a3))
        assert total3 == a3


def test_star_equivariance(s):
    # star o pi_q = pi_q o star wherever both sides are defined
    from g2mu.exterior import hodge_star
    rng = np.random.default_rng(1)
    for grade, comps in COMPONENTS.items():
        for comp in comps:
            a = rand_form(rng, grade)
            lhs = hodge_star(s.apply_projector(grade, comp, a), s.metric)
            rhs = s.apply_projector(DIM - grade, comp, hodge_star(a, s.metric))
            assert lhs == rhs


def test_project_dual_grades(s):
    rng = np.random.default_rng(2)
    a4 = rand_form(rng, 4)
    parts = [s.apply_projector(4, c, a4) for c in (1, 7, 27)]
    total = parts[0] + parts[1] + parts[2]
    assert total == a4


def test_pi14_kills_type7(s):
    v7 = interior([1, 0, 0, 0, 0, 0, 0], s.phi)
    assert s.apply_projector(2, 14, v7).is_zero()
    assert s.apply_projector(2, 7, v7) == v7


def test_phi_is_pure_type_one(s):
    assert s.apply_projector(3, 1, s.phi) == s.phi
    assert s.apply_projector(3, 7, s.phi).is_zero()
    assert s.apply_projector(3, 27, s.phi).is_zero()


def test_apply_I_and_J(s):
    assert s.apply_I(s.phi) == s.phi.scale(Fraction(4, 3))
    assert s.apply_J(s.psi) == s.psi.scale(Fraction(3, 4))
    rng = np.random.default_rng(3)
    a = rand_form(rng, 3)
    a27 = s.apply_projector(3, 27, a)
    assert s.apply_I(a27) == a27.scale(-1)
    # I^2 = (16/9) pi_1 + pi_7 + pi_27
    lhs = s.apply_I(s.apply_I(a))
    rhs = (s.apply_projector(3, 1, a).scale(Fraction(16, 9))
           + s.apply_projector(3, 7, a) + s.apply_projector(3, 27, a))
    assert lhs == rhs


def test_I_self_adjoint(s):
    rng = np.random.default_rng(4)
    a, b = rand_form(rng, 3), rand_form(rng, 3)
    lhs = inner(s.apply_I(a), b, s.metric)
    rhs = inner(a, s.apply_I(b), s.metric)
    assert lhs == rhs


def test_J_squares_correctly(s):
    rng = np.random.default_rng(6)
    a = rand_form(rng, 4)
    lhs = s.apply_J(s.apply_J(a))
    rhs = (s.apply_projector(4, 1, a).scale(Fraction(9, 16))
           + s.apply_projector(4, 7, a) + s.apply_projector(4, 27, a))
    assert lhs == rhs
    b = rand_form(rng, 4)
    assert inner(s.apply_J(a), b, s.metric) == inner(a, s.apply_J(b), s.metric)


def test_is_g2_element(s):
    eye = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
    assert s.is_g2_element((eye, 1))
    alpha = [[(1 if i < 3 else -1) if i == j else 0 for j in range(7)] for i in range(7)]
    assert s.is_g2_element((alpha, 1))
    bad = [[(-1 if i == j == 0 else (1 if i == j else 0)) for j in range(7)]
           for i in range(7)]
    assert not s.is_g2_element((bad, 1))


def test_rational_frame_structure():
    F = [[1, 1, 0, 0, 0, 0, 0],
         [0, 1, 0, 0, 0, 0, 0],
         [0, 0, 2, 0, 0, 0, 0],
         [0, 0, 0, 1, 0, 0, 0],
         [0, 0, 0, 0, 1, 0, 0],
         [0, 0, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 0, 1]]
    s2 = G2Structure((F, 1))
    assert s2.metric.vol == 2
    assert wedge(s2.phi, s2.psi).coeffs[0] == 14
    rng = np.random.default_rng(5)
    a = rand_form(rng, 2)
    total = s2.apply_projector(2, 7, a) + s2.apply_projector(2, 14, a)
    assert total == a
    # projections stay orthogonal w.r.t. the frame metric
    p7 = s2.apply_projector(2, 7, a)
    p14 = s2.apply_projector(2, 14, a)
    assert inner(p7, p14, s2.metric) == 0


def _signed_permutation(perm, signs):
    """A e_j = signs[j] e_perm[j] (0-based)."""
    A = [[0] * DIM for _ in range(DIM)]
    for j, (i, e) in enumerate(zip(perm, signs)):
        A[i][j] = e
    return A


# generators of the signed permutations in G2: sign changes, and coordinate
# permutations of orders 3 and 7 that permute the terms of phi0
G2_GENERATORS = [
    _signed_permutation(range(DIM), (1, 1, 1, -1, -1, -1, -1)),
    _signed_permutation(range(DIM), (1, -1, -1, 1, 1, -1, -1)),
    _signed_permutation(range(DIM), (-1, 1, -1, 1, -1, 1, -1)),
    _signed_permutation((0, 3, 4, 5, 6, 1, 2), (1,) * DIM),
    _signed_permutation((1, 3, 5, 2, 0, 6, 4), (1,) * DIM),
]

MEMBERSHIP_FRAMES = {
    "identity": _eye(DIM),
    "diagonal": [[(2 if i == j == 0 else 3 if i == j == 5 else int(i == j))
                  for j in range(DIM)] for i in range(DIM)],
    "non_integer_gram": [[(Fraction(1, 2) if i == j == 6 else int(i == j))
                          for j in range(DIM)] for i in range(DIM)],
    "non_diagonal": [[Fraction(1, 2) if (i, j) == (0, 2) else Fraction(-1, 3) if (i, j) == (4, 1)
                      else 2 if i == j == 3 else int(i == j)
                      for j in range(DIM)] for i in range(DIM)],
}


def _membership_cases(rng, frame):
    """Signed permutations, small integer matrices and conjugated members."""
    F = obj(frame)
    Finv = obj(_fractions(linalg.inverse(linalg.clear_denominators(frame))))
    cases = []
    for _ in range(90):
        cases.append(_signed_permutation(rng.permutation(DIM), rng.choice([-1, 1], DIM)))
    for _ in range(90):
        cases.append(rng.integers(-2, 3, size=(DIM, DIM)).tolist())
    for k in range(120):
        B = obj(_eye(DIM))
        for g in rng.integers(0, len(G2_GENERATORS), size=int(rng.integers(1, 7))):
            B = B @ obj(G2_GENERATORS[g])
        if k % 4 == 3:
            # a near miss: one more coordinate sign change outside G2
            B = B @ obj(_signed_permutation(range(DIM), (-1,) + (1,) * 6))
        cases.append((Finv @ B @ F).tolist())
    return [linalg.clear_denominators(A) for A in cases]


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_FRAMES))
def test_is_g2_element_matches_pullback(name):
    rng = np.random.default_rng(sorted(MEMBERSHIP_FRAMES).index(name))
    s2 = G2Structure(linalg.clear_denominators(MEMBERSHIP_FRAMES[name]))
    members = 0
    for A in _membership_cases(rng, MEMBERSHIP_FRAMES[name]):
        expected = pullback(A, s2.phi) == s2.phi
        assert s2.is_g2_element(A) == expected, A
        members += expected
    assert members >= 90


def test_memo_is_keyed_by_function_and_arguments():
    s2 = G2Structure()
    calls = []

    def producer(structure, *args):
        calls.append(args)
        return object()

    first = s2.memo(producer, 1, (2, 3))
    assert s2.memo(producer, 1, (2, 3)) is first
    assert s2.memo(producer, 2, (2, 3)) is not first
    assert G2Structure().memo(producer, 1, (2, 3)) is not first
    assert calls == [(1, (2, 3)), (2, (2, 3)), (1, (2, 3))]


PAIR_FRAMES = {
    "half": [[Fraction(1, 2) if i == j == 6 else int(i == j) for j in range(DIM)]
             for i in range(DIM)],
    "shear": [[2 if i == j == 0 else Fraction(1, 3) if (i, j) == (0, 1) else int(i == j)
               for j in range(DIM)] for i in range(DIM)],
}


def _is_integer_pair(m):
    N, d = m
    return (type(N) is tuple and type(d) is int and d > 0
            and all(type(row) is tuple and all(type(x) is int for x in row) for row in N))


@pytest.mark.parametrize("name", sorted(PAIR_FRAMES))
def test_every_exact_matrix_is_an_integer_pair(name):
    """Frames, Grams, projectors, star and pullback matrices and fixed-lattice
    Grams are all (tuple of int row tuples, int): no matrix holds a Fraction."""
    from g2mu.epstein import fixed_lattice
    from g2mu.orbifold import AffineElement
    s2 = G2Structure(linalg.clear_denominators(PAIR_FRAMES[name]))
    alpha = AffineElement([[(1 if i < 3 else -1) * (i == j) for j in range(DIM)]
                           for i in range(DIM)])
    matrices = {"frame": s2.frame, "gram": s2.metric.gram,
                "inverse_gram": s2.metric.inverse_gram(),
                "fixed_lattice": fixed_lattice(alpha, s2.metric).gram}
    for p in range(DIM + 1):
        matrices[f"lambda_gram {p}"] = s2.metric.lambda_gram(p)
        matrices[f"star {p}"] = s2.metric.star_matrix(p)
        matrices[f"pullback {p}"] = s2.frame_pullback_matrix(p)
    for grade, comps in VALID_COMPONENTS.items():
        for comp in comps:
            matrices[f"projector {grade} {comp}"] = s2.projector(grade, comp)
    assert [key for key, m in matrices.items() if not _is_integer_pair(m)] == []


@pytest.fixture(scope="module", params=sorted(MEMBERSHIP_FRAMES))
def framed(request):
    return G2Structure(linalg.clear_denominators(MEMBERSHIP_FRAMES[request.param]))


def _typed_vectors(structure, grade, component):
    """Exact spanning vectors of Lambda^grade_component (4 and 5 by the star)."""
    if grade in (2, 3):
        return structure.type_space_basis(grade, component)
    star = _fractions(structure.metric.star_matrix(DIM - grade))
    return [linalg.matvec(star, v) for v in structure.type_space_basis(DIM - grade, component)]


def test_framed_projectors_are_exact_orthogonal_splittings(framed):
    for grade, comps in VALID_COMPONENTS.items():
        # P = N / k: P P = P is N N = k N; G P = P^T G holds for any multiple G
        # of the Lambda-Gram, so for its integer part
        G, _ = framed.metric.lambda_gram(grade)
        n = comb(DIM, grade)
        total = [[Fraction(0)] * n for _ in range(n)]
        for comp in comps:
            N, k = framed.projector(grade, comp)
            assert linalg.int_matmul(N, N) == tuple(tuple(k * x for x in row) for row in N)
            assert linalg.int_matmul(G, N) == linalg.int_matmul(linalg.transpose(N), G)
            assert _rank((N, k)) == comp
            for v in _typed_vectors(framed, grade, comp):
                assert [Fraction(x, k) for x in linalg.matvec(N, v)] == list(v)
            total = [[t + Fraction(x, k) for t, x in zip(trow, row)]
                     for trow, row in zip(total, N)]
        assert total == _eye(n)


def test_type_space_bases_have_the_component_dimension(framed):
    for grade in (2, 3):
        for comp in VALID_COMPONENTS[grade]:
            basis = framed.type_space_basis(grade, comp)
            assert len(basis) == comp
            assert linalg.rank(basis) == comp


def test_framed_dual_projectors_match_star_conjugation(framed):
    for grade in (4, 5):
        for comp in VALID_COMPONENTS[grade]:
            (S, d), (P, k), (T, e) = (framed.metric.star_matrix(DIM - grade),
                                      framed.projector(DIM - grade, comp),
                                      framed.metric.star_matrix(grade))
            conjugated = linalg.int_matmul(linalg.int_matmul(S, P), T)
            N, m = framed.projector(grade, comp)
            assert all(x * d * k * e == y * m for row, crow in zip(N, conjugated)
                       for x, y in zip(row, crow))


def _ref_star_matrix(metric, p):
    """The rule a ^ star(b) = <a, b> vol, row by row: row K of the star is
    sign(I, K) vol times row I of the Lambda-Gram, for K the complement of I."""
    rows = [None] * comb(DIM, p)
    for I, row in zip(INDICES[p], _fractions(metric.lambda_gram(p))):
        K = tuple(x for x in range(1, DIM + 1) if x not in I)
        sign = (-1) ** sum(1 for x in I for y in K if x > y)
        rows[INDICES[DIM - p].index(K)] = tuple(sign * metric.vol * x for x in row)
    return tuple(rows)


def test_star_matrix_matches_hodge_star_and_squares_to_identity(framed):
    for p in range(DIM + 1):
        assert _fractions(framed.metric.star_matrix(p)) == _ref_star_matrix(framed.metric, p)
        (N, d), (M, e) = framed.metric.star_matrix(DIM - p), framed.metric.star_matrix(p)
        assert linalg.int_matmul(N, M) == tuple(tuple(d * e * x for x in row)
                                                for row in _eye(comb(DIM, p)))


def _spoiled_bases(key):
    """The standard bases with the first vector of `key` moved off its type space."""
    bases = dict(g2._standard_bases())
    other = bases[(key[0], 7)][0]
    bases[key] = (tuple(x + y for x, y in zip(bases[key][0], other)),) + bases[key][1:]
    return lambda: bases


@pytest.mark.parametrize("key", [(2, 14), (3, 27), (3, 7)], ids=str)
def test_projector_build_check_can_fail(monkeypatch, key):
    assert g2._standard_projectors.__wrapped__() is not None
    monkeypatch.setattr(g2, "_standard_bases", _spoiled_bases(key))
    with pytest.raises(ArithmeticError):
        g2._standard_projectors.__wrapped__()


def test_contraction_kernels_are_per_structure():
    diag = [[(2 if i == j == 0 else 3 if i == j == 5 else int(i == j)) for j in range(7)]
            for i in range(7)]
    l = (1, 1, 0, 0, 0, 1, 0)
    first = {"identity": G2Structure(None), "diagonal": G2Structure((diag, 1))}
    fresh = {"identity": G2Structure(None), "diagonal": G2Structure((diag, 1))}
    bases = {}
    for name in first:
        for grade, component in [(2, 14), (3, 27)]:
            got = g2.typed_contraction_kernel(first[name], l, grade, component)
            want = g2.typed_contraction_kernel(fresh[name], l, grade, component)
            assert [list(v) for v in got] == [list(v) for v in want]
            bases[name, grade] = [list(v) for v in got]
    for grade in (2, 3):
        assert bases["identity", grade] != bases["diagonal", grade]


def test_contraction_kernel_shared_by_opposite_modes(s):
    l = (1, -2, 0, 0, 1, 0, 0)
    minus = tuple(-x for x in l)
    for grade, component in [(2, 14), (3, 27)]:
        assert g2.typed_contraction_kernel(s, l, grade, component) is \
            g2.typed_contraction_kernel(s, minus, grade, component)


def test_standard_and_fibre_bases_are_pinned():
    """The exact bases behind every kernel and trace, pinned by digest.

    Spectrum reports count dimensions, which do not depend on the basis, so
    a changed basis would otherwise go unseen.
    """
    def digest(vectors):
        return hashlib.sha256(json.dumps(vectors, sort_keys=True).encode()).hexdigest()

    standard = {f"{grade}_{comp}": [[int(x) for x in v] for v in vs]
                for (grade, comp), vs in g2._standard_bases().items()}
    assert digest(standard) == \
        "80d901e3e59d5cbfa0c7e8a17a31c485304687e9c9ac530203c685108cbfcba9"
    half = linalg.clear_denominators([[Fraction(1, 2) if i == j == 6 else int(i == j)
                                       for j in range(7)] for i in range(7)])
    expected = {
        "identity": "448345f0d648e03aa6ade5af74e88b160a3e5c610dc8159f7e96e3ba37976fef",
        "half": "d12b375b467493d2fa6fc8103da281cd44d83b1d905d27a4efd95a6e49971229",
    }
    for name, frame in (("identity", None), ("half", half)):
        s = G2Structure(frame)
        kernels = {f"{l}-{grade}": [[int(x) for x in v]
                                    for v in g2.typed_contraction_kernel(s, l, grade, comp)]
                   for l in ((1, 0, 0, 0, 0, 0, 0), (1, 2, 0, -1, 0, 1, 0))
                   for grade, comp in ((2, 14), (3, 27))}
        assert digest(kernels) == expected[name], name


def test_contraction_kernel_at_large_mode():
    l = (2 ** 20 + 3, -5, 0, 2 ** 21, 0, 1, -(2 ** 33))
    frame = [[2 if i == j == 0 else 3 if i == j == 5 else int(i == j) for j in range(7)]
             for i in range(7)]
    for s in (G2Structure(None), G2Structure((frame, 1))):
        for grade, component, dim in [(2, 14, 8), (3, 27, 12)]:
            basis = g2.typed_contraction_kernel(s, l, grade, component)
            assert len(basis) == dim
            for v in basis:
                a = ExteriorForm(grade, v)
                assert interior(l, a).is_zero()
                assert s.apply_projector(grade, component, a) == a


def _signed_permutations_fixing_phi0():
    """Every signed permutation S e_j = s_j e_p(j) with S* phi0 = phi0, found
    over the permutations p of the axes that map the lines of phi0 (a Fano
    plane) to lines, and over all 128 sign vectors."""
    lines = {frozenset(I) for I in g2.PHI0_TERMS}
    out = set()
    for perm in itertools.permutations(range(1, DIM + 1)):
        p = dict(zip(range(1, DIM + 1), perm))
        if any(frozenset(p[i] for i in line) not in lines for line in lines):
            continue
        for signs in itertools.product((1, -1), repeat=DIM):
            s = dict(zip(range(1, DIM + 1), signs))

            def pulled_back(line):
                # (S* phi0)(e_a, e_b, e_c) = s_a s_b s_c phi0(e_p(a), e_p(b), e_p(c))
                image = [p[i] for i in line]
                order = sorted(image)
                parity = sum(x > y for k, x in enumerate(image) for y in image[k + 1:]) % 2
                return s[line[0]] * s[line[1]] * s[line[2]] * (-1) ** parity \
                    * g2.PHI0_TERMS[tuple(order)]

            if all(pulled_back(line) == c for line, c in g2.PHI0_TERMS.items()):
                out.add(tuple(tuple(s[j] if p[j] == i else 0 for j in range(1, DIM + 1))
                              for i in range(1, DIM + 1)))
    return out


def test_symmetry_generators_generate_the_signed_permutations_fixing_phi0(phi0_symmetry_group):
    stabiliser = _signed_permutations_fixing_phi0()
    assert len(stabiliser) == 1344 and len(g2.symmetry_generators(G2Structure())) < 10
    assert phi0_symmetry_group == stabiliser


def _fixes_phi(structure, A):
    """A*(phi) = phi for an integer matrix A, by the exact pullback of forms."""
    return pullback((A, 1), structure.phi) == structure.phi


@pytest.mark.parametrize("frame, kept", [
    ([[2 if i == j == 0 else 3 if i == j == 5 else int(i == j) for j in range(7)]
      for i in range(7)], 3),
    ([[int(i == j) + (i == 0 and j == 1) for j in range(7)] for i in range(7)], 5),
], ids=["diag23", "shear-12"])
def test_framed_symmetry_generators_are_the_integral_conjugates(frame, kept):
    """Under a frame F the generators are the F^-1 S F that are integral, and each
    fixes the structure's phi: under diag(2, 1, 1, 1, 1, 3, 1) the three sign
    changes, under the unimodular shear I + E_12 all five."""
    structure = G2Structure((frame, 1))
    Finv = linalg.inverse((frame, 1))
    conjugates = [linalg.int_matmul(linalg.int_matmul(Finv[0], S), frame)
                  for S in g2._PHI0_SYMMETRIES]
    integral = [tuple(tuple(x // Finv[1] for x in row) for row in A) for A in conjugates
                if all(x % Finv[1] == 0 for row in A for x in row)]
    generators = g2.symmetry_generators(structure)
    assert list(generators) == integral and len(generators) == kept
    assert all(_fixes_phi(structure, A) for A in generators)


def test_symmetry_candidates_that_do_not_fix_phi_are_dropped(monkeypatch):
    """A candidate that is integral in lattice coordinates but moves phi (the
    transposition of axes 1 and 2, and a signed permutation of determinant 1
    that maps no line of phi0 to a line) is dropped; the symmetries stay."""
    symmetries = g2._PHI0_SYMMETRIES
    swap = tuple(tuple(int(j == (1, 0, 2, 3, 4, 5, 6)[i]) for j in range(7)) for i in range(7))
    shift = tuple(tuple(int(j == (i + 1) % 7) for j in range(7)) for i in range(7))
    monkeypatch.setattr(g2, "_PHI0_SYMMETRIES", (swap,) + symmetries + (shift,))
    structure = G2Structure()
    assert not _fixes_phi(structure, swap) and not _fixes_phi(structure, shift)
    assert g2.symmetry_generators(structure) == symmetries
