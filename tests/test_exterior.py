from fractions import Fraction
from math import comb
from operator import mul

import numpy as np
import pytest

from g2mu import linalg
from g2mu.exterior import (DIM, IDENTITY, INDICES, ExteriorForm, Metric7, hodge_star, inner,
                           interior, metric_from_frame, pullback, pullback_matrix, wedge,
                           wedge_matrix, wedge_table)
from g2mu.fourier import FourierForm, coexterior_d, exterior_d
from g2mu.g2 import G2Structure, standard_phi0


def rand_form(rng, p):
    """A seeded random form with rational coefficients."""
    n = comb(DIM, p)
    return ExteriorForm(p, [Fraction(int(x), int(y)) for x, y in
                            zip(rng.integers(-9, 10, n), rng.integers(1, 7, n))])


def _fractions(pair):
    """The rational matrix (N, d) as Fraction rows, for test-side comparisons."""
    N, d = pair
    return tuple(tuple(Fraction(x, d) for x in row) for row in N)


def _flat(metric, v):
    """The covector g(v, .) as a 1-form."""
    return ExteriorForm(1, linalg.matvec(_fractions(metric.gram), v))


def rand_vector(rng):
    return [Fraction(int(x), int(y)) for x, y in zip(rng.integers(-9, 10, 7),
                                                      rng.integers(1, 7, 7))]


def test_wedge_basis_cases():
    t1 = ExteriorForm.from_terms(1, {(1,): 1})
    t2 = ExteriorForm.from_terms(1, {(2,): 1})
    t12 = ExteriorForm.from_terms(2, {(1, 2): 1})
    assert wedge(t1, t2) == t12
    assert wedge(t12, t1).is_zero()


def test_wedge_table_visits_each_disjoint_pair_once():
    """C(7,p) C(7-p,q) entries: every disjoint pair (i, j) once, merged into k."""
    for p in range(DIM + 1):
        for q in range(DIM + 1 - p):
            table = wedge_table(p, q)
            assert len(table) == comb(DIM, p) * comb(DIM - p, q)
            assert len({(i, j) for i, j, _, _ in table}) == len(table)
            for i, j, k, sign in table:
                left, right = INDICES[p][i], INDICES[q][j]
                assert not set(left) & set(right)
                assert INDICES[p + q][k] == tuple(sorted(left + right))
                assert sign in (1, -1)


def test_wedge_phi0_squares_to_zero():
    phi = standard_phi0()
    assert wedge(phi, phi).is_zero()


def test_wedge_grade_overflow_rejected():
    a = ExteriorForm.from_terms(4, {(1, 2, 3, 4): 1})
    with pytest.raises(ValueError):
        wedge(a, a)


def test_wedge_graded_anticommutative_and_associative():
    rng = np.random.default_rng(0)
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 3)]:
        a, b = rand_form(rng, p), rand_form(rng, q)
        sign = (-1) ** (p * q)
        assert wedge(a, b) == wedge(b, a).scale(sign)
    a, b, c = rand_form(rng, 1), rand_form(rng, 2), rand_form(rng, 3)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_interior_basis_cases():
    t123 = ExteriorForm.from_terms(3, {(1, 2, 3): 1})
    assert interior([1, 0, 0, 0, 0, 0, 0], t123) == ExteriorForm.from_terms(2, {(2, 3): 1})
    assert interior([0, 0, 0, 1, 0, 0, 0], t123).is_zero()
    phi = standard_phi0()
    assert interior([1, 0, 0, 0, 0, 0, 0], phi) == ExteriorForm.from_terms(
        2, {(2, 3): 1, (4, 5): 1, (6, 7): 1})


def test_integer_tables_match_form_operations():
    """The Fourier layer's d and d* stacks, built from the integer tables, act
    on one mode e_a of the identity structure as 2 pi i (e^a ^ .) and
    -2 pi i (e_a -| .); the wedge matrix acts as . ^ phi."""
    rng = np.random.default_rng(9)
    phi = standard_phi0()
    s = G2Structure()
    for p in range(DIM):
        a = rand_form(rng, p)
        for axis in range(DIM):
            e = [int(i == axis) for i in range(DIM)]
            f = FourierForm(s, p, [e], [a.coeffs])
            assert np.allclose(exterior_d(f).mode(e), [2j * np.pi * float(x) for x in
                                                       wedge(ExteriorForm(1, e), a).coeffs],
                               rtol=1e-14, atol=0)
            if p:
                assert np.allclose(coexterior_d(f).mode(e),
                                   [-2j * np.pi * float(x) for x in interior(e, a).coeffs],
                                   rtol=1e-14, atol=0)
        if p <= DIM - 3:
            assert linalg.matvec(_fractions(wedge_matrix(phi, p)), a.coeffs) == \
                wedge(a, phi).coeffs


def test_interior_rejects_scalars():
    with pytest.raises(ValueError):
        interior([1] * 7, ExteriorForm.from_terms(0, {(): 1}))


def test_interior_antiderivation():
    rng = np.random.default_rng(1)
    v = rand_vector(rng)
    for p, q in [(1, 2), (2, 2), (2, 3)]:
        a, b = rand_form(rng, p), rand_form(rng, q)
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)).scale((-1) ** p)
        assert lhs == rhs


def test_hodge_star_unit_and_involution():
    g = Metric7.euclidean()
    one = ExteriorForm.from_terms(0, {(): 1})
    vol = hodge_star(one, g)
    assert vol == ExteriorForm.from_terms(7, {tuple(range(1, 8)): 1})
    rng = np.random.default_rng(2)
    for p in range(8):
        a = rand_form(rng, p)
        assert hodge_star(hodge_star(a, g), g) == a


def test_hodge_star_phi0_pairing():
    g = Metric7.euclidean()
    phi = standard_phi0()
    pairing = wedge(hodge_star(phi, g), phi)
    assert pairing == ExteriorForm.from_terms(7, {tuple(range(1, 8)): 7})


def random_frame(rng):
    """A seeded random integer frame with det F > 0, as a pair."""
    F = rng.integers(-2, 3, size=(7, 7))
    while round(np.linalg.det(F)) <= 0:
        F = rng.integers(-2, 3, size=(7, 7))
    return F.tolist(), 1


def test_star_defining_identity_exact_and_float():
    rng = np.random.default_rng(3)
    g = Metric7.euclidean()
    for p in range(8):
        a, b = rand_form(rng, p), rand_form(rng, p)
        lhs = wedge(a, hodge_star(b, g))
        assert lhs.coeffs[0] == inner(a, b, g)
    gf = metric_from_frame(random_frame(rng))
    N, d = gf.gram
    assert gf.vol != 1 and N != tuple(tuple(d * (i == j) for j in range(7)) for i in range(7))
    for p in range(8):
        a, b = rand_form(rng, p), rand_form(rng, p)
        assert wedge(a, hodge_star(b, gf)).coeffs[0] == inner(a, b, gf) * gf.vol


def test_float_frames_and_grams_are_rejected():
    """A float spelling of a frame or Gram raises TypeError, also once the integer
    matrix that it equals is cached (1.0 == 1 and hash(1.0) == hash(1))."""
    G2Structure()
    for p in range(8):
        pullback_matrix(IDENTITY, p)
    eye = np.eye(7)
    for bad in (eye, eye.tolist(), (2.0 * eye).tolist()):
        with pytest.raises(TypeError):
            linalg.clear_denominators(bad)
        for build in (G2Structure, Metric7, metric_from_frame,
                      lambda F: pullback_matrix(F, 2)):
            with pytest.raises(TypeError):
                build((bad, 1))


def test_interior_is_adjoint_of_covector_wedge():
    rng = np.random.default_rng(4)
    for g in (Metric7.euclidean(), metric_from_frame(random_frame(rng))):
        v = rand_vector(rng)
        vflat = _flat(g, v)
        for p in [1, 2, 3]:
            a, b = rand_form(rng, p + 1), rand_form(rng, p)
            assert inner(interior(v, a), b, g) == inner(a, wedge(vflat, b), g)


def test_metric_from_frame():
    m = metric_from_frame(([[int(i == j) for j in range(7)] for i in range(7)], 1))
    assert all(m.gram[0][i][j] == (1 if i == j else 0) for i in range(7) for j in range(7))
    d = [[2 if i == j == 0 else (1 if i == j else 0) for j in range(7)] for i in range(7)]
    m2 = _fractions(metric_from_frame((d, 1)).gram)
    assert m2[0][0] == 4 and m2[1][1] == 1
    rng = np.random.default_rng(5)
    F = rng.integers(-2, 3, size=(7, 7))
    while round(np.linalg.det(F)) <= 0:
        F = rng.integers(-2, 3, size=(7, 7))
    m3 = metric_from_frame((F.tolist(), 1))
    assert m3.vol == linalg.det((F.tolist(), 1))
    U, minors = linalg.positive_definite(m3.gram)
    assert all(D > 0 for D in minors) and Fraction(minors[-1], m3.gram[1] ** 7) == m3.vol ** 2
    # an immutable value with no field but gram and vol; its inverse is cached per
    # Gram pair, so an equal metric shares it
    for field in ("gram", "vol"):
        with pytest.raises(AttributeError):
            setattr(m3, field, None)
    assert m3._fields == ("gram", "vol") and not hasattr(m3, "__dict__")
    again = Metric7(m3.gram)
    assert again == m3 and again.inverse_gram() is m3.inverse_gram()


def test_metric_rejects_bad_frames():
    with pytest.raises(ValueError):
        metric_from_frame(([[0] * 7] * 7, 1))
    neg = [[-1 if i == j == 0 else (1 if i == j else 0) for j in range(7)] for i in range(7)]
    with pytest.raises(ValueError):
        metric_from_frame((neg, 1))
    with pytest.raises(ValueError):
        Metric7(([[(-1 if i == j else 0) for j in range(7)] for i in range(7)], 1))
    with pytest.raises(ValueError):   # a positive definite N over a negative d
        Metric7(([[int(i == j) for j in range(7)] for i in range(7)], -1))
    with pytest.raises(ValueError):   # not symmetric
        Metric7(([[int(i == j or (i, j) == (0, 1)) for j in range(7)] for i in range(7)], 1))
    # indefinite with det 1: its elimination needs two row swaps, after which
    # every pivot is positive, so only the swap count rejects it
    swapped = [[int(i == j) if i > 3 else int(i ^ 1 == j) for j in range(7)] for i in range(7)]
    assert linalg.det((swapped, 1)) == 1
    with pytest.raises(ValueError):
        Metric7((swapped, 1))


def test_pullback_is_compound_functorial():
    rng = np.random.default_rng(6)
    A = rng.integers(-2, 3, size=(7, 7)).tolist()
    B = rng.integers(-2, 3, size=(7, 7)).tolist()
    AB = (np.array(A) @ np.array(B)).tolist()
    a = rand_form(rng, 3)
    lhs = pullback((AB, 1), a)
    rhs = pullback((B, 1), pullback((A, 1), a))   # (AB)* = B* A*
    assert lhs == rhs


def test_exact_serialisation_roundtrip():
    rng = np.random.default_rng(7)
    a = rand_form(rng, 3)
    encoded = [str(x) for x in a.coeffs]
    decoded = ExteriorForm(3, [Fraction(s) for s in encoded])
    assert decoded == a and len({decoded, a}) == 1
    for field in ("grade", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    with pytest.raises(ValueError, match="needs 35 coefficients, got 34"):
        ExteriorForm(3, a.coeffs[1:])


# -- the integer kernels against the Fraction formulas they replaced ----------------

def _ref_minor(a, I, J):
    return linalg.det(linalg.clear_denominators([[a[r - 1][c - 1] for c in J] for r in I]))


def _ref_inverse(a):
    """Gauss-Jordan in Fractions."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


def _ref_pullback_matrix(F, p):
    return tuple(tuple(_ref_minor(F, I, J) for I in INDICES[p]) for J in INDICES[p])


def _ref_lambda_gram(gram, p):
    inv = _ref_inverse(gram)
    return tuple(tuple(_ref_minor(inv, I, J) for J in INDICES[p]) for I in INDICES[p])


def _ref_wedge(a, b):
    out = [Fraction(0)] * comb(DIM, a.grade + b.grade)
    for i, I in enumerate(INDICES[a.grade]):
        for j, J in enumerate(INDICES[b.grade]):
            if not set(I) & set(J):
                sign = (-1) ** sum(1 for x in I for y in J if x > y)
                out[INDICES[a.grade + b.grade].index(tuple(sorted(I + J)))] += \
                    sign * a.coeffs[i] * b.coeffs[j]
    return ExteriorForm(a.grade + b.grade, out)


def _ref_interior(v, a):
    out = [Fraction(0)] * comb(DIM, a.grade - 1)
    for i, I in enumerate(INDICES[a.grade]):
        for r, axis in enumerate(I):
            out[INDICES[a.grade - 1].index(I[:r] + I[r + 1:])] += \
                (-1) ** r * Fraction(v[axis - 1]) * a.coeffs[i]
    return ExteriorForm(a.grade - 1, out)


def _ref_hodge_star(a, metric, lambda_gram):
    """a ^ star(b) = <a, b> vol: star(b)_K = sign(I, K) vol (G b)_I, K the complement of I."""
    weighted = linalg.matvec(lambda_gram, a.coeffs)
    out = [Fraction(0)] * comb(DIM, DIM - a.grade)
    for i, I in enumerate(INDICES[a.grade]):
        K = tuple(x for x in range(1, DIM + 1) if x not in I)
        sign = (-1) ** sum(1 for x in I for y in K if x > y)
        out[INDICES[DIM - a.grade].index(K)] = sign * metric.vol * weighted[i]
    return ExteriorForm(DIM - a.grade, out)


def _rational_frames(rng):
    """Seeded rational frames with det > 0: diagonal, the 1/2 frame, shears."""
    def q():
        return Fraction(int(rng.integers(1, 9)), int(rng.choice([1, 2, 3, 5])))
    eye = [[Fraction(int(i == j)) for j in range(DIM)] for i in range(DIM)]
    half = [row[:] for row in eye]
    half[6][6] = Fraction(1, 2)
    frames = [half, [[q() if i == j else 0 for j in range(DIM)] for i in range(DIM)]]
    for _ in range(2):
        shear = [[q() if i == j else (q() * int(rng.choice([-1, 0, 1])) if i < j else 0)
                  for j in range(DIM)] for i in range(DIM)]
        perm = rng.permutation(DIM)   # conjugate by a permutation: det stays > 0
        frames.append([[shear[perm[i]][perm[j]] for j in range(DIM)] for i in range(DIM)])
    return frames


def test_integer_kernels_match_fraction_formulas():
    rng = np.random.default_rng(14)
    for p in range(DIM + 1):
        a = rand_form(rng, p)
        if p:
            v = rand_vector(rng)
            assert interior(v, a) == _ref_interior(v, a)
        for q in range(DIM + 1 - p):
            c = rand_form(rng, q)
            assert wedge(a, c) == _ref_wedge(a, c)
            assert linalg.matvec(_fractions(wedge_matrix(c, p)), a.coeffs) == \
                _ref_wedge(a, c).coeffs
    for F in _rational_frames(rng):
        frame = linalg.clear_denominators(F)
        assert linalg.det(frame) > 0
        metric = metric_from_frame(frame)
        gram = [list(row) for row in _fractions(metric.gram)]
        assert _fractions(metric.inverse_gram()) == tuple(map(tuple, _ref_inverse(gram)))
        for p in range(DIM + 1):
            a, b = rand_form(rng, p), rand_form(rng, p)
            M, G = _ref_pullback_matrix(F, p), _ref_lambda_gram(gram, p)
            assert pullback(frame, a).coeffs == linalg.matvec(M, a.coeffs)
            assert _fractions(pullback_matrix(frame, p)) == M
            assert _fractions(metric.lambda_gram(p)) == G
            assert hodge_star(a, metric) == _ref_hodge_star(a, metric, G)
            assert inner(a, b, metric) == sum(map(mul, a.coeffs, linalg.matvec(G, b.coeffs)))
