from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest

from g2mu import linalg


def obj(a):
    """An exact matrix or vector as a numpy object array, for test-side algebra."""
    return np.array(a, dtype=object)


def _laplace_det(rows):
    """Determinant of an integer matrix by Laplace expansion, no elimination."""
    return linalg.int_compound(rows, len(rows))[0][0]


def _minor_rank(a):
    """The largest p such that the rational matrix a has a nonzero p x p minor."""
    b, _ = linalg.clear_denominators(a)
    return max(p for p in range(min(len(b), len(b[0])) + 1)
               if any(any(row) for row in linalg.int_compound(b, p)))


def test_rref_and_rank():
    a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert linalg.rank(a) == 2


def test_nullspace_exact():
    a = [[1, 2, 3], [2, 4, 6]]
    basis = linalg.nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in obj(a) @ obj(v))


def test_inverse_roundtrip():
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    A, D = linalg.inverse((a, 1))
    prod = obj(a) @ obj(A)
    assert all(prod[i, j] == (D if i == j else 0) for i in range(3) for j in range(3))
    with pytest.raises(ValueError):
        linalg.inverse(([[1, 2], [2, 4]], 1))


def _property_inputs():
    """Rational matrices of every shape the elimination has to handle."""
    rng = np.random.default_rng(21)

    def entry():
        return Fraction(int(rng.integers(-4, 5)), int(rng.choice([1, 1, 2, 3, 5])))

    cases = [[[1, 2, 3], [2, 4, 6], [1, 0, 1]], [[1, 2, 3], [2, 4, 6]],
             [[2, 1, 0], [1, 3, 1], [0, 1, 4]], [[1, 2], [2, 4]],
             [[0]], [[Fraction(-3, 4)]], [[0, 0, 0]], [[0, 0], [0, 0], [0, 0]]]
    for _ in range(60):
        m, n = (int(x) for x in rng.integers(1, 7, size=2))
        k = int(rng.integers(0, min(m, n) + 1))
        if rng.random() < 0.5:
            # rank at most k: a product of m x k and k x n factors
            left = [[entry() for _ in range(k)] for _ in range(m)]
            right = [[entry() for _ in range(n)] for _ in range(k)]
            a = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
                  for j in range(n)] for i in range(m)]
        else:
            a = [[entry() for _ in range(n)] for _ in range(m)]
        cases.append(a)
    return cases


def test_elimination_properties():
    """det, rank, nullspace and inverse against Laplace minors, on seeded inputs."""
    for a in _property_inputs():
        m, n = len(a), len(a[0])
        am = obj(a)
        # rank and nullspace take integer rows: a cleared of denominators, b = d a
        b, d = linalg.clear_denominators(a)
        r = linalg.rank(b)
        assert r == _minor_rank(a)
        # the free columns are those that do not raise the rank of the columns before
        free = [c for c in range(n)
                if _minor_rank([row[:c + 1] for row in a]) == _minor_rank([row[:c] for row in a])]
        basis = linalg.nullspace(b)
        assert len(basis) + r == n and len(basis) == len(free)
        for f, v in zip(free, basis):
            assert all(type(x) is int for x in v)
            assert all(x == 0 for x in am @ obj(v))
            assert gcd(*v) == 1 and v[f] > 0
            assert all(v[g] == 0 for g in free if g != f)
        if m != n:
            continue
        expected = Fraction(_laplace_det(b), d ** n)
        assert linalg.det((b, d)) == expected
        if expected == 0:
            with pytest.raises(ValueError):
                linalg.inverse((b, d))
            continue
        A, D = linalg.inverse((b, d))
        assert D > 0 and all(type(x) is int for row in A for x in row)
        prod = am @ np.array(A, dtype=object)
        assert all(prod[i, j] == (D if i == j else 0) for i in range(n) for j in range(n))


def test_det_matches_numpy_sign_and_value():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.integers(-4, 5, size=(5, 5))
        exact = linalg.det((a.tolist(), 1))
        assert exact == Fraction(round(np.linalg.det(a)))


def test_int_rank_matches_rational_rank():
    rng = np.random.default_rng(4)
    for k in range(20):
        a = rng.integers(-3, 4, size=(6, 9))
        if k % 2:
            a = rng.integers(-3, 4, size=(6, k % 6)) @ rng.integers(-3, 4, size=(k % 6, 9))
        assert linalg.rank(a.tolist()) == linalg.rank(a) == _minor_rank(a.tolist())


def test_integer_kernel_is_saturated():
    # the kernel lattice of [[2, -2, 0]] contains (1,1,0), not just (2,2,0)
    basis = linalg.integer_kernel([[2, -2, 0]])
    assert len(basis) == 2
    mat = np.array([list(v) for v in basis], dtype=float)
    sol, *_ = np.linalg.lstsq(mat.T, np.array([1.0, 1.0, 0.0]), rcond=None)
    assert np.allclose(sol, np.round(sol))
    assert np.allclose(mat.T @ np.round(sol), [1, 1, 0])


def test_integer_kernel_of_difference():
    a = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    m = [[a[i][j] - (1 if i == j else 0) for j in range(3)] for i in range(3)]
    basis = linalg.integer_kernel(m)
    assert basis == [(1, 0, 0)]


def test_integer_kernel_rejects_fractions_and_floats():
    """The kernel of [[1/2, 1]] is spanned by (2, -1); truncating 1/2 to 0 would
    give (1, 0).  A non-integer entry raises TypeError instead."""
    for bad in ([[Fraction(1, 2), 1]], [[0.5, 1]], [[Fraction(2), 1]]):
        with pytest.raises(TypeError):
            linalg.integer_kernel(bad)


def test_canonical_sign_rejects_fractions_and_floats():
    """canonical_sign([-0.5, 1]) would read (0, 1) if it truncated."""
    assert linalg.canonical_sign([0, -2, 1]) == (0, 2, -1)
    for bad in ([-0.5, 1], [Fraction(-1, 2), 1], [-1.0, 1]):
        with pytest.raises(TypeError):
            linalg.canonical_sign(bad)


def test_rational_sqrt():
    assert linalg.rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert linalg.rational_sqrt(Fraction(2)) is None
    assert linalg.rational_sqrt(Fraction(-1)) is None


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)], 1


def test_enumerate_ellipsoid_counts():
    eye = _identity(7)
    shells = linalg.enumerate_ellipsoid(eye, 1)
    assert {q: len(pts) for q, pts in shells.items()} == {0: 1, 1: 14}
    assert shells[0] == [(0,) * 7]
    shells2 = linalg.enumerate_ellipsoid(eye, 2)
    assert {q: len(pts) for q, pts in shells2.items()} == {0: 1, 1: 14, 2: 84}


def test_enumerate_ellipsoid_shifted():
    eye = _identity(2)
    # (x + 1/2)^2 + y^2 <= 1/4: x in {0, -1} with y = 0
    shells = linalg.enumerate_ellipsoid(eye, Fraction(1, 4), shift=[Fraction(1, 2), 0])
    assert shells == {Fraction(1, 4): [(-1, 0), (0, 0)]}


def test_enumerate_ellipsoid_general_gram():
    gram = ([[2, 1], [1, 2]], 1)
    shells = linalg.enumerate_ellipsoid(gram, 2)
    expected = {}
    for x in range(-3, 4):
        for y in range(-3, 4):
            q = 2 * x * x + 2 * x * y + 2 * y * y
            if q <= 2:
                expected.setdefault(q, []).append((x, y))
    assert list(shells.items()) == sorted(expected.items())


def _box_shells(gram, bound, shift):
    """Shells of Q(x + shift) <= bound by scanning a whole box, in int64."""
    G, d = gram
    r = len(G)
    (W,), e = linalg.clear_denominators([shift])
    # |x_i + w_i| <= sqrt(bound (gram^-1)_ii), widened by one
    inv = np.linalg.inv(np.array(G, dtype=float) / d)
    axes = []
    for i in range(r):
        half = np.sqrt(max(float(bound), 0.0) * inv[i, i]) + 1
        centre = -W[i] / e
        axes.append(np.arange(int(np.floor(centre - half)), int(np.ceil(centre + half)) + 1))
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, r)
    Y = e * X + np.array(W, dtype=np.int64)
    n = np.einsum("ij,jk,ik->i", Y, np.array(G, dtype=np.int64), Y)
    keep = n * bound.denominator <= bound.numerator * d * e * e
    out = {}
    for x, v in zip(X[keep].tolist(), n[keep].tolist()):
        out.setdefault(Fraction(v, d * e * e), []).append(tuple(x))
    return {q: sorted(out[q]) for q in sorted(out)}


def test_enumerate_ellipsoid_matches_box_scan():
    rng = np.random.default_rng(8)
    bounds = [Fraction(0), Fraction(-1), Fraction(-1, 3), Fraction(7, 3), Fraction(5, 2),
              Fraction(4), Fraction(11, 4)]
    for trial in range(240):
        rank = 1 + trial % 4
        den = 1 + (trial // 4) % 4
        M = rng.integers(-2, 3, size=(rank, rank))
        gram = (M.T @ M + np.eye(rank, dtype=np.int64)).tolist(), den
        kind = trial % 3
        if kind == 0:
            shift = [0] * rank
        elif kind == 1:
            shift = [int(v) for v in rng.integers(-3, 4, size=rank)]
        else:
            shift = [Fraction(int(rng.integers(-7, 8)), int(rng.integers(2, 7)))
                     for _ in range(rank)]
        bound = bounds[int(rng.integers(len(bounds)))]
        shells = linalg.enumerate_ellipsoid(gram, bound, shift=shift)
        expected = _box_shells(gram, bound, shift)
        assert list(shells.items()) == list(expected.items()), (trial, gram, bound, shift)
        if bound < 0:
            assert shells == {}


@pytest.mark.parametrize("gram", [[[0, 1], [1, 0]], [[1, 2], [2, 1]], [[1, 1], [1, 1]],
                                  [[1, 0], [0, -1]], [[2, 1], [0, 2]]])
def test_enumerate_ellipsoid_rejects_indefinite_or_singular(gram):
    with pytest.raises(ValueError):
        linalg.enumerate_ellipsoid((gram, 1), 3)


def _random_matrix(rng, rational):
    if rational:
        return [[Fraction(int(rng.integers(-5, 6)), int(rng.choice([1, 2, 3, 4, 7])))
                 for _ in range(7)] for _ in range(7)]
    return rng.integers(-3, 4, size=(7, 7)).tolist()


def test_compound_matches_submatrix_determinants():
    rng = np.random.default_rng(11)
    for rational in (False, False, True, True):
        a = _random_matrix(rng, rational)
        for p in range(1, 8):
            b, d = linalg.clear_denominators(a)
            C = linalg.int_compound(b, p)
            subsets = list(combinations(range(7), p))
            assert obj(C).shape == (len(subsets), len(subsets))
            for i, I in enumerate(subsets):
                for j, J in enumerate(subsets):
                    minor = linalg.clear_denominators([[a[r][c] for c in J] for r in I])
                    assert Fraction(C[i][j], d ** p) == linalg.det(minor)


def test_compound_selected_rows_and_bounds():
    rng = np.random.default_rng(12)
    b = rng.integers(-3, 4, size=(7, 7)).tolist()
    rows = [(0, 3, 5), (1, 2, 6)]
    full = linalg.int_compound(b, 3)
    position = {I: k for k, I in enumerate(combinations(range(7), 3))}
    assert linalg.int_compound(b, 3, rows) == tuple(full[position[I]] for I in rows)
    assert linalg.int_compound(b, 7) == ((linalg.det((b, 1)),),)
    with pytest.raises(ValueError):
        linalg.int_compound(b, 8)
    with pytest.raises(TypeError):
        linalg.int_compound([[Fraction(1, 2)]], 1)


def test_det_of_integer_matrix_is_exact():
    rng = np.random.default_rng(13)
    for n in range(1, 8):
        for _ in range(5):
            a = rng.integers(-4, 5, size=(n, n)).tolist()
            assert linalg.det((a, 1)) == _laplace_det(a)
            assert linalg.det((a, 1)).denominator == 1
    assert linalg.det(([[0, 1], [1, 0]], 1)) == -1
    assert linalg.det(linalg.clear_denominators([[Fraction(1, 2), 0], [0, 2]])) == 1


def test_integer_row_functions_reject_fractions():
    """rank, nullspace, primitive_integer and the pair readers take integer rows
    and clear nothing."""
    half = Fraction(1, 2)
    for call in (lambda: linalg.rank([[half, 1], [0, 1]]),
                 lambda: linalg.nullspace([[1, half, 0]]),
                 lambda: linalg.primitive_integer([half, 1, 2]),
                 lambda: linalg.rank([[1.0, 0], [0, 1]]),
                 lambda: linalg.det(([[half, 0], [0, 1]], 1)),
                 lambda: linalg.inverse(([[half, 0], [0, 1]], 1)),
                 lambda: linalg.positive_definite(([[1.0, 0], [0, 1]], 1))):
        with pytest.raises(TypeError):
            call()
    # an integral Fraction is still a Fraction
    with pytest.raises(TypeError):
        linalg.rank([[Fraction(2), 0], [0, 1]])


def test_int_matmul_of_pairs_matches_fraction_matmul():
    """Products of pairs (N, d) are int_matmul of the N over the product of the d."""
    rng = np.random.default_rng(14)
    for rational in (False, True):
        for shapes in (((7, 7), (7, 7)), ((3, 5), (5, 4), (4, 6)), ((1, 7), (7, 1))):
            factors = [
                [[Fraction(int(rng.integers(-5, 6)), int(rng.choice([1, 2, 3, 4, 7])))
                  if rational else int(rng.integers(-3, 4)) for _ in range(n)]
                 for _ in range(m)] for m, n in shapes]
            expected = obj(factors[0])
            for a in factors[1:]:
                expected = expected @ obj(a)
            N, d = linalg.clear_denominators(factors[0])
            for a in factors[1:]:
                M, e = linalg.clear_denominators(a)
                N, d = linalg.int_matmul(N, M), d * e
            assert obj(N).shape == expected.shape
            assert all(type(x) is int for row in N for x in row)
            assert all(Fraction(x, d) == y for row, exp in zip(N, expected) for x, y in zip(row, exp))


def test_clear_denominators_rejects_float_and_ragged_input():
    for bad in ([[1, 0], [0.5, 1]], np.eye(2), [[1.0]]):
        with pytest.raises(TypeError):
            linalg.clear_denominators(bad)
    with pytest.raises(ValueError):
        linalg.clear_denominators([[1, 2], [3]])
    assert linalg.clear_denominators([["1/2", 1], [0, Fraction(2, 3)]]) == (((3, 6), (0, 4)), 6)


def test_primitive_integer():
    cases = [
        ([4, -6, 0, 10], [2, -3, 0, 5]),
        (np.array([3, 9, -12], dtype=np.int64), [1, 3, -4]),
        ([Fraction(1, 2), Fraction(-1, 3), 2, Fraction(4, 6)], [3, -2, 12, 4]),
        ([-2, Fraction(-4, 3), -6], [-3, -2, -9]),
        ([0, 0, 0], [0, 0, 0]),
        ([], []),
    ]
    for vec, expected in cases:
        # primitive_integer takes integer rows, so a rational vector is cleared first
        (ints,), _ = linalg.clear_denominators([vec])
        out = linalg.primitive_integer(ints)
        assert type(out) is tuple and list(out) == expected
        assert all(type(x) is int for x in out)
