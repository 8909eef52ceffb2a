import time
from fractions import Fraction

import numpy as np
import pytest

from g2mu import linalg
from g2mu.exterior import pullback
from g2mu.orbifold import (AffineElement, NonFinite, NonUnimodular,
                           NotG2Compatible, compose, generate, validate_joyce)


def diag(*entries):
    return [[entries[i] if i == j else 0 for j in range(7)] for i in range(7)]


ALPHA = AffineElement(diag(1, 1, 1, -1, -1, -1, -1))
BETA = AffineElement(diag(1, -1, -1, 1, 1, -1, -1), [0, 0, 0, 0, 0, 0, Fraction(1, 2)])
GAMMA = AffineElement(diag(-1, 1, -1, 1, -1, 1, -1),
                      [0, 0, Fraction(1, 2), 0, 0, 0, Fraction(1, 2)])


def test_translation_reduced_mod_one():
    e = AffineElement(diag(1, 1, 1, 1, 1, 1, 1), [Fraction(3, 2), -Fraction(1, 4), 0, 0, 0, 0, 2])
    assert e.translation == (Fraction(1, 2), Fraction(3, 4), 0, 0, 0, 0, 0)


def test_unimodularity_enforced():
    with pytest.raises(NonUnimodular):
        AffineElement(diag(-1, 1, 1, 1, 1, 1, 1))


def test_non_integer_matrix_entries_rejected():
    for bad in (Fraction(1, 2), 0.7):
        m = diag(1, 1, 1, 1, 1, 1, 1)
        m[0][1] = bad
        with pytest.raises(TypeError):
            AffineElement(m)


def _g24_generators():
    """alpha with translation 1/2 and the 3-cycle (2 4 6)(3 5 7) with
    translation 1/3, both along axis 1."""
    perm = (0, 3, 4, 5, 6, 1, 2)
    return [AffineElement(ALPHA.matrix, [Fraction(1, 2), 0, 0, 0, 0, 0, 0]),
            AffineElement([[int(i == perm[j]) for j in range(7)] for i in range(7)],
                          [Fraction(1, 3), 0, 0, 0, 0, 0, 0])]


def _power(g, k):
    p = AffineElement.identity()
    for _ in range(k):
        p = compose(p, g)
    return p


def test_compose_unit_and_inverse():
    e = AffineElement.identity()
    for g in (ALPHA, BETA, GAMMA, _g24_generators()[1]):
        assert compose(e, g) == g
        assert compose(g, e) == g
        # an element of order k has the inverse g^(k-1)
        k = next(k for k in range(1, 31) if _power(g, k) == e)
        assert compose(g, _power(g, k - 1)) == e
        assert compose(_power(g, k - 1), g) == e


def test_compose_alpha_beta_matches_hand_computation():
    ab = compose(ALPHA, BETA)
    assert ab.matrix == tuple(map(tuple, diag(1, -1, -1, -1, -1, 1, 1)))
    assert ab.translation == (0, 0, 0, 0, 0, 0, Fraction(1, 2))
    # a product is the same value, and the same set member, as the element built directly
    built = AffineElement(diag(1, -1, -1, -1, -1, 1, 1), [0, 0, 0, 0, 0, 0, Fraction(1, 2)])
    assert ab == built and len({ab, built}) == 1


def test_compose_associative():
    for x in (ALPHA, BETA):
        for y in (BETA, GAMMA):
            for z in (ALPHA, GAMMA):
                assert compose(compose(x, y), z) == compose(x, compose(y, z))


def test_apply_action():
    x = [Fraction(1, 3)] * 7
    # x -> A x + t (mod 1)
    y = [(sum(a * v for a, v in zip(row, x)) + t) % 1
         for row, t in zip(BETA.matrix, BETA.translation)]
    assert y[0] == Fraction(1, 3) and y[1] == Fraction(2, 3)
    assert y[6] == (Fraction(1, 2) - Fraction(1, 3)) % 1


def test_generate_orders():
    assert len(generate([])) == 1
    assert len(generate([ALPHA])) == 2
    assert len(generate([ALPHA, BETA])) == 4
    assert len(generate([ALPHA, BETA, GAMMA])) == 8
    # closed under the generators alone, the group still holds every inverse
    g24 = set(generate(_g24_generators()))
    assert len(g24) == 24
    e = AffineElement.identity()
    assert all(any(compose(g, h) == e for h in g24) for g in g24)


def test_generate_cap():
    with pytest.raises(NonFinite):
        generate([ALPHA, BETA, GAMMA], cap=4)
    # a genuinely infinite group trips the default cap instead of hanging
    shear = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
    shear[0][1] = 1
    with pytest.raises(NonFinite):
        generate([AffineElement(shear)], cap=50)


def _shear():
    shear = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
    shear[0][1] = 1
    return shear


def test_infinite_order_generator_rejected_at_once():
    start = time.perf_counter()
    with pytest.raises(NonFinite, match="infinite order"):
        generate([ALPHA, AffineElement(_shear())])
    assert time.perf_counter() - start < 1.0


def test_order_30_generator_is_accepted():
    # companion matrices of Phi_10 (order 10) and Phi_3 (order 3): order 30,
    # the largest finite order in GL(7,Z)
    A = [[0] * 7 for _ in range(7)]
    for i, c in enumerate((-1, 1, -1, 1)):
        A[i][3] = c
    for i in range(1, 4):
        A[i][i - 1] = 1
    A[4][5], A[5][4], A[5][5], A[6][6] = -1, 1, -1, 1
    assert len(generate([AffineElement(A)])) == 30


def test_generate_idempotent():
    g = generate([ALPHA, BETA])
    again = generate(list(g))
    assert set(again) == set(g)


def test_validate_joyce_examples():
    assert len(validate_joyce(generate([])).group) == 1
    orb = validate_joyce(generate([ALPHA, BETA, GAMMA]))
    assert len(orb.group) == 8
    for value, field in ((ALPHA, "matrix"), (ALPHA, "translation"), (orb.group, "elements"),
                         (orb, "group"), (orb, "structure")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)


def test_validate_joyce_rejects_non_g2():
    bad = AffineElement(diag(-1, -1, 1, 1, 1, 1, 1))
    with pytest.raises(NotG2Compatible) as err:
        validate_joyce(generate([bad]))
    assert err.value.element.matrix == bad.matrix


def test_elements_preserve_metric():
    orb = validate_joyce(generate([ALPHA, BETA, GAMMA]))
    G, _ = orb.structure.metric.gram
    for e in orb.group:
        A = np.array(e.matrix, dtype=object)
        assert np.equal(A.T @ np.array(G, dtype=object) @ A, G).all()


def test_matrix_parts_have_finite_order():
    orb = validate_joyce(generate([ALPHA, BETA, GAMMA]))
    for e in orb.group:
        A = np.array(e.matrix, dtype=np.int64)
        P = np.eye(7, dtype=np.int64)
        for _ in range(16):
            P = P @ A
            if np.array_equal(P, np.eye(7, dtype=np.int64)):
                break
        else:
            pytest.fail("element of infinite order")


def test_validate_joyce_rational_frame_names_first_non_member():
    # under the shear-and-scale frame F, F A F^-1 stays in G2 for ALPHA
    # (it commutes with F) but not for BETA or GAMMA
    frame = [[Fraction(1) if i == j else 0 for j in range(7)] for i in range(7)]
    frame[0][1] = Fraction(1, 2)
    frame[6][6] = Fraction(3)
    frame = linalg.clear_denominators(frame)
    group = generate([ALPHA, BETA, GAMMA])
    structure = validate_joyce(generate([ALPHA]), frame).structure
    expected = next(e for e in group
                    if pullback((e.matrix, 1), structure.phi) != structure.phi)
    assert expected.matrix != ALPHA.matrix
    with pytest.raises(NotG2Compatible) as err:
        validate_joyce(group, frame)
    assert err.value.element == expected
    assert repr(expected) in str(err.value)
