"""End-to-end checks beyond the golden examples: a non-diagonal group of
order 9 (order-3 permutation part with a 1/3 translation) and a
non-identity frame.  These exercise complex root-of-unity phases,
non-coordinate fixed lattices and non-Euclidean metric paths."""

from fractions import Fraction

import mpmath
import pytest

from g2mu import epstein as ez
from g2mu import oracle as orc
from g2mu.epstein import closed_form_mu, fixed_lattice, value_at_zero
from g2mu.exterior import Metric7
from g2mu.invariants import mu_invariants
from g2mu.orbifold import AffineElement, generate, validate_joyce


def diag(*entries):
    return [[entries[i] if i == j else 0 for j in range(7)] for i in range(7)]


def order3_element():
    # coordinate permutation (1)(2 4 6)(3 5 7) preserves the model 3-form;
    # the 1/3 shift along axis 2 makes the affine element order 9
    p = (1, 4, 5, 6, 7, 2, 3)
    A = [[0] * 7 for _ in range(7)]
    for j in range(1, 8):
        A[p[j - 1] - 1][j - 1] = 1
    return AffineElement(A, [0, Fraction(1, 3), 0, 0, 0, 0, 0])


@pytest.fixture(scope="module")
def z9():
    return validate_joyce(generate([order3_element()]))


@pytest.fixture(scope="module")
def framed():
    frame = [[2 if i == j == 0 else (1 if i == j else 0) for j in range(7)]
             for i in range(7)]
    return validate_joyce(generate([AffineElement(diag(1, 1, 1, -1, -1, -1, -1))]),
                          frame=(frame, 1))


def test_z9_group_and_invariants(z9):
    assert len(z9.group) == 9
    pair = mu_invariants(z9)
    assert pair.mu3.denominator == 1 and pair.mu4.denominator == 1


def test_z9_oracle_equivalence_with_third_roots(z9):
    # radius 3 reaches the fixed vectors (0,1,0,1,0,1,0)-type carrying
    # phase exponents 1/3 and 2/3
    saw_third = False
    for cls in orc.enumerate_classes(z9, 3):
        for kind in ("H", "Hprime"):
            assert orc.invariant_dimension_bruteforce(z9, cls, kind) == \
                orc.invariant_dimension_formula(z9, cls, kind)
        if cls.norm_sq == 3:
            saw_third = True
    assert saw_third


def test_z9_twisted_zeta_values(z9):
    g = Metric7.euclidean()
    twists = set()
    for e in z9.group:
        lat = fixed_lattice(e, g)
        twists.update(lat.twist)
        assert abs(value_at_zero(lat) + 1) < 1e-6
    assert Fraction(1, 3) in twists or Fraction(2, 3) in twists
    bridge = closed_form_mu(z9)
    exact = mu_invariants(z9)
    assert abs(bridge.mu3 - float(exact.mu3)) < 1e-6
    assert abs(bridge.mu4 - float(exact.mu4)) < 1e-6


def test_third_root_twist_matches_closed_form():
    # rank-1 lattice twisted by 1/3: Z(s) = (3^{1-2s} - 1) zeta(2s)
    lat = ez.TwistedLattice(1, ((1, 0, 0, 0, 0, 0, 0),), (((1,),), 1), (Fraction(1, 3),))
    for s in (2.0, 1.2, 0.6, -0.4):
        val = ez.epstein_value(lat, s)
        ref = complex((3 ** (1 - 2 * s) - 1) * mpmath.zeta(2 * s))
        assert abs(val - ref) < 1e-9 * max(1.0, abs(ref)), s
    assert abs(value_at_zero(lat) + 1) < 1e-12


# a frame with an off-diagonal entry, so that its Gram matrix is not diagonal
SHEARED_FRAME = [[1, 1, 0, 0, 0, 0, 0],
                 [0, 1, 0, 0, 0, 0, 0],
                 [0, 0, 2, 0, 0, 0, 0],
                 [0, 0, 0, 1, 0, 0, 0],
                 [0, 0, 0, 0, 1, 0, 0],
                 [0, 0, 0, 0, 0, 1, 0],
                 [0, 0, 0, 0, 0, 0, 1]]


def test_framed_structure_satisfies_refined_calculus(framed):
    from g2mu import fourier as fr
    from g2mu.g2 import G2Structure
    for structure in (framed.structure, G2Structure((SHEARED_FRAME, 1))):
        report = fr.verify_appendix(structure, trials=3, seed=1)
        assert max(report["identities"].values()) <= 1e-9


def test_framed_orbifold_end_to_end(framed):
    pair = mu_invariants(framed)
    assert (pair.mu3, pair.mu4) == (-4, -8)   # frame independent
    for cls in orc.enumerate_classes(framed, 4):
        for kind in ("H", "Hprime"):
            assert orc.invariant_dimension_bruteforce(framed, cls, kind) == \
                orc.invariant_dimension_formula(framed, cls, kind)
    # norms come from the frame metric diag(4,1,...,1)
    norms = [cls.norm_sq for cls in orc.enumerate_classes(framed, 4)]
    assert Fraction(4) in norms and Fraction(1) in norms
    for e in framed.group:
        lat = fixed_lattice(e, framed.structure.metric)
        assert abs(value_at_zero(lat) + 1) < 1e-6
    bridge = closed_form_mu(framed)
    assert abs(bridge.mu3 + 4) < 1e-6 and abs(bridge.mu4 + 8) < 1e-6
