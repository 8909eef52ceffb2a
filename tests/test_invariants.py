import json
from fractions import Fraction
from pathlib import Path

import pytest

from g2mu import cli
from g2mu.exterior import pullback_matrix
from g2mu.g2 import symmetry_generators
from g2mu.invariants import mu_invariants, tr8_su3, tr12_su3
from g2mu.orbifold import AffineElement, generate, validate_joyce


def diag(*entries):
    return [[entries[i] if i == j else 0 for j in range(7)] for i in range(7)]


IDENTITY = diag(1, 1, 1, 1, 1, 1, 1)
ALPHA_MAT = diag(1, 1, 1, -1, -1, -1, -1)

ALPHA = AffineElement(ALPHA_MAT)
BETA = AffineElement(diag(1, -1, -1, 1, 1, -1, -1), [0, 0, 0, 0, 0, 0, Fraction(1, 2)])
GAMMA = AffineElement(diag(-1, 1, -1, 1, -1, 1, -1),
                      [0, 0, Fraction(1, 2), 0, 0, 0, Fraction(1, 2)])


def rotation_block_matrix():
    # order-3 rotation in three 2x2 blocks plus a fixed axis
    R = [[0, -1], [1, -1]]
    M = [[0] * 7 for _ in range(7)]
    M[0][0] = 1
    for b in range(3):
        for i in range(2):
            for j in range(2):
                M[1 + 2 * b + i][1 + 2 * b + j] = R[i][j]
    return M


def test_trace_polynomials_on_identity():
    assert tr8_su3(IDENTITY) == 8
    assert tr12_su3(IDENTITY) == 12


def test_trace_polynomials_reject_non_integer_entries():
    """A float or a Fraction entry raises TypeError rather than being truncated
    (int(1.5) == 1 would give the identity's tr8 of 8)."""
    for x in (1.5, Fraction(3, 2)):
        bad = diag(1, 1, 1, 1, 1, 1, 1)
        bad[6][6] = x
        for poly in (tr8_su3, tr12_su3):
            with pytest.raises(TypeError):
                poly(bad)


def test_trace_polynomials_on_involution():
    assert tr8_su3(ALPHA_MAT) == 0
    assert tr12_su3(ALPHA_MAT) == 4


def test_trace_polynomials_on_rotation_blocks():
    M = rotation_block_matrix()
    assert tr8_su3(M) == 8
    assert tr12_su3(M) == -6


@pytest.mark.parametrize("gens,expected", [
    ([], (-8, -12)),
    ([ALPHA], (-4, -8)),
    ([ALPHA, BETA], (-2, -6)),
    ([ALPHA, BETA, GAMMA], (-1, -5)),
])
def test_golden_invariants(gens, expected):
    orb = validate_joyce(generate(gens))
    pair = mu_invariants(orb)
    assert (pair.mu3, pair.mu4) == expected
    assert len(orb.group) % pair.mu3.denominator == 0
    assert len(orb.group) % pair.mu4.denominator == 0


def test_frame_independence():
    orb1 = validate_joyce(generate([ALPHA]))
    scaled = [[2 if i == j else 0 for j in range(7)] for i in range(7)]
    orb2 = validate_joyce(generate([ALPHA]), frame=(scaled, 1))
    assert mu_invariants(orb1) == mu_invariants(orb2)


def test_translation_independence():
    moved = AffineElement(ALPHA_MAT, [0, 0, 0, Fraction(1, 2), 0, 0, Fraction(1, 2)])
    orb1 = validate_joyce(generate([ALPHA]))
    orb2 = validate_joyce(generate([moved]))
    assert len(orb2.group) == 2
    assert mu_invariants(orb1) == mu_invariants(orb2)


def test_trivial_group_matches_trace_of_identity():
    orb = validate_joyce(generate([]))
    pair = mu_invariants(orb)
    assert pair.mu3 == -tr8_su3(IDENTITY)
    assert pair.mu4 == -tr12_su3(IDENTITY)


def _trace(M):
    return sum(row[i] for i, row in enumerate(M))


def test_trace_polynomials_are_traces_of_exterior_powers(phi0_symmetry_group):
    """tr8 = Tr L2 A - 2 Tr A + 1 and tr12 = Tr L3 A - Tr L2 A - 2, with
    Tr LpA the trace of `exterior.pullback_matrix` at grade p: on the 1,344
    signed permutations that fix phi0 and on the matrix parts and symmetry
    generators of tests/data/m1-sheared-parts.json, most of which are no
    signed permutations."""
    raw = json.loads((Path(__file__).parent / "data" / "m1-sheared-parts.json").read_text())
    sheared = cli.build_orbifold(cli.parse_config(raw))
    matrices = sorted(phi0_symmetry_group)
    matrices += [e.matrix for e in sheared.group] + list(symmetry_generators(sheared.structure))
    for A in matrices:
        l2, l3 = (_trace(pullback_matrix((A, 1), p)[0]) for p in (2, 3))
        assert (tr8_su3(A), tr12_su3(A)) == (l2 - 2 * _trace(A) + 1, l3 - l2 - 2), A
