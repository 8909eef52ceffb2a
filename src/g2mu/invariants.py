"""Closed-form mu_3 / mu_4 invariants of a flat G2 orbifold.

Both invariants are group averages of degree <= 3 trace polynomials of the
matrix parts, evaluated in integer arithmetic:

    tr8(A)  = (Tr(A)^2 - Tr(A^2))/2 - 2 Tr(A) + 1
    tr12(A) = (Tr(A)^3 + 2 Tr(A^3) - 3 Tr(A^2) Tr(A))/6
              - (Tr(A)^2 - Tr(A^2))/2 - 2

    mu_3 = -(1/|G|) sum tr8(A),   mu_4 = -(1/|G|) sum tr12(A).

tr8(A) and tr12(A) are the traces of A acting on the 8- and 12-dimensional
pieces of Lambda^2_14 and Lambda^3_27 cut out by a fixed unit direction;
see the spectral oracle module for the direct verification of that fact.
By Newton's identities Tr Lambda^2 A = (Tr(A)^2 - Tr(A^2))/2 and
Tr Lambda^3 A = (Tr(A)^3 + 2 Tr(A^3) - 3 Tr(A^2) Tr(A))/6, so

    tr8(A)  = Tr Lambda^2 A - 2 Tr A + 1,
    tr12(A) = Tr Lambda^3 A - Tr Lambda^2 A - 2.

The traces Tr A, Tr A^2, Tr A^3 are taken once per distinct matrix.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import index

from . import linalg


def _traces(A):
    """(Tr A, Tr A^2, Tr A^3), taken once per distinct matrix in a process; the
    entries are read through operator.index, so a float or a Fraction raises
    TypeError."""
    return _integer_traces(tuple(tuple(map(index, row)) for row in A))


@lru_cache(maxsize=None)
def _integer_traces(mat):
    n = len(mat)
    A2 = linalg.int_matmul(mat, mat)
    A3 = linalg.int_matmul(A2, mat)
    tr = sum(mat[i][i] for i in range(n))
    tr2 = sum(A2[i][i] for i in range(n))
    tr3 = sum(A3[i][i] for i in range(n))
    return tr, tr2, tr3


def tr8_su3(A):
    """Trace polynomial (Tr^2 - Tr(A^2))/2 - 2 Tr + 1; exact Fraction."""
    tr, tr2, _ = _traces(A)
    return Fraction(tr * tr - tr2, 2) - 2 * tr + 1


def tr12_su3(A):
    """Trace polynomial of degree 3; exact Fraction."""
    tr, tr2, tr3 = _traces(A)
    return Fraction(tr ** 3 + 2 * tr3 - 3 * tr2 * tr, 6) - Fraction(tr * tr - tr2, 2) - 2


InvariantPair = namedtuple("InvariantPair", "mu3 mu4")


def mu_invariants(orbifold):
    """Exact mu_3 and mu_4 of a validated orbifold (matrix parts only)."""
    group = orbifold.group
    n = len(group)
    s8 = sum(tr8_su3(e.matrix) for e in group)
    s12 = sum(tr12_su3(e.matrix) for e in group)
    return InvariantPair(mu3=Fraction(-s8, n), mu4=Fraction(-s12, n))
