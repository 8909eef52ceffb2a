"""Twisted Epstein zeta functions and the regularisation constant at s = 0.

For a rank-r lattice with positive-definite Gram matrix Q and a rational
twist covector w, the series

    Z(s) = sum_{x in Z^r, x != 0} e^{2 pi i <w, x>} / Q(x)^s

converges for Re(s) > r/2.  Splitting the Mellin integral of the twisted
theta function at 1 and applying the theta transformation to the lower
piece gives the meromorphic continuation

    pi^-s Gamma(s) Z(s) =
        - 1/s  -  [w integral] * det(Q)^(-1/2) / (s - r/2)
        + sum_{x != 0}   e(q(x)) (pi Q(x))^-s      Gamma(s, pi Q(x))
        + det(Q)^(-1/2) sum_{m + w != 0} (pi Q*(m+w))^(s - r/2) Gamma(r/2 - s, pi Q*(m+w)),

where Q* is the dual form (inverse Gram) and both sums converge like
exp(-pi Q).  Dividing by Gamma(s) (a zero at s = 0) leaves the boundary
term -1/s as the only contribution at s = 0, so the continued value there
is -1 for every rank and every twist, and `epstein_value` returns it at
s = 0 without enumerating anything.  The sums are what make the formula
correct away from 0, and they are cross-checked against direct summation
and classical closed forms in the test suite.  Both run over the exact
lattice shells of `linalg.enumerate_ellipsoid`, on Q rescaled to
determinant about 1, each point with its twist residue (`_shell_sums`).
Gram matrices are integer pairs (N, d) meaning N / d, as in `linalg`;
twists stay Fraction vectors.
An element's twisted fixed lattice (`fixed_lattice`) is also the spectral
oracle's source for the modes it fixes and their phases.
mpmath is imported only past the s = 0 return, so the value at 0, and every
command that needs no other value, runs without it.
"""

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import linalg
from .exterior import DIM
from .invariants import InvariantPair, tr8_su3, tr12_su3

_DPS = 30  # working precision of the incomplete-gamma sums, in digits


class PoleEncountered(ValueError):
    """Evaluation requested at the pole s = rank/2 of an untwisted lattice."""


class TwistedLattice(namedtuple("TwistedLattice", "rank basis gram twist")):
    """A sublattice of Z^7 with induced Gram matrix and rational phase twist:
    `basis` holds rank integer vectors in Z^7 (rows), `gram` the rank x rank
    rational Gram as the pair (N, d), and `twist` rank rational exponents,
    the phase of x being e(sum w_i x_i)."""
    __slots__ = ()

    def is_twist_trivial(self):
        return all(w == 0 for w in self.twist)


def fixed_lattice(element, metric):
    """The fixed lattice {l in Z^7 : A l = l} of a group element, with twist.

    The one source for which modes l = x B an element fixes and their phases
    e(q(x)): B is an integer-kernel basis, and with the metric's Gram
    G = (N, d) the Gram B G B^T = (B N B^T, d) and the twist B G t mod 1,
    with q(x) = g(x B, t) mod 1, are integer products.  B, B N and the
    Gram depend on the matrix part and the metric alone and are built once
    per pair (`_fixed_sublattice`); only the twist is the element's own.
    A zero-rank kernel cannot occur in a finite group and is rejected.
    """
    basis, BN, gram = _fixed_sublattice(element.matrix, metric.gram)
    twist = tuple(Fraction(x, gram[1]) % 1 for x in linalg.matvec(BN, element.translation))
    return TwistedLattice(rank=len(basis), basis=basis, gram=gram, twist=twist)


@lru_cache(maxsize=None)
def _fixed_sublattice(A, gram):
    """(B, B N, (B N B^T, d)) for the kernel basis B of A - I and the Gram G = (N, d)."""
    m = [[A[i][j] - (1 if i == j else 0) for j in range(DIM)] for i in range(DIM)]
    kernel = tuple(linalg.integer_kernel(m))
    if not kernel:
        raise ValueError("fixed lattice is zero; element is not a valid input")
    N, d = gram
    BN = linalg.int_matmul(kernel, N)
    return kernel, BN, (linalg.int_matmul(BN, linalg.transpose(kernel)), d)


def _shell_sums(gram, bound, twist=None, shift=None):
    """{exact Q: complex phase sum} over the nonzero shells of
    `linalg.enumerate_ellipsoid`, with Q taken at x + shift; the shell Q = 0
    (the origin, or the coset point x + shift = 0) is dropped.  The twist is
    cleared once to T / f (none means 0), and each shell counts its points
    per residue k = T . x mod f and takes one phase e(k / f) per residue,
    exact at 1 and -1."""
    shells = linalg.enumerate_ellipsoid(gram, bound, shift=shift)
    shells.pop(Fraction(0), None)
    (T,), f = linalg.clear_denominators([twist if twist is not None else [0] * len(gram[0])])
    phases = [1.0 + 0j if k == 0 else -1.0 + 0j if 2 * k == f
              else cmath.exp(2j * math.pi * (k / f)) for k in range(f)]
    out = {}
    for q, pts in shells.items():
        counts = [0] * f
        for x in pts:
            counts[sum(map(mul, T, x)) % f] += 1
        out[q] = sum(c * phases[k] for k, c in enumerate(counts) if c)
    return out


def _cutoff(s):
    # terms decay like exp(-pi Q) with an algebraic prefactor; pi*16 ~ 1e-18
    sigma = abs(complex(s).real) + abs(complex(s).imag)
    return Fraction(max(16, math.ceil(2 * sigma + 8)))


def epstein_value(lat, s):
    """Analytic continuation of the twisted Epstein zeta function at s.

    Valid at every complex s except the pole s = rank/2 of the untwisted
    case.  In the convergence region it agrees with the direct series;
    everywhere it is computed from two exponentially convergent
    incomplete-gamma sums plus explicit boundary terms, taken over lam Q for
    a rational lam near det(Q)^(-1/r) so that both sums cost about the same;
    Z_Q(s) = lam^s Z_{lam Q}(s) undoes the scaling.
    """
    s = complex(s)
    if s == 0:
        # every term but the boundary term -1/Gamma(s + 1) carries the factor s
        return complex(-1)
    r = lat.rank
    trivial = lat.is_twist_trivial()
    if trivial and abs(s - r / 2) < 1e-12:
        raise PoleEncountered(f"s = rank/2 = {r/2} is a pole of the untwisted zeta")
    import mpmath
    lam = max(Fraction(float(linalg.det(lat.gram)) ** (-1 / r)).limit_denominator(64),
              Fraction(1, 64))
    N, d = lat.gram
    gram = tuple(tuple(x * lam.numerator for x in row) for row in N), d * lam.denominator
    with mpmath.workdps(_DPS):
        ms = mpmath.mpc(s)
        det = linalg.det(gram)
        det_root = mpmath.sqrt(mpmath.mpf(det.numerator) / det.denominator)
        inv_gram = linalg.inverse(gram)

        cut = _cutoff(s)
        s1 = _gamma_sum(_shell_sums(gram, cut, twist=lat.twist), ms)
        dual = _shell_sums(inv_gram, cut, shift=[x % 1 for x in lat.twist])
        s2 = _gamma_sum(dual, r / 2 - ms) / det_root

        # Z(s) = pi^s [ -1/G(s+1) + s c /((s - r/2) G(s+1)) + s (S1+S2)/G(s+1) ]
        # with c = det^-1/2 present only when the twist is trivial (the
        # dual theta series then has a constant term)
        g1 = mpmath.gamma(ms + 1)
        total = -1 / g1
        if trivial:
            total += ms / ((ms - mpmath.mpf(r) / 2) * g1 * det_root)
        total += ms * (s1 + s2) / g1
        total *= mpmath.pi ** ms * (mpmath.mpf(lam.numerator) / lam.denominator) ** ms
        out = complex(total)
    return out


def _gamma_sum(shells, e):
    """sum over the shells {Q: c} of c Gamma(e, pi Q) (pi Q)^-e."""
    import mpmath
    total = mpmath.mpc(0)
    for q_val, c in sorted(shells.items()):
        a = mpmath.pi * mpmath.mpf(q_val.numerator) / q_val.denominator
        total += c * mpmath.gammainc(e, a) * a ** (-e)
    return total


def value_at_zero(lat):
    """The continued value at s = 0: -1, the boundary term -1/Gamma(1).

    The sums and the pole term carry the factor s and vanish there; they,
    and so this limit, are checked against direct summation away from 0 and
    by continuity at s = +-1e-6.
    """
    return epstein_value(lat, 0.0).real


def closed_form_mu(orbifold):
    """mu_3 and mu_4 assembled from zeta values at 0, element by element.

    Demonstrates the regularisation route numerically: each element
    contributes its trace polynomial times the continued value at 0 of its
    fixed lattice's twisted zeta.  Must agree with the exact invariants.
    """
    n = len(orbifold.group)
    total3 = total4 = 0.0
    for element in orbifold.group:
        z0 = value_at_zero(fixed_lattice(element, orbifold.structure.metric))
        total3 += float(tr8_su3(element.matrix)) * z0
        total4 += float(tr12_su3(element.matrix)) * z0
    return InvariantPair(mu3=total3 / n, mu4=total4 / n)
