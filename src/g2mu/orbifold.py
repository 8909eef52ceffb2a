"""Finite groups of affine torus automorphisms and their G2 compatibility.

Group elements are pairs (A, t) in SL(7,Z) x T^7 acting on the torus by
x -> A x + t.  Translations are kept as exact reduced rationals in [0,1)
so that the characters and twist phases computed downstream are exact
roots of unity.
"""

from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import index

from . import linalg
from .exterior import DIM, IDENTITY
from .g2 import G2Structure


class NonUnimodular(ValueError):
    """A matrix part fails det = +1."""


class NonFinite(ValueError):
    """A generator has infinite order, or group closure exceeded the safety cap."""


class NotG2Compatible(ValueError):
    """Some element does not preserve the candidate G2-structure."""

    def __init__(self, element, message=None):
        self.element = element
        super().__init__(message or f"element {element} does not preserve the 3-form")


DEFAULT_CAP = 10_000

# The largest finite order of an element of GL(7,Z).  An element of finite
# order m has an eigenvalue that is a primitive d-th root of unity for each
# d in some set with lcm m, and its characteristic polynomial holds the
# cyclotomic factors Phi_d, of degrees phi(d) summing to at most 7; the
# largest lcm is lcm(5, 3, 2) = 30, from degrees 4 + 2 + 1.
MAX_FINITE_ORDER = 30


def _reduce_mod1(t):
    return tuple(linalg.frac(x) % 1 for x in t)


_ZERO = _reduce_mod1((0,) * DIM)


class AffineElement(namedtuple("AffineElement", "matrix translation")):
    """An element (A, t) of SL(7,Z) x T^7, acting by x -> A x + t."""
    __slots__ = ()

    def __new__(cls, matrix, translation=None):
        mat = tuple(tuple(index(x) for x in row) for row in matrix)
        if len(mat) != DIM or any(len(r) != DIM for r in mat):
            raise ValueError("matrix must be 7x7")
        if linalg.det((mat, 1)) != 1:
            raise NonUnimodular("matrix part must have determinant +1")
        if translation is None:
            translation = (0,) * DIM
        trans = _reduce_mod1(translation)
        if len(trans) != DIM:
            raise ValueError("translation must have 7 entries")
        return super().__new__(cls, mat, trans)

    @classmethod
    def identity(cls):
        return cls._make((IDENTITY[0], _ZERO))

    def is_identity(self):
        return self.matrix == IDENTITY[0] and self.translation == _ZERO

    def __repr__(self):
        diag = all(self.matrix[i][j] == 0 for i in range(DIM) for j in range(DIM) if i != j)
        mat = f"diag{tuple(self.matrix[i][i] for i in range(DIM))}" if diag else f"{self.matrix}"
        return f"AffineElement({mat}, t={tuple(str(x) for x in self.translation)})"


def compose(a, b):
    """Group law for the action x -> Ax + t:  (A1,t1)(A2,t2) = (A1 A2, A1 t2 + t1).

    The product of two elements of SL(7,Z) is in SL(7,Z), so nothing is
    re-checked; A1 t2 + t1 is taken in ints over the translations' common
    denominator d and reduced mod 1 once per entry.
    """
    d = lcm(*(x.denominator for x in a.translation), *(x.denominator for x in b.translation))
    t2 = [x.numerator * (d // x.denominator) for x in b.translation]
    trans = tuple(Fraction((sum(m * x for m, x in zip(row, t2))
                            + s.numerator * (d // s.denominator)) % d, d)
                  for row, s in zip(a.matrix, a.translation))
    return AffineElement._make((linalg.int_matmul(a.matrix, b.matrix), trans))


class OrbifoldGroup(tuple):
    """A finite subgroup of SL(7,Z) x T^7 as `generate` closes it: the tuple
    of its elements, identity first."""
    __slots__ = ()

    def __new__(cls, elements):
        elems = list(elements)
        ident = AffineElement.identity()
        if ident not in elems:
            raise ValueError("group must contain the identity")
        return super().__new__(cls, [ident] + sorted((e for e in elems if e != ident), key=repr))


def _has_finite_order(matrix):
    """Whether A^k = I for some k <= MAX_FINITE_ORDER, for an integer 7x7 A."""
    power = matrix
    for _ in range(MAX_FINITE_ORDER):
        if power == IDENTITY[0]:
            return True
        power = linalg.int_matmul(power, matrix)
    return False


def generate(generators, cap=DEFAULT_CAP):
    """The group the generators generate, closed under composition alone.

    Raises NonFinite at once if a generator's linear part A has no A^k = I
    with k <= 30, the largest finite order in GL(7,Z) (MAX_FINITE_ORDER).
    With rational translations each generator then has finite order, so its
    inverse is one of its powers and the products of generators already make
    up the whole group: no inverse is taken.  Raises NonFinite if the closure
    would exceed `cap` elements and NonUnimodular if any generator is outside
    SL(7,Z) (checked on construction of the AffineElements themselves).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    gens = list(generators)
    for gen in gens:
        if not _has_finite_order(gen.matrix):
            raise NonFinite(f"generator {gen} has infinite order: no A^k = I for "
                            f"k <= {MAX_FINITE_ORDER}")
    seen = {AffineElement.identity()}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for gen in gens:
                y = compose(x, gen)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > cap:
                        raise NonFinite(f"group closure exceeded cap = {cap}")
        frontier = nxt
    return OrbifoldGroup(seen)


class JoyceOrbifold(namedtuple("JoyceOrbifold", "group structure")):
    """A finite group together with a G2-structure that every element preserves."""
    __slots__ = ()


def validate_joyce(group, frame=None):
    """Check F A F^-1 in G2 for every element; assemble the orbifold.

    The membership test is the pullback condition A*(F*phi0) = F*phi0, in
    exact integer arithmetic, once per distinct matrix part; the frame is a
    pair (N, d) as in `linalg`, or None for the identity (a float in N raises
    TypeError).  Raises NotG2Compatible naming the first failing element in
    the group's order.
    """
    structure = G2Structure(frame)
    passed = set()
    for elem in group:
        if elem.matrix not in passed:
            if not structure.is_g2_element((elem.matrix, 1)):
                raise NotG2Compatible(elem)
            passed.add(elem.matrix)
    return JoyceOrbifold(group, structure)
