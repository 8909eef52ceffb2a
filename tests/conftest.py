import pytest

from g2mu import g2, linalg
from g2mu.exterior import DIM
from g2mu.g2 import G2Structure


@pytest.fixture(scope="session")
def phi0_symmetry_group():
    """The closure of `g2.symmetry_generators` under composition, under the
    identity frame: a set of integer matrices."""
    generators = g2.symmetry_generators(G2Structure())
    identity = tuple(tuple(int(i == j) for j in range(DIM)) for i in range(DIM))
    group, frontier = {identity}, [identity]
    while frontier:
        frontier = [y for x in frontier for y in (linalg.int_matmul(x, g) for g in generators)
                    if y not in group and not group.add(y)]
    return group
