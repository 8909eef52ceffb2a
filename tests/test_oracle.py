import json
import re
import signal
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from g2mu import cli, g2, linalg
from g2mu import fourier as fr
from g2mu import oracle as orc
from g2mu.exterior import pullback_matrix
from g2mu.g2 import G2Structure, typed_contraction_kernel
from g2mu.orbifold import AffineElement, JoyceOrbifold, generate, validate_joyce


def diag(*entries):
    return [[entries[i] if i == j else 0 for j in range(7)] for i in range(7)]


def frame_pair(rows):
    """A frame given as rational rows, or None, as the pair a structure takes."""
    return None if rows is None else linalg.clear_denominators(rows)


def fractions(pair):
    """The rational matrix (N, d) as Fraction rows, for test-side algebra."""
    N, d = pair
    return [[Fraction(x, d) for x in row] for row in N]


ALPHA = AffineElement(diag(1, 1, 1, -1, -1, -1, -1))
BETA = AffineElement(diag(1, -1, -1, 1, 1, -1, -1), [0, 0, 0, 0, 0, 0, Fraction(1, 2)])
GAMMA = AffineElement(diag(-1, 1, -1, 1, -1, 1, -1),
                      [0, 0, Fraction(1, 2), 0, 0, 0, Fraction(1, 2)])
# a pure translation: with it every element fixes every mode
TRANSLATION = AffineElement(diag(1, 1, 1, 1, 1, 1, 1), [0, 0, 0, 0, 0, 0, Fraction(1, 2)])


@pytest.fixture(scope="module")
def torus():
    return validate_joyce(generate([]))


@pytest.fixture(scope="module")
def m1():
    return validate_joyce(generate([ALPHA]))


@pytest.fixture(scope="module")
def m3():
    return validate_joyce(generate([ALPHA, BETA, GAMMA]))


def test_enumerate_classes_counts(torus):
    classes = orc.enumerate_classes(torus, 1)
    assert len(classes) == 1 and len(classes[0].vectors) == 14
    classes2 = orc.enumerate_classes(torus, 2)
    assert [(c.norm_sq, len(c.vectors)) for c in classes2] == [(1, 14), (2, 84)]
    assert orc.enumerate_classes(torus, 0) == []


@pytest.mark.parametrize("frame", [
    None,
    diag(1, 1, 1, 1, 1, 1, Fraction(1, 2)),
    [[int(i == j or (i, j) == (0, 1)) for j in range(7)] for i in range(7)],
], ids=["identity", "diag-half", "shear-12"])
def test_classes_are_the_nonzero_shells_of_the_gram(frame):
    """The identity element's lattice shells are the shells of G itself."""
    orb = validate_joyce(generate([]), frame_pair(frame))
    shells = linalg.enumerate_ellipsoid(orb.structure.metric.gram, 4)
    shells.pop(Fraction(0))  # the origin
    assert [(c.norm_sq, c.vectors) for c in orc.enumerate_classes(orb, 4)] == \
        [(q, tuple(pts)) for q, pts in shells.items()]


def test_spectral_reports_enumerate_each_fixed_lattice_once(monkeypatch):
    calls = []
    enumerate_ellipsoid = linalg.enumerate_ellipsoid

    def counting(gram, bound, shift=None):
        calls.append(bound)
        return enumerate_ellipsoid(gram, bound, shift)

    monkeypatch.setattr(linalg, "enumerate_ellipsoid", counting)
    orb = validate_joyce(generate([ALPHA, BETA, GAMMA]), frame_pair(diag(1, 1, 1, 1, 3, 1, 1)))
    reports = orc.spectral_reports(orb, 4)
    assert reports and all(r.match for r in reports)
    assert len(orb.group) == 8 and calls == [4] * 8


def test_restricted_traces_are_shared_by_matrix_part_and_fibre(monkeypatch):
    """tr(A* | F_l) depends only on the matrix part A and the fibre F_l = F_{-l},
    and is read at the key r of l's symmetry orbit as tr((T^-1 A T)* | F_r):
    the order-24 group of alpha with translation 1/2 and the order-3 cycle with
    translation 1/3 has 12 matrix parts, and at radius 1 its 164 fixed
    (non-identity element, mode) pairs of both kinds need 24 traces (48 when
    each pair took its trace at its own mode)."""
    calls = []
    restricted_trace = orc._restricted_trace

    def counting(*args):
        calls.append(args[1])
        return restricted_trace(*args)

    monkeypatch.setattr(orc, "_restricted_trace", counting)
    alpha = AffineElement(ALPHA.matrix, [Fraction(1, 2), 0, 0, 0, 0, 0, 0])
    perm = (0, 3, 4, 5, 6, 1, 2)
    cycle = AffineElement([[int(i == perm[j]) for j in range(7)] for i in range(7)],
                          [Fraction(1, 3), 0, 0, 0, 0, 0, 0])
    orb = validate_joyce(generate([alpha, cycle]))
    reports = orc.spectral_reports(orb, 1)
    assert len(orb.group) == 24 and len({e.matrix for e in orb.group}) == 12
    assert reports and all(r.match for r in reports)
    assert len(calls) == 24
    fixed = sum(len(orc._fixed_vectors(e, cls, orb.structure))
                for e in orb.group if not e.is_identity()
                for cls in orc.enumerate_classes(orb, 1))
    assert 2 * fixed == 164


def test_formula_counts_phases_once_and_reads_no_fibre(monkeypatch, m3):
    """The formula route reads the phase counts that each element's shells
    carry, built once per (element, radius) for every class and both kinds,
    and reads no fibre kernel and no restricted trace."""
    expected = [orc.invariant_dimension_bruteforce(m3, cls, kind)
                for cls in orc.enumerate_classes(m3, 4) for kind in orc.KINDS]

    def refuse(*args):
        raise AssertionError("the formula route read a fibre or a trace")

    for name in ("fiber_basis", "typed_contraction_kernel", "_restricted_trace", "_fixed_trace"):
        monkeypatch.setattr(orc, name, refuse)
    calls = []
    mode_shells = orc._mode_shells

    def counting(*args):
        calls.append(args[1:])
        return mode_shells(*args)

    monkeypatch.setattr(orc, "_mode_shells", counting)
    orb = validate_joyce(generate([ALPHA, BETA, GAMMA]))
    classes = orc.enumerate_classes(orb, 4)
    assert [orc.invariant_dimension_formula(orb, cls, kind)
            for cls in classes for kind in orc.KINDS] == expected
    assert len(classes) > 1 and len(calls) == len(set(calls)) == len(orb.group)


def test_classes_come_in_opposite_pairs(torus):
    for cls in orc.enumerate_classes(torus, 3):
        vset = set(cls.vectors)
        assert all(tuple(-x for x in v) in vset for v in vset)


def test_eigenvalue_field(torus):
    cls = orc.enumerate_classes(torus, 1)[0]
    eigenvalue = -4.0 * np.pi ** 2 * float(cls.norm_sq)
    assert abs(eigenvalue + 4 * np.pi ** 2) < 1e-12


def test_mode_space_dimensions(torus):
    for kind, dim in [("H", 8), ("Hprime", 12)]:
        grade, component, _ = orc.KINDS[kind]
        for l in [(1, 0, 0, 0, 0, 0, 0), (1, -2, 0, 3, 0, 0, 1)]:
            assert len(typed_contraction_kernel(torus.structure, l, grade, component)) == dim
            assert len(orc.fiber_basis(torus.structure, l, kind)) == dim


def test_invariant_dimensions_trivial_group(torus):
    cls = orc.enumerate_classes(torus, 1)[0]
    assert orc.invariant_dimension_bruteforce(torus, cls, "H") == 112
    assert orc.invariant_dimension_formula(torus, cls, "H") == 112
    assert orc.invariant_dimension_bruteforce(torus, cls, "Hprime") == 168
    assert orc.invariant_dimension_formula(torus, cls, "Hprime") == 168


def test_invariant_dimensions_involution(m1):
    cls = orc.enumerate_classes(m1, 1)[0]
    assert orc.invariant_dimension_bruteforce(m1, cls, "H") == 56
    assert orc.invariant_dimension_formula(m1, cls, "H") == 56


def test_oracle_equivalence_small_radius(m1, m3):
    for orb in (m1, m3):
        for cls in orc.enumerate_classes(orb, 4):
            for kind in ("H", "Hprime"):
                assert orc.invariant_dimension_formula(orb, cls, kind) == \
                    orc.invariant_dimension_bruteforce(orb, cls, kind)


def _laplace_det(rows):
    """Determinant of an integer matrix by Laplace expansion, no elimination."""
    return linalg.int_compound(rows, len(rows))[0][0]


def _reference_trace(structure, M, basis):
    """tr(S^-1 T) for S = B^T G B and T = B^T G M B, G the Lambda-Gram matrix.

    By Cramer's rule, entry j of column j of S^-1 T is det S_j / det S, where
    S_j is S with column j replaced by column j of T.
    """
    grade = {21: 2, 35: 3}[len(basis[0])]
    G = np.array(fractions(structure.metric.lambda_gram(grade)), dtype=object)
    B = np.array(basis, dtype=object).T
    BtG = B.T @ G
    # S | T cleared by one common denominator, which cancels in each ratio
    ST, _ = linalg.clear_denominators(np.concatenate([BtG @ B, BtG @ (M @ B)], axis=1))
    ST = [list(row) for row in ST]
    k = B.shape[1]
    det_S = _laplace_det([row[:k] for row in ST])
    return sum(Fraction(_laplace_det([row[:j] + [row[k + j]] + row[j + 1:k] for row in ST]),
                        det_S) for j in range(k))


@pytest.mark.parametrize("frame", [
    None,
    diag(2, 1, 1, 1, 1, 3, 1),
    diag(1, 1, 1, 1, 1, 1, Fraction(1, 2)),
    [[1, Fraction(1, 2), 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, -1, 0, 0],
     [0, 0, 0, 1, 0, 0, 0], [0, 0, 1, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1, 0],
     [Fraction(1, 3), 0, 0, 0, 0, 0, Fraction(2, 3)]],
], ids=["identity", "diag23", "diag-half", "non-diagonal"])
def test_restricted_trace_matches_fraction_formula(frame):
    structure = G2Structure(frame_pair(frame))
    rng = np.random.default_rng(11)
    l = (1, 1, 0, 0, 0, 1, 0)
    for kind in ("H", "Hprime"):
        basis = orc.fiber_basis(structure, l, kind)
        n = len(basis[0])
        M = np.array([[int(x) for x in row] for row in rng.integers(-3, 4, size=(n, n))],
                     dtype=object)
        M[0, 0], M[3, 1], M[n - 1, 2] = 2 ** 31 + 5, -(2 ** 40), 3 * 2 ** 62
        tr = orc._restricted_trace(structure, tuple(map(tuple, M)), basis)
        assert isinstance(tr, Fraction) and tr == _reference_trace(structure, M, basis)
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert orc._restricted_trace(structure, identity, basis) == len(basis)


def test_phase_sum_requires_conjugation_symmetry():
    acc = Counter()
    for q, coeff in [(Fraction(0), 3), (Fraction(0), 4), (Fraction(1, 3), 2),
                     (Fraction(2, 3), 2), (Fraction(1, 4), Fraction(1, 2))]:
        acc[q] += coeff
    assert type(acc[Fraction(0)]) is int
    # 7 + 2 * 2 cos(2 pi / 3) + 1/2 cos(pi / 2), which needs the 3/4 term to be real
    acc[Fraction(3, 4)] += Fraction(1, 2)
    assert orc._integer_average(acc, 1) == 5
    acc[Fraction(1, 3)] += 1
    with pytest.raises(orc.NonIntegerDimension, match="not real"):
        orc._integer_average(acc, 1)


def test_su3_trace_check_examples(torus, m1):
    res = orc.su3_trace_check(torus, AffineElement.identity(), (1, 1, 0, 0, 0, 0, 0))
    assert res == (0, 0)
    res = orc.su3_trace_check(m1, ALPHA, (1, 0, 0, 0, 0, 0, 0))
    assert res == (0, 0)
    with pytest.raises(orc.NotFixed):
        orc.su3_trace_check(m1, ALPHA, (0, 0, 0, 1, 0, 0, 0))
    with pytest.raises(orc.NotFixed):
        orc.su3_trace_check(m1, ALPHA, (0, 0, 0, 0, 0, 0, 0))


def test_su3_trace_check_all_fixed_vectors(m3):
    for element in m3.group:
        for cls in orc.enumerate_classes(m3, 2):
            for l in cls.vectors:
                A = element.matrix
                if all(sum(A[i][j] * l[j] for j in range(7)) == l[i] for i in range(7)):
                    assert orc.su3_trace_check(m3, element, l) == (0, 0)


def test_mode_eigenvalue_matches_laplacian(torus):
    s = torus.structure
    l = (1, 0, 2, 0, 0, -1, 0)
    n2 = float(sum(x * y for x, y in zip(l, linalg.matvec(fractions(s.metric.gram), l))))
    for v in orc.fiber_basis(s, l, "H")[:3]:
        f = fr.FourierForm(s, 2, [l], [v])
        expected = np.array(f.mode(l)) * (4 * np.pi ** 2 * n2)
        assert np.max(np.abs(np.array(fr.laplacian(f).mode(l)) - expected)) < 1e-9 * n2


def test_spectral_reports_json(m1):
    reports = orc.spectral_reports(m1, 1)
    assert len(reports) == 2
    d = reports[0].to_json_dict()
    assert set(d) == {"norm_sq", "kind", "dim_bruteforce", "dim_formula", "match"}
    assert d["match"] is True


def _order3_element():
    # the permutation (2 4 6)(3 5 7) with a 1/3 shift along axis 2: order 9
    A = [[0] * 7 for _ in range(7)]
    for j, i in enumerate((1, 4, 5, 6, 7, 2, 3)):
        A[i - 1][j] = 1
    return AffineElement(A, [0, Fraction(1, 3), 0, 0, 0, 0, 0])


def _scanned_pairs(orbifold, element, cls):
    """[(l, q)] of the class by a scan: A l = l, q = l . G t mod 1, sorted."""
    A, G = element.matrix, np.array(fractions(orbifold.structure.metric.gram), dtype=object)
    t = np.array(element.translation, dtype=object)
    return sorted((l, (np.array(linalg.frac_vector(l), dtype=object) @ G @ t) % 1)
                  for l in cls.vectors
                  if all(sum(A[i][j] * l[j] for j in range(7)) == l[i] for i in range(7)))


@pytest.mark.parametrize("gens, frame, twisted", [
    ([], None, False),
    ([ALPHA], None, False),
    ([ALPHA, BETA], None, True),
    ([ALPHA, BETA, GAMMA], None, True),
    ([ALPHA, BETA, GAMMA], diag(2, 1, 1, 1, 1, 3, 1), True),
    ([ALPHA, BETA, GAMMA], diag(1, 1, 1, 1, 1, 1, Fraction(1, 2)), True),
    ([_order3_element()], None, True),
], ids=["t7", "m1", "m2", "m3", "m3-diag23", "m3-diag-half", "z9"])
def test_fixed_pairs_match_a_scan_of_the_class(gens, frame, twisted):
    """The modes and phases read off each element's fixed lattice are exactly
    the fixed vectors of the class with their phases g(l, t)."""
    orb = validate_joyce(generate(gens), frame_pair(frame))
    phases = set()
    for cls in orc.enumerate_classes(orb, 3):
        for element in orb.group:
            pairs = orc._fixed_vectors(element, cls, orb.structure)
            assert sorted(pairs) == _scanned_pairs(orb, element, cls), (cls.norm_sq, element)
            phases.update(q for _, q in pairs)
    assert (phases != {0}) == twisted


def _per_vector_dimension(orbifold, cls, kind):
    """The group average one fixed (element, mode) pair at a time: every mode l
    of the class with A l = l, found by a scan, adds its phase g(l, t) times
    the fibre dimension (identity) or the restricted trace (other elements)."""
    structure = orbifold.structure
    grade, component, _ = orc.KINDS[kind]
    N, d = structure.metric.gram
    acc = Counter()
    for element in orbifold.group:
        A = element.matrix
        Gt = [sum(x * t for x, t in zip(row, element.translation)) / d for row in N]
        for l in cls.vectors:
            if any(sum(a * x for a, x in zip(row, l)) != y for row, y in zip(A, l)):
                continue
            q = sum(x * y for x, y in zip(l, Gt)) % 1
            if element.is_identity():
                acc[q] += len(typed_contraction_kernel(structure, l, grade, component))
            else:
                M, _ = pullback_matrix((element.matrix, 1), grade)
                basis = orc.fiber_basis(structure, l, kind)
                acc[q] += orc._restricted_trace(structure, M, basis)
    return orc._integer_average(acc, len(orbifold.group))


def _g24():
    """alpha with translation 1/2 and the order-3 cycle with translation 1/3."""
    perm = (0, 3, 4, 5, 6, 1, 2)
    return [AffineElement(ALPHA.matrix, [Fraction(1, 2), 0, 0, 0, 0, 0, 0]),
            AffineElement([[int(i == perm[j]) for j in range(7)] for i in range(7)],
                          [Fraction(1, 3), 0, 0, 0, 0, 0, 0])]


_M2, _M3 = [ALPHA, BETA], [ALPHA, BETA, GAMMA]


@pytest.mark.parametrize("frame, cases", [
    (None, [([], 4), ([ALPHA], 4), (_M3, 4), (_g24(), 2), ([ALPHA, TRANSLATION], 2)]),
    (diag(2, 1, 1, 1, 1, 3, 1), [([], 4), ([ALPHA], 4), (_M3, 4)]),
    (diag(1, 1, 1, 1, 1, 1, Fraction(1, 2)), [(_M2, 1), (_M3, 1)]),
    (diag(1, 1, 1, 1, 1, 1, Fraction(1, 3)), [(_M3, 1)]),
    (diag(1, 2, 1, 2, 1, 2, 1), [([_g24()[1]], 3), (_g24(), 2)]),
], ids=["identity", "diag23", "diag-half", "diag-third", "f246"])
def test_orbit_route_matches_the_per_vector_sum(frame, cases):
    """The orbit sum and the moved traces of `invariant_dimension_bruteforce`
    equal the per-vector group average on t7, m1 and m3 at radius 4, under
    the identity frame on a group with translations of 1/2 and 1/3 and on m1
    with a pure translation, which fixes every mode, at radius 2, and under
    f246 = diag(1, 2, 1, 2, 1, 2, 1) on the z3 cycle with translation 1/3 and
    on that group.  Under diag-half and diag-third the Gram is not integral,
    and conjugating a fixed pair of m2 or m3 by an element with a
    translation can change its phase; their class 1 is compared (the classes
    1/4, 1/9 and 4/9 below it have phases whose cosine is irrational, which
    neither route evaluates)."""
    structure = G2Structure(frame_pair(frame))
    for gens, radius_sq in cases:
        group = validate_joyce(generate(gens), frame_pair(frame)).group
        orb = JoyceOrbifold(group, structure)
        for cls in orc.enumerate_classes(orb, radius_sq):
            if cls.norm_sq.denominator != 1:
                continue
            for kind in orc.KINDS:
                assert orc.invariant_dimension_bruteforce(orb, cls, kind) == \
                    _per_vector_dimension(orb, cls, kind), (len(group), cls.norm_sq, kind)


def _walk_tables(orbifold, cls):
    """The orbits and the transports of `orc._orbits` for the class, from the
    group and the structure's symmetry generators."""
    return orc._orbits(orbifold.structure, orbifold.group,
                       g2.symmetry_generators(orbifold.structure), cls)


def test_identity_orbits_are_orbits_of_the_whole_symmetry_group(torus, phi0_symmetry_group):
    """Under the identity frame each identity orbit of a class is {+-S l} over all
    signed permutations S that fix phi0, here the closure of the generators:
    1, 1, 2 and 3 orbits in the classes 1 to 4."""
    counts = []
    for cls in orc.enumerate_classes(torus, 4):
        orbits, _ = _walk_tables(torus, cls)
        for l, size in orbits.items():
            images = {tuple(int(x) for x in np.array(S) @ l) for S in phi0_symmetry_group}
            images |= {tuple(-x for x in v) for v in images}
            assert size == len(images) and images <= set(cls.vectors)
        counts.append(len(orbits))
    assert counts == [1, 1, 2, 3]


def _closure(start, generators, act):
    """The orbit of start under the finite group that the integer matrices
    `generators` generate, acting by act(x, g): a matrix or a mode."""
    orbit, frontier = {start}, [start]
    while frontier:
        frontier = [y for x in frontier for y in (act(x, g) for g in generators)
                    if y not in orbit and not orbit.add(y)]
    return frozenset(orbit)


@pytest.mark.parametrize("gens, frame, radius_sq", [
    ([_g24()[1]], diag(1, 2, 1, 2, 1, 2, 1), 6),
    (_g24(), None, 4),
], ids=["z3-f246", "g24"])
def test_identity_orbits_are_orbits_of_the_generated_group(gens, frame, radius_sq):
    """The walk's identity orbits are the orbits of the class under the group
    generated by the symmetry generators, the matrix parts and -1, closed here
    by moving each mode by every generator.  Under f246 = diag(1, 2, 1, 2,
    1, 2, 1) only the three sign changes survive as symmetry generators, and
    the z3 cycle (2 4 6)(3 5 7) is not in the group they generate, so the
    walk must move whole Gamma-orbits to join them; and from class 6 on (the
    mode e1 + e2 + e3) some modes l are joined to -l by -1 alone."""
    orb = validate_joyce(generate(gens), frame_pair(frame))
    parts = tuple(dict.fromkeys(element.matrix for element in orb.group))
    symmetries = g2.symmetry_generators(orb.structure)
    identity, minus = (tuple(tuple(s * int(i == j) for j in range(7)) for i in range(7))
                       for s in (1, -1))
    if frame is not None:
        assert len(symmetries) == 3
        assert parts[1] not in _closure(identity, symmetries, linalg.int_matmul)
    generators = symmetries + parts + (minus,)
    for cls in orc.enumerate_classes(orb, radius_sq):
        orbits, _ = _walk_tables(orb, cls)
        expected = []
        for l in cls.vectors:
            if not any(l in O for O in expected):
                expected.append(_closure(l, generators, lambda x, g: linalg.matvec(g, x)))
        found = [next(O for O in expected if l in O) for l in orbits]
        assert len(set(found)) == len(expected), cls.norm_sq
        for O, size in zip(found, orbits.values()):
            assert size == len(O)


def test_an_orbit_weight_off_by_one_fails_the_partition_check(monkeypatch, m3):
    original = orc._orbits

    def off_by_one(*args):
        orbits, transports = original(*args)
        orbits = dict(orbits)
        orbits[next(iter(orbits))] += 1
        return orbits, transports

    monkeypatch.setattr(orc, "_orbits", off_by_one)
    cls = orc.enumerate_classes(m3, 2)[1]
    n = len(cls.vectors)
    with pytest.raises(ArithmeticError, match=f"cover {n + 1} of its {n} modes"):
        orc.invariant_dimension_bruteforce(m3, cls, "H")


def test_a_symmetry_that_leaves_the_class_ends_the_walk(monkeypatch, m1):
    """The mutation: the shear I + E_12, which keeps no norm, given as the one
    symmetry generator.  It moves m1's mode -e2 of class 1 to -e1 - e2, of
    norm 2, and the walk names that image at once; without its check it
    would walk the sheared images without end, so a timer stops it after
    1 s."""
    def timeout(signum, frame):
        raise TimeoutError

    shear = tuple(tuple(int(i == j or (i, j) == (0, 1)) for j in range(7)) for i in range(7))
    monkeypatch.setattr(g2, "symmetry_generators", lambda structure: (shear,))
    cls = orc.enumerate_classes(m1, 1)[0]
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        with pytest.raises(ArithmeticError, match=re.escape(
                "a symmetry moves mode (-1, -1, 0, 0, 0, 0, 0) off its class")):
            orc.invariant_dimension_bruteforce(m1, cls, "H")
    except TimeoutError:
        pytest.fail("the walk did not end in 1 s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_a_short_fibre_at_an_orbit_key_is_named(monkeypatch):
    """The mutation: one kernel vector dropped at m3's orbit key (-1, -1, 0,
    -1, 0, 0, 0) of class 3, whose 224 modes no non-identity element fixes,
    so no trace is read there.  The identity's term takes its kernels
    through `fiber_basis`, which names the mode; summed without the check,
    the short fibre would only shift the class's dimension by 28."""
    key = (-1, -1, 0, -1, 0, 0, 0)
    kernel = orc.typed_contraction_kernel

    def short(structure, l, grade, component):
        basis = kernel(structure, l, grade, component)
        return basis[:-1] if l == key else basis

    monkeypatch.setattr(orc, "typed_contraction_kernel", short)
    orb = validate_joyce(generate(_M3))
    cls = orc.enumerate_classes(orb, 3)[2]
    orbits, transports = _walk_tables(orb, cls)
    assert orbits[key] == 224 and linalg.canonical_sign(key) not in dict(transports.values())
    with pytest.raises(orc.NonIntegerDimension,
                       match=re.escape(f"fibre at {key} has dimension 7, expected 8")):
        orc.invariant_dimension_bruteforce(orb, cls, "H")


def _m1_framed():
    """The k3 involution under diag(1, 1, 1, 1, 1, 1, 1/2), from tests/data: a
    non-integer Gram."""
    raw = json.loads((Path(__file__).parent / "data" / "m1-framed.json").read_text())
    return cli.build_orbifold(cli.parse_config(raw))

# (orbifold, radius_sq): the fixed pairs whose traces the oracle moves
_MOVED_CASES = {
    "m3": (lambda: validate_joyce(generate(_M3)), 4),
    "g24": (lambda: validate_joyce(generate(_g24())), 2),
    "z3-f246": (lambda: validate_joyce(generate([_g24()[1]]),
                                       frame_pair(diag(1, 2, 1, 2, 1, 2, 1))), 3),
    "m1-framed": (_m1_framed, 2),
    "m1-translated": (lambda: validate_joyce(generate([ALPHA, TRANSLATION])), 2),
}


def _product(matrices):
    product = tuple(tuple(int(i == j) for j in range(7)) for i in range(7))
    for X in reversed(matrices):
        product = linalg.int_matmul(X, product)
    return product


def _moved_trace_mismatches(orbifold, radius_sq):
    """(pairs, mismatches) over the fixed (element != 1, mode l) pairs of every
    class and both kinds: the trace the oracle reads at the key r of l's
    orbit, tr((T^-1 A T)* | F_r), against tr(A* | F_l) taken at l itself.
    Each transport is checked to be one: the product T of its word moves r
    to +-l, and r keys l's orbit."""
    structure = orbifold.structure
    pairs = mismatches = 0
    for cls in orc.enumerate_classes(orbifold, radius_sq):
        orbits, transports = _walk_tables(orbifold, cls)
        keys = {linalg.canonical_sign(r) for r in orbits}
        fixed = set()
        for element in orbifold.group[1:]:
            for l, _ in orc._fixed_vectors(element, cls, structure):
                fixed.add(l)
                r, word = transports[l]
                assert r in keys and linalg.canonical_sign(linalg.matvec(_product(word), r)) \
                    == linalg.canonical_sign(l)
                moved = orc._conjugate(structure, element.matrix, word)
                for kind in orc.KINDS:
                    pairs += 1
                    mismatches += orc._fixed_trace(structure, moved, r, kind) != \
                        orc._fixed_trace(structure, element.matrix, linalg.canonical_sign(l),
                                         kind)
        assert set(transports) == fixed, cls.norm_sq
    return pairs, mismatches


@pytest.mark.parametrize("case, pairs", [("m3", 448), ("g24", 476), ("z3-f246", 16),
                                         ("m1-framed", 36), ("m1-translated", 268)])
def test_moved_traces_equal_the_traces_at_each_mode(case, pairs):
    """tr(A* | F_l) = tr((T^-1 A T)* | F_r) for every fixed pair: on m3 and the
    order-24 group under the identity frame, where the symmetries are signed
    permutations, on the z3 cycle under diag(1, 2, 1, 2, 1, 2, 1), where only
    the sign changes are, on m1 under a frame with a non-integer Gram, and on
    m1 with a pure translation, which fixes every mode."""
    build, radius_sq = _MOVED_CASES[case]
    assert _moved_trace_mismatches(build(), radius_sq) == (pairs, 0)


@pytest.mark.parametrize("case", ["m3", "g24", "m1-framed"])
def test_conjugating_by_T_in_place_of_T_inverse_fails_the_cross_check(monkeypatch, case):
    """The mutation X A X^-1 for X^-1 A X, in every letter of every transport."""
    def swapped(structure, X, A):
        return linalg.int_matmul(linalg.int_matmul(X, A),
                                 structure.memo(orc._unimodular_inverse, X))

    monkeypatch.setattr(orc, "_conjugate_by", swapped)
    build, radius_sq = _MOVED_CASES[case]
    pairs, mismatches = _moved_trace_mismatches(build(), radius_sq)
    assert 0 < mismatches < pairs


def test_m3_at_radius_9_builds_one_kernel_per_orbit_and_kind(monkeypatch):
    """m3 at radius 9 has 12,434 modes in 9 classes and 24 symmetry orbits: the
    oracle builds 48 fibre kernels, one per orbit and kind (436 when each
    fixed pair took its trace at its own mode), inverts the trace data of 12
    fibres, those at the 6 orbit keys that a non-identity element fixes,
    takes 30 restricted traces and 34 conjugation steps X^-1 A X, and
    inverts 8 matrices, one per distinct letter X of the transports."""
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    counting(g2, "_kernel_basis")
    for name in ("_fibre_trace_data", "_restricted_trace", "_conjugate_by", "_unimodular_inverse"):
        counting(orc, name)
    orb = validate_joyce(generate(_M3))
    reports = orc.spectral_reports(orb, 9)
    assert len(reports) == 18 and all(r.match for r in reports)
    assert sum(len(cls.vectors) for cls in orc.enumerate_classes(orb, 9)) == 12434
    assert sum(len(_walk_tables(orb, cls)[0]) for cls in orc.enumerate_classes(orb, 9)) == 24
    assert calls == {"_kernel_basis": 48, "_fibre_trace_data": 12, "_restricted_trace": 30,
                     "_conjugate_by": 34, "_unimodular_inverse": 8}


def _sheared_parts():
    """m1's generator conjugated by U = I + E_14 under the frame U, from tests/data."""
    raw = json.loads((Path(__file__).parent / "data" / "m1-sheared-parts.json").read_text())
    return cli.build_orbifold(cli.parse_config(raw))


def test_signed_permutations_act_by_index_as_the_general_kernels(phi0_symmetry_group):
    """For each of the 1,344 signed permutations X that fix phi0, and for a
    sheared matrix part, the oracle's one index path, the move of a mode
    (`_mode_map`), equals `linalg.matvec`."""
    structure = G2Structure()
    sheared = _sheared_parts().group[1].matrix
    assert len(phi0_symmetry_group) == 1344
    modes = [(1, 2, 0, -1, 3, 0, 5), (0, 0, 1, 1, -2, 0, 0)]
    for X in sorted(phi0_symmetry_group) + [sheared]:
        move = structure.memo(orc._mode_map, X)
        assert [move(l) for l in modes] == [linalg.matvec(X, l) for l in modes]


def test_matrix_part_work_is_done_once_per_matrix_part(monkeypatch):
    """The order-24 group of alpha with translation 1/2 and the order-3 cycle
    with translation 1/3 has 12 matrix parts: validating it tests 12 of them
    for G2, and its spectrum at radius 4 builds 12 fixed-lattice bases and
    Grams and takes Tr A, Tr A^2, Tr A^3 of 12 matrices, one each per matrix
    part, not per element, and enumerates the shells of each of the 8
    distinct fixed lattices once (a part and its inverse fix one lattice)."""
    from g2mu import epstein, invariants
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    counting(g2.G2Structure, "is_g2_element")
    group = generate(_g24())
    orb = validate_joyce(group)
    assert (len(group), len({e.matrix for e in group}), calls["is_g2_element"]) == (24, 12, 12)
    counting(linalg, "enumerate_ellipsoid")
    # process-wide caches: emptied, so that each miss is one build
    caches = (epstein._fixed_sublattice, invariants._integer_traces)
    for cache in caches:
        cache.cache_clear()
    reports = orc.spectral_reports(orb, 4)
    assert reports and all(r.match for r in reports)
    assert [cache.cache_info().misses for cache in caches] == [12, 12]
    lattices = {epstein.fixed_lattice(e, orb.structure.metric).basis for e in group}
    assert calls["enumerate_ellipsoid"] == len(lattices) == 8
