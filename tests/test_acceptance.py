"""Acceptance suite: every shipped guarantee, one criterion per test.

Each test prints a single PASS/FAIL line so the suite doubles as a
checklist when run with `pytest -s tests/test_acceptance.py`.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from g2mu import cli, fourier as fr, linalg
from g2mu import epstein as ez
from g2mu import oracle as orc
from g2mu.exterior import Metric7
from g2mu.g2 import G2Structure
from g2mu.invariants import mu_invariants, tr8_su3, tr12_su3
from g2mu.orbifold import AffineElement, generate, validate_joyce

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def diag(*entries):
    return [[entries[i] if i == j else 0 for j in range(7)] for i in range(7)]


ALPHA = AffineElement(diag(1, 1, 1, -1, -1, -1, -1))
BETA = AffineElement(diag(1, -1, -1, 1, 1, -1, -1), [0, 0, 0, 0, 0, 0, Fraction(1, 2)])
GAMMA = AffineElement(diag(-1, 1, -1, 1, -1, 1, -1),
                      [0, 0, Fraction(1, 2), 0, 0, 0, Fraction(1, 2)])

EXAMPLES = {
    "t7": ([], ("-8", "-12")),
    "m1": ([ALPHA], ("-4", "-8")),
    "m2": ([ALPHA, BETA], ("-2", "-6")),
    "m3": ([ALPHA, BETA, GAMMA], ("-1", "-5")),
}


def _verdict(num, description, ok):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def structure():
    return G2Structure()


@pytest.fixture(scope="module")
def orbifolds():
    return {stem: validate_joyce(generate(gens)) for stem, (gens, _) in EXAMPLES.items()}


def test_criterion_1_golden_invariants(capsys):
    ok = True
    detail = []
    # build the module-level structure tables once, so the timed runs measure
    # the command itself
    G2Structure()
    for stem, (_, (mu3, mu4)) in EXAMPLES.items():
        t0 = time.perf_counter()
        code = cli.run(["invariants", "--config", str(CONFIG_DIR / f"{stem}.json")])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        results = json.loads(out)["results"]
        good = (code == 0 and results["mu3"] == mu3 and results["mu4"] == mu4
                and elapsed < 1.0)
        ok = ok and good
        detail.append(f"{stem}:({results['mu3']},{results['mu4']}) {elapsed:.2f}s")
    with capsys.disabled():
        _verdict(1, "exact golden invariants " + " ".join(detail), ok)


def test_criterion_2_trace_polynomials():
    ident = diag(1, 1, 1, 1, 1, 1, 1)
    ok = (tr8_su3(ident), tr12_su3(ident)) == (8, 12) and \
        (tr8_su3(ALPHA.matrix), tr12_su3(ALPHA.matrix)) == (0, 4)
    _verdict(2, "trace polynomials (8,12) on identity and (0,4) on the involution", ok)


def test_criterion_3_character_formula_oracle(orbifolds):
    t0 = time.perf_counter()
    mismatches = 0
    classes_checked = 0
    for orb in orbifolds.values():
        for cls in orc.enumerate_classes(orb, 9):
            for kind in ("H", "Hprime"):
                classes_checked += 1
                if orc.invariant_dimension_formula(orb, cls, kind) != \
                        orc.invariant_dimension_bruteforce(orb, cls, kind):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _verdict(3, f"formula = brute force on {classes_checked} (class, kind) pairs "
                f"in {elapsed:.1f}s", ok)


def test_criterion_4_su3_trace_identities(orbifolds):
    checked = 0
    ok = True
    for orb in orbifolds.values():
        unit_class = orc.enumerate_classes(orb, 1)[0]
        for element in orb.group:
            A = element.matrix
            for l in unit_class.vectors:
                if all(sum(A[i][j] * l[j] for j in range(7)) == l[i] for i in range(7)):
                    checked += 1
                    if orc.su3_trace_check(orb, element, l) != (0, 0):
                        ok = False
    _verdict(4, f"exact-zero trace-identity residuals on {checked} (element, vector) pairs",
             ok and checked > 0)


def test_criterion_5_appendix_identity_suite(structure):
    t0 = time.perf_counter()
    report = fr.verify_appendix(structure, trials=100, seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(report["identities"].values())
    ok = worst <= 1e-9 and elapsed < 30.0
    _verdict(5, f"{len(report['identities'])} identities, 100 trials, "
                f"max residual {worst:.2e} in {elapsed:.1f}s", ok)


def test_criterion_6_hessian_structure(structure):
    rng = random.Random(42)
    worst_e = worst_plus = worst_minus = worst_inner = 0.0
    for _ in range(10):
        two = fr.random_fourier(structure, 2, rng, n_modes=3)
        rep = fr.hessian_blocks("E", two)
        worst_e = max(worst_e, rep.checks["dstar_I_d_equals_minus_dstar_d"])
        eta = fr.random_fourier(structure, 4, rng, n_modes=3)
        blocks = fr.hessian_blocks("F", fr.coexterior_d(eta))
        omega = blocks.blocks["S_plus"] + blocks.blocks["S_minus"]
        plus, minus = fr.split_S4(omega)
        norm = max(fr.l2_norm(omega), 1.0)
        worst_plus = max(worst_plus, fr.l2_norm(
            fr.project_type(fr.exterior_d(plus), 4, 27)) / norm)
        worst_minus = max(worst_minus, fr.l2_norm(
            fr.project_type(fr.exterior_d(minus), 4, 7)) / norm)
        worst_inner = max(worst_inner, abs(fr.l2_inner(plus, minus)) / norm ** 2)
    ok = max(worst_e, worst_plus, worst_minus, worst_inner) <= 1e-9
    _verdict(6, f"Hessian identities: d*Id residual {worst_e:.1e}, split residuals "
                f"{worst_plus:.1e}/{worst_minus:.1e}/{worst_inner:.1e}", ok)


def test_criterion_7_epstein_regularisation(orbifolds):
    g = Metric7.euclidean()
    worst = 0.0
    lattices = 0
    for orb in orbifolds.values():
        for element in orb.group:
            lat = ez.fixed_lattice(element, g)
            lattices += 1
            worst = max(worst, abs(ez.value_at_zero(lat) + 1.0))
    # classical oracles: 2 zeta(0) and 4 zeta(0) beta(0), via the same machinery
    rank1 = ez.TwistedLattice(1, ((1, 0, 0, 0, 0, 0, 0),), (((1,),), 1), (Fraction(0),))
    rank2 = ez.TwistedLattice(2, tuple(map(tuple, np.eye(7, dtype=int)[:2])),
                              (((1, 0), (0, 1)), 1), (Fraction(0), Fraction(0)))
    worst = max(worst, abs(ez.value_at_zero(rank1) + 1.0),
                abs(ez.value_at_zero(rank2) + 1.0))
    # the continuation itself is pinned to the classical closed forms off 0
    ref1 = complex(2 * mpmath.zeta(3.0))
    dev = abs(ez.epstein_value(rank1, 1.5) - ref1)
    bridge_dev = 0.0
    for orb in orbifolds.values():
        bridge = ez.closed_form_mu(orb)
        exact = mu_invariants(orb)
        bridge_dev = max(bridge_dev, abs(bridge.mu3 - float(exact.mu3)),
                         abs(bridge.mu4 - float(exact.mu4)))
    ok = worst <= 1e-6 and bridge_dev <= 1e-6 and dev < 1e-10
    _verdict(7, f"value -1 on {lattices} fixed lattices (worst {worst:.1e}), "
                f"closed-form vs exact mu within {bridge_dev:.1e}", ok)


def test_criterion_8_type_decomposition(structure):
    s = structure
    ranks2 = [linalg.rank(s.projector(2, c)[0]) for c in (7, 14)]
    ranks3 = [linalg.rank(s.projector(3, c)[0]) for c in (1, 7, 27)]
    P = {(grade, comp): np.array(s.projector(grade, comp)[0], dtype=object)
         * Fraction(1, s.projector(grade, comp)[1])
         for grade, comp in [(2, 7), (2, 14), (3, 1), (3, 7), (3, 27)]}
    complete2 = np.equal(P[2, 7] + P[2, 14], np.eye(21, dtype=int)).all()
    complete3 = np.equal(P[3, 1] + P[3, 7] + P[3, 27], np.eye(35, dtype=int)).all()
    rng = random.Random(3)
    worst = 0.0
    for grade, comp in [(2, 7), (2, 14), (3, 1), (3, 7), (3, 27)]:
        f = fr.random_fourier(s, grade, rng, n_modes=3)
        worst = max(worst, fr.residual(fr.project_type(fr.laplacian(f), grade, comp),
                                       fr.laplacian(fr.project_type(f, grade, comp))))
    ok = ranks2 == [7, 14] and ranks3 == [1, 7, 27] and complete2 and complete3 \
        and worst <= 1e-9
    _verdict(8, f"type ranks {ranks2}/{ranks3}, exact completeness, "
                f"Laplacian-projection commutator {worst:.1e}", ok)
