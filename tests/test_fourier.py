import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from g2mu import fourier as fr
from g2mu import g2, linalg
from g2mu.exterior import DIM, ExteriorForm, wedge_matrix
from g2mu.g2 import VALID_COMPONENTS, G2Structure

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def s():
    return G2Structure()


@pytest.fixture()
def rng():
    return random.Random(0)


def unit_mode(s, l, terms, grade):
    return fr.FourierForm(s, grade, [l], [ExteriorForm.from_terms(grade, terms).coeffs])


def test_d_of_constant_vanishes(s):
    f = fr.FourierForm.constant(s, ExteriorForm.from_terms(2, {(1, 2): 1}))
    assert fr.exterior_d(f).is_zero()
    assert fr.coexterior_d(f).is_zero()
    assert fr.laplacian(f).is_zero()
    assert fr.green(f).is_zero()


def test_d_of_scalar_mode(s):
    f = unit_mode(s, (1, 0, 0, 0, 0, 0, 0), {(): 1}, 0)
    df = fr.exterior_d(f)
    assert df.grade == 1 and df.modes == ((1, 0, 0, 0, 0, 0, 0),)
    # d chi_l = 2 pi i chi_l lflat, and lflat = theta^1 at l = e_1
    expected = np.zeros(7, dtype=complex)
    expected[0] = TWO_PI * 1j
    assert np.array_equal(df.mode((1, 0, 0, 0, 0, 0, 0)), expected)


def test_d_squared_zero_exact_backend(s):
    # integer coefficients and an integer metric: the float arithmetic is
    # exact, so d^2 must vanish exactly, not only to rounding
    f = fr.FourierForm(s, 2, [(1, 2, 0, -1, 0, 0, 3), (0, 1, 1, 0, 0, 0, 0)],
                       [ExteriorForm.from_terms(2, {(1, 2): 3, (4, 6): -2}).coeffs,
                        ExteriorForm.from_terms(2, {(2, 5): 1}).coeffs])
    dd = fr.exterior_d(fr.exterior_d(f))
    assert dd.grade == 4 and len(dd.modes) == 2
    assert dd.is_zero()


def test_coexterior_kills_contraction_kernel(s):
    l = (1, 1, 0, 0, 2, 0, 0)
    basis = g2.typed_contraction_kernel(s, l, 2, 14)
    f = fr.FourierForm(s, 2, [l], [basis[0]])
    assert not f.is_zero()
    assert fr.coexterior_d(f).is_zero()


def test_adjointness_of_d_and_dstar(s, rng):
    f1 = fr.random_fourier(s, 1, rng, n_modes=4)
    extra = fr.random_fourier(s, 2, rng, n_modes=2)
    f2 = fr.random_fourier(s, 2, rng, n_modes=4) + extra
    lhs = fr.l2_inner(fr.exterior_d(f1), f2)
    rhs = fr.l2_inner(f1, fr.coexterior_d(f2))
    assert abs(lhs - rhs) < 1e-9


def test_laplacian_eigenvalue(s):
    f = unit_mode(s, (1, 0, 0, 0, 0, 0, 0), {(2, 3): 1}, 2)
    lap = fr.laplacian(f)
    l = (1, 0, 0, 0, 0, 0, 0)
    assert np.max(np.abs(np.array(lap.mode(l)) - 4 * np.pi ** 2 * np.array(f.mode(l)))) < 1e-12


def test_laplacian_commutes_with_projections(s, rng):
    for grade, comp in [(2, 7), (2, 14), (3, 1), (3, 7), (3, 27)]:
        f = fr.random_fourier(s, grade, rng, n_modes=3)
        lhs = fr.project_type(fr.laplacian(f), grade, comp)
        rhs = fr.laplacian(fr.project_type(f, grade, comp))
        assert fr.residual(lhs, rhs) < 1e-9


def test_green_inverts_laplacian(s, rng):
    f = fr.random_fourier(s, 2, rng, n_modes=3, include_constant=True)
    recovered = fr.green(fr.laplacian(f))
    assert fr.residual(recovered, f.nonharmonic_part()) < 1e-12
    assert fr.green(f.harmonic_part()).is_zero()
    # G commutes with type projections
    lhs = fr.green(fr.project_type(f, 2, 14))
    rhs = fr.project_type(fr.green(f), 2, 14)
    assert fr.residual(lhs, rhs) < 1e-12


def test_refined_scalar_is_d(s, rng):
    f = fr.random_fourier(s, 0, rng, n_modes=3)
    assert fr.residual(fr.refined("d1_7", f), fr.exterior_d(f)) == 0.0


def test_refined_kills_constants(s):
    consts = {
        0: fr.FourierForm.constant(s, ExteriorForm.from_terms(0, {(): 1})),
        1: fr.FourierForm.constant(s, ExteriorForm.from_terms(1, {(3,): 1})),
        2: fr.FourierForm.constant(s, ExteriorForm.from_terms(2, {(1, 4): 1})),
        3: fr.FourierForm.constant(s, ExteriorForm.from_terms(3, {(1, 2, 4): 1})),
    }
    for name, op in fr.REFINED_OPS.items():
        f = consts[op.domain[0]]
        assert fr.refined(name, f).is_zero(), name


def test_refined_unknown_name(s):
    f = fr.FourierForm.zero(s, 1)
    with pytest.raises(ValueError):
        fr.refined("d3_5", f)


def test_refined_grade_mismatch(s):
    f = fr.FourierForm.zero(s, 2)
    with pytest.raises(ValueError):
        fr.refined("d1_7", f)


def test_adjoint_ops_satisfy_l2_pairing(s, rng):
    pairs = [("d1_7", "d7_1", 0, 1), ("d7_14", "d14_7", 1, 2),
             ("d7_27", "d27_7", 1, 3), ("d14_27", "d27_14", 2, 3)]
    for primal, adjoint, gdom, gcod in pairs:
        a = fr.random_fourier(s, gdom, rng, n_modes=3)
        b = fr.random_fourier(s, gcod, rng, n_modes=3)
        b = b + fr.FourierForm(s, gcod, a.modes, b.coeffs[:len(a.modes)])
        lhs = fr.l2_inner(fr.refined(primal, a), b)
        dom_comp = fr.REFINED_OPS[primal].domain[1]
        b_proj = b if fr.REFINED_OPS[adjoint] is None else b
        rhs = fr.l2_inner(a, fr.refined(adjoint, b))
        # inputs to the primal are projected; project the a-side of rhs too
        if dom_comp is not None:
            a_proj = fr.project_type(a, fr.REFINED_OPS[primal].domain[0], dom_comp)
            rhs = fr.l2_inner(a_proj, fr.refined(adjoint, b))
        assert abs(lhs - rhs) < 1e-9, primal


def test_self_adjoint_operators(s, rng):
    for name, grade, comp in [("d7_7", 1, None), ("d27_27", 3, 27)]:
        a = fr.random_fourier(s, grade, rng, n_modes=3, component=comp)
        b = fr.random_fourier(s, grade, rng, n_modes=3, component=comp)
        b = fr.FourierForm(s, grade, a.modes, b.coeffs)
        lhs = fr.l2_inner(fr.refined(name, a), b)
        rhs = fr.l2_inner(a, fr.refined(name, b))
        assert abs(lhs - rhs) < 1e-9, name


def test_recover_d14_7_from_printed_decomposition(s, rng):
    # d beta = (1/4) star(d14_7 beta ^ phi) + d14_27 beta on 14-type forms
    beta = fr.random_fourier(s, 2, rng, n_modes=3, component=14)
    lhs = fr.exterior_d(beta)
    rhs = fr.star(fr.wedge_const(fr.refined("d14_7", beta), "phi")).scale(0.25) \
        + fr.refined("d14_27", beta)
    assert fr.residual(lhs, rhs) < 1e-9


def test_d_of_type_1_27_avoids_type_1(s, rng):
    f3 = fr.random_fourier(s, 3, rng, n_modes=3)
    mixed = fr.project_type(f3, 3, 1) + fr.project_type(f3, 3, 27)
    df = fr.exterior_d(mixed)
    assert fr.l2_norm(fr.project_type(df, 4, 1)) < 1e-9 * fr.l2_norm(df)


def test_identity_suite_exact_on_constants(s):
    consts = {
        0: fr.FourierForm.constant(s, ExteriorForm.from_terms(0, {(): Fraction(2, 3)})),
        1: fr.FourierForm.constant(s, ExteriorForm.from_terms(1, {(2,): Fraction(5, 2)})),
        (2, 14): fr.project_type(
            fr.FourierForm.constant(s, ExteriorForm.from_terms(2, {(1, 2): 1})), 2, 14),
        (3, 27): fr.project_type(
            fr.FourierForm.constant(s, ExteriorForm.from_terms(3, {(1, 2, 4): 1})), 3, 27),
    }
    for name, kind, lhs, rhs in fr._identity_suite(fr.refined):
        left = lhs(consts[kind])
        right = rhs(consts[kind]) if rhs is not None else fr.FourierForm.zero(s, left.grade)
        assert fr.residual(left, right) == 0.0, name


def test_verify_appendix_all_identities(s):
    report = fr.verify_appendix(s, trials=20, seed=123)
    assert report["trials"] == 20
    assert len(report["identities"]) == 31
    worst = max(report["identities"].values())
    assert worst <= 1e-9, report["identities"]


def test_verify_appendix_quadratic_identity_names(s):
    report = fr.verify_appendix(s, trials=1, seed=5)
    quad = [k for k in report["identities"] if k.startswith("d2_")]
    assert len(quad) == 14


def test_split_S4_pure_27_input(s, rng):
    # a coclosed pure-27 form splits as (0, itself)
    gamma = fr.random_fourier(s, 3, rng, n_modes=3, component=27)
    blocks = fr.hessian_blocks("F", gamma)
    minus = blocks.blocks["S_minus"]
    if minus.is_zero(1e-13):
        pytest.skip("degenerate draw")
    plus, out_minus = fr.split_S4(minus)
    assert fr.l2_norm(plus) < 1e-9 * fr.l2_norm(minus)
    assert fr.residual(out_minus, minus) < 1e-9


def test_split_S4_properties(s, rng):
    eta = fr.random_fourier(s, 4, rng, n_modes=4)
    blocks = fr.hessian_blocks("F", fr.coexterior_d(eta))
    omega = blocks.blocks["S_plus"] + blocks.blocks["S_minus"]
    plus, minus = fr.split_S4(omega)
    norm = fr.l2_norm(omega)
    assert fr.l2_norm(fr.project_type(fr.exterior_d(plus), 4, 27)) < 1e-9 * norm
    assert fr.l2_norm(fr.project_type(fr.exterior_d(minus), 4, 7)) < 1e-9 * norm
    assert abs(fr.l2_inner(plus, minus)) < 1e-9 * norm ** 2
    assert fr.residual(plus + minus, omega) < 1e-9 * norm


def test_split_S4_preconditions(s, rng):
    harmonic = fr.FourierForm.constant(s, ExteriorForm.from_terms(3, {(1, 2, 3): 1}))
    with pytest.raises(fr.PreconditionFailed, match="harmonic"):
        fr.split_S4(harmonic)
    not_coclosed = fr.random_fourier(s, 3, rng, n_modes=2, component=27)
    with pytest.raises(fr.PreconditionFailed, match="coclosed"):
        fr.split_S4(not_coclosed)
    eta = fr.random_fourier(s, 4, rng, n_modes=2)
    with_7 = fr.coexterior_d(eta)
    with pytest.raises(fr.PreconditionFailed, match="7"):
        fr.split_S4(with_7)


def test_split_S4_of_zero_is_zero(s):
    plus, minus = fr.split_S4(fr.FourierForm.zero(s, 3))
    assert plus.grade == minus.grade == 3 and plus.is_zero() and minus.is_zero()


def test_hessian_blocks_E(s, rng):
    f = fr.random_fourier(s, 2, rng, n_modes=3, include_constant=True)
    rep = fr.hessian_blocks("E", f)
    total = None
    for comp in rep.blocks.values():
        total = comp if total is None else total + comp
    assert fr.residual(total, f) < 1e-12
    assert rep.checks["dstar_I_d_equals_minus_dstar_d"] < 1e-9


def test_hessian_blocks_F(s, rng):
    f = fr.random_fourier(s, 3, rng, n_modes=3, include_constant=True)
    rep = fr.hessian_blocks("F", f)
    total = None
    for comp in rep.blocks.values():
        total = comp if total is None else total + comp
    assert fr.residual(total, f) < 1e-12
    assert rep.checks["pi27_d_Splus"] < 1e-9
    assert rep.checks["pi7_d_Sminus"] < 1e-9
    assert rep.checks["Splus_Sminus_orthogonal"] < 1e-9


def test_hessian_F_checks_are_relative_to_the_form():
    """The F checks are residuals relative to max(|f|, 1), the scale of
    split_S4's preconditions, so they stay below 1e-9 on 200 coexact draws of
    the kind verify_hessian takes, under the frame diag(2, 1, 1, 1, 1, 3, 1)
    of m3's framed configs, where the residuals without the scale pass 1e-9,
    the default tolerance of `identities` (3.1e-9 on these draws)."""
    frame = [[(2, 1, 1, 1, 1, 3, 1)[i] * int(i == j) for j in range(DIM)] for i in range(DIM)]
    structure = G2Structure((frame, 1))
    rng = random.Random(1)
    worst = unscaled = 0.0
    for _ in range(200):
        f = fr.coexterior_d(fr.random_fourier(structure, 4, rng))
        checks = fr.hessian_blocks("F", f).checks
        scale = max(fr.l2_norm(f), 1.0)
        worst = max(worst, *checks.values())
        unscaled = max(unscaled, checks["pi27_d_Splus"] * scale, checks["pi7_d_Sminus"] * scale,
                       checks["Splus_Sminus_orthogonal"] * scale ** 2)
    assert worst < 1e-9 < unscaled


def test_hessian_kind_validation(s):
    with pytest.raises(ValueError):
        fr.hessian_blocks("G", fr.FourierForm.zero(s, 2))
    with pytest.raises(ValueError):
        fr.hessian_blocks("E", fr.FourierForm.zero(s, 3))


def test_forms_of_different_derivative_order_add(s):
    # values carry their factors of 2 pi i, so f + Delta f needs no bookkeeping
    l = (1, 0, 0, 0, 0, 0, 0)
    f = unit_mode(s, l, {(1, 2): 1}, 2)
    total = f + fr.laplacian(f)
    assert np.max(np.abs(np.array(total.mode(l)) - (1 + 4 * np.pi ** 2) * np.array(f.mode(l)))) \
        < 1e-12
    # forms on different modes add on the union of their modes
    g = unit_mode(s, (0, 1, 0, 0, 0, 0, 0), {(1, 2): 1}, 2)
    assert (f + g).modes == ((0, 1, 0, 0, 0, 0, 0), l)
    assert fr.residual(f + g - g, f) == 0.0


def _as_floats(pair):
    """The rational matrix (N, d) as floats, each entry float(Fraction(n, d))."""
    N, d = pair
    return [[float(Fraction(x, d)) for x in row] for row in N]


def assert_view_rounds(view, pair):
    """A float view is an immutable tuple of sparse rows, (column, float) over
    the nonzero entries only, equal entry by entry to float(Fraction(n, d))."""
    expected = _as_floats(pair)
    assert isinstance(view, tuple) and all(isinstance(row, tuple) for row in view)
    assert [[(j, x) for j, x in enumerate(row) if x] for row in expected] == list(map(list, view))


def test_metric_float_views_are_converted_once():
    rng = np.random.default_rng(8)
    F = rng.integers(-2, 3, size=(7, 7))
    while round(np.linalg.det(F)) <= 0:
        F = rng.integers(-2, 3, size=(7, 7))
    s2 = G2Structure((F.tolist(), 1))
    g = s2.metric
    for p in range(8):
        view = fr.lambda_gram_float(s2, p)
        assert view is fr.lambda_gram_float(s2, p)
        assert_view_rounds(view, g.lambda_gram(p))


FLOAT_VIEW_FRAMES = [None, [[(2 if i == j == 0 else 3 if i == j == 5 else int(i == j))
                             for j in range(DIM)] for i in range(DIM)]]


@pytest.mark.parametrize("frame", FLOAT_VIEW_FRAMES, ids=["identity", "diagonal"])
def test_float_views_match_exact_matrices_and_are_read_only(frame):
    s2 = G2Structure(None if frame is None else (frame, 1))
    for grade, comps in VALID_COMPONENTS.items():
        for comp in comps:
            view = fr.projector_float(s2, grade, comp)
            assert view is fr.projector_float(s2, grade, comp)
            assert_view_rounds(view, s2.projector(grade, comp))
    for p in range(DIM + 1):
        view = fr.star_matrix_float(s2, p)
        assert view is fr.star_matrix_float(s2, p)
        assert_view_rounds(view, s2.metric.star_matrix(p))


def test_every_float_view_rounds_its_exact_pair():
    """Each float view equals float(Fraction(n, d)) entry by entry, under seeded
    rational frames with off-diagonal entries, whose pairs need not be reduced."""
    rng = np.random.default_rng(31)
    for _ in range(2):
        F = [[Fraction(int(rng.integers(1, 5)), int(rng.choice([1, 2, 3]))) if i == j
              else Fraction(int(rng.integers(-2, 3)), int(rng.choice([1, 3, 5]))) if i < j
              else 0 for j in range(DIM)] for i in range(DIM)]
        s2 = G2Structure(linalg.clear_denominators(F))
        views = [(fr.lambda_gram_float(s2, p), s2.metric.lambda_gram(p)) for p in range(DIM + 1)]
        views += [(fr.star_matrix_float(s2, p), s2.metric.star_matrix(p)) for p in range(DIM + 1)]
        views += [(fr.projector_float(s2, grade, comp), s2.projector(grade, comp))
                  for grade, comps in VALID_COMPONENTS.items() for comp in comps]
        for view, pair in views:
            assert_view_rounds(view, pair)


def test_a_flipped_hessian_weight_fails_apply_I_and_the_E_check(s, rng, monkeypatch):
    """apply_I and the check d* I d = -d* d of the E blocks read their weights
    from the one table g2.HESSIAN_WEIGHTS: with the grade-3 weight of
    Lambda^3_27 flipped from -1 to +1, both fail."""
    f = fr.random_fourier(s, 2, rng, n_modes=3)
    a27 = s.apply_projector(3, 27, ExteriorForm(3, range(35)))
    check = "dstar_I_d_equals_minus_dstar_d"
    assert s.apply_I(a27) == -a27 and fr.hessian_blocks("E", f).checks[check] < 1e-9
    monkeypatch.setitem(g2.HESSIAN_WEIGHTS[3], 27, Fraction(1))
    assert s.apply_I(a27) != -a27
    assert fr.hessian_blocks("E", f).checks[check] > 0.5


# -- the sparse operators against dense numpy stacks built from the exact pairs -----

SHEARED_DATA = Path(__file__).resolve().parent / "data" / "t7-sheared.json"
CROSS_CHECK_FRAMES = {
    "identity": None,
    "f23": [[Fraction((2, 1, 1, 1, 1, 3, 1)[i] * int(i == j)) for j in range(DIM)]
            for i in range(DIM)],
    "t7-sheared": [[Fraction(x) for x in row]
                   for row in json.loads(SHEARED_DATA.read_text())["frame"]],
}


def _dense(pair):
    N, d = pair
    return np.array([[float(Fraction(x, d)) for x in row] for row in N])


class DenseReference:
    """Every operator of the Fourier layer as a dense numpy matrix or stack of
    7, built from the structure's exact pairs alone: d from the wedge matrices
    of the covectors e^b, d* and the four adjoint-named refined operators as
    L^2 adjoints through the Lambda-Grams."""

    def __init__(self, s):
        self.s = s
        self.gram = _dense(s.metric.gram)
        self.G = [_dense(s.metric.lambda_gram(p)) for p in range(DIM + 1)]
        self.star = [_dense(s.metric.star_matrix(p)) for p in range(DIM + 1)]

    def proj(self, grade, component):
        return _dense(self.s.projector(grade, component))

    def wedge(self, form, p):
        return _dense(wedge_matrix(form, p))

    def d(self, p):
        """K[a] = sum_b g_ab (e^b ^ .) on grade p; e^b ^ v = (-1)^p v ^ e^b."""
        E = np.array([(-1) ** p * self.wedge(ExteriorForm(1, [int(i == b) for i in range(DIM)]), p)
                      for b in range(DIM)])
        return np.tensordot(self.gram, E, axes=1)

    def adjoint(self, K, dom, cod):
        """-G_dom^-1 K[a]^T G_cod: the stack of the L^2 adjoint of 2 pi i M(l)."""
        return np.array([-np.linalg.inv(self.G[dom]) @ k.T @ self.G[cod] for k in K])

    def dstar(self, p):
        return self.adjoint(self.d(p - 1), p - 1, p)

    def refined(self, name):
        """(stack, domain projection or None) of a refined operator."""
        op = fr.REFINED_OPS[name]
        if op.adjoint_of is not None:
            primal = fr.REFINED_OPS[op.adjoint_of]
            K, _ = self.refined(op.adjoint_of)
            K = self.adjoint(K, primal.domain[0], primal.codomain[0])
        else:
            psi = self.wedge(self.s.psi, 1)
            K = {"d1_7": lambda: self.d(0),
                 "d7_7": lambda: self.star[6] @ self.d(5) @ psi,
                 "d7_14": lambda: self.proj(2, 14) @ self.d(1),
                 "d7_27": lambda: self.proj(3, 27) @ self.d(2) @ self.star[5] @ psi,
                 "d14_27": lambda: self.proj(3, 27) @ self.d(2) @ self.proj(2, 14),
                 "d27_27": lambda: self.star[4] @ self.proj(4, 27) @ self.d(3)
                 @ self.proj(3, 27)}[name]()
        grade, component = op.domain
        return K, None if component is None else self.proj(grade, component)


def _apply_dense(f, matrix=None, stack=None):
    """Mode rows of a dense constant matrix, or of 2 pi i M(l) for a stack."""
    rows = []
    for l, c in zip(f.modes, f.coeffs):
        M = matrix if stack is None else 2j * np.pi * np.tensordot(np.array(l, float), stack, 1)
        rows.append(M @ np.array(c))
    return np.array(rows)


def _assert_rows_close(got, expected):
    got = np.array(got.coeffs)
    scale = np.max(np.abs(expected))
    assert got.shape == expected.shape and scale > 0
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("frame", sorted(CROSS_CHECK_FRAMES))
def test_sparse_operators_match_dense_stacks_of_the_exact_pairs(frame):
    """Each sparse operator equals, to a relative 1e-12, the dense numpy matrix
    or stack built straight from the exact pairs (projector, star_matrix,
    lambda_gram, wedge_matrix), on seeded forms under the identity frame, f23
    = diag(2, 1, 1, 1, 1, 3, 1) and the non-diagonal frame of t7-sheared."""
    F = CROSS_CHECK_FRAMES[frame]
    s2 = G2Structure(None if F is None else linalg.clear_denominators(F))
    ref = DenseReference(s2)
    rng = random.Random(17)
    forms = {p: fr.random_fourier(s2, p, rng, n_modes=4) for p in range(DIM + 1)}
    for p, f in forms.items():
        if p < DIM:
            _assert_rows_close(fr.exterior_d(f), _apply_dense(f, stack=ref.d(p)))
        if p > 0:
            _assert_rows_close(fr.coexterior_d(f), _apply_dense(f, stack=ref.dstar(p)))
        _assert_rows_close(fr.star(f), _apply_dense(f, ref.star[p]))
        for name, grade in (("phi", 3), ("psi", 4), ("vol", 7)):
            if p + grade <= DIM:
                form = ExteriorForm(7, [s2.metric.vol]) if name == "vol" else getattr(s2, name)
                _assert_rows_close(fr.wedge_const(f, name), _apply_dense(f, ref.wedge(form, p)))
        for component in VALID_COMPONENTS.get(p, ()):
            _assert_rows_close(fr.project_type(f, p, component),
                               _apply_dense(f, ref.proj(p, component)))
        g = fr.random_fourier(s2, p, rng, n_modes=4)
        a, b = np.array(f.coeffs), np.array(fr.FourierForm(s2, p, f.modes, g.coeffs).coeffs)
        expected = np.sum((a @ ref.G[p]) * np.conj(b))
        got = fr.l2_inner(f, fr.FourierForm(s2, p, f.modes, g.coeffs))
        assert abs(got - expected) <= 1e-12 * abs(expected)
    for name, op in fr.REFINED_OPS.items():
        K, P = ref.refined(name)
        f = forms[op.domain[0]]
        typed = f if P is None else fr.FourierForm(s2, f.grade, f.modes, _apply_dense(f, P))
        _assert_rows_close(fr.refined(name, f), _apply_dense(typed, stack=K))
