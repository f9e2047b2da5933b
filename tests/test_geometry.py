"""Curve construction, frames, potential sampling."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe

from nlscurve.errors import ConvergenceError, ValidationError
from nlscurve.geometry import (CurveSpec, PotentialField, build_curve,
                               periodic_derivative, sample_potential)

from oracles import straight_segment_curve


class TestBuildCurve:
    def test_circle_r3(self):
        c = build_curve(CurveSpec("circle", n=3, radius=2.0), 256)
        assert abs(c.L - 4 * np.pi) < 1e-8
        H = c.curvature_vectors()
        assert np.max(np.abs(np.linalg.norm(H, axis=1) - 0.5)) < 1e-6

    def test_unit_circle_r2_inward(self):
        c = build_curve(CurveSpec("circle", n=2, radius=1.0), 128)
        assert c.frame.shape == (128, 1, 2)
        # E1 is outward radial, H = -E1
        assert np.dot(c.frame[0, 0], c.positions[0]) > 0
        assert np.max(np.abs(c.curvature[:, 0] + 1.0)) < 1e-8

    def test_ellipse_arclength_quadrature(self):
        c = build_curve(CurveSpec("ellipse", n=2, a=2.0, b=1.0), 256)
        oracle = quad(lambda t: np.hypot(2 * np.sin(t), np.cos(t)),
                      0, 2 * np.pi, epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(c.L - oracle) < 1e-8

    @pytest.mark.parametrize("R", [0.7012465, 2.0])
    def test_circle_length_to_round_off(self, R):
        c = build_curve(CurveSpec("circle", n=2, radius=R), 128)
        assert abs(c.L - 2 * np.pi * R) <= 4 * np.finfo(float).eps * 2 * np.pi * R
        angle = np.unwrap(np.arctan2(c.positions[:, 1], c.positions[:, 0]))
        assert np.max(np.abs(angle - 2 * np.pi * np.arange(128) / 128)) < 1e-13

    def test_ellipse_nodes_equispaced_in_arc_length(self):
        c = build_curve(CurveSpec("ellipse", n=2, a=2.0, b=1.0), 64)
        t = np.mod(np.arctan2(c.positions[:, 1], c.positions[:, 0] / 2.0), 2 * np.pi)
        for i in (1, 17, 40, 63):
            s = quad(lambda tt: np.hypot(2 * np.sin(tt), np.cos(tt)), 0, t[i],
                     epsabs=1e-13, epsrel=1e-13)[0]
            assert abs(s - c.s[i]) < 1e-12

    def test_frame_orthonormal_and_tangent(self):
        c = build_curve(CurveSpec("ellipse", n=3, a=2.0, b=1.0), 256)
        for i in (0, 57, 200):
            G = c.frame[i] @ c.frame[i].T
            assert np.max(np.abs(G - np.eye(2))) < 1e-10
            assert np.max(np.abs(c.frame[i] @ c.tangents[i])) < 1e-10

    def test_curvature_orthogonal_to_tangent(self):
        c = build_curve(CurveSpec("ellipse", n=2, a=2.0, b=1.0), 256)
        H = c.curvature_vectors()
        assert np.max(np.abs(np.einsum("ij,ij->i", H, c.tangents))) < 1e-8

    @staticmethod
    def transport_defect(c):
        """max |E_j' + <H, E_j> T| / max |H|, E' by spectral differentiation."""
        dE = periodic_derivative(c.frame, c.L)
        pred = -c.curvature[:, :, None] * c.tangents[:, None, :]
        H = np.linalg.norm(c.curvature_vectors(), axis=1)
        return np.max(np.abs(dE - pred)) / np.max(H)

    def test_curvature_from_frame_differentiation(self):
        # H^j = -<E_j', T> for a parallel frame: the spectral derivative of
        # the stored frame reproduces the analytic curvature to round-off
        for M in (256, 512):
            c = build_curve(CurveSpec("circle", n=3, radius=2.0), M)
            assert self.transport_defect(c) < 1e-11

    def test_parallel_transport_discrete(self):
        # the stored frame is parallel: E_j' = -<H, E_j> T, so <E_j', E_l>
        # vanishes to round-off
        c = build_curve(CurveSpec("ellipse", n=3, a=2.0, b=1.0), 512)
        assert self.transport_defect(c) < 1e-11

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a, b, M", [(0.85, 0.6, 256), (2.0, 1.0, 512),
                                         (1.0, 0.3, 1024)])
    def test_closed_forms_are_derivatives_of_the_positions(self, a, b, M, n):
        # T = γ' and H = γ'' in arc length: the spectral s̄-derivatives of
        # the stored positions reproduce the closed-form tangents and
        # curvature vectors, which are not computed from the positions
        c = build_curve(CurveSpec("ellipse", n=n, a=a, b=b), M)
        d1 = periodic_derivative(c.positions, c.L)
        d2 = periodic_derivative(c.positions, c.L, order=2)
        H = c.curvature_vectors()
        assert np.max(np.abs(d1 - c.tangents)) < 1e-11
        assert np.max(np.abs(d2 - H)) < 1e-10 * np.max(np.abs(H))

    @pytest.mark.parametrize("spec", [CurveSpec("circle", n=3, radius=2.0),
                                      CurveSpec("ellipse", n=3, a=2.0, b=1.0)])
    def test_planar_frame_stays_planar(self, spec):
        # one normal lies in the plane, the other is the constant plane
        # normal e3 at every node, and H has no component along it
        for M in (256, 512, 1024, 2048, 5120):
            c = build_curve(spec, M)
            assert np.all(c.frame[:, 0, 2] == 0)
            assert np.all(c.frame[:, 1] == [0.0, 0.0, 1.0])
            assert np.all(c.curvature[:, 1:] == 0)

    @pytest.mark.parametrize("b, M", [(0.01, 256), (0.02, 64), (0.002, 256)])
    def test_thin_ellipse(self, b, M):
        # L = 4·E(1 - b²) for semi-axes 1 and b, and the curvature peaks at
        # the vertex (1, 0), which is node 0, at a/b²
        c = build_curve(CurveSpec("ellipse", n=2, a=1.0, b=b), M)
        L = 4 * ellipe(1 - b**2)
        assert abs(c.L - L) <= 1e-14 * L
        kmax = np.max(np.linalg.norm(c.curvature_vectors(), axis=1))
        assert abs(kmax - 1 / b**2) <= 1e-14 / b**2

    def test_arc_length_series_cap(self):
        # at b/a = 1e-4 the speed's Fourier tail is still 1.4e-9·c₀ at
        # ARC_MODES_CAP modes, and L there is 2.2e-12 off relative: refused
        with pytest.raises(ConvergenceError, match="arc-length series"):
            build_curve(CurveSpec("ellipse", n=2, a=1.0, b=1e-4), 256)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            build_curve(CurveSpec("circle", n=2, radius=1.0), 32)

    def test_memory_linear_in_samples(self):
        # no step of the curve build holds an M×M table
        tracemalloc.start()
        try:
            build_curve(CurveSpec("ellipse", n=2, a=2.0, b=1.0), 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6


class TestPotential:
    def test_expression_language_rejects_injection(self):
        for bad in ("__import__('os')", "x1.__class__", "lambda: 1",
                    "open('x')", "x9", "a+b"):
            with pytest.raises(ValidationError):
                PotentialField(bad, 2)

    def test_expression_values(self):
        V = PotentialField("1 + 2*x1 + exp(-r2)", 2)
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        expected = np.array([2.0, 3.0 + np.exp(-5.0)])
        assert np.max(np.abs(V(pts) - expected)) < 1e-14

    def test_constant_potential(self):
        c = build_curve(CurveSpec("circle", n=2, radius=1.0), 128)
        pd = sample_potential(PotentialField("1", 2), c)
        assert np.max(np.abs(pd.grad_normal)) < 1e-9
        assert np.max(np.abs(pd.hess_normal)) < 1e-6

    def test_radius_squared_gradient(self):
        # V = |x|² on the unit circle: <∇V, E1> = 2 with E1 outward
        c = build_curve(CurveSpec("circle", n=2, radius=1.0), 128)
        pd = sample_potential(PotentialField("r2", 2), c)
        assert np.max(np.abs(pd.grad_normal[:, 0] - 2.0)) < 1e-6
        assert np.max(np.abs(pd.hess_normal[:, 0, 0] - 2.0)) < 1e-6

    def test_positivity_enforced(self):
        c = build_curve(CurveSpec("circle", n=2, radius=1.0), 128)
        with pytest.raises(ValidationError):
            sample_potential(PotentialField("r2 - 1", 2), c)

    def test_polynomial_accuracy(self):
        # cubic potential: gradient/Hessian to 1e-6 relative
        c = build_curve(CurveSpec("circle", n=3, radius=1.5), 128)
        V = PotentialField("4 + x1*x2 + x3*x3*x1 + 0.1*x2*x2*x2", 3)
        pd = sample_potential(V, c)
        x = c.positions
        grad_exact = np.stack([x[:, 1] + x[:, 2] ** 2,
                               x[:, 0] + 0.3 * x[:, 1] ** 2,
                               2 * x[:, 2] * x[:, 0]], axis=1)
        gn = np.einsum("ik,ijk->ij", grad_exact, c.frame)
        rel = np.max(np.abs(pd.grad_normal - gn)) / np.max(np.abs(gn))
        assert rel < 1e-6


def _bump_derivatives(x):
    """Closed-form gradient and Hessian of V = 1/(1+|x|²)."""
    q = 1.0 + np.sum(x**2, axis=-1)
    grad = -2.0 * x / q[:, None] ** 2
    hess = (-2.0 * np.eye(x.shape[1]) / q[:, None, None] ** 2
            + 8.0 * x[:, :, None] * x[:, None, :] / q[:, None, None] ** 3)
    return grad, hess


# f' and f'' of the expression language's functions, written out by hand
_HAND_DERIVATIVES = {
    "exp": (np.exp, np.exp),
    "sqrt": (lambda u: 0.5 * u**-0.5, lambda u: -0.25 * u**-1.5),
    "log": (lambda u: 1 / u, lambda u: -1 / u**2),
    "sin": (np.cos, lambda u: -np.sin(u)),
    "cos": (lambda u: -np.sin(u), lambda u: -np.cos(u)),
    "tanh": (lambda u: 1 / np.cosh(u) ** 2, lambda u: -2 * np.sinh(u) / np.cosh(u) ** 3),
    "abs": (np.sign, np.zeros_like),
}


class TestPotentialJet:
    """Exact derivatives from the expression jets, against closed forms."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_bump_closed_form(self, n):
        x = np.random.default_rng(n).normal(size=(200, n))
        grad, hess = PotentialField("1/(1+r2)", n).jet(x)
        g_ex, h_ex = _bump_derivatives(x)
        assert np.max(np.abs(grad - g_ex)) < 1e-13
        assert np.max(np.abs(hess - h_ex)) < 1e-13
        # the same field written with r
        grad_r, hess_r = PotentialField("1/(1+r**2)", n).jet(x)
        assert np.max(np.abs(grad_r - g_ex)) < 1e-13
        assert np.max(np.abs(hess_r - h_ex)) < 1e-13

    def test_hess_normal_constant_on_centred_circle(self):
        # radial V on a centred circle: E1 is the outward radial direction,
        # so ∂_r V and ∂²_r V are the same at every node
        R = 0.7
        c = build_curve(CurveSpec("circle", n=2, radius=R), 256)
        pd = sample_potential(PotentialField("1/(1+r2)", 2), c)
        assert np.ptp(pd.hess_normal[:, 0, 0]) < 1e-14
        assert np.max(np.abs(pd.grad_normal[:, 0] + 2 * R / (1 + R**2) ** 2)) < 1e-13
        assert np.max(np.abs(pd.hess_normal[:, 0, 0]
                             - (6 * R**2 - 2) / (1 + R**2) ** 3)) < 1e-13

    def test_polynomial_closed_form(self):
        x = np.random.default_rng(3).normal(size=(100, 3))
        V = PotentialField("4 + x1*x2 + x3*x3*x1 + 0.1*x2*x2*x2", 3)
        grad, hess = V.jet(x)
        x1, x2, x3 = x.T
        g_ex = np.stack([x2 + x3**2, x1 + 0.3 * x2**2, 2 * x3 * x1], axis=1)
        one, zero = np.ones_like(x1), np.zeros_like(x1)
        h_ex = np.stack([np.stack([zero, one, 2 * x3], axis=1),
                         np.stack([one, 0.6 * x2, zero], axis=1),
                         np.stack([2 * x3, zero, 2 * x1], axis=1)], axis=1)
        assert np.max(np.abs(grad - g_ex)) < 1e-13
        assert np.max(np.abs(hess - h_ex)) < 1e-13

    def test_difference_negation_and_quotient(self):
        # binary and unary minus and division by an expression:
        # V = 2 - g + x2 with g = f/q, f = x1·x2, q = 1 + |x|²
        x = np.random.default_rng(4).normal(size=(100, 2))
        grad, hess = PotentialField("2 - x1*x2/(1 + r2) - -x2", 2).jet(x)
        f, q = x[:, 0] * x[:, 1], 1 + np.sum(x**2, axis=1)
        df, dq = x[:, ::-1], 2 * x
        outer = lambda a, b: a[:, :, None] * b[:, None, :]
        g_grad = df / q[:, None] - (f / q**2)[:, None] * dq
        g_hess = (np.array([[0.0, 1.0], [1.0, 0.0]]) / q[:, None, None]
                  - (outer(df, dq) + outer(dq, df)) / (q**2)[:, None, None]
                  - (2 * f / q**2)[:, None, None] * np.eye(2)
                  + (2 * f / q**3)[:, None, None] * outer(dq, dq))
        assert np.max(np.abs(grad - (np.array([0.0, 1.0]) - g_grad))) < 1e-13
        assert np.max(np.abs(hess + g_hess)) < 1e-13

    @pytest.mark.parametrize("name", sorted(_HAND_DERIVATIVES))
    def test_functions(self, name):
        d1, d2 = _HAND_DERIVATIVES[name]
        # f(x1·x2): ∇ = f'(u)(x2, x1), D² = f''(u)(x2, x1)⊗(x2, x1) + f'(u)[[0,1],[1,0]]
        x = np.random.default_rng(5).uniform(0.3, 1.5, size=(50, 2))
        if name == "abs":
            x[::2, 1] *= -1          # both signs of x1·x2
        grad, hess = PotentialField(f"{name}(x1*x2)", 2).jet(x)
        u = x[:, 0] * x[:, 1]
        du = x[:, ::-1]
        g_ex = d1(u)[:, None] * du
        h_ex = (d2(u)[:, None, None] * du[:, :, None] * du[:, None, :]
                + d1(u)[:, None, None] * np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.max(np.abs(grad - g_ex)) < 1e-13
        assert np.max(np.abs(hess - h_ex)) < 1e-13

    def test_powers_with_variable_exponent(self):
        x = np.random.default_rng(6).uniform(0.5, 2.0, size=(50, 2))
        x1, x2 = x.T
        grad, hess = PotentialField("x1**x2", 2).jet(x)
        ln = np.log(x1)
        g_ex = np.stack([x2 * x1 ** (x2 - 1), x1**x2 * ln], axis=1)
        h12 = x1 ** (x2 - 1) * (1 + x2 * ln)
        h_ex = np.stack([np.stack([x2 * (x2 - 1) * x1 ** (x2 - 2), h12], axis=1),
                         np.stack([h12, x1**x2 * ln**2], axis=1)], axis=1)
        assert np.max(np.abs(grad - g_ex)) < 1e-13
        assert np.max(np.abs(hess - h_ex)) < 1e-13
        grad, hess = PotentialField("2**x1", 2).jet(x)
        ln2 = np.log(2.0)
        assert np.max(np.abs(grad[:, 0] - 2**x1 * ln2)) < 1e-13
        assert np.max(np.abs(hess[:, 0, 0] - 2**x1 * ln2**2)) < 1e-13
        assert np.all(grad[:, 1] == 0) and np.all(hess[:, 1] == 0)

    def test_origin_is_regular_without_r(self):
        # √ is singular at 0; fields that do not use r must not touch it
        origin = np.zeros((3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            g1, h1 = PotentialField("1", 2).jet(origin)
            g2, h2 = PotentialField("r2", 2).jet(origin)
        assert np.all(g1 == 0) and np.all(h1 == 0) and g1.shape == (3, 2)
        assert np.all(g2 == 0) and np.all(h2 == 2 * np.eye(2)) and h2.shape == (3, 2, 2)


def test_straight_segment_harness():
    seg = straight_segment_curve(10.0, 64, 2)
    assert seg.L == 10.0 and seg.M == 64
    assert np.all(seg.curvature == 0)
