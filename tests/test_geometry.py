"""Curve construction, frames, holonomy, potential sampling."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from nlscurve.errors import ValidationError
from nlscurve.geometry import (CurveSpec, PotentialField, build_curve,
                               sample_potential)
from nlscurve.geometry import (_arc_length_parameters, _check_simple,
                               _close_pairs, _param_functions)

from oracles import straight_segment_curve


def _torus_knot(samples=200):
    t = np.linspace(0, 2 * np.pi, samples, endpoint=False)
    return np.stack([(2 + 0.5 * np.cos(3 * t)) * np.cos(t),
                     (2 + 0.5 * np.cos(3 * t)) * np.sin(t),
                     0.5 * np.sin(3 * t)], axis=1)


def _figure_eight(samples=256):
    t = np.linspace(0, 2 * np.pi, samples, endpoint=False)
    return np.stack([np.cos(2 * t), np.sin(t)], axis=1)


def _node_positions(spec, M):
    """The curve nodes that build_curve hands to the self-intersection test."""
    gamma, dgamma, _ = _param_functions(spec)
    return gamma(_arc_length_parameters(dgamma, M)[2])


class TestBuildCurve:
    def test_circle_r3(self):
        c = build_curve(CurveSpec("circle", n=3, radius=2.0), 256)
        assert abs(c.L - 4 * np.pi) < 1e-8
        H = c.curvature_vectors()
        assert np.max(np.abs(np.linalg.norm(H, axis=1) - 0.5)) < 1e-6
        assert abs(c.holonomy_angle) < 1e-8

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

    def test_curvature_from_frame_differentiation(self):
        # H^j = -<E_j', T> for a parallel frame: finite differences of the
        # stored frame reproduce the analytic curvature to O(M^-2)
        for M in (256, 512):
            c = build_curve(CurveSpec("circle", n=3, radius=2.0), M)
            ds = c.L / c.M
            dE = (np.roll(c.frame, -1, axis=0)
                  - np.roll(c.frame, 1, axis=0)) / (2 * ds)
            Hj = -np.einsum("ijk,ik->ij", dE, c.tangents)
            err = np.max(np.abs(Hj - c.curvature))
            assert err < 40.0 / M**2

    def test_parallel_transport_discrete(self):
        # zero-holonomy loop: the stored frame is the parallel frame and
        # <E_j', E_l> vanishes to discretization accuracy
        c = build_curve(CurveSpec("ellipse", n=3, a=2.0, b=1.0), 512)
        assert c.holonomy_angle < 1e-10
        ds = c.L / c.M
        dE = (np.roll(c.frame, -1, axis=0) - np.roll(c.frame, 1, axis=0)) / (2 * ds)
        ip = np.einsum("ijk,ilk->ijl", dE, c.frame)
        assert np.max(np.abs(ip[:, 0, 1])) < 100.0 / c.M**2

    @pytest.mark.parametrize("spec", [CurveSpec("circle", n=3, radius=2.0),
                                      CurveSpec("ellipse", n=3, a=2.0, b=1.0)])
    def test_planar_frame_stays_planar(self, spec):
        # a planar loop in R³ has zero holonomy; its round-off holonomy of
        # up to ~1e-13 must not tilt the frame: one normal stays in the
        # plane, the other is the constant plane normal, at every node
        for M in (256, 512, 1024, 2048, 5120):
            c = build_curve(spec, M)
            k = int(np.argmax(np.abs(c.frame[0, :, 2])))
            assert np.max(np.abs(c.frame[:, 1 - k, 2])) < 1e-12
            assert np.max(np.abs(c.frame[:, k] - [0.0, 0.0, 1.0])) < 1e-12

    def test_frame_seam_closure(self):
        # stored frame continued across the seam (one transport step plus the
        # per-step holonomy increment) returns the node-0 frame exactly
        from scipy.linalg import expm
        from nlscurve.geometry import _transport_rotations
        t = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        pts = np.stack([(2 + 0.5 * np.cos(3 * t)) * np.cos(t),
                        (2 + 0.5 * np.cos(3 * t)) * np.sin(t),
                        0.5 * np.sin(3 * t)], axis=1)
        for spec in (CurveSpec("parametric", n=3, points=pts),
                     CurveSpec("ellipse", n=3, a=2.0, b=1.0)):
            c = build_curve(spec, 256)
            step = expm(-c.holonomy_generator / c.M)
            closing = _transport_rotations(c.tangents[-1:], c.tangents[:1])[0]
            cont = step @ (c.frame[-1] @ closing.T)
            assert np.max(np.abs(cont - c.frame[0])) < 1e-8

    def test_batched_transport_matches_loop(self):
        # the batched rotations reproduce a per-node loop of the rotation in
        # span(T_i, T_{i+1}), and with it the propagated frame
        from nlscurve.geometry import _transport_rotations

        def rotation(t0, t1):
            c = float(np.dot(t0, t1))
            w = t1 - c * t0
            nw = np.linalg.norm(w)
            if nw < 1e-15:
                return np.eye(t0.size)
            w = w / nw
            return (np.eye(t0.size)
                    + (c - 1) * (np.outer(t0, t0) + np.outer(w, w))
                    + nw * (np.outer(w, t0) - np.outer(t0, w)))

        t = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        knot = np.stack([(2 + 0.5 * np.cos(3 * t)) * np.cos(t),
                         (2 + 0.5 * np.cos(3 * t)) * np.sin(t),
                         0.5 * np.sin(3 * t)], axis=1)
        for spec in (CurveSpec("circle", n=2, radius=1.0),
                     CurveSpec("ellipse", n=3, a=2.0, b=1.0),
                     CurveSpec("parametric", n=3, points=knot)):
            c = build_curve(spec, 256)
            nxt = np.roll(c.tangents, -1, axis=0)
            R = _transport_rotations(c.tangents, nxt)
            ref = np.stack([rotation(a, b) for a, b in zip(c.tangents, nxt)])
            assert np.max(np.abs(R - ref)) <= 1e-15
            loop, batched = [c.frame[0]], [c.frame[0]]
            for i in range(c.M - 1):
                loop.append(loop[-1] @ ref[i].T)
                batched.append(batched[-1] @ R[i].T)
            assert np.max(np.abs(np.array(batched) - np.array(loop))) <= 1e-15
        same = np.array([[0.6, 0.8]])
        assert np.array_equal(_transport_rotations(same, same)[0], np.eye(2))

    def test_holonomy_distributed_uniformly(self):
        # torsioned loop: the closing rotation is spread at the constant rate
        # holonomy/L, which is exactly the residual <E_1', E_2> of the frame
        t = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        pts = np.stack([(2 + 0.5 * np.cos(3 * t)) * np.cos(t),
                        (2 + 0.5 * np.cos(3 * t)) * np.sin(t),
                        0.5 * np.sin(3 * t)], axis=1)
        c = build_curve(CurveSpec("parametric", n=3, points=pts), 512)
        assert c.holonomy_angle > 0.1
        ds = c.L / c.M
        dE = (np.roll(c.frame, -1, axis=0) - np.roll(c.frame, 1, axis=0)) / (2 * ds)
        rate = np.einsum("ik,ik->i", dE[:, 0, :], c.frame[:, 1, :])
        assert np.max(np.abs(np.abs(rate) - c.holonomy_angle / c.L)) < 0.01

    def test_holonomy_nonzero_and_periodic_frame(self):
        t = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        pts = np.stack([(2 + 0.5 * np.cos(3 * t)) * np.cos(t),
                        (2 + 0.5 * np.cos(3 * t)) * np.sin(t),
                        0.5 * np.sin(3 * t)], axis=1)
        c = build_curve(CurveSpec("parametric", n=3, points=pts), 512)
        assert c.holonomy_angle > 0.1
        # frame periodicity across the seam: compare E(L-ds) continued by one
        # step of transport+closing correction against E(0)
        ds = c.L / c.M
        gap = np.linalg.norm(c.frame[0] - c.frame[-1], axis=1).max()
        assert gap < 10 * ds  # smooth closure, no jump of order holonomy

    def test_self_intersection_rejected(self):
        t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        pts = np.stack([np.cos(2 * t) * (1 + 0.0 * t), np.sin(t)], axis=1)
        with pytest.raises(ValidationError):
            build_curve(CurveSpec("parametric", n=2, points=pts), 128)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            build_curve(CurveSpec("circle", n=2, radius=1.0), 32)

    def test_memory_linear_in_samples(self):
        # the self-intersection check must not build M×M distance tables
        tracemalloc.start()
        try:
            build_curve(CurveSpec("ellipse", n=2, a=2.0, b=1.0), 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6


class TestSampledLoopSpline:
    def test_matches_periodic_cubic_spline(self):
        # the FFT-solved periodic cubic is SciPy's periodic CubicSpline; the
        # second derivative of either carries rounding of order
        # eps·max|γ|/h² (h = 2π/200): SciPy's knot values of γ'' sit 5.1e-12
        # from a 30-digit solve of the moment system, these 2.9e-13
        pts = _torus_knot()
        funcs = _param_functions(CurveSpec("parametric", n=3, points=pts))
        ref = CubicSpline(np.linspace(0, 2 * np.pi, pts.shape[0] + 1),
                          np.concatenate([pts, pts[:1]]), axis=0,
                          bc_type="periodic")
        t = np.concatenate([np.random.default_rng(5).uniform(-7, 14, 4000),
                            np.linspace(0, 2 * np.pi, 201)])
        h = 2 * np.pi / pts.shape[0]
        for nu, tol in enumerate((1e-12, 1e-12, 20 * np.finfo(float).eps * 2.5 / h**2)):
            assert np.max(np.abs(funcs[nu](t) - ref(np.mod(t, 2 * np.pi), nu))) <= tol

    def test_interpolates_and_solves_moment_system(self):
        pts = _figure_eight(64)
        gamma, _, d2gamma = _param_functions(CurveSpec("parametric", n=2, points=pts))
        knots = np.arange(64) * (2 * np.pi / 64)
        assert np.max(np.abs(gamma(knots) - pts)) <= 1e-15
        mom, h = d2gamma(knots), 2 * np.pi / 64
        lhs = np.roll(mom, 1, axis=0) + 4 * mom + np.roll(mom, -1, axis=0)
        rhs = 6 * (np.roll(pts, 1, axis=0) - 2 * pts + np.roll(pts, -1, axis=0)) / h**2
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


class TestSelfIntersection:
    @staticmethod
    def brute_pairs(points, rad):
        dist = np.linalg.norm(points[:, None] - points[None], axis=-1)
        i, j = np.nonzero(np.triu(dist <= rad, k=1))
        return set(zip(i.tolist(), j.tolist()))

    @pytest.mark.parametrize("spec, M", [
        (CurveSpec("parametric", n=3, points=_torus_knot()), 512),
        (CurveSpec("parametric", n=2, points=_figure_eight()), 128),
        (CurveSpec("ellipse", n=3, a=2.0, b=1.0), 256),
        (CurveSpec("circle", n=2, radius=0.7), 128)],
        ids=["knot", "figure-eight", "ellipse-n3", "circle"])
    def test_matches_brute_force_pairs(self, spec, M):
        # the same close pairs, hence the same verdict, as all M² distances
        pos = _node_positions(spec, M)
        step = np.max(np.linalg.norm(np.diff(pos, axis=0, append=pos[:1]), axis=1))
        for rad in (0.5 * step, 2.0 * step):
            pairs, ref = _close_pairs(pos, rad), self.brute_pairs(pos, rad)
            assert set(zip(*pairs.tolist())) == ref and pairs.shape[1] == len(ref)
        gap = np.array([j - i for i, j in self.brute_pairs(pos, 0.5 * step)])
        crosses = bool(np.any(np.minimum(gap, M - gap) > max(4, M // 64)))
        assert crosses == (spec.points is not None and spec.n == 2)
        if crosses:
            with pytest.raises(ValidationError):
                _check_simple(pos)
        else:
            _check_simple(pos)

    def test_point_cloud_pairs(self):
        # many points per cell, in 2 to 4 dimensions
        rng = np.random.default_rng(6)
        for n in (2, 3, 4):
            pts = rng.uniform(-1, 1, (300, n))
            for rad in (0.05, 0.3):
                pairs, ref = _close_pairs(pts, rad), self.brute_pairs(pts, rad)
                assert set(zip(*pairs.tolist())) == ref and pairs.shape[1] == len(ref)

    def test_peak_memory_linear(self):
        # the traced peak per sample stays flat from M = 1024 to 16384
        per_sample = []
        for M in (1024, 16384):
            pos = build_curve(CurveSpec("ellipse", n=3, a=2.0, b=1.0), M).positions
            tracemalloc.start()
            try:
                _check_simple(pos)
                per_sample.append(tracemalloc.get_traced_memory()[1] / M)
            finally:
                tracemalloc.stop()
        assert max(per_sample) < 400
        assert per_sample[1] < 1.2 * per_sample[0]


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
