"""Scalings, phase law, criticality, second-variation and phase operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh
from scipy.optimize import brentq

from nlscurve import scalings
from nlscurve.errors import ConvergenceError, PhaseLawError, ValidationError
from nlscurve.geometry import (CurveSpec, PotentialField, build_curve,
                               fourier_diff_matrices, periodic_derivative,
                               sample_potential)
from nlscurve.scalings import (assemble_T, assemble_jacobi,
                               compute_exponents, compute_f1, compute_scalings,
                               critical_circle_radius, euler_residual,
                               f1_equation_residual, reduced_functional,
                               weighted_eigenbasis)

from conftest import circle_setup
from oracles import (budget_mismatch, fourier_symbol_jacobi_circle,
                     reduced_length_stationary_radius, straight_segment_curve)


class TestExponents:
    def test_pinned_values(self):
        e = compute_exponents(2, 3)
        assert (e.sigma, e.theta) == (-1.0, 3.0)
        e = compute_exponents(3, 3)
        assert (e.sigma, e.theta) == (0.0, 2.0)
        e = compute_exponents(4, 2)
        assert (e.sigma, e.theta) == (-0.5, 1.5)

    @given(n=st.integers(2, 6), p=st.floats(1.05, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_exponent_identity(self, n, p):
        # θ + σ = p - 1 - ... : both come from one linear relation in (n-1)(p-1)
        if n >= 4 and p >= (n + 1) / (n - 3) - 1e-9:
            return
        e = compute_exponents(n, p)
        assert abs(e.sigma - ((n - 1) * (p - 1) / 2 - 2)) < 1e-14
        assert abs(e.theta + e.sigma - (p - 1.0)) < 1e-14


class TestScalings:
    def test_zero_speed(self, bump_potential, exps23):
        curve, pot, sf = circle_setup(bump_potential, 0.9, 128, 0.0, exps23)
        assert np.max(np.abs(sf.fprime)) == 0.0
        assert np.max(np.abs(sf.h - pot.values ** 0.5)) < 1e-14
        assert np.max(np.abs(sf.k - np.sqrt(pot.values))) < 1e-14

    def test_constant_potential_oracle(self, exps23):
        V = PotentialField("2", 2)
        curve, pot, sf = circle_setup(V, 1.0, 128, 0.3, exps23)
        hstar = brentq(lambda h: h**2 - 0.09 * h ** (-2) - 2.0, 1.0, 3.0,
                       xtol=1e-15, rtol=8.9e-16)
        assert np.max(np.abs(sf.h - hstar)) < 1e-12
        assert np.max(np.abs(sf.fprime - 0.3 * hstar**exps23.sigma)) < 1e-12
        # phase budget closed form for constant h
        assert abs(sf.phase_budget - 0.3 * hstar ** (-1) * curve.L) < 1e-12

    def test_consistency_pointwise(self, critical_circle, exps23):
        # k² = (f')² + V and h^{p-1} = k² at every node, to a few ulp of k²:
        # the critical circle, the README ellipse at A = 0.05 and the README
        # circle in a potential of size 1e7, where k² is about 5e6
        runs = [(critical_circle["sf"], critical_circle["pot"])]
        for spec, V, A in [
                (CurveSpec("ellipse", n=2, a=0.85, b=0.6), "1/(1+r2)", 0.05),
                (CurveSpec("circle", n=2, radius=0.7012465), "1e7/(1+r2)", 0.0)]:
            curve = build_curve(spec, 256)
            pot = sample_potential(PotentialField(V, 2), curve)
            runs.append((compute_scalings(curve, pot, A, exps23), pot))
        for sf, pot in runs:
            k2 = sf.k**2
            assert np.all(np.abs(k2 - sf.fprime**2 - pot.values)
                          <= 8 * np.finfo(float).eps * k2)
            assert np.all(np.abs(sf.h ** (exps23.p - 1) - k2)
                          <= 8 * np.finfo(float).eps * k2)

    def test_phase_periodicity_identity(self, bump_potential, exps23):
        # f(L) - f(0) telescopes to the phase budget: bitwise via the shared
        # cumulative sum (f(L) = f[-1] + the last trapezoid increment)
        curve, pot, sf = circle_setup(bump_potential, 0.8, 192, 0.1, exps23)
        ds = curve.L / curve.M
        f_at_L = sf.f[-1] + 0.5 * (sf.fprime[-1] + sf.fprime[0]) * ds
        assert f_at_L == sf.phase_budget
        total = np.sum(0.5 * (sf.fprime + np.roll(sf.fprime, -1)) * ds)
        assert abs(total - sf.phase_budget) < 1e-13

    def test_budget_matching_across_eps(self, bump_potential, exps23):
        # the phase speed A2 whose budget over ε = 0.025 matches that of
        # A = 0.1 over ε = 0.05
        curve = build_curve(CurveSpec("circle", n=2, radius=0.8), 128)
        pot = sample_potential(bump_potential, curve)
        mismatch, hi = budget_mismatch(curve, pot, exps23, 0.1, 0.05, 0.025)
        A2 = brentq(mismatch, 0.0, hi, xtol=1e-15)
        b1 = compute_scalings(curve, pot, 0.1, exps23).phase_budget / 0.05
        b2 = compute_scalings(curve, pot, A2, exps23).phase_budget / 0.025
        assert abs(b1 - b2) < 1e-10

    def test_large_speed_divergence_names_node(self, exps23):
        V = PotentialField("1", 3)
        curve = build_curve(CurveSpec("circle", n=3, radius=1.0), 128)
        pot = sample_potential(V, curve)
        exps = compute_exponents(3, 5)  # sigma = 2: g(h) = -2499h^4 - 1 has no root
        with pytest.raises(ConvergenceError, match="at node 0"):
            compute_scalings(curve, pot, 50.0, exps)

    def test_small_speed_guard(self):
        # n = 4, p = 3: σ = 1 and 2σ - p + 1 = 0, so the guard's
        # 2σA²h^{2σ-p+1} = 2A² reaches (p-1)/2 = 1 at A = 1/√2 on any curve
        exps = compute_exponents(4, 3)
        curve = build_curve(CurveSpec("circle", n=4, radius=0.7), 64)
        pot = sample_potential(PotentialField("1/(1+r2)", 4), curve)
        compute_scalings(curve, pot, 0.5, exps)
        with pytest.raises(PhaseLawError, match="phase-speed constant too large"):
            compute_scalings(curve, pot, 0.8, exps)

    @pytest.mark.parametrize("A", [0.05, 0.3])
    def test_newton_matches_per_node_brent(self, bump_potential, exps23, A):
        curve = build_curve(CurveSpec("ellipse", n=2, a=0.85, b=0.6), 256)
        pot = sample_potential(bump_potential, curve)
        sf = compute_scalings(curve, pot, A, exps23)
        # σ = -1: g(h) = h² - A²/h² - V is increasing, negative at √V
        ref = np.array([brentq(lambda h: h**2 - A**2 * h**-2.0 - V,
                               np.sqrt(V), 2 * np.sqrt(V) + A,
                               xtol=1e-300, rtol=8.9e-16, maxiter=200)
                        for V in pot.values])
        assert np.ptp(ref) > 0.05 * np.max(ref)         # variable coefficients
        assert np.max(np.abs(sf.h - ref) / ref) <= 1e-15


class TestCriticality:
    def test_constant_potential_never_critical(self, exps23):
        # constant V: residual = (p-1)/θ·h^{p-1}|H| ≠ 0 on any circle
        V = PotentialField("1", 2)
        curve, pot, sf = circle_setup(V, 1.0, 128, 0.0, exps23)
        res, sup = euler_residual(curve, pot, sf, exps23)
        assert abs(sup - (2.0 / 3.0)) < 1e-10

    def test_critical_radius_dual_route(self, critical_circle, exps23):
        # Euler-residual zero against the golden-section oracle
        rstar = critical_circle["rstar"]
        oracle = reduced_length_stationary_radius(
            lambda R: 1.0 / (1.0 + R**2), exps23.theta / (exps23.p - 1),
            (0.4, 1.2))
        assert abs(rstar - oracle) < 1e-6
        _, sup = euler_residual(critical_circle["curve"], critical_circle["pot"],
                                critical_circle["sf"], exps23)
        assert sup < 1e-8

    def test_sign_off_critical(self, bump_potential, exps23):
        # first variation: sign of the outward residual component equals the
        # sign of d/dR of the reduced functional (positive-weight pairing)
        rstar = 2 ** -0.5
        for R in (1.1 * rstar, 0.9 * rstar):
            curve, pot, sf = circle_setup(bump_potential, R, 128, 0.0, exps23)
            res, sup = euler_residual(curve, pot, sf, exps23)
            assert sup > 1e-3
            c2, p2, s2 = circle_setup(bump_potential, R + 1e-4, 128, 0.0, exps23)
            drdR = (reduced_functional(c2, s2, exps23)
                    - reduced_functional(curve, sf, exps23)) / 1e-4
            assert np.sign(res[0, 0]) == np.sign(drdR)

    def test_reduced_functional_closed_forms(self, exps23):
        V = PotentialField("1", 2)
        curve, pot, sf = circle_setup(V, 1.3, 128, 0.0, exps23)
        assert abs(reduced_functional(curve, sf, exps23) - 2 * np.pi * 1.3) < 1e-9

    def test_stationarity_vs_derivative(self, bump_potential, exps23):
        # numerical dR of the reduced functional vanishes at r*
        def red(R):
            c, p, s = circle_setup(bump_potential, R, 128, 0.0, exps23)
            return reduced_functional(c, s, exps23)

        rstar = critical_circle_radius(
            lambda R: circle_setup(bump_potential, R, 128, 0.0, exps23)[:2],
            (0.4, 1.2), 0.0, exps23)
        d = (red(rstar + 5e-5) - red(rstar - 5e-5)) / 1e-4
        scale = red(rstar)
        assert abs(d) / scale < 1e-6

    def test_no_critical_circle_raises(self, exps23):
        V = PotentialField("1 + r2", 2)
        with pytest.raises(ConvergenceError):
            critical_circle_radius(
                lambda R: circle_setup(V, R, 128, 0.0, exps23)[:2],
                (0.2, 2.0), 0.0, exps23)

    @pytest.mark.parametrize("n, p, rstar", [
        (2, 3, 2**-0.5), (3, 3, 1.0), (2, 2, 0.5), (4, 2, 2**-0.5)])
    def test_closed_form_critical_radius(self, n, p, rstar):
        # V = 1/(1+r²), A = 0: h^{p-1} = V and ∇ᴺV = -2R·V², |H| = 1/R, so
        # the Euler condition is 2R² = c(1+R²), c = (p-1)/θ, and
        # R* = √(c/(2-c)); Brent's method builds 12 circles for each
        exps = compute_exponents(n, p)
        c = (p - 1) / exps.theta
        assert abs(rstar - np.sqrt(c / (2 - c))) <= 1e-15
        V = PotentialField("1/(1+r2)", n)
        calls = []

        def builder(R):
            calls.append(R)
            curve = build_curve(CurveSpec("circle", n=n, radius=R), 128)
            return curve, sample_potential(V, curve)

        R = critical_circle_radius(builder, (0.3, 1.5), 0.0, exps)
        assert abs(R - rstar) <= 1e-14
        assert len(calls) <= 12


class TestRadiusSearchFailures:
    @staticmethod
    def search(monkeypatch, defect, bracket=(0.4, 1.2)):
        """critical_circle_radius on a made-up defect of R; (root, calls)."""
        calls = []
        monkeypatch.setattr(scalings, "compute_scalings", lambda *args: None)
        monkeypatch.setattr(scalings, "euler_residual", lambda R, *args: (
            calls.append(R) or np.full((1, 1), defect(R)), None))
        return critical_circle_radius(lambda R: (R, None), bracket, 0.0,
                                      None), len(calls)

    def test_step_defect_converges_to_the_jump(self, monkeypatch):
        # equal defects leave the secant undefined: bisection, no 0/0
        jump = 0.7377
        R, calls = self.search(monkeypatch, lambda R: -1.0 if R < jump else 1.0)
        assert abs(R - jump) <= 1e-12 + 4 * np.finfo(float).eps * jump
        assert calls < 60

    @pytest.mark.parametrize("bracket", [(0.4, 1.2), (0.65, 1.2)])
    def test_nan_defect_raises(self, monkeypatch, bracket):
        # NaN inside the bracket (at the first secant step, R = 0.7) and at
        # its lower end
        with pytest.raises(ConvergenceError):
            self.search(monkeypatch,
                        lambda R: np.nan if 0.6 < R < 0.9 else R - 0.7, bracket)

    def test_step_cap(self, monkeypatch):
        # a fifth-order root: the secant closes in linearly, by a factor
        # ≈0.9 a step, so 100 steps leave it short of the tolerance
        with pytest.raises(ConvergenceError, match="100 steps"):
            self.search(monkeypatch, lambda R: (R - 0.7) ** 5)


class TestBrent:
    def test_matches_scipy_on_critical_circle(self, bump_potential, exps23,
                                               critical_circle):
        # the conftest circle: the secant's root is SciPy's Brent root to
        # 1e-14 relative, from 10 circles where Brent builds 11
        calls = []

        def builder(R):
            calls.append(R)
            curve = build_curve(CurveSpec("circle", n=2, radius=R), 128)
            return curve, sample_potential(bump_potential, curve)

        def defect(R):
            curve, pot, sf = circle_setup(bump_potential, R, 128, 0.0, exps23)
            return float(euler_residual(curve, pot, sf, exps23)[0][:, 0].mean())

        ref = brentq(defect, 0.4, 1.2, xtol=1e-12)
        rstar = critical_circle_radius(builder, (0.4, 1.2), 0.0, exps23)
        assert abs(rstar - ref) <= 1e-14 * abs(ref)
        assert len(calls) <= 10
        assert critical_circle["rstar"] == rstar


class TestJacobi:
    def test_zero_speed_reduction(self, critical_circle, exps23):
        # at A=0 the operator must coincide with the independently assembled
        # reduced form -h^θ V̈ - θh^{θ-1}h'V̇ + θ/(p-1)h^{-σ}D²V
        #              + ½h^θ·2H² - (3+σ/θ)h^θ H²
        curve, pot, sf = (critical_circle["curve"], critical_circle["pot"],
                          critical_circle["sf"])
        matrix, _ = assemble_jacobi(curve, pot, sf, exps23)
        M = curve.M
        h = sf.h
        a = h**exps23.theta
        idx = np.arange(M)
        # -∂(a∂v) = -½(a·v'' + (a v)'') + ½a''v with the Fourier D2
        D2 = fourier_diff_matrices(M, curve.L)[1]
        hand = -0.5 * (a[:, None] + a[None, :]) * D2
        hand[idx, idx] += 0.5 * periodic_derivative(a, curve.L, 2)
        hand[idx, idx] += (exps23.theta / (exps23.p - 1)) * h ** (-exps23.sigma) \
            * pot.hess_normal[:, 0, 0]
        H2 = curve.curvature[:, 0] ** 2
        hand[idx, idx] += a * H2 - (3.0 + exps23.sigma / exps23.theta) * a * H2
        assert np.max(np.abs(matrix - hand)) < 1e-12

    def test_large_speed_loses_positivity(self, bump_potential, exps23):
        # the README circle: the principal coefficient a = h^θ − 2A²θ/(p−1)·h^σ
        # is positive at A = 0.5 and ≤ 0 at A = 1
        curve, pot, sf = circle_setup(bump_potential, 0.7012465, 256, 0.5, exps23)
        assemble_jacobi(curve, pot, sf, exps23)
        curve, pot, sf = circle_setup(bump_potential, 0.7012465, 256, 1.0, exps23)
        with pytest.raises(PhaseLawError, match="lose positivity"):
            assemble_jacobi(curve, pot, sf, exps23)

    def test_two_normal_components_node_loop(self):
        # n = 3, A ≠ 0: node-major 2x2 blocks against a per-node assembly of
        # the docstring's coefficients; x1·x3 couples the two normals
        exps = compute_exponents(3, 3)
        p, sigma, theta, A = exps.p, exps.sigma, exps.theta, 0.05
        V = PotentialField("1/(1+r2) + 0.1*x1*x3", 3)
        curve = build_curve(CurveSpec("ellipse", n=3, a=0.9, b=0.7), 64)
        pot = sample_potential(V, curve)
        sf = compute_scalings(curve, pot, A, exps)
        matrix, _ = assemble_jacobi(curve, pot, sf, exps)
        h, H, M = sf.h, curve.curvature, curve.M
        a = h**theta - 2 * A**2 * theta / (p - 1) * h**sigma
        curv = (-(p - 1) * (3 + sigma / theta) * h ** (2 * theta)
                - 16 * sigma * theta * A**4 / (p - 1) * h ** (2 * sigma)
                + 2 * A**2 * (5 * sigma + 3 * theta) * h ** (theta + sigma)) \
            / ((p - 1) * h**theta - 2 * sigma * A**2 * h**sigma)
        # -∂(a∂v) = -½(a·v'' + (a v)'') + ½a''v, per node and component
        D2 = fourier_diff_matrices(M, curve.L)[1]
        app = periodic_derivative(a, curve.L, 2)
        ref = np.zeros((2 * M, 2 * M))
        for i in range(M):
            for j in range(2):
                ref[2 * i + j, j::2] -= 0.5 * (a[i] * D2[i] + D2[i] * a)
                ref[2 * i + j, 2 * i + j] += 0.5 * app[i]
            ref[2 * i:2 * i + 2, 2 * i:2 * i + 2] += (
                theta / (p - 1) * h[i] ** -sigma * pot.hess_normal[i]
                + a[i] * np.outer(H[i], H[i]) + curv[i] * np.outer(H[i], H[i]))
        assert np.max(np.abs(pot.hess_normal[:, 0, 1])) > 1e-3
        assert np.max(np.abs(matrix - 0.5 * (ref + ref.T))) <= 1e-12 * np.max(np.abs(ref))

    def test_fourier_oracle_constant_circle(self, critical_circle, exps23):
        curve, pot, sf = (critical_circle["curve"], critical_circle["pot"],
                          critical_circle["sf"])
        matrix, weight = assemble_jacobi(curve, pot, sf, exps23)
        vals, vecs, verdict = weighted_eigenbasis(
            matrix, weight, 12, per_node_components=1, ds=curve.L / curve.M)
        oracle = fourier_symbol_jacobi_circle(
            sf.h[0], pot.hess_normal[0, 0, 0], curve.curvature[0, 0],
            exps23.theta, exps23.sigma, exps23.p, 0.0, curve.L, curve.M)
        assert np.max(np.abs(vals - oracle[:12])) < 1e-10
        assert verdict["invertible"]

    @pytest.mark.parametrize("M", [128, 256, 512])
    def test_closed_form_critical_circle(self, bump_potential, exps23, M):
        # A = 0, R = 1/√2, V = 1/(1+r²): h² = V = 2/3, H² = 2, V'' = 8/27, so
        # λ_m = (3/2)V''/h² + H² - (8/3)H² + m²/R² = -8/3 + 2m², m ≠ 0 twice
        curve, pot, sf = circle_setup(bump_potential, 2**-0.5, M, 0.0, exps23)
        matrix, weight = assemble_jacobi(curve, pot, sf, exps23)
        vals, _, _ = weighted_eigenbasis(matrix, weight, 13, 1,
                                         ds=curve.L / M)
        m = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6])
        assert np.max(np.abs(vals - (-8.0 / 3.0 + 2.0 * m**2))) < 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_ellipse_spectrum_converged(self, n):
        # variable coefficients: the lowest 6(n-1) eigenvalues do not move
        # from M = 128 to 256 (a second-order stencil moves them ~2e-2)
        exps = compute_exponents(n, 3)
        V = PotentialField("1/(1+r2)", n)
        low = []
        for M in (128, 256):
            curve = build_curve(CurveSpec("ellipse", n=n, a=0.85, b=0.6), M)
            pot = sample_potential(V, curve)
            sf = compute_scalings(curve, pot, 0.05, exps)
            matrix, weight = assemble_jacobi(curve, pot, sf, exps)
            vals, _, _ = weighted_eigenbasis(matrix, weight, 6 * (n - 1),
                                             n - 1, ds=curve.L / M)
            low.append(vals)
        assert np.ptp(low[0]) > 1.0
        assert np.max(np.abs(low[0] - low[1])) < 1e-9

    @pytest.mark.parametrize("M", [256, 1024])
    def test_verdict_does_not_depend_on_grid(self, bump_potential, exps23, M):
        # the ellipse's min |λ| ≈ 0.0319 sits under 1e-6 of the M² top of the
        # grid spectrum at M = 1024; the verdict scales by the returned ones
        curve = build_curve(CurveSpec("ellipse", n=2, a=0.85, b=0.6), M)
        pot = sample_potential(bump_potential, curve)
        sf = compute_scalings(curve, pot, 0.05, exps23)
        matrix, weight = assemble_jacobi(curve, pot, sf, exps23)
        _, _, verdict = weighted_eigenbasis(matrix, weight, 10, 1,
                                            ds=curve.L / M)
        assert verdict["invertible"]
        assert abs(verdict["min_abs_eigenvalue"] - 0.0319273) < 1e-6
        # V ≡ 1 on a straight segment: J = -∂(h³∂), constants in the kernel
        seg = straight_segment_curve(2.0, M)
        pot = sample_potential(PotentialField("1", 2), seg)
        sf = compute_scalings(seg, pot, 0.0, exps23)
        matrix, weight = assemble_jacobi(seg, pot, sf, exps23)
        _, _, verdict = weighted_eigenbasis(matrix, weight, 10, 1,
                                            ds=seg.L / M)
        assert verdict["min_abs_eigenvalue"] < 1e-9
        assert not verdict["invertible"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_count_inside_the_kernel_reads_past_it(self, exps23, n):
        # V ≡ 1 on a straight segment has n − 1 constant kernel vectors; a
        # count that stays inside them must not make the kernel its own scale
        M = 256
        seg = straight_segment_curve(2.0, M, n)
        pot = sample_potential(PotentialField("1", n), seg)
        exps = compute_exponents(n, 3)
        matrix, weight = assemble_jacobi(
            seg, pot, compute_scalings(seg, pot, 0.0, exps), exps)
        for count in range(1, n):
            vals, vecs, verdict = weighted_eigenbasis(
                matrix, weight, count, n - 1, ds=seg.L / M)
            assert vals.shape == (count,) and vecs.shape == (M * (n - 1), count)
            assert verdict["min_abs_eigenvalue"] < 1e-9
            assert verdict["max_abs_eigenvalue"] > 1.0
            assert not verdict["invertible"]

    def test_lowest_pairs_and_min_abs_of_the_full_solve(self):
        # only the lowest pairs are computed; min |λ| past them when all
        # are negative, against a full eigendecomposition
        rng = np.random.default_rng(5)
        Araw = rng.normal(size=(60, 60))
        weight = rng.uniform(0.5, 2.0, 60)
        for shift in (0.0, 3.0):
            A = 0.5 * (Araw + Araw.T) - shift * np.diag(weight)
            full = eigh(A, np.diag(weight), eigvals_only=True)
            for count in (4, 20, 60):
                vals, _, verdict = weighted_eigenbasis(A, weight, count)
                assert np.max(np.abs(vals - full[:count])) < 1e-12
                assert verdict["min_abs_eigenvalue"] == pytest.approx(
                    np.min(np.abs(full)), rel=1e-12)
            if shift:      # count 20 reads past its pairs, all negative
                assert np.all(full[:20] < 0)

    def test_symmetry_any_input(self):
        # bitwise symmetric as assembled, with no symmetrizing pass: the
        # circle and the 0.85:0.6 ellipse, n = 2 and 3, with and without a
        # phase; x1·x3 couples the two normals at n = 3
        for n, V in ((2, "1/(1+r2)"), (3, "1/(1+r2) + 0.1*x1*x3")):
            exps = compute_exponents(n, 3)
            for spec in (CurveSpec("circle", n=n, radius=0.9),
                         CurveSpec("ellipse", n=n, a=0.85, b=0.6)):
                curve = build_curve(spec, 128)
                pot = sample_potential(PotentialField(V, n), curve)
                for A in (0.0, 0.08):
                    sf = compute_scalings(curve, pot, A, exps)
                    matrix, weight = assemble_jacobi(curve, pot, sf, exps)
                    assert np.array_equal(matrix, matrix.T)
                    vals, _, _ = weighted_eigenbasis(matrix, weight, 8, n - 1)
                    assert np.all(np.isreal(vals))

    def test_weighted_orthonormality(self, critical_circle, exps23):
        curve, pot, sf = (critical_circle["curve"], critical_circle["pot"],
                          critical_circle["sf"])
        matrix, weight = assemble_jacobi(curve, pot, sf, exps23)
        ds = curve.L / curve.M
        vals, vecs, _ = weighted_eigenbasis(matrix, weight, 10, 1, ds=ds)
        G = vecs.T @ np.diag(weight) @ vecs * ds
        assert np.max(np.abs(G - np.eye(10))) < 1e-8

    def test_unit_weight_reduces_to_standard(self):
        rng = np.random.default_rng(3)
        Araw = rng.normal(size=(40, 40))
        A = 0.5 * (Araw + Araw.T)
        vals, vecs, _ = weighted_eigenbasis(A, np.ones(40), 40)
        ref = np.linalg.eigvalsh(A)
        assert np.max(np.abs(np.sort(vals) - ref)) < 1e-10

    @pytest.mark.parametrize("weight, count", [(-1.0, 4), (1.0, 0)])
    def test_rejects_bad_weight_and_count(self, weight, count):
        # count 0 would leave the verdict no eigenvalue to scale by
        with pytest.raises(ValidationError):
            weighted_eigenbasis(np.eye(4), np.full(4, weight), count)


class TestPhaseOperatorT:
    def test_constants_in_kernel(self, critical_circle, exps23):
        curve, sf = critical_circle["curve"], critical_circle["sf"]
        T = assemble_T(curve, sf, exps23)
        assert np.max(np.abs(T @ np.ones(curve.M))) < 1e-10
        assert np.max(np.abs(T - T.T)) < 1e-10

    def test_fourier_symbol(self, critical_circle, exps23):
        curve, sf = critical_circle["curve"], critical_circle["sf"]
        T = assemble_T(curve, sf, exps23)
        M, L = curve.M, curve.L
        h = sf.h[0]
        c = h**2 * (2 * h**2) / (2.0 * sf.k[0] ** 3)
        sym = np.sort([-c * (2 * np.pi * m / L) ** 2
                       for m in range(-(M // 2) + 1, M // 2 + 1)])
        vals = np.sort(np.linalg.eigvalsh(T))
        assert np.max(np.abs(vals - sym)) < 1e-9

    def test_symmetric_generic_coefficients(self, bump_potential, exps23):
        curve, pot, sf = circle_setup(bump_potential, 0.9, 160, 0.05, exps23)
        T = assemble_T(curve, sf, exps23)
        assert np.max(np.abs(T - T.T)) < 1e-10


class TestPhaseCorrection:
    def test_zero_cases(self, critical_circle, exps23):
        curve, pot, sf = (critical_circle["curve"], critical_circle["pot"],
                          critical_circle["sf"])
        f1p = compute_f1(sf, np.zeros((curve.M, 1)), 0.0, curve)
        assert np.max(np.abs(f1p)) == 0.0

    def test_zero_speed_kills_first_term(self, critical_circle, exps23):
        curve, pot, sf = (critical_circle["curve"], critical_circle["pot"],
                          critical_circle["sf"])
        Phi = np.cos(2 * np.pi * curve.s / curve.L)[:, None]
        f1p = compute_f1(sf, Phi, 0.0, curve)   # A = 0 for this circle
        assert np.max(np.abs(f1p)) == 0.0

    def test_divergence_form_residual(self):
        # flux - rhs is the constant drift A' at every node, so the equation
        # holds to round-off, with or without a drift, at any M
        for n in (2, 3):
            exps = compute_exponents(n, 3)
            V = PotentialField("1/(1+r2)", n)
            for M in (128, 1024):
                curve = build_curve(CurveSpec("ellipse", n=n, a=0.85, b=0.6), M)
                pot = sample_potential(V, curve)
                sf = compute_scalings(curve, pot, 0.05, exps)
                Phi = np.cos(2 * np.pi * curve.s / curve.L)[:, None] \
                    * np.ones(n - 1)
                for drift in (0.0, 0.3):
                    f1p = compute_f1(sf, Phi, drift, curve)
                    assert np.ptp(f1p) > 1e-3
                    res = f1_equation_residual(sf, f1p, Phi, curve)
                    assert res < 1e-10, (n, M, drift, res)


class TestImmutable:
    @pytest.mark.parametrize("name", ["curve", "pot", "sf"])
    def test_fields_and_arrays_frozen(self, critical_circle, name):
        import dataclasses
        obj = critical_circle[name]
        arrays = [getattr(obj, f.name) for f in dataclasses.fields(obj)
                  if isinstance(getattr(obj, f.name), np.ndarray)]
        assert arrays
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
        for arr in arrays:
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0

    def test_replace_gives_frozen_variant(self, critical_circle):
        import dataclasses
        sf = critical_circle["sf"]
        before = sf.f.copy()
        sf2 = dataclasses.replace(sf, f=sf.f + 1.0)
        assert np.array_equal(sf.f, before) and np.array_equal(sf2.f, before + 1.0)
        assert np.shares_memory(sf2.h, sf.h)   # a view, not a copy
        with pytest.raises(ValueError):
            sf2.f[0] = 0.0
