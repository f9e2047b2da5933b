"""Tube operator, correctors, ansatz assembly, weighted norms, cutoff."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlscurve.ansatz import (VARSIGMA, AnsatzParams, assemble_ansatz,
                             build_correctors, residual_field, residual_study)
from nlscurve.errors import CurveNotCriticalError, ValidationError
from nlscurve.geometry import (CurveSpec, PotentialField, build_curve,
                               sample_potential)
from nlscurve.radial import Sector, _interp_rows, ground_state
from nlscurve.resonance import FastModes, resonance_eigenpairs
from nlscurve.scalings import (compute_exponents, compute_scalings,
                               critical_circle_radius)
from nlscurve.spectrum import alpha_field
from nlscurve.tube import (apply_S_eps, build_tube_grid, convergence_order,
                           core_radius, smooth_step, weighted_norm, z_spacing)

from conftest import circle_setup
from oracles import (apply_sector, core_mask, core_window, kernel_projected,
                     level2_correctors_per_node, lr_sector_oracle_error,
                     odd_corrector_per_node, residual_norms_full_grid,
                     straight_segment_curve)


@pytest.fixture(scope="module")
def segment_setup(U23, exps23):
    """Straight periodic segment with V ≡ 1: the soliton is exact."""
    seg = straight_segment_curve(10.0, 64, 2)
    V = PotentialField("1", 2)
    pot = sample_potential(V, seg)
    sf = compute_scalings(seg, pot, 0.0, exps23)
    return {"seg": seg, "V": V, "pot": pot, "sf": sf}


@pytest.fixture(scope="module")
def circle_run(U23, bump_potential, exps23):
    """Critical circle with correctors and a tube at ε = 0.1."""
    rstar = 2 ** -0.5
    curve, pot, sf = circle_setup(bump_potential, rstar, 256, 0.0, exps23)
    co = build_correctors(curve, pot, sf, U23)
    grid = build_tube_grid(curve, bump_potential, sf, 0.1, dz_factor=16)
    return {"curve": curve, "pot": pot, "sf": sf, "co": co, "grid": grid}


@pytest.fixture(scope="module")
def circle_n3(grid30):
    """Planar critical circle in R³ (d = 2) at A = 0.05: its radius and a
    builder of (curve, pot, sf, U) at M nodes, on a circle of radius R
    (the critical one by default)."""
    U = ground_state(3, 3, grid30)
    exps = compute_exponents(3, 3)
    V = PotentialField("1/(1+r2)", 3)

    def setup(R, M=64):
        curve = build_curve(CurveSpec("circle", n=3, radius=R), M)
        return curve, sample_potential(V, curve)

    rstar = critical_circle_radius(setup, (0.6, 1.4), 0.05, exps)

    def build(M, R=rstar):
        curve, pot = setup(R, M)
        return curve, pot, compute_scalings(curve, pot, 0.05, exps), U

    return rstar, build


class TestCutoff:
    def test_smooth_step_plateaus(self):
        t = np.linspace(-2, 3, 101)
        v = smooth_step(t)
        assert np.all(v[t <= 0] == 1.0)
        assert np.all(v[t >= 1] == 0.0)
        assert np.all(np.diff(v) <= 1e-12)

    def test_cutoff_support(self, circle_run):
        grid = circle_run["grid"]
        eps, K = grid.eps, grid.K[0]
        inner = grid.znorm[None] <= eps ** (-grid.delta_bar) / K
        outer = grid.znorm[None] >= (eps ** (-grid.delta_bar) + 1) / K
        assert np.all(grid.cutoff[np.broadcast_to(inner, grid.cutoff.shape)] == 1.0)
        assert np.all(grid.cutoff[np.broadcast_to(outer, grid.cutoff.shape)] == 0.0)

    def test_focal_distance_covers_cutoff_ball(self, bump_potential, exps23):
        # on the A = 0.05 critical circle at ε = 0.25 the residual window
        # reaches ε|z|/R ≈ 0.40 (its grid, margin included, 0.49), but the
        # cutoff ball reaches ≈ 1.05: the build must refuse the tube all the
        # same
        R, eps = 0.7012465, 0.25
        curve, pot, sf = circle_setup(bump_potential, R, 64, 0.05, exps23)
        K = np.sqrt(pot.values)
        dz = z_spacing(sf, 16)
        window = float(np.min(core_radius(K, eps, 0.25, dz)))
        box = (np.ceil(window / dz) + 3) * dz
        assert 0.35 < eps * window / R < 0.45 and eps * box / R < 0.5
        assert eps * (eps ** -0.25 + 1.0) / np.min(K) / R > 1.0
        with pytest.raises(ValidationError, match="focal distance"):
            build_tube_grid(curve, bump_potential, sf, eps, half_width=window,
                            dz_factor=16)
        # ε = 0.2 keeps its cutoff ball inside the focal distance
        grid = build_tube_grid(curve, bump_potential, sf, 0.2,
                               half_width=window, dz_factor=16)
        assert grid.z_axes[0][-1] == pytest.approx(box)
        assert np.all(grid.metric_a > 0)


class TestApplySEps:
    def test_manufactured_soliton_orders(self, U23, segment_setup):
        # exact 1D soliton on the segment: residual is pure z-discretization
        seg, V, sf = segment_setup["seg"], segment_setup["V"], segment_setup["sf"]
        norms = []
        for dzf in (8, 16):
            grid = build_tube_grid(seg, V, sf, 0.1, dz_factor=dzf)
            psi = (U23(grid.znorm)[None] * grid.cutoff).astype(complex)
            res = apply_S_eps(psi, grid)
            norms.append(weighted_norm(res, grid, 0.0, core_window(grid)))
        assert np.log2(norms[0] / norms[1]) > 1.9   # 4th-order z-stencils

    def test_constant_field(self, segment_setup):
        seg, V, sf = segment_setup["seg"], segment_setup["V"], segment_setup["sf"]
        grid = build_tube_grid(seg, V, sf, 0.1, dz_factor=10)
        c = 0.7 + 0.0j
        res = apply_S_eps(np.full((grid.n_s,) + grid.z_shape, c), grid)
        assert np.max(np.abs(res[core_mask(grid)] - (c - abs(c) ** 2 * c))) < 1e-12

    def test_phase_factored_oracle(self, segment_setup):
        # φ = g(s̄)W(z) with a varying phase rate c(s̄) on the straight
        # segment (a ≡ 1, V ≡ 1): the s̄-terms ε²g'' - 2iεcg' - iεc'g - c²g
        # are spectrally exact for trigonometric g and c, so the whole error
        # is g times the z-stencil error of W, which falls at 4th order
        seg, V, sf = segment_setup["seg"], segment_setup["V"], segment_setup["sf"]
        eps, L = 0.1, seg.L
        t = 2 * np.pi * seg.s / L
        g = 1.0 + 0.3 * np.cos(t) + 0.2j * np.sin(2 * t)
        dg = (-0.3 * np.sin(t) + 0.4j * np.cos(2 * t)) * (2 * np.pi / L)
        d2g = (-0.3 * np.cos(t) - 0.8j * np.sin(2 * t)) * (2 * np.pi / L) ** 2
        c = 0.7 + 0.4 * np.sin(t)
        dc = 0.4 * np.cos(t) * (2 * np.pi / L)
        col = lambda v: v[:, None]
        floors = []
        for dzf in (8, 16):
            grid = build_tube_grid(seg, V, sf, eps, dz_factor=dzf)
            z = grid.znorm
            W = np.exp(-2 * z**2)
            d2W = (16 * z**2 - 4) * W
            phi = col(g) * W[None]
            s_part = (eps**2 * col(d2g) - 2j * eps * col(c * dg)
                      - 1j * eps * col(dc * g) - col(c**2 * g)) * W[None]
            exact = -s_part - col(g) * d2W[None] + phi - np.abs(phi) ** 2 * phi
            err = apply_S_eps(phi, grid, c) - exact
            # z-only reference: g ≡ 1 and no phase
            w1 = np.broadcast_to(W[None], phi.shape).astype(complex)
            err_z = (apply_S_eps(w1, grid) - (-d2W + W - W**3)[None])[0]
            core = core_mask(grid)
            assert np.max(np.abs(err - col(g) * err_z[None])[core]) < 1e-12
            floors.append(np.max(np.abs(err_z[core[0]])))
        assert floors[1] > 0 and floors[0] / floors[1] >= 3.5

    def test_small_amplitude_linearity(self, segment_setup):
        seg, V, sf = segment_setup["seg"], segment_setup["V"], segment_setup["sf"]
        grid = build_tube_grid(seg, V, sf, 0.1, dz_factor=10)
        amp = 1e-5
        psi = amp * np.exp(-grid.znorm**2)[None] * grid.cutoff + 0.0j
        res = apply_S_eps(psi, grid)
        # S(ψ) - (-Δψ + Vψ) = O(|ψ|^p)
        lin = res + np.abs(psi) ** 2 * psi
        nonlinear_part = np.max(np.abs(res - lin))
        assert nonlinear_part < 2 * amp**3


class TestCorrectors:
    def test_zero_speed_closed_forms_vanish(self, circle_run):
        co = circle_run["co"]
        assert np.max(np.abs(co.c_wre)) == 0.0
        assert np.max(np.abs(co.c_wie)) == 0.0
        assert np.max(np.abs(co.b_wio)) == 0.0
        assert np.max(np.abs(co.c_vt)) == 0.0

    def test_odd_corrector_round_trip(self, U23, circle_run, grid30):
        # L_r w_ro reproduces the projected source (criticality makes the
        # kernel component negligible)
        curve, pot, sf, co = (circle_run["curve"], circle_run["pot"],
                              circle_run["sf"], circle_run["co"])
        assert np.max(co.removed_wro) < 1e-4
        r = grid30.nodes
        k, h = sf.k[0], sf.h[0]
        G = pot.grad_normal[0, 0]
        H = curve.curvature[0, 0]
        q = (-(2 * sf.fprime[0] ** 2 * H + G) * (h / k) * r * U23.values
             - h * k * H * U23.derivative(r)) / k**2
        sector = Sector(U23, 3.0, "Lr", 1)
        sol = np.zeros(grid30.m)
        sol[: co.ygrid.size] = co.w_ro[0, 0]
        back = apply_sector(sector, U23.with_values(sol))
        assert np.max(np.abs(back.values - kernel_projected(sector, q))) < 1e-7

    def test_f1_budget_telescopes(self, U23, bump_potential, exps23):
        curve, pot, sf = circle_setup(bump_potential, 0.701247, 64, 0.05, exps23)
        Phi = 0.1 * np.cos(2 * np.pi * curve.s / curve.L)[:, None]
        co = build_correctors(curve, pot, sf, U23, AnsatzParams(Phi=Phi),
                              f1_drift=0.3)
        assert np.ptp(co.f1prime) > 0
        last = 0.5 * (co.f1prime[-1] + co.f1prime[0]) * (curve.L / curve.M)
        assert co.f1[-1] + last == co.f1_budget

    def test_noncritical_curve_rejected(self, U23, bump_potential, exps23):
        curve, pot, sf = circle_setup(bump_potential, 1.3 * 2 ** -0.5, 96,
                                      0.0, exps23)
        with pytest.raises(CurveNotCriticalError):
            build_correctors(curve, pot, sf, U23, criticality_tol=0.05)

    def test_n3_criticality_check_acts(self, circle_n3):
        # d = 2 projects its translation kernel too (lowest eigenvalue
        # 1.48e-4): the critical circle removes a small nonzero part, and
        # the default criticality_tol rejects a 1.3× off-critical circle
        rstar, build = circle_n3
        removed = build_correctors(*build(64)).removed_wro
        assert np.all((removed > 0.0) & (removed <= 2e-4))
        with pytest.raises(CurveNotCriticalError):
            build_correctors(*build(64, 1.3 * rstar))

    def test_profile_dimension_must_match_curve(self, bump_potential, exps23,
                                               grid30):
        # an n = 3 profile on a planar circle in R² is a typed error
        curve, pot, sf = circle_setup(bump_potential, 0.7012465, 64, 0.05,
                                      exps23)
        with pytest.raises(ValidationError, match="dimensions disagree"):
            build_correctors(curve, pot, sf, ground_state(3, 3.0, grid30))

    def test_constant_potential_rejected_upstream(self, U23, exps23):
        # constant V admits no critical closed curve: the odd corrector
        # source retains its full kernel component
        V = PotentialField("1", 2)
        curve, pot, sf = circle_setup(V, 1.0, 96, 0.0, exps23)
        with pytest.raises(CurveNotCriticalError):
            build_correctors(curve, pot, sf, U23, criticality_tol=0.3)

    def test_source_parity_audit(self, U23, bump_potential, exps23):
        # reconstruct the assembled sources at ±z: the even source (scalar +
        # quadratic parts) is symmetric, the odd one (vector part) flips sign
        # exactly — parity is enforced by the section-algebra construction
        curve, pot, sf = circle_setup(bump_potential, 0.701247, 96, 0.05, exps23)
        co = build_correctors(curve, pot, sf, U23)
        (A, C), B = co.source_even, co.source_odd
        r = U23.grid.nodes

        def even_field(z):
            zhat = np.sign(z)
            return np.interp(abs(z), r, A) + np.interp(abs(z), r, C[0, 0]) \
                * zhat * zhat

        def odd_field(z):
            return np.interp(abs(z), r, B[0]) * np.sign(z)

        assert np.max(np.abs(B)) > 0       # coupling makes the source real
        for z in (0.7, 1.3, 2.1):
            assert abs(even_field(z) - even_field(-z)) < 1e-12
            assert abs(odd_field(z) + odd_field(-z)) < 1e-12

    def test_second_corrector_round_trip(self, U23, circle_run, grid30):
        # v0 even solve: L_r v0 = -(A_eff) at A=0 on the constant circle
        co, sf = circle_run["co"], circle_run["sf"]
        (A, C), _ = co.source_even, co.source_odd
        k = sf.k[0]
        A_eff = A + C[0, 0]
        sol = np.zeros(grid30.m)
        sol[: co.ygrid.size] = co.v0_even0[0]
        back = apply_sector(Sector(U23, 3.0, "Lr", 0), U23.with_values(sol))
        assert np.max(np.abs(back.values + A_eff / k**2)) < 1e-6

    def test_odd_imaginary_corrector_zero_at_rest(self, circle_run):
        # A=0 on a constant circle: the odd imaginary source vanishes
        assert np.max(np.abs(circle_run["co"].v0_odd)) == 0.0

    def test_traceless_sector_n3(self, grid30, circle_n3):
        # planar critical circle in R³ (d = 2): the d×d source algebra and
        # the traceless ℓ=2 solve, checked against node M-1's source
        rstar, build = circle_n3
        assert abs(rstar - 0.99504) < 1e-4
        curve, pot, sf, U = build(64)
        co = build_correctors(curve, pot, sf, U)
        ny = co.ygrid.size
        assert co.w_ro.shape == (64, 2, ny) and co.v0_even2.shape == (64, 2, 2, ny)
        assert np.array_equal(co.v0_even2, co.v0_even2.transpose(0, 2, 1, 3))
        (A, C), _ = co.source_even, co.source_odd
        Ctl = C - np.eye(2)[:, :, None] * np.einsum("mmy->y", C) / 2
        assert np.max(np.abs(Ctl)) > 0.1          # the ℓ=2 sector is driven
        assert lr_sector_oracle_error(U, 3.0, 2) < 5e-5
        sector = Sector(U, 3.0, "Lr", 2)
        for m, l in ((0, 0), (0, 1), (1, 1)):
            sol = np.zeros(grid30.m)
            sol[:ny] = co.v0_even2[-1, m, l]
            back = apply_sector(sector, U.with_values(sol)).values
            src = -Ctl[m, l] / sf.k[-1] ** 2
            # the stored window ends at ny; its last node sees a zero neighbour
            assert np.max(np.abs(back[1:ny - 1] - src[1:ny - 1])) < 1e-10


class TestLevel2Correctors:
    """The level-2 sources as node coefficients times fixed radial functions."""

    @pytest.fixture(scope="class")
    def cases(self, U23, bump_potential, exps23, circle_n3):
        def build(name, M=None):
            if name == "circle-n2":
                return circle_setup(bump_potential, 0.7012465, M or 80, 0.05,
                                    exps23) + (U23,)
            if name == "ellipse":
                # variable coefficients: every source term is nonzero
                curve = build_curve(CurveSpec("ellipse", n=2, a=0.85, b=0.6),
                                    M or 256)
                pot = sample_potential(bump_potential, curve)
                return curve, pot, compute_scalings(curve, pot, 0.05,
                                                    exps23), U23
            if name == "circle-n3-off":
                return circle_n3[1](M or 64, 1.3 * circle_n3[0])
            return circle_n3[1](M or 64)
        return build

    @pytest.mark.parametrize("name", ["circle-n2", "ellipse", "circle-n3",
                                      "circle-n3-off"])
    def test_odd_corrector_matches_per_node_solve(self, cases, name):
        # every node's own source solved row by row is the reference; the
        # ellipse and the 1.3× off-critical n = 3 circle keep a large
        # kernel part
        curve, pot, sf, U = cases(name)
        co = build_correctors(curve, pot, sf, U, criticality_tol=np.inf)
        ref, removed = odd_corrector_per_node(curve, pot, sf, U)
        ny = co.ygrid.size
        scale = np.max(np.abs(co.w_ro))
        assert np.max(np.abs(co.w_ro - ref[..., :ny])) <= 1e-12 * scale
        assert np.max(np.abs(co.removed_wro - removed.max(axis=1))) <= 1e-12

    @pytest.mark.parametrize("name, gate", [("circle-n2", 1e-11),
                                            ("ellipse", 1e-11),
                                            ("circle-n3", 1e-11)])
    def test_matches_per_node_sources(self, cases, name, gate):
        # the node-by-node assembly is the reference
        curve, pot, sf, U = cases(name)
        co = build_correctors(curve, pot, sf, U, criticality_tol=np.inf)
        ref = level2_correctors_per_node(curve, pot, sf, U, co.w_ro)
        got = (co.v0_even0, co.v0_even2, co.v0_odd, *co.source_even,
               co.source_odd)
        scale = np.max(np.abs(ref[0]))
        for mine, theirs in zip(got, ref[:3] + ref[3] + ref[4:]):
            assert mine.shape == theirs.shape
            assert np.max(np.abs(mine - theirs)) <= gate * scale

    @pytest.mark.parametrize("name", ["circle-n2", "circle-n3"])
    def test_level2_solve_rows_independent_of_nodes(self, cases, name,
                                                    monkeypatch):
        import nlscurve.ansatz as ansatz_mod
        real = ansatz_mod.sector_solve
        calls = []

        def counting(sector, rhs):
            calls.append((sector.kind, sector.ell,
                          int(np.prod(np.shape(rhs)[:-1]))))
            return real(sector, rhs)

        monkeypatch.setattr(ansatz_mod, "sector_solve", counting)
        rows = {}
        for M in (64, 256):
            calls.clear()
            curve, pot, sf, U = cases(name, M)
            build_correctors(curve, pot, sf, U)
            rows[M] = list(calls)
        d = curve.n - 1
        # every sector, the odd real corrector's two rows included, solves
        # the same rows at any M
        assert rows[64] == rows[256]
        assert ("Lr", 1, 2) in rows[64]
        sectors = {("Lr", 0), ("Li", 1)} | ({("Lr", 2)} if d >= 2 else set())
        assert sectors <= {call[:2] for call in rows[64]}

    @pytest.mark.parametrize("name", ["circle-n2", "circle-n3"])
    def test_peak_memory_near_returned_tables(self, cases, name):
        # memory grows with the tables build_correctors returns, not with
        # per-node source buffers beside them
        import tracemalloc
        curve, pot, sf, U = cases(name, 320)
        build_correctors(curve, pot, sf, U)
        tracemalloc.start()
        try:
            co = build_correctors(curve, pot, sf, U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = sum(t.nbytes for t in (co.w_ro, co.v0_even0, co.v0_even2,
                                        co.v0_odd))
        assert peak <= 1.5 * tables


class TestAssembly:
    def test_level0_real_positive(self, U23, circle_run):
        curve, sf, co, grid = (circle_run["curve"], circle_run["sf"],
                               circle_run["co"], circle_run["grid"])
        ans = assemble_ansatz(grid, curve, sf, U23, co, AnsatzParams(level=0))
        assert np.max(np.abs(ans.values.imag)) == 0.0
        core = ans.values.real[core_mask(grid)]
        assert np.all(core > 0)
        assert np.all(ans.phase_rate == 0.0)

    def test_efg_pointwise_bound(self, U23, circle_run):
        # |Ψ₂ - ψ₁| <= C ε²(1+|z|^d)e^{-k|z|} with a moderate constant
        curve, sf, co, grid = (circle_run["curve"], circle_run["sf"],
                               circle_run["co"], circle_run["grid"])
        a1 = assemble_ansatz(grid, curve, sf, U23, co, AnsatzParams(level=1))
        a2 = assemble_ansatz(grid, curve, sf, U23, co, AnsatzParams(level=2))
        diff = np.abs(a2.values - a1.values)
        envelope = np.broadcast_to(
            (grid.eps**2 * (1 + grid.znorm**3)
             * np.exp(-sf.k[0] * grid.znorm))[None], diff.shape)
        mask = grid.cutoff > 0
        C = np.max(diff[mask] / envelope[mask])
        assert C < 50.0

    def test_gauge_invariance_of_modulus(self, U23, circle_run):
        # adding a constant to the phase leaves the modulus identical
        curve, sf, co, grid = (circle_run["curve"], circle_run["sf"],
                               circle_run["co"], circle_run["grid"])
        base = assemble_ansatz(grid, curve, sf, U23, co, AnsatzParams(level=2))
        import dataclasses
        sf2 = dataclasses.replace(sf, f=sf.f + 0.37)
        shifted = assemble_ansatz(grid, curve, sf2, U23, co, AnsatzParams(level=2))
        assert np.max(np.abs(np.abs(shifted.values) - np.abs(base.values))) < 1e-12

    def test_phase_constant_invariance_of_residual(self, U23, circle_run, exps23):
        import dataclasses
        curve, sf, co, grid = (circle_run["curve"], circle_run["sf"],
                               circle_run["co"], circle_run["grid"])
        norms = [weighted_norm(residual_field(assemble_ansatz(
                     grid, curve, s, U23, co, AnsatzParams(level=1))),
                     grid, VARSIGMA * s.k, core_window(grid))
                 for s in (sf, dataclasses.replace(sf, f=sf.f + 1.234))]
        n0, n1 = norms
        assert abs(n0 - n1) < 1e-12 * max(n0, 1e-30)

    def test_levels_zero_speed_reduce(self, U23, circle_run):
        # at A=0 with defaults: level1 - level0 = ε w_ro (real), no imaginary
        curve, sf, co, grid = (circle_run["curve"], circle_run["sf"],
                               circle_run["co"], circle_run["grid"])
        a0 = assemble_ansatz(grid, curve, sf, U23, co, AnsatzParams(level=0))
        a1 = assemble_ansatz(grid, curve, sf, U23, co, AnsatzParams(level=1))
        assert np.max(np.abs((a1.values - a0.values).imag)) == 0.0


    def test_interp_rows_matches_np_interp(self):
        rng = np.random.default_rng(3)
        ygrid = np.linspace(0.0, 30.0, 3000)[:2842]
        rows = rng.standard_normal((4, ygrid.size))
        yq = rng.uniform(0.0, 32.0, (4, 7, 5))
        yq[:, 0] = [0.0, ygrid[17], np.nextafter(ygrid[-1], 0.0), ygrid[-1],
                    np.nextafter(ygrid[-1], 40.0)]
        ref = np.stack([np.interp(yq[i], ygrid, rows[i], right=0.0)
                        for i in range(4)])
        out = _interp_rows(ygrid, rows, yq)
        assert out.shape == yq.shape
        # node positions agree to round-off eps·y, which moves a linear
        # interpolant by up to eps·(y/dy)·|row jump|
        tol = 4 * np.finfo(float).eps * ygrid.size * np.max(np.abs(np.diff(rows)))
        assert np.max(np.abs(out - ref)) < tol
        assert np.all(out[yq > ygrid[-1]] == 0.0)

    def test_interp_rows_stacked(self):
        # rows (M, ..., ny) interpolate as every (M, ny) slice does alone
        rng = np.random.default_rng(4)
        ygrid = np.linspace(0.0, 30.0, 3000)[:2842]
        rows = rng.standard_normal((4, 2, 3, ygrid.size))
        yq = rng.uniform(0.0, 32.0, (4, 7, 5))
        out = _interp_rows(ygrid, rows, yq)
        assert out.shape == (4, 2, 3, 7, 5)
        for m in range(2):
            for l in range(3):
                assert np.array_equal(out[:, m, l],
                                      _interp_rows(ygrid, rows[:, m, l], yq))


@pytest.fixture(scope="module")
def fast_mode_run(U23, sectors23, bump_potential, exps23):
    """A = 0.05 critical circle with its crossing field and resonance basis."""
    curve, pot, sf = circle_setup(bump_potential, 0.7012465, 64, 0.05, exps23)
    co = build_correctors(curve, pot, sf, U23)
    crossing = alpha_field(sf, sectors23)
    basis = resonance_eigenpairs(FastModes(sf, crossing), 0.1, 0.5)
    grid = build_tube_grid(curve, bump_potential, sf, 0.1, dz_factor=8)

    def fast_part(b):
        # level-2 field with coefficients b minus the field with b = 0
        fields = [assemble_ansatz(grid, curve, sf, U23, co,
                                  AnsatzParams(level=2, b=bb), basis=basis).values
                  for bb in (b, np.zeros_like(b))]
        return fields[0] - fields[1]

    return {"curve": curve, "sf": sf, "co": co, "crossing": crossing,
            "basis": basis, "grid": grid, "fast_part": fast_part}


class TestFastModes:
    def test_unit_coefficient_adds_beta_Z_plus_i_xi_W(self, U23, fast_mode_run):
        # b = e_j adds cutoff·(β_j Z(k|z|) + i ξ_j W(k|z|)) and nothing else;
        # Z and W are interpolated node by node here, independently of the
        # assembly's row-wise interpolation
        run = fast_mode_run
        basis, grid, k = run["basis"], run["grid"], run["sf"].k
        r = U23.grid.nodes
        assert basis.nu.size >= 3
        for j in range(basis.nu.size):
            diff = run["fast_part"](np.eye(basis.nu.size)[j])
            expected = np.empty_like(diff)
            for i, mode in enumerate(run["crossing"]):
                yq = k[i] * grid.znorm
                Z = np.interp(yq, r, mode.u_values, right=0.0)
                W = np.interp(yq, r, mode.v_values, right=0.0)
                expected[i] = basis.beta[j, i] * Z + 1j * basis.xi[j, i] * W
            expected *= grid.cutoff
            scale = np.max(np.abs(expected))
            assert scale > 0
            assert np.max(np.abs(diff - expected)) <= 1e-12 * scale

    def test_linear_in_coefficients(self, fast_mode_run):
        run = fast_mode_run
        size = run["basis"].nu.size
        b = np.linspace(-1.0, 2.0, size)
        units = [run["fast_part"](np.eye(size)[j]) for j in range(size)]
        combined = run["fast_part"](b)
        expected = sum(bj * u for bj, u in zip(b, units))
        assert np.max(np.abs(combined - expected)) <= \
            1e-12 * np.max(np.abs(expected))

    def test_missing_inputs_or_bad_shape_rejected(self, U23, fast_mode_run):
        run = fast_mode_run
        size = run["basis"].nu.size
        args = (run["grid"], run["curve"], run["sf"], U23, run["co"])
        b = AnsatzParams(level=2, b=np.eye(size)[0])
        with pytest.raises(ValidationError, match="resonance basis"):
            assemble_ansatz(*args, b)
        with pytest.raises(ValidationError, match="window"):
            assemble_ansatz(*args, AnsatzParams(level=2, b=np.ones(size + 1)),
                            basis=run["basis"])


class TestWeightedNorms:
    def test_exponential_identity(self, segment_setup, U23):
        seg, V, sf = segment_setup["seg"], segment_setup["V"], segment_setup["sf"]
        grid = build_tube_grid(seg, V, sf, 0.1, dz_factor=10)
        field = np.exp(-sf.k[0] * grid.znorm)[None] * np.ones((grid.n_s, 1))
        val = weighted_norm(field.astype(complex), grid, sf.k,
                            core_window(grid))
        assert abs(val - 1.0) < 1e-10

    @given(st.floats(-5, 5).filter(lambda c: abs(c) > 1e-3))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, c):
        # built once per example; small grid keeps this cheap
        seg = straight_segment_curve(5.0, 64, 2)
        V = PotentialField("1", 2)
        from nlscurve.scalings import compute_exponents, compute_scalings
        sf = compute_scalings(seg, sample_potential(V, seg), 0.0,
                              compute_exponents(2, 3))
        grid = build_tube_grid(seg, V, sf, 0.2, dz_factor=8)
        rng = np.random.default_rng(11)
        f = rng.normal(size=(grid.n_s,) + grid.z_shape) \
            + 1j * rng.normal(size=(grid.n_s,) + grid.z_shape)
        n1 = weighted_norm(c * f, grid, 0.3, np.inf)
        n2 = weighted_norm(f, grid, 0.3, np.inf)
        assert abs(n1 - abs(c) * n2) < 1e-12 * max(n1, 1.0)

    def test_triangle_inequality(self, segment_setup):
        seg, V, sf = segment_setup["seg"], segment_setup["V"], segment_setup["sf"]
        grid = build_tube_grid(seg, V, sf, 0.2, dz_factor=8)
        rng = np.random.default_rng(5)
        shape = (grid.n_s,) + grid.z_shape
        for _ in range(5):
            f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            nfg = weighted_norm(f + g, grid, 0.2, np.inf)
            assert nfg <= weighted_norm(f, grid, 0.2, np.inf) \
                + weighted_norm(g, grid, 0.2, np.inf) + 1e-12


class TestParityBookkeeping:
    def test_odd_residual_orthogonal_to_translations(self, U23,
                                                     bump_potential, exps23):
        # on the critical circle the z-odd real part of the level-1 residual
        # is orthogonal to span{∂U(kz)} per slice; off the critical radius the
        # same projection picks up the extremality defect at order ε
        eps = 0.05

        def translation_projection(radius, tol):
            curve, pot, sf = circle_setup(bump_potential, radius, 256,
                                          0.0, exps23)
            co = build_correctors(curve, pot, sf, U23, criticality_tol=tol)
            grid = build_tube_grid(curve, bump_potential, sf, eps, dz_factor=12)
            ans = assemble_ansatz(grid, curve, sf, U23, co,
                                  AnsatzParams(level=1))
            res = apply_S_eps(ans.values, grid, ans.phase_rate).real
            odd = 0.5 * (res - res[:, ::-1])
            z = grid.z_axes[0]
            dU = np.sign(z) * U23.derivative(sf.k[0] * np.abs(z))
            core = core_mask(grid)
            mask = core[0]
            proj = np.abs(odd[:, mask] @ dU[mask]) * grid.dz \
                / np.sqrt(np.sum(dU[mask] ** 2) * grid.dz)
            scale = float(np.max(np.abs(res[core])))
            return float(np.max(proj)) / scale

        # at criticality the translation component is one ε-order below the
        # residual scale (it lives in the uncancelled ε³ terms); off the
        # critical radius it jumps by the extremality defect
        crit = translation_projection(2 ** -0.5, 0.1)
        off = translation_projection(1.2 * 2 ** -0.5, 0.9)
        assert crit < 5 * eps
        assert off > 5 * crit


class TestGridIndependence:
    def test_doubling_z_resolution(self, U23, circle_run):
        # reported residual norms move by < 5% when z-resolution doubles
        curve, sf, co = (circle_run["curve"], circle_run["sf"],
                         circle_run["co"])
        from nlscurve.geometry import PotentialField
        V = PotentialField("1/(1+r2)", 2)
        norms = []
        for dzf in (16, 32):
            grid = build_tube_grid(curve, V, sf, 0.1, dz_factor=dzf)
            ans = assemble_ansatz(grid, curve, sf, U23, co,
                                  AnsatzParams(level=1))
            norms.append(weighted_norm(residual_field(ans), grid,
                                       VARSIGMA * sf.k, core_window(grid)))
        assert abs(norms[0] - norms[1]) / norms[1] < 0.05


class TestResidualStudy:
    @pytest.fixture(scope="class")
    def ladder(self, U23, bump_potential, exps23):
        """A = 0.05 critical circle and a counting curve builder."""
        def builder(R):
            curve = build_curve(CurveSpec("circle", n=2, radius=R), 128)
            return curve, sample_potential(bump_potential, curve)

        rstar = critical_circle_radius(builder, (0.4, 1.2), 0.05, exps23)
        sizes = []

        def curve_for(M):
            sizes.append(M)
            return build_curve(CurveSpec("circle", n=2, radius=rstar), M)

        def run(base_M, levels=(0, 1, 2)):
            sizes.clear()
            records, _ = residual_study(curve_for, bump_potential, 0.05,
                                        exps23, U23, [0.2, 0.1, 0.05],
                                        levels, base_M=base_M)
            return np.array([r["norm"] for r in records]), list(sizes)

        return run

    def test_norms_independent_of_sbar_nodes(self, ladder):
        # the phase-factored field is smooth in s̄: 80 and 160 nodes give
        # the same norms on the circle
        coarse, sizes = ladder(16)
        fine, sizes2 = ladder(32)
        assert sizes == [80] and sizes2 == [160]
        assert np.max(np.abs(fine - coarse) / fine) <= 1e-9

    def test_curve_and_correctors_built_once(self, ladder, monkeypatch):
        import nlscurve.ansatz as ansatz_mod
        calls = []
        real = ansatz_mod.build_correctors

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ansatz_mod, "build_correctors", counting)
        norms, sizes = ladder(16, levels=(0,))
        assert norms.size == 3
        assert sizes == [80] and len(calls) == 1

    @pytest.fixture(scope="class")
    def circles(self, U23, bump_potential, exps23, circle_n3):
        """Residual-study inputs (curve_for, V, A, exps, U) on the A = 0.05
        critical circles for n = 2 and n = 3."""
        def builder(R):
            curve = build_curve(CurveSpec("circle", n=2, radius=R), 128)
            return curve, sample_potential(bump_potential, curve)

        r2 = critical_circle_radius(builder, (0.4, 1.2), 0.05, exps23)
        r3, build = circle_n3
        return {
            2: (lambda M: build_curve(CurveSpec("circle", n=2, radius=r2), M),
                bump_potential, 0.05, exps23, U23),
            3: (lambda M: build_curve(CurveSpec("circle", n=3, radius=r3), M),
                PotentialField("1/(1+r2)", 3), 0.05, compute_exponents(3, 3),
                build(64)[3])}

    @pytest.fixture
    def grid_shapes(self, monkeypatch):
        """(N_s, *z_shape) of every tube grid the residual study builds."""
        import nlscurve.ansatz as ansatz_mod
        real = ansatz_mod.build_tube_grid
        shapes = []

        def recording(*args, **kwargs):
            grid = real(*args, **kwargs)
            shapes.append((grid.n_s,) + grid.z_shape)
            return grid

        monkeypatch.setattr(ansatz_mod, "build_tube_grid", recording)
        return shapes

    @pytest.mark.parametrize("n", [2, 3])
    def test_windowed_norms_match_full_grids(self, circles, grid_shapes, n):
        # every ε's grid covers only the common window plus the stencil
        # margin, so all have one size, and each norm equals bit for bit
        # the norm on the full grid out to the cutoff ball
        args = circles[n] + ([0.2, 0.1, 0.05],)
        records, _ = residual_study(*args, base_M=16)
        assert [r["norm"] for r in records] == \
            residual_norms_full_grid(*args, base_M=16)
        assert len(grid_shapes) == 3 and len(set(grid_shapes)) == 1

    def test_n3_peak_memory_on_window(self, circles, grid_shapes):
        # the n = 3 study peaks (tracemalloc) at 29.7 complex fields on the
        # window box; full grids out to the cutoff ball peaked at 191
        import tracemalloc
        tracemalloc.start()
        try:
            residual_study(*circles[3], [0.2, 0.1, 0.05], base_M=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        field = 16 * np.prod(grid_shapes[0])
        assert peak <= 36 * field

    def test_n3_critical_circle_orders(self, circles):
        # the n = 3 corrector and tube path on the planar critical circle
        # in R³ at A = 0.05 (slopes 1.195, 2.24, 2.545 here)
        records, fits = residual_study(*circles[3], [0.2, 0.1, 0.05],
                                       base_M=16)
        assert fits[0]["slope"] >= 1.1
        assert fits[1]["slope"] >= 2.1
        assert fits[2]["slope"] >= 2.4
        norms = {(r["eps"], r["level"]): r["norm"] for r in records}
        for eps in (0.2, 0.1, 0.05):
            assert norms[eps, 2] < norms[eps, 1]

    @pytest.mark.parametrize("eps_list, levels", [
        ([0.2, 0.2, 0.1], (0, 1, 2)), ([0.2, 0.1, 0.05], (0, 0, 1))],
        ids=["repeated_eps", "repeated_level"])
    def test_repeated_eps_or_level_rejected(self, circles, grid_shapes,
                                            eps_list, levels):
        # a repeated ε would fit an order over fewer distinct ε than it
        # counts, a repeated level would mismatch the fit; both are refused
        # before any grid is built
        with pytest.raises(ValidationError, match="repeat"):
            residual_study(*circles[2], eps_list, levels)
        assert grid_shapes == []


class TestConvergenceOrder:
    def test_recovers_synthetic_slope(self):
        eps = np.array([0.2, 0.1, 0.05, 0.025])
        slope, intercept, dev = convergence_order(eps, 3.0 * eps**2.5)
        assert abs(slope - 2.5) < 1e-12
        assert np.max(np.abs(dev)) < 1e-12

    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            convergence_order([0.1, 0.05], [1.0, 0.5])

    def test_nonmonotone_warns_but_fits(self):
        eps = np.array([0.2, 0.1, 0.05])
        with pytest.warns(UserWarning, match="not monotone"):
            slope, _, dev = convergence_order(eps, np.array([1.0, 2.0, 0.5]))
        assert np.max(np.abs(dev)) > 0.1


class TestCutoffNegligibility:
    def test_exponentially_small_effect(self, U23, bump_potential, exps23):
        # δ̄ = 0.5 puts the cutoff deep in the tail: the relative effect on
        # the residual norm must shrink with ε and lie under e^{-c·ε^{-δ̄}}
        # for a positive constant
        from nlscurve.ansatz import cutoff_negligibility_study
        curve, pot, sf = circle_setup(bump_potential, 2 ** -0.5, 64, 0.0, exps23)
        co = build_correctors(curve, pot, sf, U23)
        eps_used = [0.01, 0.005, 0.0025]
        norm_diffs, field_diffs, c = cutoff_negligibility_study(
            curve, bump_potential, sf, U23, co, eps_used)
        # reported norms are untouched by the cutoff (stencil-separated)
        assert np.all(norm_diffs < 1e-12)
        # the field-level effect decays exponentially in ε^{-δ̄}
        assert np.all(np.diff(field_diffs) < 0)
        assert c > 0
        assert np.all(field_diffs <= np.exp(-c * np.asarray(eps_used) ** -0.5)
                      + 1e-15)
