"""Ground-state and sector-operator tests."""

from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

import oracles
from nlscurve import radial
from nlscurve.ansatz import build_correctors
from nlscurve.errors import ConvergenceError, ValidationError
from nlscurve.radial import (RadialGrid, Sector, ground_state, ode_residual,
                             sector_solve, sector_spectrum, solve_ground_state)

from conftest import circle_setup
from oracles import (apply_sector, ground_state_u0_collocation,
                     kernel_projected, lr_sector_oracle_error,
                     poschl_teller_levels, shooting_ground_state)

# the shooting oracle's (amplitude, seed values), one bisection per input
_shot = lru_cache(maxsize=None)(shooting_ground_state)

# p near 1 is where Petviashvili's iteration contracts slowest (and Newton's
# Jacobian is worst conditioned)
GROUND_STATE_CASES = [(2, 3), (3, 3), (4, 2), (2, 5), (3, 2), (2, 1.5), (4, 2.5),
                      (2, 1.05), (3, 1.1)]


class TestGroundState:
    def test_memoized_profile_read_only(self):
        grid = RadialGrid(30.0, 1000)
        U = ground_state(2, 3.0, grid)
        before = U.values.copy()
        with pytest.raises(ValueError):
            ground_state(2, 3.0, RadialGrid(30.0, 1000)).values[0] = 0.0
        again = ground_state(2, 3.0, grid)
        assert again is U and np.array_equal(again.values, before)
        assert again(0.0) == before[0]
        # the profile keeps its own copy of the array it was built from
        src = before.copy()
        V = U.with_values(src)
        src[0] = 0.0
        assert V.values[0] == before[0]

    def test_closed_form_n2_p3(self, U23, grid30):
        # U = sqrt(2) sech(x) solves -U'' + U = U^3 on the line
        r = grid30.nodes
        closed = np.sqrt(2) / np.cosh(r)
        assert abs(U23.values[0] - np.sqrt(2)) < 1e-4
        assert np.max(np.abs(U23.values - closed)) < 5e-5
        # substitution residual of the closed form itself
        assert ode_residual(U23.with_values(closed), 3) < 2e-4

    def test_ode_residual(self, U23):
        assert ode_residual(U23, 3) < 1e-8

    def test_decay_rate(self, U23):
        assert abs(U23.decay_rate - 1.0) < 0.02

    def test_monotone_positive(self, U23, grid30):
        assert np.all(U23.values[:-1] > 0)
        assert np.all(np.diff(U23.values[:-1]) <= 1e-12)

    def test_cross_method_n4_p2(self, grid30):
        # shooting vs collocation as two independent discretizations
        u0_bvp = ground_state_u0_collocation(4, 2)
        assert abs(_shot(4, 2, grid30)[0] - u0_bvp) < 1e-6

    def test_cross_method_n3_p3(self, grid30):
        u0_bvp = ground_state_u0_collocation(3, 3)
        assert abs(_shot(3, 3, grid30)[0] - u0_bvp) < 1e-6

    def test_shoot_amplitude_n2_p3(self, grid30):
        # U(0) = √2 exactly; eighth-order shooting lands within round-off
        assert abs(_shot(2, 3, grid30)[0] - np.sqrt(2)) < 1e-14

    def test_one_dense_shot(self, monkeypatch):
        # the bisection shots read only the over/undershoot status; only
        # the kept trajectory carries dense output
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("dense_output", False))
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(oracles, "solve_ivp", counted)
        shooting_ground_state(2, 3, RadialGrid(30.0, 1000))
        assert len(calls) > 50 and sum(calls) == 1

    @pytest.mark.parametrize("n, p", GROUND_STATE_CASES)
    def test_matches_shooting_seeded_newton(self, grid30, n, p):
        # Petviashvili's iteration reaches the discrete solution that Newton
        # reaches from the shooting trajectory
        U = ground_state(n, p, grid30)
        ref = radial._newton_polish(_shot(n, p, grid30)[1], n - 1, p, grid30)
        assert np.max(np.abs(U.values - ref)) <= 1e-10

    def test_petviashvili_cap_raises(self, monkeypatch):
        # one step cannot reach the stopping test: a typed failure, not a
        # NaN or a non-monotone profile handed to Newton
        monkeypatch.setattr(radial, "PETVIASHVILI_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="Petviashvili"):
            solve_ground_state(2, 3, RadialGrid(30.0, 1000))

    def test_decay_rate_other_dims(self, grid30):
        for n, p in [(3, 3), (4, 2)]:
            U = ground_state(n, p, grid30)
            assert abs(U.decay_rate - 1.0) < 0.02

    def test_p_range_validation(self, grid30):
        with pytest.raises(ValidationError):
            solve_ground_state(5, 7, grid30)   # p >= (n+1)/(n-3) = 3
        with pytest.raises(ValidationError):
            solve_ground_state(2, 1.0, grid30)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            RadialGrid(10.0, 3000)
        with pytest.raises(ValidationError):
            RadialGrid(30.0, 500)


class TestUniformCubic:
    @pytest.mark.parametrize("n, p", [(2, 3), (4, 2)])
    def test_profile_matches_cubic_spline(self, grid30, n, p):
        # the profile's not-a-knot cubic is SciPy's default CubicSpline
        U = ground_state(n, p, grid30)
        ref = CubicSpline(grid30.nodes, U.values)
        r = np.concatenate([np.random.default_rng(3).uniform(0, 30, 20000),
                            grid30.nodes, [0.0, 1e-300, 30.0]])
        assert np.max(np.abs(U(r) - ref(r))) <= 1e-13
        assert np.max(np.abs(U.derivative(r) - ref(r, 1))) <= 1e-13
        # every node but r_max starts its own interval: the value itself
        assert np.array_equal(U(grid30.nodes[:-1]), U.values[:-1])

    def test_zero_past_r_max(self, U23, grid30):
        # past the Dirichlet wall a profile and its derivative are 0,
        # whatever value it takes at the wall
        r = np.array([30.0 + 1e-12, 31.0, 100.0, -31.0])
        for prof in (U23, U23.with_values(np.ones(grid30.m))):
            assert np.all(prof(r) == 0.0)
            assert np.all(prof.derivative(r) == 0.0)

    def test_oscillating_rows(self, grid30):
        # a non-monotone profile, and stacked value rows; an order-nu
        # derivative carries rounding of order eps·max|y|/dr^nu in both codes
        from nlscurve.radial import UniformCubic
        r = grid30.nodes
        rows = np.stack([np.sin(3 * r) * np.exp(-0.1 * r), np.cos(r) / (1 + r)], axis=1)
        cubic = UniformCubic.not_a_knot(r, rows)
        ref = CubicSpline(r, rows)
        x = np.random.default_rng(4).uniform(0, 30, (50, 40))
        for nu in (0, 1, 2):
            assert np.max(np.abs(cubic(x, nu) - ref(x, nu))) <= 1e-13 / grid30.dr**nu


class TestSectorSpectrum:
    def test_poschl_teller_lowest(self, U23):
        # L_r for p=3, n=2 is -d²/dx² + 1 - 6 sech², even sector
        pairs = sector_spectrum(Sector(U23, 3.0, "Lr", 0), 1)
        expected = 1.0 + poschl_teller_levels(2)[0]
        assert abs(pairs[0][0] - expected) < 1e-3

    def test_kernels(self, U23, grid30):
        r = grid30.nodes
        lam_r, er = sector_spectrum(Sector(U23, 3.0, "Lr", 1), 1)[0]
        lam_i, ei = sector_spectrum(Sector(U23, 3.0, "Li", 0), 1)[0]
        assert abs(lam_r) < 1e-4 and abs(lam_i) < 1e-4
        dU = np.abs(U23.derivative(r))
        ov_r = np.trapezoid(er.values * dU, r) / np.sqrt(
            np.trapezoid(er.values**2, r) * np.trapezoid(dU**2, r))
        ov_i = np.trapezoid(ei.values * U23.values, r) / np.sqrt(
            np.trapezoid(ei.values**2, r) * np.trapezoid(U23.values**2, r))
        assert abs(ov_r) > 0.999 and abs(ov_i) > 0.999

    def test_shift_identity(self, U23):
        base = sector_spectrum(Sector(U23, 3.0, "Lr", 0), 4)
        shifted = sector_spectrum(Sector(U23, 3.0, "Lr", 0, 2.25), 4)
        for (l0, _), (l1, _) in zip(base, shifted):
            assert abs((l1 - l0) - 2.25) < 1e-10

    def test_symmetry_and_real(self, U23):
        sector = Sector(U23, 3.0, "Li", 1, 0.3)
        assert np.all(np.isfinite(sector.diag)) and np.all(np.isfinite(sector.off))
        vals = sector_spectrum(sector, 3)
        assert all(np.isreal(v) for v, _ in vals)

    def test_eigenvalues_to_round_off(self):
        # shifted Dirichlet Laplacian, 2/h² - 3 and -1/h² exact in floats:
        # λ_k = (4/h²) sin²(kπ/(2(N+1))) - 3 with ‖T‖ = 4e4, where LAPACK's
        # bisection is about 4e-13 off even at its tightest tolerance
        from nlscurve.radial import lowest_eigenpairs
        h, N = 0.01, 2999
        diag = np.full(N, 2 / h**2 - 3.0)
        off = np.full(N - 1, -1 / h**2)
        k = np.arange(1, 4)
        exact = 4 / h**2 * np.sin(k * np.pi / (2 * (N + 1))) ** 2 - 3.0
        vals, vecs = lowest_eigenpairs(diag, off, 3)
        assert np.max(np.abs(vals - exact)) <= 4 * np.finfo(float).eps
        assert vecs.shape == (N, 3)

    @pytest.mark.parametrize("n", [2, 3])
    def test_pairs_do_not_depend_on_the_count(self, grid30, n):
        # each pair is selected by its own index: pair j is bitwise the same
        # whether 1, 2 or 3 pairs are asked for
        from nlscurve.radial import lowest_eigenpairs
        U = ground_state(n, 3, grid30)
        for kind in ("Lr", "Li"):
            for ell in (0, 1):
                sector = Sector(U, 3.0, kind, ell)
                vals, vecs = lowest_eigenpairs(sector.diag, sector.off, 3)
                for count in (1, 2):
                    v, w = lowest_eigenpairs(sector.diag, sector.off, count)
                    assert np.array_equal(v, vals[:count])
                    assert np.array_equal(w, vecs[:, :count])

    def test_higher_dim_kernels(self, grid30):
        U = ground_state(3, 3, grid30)
        lam_i = sector_spectrum(Sector(U, 3.0, "Li", 0), 1)[0][0]
        assert abs(lam_i) < 1e-6
        lam_r = sector_spectrum(Sector(U, 3.0, "Lr", 1), 1)[0][0]
        assert abs(lam_r) < 5e-4


class TestSectorSolve:
    def test_lr_closed_form(self, U23, grid30):
        # L_r(-U/(p-1) - ∇U·y/2) = U in the even sector
        r = grid30.nodes
        sol, _ = sector_solve(Sector(U23, 3.0, "Lr", 0), U23.values.copy())
        target = -U23.values / 2.0 - 0.5 * r * U23.derivative(r)
        assert np.max(np.abs(sol - target)) < 5e-5

    def test_li_closed_form(self, U23, grid30):
        # L_i(yU) = -2 ∂U in the odd sector
        r = grid30.nodes
        rhs = -2.0 * U23.derivative(r)
        sol, _ = sector_solve(Sector(U23, 3.0, "Li", 1), rhs)
        assert np.max(np.abs(sol - r * U23.values)) < 5e-5

    def test_zero_after_projection(self, U23):
        # rhs proportional to the kernel solves to zero
        sol, removed = sector_solve(Sector(U23, 3.0, "Li", 0), U23.values)
        assert removed > 0.999   # rhs was entirely kernel
        assert np.max(np.abs(sol)) < 1e-8

    def test_round_trip_gaussian_bumps(self, U23, grid30):
        r = grid30.nodes
        for kind, ell in [("Lr", 0), ("Lr", 1), ("Li", 0), ("Li", 1)]:
            sector = Sector(U23, 3.0, kind, ell)
            for center in (1.0, 3.0, 6.0):
                bump = np.exp(-((r - center) ** 2))
                if ell >= 1:
                    bump *= r / (1 + r)    # odd-sector radial parts vanish at 0
                rhs = U23.with_values(bump)
                sol, removed = sector_solve(sector, rhs.values)
                back = apply_sector(sector, U23.with_values(sol))
                # compare against the projected rhs on the active nodes
                proj = kernel_projected(sector, rhs.values)
                scale = max(np.max(np.abs(proj)), 1.0)
                assert np.max(np.abs(back.values - proj)) < 1e-8 * scale

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacked_rows_match_single_solves(self, grid30, n):
        # one call on a (2, 3, m) stack equals six one-row calls, and every
        # row round-trips onto its own kernel-projected right-hand side
        U = ground_state(n, 3, grid30)
        d, r = n - 1, grid30.nodes
        for kind in ("Lr", "Li"):
            for ell in range(2 if d == 1 else 3):
                sector = Sector(U, 3.0, kind, ell)
                kv = sector.kernel
                kern = np.zeros(grid30.m) if kv is None else sector.from_phi(kv)
                bumps = [np.exp(-((r - c) ** 2)) * (r / (1 + r) if ell else 1.0)
                         for c in (1.0, 3.0, 6.0)]
                rows = np.array(bumps + [bumps[0] + kern, kern,
                                         np.zeros(grid30.m)]).reshape(2, 3, -1)
                sol, removed = sector_solve(sector, rows)
                assert sol.shape == rows.shape and removed.shape == (2, 3)
                for a in range(2):
                    for c in range(3):
                        one, rem = sector_solve(sector, rows[a, c])
                        scale = max(np.max(np.abs(one)), 1.0)
                        assert np.max(np.abs(sol[a, c] - one)) < 1e-12 * scale
                        assert abs(removed[a, c] - rem) < 1e-12
                        proj = kernel_projected(sector, rows[a, c])
                        back = apply_sector(sector, U.with_values(sol[a, c]))
                        tol = 1e-8 * max(np.max(np.abs(proj)), 1.0)
                        assert np.max(np.abs(back.values - proj)) < tol
                # the zero row solves to zero with nothing removed
                assert removed[1, 2] == 0.0 and np.all(sol[1, 2] == 0.0)
                if kv is not None:
                    assert removed[1, 1] > 0.999
                    assert np.all(removed[0] < removed[1, 1])
                else:
                    assert np.all(removed == 0.0)

    @pytest.mark.parametrize("n, p, ell", [(2, 3.0, 1), (3, 3.0, 1), (4, 2.0, 1),
                                           (3, 3.0, 2), (4, 2.0, 2)])
    def test_lr_sector_oracles(self, grid30, n, p, ell):
        # L_r(rU) = -(p-1)rU^p - 2U' and L_r(r²U) = -(p-1)r²U^p - 4rU' to
        # the grid's O(dr²); for d ≥ 2 the ℓ=1 solve matches only once the
        # translation kernel is projected off (lowest eigenvalue 1.48e-4
        # for n = 3, -3.8e-6 for n = 4)
        gate = 1e-4 if ell == 1 else 5e-5
        assert lr_sector_oracle_error(ground_state(n, p, grid30), p, ell) < gate

    def test_eigensolve_only_in_kernel_sectors(self, grid30, U23, exps23,
                                               bump_potential, monkeypatch):
        # the kernels are known: the unshifted L_i ℓ=0 and L_r ℓ=1 sectors
        # take one eigenvector each, every other sector none, and removes 0;
        # a Sector computes its kernel once, however many solves read it
        real = radial.eigh_tridiagonal
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(radial, "eigh_tridiagonal", counting)
        for n, p in ((2, 3.0), (3, 3.0), (4, 2.0)):
            U, d = ground_state(n, p, grid30), n - 1
            bump = np.exp(-((grid30.nodes - 2.0) ** 2)) * grid30.nodes
            for kind in ("Lr", "Li"):
                for ell in range(2 if d == 1 else 3):
                    for shift in (0.0, 0.5, -0.5):
                        calls.clear()
                        sector = Sector(U, p, kind, ell, shift)
                        assert calls == []          # set-up runs no eigensolve
                        removed = [sector_solve(sector, bump)[1]
                                   for _ in range(3)]
                        if shift == 0.0 and (kind, ell) in (("Li", 0), ("Lr", 1)):
                            assert len(calls) == 1 and min(removed) > 0.0
                        else:
                            assert calls == [] and removed == [0.0] * 3
        # the corrector build reads the L_r ℓ=1 kernel for its solve and for
        # its criticality check, and computes it once
        calls.clear()
        build_correctors(*circle_setup(bump_potential, 0.7012465, 64, 0.05,
                                       exps23), U23)
        assert len(calls) == 1


class TestSector:
    @pytest.mark.parametrize("n, kind, ell, match", [
        (2, "Lx", 0, "kind must be"),
        (3, "Lr", -1, "nonnegative"),
        (2, "Li", 2, "parity sectors"),
        (2, "Lr", 3, "parity sectors")])
    def test_invalid_sector_rejected(self, grid30, n, kind, ell, match):
        with pytest.raises(ValidationError, match=match):
            Sector(ground_state(n, 3.0, grid30), 3.0, kind, ell)

    @pytest.mark.parametrize("n", [2, 3])
    def test_to_phi_is_a_contiguous_slice(self, grid30, n):
        # φ = √weight·u on the active nodes, bitwise, and C-ordered for a
        # stack of rows too: a gather (values[..., idx]) of a stack is
        # F-ordered, and products with it sum in another order
        U = ground_state(n, 3.0, grid30)
        rows = np.stack([U.values, np.exp(-grid30.nodes), U.derivative(grid30.nodes)])
        cases = [("Lr", 0), ("Li", 0), ("Lr", 1)] + ([("Li", 2)] if n > 2 else [])
        for kind, ell in cases:
            sector = Sector(U, 3.0, kind, ell)
            sqrtw = np.sqrt(sector.weight)
            for values in (rows[0], rows):
                phi = sector.to_phi(values)
                assert phi.flags.c_contiguous
                assert phi.tobytes() == (values[..., sector.idx] * sqrtw).tobytes()

    @pytest.mark.parametrize("ell", [0, 1])
    def test_profiles_normalize_and_sign(self, U23, grid30, ell):
        # profiles(to_phi(u)) is u normalized in the weight, with the sign
        # rule; two components share one norm, and the larger component just
        # off the first active node (the later one on a tie) is positive there
        sector = Sector(U23, 3.0, "Lr", ell)
        r = grid30.nodes
        u = U23.values * (r if ell else 1.0)
        u[-1] = 0.0
        first = sector.idx[0] + 1
        mass = lambda *fs: sum(np.sum(f[sector.idx] ** 2 * sector.weight) for f in fs)
        close = lambda a, b: np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))
        (one,) = sector.profiles(sector.to_phi(-u))
        assert close(one, u / np.sqrt(mass(u))) and one[first] > 0
        assert abs(mass(one) - 1.0) < 1e-14
        assert np.all(one[:sector.idx[0]] == 0.0)
        for a, b, flip in [(2.0, -1.0, False), (-1.0, 1.0, False),
                           (1.0, -1.0, True), (-2.0, 1.0, True)]:
            pu, pv = sector.profiles(sector.to_phi(a * u), sector.to_phi(b * u))
            scale = (-1.0 if flip else 1.0) / np.sqrt(mass(a * u, b * u))
            assert close(pu, a * u * scale) and close(pv, b * u * scale)
            assert abs(mass(pu, pv) - 1.0) < 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_coupled_profiles_share_the_sector_convention(self, grid30, n):
        # at α = 0 the ground pair of the coupled ℓ = 0 sector is (Z, 0) with
        # Z the lowest L_r eigenfunction: the coupled sector's profiles and
        # sector_spectrum read one φ map, so Z agrees bitwise.  Both ask
        # LAPACK for as many eigenpairs: its bisection places λ₀ to a few
        # ulps differently for another count, and the vector with it
        from nlscurve.spectrum import BOUND_BRANCHES, coupled_sectors
        U = ground_state(n, 3.0, grid30)
        coupled = coupled_sectors(U, 3.0)[0]
        u, v = coupled.profiles(coupled.start()[0][1])
        _, Z = sector_spectrum(Sector(U, 3.0, "Lr", 0), len(BOUND_BRANCHES[0]))[0]
        assert u.tobytes() == Z.values.tobytes()
        assert not np.any(v)
