"""Coupled-system spectrum, branch tracing, crossing mode, α-derivatives."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from scipy.linalg import eig_banded, eigh

import nlscurve.spectrum as spectrum
from nlscurve.errors import (BranchTrackingError, ConvergenceError,
                             ValidationError)
from nlscurve.geometry import CurveSpec, build_curve, sample_potential
from nlscurve.radial import (RadialGrid, Sector, ground_state, sector_solve,
                             sector_spectrum)
from nlscurve.scalings import compute_scalings
from nlscurve.spectrum import (BOUND_BRANCHES, alpha_field, bound_state_counts,
                               branch_curvature_closed_forms, continuum_threshold,
                               coupled_sectors, crossing_slope, eta_curvature,
                               find_alpha_bar, trace_branches)

import oracles
from conftest import circle_setup
from oracles import (CoupledSectorOperator, bound_state_counts_per_sector,
                     coupled_bands, coupled_spectrum, decay_rate_windowed,
                     eigenvalue_derivative, eigenvalue_second_derivative,
                     poschl_teller_levels, sector_floors)


class TestCoupledSpectrum:
    # the ARPACK oracle of tests/oracles.py against closed forms and LAPACK
    def test_decoupled_ground(self, U23):
        pairs = coupled_spectrum(CoupledSectorOperator(0.0, 0.0, 0, 3.0), U23, 2)
        lam, u, v = pairs[0]
        assert abs(lam - (1.0 + poschl_teller_levels(2)[0])) < 1e-3
        assert np.max(np.abs(v)) < 1e-9          # eigenvector of the form (Z, 0)

    def test_zero_modes_at_origin(self, U23, grid30):
        # ℓ=0 second eigenpair is (0, U); ℓ=1 first is (∂U, 0)
        r = grid30.nodes
        lam0, u0, v0 = coupled_spectrum(
            CoupledSectorOperator(0.0, 0.0, 0, 3.0), U23, 2)[1]
        assert abs(lam0) < 1e-6
        ov = np.trapezoid(v0 * U23.values, r) / np.sqrt(
            np.trapezoid(v0**2, r) * np.trapezoid(U23.values**2, r))
        assert abs(ov) > 0.999 and np.max(np.abs(u0)) < 1e-6
        lam1, u1, v1 = coupled_spectrum(
            CoupledSectorOperator(0.0, 0.0, 1, 3.0), U23, 1)[0]
        dU = np.abs(U23.derivative(r))
        ov1 = np.trapezoid(np.abs(u1) * dU, r) / np.sqrt(
            np.trapezoid(u1**2, r) * np.trapezoid(dU**2, r))
        assert abs(lam1) < 1e-4 and abs(ov1) > 0.999

    def test_decoupled_shift(self, U23):
        base = coupled_spectrum(CoupledSectorOperator(0.0, 0.0, 0, 3.0), U23, 3)
        shifted = coupled_spectrum(CoupledSectorOperator(0.7, 0.0, 0, 3.0), U23, 3)
        for (l0, _, _), (l1, _, _) in zip(base, shifted):
            assert abs((l1 - l0) - 0.49) < 1e-10

    def test_reproducible(self, U1000):
        # a fixed Lanczos start vector: identical calls, identical arrays
        op = CoupledSectorOperator(1.7, 0.15, 0, 3.0)
        first, second = (coupled_spectrum(op, U1000, 2) for _ in range(2))
        for a, b in zip(first, second):
            assert a[0] == b[0]
            assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("ell, count", [(0, 4), (1, 2)])
    def test_matches_dense_eigh(self, U1000, alpha, ell, count):
        op = CoupledSectorOperator(alpha, 0.15, ell, 3.0)
        bands, scalar = coupled_bands(op, U1000)
        dense = np.diag(bands[0])
        for lag in (1, 2):
            off = np.diag(bands[lag, :-lag], -lag)
            dense += off + off.T
        vals, vecs = eigh(dense, subset_by_index=[0, count - 1])
        for j, (lam, u, v) in enumerate(coupled_spectrum(op, U1000, count)):
            assert abs(lam - vals[j]) < 1e-10
            phi = np.empty(bands.shape[1])
            phi[0::2], phi[1::2] = scalar.to_phi(u), scalar.to_phi(v)
            assert abs(phi @ vecs[:, j]) >= 1.0 - 1e-10   # both unit weighted norm


@pytest.fixture(scope="module")
def U1000():
    return ground_state(2, 3, RadialGrid(30.0, 1000))


@pytest.fixture(scope="module")
def U1000_by_dim(U1000):
    return {1: U1000, 2: ground_state(3, 3, RadialGrid(30.0, 1000))}


class TestShift:
    @pytest.mark.parametrize("dim, ell", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
    def test_shift_is_a_tight_lower_bound(self, U1000_by_dim, monkeypatch, dim, ell):
        # the bound from the scalar floors lies under the lowest eigenvalue of
        # the assembled pentadiagonal, from LAPACK's direct banded eigensolver,
        # and within SHIFT_MARGIN + |μα| of it
        U = U1000_by_dim[dim]
        shifts = []
        lanczos = oracles.eigsh

        def spied(*args, **kwargs):
            shifts.append(kwargs["sigma"])
            return lanczos(*args, **kwargs)

        monkeypatch.setattr(oracles, "eigsh", spied)
        for alpha in (0.0, 0.5, 2.0):
            for mu in (0.0, 0.15, 1.0):
                op = CoupledSectorOperator(alpha, mu, ell, 3.0)
                lam = coupled_spectrum(op, U, 1)[0][0]
                bands, _ = coupled_bands(op, U)
                lowest = eig_banded(bands, lower=True, eigvals_only=True,
                                    select="i", select_range=(0, 0))[0]
                gap = lowest - shifts[-1]
                assert 0.0 < gap <= spectrum.SHIFT_MARGIN + abs(mu * alpha) + 1e-12
                assert abs(lam - lowest) < 1e-10

    def test_floors_argument_changes_nothing(self, U1000):
        for ell, count in ((0, 4), (1, 2), (0, 1)):
            op = CoupledSectorOperator(0.9, 0.15, ell, 3.0)
            given = coupled_spectrum(op, U1000, count, sector_floors(U1000, 3.0, ell))
            for a, b in zip(given, coupled_spectrum(op, U1000, count)):
                assert a[0] == b[0]
                assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])

    def test_floors_above_spectrum_fail_factorization(self, U1000):
        # floors that are not lower bounds put the shift inside the spectrum
        op = CoupledSectorOperator(0.5, 0.15, 0, 3.0)
        a, b = sector_floors(U1000, 3.0, 0)
        with pytest.raises(ConvergenceError, match="not below"):
            coupled_spectrum(op, U1000, 1, (a + 1.0, b + 1.0))

    def test_solve_counts(self, sectors23, monkeypatch):
        # every banded solve, Cholesky and LU; the α = 0 starts take none
        calls = []

        def counting(solve, name):
            def counted(*args, **kwargs):
                calls.append(name)
                return solve(*args, **kwargs)
            return counted

        for name in ("cho_solve_banded", "dgbtrs"):
            monkeypatch.setattr(spectrum, name,
                                counting(getattr(spectrum, name), name))
        # extrapolated starts and the rate-based stop (_converged); the
        # counts in brackets are those of starts from the previous α's
        # eigenvector with the stop at INVERSE_ITERATION_TOL alone
        trace_branches(sectors23, 0.17, np.linspace(0.0, 2.2, 23))
        assert len(calls) <= 240       # 229 measured (362; 409 with Lanczos)
        calls.clear()
        find_alpha_bar(sectors23, 0.17)
        assert len(calls) <= 10        # 9 measured (12; 21 with Lanczos)
        # at μ = 1 the gauge branch leaves the bound states between α = 0.9
        # and 1.0 and is not traced past them (every α there was a cold
        # Lanczos solve of a box mode: 1,980 solves)
        calls.clear()
        trace_branches(sectors23, 1.0, np.linspace(0.0, 2.2, 23))
        assert calls.count("dgbtrs") <= 63    # 60 measured (71; 103 before)
        assert len(calls) <= 330              # 316 measured (404)


class TestBoundStateCounts:
    @pytest.mark.parametrize("ell", [0, 1])
    @pytest.mark.parametrize("mu", [0.0, 0.17, 1.0])
    def test_matches_banded_eigensolver(self, U1000, ell, mu):
        # Sylvester count against the eigenvalues of the assembled matrix
        # from LAPACK's direct banded eigensolver; at μ = 1 the ℓ=0 gauge
        # eigenvalue leaves the bound states by α = 2.2
        alphas = np.array([0.0, 0.5, 1.3, 2.2])
        counts = bound_state_counts(coupled_sectors(U1000, 3.0), mu, alphas)[ell]
        for a, tau, count in zip(alphas, continuum_threshold(alphas, mu), counts):
            bands, _ = coupled_bands(CoupledSectorOperator(a, mu, ell, 3.0),
                                        U1000)
            below = eig_banded(bands, lower=True, eigvals_only=True, select="v",
                               select_range=(-np.inf, tau))
            assert count == below.size
        if mu == 1.0 and ell == 0:
            assert counts[-1] == 1 < counts[0]

    @pytest.mark.parametrize("mu", [0.0, 0.17, 1.0, 3.0])
    def test_fused_matches_per_sector_recurrence(self, U1000_by_dim, mu):
        # one recurrence over every sector and α against one per sector; the
        # ℓ = 1 sector, one node shorter, ends in a decoupled positive
        # definite block; at μ = 3 the ℓ = 0 counts drop from 2 (3 for n = 3)
        # to 1
        alphas = np.linspace(0.0, 2.2, 23)
        for U in U1000_by_dim.values():
            fused = bound_state_counts(coupled_sectors(U, 3.0), mu, alphas)
            assert set(fused) == set(BOUND_BRANCHES)
            for ell, counts in fused.items():
                assert np.array_equal(counts, bound_state_counts_per_sector(
                    U, 3.0, mu, alphas, ell))

    def test_traced_branches_are_all_bound_states(self, sectors23):
        alphas = np.linspace(0.0, 2.2, 23)
        counts = bound_state_counts(sectors23, 0.17, alphas)
        for ell, labels in BOUND_BRANCHES.items():
            assert np.all(counts[ell] == len(labels))

    def test_threshold_closed_form(self):
        assert continuum_threshold(0.0, 0.3) == 1.0
        assert np.array_equal(continuum_threshold([1.0, 2.0], -0.5), [1.5, 4.0])


@pytest.fixture(scope="module")
def traced(sectors23):
    return trace_branches(sectors23, 0.1, np.linspace(0.0, 1.6, 17))


class TestBranches:

    def test_decoupled_ground_branch_is_shift(self, sectors23):
        alphas = np.linspace(0.0, 1.2, 7)
        br = trace_branches(sectors23, 0.0, alphas)
        eta = br["ground"].eigenvalues
        assert np.max(np.abs(eta - (eta[0] + alphas**2))) < 1e-9

    def test_ground_increasing(self, traced):
        assert np.all(np.diff(traced["ground"].eigenvalues) > 0)

    def test_ordering(self, traced):
        eta = traced["ground"].eigenvalues
        sig_t = traced["translation"].eigenvalues
        sig_g = traced["gauge"].eigenvalues
        tau = continuum_threshold(traced["ground"].alphas, 0.1)
        assert np.all(eta < sig_t + 1e-12)
        assert np.all(eta < sig_g + 1e-12)
        assert np.all(np.minimum(sig_t, sig_g) < tau + 1e-9)
        assert np.min(tau) > 0.5      # stays away from zero

    def test_flat_slope_at_origin(self, U23):
        d0 = eigenvalue_derivative(U23, 3.0, 0.1, 0.0)
        assert abs(d0) < 1e-3

    def test_eta_curvature_identity(self, U23, sectors23):
        # the closed form against finite differences of ARPACK eigenvalues
        numeric = eigenvalue_second_derivative(U23, 3.0, 0.1, 0.0)
        assert abs(numeric - eta_curvature(sectors23, 0.1)) < 1e-2

    def test_eta_curvature_is_the_traced_curvature(self, grid30):
        # the closed form against a two-level Richardson extrapolation
        # (h = 0.08, 0.04, 0.02) of the traced ground eigenvalue, which is
        # even in α; measured 7.4e-9 at n = 3 (the trapezoid rule's integral
        # gave 1.5e-7)
        sectors = coupled_sectors(ground_state(3, 3, grid30), 3.0)
        h = np.array([0.02, 0.04, 0.08])
        eta = trace_branches(sectors, 0.17, np.concatenate([[0.0], h]))[
            "ground"].eigenvalues
        d2 = 2 * (eta[1:] - eta[0]) / h**2
        once = (4 * d2[:-1] - d2[1:]) / 3
        twice = (16 * once[0] - once[1]) / 15
        assert abs(eta_curvature(sectors, 0.17) - twice) < 2e-8

    def test_eta_curvature_shifted_solve_removes_nothing(self, sectors23,
                                                          monkeypatch):
        # the L_i ℓ=0 solve is shifted by -η₀ > 0, so it has no kernel
        real = spectrum.sector_solve
        seen = []

        def recording(sector, rhs):
            out = real(sector, rhs)
            seen.append((sector, out[1]))
            return out

        monkeypatch.setattr(spectrum, "sector_solve", recording)
        eta_curvature(sectors23, 0.1)
        [(sector, removed)] = seen
        assert (sector.kind, sector.ell) == ("Li", 0) and sector.shift > 0.0
        assert removed == 0.0

    def test_next_eigenvalues_are_continuum(self, U23):
        # the eigenvalue after the traced ones in each sector is the lowest
        # box mode of the continuum, just above the closed-form threshold
        alphas = np.linspace(0.0, 2.2, 23)
        tau = continuum_threshold(alphas, 0.17)
        for ell, labels in BOUND_BRANCHES.items():
            count = len(labels) + 1
            nxt = np.array([coupled_spectrum(
                CoupledSectorOperator(a, 0.17, ell, 3.0), U23, count)[-1][0]
                for a in alphas])
            assert np.all(nxt > tau)
            assert np.all(nxt - tau < 0.02)   # box modes crowd the threshold

    @pytest.mark.parametrize("mu", [0.0, 0.17, 1.0])
    def test_continuation_matches_cold_trace(self, U23, sectors23, mu):
        # against cold ARPACK eigensolves at every α matched by overlap.  At
        # μ = 1 the gauge branch leaves the bound states between α = 0.9 and
        # 1.0: there the cold trace's second eigenpair is a box mode of the
        # continuum, at or above τ_α, and the warm trace reads NaN
        alphas = np.linspace(0.0, 2.2, 23)
        tau = continuum_threshold(alphas, mu)
        warm = trace_branches(sectors23, mu, alphas)
        for label, (lams, funcs) in cold_trace(U23, mu, alphas).items():
            traced = np.isfinite(warm[label].eigenvalues)
            assert np.max(np.abs(warm[label].eigenvalues[traced]
                                 - lams[traced])) < 1e-10
            assert np.all(lams[traced] < tau[traced])
            assert np.all(lams[~traced] >= tau[~traced])
            assert len(warm[label].eigenfunctions) == np.sum(traced)
            for (u, v), (uc, vc) in zip(warm[label].eigenfunctions, funcs):
                assert np.max(np.abs(u - uc)) + np.max(np.abs(v - vc)) < 1e-8
        gauge = warm["gauge"]
        bound = np.isfinite(gauge.eigenvalues)
        if mu == 1.0:
            assert alphas[bound][-1] == 0.9 and alphas[~bound][0] == 1.0
            assert np.all(np.isnan(gauge.eigenvalues[10:]))
        else:
            assert np.all(bound)

    @pytest.mark.parametrize("mu", [0.17, 1.0])
    @pytest.mark.parametrize("alphas", [np.linspace(0.0, 2.2, 23),
                                        np.array([0.0, 0.02, 0.04, 0.08])],
                             ids=["uniform", "nonuniform"])
    def test_rate_stop_changes_nothing(self, sectors23, monkeypatch, mu, alphas):
        # the trace that stops at the predicted step against one that
        # iterates until a step is below INVERSE_ITERATION_TOL, on a uniform
        # grid and on one whose extrapolation factor goes 1, 2
        fast = trace_branches(sectors23, mu, alphas)
        monkeypatch.setattr(spectrum, "_converged", lambda step, last:
                            step < spectrum.INVERSE_ITERATION_TOL)
        full = trace_branches(sectors23, mu, alphas)
        for label, branch in full.items():
            assert np.allclose(fast[label].eigenvalues, branch.eigenvalues,
                               rtol=0.0, atol=1e-12, equal_nan=True)
            assert len(fast[label].eigenfunctions) == len(branch.eigenfunctions)
            for (u, v), (uf, vf) in zip(fast[label].eigenfunctions,
                                        branch.eigenfunctions):
                assert np.max(np.abs(u - uf)) + np.max(np.abs(v - vf)) < 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 1.3])
    def test_warm_pair_from_a_poor_start(self, sectors23, alpha):
        # from a start whose overlap with the eigenvector is 0.6 (the rest
        # along the other ℓ=0 eigenvector or a random vector) inverse
        # iteration returns the pair it returns from the eigenvector itself:
        # the ground pair at the rigorous shift and the gauge pair at a shift
        # near it; measured ≤ 3.8e-13
        mu, sector = 0.17, sectors23[0]
        gauge = trace_branches(sectors23, mu, np.linspace(0.0, alpha, 6))[
            "gauge"].eigenvalues[-1]
        ground = spectrum._warm_pair(sector, alpha, mu, sector.start()[0][1])[1]
        second = spectrum._warm_pair(sector, alpha, mu, sector.start()[1][1],
                                     gauge)[1]
        rng = np.random.default_rng(0)
        for near, phi, other in ((None, ground, second), (gauge, second, ground)):
            lam, vec = spectrum._warm_pair(sector, alpha, mu, phi, near)
            for psi in (other, rng.standard_normal(phi.size)):
                psi = psi - (psi @ phi) * phi
                start = 0.6 * phi + 0.8 * psi / np.linalg.norm(psi)
                lam_s, vec_s = spectrum._warm_pair(sector, alpha, mu, start, near)
                assert abs(lam_s - lam) < 1e-12
                assert np.max(np.abs(vec_s - vec)) < 1e-12

    @pytest.mark.parametrize("mu", [0.17, 1.0, 2.0, 3.0])
    def test_traced_values_are_the_certified_count(self, sectors23, mu):
        # at every α the finite traced values of a sector number its inertia
        # count, the certificate the runner reports; at μ = 2 the gauge
        # branch leaves between α = 0.4 and 0.5
        alphas = np.linspace(0.0, 2.2, 23)
        warm = trace_branches(sectors23, mu, alphas)
        counts = bound_state_counts(sectors23, mu, alphas)
        tau = continuum_threshold(alphas, mu)
        for ell, labels in BOUND_BRANCHES.items():
            values = np.array([warm[label].eigenvalues for label in labels])
            finite = np.isfinite(values)
            assert np.array_equal(finite.sum(axis=0), counts[ell])
            assert np.all(np.where(finite, values, -np.inf) < tau)
            assert all(warm[label].sector_counts == tuple(counts[ell])
                       for label in labels)
        if mu == 2.0:
            bound = np.isfinite(warm["gauge"].eigenvalues)
            assert alphas[bound][-1] == 0.4 and alphas[~bound][0] == 0.5

    @pytest.mark.parametrize("mu, index", [(1.5, 6), (3.0, 3)])
    def test_overshoot_towards_the_continuum(self, U23, sectors23, monkeypatch,
                                             mu, index):
        # at the last α before the gauge branch leaves (μα = 0.9, 0.0245
        # under τ_α) its predicted eigenvalue lies nearer the box modes above
        # τ_α than the bound state: inverse iteration there does not converge
        # (μ = 1.5) or finds a box mode (μ = 3).  The shift isolated by
        # inertia counts finds the bound state, as ARPACK does
        isolated = []
        isolating_shift = spectrum._CoupledSector.isolating_shift

        def spied(sector, alpha, *args):
            isolated.append(alpha)
            return isolating_shift(sector, alpha, *args)

        monkeypatch.setattr(spectrum._CoupledSector, "isolating_shift", spied)
        alphas = np.linspace(0.0, 2.2, 23)
        gauge = trace_branches(sectors23, mu, alphas)["gauge"]
        alpha = alphas[index]
        assert isolated == [alpha]
        assert alphas[np.isfinite(gauge.eigenvalues)][-1] == alpha
        ref = coupled_spectrum(CoupledSectorOperator(alpha, mu, 0, 3.0),
                               U23, 2)[1][0]
        assert abs(gauge.eigenvalues[index] - ref) < 1e-10
        assert 0.02 < continuum_threshold(alpha, mu) - ref < 0.03

    def test_start_is_the_lanczos_oracle(self, U1000_by_dim):
        # at α = 0 the coupling vanishes: the sector's lowest pairs are the
        # scalar tridiagonals' (the exact start of every trace and crossing
        # search), equal to the ARPACK eigenpairs at any μ
        for U in U1000_by_dim.values():
            for ell, sector in coupled_sectors(U, 3.0).items():
                start = sector.start()
                assert len(start) == len(BOUND_BRANCHES[ell])
                oracle = coupled_spectrum(CoupledSectorOperator(
                    0.0, 0.4, ell, 3.0), U, len(start))
                for (lam, phi), (lam_c, u_c, v_c) in zip(start, oracle):
                    u, v = sector.profiles(phi)
                    assert abs(lam - lam_c) < 1e-12
                    assert np.max(np.abs(u - u_c)) + np.max(np.abs(v - v_c)) < 1e-12

    def test_grid_validation(self, sectors23):
        with pytest.raises(ValidationError):
            trace_branches(sectors23, 0.1, np.array([0.5, 0.2]))
        # the exact starts hold at α = 0 only
        with pytest.raises(ValidationError, match="from 0"):
            trace_branches(sectors23, 0.1, np.array([0.1, 0.5]))


def cold_trace(U, mu, alphas):
    """Branches from a cold coupled_spectrum at every α, each continued by
    the largest eigenvector overlap with its previous sample."""
    r, out = U.grid.nodes, {}
    for ell, labels in BOUND_BRANCHES.items():
        per_alpha = [coupled_spectrum(CoupledSectorOperator(a, mu, ell, 3.0),
                                      U, len(labels)) for a in alphas]
        for start, label in enumerate(labels):
            lams, funcs = [per_alpha[0][start][0]], [per_alpha[0][start][1:]]
            for alpha, cands in zip(alphas[1:], per_alpha[1:]):
                u0, v0 = funcs[-1]
                ovs = [abs(np.trapezoid((u0 * u + v0 * v) * r ** (U.dim - 1), r))
                       for _, u, v in cands]
                best = int(np.argmax(ovs))
                if ovs[best] < spectrum.OVERLAP_FLOOR:
                    raise BranchTrackingError("branch tracking ambiguous",
                                              alpha, ovs[best])
                lams.append(cands[best][0])
                funcs.append(cands[best][1:])
            out[label] = (np.array(lams), funcs)
    return out


class TestCrossing:
    def test_alpha_bar_decoupled(self, sectors23):
        mode = find_alpha_bar(sectors23, 0.0)
        assert abs(mode.alpha_bar - np.sqrt(3.0)) < 1e-4
        assert np.max(np.abs(mode.v_values)) < 1e-9

    def test_decay_rate(self, sectors23):
        mode = find_alpha_bar(sectors23, 0.05)
        assert mode.decay_rate == np.sqrt(continuum_threshold(mode.alpha_bar, 0.05))
        assert mode.decay_rate > 1.0

    @pytest.mark.parametrize("n, gate", [(2, 5e-5), (3, 1.2e-3)])
    def test_eigenvector_decays_at_the_closed_form_rate(self, grid30, n, gate):
        # the exponential rate fitted to the tail of |Z| + |W| against
        # √τ_ᾱ; measured 2.6e-5 … 3.5e-5 (n = 2), 1.10e-3 … 1.19e-3 (n = 3)
        sectors = coupled_sectors(ground_state(n, 3, grid30), 3.0)
        for mu in (0.0, 0.05, 0.17, 0.5):
            mode = find_alpha_bar(sectors, mu)
            fitted = decay_rate_windowed(
                grid30.nodes, np.abs(mode.u_values) + np.abs(mode.v_values), n - 1)
            assert abs(fitted - mode.decay_rate) <= gate

    def test_slope_identity(self, U23, sectors23):
        # the closed form against finite differences of ARPACK eigenvalues
        mode = find_alpha_bar(sectors23, 0.05)
        numeric = eigenvalue_derivative(U23, 3.0, 0.05, mode.alpha_bar)
        assert abs(numeric - crossing_slope(mode)) < 1e-3

    @pytest.mark.parametrize("n", [2, 3])
    def test_slope_is_the_eigenvector_slope(self, grid30, n):
        # crossing_slope reads Q₃ off the unit eigenvector the crossing
        # converged: bitwise the Hellmann–Feynman slope its Newton steps with
        sectors = coupled_sectors(ground_state(n, 3, grid30), 3.0)
        for mu in (0.0, 0.05, 0.17):
            mode, (_, abar, phi, _) = spectrum._solve_crossing(sectors[0], mu)
            assert crossing_slope(mode) == spectrum._slopes(phi, abar, mu)[0]

    def test_bisection_guards_a_step_out_of_the_bracket(self, sectors23):
        # a start at ᾱ₀ = 2e-6 with dᾱ/dμ = 0: the slope there is about
        # 4e-6, so the first Newton step leaves the bracket, η is solved at
        # its upper end and the search bisects
        sector, mu = sectors23[0], 0.05
        start = (mu, 2e-6, sector.start()[0][1], 0.0)
        mode, _ = spectrum._solve_crossing(sector, mu, start)
        assert abs(mode.alpha_bar - find_alpha_bar(sectors23, mu).alpha_bar) \
            <= 2 * spectrum.CROSSING_TOL

    @pytest.mark.parametrize("n", [2, 3])
    def test_eigenvector_slopes_are_the_eigenvalue_derivatives(self, grid30, n):
        # Hellmann–Feynman on the unit eigenvector against a Richardson
        # central difference (h = 2e-3, 1e-3) of the lowest ℓ=0 eigenvalue
        # in α and in μ; measured <= 1e-9
        sector = spectrum._CoupledSector(ground_state(n, 3, grid30), 3.0, 0)
        phi = sector.start()[0][1]
        for alpha, mu in ((1.0, 0.17), (0.5, 1.0), (1.5, 0.5)):
            _, phi = spectrum._warm_pair(sector, alpha, mu, phi)

            def richardson(lam):
                d1, d2 = ((lam(h) - lam(-h)) / (2 * h) for h in (2e-3, 1e-3))
                return (4 * d2 - d1) / 3

            numeric = (
                richardson(lambda h: spectrum._warm_pair(sector, alpha + h, mu, phi)[0]),
                richardson(lambda h: spectrum._warm_pair(sector, alpha, mu + h, phi)[0]))
            exact = spectrum._slopes(phi, alpha, mu)
            assert np.max(np.abs(np.subtract(exact, numeric))) <= 1e-8

    def test_normalization(self, sectors23, grid30):
        mode = find_alpha_bar(sectors23, 0.05)
        r = grid30.nodes
        mass = 2.0 * np.trapezoid(mode.u_values**2 + mode.v_values**2, r)
        assert abs(mass - 1.0) < 1e-12

    @pytest.mark.parametrize("mu", [0.0, 0.15])
    def test_eta0_from_scalar_sector(self, U23, mu):
        # at α = 0 the coupling vanishes: the coupled ground eigenvalue is
        # the L_r ℓ=0 one for every μ, -3 for (d, p) = (1, 3)
        eta0 = sector_spectrum(Sector(U23, 3.0, "Lr", 0), 1)[0][0]
        coupled = coupled_spectrum(CoupledSectorOperator(0.0, mu, 0, 3.0), U23, 1)
        assert abs(coupled[0][0] - eta0) < 1e-12
        assert abs(eta0 + 3.0) < 1e-4

    @pytest.mark.parametrize("mu", [0.0, 0.05])
    def test_one_eigensolve_per_distinct_alpha(self, sectors23, monkeypatch, mu):
        calls = record_eigensolves(monkeypatch)
        mode = find_alpha_bar(sectors23, mu)
        kinds = [kind for kind, _, _ in calls]
        alphas = [a for _, a, _ in calls]
        eta0 = sectors23[0].floors[0]      # the search starts from the floor
        assert len(set(alphas)) == len(alphas)
        # Newton steps from √(-η₀), the first one from the exact α = 0
        # ground pair; no step leaves the bracket, so η at its upper end is
        # never solved
        assert alphas[0] == np.sqrt(-eta0)
        assert set(kinds) == {"warm"}
        assert all(1e-6 < a < np.sqrt(-2 * eta0) + 1.0 for a in alphas)
        assert alphas[-1] == mode.alpha_bar
        assert calls[-1][2] == mode.eta_residual
        if mu == 0.0:
            assert len(calls) == 1     # √(-η₀) is the crossing itself

    def test_no_sign_change_raises(self, sectors23, monkeypatch):
        # at μ = 3 the ground branch stays negative on the whole bracket: a
        # Newton step leaves it, η at the upper end is solved, and it is ≤ 0
        calls = record_eigensolves(monkeypatch)
        with pytest.raises(ConvergenceError, match="no sign change"):
            find_alpha_bar(sectors23, 3.0)
        eta0 = sectors23[0].floors[0]      # the bracket comes from the floor
        _, alpha, eta_hi = calls[-1]
        assert alpha == np.sqrt(-2 * eta0) + 1.0 and eta_hi <= 0
        assert all(eta <= 0 for _, _, eta in calls)


def record_eigensolves(monkeypatch):
    """Record (kind, α, eigenvalue) of every eigensolve, all of them 'warm':
    inverse iteration (the α = 0 starts solve nothing)."""
    calls = []
    warm_pair = spectrum._warm_pair

    def warm(sector, alpha, mu, phi, near=None):
        out = warm_pair(sector, alpha, mu, phi, near)
        calls.append(("warm", alpha, out[0]))
        return out

    monkeypatch.setattr(spectrum, "_warm_pair", warm)
    return calls


class TestImmutable:
    def test_branch_frozen(self, traced):
        br = traced["ground"]
        with pytest.raises(FrozenInstanceError):
            br.mu = 0.0
        for arr in (br.alphas, br.eigenvalues, *br.eigenfunctions[3]):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_crossing_mode_frozen(self, sectors23):
        mode = find_alpha_bar(sectors23, 0.05)
        with pytest.raises(FrozenInstanceError):
            mode.alpha_bar = 1.0
        for arr in (mode.u_values, mode.v_values):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestAlphaField:
    def test_zero_speed_uniform(self, sectors23, bump_potential, exps23):
        curve, pot, sf = circle_setup(bump_potential, 0.8, 96, 0.0, exps23)
        abar = np.array([m.alpha_bar for m in alpha_field(sf, sectors23)])
        assert np.ptp(abar) == 0.0
        assert abs(abar[0] - np.sqrt(3.0)) < 1e-3   # eta0 ≈ -3 at any k

    def test_constant_coefficients_constant(self, sectors23, exps23,
                                            bump_potential):
        curve, pot, sf = circle_setup(bump_potential, 0.8, 96, 0.05, exps23)
        abar = np.array([m.alpha_bar for m in alpha_field(sf, sectors23)])
        assert np.ptp(abar) < 1e-10

    def test_one_solve_per_distinct_mu(self, sectors23, bump_potential, exps23,
                                       monkeypatch):
        calls = []
        solve = spectrum._solve_crossing

        def counted(sector, mu, start=None):
            calls.append(mu)
            return solve(sector, mu, start)

        monkeypatch.setattr(spectrum, "_solve_crossing", counted)
        M = 256
        for a, b in ((0.85, 0.6), (1.0, 0.5)):
            curve = build_curve(CurveSpec("ellipse", n=2, a=a, b=b), M)
            sf = compute_scalings(curve, sample_potential(bump_potential, curve),
                                  0.05, exps23)
            calls.clear()
            crossing = alpha_field(sf, sectors23)
            mus = 2.0 * sf.fprime / sf.k
            tol = spectrum.MU_GROUP_TOL * max(1.0, np.max(np.abs(mus)))
            # the ellipse's symmetries s -> -s, s -> s + L/2 leave M/4 + 1
            # distinct values of μ, one solve each, in ascending order
            assert len(calls) == M // 4 + 1
            assert len({id(m) for m in crossing}) == len(calls)
            assert sorted(calls) == calls
            # every node within the tolerance of the μ of its group's solve
            for mu, mode in zip(mus, crossing):
                assert abs(mode.mu - mu) <= tol
            # neighbours in sorted μ from different groups are farther apart
            order = np.argsort(mus)
            for i, j in zip(order[:-1], order[1:]):
                if crossing[i] is not crossing[j]:
                    assert mus[j] - mus[i] > tol


    @pytest.mark.parametrize("a, b", [(0.85, 0.6), (1.0, 0.5)])
    def test_continuation_matches_cold_search(self, sectors23, bump_potential,
                                              exps23, monkeypatch, a, b):
        # every μ group against an independent find_alpha_bar from α = 0:
        # both are within CROSSING_TOL of the root, so within twice it of
        # each other
        curve = build_curve(CurveSpec("ellipse", n=2, a=a, b=b), 256)
        sf = compute_scalings(curve, sample_potential(bump_potential, curve),
                              0.05, exps23)
        calls = record_eigensolves(monkeypatch)
        crossing = alpha_field(sf, sectors23)
        groups = list({id(m): m for m in crossing}.values())
        # measured 123 (0.85:0.6) and 127 (2:1) eigensolves for 65 groups
        assert len(calls) <= 2 * len(groups)
        monkeypatch.undo()
        cold = {id(m): find_alpha_bar(sectors23, m.mu) for m in groups}
        assert max(abs(m.alpha_bar - cold[id(m)].alpha_bar) for m in groups) \
            <= 2 * spectrum.CROSSING_TOL
        for m in groups:
            assert np.max(np.abs(np.subtract(m.q, cold[id(m)].q))) < 1e-8


class TestPerturbationProfiles:
    def test_closed_forms_make_second_order_solvable(self, U23, exps23):
        # Fredholm: with c_th and c_sg the second-order sources of the
        # translation (L_r ℓ=1) and gauge (L_i ℓ=0) branches have no kernel
        # component: measured 8.8e-5 and 8.3e-11 at (ĥ, A) = (1.1, 0.1), and
        # 7.8e-2 and 6.1e-2 with c_th or c_sg off by ±1e-3
        h_hat, A, p = 1.1, 0.1, exps23.p
        c_th, c_sg = branch_curvature_closed_forms(h_hat, A, exps23)
        a = A**2 * h_hat ** (2 * exps23.sigma - p + 1.0)
        r, U = U23.grid.nodes, U23.values
        dU = U23.derivative(r)
        rhs_r = c_th * dU - 2.0 * dU - 4.0 * a * r * U
        rhs_i = c_sg * U - 2.0 * U - 8.0 * a * (U / (p - 1.0) + 0.5 * r * dU)
        _, removed_r = sector_solve(Sector(U23, p, "Lr", 1), rhs_r)
        _, removed_i = sector_solve(Sector(U23, p, "Li", 0), rhs_i)
        assert removed_r < 1e-4 and removed_i < 1e-4

    def test_branch_curvatures_match_closed_forms(self, U23, exps23):
        # finite-difference curvature of both zero branches at α = 0 against
        # the closed forms, at μ = 2A ĥ^σ / k̂
        h_hat = 1.0
        for A in (0.0, 0.1):
            mu = 2.0 * A * h_hat**exps23.sigma / h_hat ** ((exps23.p - 1) / 2)
            val_tr = eigenvalue_second_derivative(U23, 3.0, mu, 2e-3,
                                                  ell=1, index=0)
            val_gg = eigenvalue_second_derivative(U23, 3.0, mu, 2e-3,
                                                  ell=0, index=1)
            closed_tr, closed_gg = branch_curvature_closed_forms(h_hat, A, exps23)
            assert abs(val_tr - closed_tr) / abs(closed_tr) < 1e-2
            assert abs(val_gg - closed_gg) / abs(closed_gg) < 1e-2
