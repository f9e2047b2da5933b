"""Fast-mode resonance layer: eigenbasis, companions, Λ₀, gap scan."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh

from nlscurve.errors import ValidationError
from nlscurve.geometry import fourier_diff_matrices, periodic_derivative
from nlscurve.radial import Sector
from nlscurve.resonance import (CONSTANT_RTOL, FastModes, assemble_lambda0,
                                constant_coefficient_nu_oracle, correction_identities,
                                gap_scan, gap_scan_oracle, lambda0_spectrum,
                                resonance_eigenpairs, verify_coupled_system,
                                weyl_slope)
from nlscurve.spectrum import alpha_field, sphere_area

from conftest import RUNNER_CURVES, circle_setup, runner_setup
from oracles import constant_coefficient_gap_oracle


@pytest.fixture(scope="module")
def layer0(sectors23, bump_potential, exps23):
    """Resonance inputs on the critical circle at phase speed 0."""
    curve, pot, sf = circle_setup(bump_potential, 2 ** -0.5, 256, 0.0, exps23)
    fast = FastModes(sf, alpha_field(sf, sectors23))
    return {"curve": curve, "sf": sf, "abar": fast.abar, "fast": fast}


@pytest.fixture(scope="module")
def layerA(sectors23, bump_potential, exps23):
    """Same circle with phase speed 0.05 (nonzero coupling)."""
    curve, pot, sf = circle_setup(bump_potential, 0.701247, 256, 0.05, exps23)
    crossing = alpha_field(sf, sectors23)
    fast = FastModes(sf, crossing)
    return {"curve": curve, "sf": sf, "abar": fast.abar, "crossing": crossing,
            "fast": fast}


def rolled_by_one(layer):
    """``layer`` with k, f' and the crossing field rolled by one node: its
    coefficients are symmetric about node 1, not node 0, so FastModes takes
    the general path, and its spectrum is a permutation of the unrolled
    one's."""
    sf, crossing = layer["sf"], layer["crossing"]
    sf = replace(sf, k=np.roll(sf.k, 1), fprime=np.roll(sf.fprime, 1))
    crossing = crossing[-1:] + crossing[:-1]
    fast = FastModes(sf, crossing)
    return {"name": layer["name"] + "_rolled", "kind": layer["kind"], "sf": sf,
            "abar": fast.abar, "crossing": crossing, "fast": fast}


@pytest.fixture(scope="module")
def ellipse_layer(sectors23, bump_potential, exps23):
    return runner_setup("ellipse", sectors23, bump_potential, exps23)


@pytest.fixture(scope="module", params=[*RUNNER_CURVES, "ellipse_rolled"])
def runner_layer(request, sectors23, bump_potential, exps23):
    """Resonance inputs of the runner pipelines' curves (conftest), and the
    ellipse rolled by one node, which keeps the general path covered."""
    if request.param.startswith("ellipse"):
        layer = request.getfixturevalue("ellipse_layer")
        return layer if request.param == "ellipse" else rolled_by_one(layer)
    return runner_setup(request.param, sectors23, bump_potential, exps23)


class TestFourierCollocation:
    def test_derivative_matrices(self):
        M, L = 64, 5.0
        D1, D2 = fourier_diff_matrices(M, L)
        s = np.arange(M) * L / M
        f = np.sin(2 * np.pi * 3 * s / L)
        fp = (2 * np.pi * 3 / L) * np.cos(2 * np.pi * 3 * s / L)
        assert np.max(np.abs(D1 @ f - fp)) < 1e-10
        assert np.max(np.abs(D2 @ f + (2 * np.pi * 3 / L) ** 2 * f)) < 1e-9

    @pytest.mark.parametrize("M", [16, 17, 256])
    def test_circulant_construction(self, M):
        L = 5.0
        D1, D2 = fourier_diff_matrices(M, L)
        # reference: spectral derivatives of every cardinal function at once
        freqs = 2j * np.pi * np.fft.fftfreq(M, d=L / M)
        eye_hat = np.fft.fft(np.eye(M), axis=0)
        for k, D in ((1, D1), (2, D2)):
            ref = np.real(np.fft.ifft(freqs[:, None] ** k * eye_hat, axis=0))
            ref = 0.5 * (ref + (-1) ** k * ref.T)
            assert np.max(np.abs(D - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(D1, -D1.T)
        assert np.array_equal(D2, D2.T)
        # exact on trigonometric polynomials below the Nyquist mode
        s = np.arange(M) * L / M
        w = 2 * np.pi / L * np.arange(1, (M - 1) // 2 + 1)
        f = np.cos(np.outer(s, w)) @ (1.0 / w)
        cols = np.array([1.0, -2.0, 0.5])
        for order, D, exact in ((1, D1, -np.sin(np.outer(s, w)).sum(axis=1)),
                                (2, D2, -np.cos(np.outer(s, w)) @ w)):
            assert np.max(np.abs(D @ f - exact)) <= 1e-12 * np.max(np.abs(exact))
            # the FFT helper is the same operator, on (M,) and (M, 3) arrays
            assert np.max(np.abs(periodic_derivative(f, L, order) - exact)) \
                <= 1e-12 * np.max(np.abs(exact))
            exact3 = np.outer(exact, cols)
            assert np.max(np.abs(periodic_derivative(np.outer(f, cols), L, order)
                                 - exact3)) <= 1e-12 * np.max(np.abs(exact3))


class TestQIntegrals:
    def test_zero_speed(self, layer0):
        fast = layer0["fast"]
        assert np.max(np.abs(fast.q1 - 1.0)) < 1e-12
        assert np.max(np.abs(fast.q2)) < 1e-12
        assert np.max(np.abs(fast.q3)) < 1e-10

    def test_unit_mass(self, layerA):
        fast = layerA["fast"]
        assert np.max(np.abs(fast.q1 + fast.q2 - 1.0)) < 1e-8

    def test_one_integral_per_distinct_mode(self, runner_layer, U23):
        # alpha_field shares one CrossingMode among the nodes of a μ group;
        # the crossing solve forms each distinct mode's q once, as products
        # of its unit eigenvector, and FastModes only gathers ᾱ and Q
        crossing, fast = runner_layer["crossing"], runner_layer["fast"]
        assert len({id(m) for m in crossing}) < len(crossing)
        assert np.array_equal(fast.abar, [m.alpha_bar for m in crossing])
        assert all((fast.q1[i], fast.q2[i], fast.q3[i]) == m.q
                   for i, m in enumerate(crossing))
        # the basis refers back to the field whose Q built it, which the
        # ansatz's fast component reads (Z, W) from
        basis = resonance_eigenpairs(fast, 0.05, 0.3)
        assert fast.crossing is crossing and basis.modes.crossing is crossing
        # the cell-weight integrals of the mode's profiles, to round-off
        # (measured <= 8.9e-16 over every node of the three curves)
        omega, lr = sphere_area(1), Sector(U23, 3.0, "Lr", 0)
        for i in (0, 77, 255):
            Z, W = lr.to_phi(crossing[i].u_values), lr.to_phi(crossing[i].v_values)
            assert np.max(np.abs(np.subtract(
                (fast.q1[i], fast.q2[i], fast.q3[i]),
                (omega * Z @ Z, omega * W @ W, omega * Z @ W)))) <= 2e-15

    def test_cauchy_schwarz(self, layerA):
        fast = layerA["fast"]
        assert np.all(np.abs(fast.q3) <= np.sqrt(fast.q1 * fast.q2) + 1e-14)


class TestResonanceBasis:
    def test_constant_coefficient_exact(self, layer0):
        fast = layer0["fast"]
        basis = resonance_eigenpairs(fast, 0.05, 0.3)
        oracle = constant_coefficient_nu_oracle(fast, 0.05, 0.3)
        assert np.max(np.abs(basis.nu - oracle)) < 1e-8

    def test_companions_at_zero_crossing(self, layer0):
        # at a ν = 0 crossing the companion is exactly -εξ'/(kᾱ)
        sf, abar, fast = (layer0[key] for key in ("sf", "abar", "fast"))
        basis = resonance_eigenpairs(fast, 0.05, 0.3)
        D1, _ = fourier_diff_matrices(sf.s.size, sf.L)
        for a, nu in enumerate(basis.nu):
            expect = -(0.05 / (sf.k * abar)) * (1.0 - fast.q1 * nu
                      / (sf.k**2 * abar**2)) * (D1 @ basis.xi[a])
            assert np.max(np.abs(basis.beta[a] - expect)) < 1e-10

    def test_weight_normalization(self, layerA):
        sf, fast = layerA["sf"], layerA["fast"]
        basis = resonance_eigenpairs(fast, 0.05, 0.5)
        assert basis.modes is fast
        ds = sf.L / sf.s.size
        G = (basis.xi / fast.wfun) @ basis.xi.T * ds
        assert np.max(np.abs(G - np.eye(basis.nu.size))) < 1e-10

    def test_weyl_slope_stability(self, layerA):
        sf, abar, fast = layerA["sf"], layerA["abar"], layerA["fast"]
        c1 = weyl_slope(resonance_eigenpairs(fast, 0.05, 0.5)) / 0.05
        c2 = weyl_slope(resonance_eigenpairs(fast, 0.025, 0.5)) / 0.025
        assert abs(c1 - c2) / abs(c1) < 0.10
        # constant coefficients: consecutive j step through sin/cos pairs, so
        # the slope is (2π k ᾱ / L)·(weight) per unit j
        expect = 2 * np.pi * sf.k[0] * abar[0] / sf.L
        assert abs(c1 - expect) / expect < 0.10

    def test_window_leaves_grid(self, layer0):
        with pytest.raises(ValidationError):
            resonance_eigenpairs(layer0["fast"], 1e-4, 0.9)


class TestWindowedEigensolve:
    def test_basis_only_for_constant_coefficients(self, runner_layer):
        # both circles keep the pencil's eigenvectors in their one block, the
        # A = 0.0537 one although kᾱ is not bitwise constant; no ellipse
        # block keeps any
        modes = runner_layer["fast"]
        if runner_layer["kind"] == "ellipse":
            assert all(block.vectors is None for block in modes.blocks)
            return
        M = modes.sf.s.size
        (block,) = modes.blocks
        assert block.vectors.shape == (M, M)
        assert np.max(np.abs(block.vectors.T @ block.vectors - np.eye(M))) < 1e-12
        assert np.ptp(modes.ka) <= CONSTANT_RTOL * np.max(modes.ka)
        if runner_layer["name"] == "circle_A0.0537":
            assert np.ptp(modes.ka) > 0

    def test_pencil_count_is_the_inertia(self, runner_layer):
        # j_ε from the ε-free pencil against the negative eigenvalues of the
        # matrix C(ε) itself, across the gap grid of the README run file
        modes = runner_layer["fast"]
        for eps in np.linspace(0.08, 0.02, 100):
            assert modes.count(eps) == np.sum(np.linalg.eigvalsh(modes.matrix(eps)) < 0)

    def test_window_derivative_is_the_fft(self, runner_layer):
        # Λ₀ reads ξ' from the window, which computed it for β: the same
        # bits as the FFT of ξ, so Λ₀ and the mass matrix are unchanged
        modes = runner_layer["fast"]
        for eps in (0.08, 0.05, 0.02):
            basis = resonance_eigenpairs(modes, eps, 0.3)
            fft = periodic_derivative(basis.xi.T, modes.sf.L).T
            assert np.array_equal(basis.dxi, fft)
            for got, ref in zip(assemble_lambda0(basis),
                                assemble_lambda0(replace(basis, dxi=fft))):
                assert np.array_equal(got, ref)

    def test_pencil_spectrum_on_the_circle(self, layerA):
        # constant coefficients: θ = (2πm/(L·kᾱ))², once for m = 0 and
        # M/2, twice for every other m, whatever the weight
        sf, abar, modes = layerA["sf"], layerA["abar"], layerA["fast"]
        M, L, ka = sf.s.size, sf.L, sf.k[0] * abar[0]
        m = np.concatenate([[0], np.repeat(np.arange(1, M // 2), 2), [M // 2]])
        theta = np.sort((2 * np.pi * m / (L * ka)) ** 2)
        assert np.all(np.abs(modes.theta - theta) <= 1e-10 * np.maximum(theta, 1.0))
        # the oracle's index counts the ν(m) < 0 with their multiplicity
        m = np.arange(1, M // 2)
        for eps in np.linspace(0.08, 0.02, 100):
            assert modes.count(eps) == 1 + 2 * np.sum(2 * np.pi * m * eps / L < ka)

    def test_matches_full_generalized_eigensolve(self, runner_layer):
        # oracle: every eigenpair of the generalized problem A·x = ν·B·x,
        # B = diag(1/wfun), across the gap grid of the README run file
        sf, abar, fast = (runner_layer[key] for key in ("sf", "abar", "fast"))
        M, L, delta = sf.s.size, sf.L, 0.3
        ka = sf.k * abar
        wfun = 1.0 + 2.0 * sf.fprime * fast.q3 / ka
        D2 = fourier_diff_matrices(M, L)[1]
        for eps in np.linspace(0.08, 0.02, 100):
            vals, vecs = eigh(-eps**2 * D2 - np.diag(ka**2), np.diag(1.0 / wfun))
            basis = resonance_eigenpairs(fast, eps, delta)
            assert basis.j_eps == np.searchsorted(vals, 0.0)
            J = (basis.nu.size - 1) // 2
            window = slice(basis.j_eps - J, basis.j_eps + J + 1)
            nu = vals[window]
            assert np.max(np.abs(basis.nu - nu)) <= 1e-12 * np.max(np.abs(nu))
            # the same basis from the full solve's vectors
            xi = vecs[:, window].T / np.sqrt(L / M)
            dxi = periodic_derivative(xi.T, L).T
            beta = -(1.0 / ka) * (1.0 - fast.q1 * nu[:, None]
                                  / (ka**2 + 2.0 * sf.fprime * ka * fast.q3)) \
                * eps * dxi
            ref = lambda0_spectrum(replace(basis, nu=nu, xi=xi, dxi=dxi,
                                           beta=beta))
            got = lambda0_spectrum(basis)
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


class TestMirrorSymmetry:
    """The parity blocks of a curve symmetric about node 0 (an ellipse)."""

    def test_parity_path_is_the_rolled_general_path(self, ellipse_layer):
        # oracle: the dense window of the same fields rolled by one node,
        # across the gap grid of the README run file (measured: ν within
        # 2.2e-13 of the window's max |ν|, Λ₀ within 9.5e-13 of its max)
        mirror, general = ellipse_layer["fast"], rolled_by_one(ellipse_layer)["fast"]
        assert (mirror.coefficients, general.coefficients) == ("mirror", "general")
        grid = np.linspace(0.08, 0.02, 100)
        for eps in grid:
            a, b = (resonance_eigenpairs(m, eps, 0.3) for m in (mirror, general))
            assert a.j_eps == b.j_eps
            assert np.max(np.abs(a.nu - b.nu)) <= 1e-12 * np.max(np.abs(b.nu))
            got, ref = lambda0_spectrum(a), lambda0_spectrum(b)
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
        scans = [gap_scan(modes, grid, 0.3, 0.1) for modes in (mirror, general)]
        assert [r["admissible"] for r in scans[0]] == [r["admissible"] for r in scans[1]]
        for modes in (mirror, general):
            with pytest.raises(ValidationError, match="leaves the grid"):
                resonance_eigenpairs(modes, 1e-4, 0.9)

    @pytest.mark.parametrize("M, sine", [(63, 0.0), (64, 0.0), (63, 0.02), (64, 0.02)],
                             ids=["63", "64", "63_sine", "64_sine"])
    def test_parity_blocks_of_made_up_fields(self, M, sine, ellipse_layer):
        # even and odd M: k, f' and ᾱ made of cosines, even about node 0 to
        # rounding, against the dense C(ε); the last ε puts all but one ν
        # below zero, so one block is wholly negative and J = 0.  A sine
        # term in k leaves no symmetry: one block, C(ε) whole
        sf, mode = ellipse_layer["sf"], ellipse_layer["crossing"][0]
        t = 2 * np.pi * np.arange(M) / M
        sf = replace(sf, s=t * sf.L / (2 * np.pi),
                     k=1.0 + 0.3 * np.cos(t) + sine * np.sin(2 * t),
                     fprime=0.05 * (1.0 + 0.2 * np.cos(2 * t)))
        crossing = [replace(mode, alpha_bar=mode.alpha_bar * (1.0 + 0.05 * c))
                    for c in np.cos(3 * t)]
        modes = FastModes(sf, crossing)
        if sine:
            assert modes.coefficients == "general"
            assert [block.theta.size for block in modes.blocks] == [M]
        else:
            assert modes.coefficients == "mirror"
            assert [block.theta.size for block in modes.blocks] \
                == [M // 2 + 1, (M + 1) // 2 - 1]
        assert all(block.vectors is None for block in modes.blocks)
        mirror = -np.arange(M) % M
        top = 1.0 / np.sqrt(modes.theta[-1]) * (1.0 + 1e-9)
        for eps, delta in [(0.3, 0.5), (0.2, 0.6), (0.1, 0.3), (top, 0.1)]:
            C = modes.matrix(eps)
            vals = np.linalg.eigvalsh(C)
            basis = resonance_eigenpairs(modes, eps, delta)
            j, J = basis.j_eps, (basis.nu.size - 1) // 2
            assert j == np.sum(vals < 0) and j - J >= 0
            assert np.max(np.abs(basis.nu - vals[j - J: j + J + 1])) \
                <= 1e-12 * np.max(np.abs(vals))
            y = basis.xi.T / modes.sw[:, None] * np.sqrt(sf.L / M)
            assert np.max(np.abs(y.T @ y - np.eye(2 * J + 1))) <= 1e-13
            assert np.max(np.abs(C @ y - y * basis.nu)) <= 1e-12 * np.max(np.abs(vals))
            for xi in basis.xi:
                parity = min(np.max(np.abs(xi - xi[mirror])),
                             np.max(np.abs(xi + xi[mirror])))
                assert (parity > 0) if sine else (parity == 0.0)

    def test_cut_pair_is_the_parity_vector(self, ellipse_layer):
        # at ε = 0.05, δ = 0.3 the window keeps one of the pair at ν = −0.1269
        # (split by 2e-9 relative): a dense solve returns a rotation of the
        # pair that round-off decides, and these scalings of ᾱ move its
        # residual by up to 5.0e-8; the even or odd vector's by 5.6e-11
        sf, crossing = ellipse_layer["sf"], ellipse_layer["crossing"]
        basis = resonance_eigenpairs(ellipse_layer["fast"], 0.05, 0.3)
        ref_max, ref = verify_coupled_system(basis)
        for scale in (1 - 3e-12, 1 - 1e-12, 1 + 1e-12, 1 + 3e-12):
            modes = FastModes(sf, [replace(m, alpha_bar=m.alpha_bar * scale)
                                   for m in crossing])
            got_max, got = verify_coupled_system(resonance_eigenpairs(modes, 0.05, 0.3))
            assert abs(got_max - ref_max) <= 1e-9 * ref_max
            assert np.all(np.abs(got - ref) <= 1e-9 * ref)
        mirror = -np.arange(sf.s.size) % sf.s.size
        for xi in basis.xi:
            assert min(np.max(np.abs(xi - xi[mirror])),
                       np.max(np.abs(xi + xi[mirror]))) <= 1e-12 * np.max(np.abs(xi))


class TestCoupledSystem:
    def test_decoupled_exact(self, layer0):
        basis = resonance_eigenpairs(layer0["fast"], 0.05, 0.3)
        maxres, _ = verify_coupled_system(basis)
        assert maxres < 1e-10

    def test_order_eps_bound(self, layerA):
        fast = layerA["fast"]
        consts = []
        for eps in (0.05, 0.025):
            basis = resonance_eigenpairs(fast, eps, 0.3)
            maxres, per_j = verify_coupled_system(basis)
            consts.append(maxres / (np.max(basis.nu**2) + eps))
        assert consts[0] < 20.0 and consts[1] < 20.0
        # stability of the reported constant under refinement in eps
        assert 0.2 < consts[0] / consts[1] < 5.0

    def test_grid_refinement_stability(self, sectors23, bump_potential, exps23):
        vals = []
        for M in (256, 512):
            curve, pot, sf = circle_setup(bump_potential, 0.701247, M, 0.05,
                                          exps23)
            fast = FastModes(sf, alpha_field(sf, sectors23))
            basis = resonance_eigenpairs(fast, 0.05, 0.3)
            maxres, _ = verify_coupled_system(basis)
            vals.append(maxres)
        assert abs(vals[0] - vals[1]) / vals[0] < 0.1

    def test_residual_is_rotation_invariant(self, sectors23, bump_potential,
                                            exps23):
        # the README circle's window holds one degenerate ν pair (rows 1, 2),
        # whose eigenvectors eigh fixes only up to a rotation.  A quarter
        # turn permutes the pair exactly and must leave every value as it
        # is; a generic turn leaves them within the round-off that the FFT
        # second derivative amplifies (measured ≤ 3.4e-13; per-j sup norms
        # without the cluster norm moved by up to 7.2e-5)
        fast = runner_setup("circle", sectors23, bump_potential, exps23)["fast"]
        basis = resonance_eigenpairs(fast, 0.05, 0.3)
        assert abs(basis.nu[1] - basis.nu[2]) < 1e-12 * abs(basis.nu[1])
        maxres, ref = verify_coupled_system(basis)
        for (c, s), gate in (((0.0, 1.0), 1e-14), ((np.cos(0.3), np.sin(0.3)), 1e-11),
                             ((np.cos(2.0), np.sin(2.0)), 1e-11)):
            def turn(rows):
                rows = rows.copy()
                rows[1:3] = np.array([[c, -s], [s, c]]) @ rows[1:3]
                return rows

            turned = replace(basis, xi=turn(basis.xi), dxi=turn(basis.dxi),
                             beta=turn(basis.beta))
            got_max, got = verify_coupled_system(turned)
            assert np.all(np.abs(got - ref) <= gate * ref)
            assert abs(got_max - maxres) <= gate * maxres

    def test_correction_identities(self, layerA, layer0):
        # both residuals are O(ν_j²); at A = 0.05 the κ-relation constant
        # carries the 1/Q₂ amplification of the exact-cancellation
        # definition.  At A = 0 Q₂ is 0 and κ takes its stable form
        # (measured: r1/ν² ≤ 0.334, r2/ν² ≤ 0.205)
        for fast, amplification in ((layerA["fast"], np.min(layerA["fast"].q2)),
                                    (layer0["fast"], 1.0)):
            basis = resonance_eigenpairs(fast, 0.05, 0.5)
            r1, r2 = correction_identities(basis)
            scale = basis.nu**2 + 1e-12
            assert np.all(r1 / scale < 10.0)
            assert np.all(r2 / scale * amplification < 10.0)
            # the ratio is flat in j: genuinely quadratic in ν, not lower order
            ratios = r2 / scale
            assert np.ptp(ratios) / np.mean(ratios) < 0.05


class TestLambda0:
    def test_diagonal_constant_coefficients(self, layer0):
        fast = layer0["fast"]
        eps = 0.05
        basis = resonance_eigenpairs(fast, eps, 0.3)
        lam, mass, asym = assemble_lambda0(basis)
        assert asym < 1e-10
        # Fourier closed form: Λ/mass reproduces ν exactly here
        off = lam - np.diag(np.diag(lam))
        assert np.max(np.abs(off)) < 1e-8 * np.max(np.abs(lam))
        vals = lambda0_spectrum(basis)
        assert np.max(np.abs(np.sort(vals) - np.sort(basis.nu))) < 1e-8

    def test_spectrum_matches_nu_with_coupling(self, layerA):
        fast = layerA["fast"]
        eps = 0.05
        basis = resonance_eigenpairs(fast, eps, 0.5)
        vals = lambda0_spectrum(basis)
        diff = np.max(np.abs(np.sort(vals) - np.sort(basis.nu)))
        bound = np.max(basis.nu**2) + eps
        assert diff < bound

    def test_symmetry(self, layerA):
        basis = resonance_eigenpairs(layerA["fast"], 0.05, 0.5)
        lam, mass, asym = assemble_lambda0(basis)
        assert np.max(np.abs(lam - lam.T)) < 1e-10
        assert np.max(np.abs(mass - mass.T)) < 1e-10


class TestGapScan:
    def test_matches_arithmetic_oracle(self, layer0):
        sf, abar, fast = layer0["sf"], layer0["abar"], layer0["fast"]
        grid = np.linspace(0.08, 0.02, 100)
        recs = gap_scan(fast, grid, 0.3, 0.1)
        oracle = gap_scan_oracle(fast, grid, 0.3, 0.1)
        assert all(r["admissible"] == o["admissible"]
                   for r, o in zip(recs, oracle))
        # fully independent integer-arithmetic oracle
        flags = constant_coefficient_gap_oracle(
            sf.k[0], abar[0], sf.L, sf.s.size, 1.0, grid, 0.3, 0.1)
        assert all(r["admissible"] == f for r, f in zip(recs, flags))

    @pytest.mark.parametrize("M", [255, 256])
    def test_nu_oracle_equals_loop(self, M):
        # the vectorized oracle against the per-mode loop it replaced, bitwise
        # (a FastModes that found constant coefficients)
        from types import SimpleNamespace as NS
        L, k, fp, ab, q3 = 4.4, 0.8, 0.1, 1.7, 0.2
        ka, wfun = k * ab, 1.0 + 2.0 * fp * q3 / (k * ab)
        fast = NS(sf=NS(s=np.arange(M) * L / M, L=L), ka=np.full(M, ka),
                  wfun=np.full(M, wfun), coefficients="constant")
        for eps in np.linspace(0.08, 0.02, 7):
            vals = []
            for m in range(0, M // 2 + 1):
                nu = (eps**2 * (2 * np.pi * m / L) ** 2 - ka**2) * wfun
                vals += [nu, nu] if 0 < m < M / 2 else [nu]
            vals = np.sort(np.array(vals))
            j, J = int(np.searchsorted(vals, 0.0)), int(np.floor(0.3**2 / eps))
            window = constant_coefficient_nu_oracle(fast, eps)
            assert np.array_equal(window, vals[j - J: j + J + 1])

    def test_nu_oracle_reads_the_fast_modes_decision(self, runner_layer):
        # the oracle refuses the ellipse's FastModes (not constant) and takes
        # both circles, the A = 0.0537 one too, whose kᾱ is not bitwise
        # constant; there it is the window's ν (measured to 2.3e-13)
        fast = runner_layer["fast"]
        if runner_layer["kind"] == "ellipse":
            with pytest.raises(ValidationError, match="constant coefficients"):
                constant_coefficient_nu_oracle(fast, 0.05)
            return
        for eps in np.linspace(0.08, 0.02, 7):
            oracle = constant_coefficient_nu_oracle(fast, eps)
            nu = resonance_eigenpairs(fast, eps, 0.3).nu
            assert np.max(np.abs(oracle - nu)) <= 1e-12 * np.max(np.abs(nu))

    def test_threshold_zero_admits_nonresonant(self, layer0):
        fast = layer0["fast"]
        grid = np.linspace(0.08, 0.02, 40)
        recs = gap_scan(fast, grid, 0.3, 0.0)
        assert all(r["admissible"] for r in recs)

    def test_admissible_fraction(self, layer0):
        sf, abar, fast = layer0["sf"], layer0["abar"], layer0["fast"]
        grid = np.linspace(0.08, 0.02, 100)
        thr = 0.1 * sf.k[0] * abar[0] * (2 * np.pi / sf.L)
        recs = gap_scan(fast, grid, 0.3, thr)
        frac = np.mean([r["admissible"] for r in recs])
        assert frac >= 0.5

    def test_one_matrix_per_scan(self, layerA, monkeypatch):
        # D2 is built once per scan, each ε builds its basis in one
        # resonance_eigenpairs call, and every point equals a standalone
        # resonance_eigenpairs call bitwise
        import nlscurve.resonance as resonance
        sf, crossing = layerA["sf"], layerA["crossing"]
        grid = np.linspace(0.08, 0.02, 7)
        sizes, bases = [], []
        real, real_basis = resonance.fourier_diff_matrices, resonance.resonance_eigenpairs

        def counted(M, L):
            sizes.append(M)
            return real(M, L)

        def counted_basis(modes, eps, delta=0.3):
            bases.append(eps)
            return real_basis(modes, eps, delta)

        monkeypatch.setattr(resonance, "fourier_diff_matrices", counted)
        monkeypatch.setattr(resonance, "resonance_eigenpairs", counted_basis)
        recs = gap_scan(FastModes(sf, crossing), grid, 0.3, 0.1)
        assert sizes == [sf.s.size]
        assert bases == list(grid)
        for rec, eps in zip(recs, grid):
            basis = resonance_eigenpairs(layerA["fast"], eps, 0.3)
            assert rec["min_abs_eigenvalue"] == float(
                np.min(np.abs(lambda0_spectrum(basis))))

    def test_one_pencil_solve_per_scan(self, runner_layer, monkeypatch):
        # the ε-free pencil is solved once per block, and no factorization
        # counts the negative eigenvalues per ε; with constant coefficients
        # the pencil's eigenvectors are every window's, so no ε solves one;
        # a mirror-symmetric curve solves an even and an odd block, each
        # for its pencil once and for its part of every window; otherwise
        # each ε solves only its window of the whole matrix
        import nlscurve.resonance as resonance
        sf, crossing = runner_layer["sf"], runner_layer["crossing"]
        grid = np.linspace(0.08, 0.02, 7)
        calls = []
        real = resonance.eigh

        def counted(a, b=None, **kwargs):
            out = real(a, b, **kwargs)
            calls.append("lambda0" if b is not None else
                         "window" if "subset_by_index" in kwargs else
                         "pencil+vectors" if isinstance(out, tuple) else "pencil")
            return out

        monkeypatch.setattr(resonance, "eigh", counted)
        modes = FastModes(sf, crossing)
        gap_scan(modes, grid, 0.3, 0.1)
        coefficients = {"circle": "constant", "circle_A0.0537": "constant",
                        "ellipse": "mirror", "ellipse_rolled": "general"}
        assert modes.coefficients == coefficients[runner_layer["name"]]
        pencils, windows = {"constant": (["pencil+vectors"], 0),
                            "mirror": (["pencil"] * 2, 2 * grid.size),
                            "general": (["pencil"], grid.size)}[modes.coefficients]
        assert calls[:len(pencils)] == pencils
        assert calls.count("window") == windows
        assert calls.count("lambda0") == grid.size
        assert len(calls) == len(pencils) + windows + grid.size
        assert not hasattr(resonance, "dsytrf")

    def test_descending_grid_required(self, layer0):
        with pytest.raises(ValidationError):
            gap_scan(layer0["fast"], np.array([0.02, 0.08]), 0.3, 0.1)
