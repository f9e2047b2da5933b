"""Acceptance gate: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Tolerances are pinned here, not calibrated elsewhere.
"""

import time

import numpy as np
import pytest

from nlscurve.ansatz import (VARSIGMA, AnsatzParams, assemble_ansatz,
                             build_correctors, cutoff_negligibility_study,
                             residual_field, residual_study)
from nlscurve.errors import ConvergenceError
from nlscurve.geometry import CurveSpec, PotentialField, build_curve, sample_potential
from nlscurve.radial import Sector, ode_residual, sector_spectrum
from nlscurve.resonance import (FastModes, gap_scan, gap_scan_oracle, lambda0_spectrum,
                                resonance_eigenpairs, verify_coupled_system,
                                constant_coefficient_nu_oracle)
from nlscurve.scalings import (assemble_jacobi, critical_circle_radius,
                               euler_residual, weighted_eigenbasis)
from nlscurve.spectrum import (alpha_field, branch_curvature_closed_forms,
                               crossing_slope, find_alpha_bar)
from nlscurve.tube import build_tube_grid, weighted_norm

from conftest import circle_setup
from oracles import (CoupledSectorOperator, core_window, coupled_spectrum,
                     eigenvalue_derivative, eigenvalue_second_derivative,
                     fourier_symbol_jacobi_circle,
                     reduced_length_stationary_radius)


def _report(num, label, checks, t0, budget):
    elapsed = time.time() - t0
    ok = all(v for _, v in checks) and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} — {label} "
          f"({elapsed:.1f}s / budget {budget}s)", flush=True)
    for name, v in checks:
        if not v:
            print(f"    failed: {name}", flush=True)
    assert ok, f"criterion {num} ({label}): " \
               f"{[name for name, v in checks if not v]} elapsed={elapsed:.1f}s"


def test_criterion_1_ground_state(U23):
    t0 = time.time()
    checks = [
        ("U(0) = sqrt(2) within 1e-4", abs(U23.values[0] - np.sqrt(2)) < 1e-4),
        ("discrete ODE residual < 1e-8", ode_residual(U23, 3) < 1e-8),
        ("decay rate 1 within 2%", abs(U23.decay_rate - 1.0) < 0.02),
    ]
    _report(1, "ground state (n=2, p=3)", checks, t0, 5.0)


def test_criterion_2_kernel_structure(U23, grid30):
    t0 = time.time()
    r = grid30.nodes
    lam_i, ei = sector_spectrum(Sector(U23, 3.0, "Li", 0), 1)[0]
    lam_r, er = sector_spectrum(Sector(U23, 3.0, "Lr", 1), 1)[0]
    dU = np.abs(U23.derivative(r))
    ov_i = abs(np.trapezoid(ei.values * U23.values, r)) / np.sqrt(
        np.trapezoid(ei.values**2, r) * np.trapezoid(U23.values**2, r))
    ov_r = abs(np.trapezoid(er.values * dU, r)) / np.sqrt(
        np.trapezoid(er.values**2, r) * np.trapezoid(dU**2, r))
    checks = [
        ("|lowest eig of L_i sector 0| < 1e-4", abs(lam_i) < 1e-4),
        ("|lowest eig of L_r sector 1| < 1e-4", abs(lam_r) < 1e-4),
        ("gauge kernel overlap > 0.999", ov_i > 0.999),
        ("translation kernel overlap > 0.999", ov_r > 0.999),
    ]
    _report(2, "kernel structure", checks, t0, 10.0)


def test_criterion_3_poschl_teller(U23, sectors23):
    t0 = time.time()
    lam_sector = sector_spectrum(Sector(U23, 3.0, "Lr", 0), 1)[0][0]
    eta0 = coupled_spectrum(CoupledSectorOperator(0.0, 0.0, 0, 3.0), U23, 1)[0][0]
    mode = find_alpha_bar(sectors23, 0.0)
    checks = [
        ("lowest L_r eigenvalue = -3 within 1e-3", abs(lam_sector + 3.0) < 1e-3),
        ("coupled eta_0 matches the sector value", abs(eta0 - lam_sector) < 1e-8),
        ("alpha_bar(mu=0) = sqrt(3) within 1e-4",
         abs(mode.alpha_bar - np.sqrt(3.0)) < 1e-4),
    ]
    _report(3, "Poschl-Teller oracle", checks, t0, 10.0)


def test_criterion_4_branch_calculus(U23, sectors23, exps23):
    t0 = time.time()
    mu = 0.05
    d0 = eigenvalue_derivative(U23, 3.0, mu, 0.0)
    mode = find_alpha_bar(sectors23, mu)
    numeric = eigenvalue_derivative(U23, 3.0, mu, mode.alpha_bar)
    closed = crossing_slope(mode)
    # both curvature branches at the matching model scaling (h_hat = 1)
    A = mu / 2.0
    ct, cg = branch_curvature_closed_forms(1.0, A, exps23)
    vt = eigenvalue_second_derivative(U23, 3.0, mu, 2e-3, ell=1, index=0)
    vg = eigenvalue_second_derivative(U23, 3.0, mu, 2e-3, ell=0, index=1)
    checks = [
        ("d eta/d alpha at 0 = 0 within 1e-3", abs(d0) < 1e-3),
        ("slope at crossing matches 2a+2mu∫ZW within 1e-3",
         abs(numeric - closed) < 1e-3),
        ("translation-branch curvature within 1e-2 relative",
         abs(vt - ct) / abs(ct) < 1e-2),
        ("gauge-branch curvature within 1e-2 relative",
         abs(vg - cg) / abs(cg) < 1e-2),
    ]
    _report(4, "branch calculus at mu=0.05", checks, t0, 60.0)


def test_criterion_5_criticality(bump_potential, exps23):
    # The stated fixture potential 1 + r² admits no critical circle (a
    # positive-increasing radial potential makes R·V^{θ/(p-1)} monotone);
    # the criterion runs on the decreasing counterpart 1/(1+r²) and the
    # defect of the literal potential is asserted as rejected input below.
    t0 = time.time()
    V = bump_potential

    def builder(R):
        c = build_curve(CurveSpec("circle", n=2, radius=R), 128)
        return c, sample_potential(V, c)

    rstar = critical_circle_radius(builder, (0.4, 1.2), 0.0, exps23)
    oracle = reduced_length_stationary_radius(
        lambda R: 1.0 / (1.0 + R**2), exps23.theta / (exps23.p - 1), (0.4, 1.2))
    curve, pot, sf = circle_setup(V, rstar, 256, 0.0, exps23)
    _, sup = euler_residual(curve, pot, sf, exps23)
    matrix, weight = assemble_jacobi(curve, pot, sf, exps23)
    vals, vecs, verdict = weighted_eigenbasis(matrix, weight, 12, 1,
                                              ds=curve.L / curve.M)
    symbol = fourier_symbol_jacobi_circle(
        sf.h[0], pot.hess_normal[0, 0, 0], curve.curvature[0, 0],
        exps23.theta, exps23.sigma, exps23.p, 0.0, curve.L, curve.M)

    grower = PotentialField("1 + r2", 2)

    def builder_grower(R):
        c = build_curve(CurveSpec("circle", n=2, radius=R), 128)
        return c, sample_potential(grower, c)

    try:
        critical_circle_radius(builder_grower, (0.2, 3.0), 0.0, exps23)
        literal_rejected = False
    except ConvergenceError:
        literal_rejected = True

    checks = [
        ("euler zero matches golden-section oracle to 1e-6",
         abs(rstar - oracle) < 1e-6),
        ("euler residual sup < 1e-8 at r*", sup < 1e-8),
        ("second variation bitwise symmetric",
         bool(np.array_equal(matrix, matrix.T))),
        ("all eigenvalues real", bool(np.all(np.isreal(vals)))),
        ("continuum-symbol eigenvalues matched to 1e-10",
         float(np.max(np.abs(vals - symbol[:12]))) < 1e-10),
        ("literal 1+r2 potential admits no critical circle", literal_rejected),
    ]
    _report(5, "criticality dual route", checks, t0, 30.0)


@pytest.fixture(scope="module")
def resonance_inputs(sectors23, bump_potential, exps23):
    out = {}
    for A in (0.0, 0.05):
        def builder(R):
            c = build_curve(CurveSpec("circle", n=2, radius=R), 128)
            return c, sample_potential(bump_potential, c)
        rs = critical_circle_radius(builder, (0.4, 1.2), A, exps23)
        curve, pot, sf = circle_setup(bump_potential, rs, 256, A, exps23)
        fast = FastModes(sf, alpha_field(sf, sectors23))
        out[A] = {"curve": curve, "pot": pot, "sf": sf, "abar": fast.abar,
                  "fast": fast, "rstar": rs}
    return out


def test_criterion_6_resonance_layer(resonance_inputs):
    t0 = time.time()
    checks = []
    for A, data in resonance_inputs.items():
        sf, fast = data["sf"], data["fast"]
        eps = 0.05
        basis = resonance_eigenpairs(fast, eps, 0.3)
        if A == 0.0:
            # stated closed form has unit weight only at zero speed
            j0 = basis.j_eps
            M, L = sf.s.size, sf.L
            oracle = constant_coefficient_nu_oracle(fast, eps, 0.3)
            checks.append(("nu matches (2πεj/L)² - k²ᾱ² to 1e-8",
                           float(np.max(np.abs(basis.nu - oracle))) < 1e-8))
        maxres, _ = verify_coupled_system(basis)
        C = maxres / eps
        print(f"    coupled-system residual at A={A}: {maxres:.3e} "
              f"(C = residual/eps = {C:.3f})", flush=True)
        checks.append((f"coupled system residual <= C*eps at A={A}", C < 20.0))
        vals = lambda0_spectrum(basis)
        diff = float(np.max(np.abs(np.sort(vals) - np.sort(basis.nu))))
        bound = float(np.max(basis.nu**2) + eps)
        checks.append((f"Lambda0 spectrum matches nu to O(nu²+eps) at A={A}",
                       diff < bound))
    _report(6, "resonance layer", checks, t0, 120.0)


def test_criterion_7_gap_scan(resonance_inputs):
    t0 = time.time()
    data = resonance_inputs[0.0]
    grid = np.linspace(0.08, 0.02, 100)
    recs = gap_scan(data["fast"], grid, 0.3, 0.1)
    oracle = gap_scan_oracle(data["fast"], grid, 0.3, 0.1)
    agree = all(r["admissible"] == o["admissible"]
                for r, o in zip(recs, oracle))
    n_adm = sum(r["admissible"] for r in recs)
    print(f"    admissible: {n_adm}/100", flush=True)
    checks = [("admissible set equals the arithmetic oracle on 100 points",
               agree)]
    _report(7, "gap scan", checks, t0, 120.0)


def test_criterion_8_residual_orders(U23, bump_potential, exps23,
                                     resonance_inputs):
    t0 = time.time()
    checks = []
    for A in (0.0, 0.05):
        rstar = resonance_inputs[A]["rstar"]
        curve_for = lambda M: build_curve(
            CurveSpec("circle", n=2, radius=rstar), M)
        records, fits = residual_study(curve_for, bump_potential, A, exps23,
                                       U23, [0.2, 0.1, 0.05], base_M=256)
        for r in records:
            print(f"    A={A} eps={r['eps']} level={r['level']}: "
                  f"norm={r['norm']:.4e}", flush=True)
        print(f"    A={A} slopes: " + ", ".join(
            f"level {lv}: {fits[lv]['slope']:.2f}" for lv in (0, 1, 2)),
            flush=True)
        checks.append((f"level-0 slope >= 0.9 at A={A}",
                       fits[0]["slope"] >= 0.9))
        checks.append((f"level-1 slope >= 1.8 at A={A}",
                       fits[1]["slope"] >= 1.8))
        checks.append((f"level-2 slope >= 1.8 at A={A}",
                       fits[2]["slope"] >= 1.8))
        n1 = {r["eps"]: r["norm"] for r in records if r["level"] == 1}
        n2 = {r["eps"]: r["norm"] for r in records if r["level"] == 2}
        checks.append((f"level-2 norm strictly below level-1 at A={A}",
                       all(n2[e] < n1[e] for e in n1)))
    _report(8, "residual orders on the critical circle", checks, t0, 900.0)


def test_criterion_9_invariance_suite(U23, bump_potential, exps23,
                                      resonance_inputs):
    t0 = time.time()
    # spectrum-shift identity on the coupled operator
    base = coupled_spectrum(CoupledSectorOperator(0.0, 0.0, 0, 3.0), U23, 3)
    shifted = coupled_spectrum(CoupledSectorOperator(0.7, 0.0, 0, 3.0), U23, 3)
    shift_err = max(abs((b - a) - 0.49)
                    for (a, _, _), (b, _, _) in zip(base, shifted))

    # phase-constant invariance of residual norms
    import dataclasses
    data = resonance_inputs[0.0]
    curve, pot, sf = data["curve"], data["pot"], data["sf"]
    co = build_correctors(curve, pot, sf, U23)
    grid = build_tube_grid(curve, bump_potential, sf, 0.1, dz_factor=12)
    n_base, n_shift = (
        weighted_norm(residual_field(assemble_ansatz(
            grid, curve, s, U23, co, AnsatzParams(level=1))),
            grid, VARSIGMA * s.k, core_window(grid))
        for s in (sf, dataclasses.replace(sf, f=sf.f + 0.7531)))

    # cutoff negligibility
    curve64, pot64, sf64 = circle_setup(bump_potential, data["rstar"], 64,
                                        0.0, exps23)
    co64 = build_correctors(curve64, pot64, sf64, U23)
    eps_used = [0.01, 0.005, 0.0025]
    norm_diffs, field_diffs, c = cutoff_negligibility_study(
        curve64, bump_potential, sf64, U23, co64, eps_used)
    cutoff_ok = bool(np.all(field_diffs
                            <= np.exp(-c * np.asarray(eps_used) ** -0.5) + 1e-15)
                     and c > 0 and np.all(norm_diffs < 1e-12))

    fast = resonance_inputs[0.05]["fast"]
    q_err = float(np.max(np.abs(fast.q1 + fast.q2 - 1.0)))
    checks = [
        ("spectrum-shift identity to 1e-10", shift_err < 1e-10),
        ("phase-constant invariance of residual norms to 1e-12",
         abs(n_base - n_shift) <= 1e-12 * max(n_base, 1e-30)),
        ("cutoff effect <= exp(-c eps^-delta), c > 0", cutoff_ok),
        ("Q1 + Q2 = 1 within 1e-8", q_err < 1e-8),
    ]
    _report(9, "invariance suite", checks, t0, 60.0)
