"""Configuration-driven orchestration of the verification pipelines.

A run file is a sectioned key-value document (INI syntax); the selected
stages execute in dependency order

    profile -> geometry -> scalings -> criticality -> branches
            -> resonance -> gap_scan -> residual

and emit a JSON summary plus CSV artifacts with deterministic names.  The
exit status is 1 when an acceptance assertion selected in the config fails,
2 for an invalid run file and 3 when a stage fails.  Usage:

    python -m nlscurve.runner RUNFILE [-o OUTDIR] [--stages s1,s2] [-v]

The default output root comes from NLSCURVE_OUT when set.  Stage starts,
stage times and the written files are logged at INFO through ``logging``;
``-v`` shows them on stderr.
"""

import argparse
import configparser
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .geometry import (CurveSpec, PotentialField, build_curve, fourier_tail,
                       freeze_arrays, sample_potential)
from .radial import RadialGrid, ground_state, ode_residual, check_p
from .scalings import (assemble_jacobi, compute_exponents, compute_scalings,
                       euler_residual, reduced_functional, weighted_eigenbasis)
from .spectrum import (BOUND_BRANCHES, alpha_field, continuum_threshold,
                       coupled_sectors, find_alpha_bar, trace_branches)
from .resonance import (FastModes, gap_scan, gap_scan_oracle,
                        resonance_eigenpairs, verify_coupled_system)
from .ansatz import residual_orders

log = logging.getLogger(__name__)

DEFAULTS = {
    "problem": {"n": "2", "p": "3.0", "phase_speed": "0.0", "potential": "1"},
    "curve": {"kind": "circle", "radius": "1.0", "a": "2.0", "b": "1.0",
              "samples": "256"},
    "grids": {"radial_m": "3000", "radial_rmax": "30.0"},
    "resonance": {"delta": "0.3", "eps": "0.05", "gap_threshold": "0.1",
                  "gap_eps_grid": "0.08:0.02:25"},
    "residual": {"eps_list": "0.2,0.1,0.05"},
    "run": {"stages": "profile", "out_dir": "", "assert_acceptance": "false"},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; frozen, sequences included (tuples and a
    read-only ε grid), so an override makes a new one (``dataclasses.replace``)."""

    n: int
    p: float
    phase_speed: float
    potential: str
    curve: CurveSpec
    curve_samples: int
    radial: RadialGrid
    delta: float
    res_eps: float
    gap_threshold: float
    gap_eps_grid: np.ndarray
    residual_eps: tuple
    stages: tuple
    out_dir: str
    assert_acceptance: bool

    def __post_init__(self):
        freeze_arrays(self)


def _parse_float_list(text):
    return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


def _parse_eps_grid(text):
    """'hi:lo:count' -> (hi, lo, count): count values from hi down to lo."""
    hi, lo, num = text.split(":")
    return float(hi), float(lo), int(num)


def _parse_stages(text):
    """Comma-separated stage names, each one of ALL_STAGES."""
    stages = tuple(s.strip() for s in text.split(",") if s.strip())
    bad = [s for s in stages if s not in ALL_STAGES]
    if bad:
        raise ValidationError(f"unknown stages {bad}")
    return stages


def parse_config(path):
    """Parse and fully validate a run file; aggregate all violations.

    A ``;`` after whitespace starts an inline comment; a ``;`` inside a value
    (``eps_list = 0.2;0.1;0.05``) does not.
    """
    if not os.path.exists(path):
        raise ValidationError(f"run file {path!r} does not exist")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    cp.read_dict(DEFAULTS)
    read = cp.read(path)
    if not read:
        raise ValidationError(f"could not parse run file {path!r}")

    known = set(DEFAULTS)
    for section in cp.sections():
        if section not in known:
            raise ValidationError(f"unknown section [{section}] in run file")
        for key in cp[section]:
            if key not in DEFAULTS[section]:
                raise ValidationError(f"unknown key {key!r} in section [{section}]")

    violations = []

    def grab(section, key, conv, check=None, message=""):
        raw = cp.get(section, key)
        try:
            val = conv(raw)
        except ValidationError as exc:
            violations.append(f"[{section}] {key}: {exc}")
            return None
        except Exception:
            violations.append(f"[{section}] {key}: cannot parse {raw!r}")
            return None
        if check is not None and not check(val):
            violations.append(f"[{section}] {key}: {message} (got {raw})")
            return None
        return val

    n = grab("problem", "n", int, lambda v: v >= 2, "need n >= 2")
    p = grab("problem", "p", float, lambda v: v > 1, "need p > 1")
    if n is not None and p is not None:
        try:
            check_p(n, p)
        except ValidationError as exc:
            violations.append(str(exc))
    phase_speed = grab("problem", "phase_speed", float, lambda v: v >= 0,
                       "phase speed must be nonnegative")
    potential = cp.get("problem", "potential")
    try:
        PotentialField(potential, n or 2)
    except ValidationError as exc:
        violations.append(f"[problem] potential: {exc}")

    kind = cp.get("curve", "kind")
    radius = grab("curve", "radius", float, lambda v: v > 0, "radius must be positive")
    ca = grab("curve", "a", float, lambda v: v > 0, "semi-axis must be positive")
    cb = grab("curve", "b", float, lambda v: v > 0, "semi-axis must be positive")
    samples = grab("curve", "samples", int, lambda v: v >= 64, "need >= 64 samples")
    curve_spec = None
    if not violations:
        try:
            curve_spec = CurveSpec(kind, n=n, radius=radius, a=ca, b=cb)
        except ValidationError as exc:
            violations.append(f"[curve] {exc}")

    radial_m = grab("grids", "radial_m", int, lambda v: v >= 1000, "need m >= 1000")
    radial_rmax = grab("grids", "radial_rmax", float, lambda v: v >= 20,
                       "need r_max >= 20")
    grid = None
    if radial_m and radial_rmax:
        grid = RadialGrid(radial_rmax, radial_m)

    delta = grab("resonance", "delta", float, lambda v: 0 < v < 1, "delta in (0,1)")
    res_eps = grab("resonance", "eps", float, lambda v: v > 0, "eps > 0")
    gap_threshold = grab("resonance", "gap_threshold", float, lambda v: v >= 0,
                         "threshold >= 0")
    gap_grid = grab("resonance", "gap_eps_grid", _parse_eps_grid,
                    lambda v: v[2] >= 1 and np.inf > v[0] > v[1] > 0,
                    "need 'hi:lo:count' with count >= 1 and hi > lo > 0")

    eps_list = grab("residual", "eps_list", _parse_float_list,
                    lambda v: len(set(v)) == len(v) >= 3
                    and all(e > 0 for e in v),
                    "needs >= 3 distinct positive values")

    stages = grab("run", "stages", _parse_stages)
    out_dir = cp.get("run", "out_dir") or os.environ.get("NLSCURVE_OUT", "out")
    assert_acceptance = grab("run", "assert_acceptance",
                             lambda v: cp.BOOLEAN_STATES[v.lower()])

    if violations:
        raise ValidationError("invalid run file:\n  " + "\n  ".join(violations))

    return RunConfig(n=n, p=p, phase_speed=phase_speed, potential=potential,
                     curve=curve_spec, curve_samples=samples, radial=grid,
                     delta=delta, res_eps=res_eps, gap_threshold=gap_threshold,
                     gap_eps_grid=np.linspace(*gap_grid), residual_eps=eps_list,
                     stages=stages, out_dir=out_dir,
                     assert_acceptance=assert_acceptance)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def _numbered(prefix, count):
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def run_pipeline(cfg):
    """Execute the selected stages in dependency order.

    Returns (summary dict, csv artifact dict name -> (header, rows)); each
    stage names its columns next to its rows.  Acceptance-style
    assertions are collected into summary['checks'] and gate the exit code
    when the config requests it.  Each stage's start and time are logged at
    INFO.
    """
    summary = {"schema": "nlscurve-report/1", "config": {
        "n": cfg.n, "p": cfg.p, "phase_speed": cfg.phase_speed,
        "potential": cfg.potential, "curve_kind": cfg.curve.kind,
    }, "stages": {}, "checks": {}}
    run = _Run(cfg)

    for stage in [s for s in ALL_STAGES if s in cfg.stages]:
        t0 = time.time()
        log.info("[%s] ...", stage)
        try:
            out = STAGE_FUNCS[stage](run)
        except Exception as exc:
            raise RuntimeError(f"stage {stage!r} failed: {exc}") from exc
        summary["stages"][stage] = out
        for key, val in out.get("checks", {}).items():
            summary["checks"][f"{stage}.{key}"] = val
        log.info("[%s] done in %.3fs", stage, time.time() - t0)

    summary["all_checks_pass"] = all(summary["checks"].values()) \
        if summary["checks"] else True
    return summary, run.csvs


class _Run:
    """One pipeline run: its config, exponents, potential and CSV artifacts,
    and the products the stages share, each built once on first use."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.exps = compute_exponents(cfg.n, cfg.p)
        self.V = PotentialField(cfg.potential, cfg.n)
        self.csvs = {}

    @cached_property
    def curve(self):
        return build_curve(self.cfg.curve, self.cfg.curve_samples)

    @cached_property
    def pot(self):
        return sample_potential(self.V, self.curve)

    @cached_property
    def sf(self):
        return compute_scalings(self.curve, self.pot, self.cfg.phase_speed,
                                self.exps)

    @cached_property
    def U(self):
        return ground_state(self.cfg.n, self.cfg.p, self.cfg.radial)

    @cached_property
    def sectors(self):
        """The coupled sectors of the profile, set up once for the branches
        stage and the crossing field."""
        return coupled_sectors(self.U, self.cfg.p)

    @cached_property
    def modes(self):
        """The fast-mode problem of the crossing field (alpha_field), which
        keeps the field as ``modes.crossing``, shared by the resonance and
        gap-scan stages."""
        return FastModes(self.sf, alpha_field(self.sf, self.sectors))


def stage_profile(run):
    U = run.U
    res = ode_residual(U, run.cfg.p)
    run.csvs["profile"] = ("r,U", np.column_stack([U.grid.nodes, U.values]))
    return {"U0": float(U.values[0]), "decay_rate": float(U.decay_rate),
            "ode_residual_sup": res,
            "checks": {"decay_rate_within_2pct": bool(abs(U.decay_rate - 1) < 0.02)}}


def stage_geometry(run):
    curve, pot, n = run.curve, run.pot, run.cfg.n
    run.csvs["curve"] = (",".join(["s", *_numbered("x", n), *_numbered("H", n - 1)]),
                         np.column_stack([curve.s, curve.positions, curve.curvature]))
    run.csvs["potential"] = (",".join(["s", "V", *_numbered("dV", n - 1)]),
                             np.column_stack([curve.s, pot.values, pot.grad_normal]))
    kappa = np.linalg.norm(curve.curvature_vectors(), axis=1)
    # how far [curve] samples is from resolving |H| and V along s̄
    tails = {"curvature_tail": float(fourier_tail(kappa)),
             "potential_tail": float(fourier_tail(pot.values))}
    return {"length": float(curve.L), "max_curvature": float(np.max(kappa)), **tails,
            "checks": {"fourier_tail_below_1e-6": all(t < 1e-6 for t in tails.values())}}


def stage_scalings(run):
    sf = run.sf
    run.csvs["scalings"] = ("s,h,k,fprime,f",
                            np.column_stack([sf.s, sf.h, sf.k, sf.fprime, sf.f]))
    return {"sigma": run.exps.sigma, "theta": run.exps.theta,
            "phase_budget": sf.phase_budget, "checks": {}}


def stage_criticality(run):
    curve, pot, sf, exps, n = run.curve, run.pot, run.sf, run.exps, run.cfg.n
    res, sup = euler_residual(curve, pot, sf, exps)
    red = reduced_functional(curve, sf, exps)
    matrix, weight = assemble_jacobi(curve, pot, sf, exps)
    vals, verdict = weighted_eigenbasis(matrix, weight, 10, n - 1)
    run.csvs["euler_residual"] = (",".join(["s", *_numbered("R", n - 1)]),
                                  np.column_stack([curve.s, res]))
    run.csvs["jacobi_spectrum"] = ("index,eigenvalue",
                                   np.column_stack([np.arange(vals.size), vals]))
    return {"euler_residual_sup": sup, "reduced_functional": red,
            "jacobi_min_abs_eig": verdict["min_abs_eigenvalue"],
            "jacobi_invertible": verdict["invertible"], "checks": {}}


def stage_branches(run):
    sectors, sf = run.sectors, run.sf
    mu = float(np.max(np.abs(2 * sf.fprime / sf.k)))
    mode = find_alpha_bar(sectors, mu)
    # [0, 2.2] in steps of 0.1, extended to the first step past the Newton ᾱ
    end = 22
    while end / 10 <= mode.alpha_bar:
        end += 1
    alphas = np.linspace(0.0, end / 10, end + 1)
    values, counts = trace_branches(sectors, mu, alphas)
    # every eigenvalue under the continuum threshold is a traced branch: at
    # every α the sector's inertia count equals its finite traced values
    bound = all(np.array_equal(
        np.sum([np.isfinite(values[label]) for label in labels], axis=0),
        counts[ell]) for ell, labels in BOUND_BRANCHES.items())
    # the Newton ᾱ against the independent trace: the ground branch changes
    # sign on the grid cell that holds ᾱ
    i = int(np.searchsorted(alphas, mode.alpha_bar, side="right")) - 1
    eta = values["ground"]
    in_bracket = 0 <= i < alphas.size - 1 and eta[i] <= 0 < eta[i + 1]
    names = ["ground", "translation", "gauge", "continuum_threshold"]
    rows = [alphas] + [values[label] for label in names[:3]] \
        + [continuum_threshold(alphas, mu)]
    run.csvs["branches"] = (",".join(["alpha", *names]), np.column_stack(rows))
    run.csvs["crossing_mode"] = ("r,Z,W", np.column_stack(
        [run.U.grid.nodes, mode.u_values, mode.v_values]))
    return {"mu": mu, "alpha_bar": mode.alpha_bar,
            "zw_decay_rate": mode.decay_rate,
            "branch_labels": names,
            "checks": {"ground_branch_increasing": bool(np.all(np.diff(eta) > 0)),
                       "bound_states_are_the_traced_branches": bool(bound),
                       "zw_decay_above_1": bool(mode.decay_rate > 1.0),
                       "alpha_bar_in_traced_bracket": bool(in_bracket)}}


def stage_resonance(run):
    cfg, modes = run.cfg, run.modes
    basis = resonance_eigenpairs(modes, cfg.res_eps, cfg.delta)
    maxres, per_j = verify_coupled_system(basis)
    run.csvs["resonance_nu"] = ("j,nu,coupled_residual",
                                np.column_stack([basis.window, basis.nu, per_j]))
    return {"eps": cfg.res_eps, "window": int(basis.nu.size),
            "coupled_system_residual": maxres,
            "residual_over_eps": maxres / cfg.res_eps, "checks": {}}


def stage_gap_scan(run):
    cfg, modes = run.cfg, run.modes
    records = gap_scan(modes, cfg.gap_eps_grid, cfg.delta, cfg.gap_threshold)
    rows = np.array([[r["eps"], r["min_abs_eigenvalue"], float(r["admissible"])]
                     for r in records])
    run.csvs["gap_scan"] = ("eps,min_abs_eigenvalue,admissible", rows)
    out = {"coefficients": modes.coefficients,
           "blocks": [block.theta.size for block in modes.blocks],
           "n_admissible": int(sum(r["admissible"] for r in records)),
           "n_total": len(records), "checks": {}}
    if modes.coefficients == "constant":
        oracle = gap_scan_oracle(modes, cfg.gap_eps_grid, cfg.delta,
                                 cfg.gap_threshold)
        agree = all(r["admissible"] == o["admissible"]
                    for r, o in zip(records, oracle))
        out["checks"]["gap_scan_matches_oracle"] = bool(agree)
    return out


def stage_residual(run):
    # levels 0-2 on the run's own curve: its s̄ grid serves every ε
    records, fits = residual_orders(run.curve, run.V, run.pot, run.sf, run.U,
                                    run.cfg.residual_eps)
    run.csvs["residual"] = ("eps,level,norm", np.array(
        [[r["eps"], r["level"], r["norm"]] for r in records]))
    n1 = {r["eps"]: r["norm"] for r in records if r["level"] == 1}
    n2 = {r["eps"]: r["norm"] for r in records if r["level"] == 2}
    return {"records": records,
            "slopes": {str(lv): fits[lv]["slope"] for lv in fits},
            "checks": {
                "level0_slope_ge_0.9": bool(fits[0]["slope"] >= 0.9),
                "level1_slope_ge_1.8": bool(fits[1]["slope"] >= 1.8),
                "level2_slope_ge_1.8": bool(fits[2]["slope"] >= 1.8),
                "level2_below_level1": bool(all(n2[e] < n1[e] for e in n1))}}


STAGE_FUNCS = {
    "profile": stage_profile,
    "geometry": stage_geometry,
    "scalings": stage_scalings,
    "criticality": stage_criticality,
    "branches": stage_branches,
    "resonance": stage_resonance,
    "gap_scan": stage_gap_scan,
    "residual": stage_residual,
}
ALL_STAGES = tuple(STAGE_FUNCS)


def emit_report(summary, csvs, out_dir):
    """Write the JSON summary and CSV artifacts; deterministic file names.

    The JSON is byte-identical across reruns except for the timestamp field.
    """
    os.makedirs(out_dir, exist_ok=True)
    ordered = dict(summary)
    ordered["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        json.dump(ordered, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    written = [path]
    for name, (header, rows) in csvs.items():
        cpath = os.path.join(out_dir, f"{name}.csv")
        rows = np.atleast_2d(rows)
        # np.savetxt's "%.18e" fields, formatted in one operation for all rows
        line = ",".join(["%.18e"] * rows.shape[1]) + "\n"
        with open(cpath, "w") as fh:
            fh.write(header + "\n"
                     + (line * rows.shape[0]) % tuple(rows.ravel().tolist()))
        written.append(cpath)
    return written


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="nlscurve-run",
        description="Run the concentrating-wave verification pipelines.")
    ap.add_argument("config", help="path to the run file (INI format)")
    ap.add_argument("-o", "--out-dir", default=None, help="output directory")
    ap.add_argument("--stages", default=None,
                    help="comma-separated stage override")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="log stage times and written files to stderr")
    args = ap.parse_args(argv)
    if not args.verbose:
        return _run(args)
    # the root logger, so the records arrive under `python -m` (where this
    # module is __main__) as well; restored so in-process callers see no change
    root = logging.getLogger()
    handler = logging.StreamHandler(sys.stderr)
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        return _run(args)
    finally:
        root.removeHandler(handler)
        root.setLevel(level)


def _run(args):
    try:
        cfg = parse_config(args.config)
        stages = _parse_stages(args.stages) if args.stages else cfg.stages
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cfg = replace(cfg, stages=stages, out_dir=args.out_dir or cfg.out_dir)

    try:
        summary, csvs = run_pipeline(cfg)
    except Exception as exc:  # stage failures carry the stage name
        print(f"error: pipeline failed: {exc}", file=sys.stderr)
        return 3
    for w in emit_report(summary, csvs, cfg.out_dir):
        log.info("wrote %s", w)
    if cfg.assert_acceptance and not summary["all_checks_pass"]:
        failing = [k for k, v in summary["checks"].items() if not v]
        print(f"acceptance checks failed: {failing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
