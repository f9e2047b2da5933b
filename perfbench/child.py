"""Timed runs of one benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC is written by run.py: the workload name, the inputs generated from
the seed, the measuring window, the output directory and the trace flag.
The child

1. sets up: imports the package and solves the ground state, which fills
   the ``ground_state`` memo that the workloads then hit;
2. runs the workload and its correctness gate again and again, one unit
   after the other, timing wall and CPU time of each unit, until the next
   round would end more than half a round after the measuring window (a
   traced child runs one unit).  A round is one unit on each CPU of the
   spec's ``cpus`` list: the units are pinned to those CPUs in turn, since
   the CPUs of a shared host can run at different speeds for minutes, and
   a child left on one of them would time that CPU, not the program;
3. writes RESULT.json with the per-unit timings and gates, the key numbers
   and the grid sizes, and with tracing on, a spans file next to it.

Every unit repeats the same input, and its key numbers must repeat those
of the first unit.  The workload name ``setup`` stops after step 1; run.py
uses it to take more set-up samples.
"""

import json
import os
import resource
import statistics
import sys
import time
import traceback

# Seed-0 values of the key numbers, measured on the code the benchmark was
# written against.  Deviations from them are recorded for information only;
# the gates below decide correctness.
REFERENCE = {
    "residual_ladder": {
        "critical_radius": 0.7012465136220308,
        "norm.eps0.2.L0": 0.13050074089744573,
        "norm.eps0.2.L1": 0.11044558510599986,
        "norm.eps0.2.L2": 0.03154407034269499,
        "norm.eps0.1.L0": 0.03497092886274856,
        "norm.eps0.1.L1": 0.021211755713717542,
        "norm.eps0.1.L2": 0.0038037049960505734,
        "norm.eps0.05.L0": 0.01329770102934051,
        "norm.eps0.05.L1": 0.00472750788318584,
        "norm.eps0.05.L2": 0.0005725738561299617,
        "slope.L0": 1.647404622584638,
        "slope.L1": 2.273056038096448,
        "slope.L2": 2.891881612253383,
    },
    "pipeline_circle": {"alpha_bar": 1.738193177954468, "n_admissible": 90},
    "pipeline_ellipse": {"alpha_bar": 1.7402045940140458, "n_admissible": 96},
}


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def residual_ladder(spec, U):
    """Criterion-8 study: critical circle at phase speed A, then the ε ladder."""
    from nlscurve import ansatz, geometry, scalings

    n, A = spec["n"], spec["phase_speed"]
    V = geometry.PotentialField(spec["potential"], n)
    exps = scalings.compute_exponents(n, spec["p"])

    def builder(R):
        curve = geometry.build_curve(geometry.CurveSpec("circle", n=n, radius=R),
                                     spec["criticality_samples"])
        return curve, geometry.sample_potential(V, curve)

    rstar = scalings.critical_circle_radius(builder, tuple(spec["bracket"]),
                                            A, exps)
    sizes = []

    def curve_for(M):
        sizes.append(M)
        return geometry.build_curve(
            geometry.CurveSpec("circle", n=n, radius=rstar), M)

    records, fits = ansatz.residual_study(curve_for, V, A, exps, U,
                                          spec["eps_list"], spec["levels"],
                                          base_M=spec["base_M"])
    norms = {(r["eps"], r["level"]): r["norm"] for r in records}
    slopes = {lv: fits[lv]["slope"] for lv in spec["levels"]}
    gate = {
        "level0_slope_ge_0.9": slopes[0] >= 0.9,
        "level1_slope_ge_1.8": slopes[1] >= 1.8,
        "level2_slope_ge_1.8": slopes[2] >= 1.8,
        "level2_below_level1": all(norms[(e, 2)] < norms[(e, 1)]
                                   for e in spec["eps_list"]),
        "nine_norms_finite_positive": len(norms) == 9 and all(
            0.0 < v < float("inf") for v in norms.values()),
    }
    key = {"critical_radius": rstar}
    key.update({f"slope.L{lv}": s for lv, s in slopes.items()})
    key.update({f"norm.eps{e:g}.L{lv}": v for (e, lv), v in norms.items()})
    grids = {"criticality_M": spec["criticality_samples"],
             "N_s": dict(zip((f"{e:g}" for e in spec["eps_list"]), sizes))}
    return gate, key, grids


def pipeline(spec, U):
    """The runner pipeline from a generated run file, report included."""
    from nlscurve import runner

    out = spec["out_dir"]
    cfg_path = os.path.join(out, f"{spec['workload']}.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(spec["run_file"])
    cfg = runner.parse_config(cfg_path)
    summary, csvs = runner.run_pipeline(cfg)
    runner.emit_report(summary, csvs, os.path.join(out, spec["workload"]))
    stages = summary["stages"]
    gap = stages["gap_scan"]
    gate = {"all_checks_pass": bool(summary["all_checks_pass"]),
            "gap_grid_fully_scanned": gap["n_total"] == spec["gap_points"]}
    if spec["curve_kind"] == "circle":
        gate["gap_scan_oracle_checked"] = \
            "gap_scan.gap_scan_matches_oracle" in summary["checks"]
    key = {"alpha_bar": stages["branches"]["alpha_bar"],
           "mu": stages["branches"]["mu"],
           "n_admissible": gap["n_admissible"],
           "resonance_window": stages["resonance"]["window"]}
    grids = {"M": cfg.curve_samples, "radial_m": cfg.radial.m,
             "gap_points": gap["n_total"]}
    return gate, key, grids


WORKLOADS = {
    "residual_ladder": residual_ladder,
    "pipeline_circle": pipeline,
    "pipeline_ellipse": pipeline,
}


def deviations(workload, key):
    ref = REFERENCE.get(workload, {})
    return {k: (v - ref[k]) / abs(ref[k]) if ref[k] else v - ref[k]
            for k, v in key.items() if k in ref}


def pin(cpu):
    """Run on CPU only (None: wherever the scheduler puts the child)."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def repeats(key, first):
    """KEY equals FIRST: integers exactly, floats to 1e-9 relative (the
    last bits of a root found to 1e-8 can differ between repeats)."""
    return key.keys() == first.keys() and all(
        key[k] == first[k] if isinstance(first[k], int)
        else abs(key[k] - first[k]) <= 1e-9 * abs(first[k]) for k in first)


def run_unit(workload, spec, U):
    """One timed run of WORKLOAD to a checked result."""
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    error = None
    try:
        gate, key, grids = workload(spec, U)
    except Exception:
        error = traceback.format_exc()
        gate, key, grids = {"completed": False}, {}, {}
    unit = {"wall_s": time.perf_counter() - wall0,
            "cpu_s": cpu_seconds() - cpu0,
            "gate": {k: bool(v) for k, v in gate.items()}}
    if error:
        unit["error"] = error
    return unit, key, grids


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    name = spec["workload"]
    result = {"workload": name, "seed": spec["seed"], "trace": spec["trace"]}
    tracer = None

    pin((spec.get("cpus") or [None])[0])
    start = time.perf_counter()
    import nlscurve.runner  # noqa: F401  (imports every layer module)
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(spec["run_id"])
        result["wrapped_functions"] = tracer.install()
    from nlscurve.radial import RadialGrid, ground_state
    U = ground_state(spec["n"], spec["p"], RadialGrid(*spec["radial"]))
    result["setup_s"] = time.perf_counter() - start

    if name != "setup":
        units, first = [], None
        cpus = spec.get("cpus") or [None]
        window0 = time.perf_counter()
        while True:
            cpu = cpus[len(units) % len(cpus)]
            pin(cpu)
            unit, key, grids = run_unit(WORKLOADS[name], spec, U)
            unit["cpu"] = cpu
            if first is None:
                first = key
                result["key_numbers"] = key
                result["deviation_from_seed0"] = deviations(name, key)
                result["grid_sizes"] = grids
            else:
                unit["gate"]["key_numbers_repeat"] = repeats(key, first)
            unit["passed"] = all(unit["gate"].values())
            units.append(unit)
            if spec["trace"]:
                break
            if len(units) % len(cpus):
                continue        # finish the round over the CPUs
            # stop once the next round would end over half a round late
            round_s = len(cpus) * statistics.median(
                u["wall_s"] for u in units)
            if time.perf_counter() - window0 + round_s / 2 > spec["seconds"]:
                break
        result["units"] = units

    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = provenance()
    if tracer is not None:
        result["spans_file"] = spec["spans_file"]
        tracer.write(spec["spans_file"])
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def provenance():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip()}


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
