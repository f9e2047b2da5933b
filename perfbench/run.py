"""nlscurve benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, nothing is installed.  The workloads and metrics
are declared in BENCHMARK.json.

Closed loop, one client: a fresh Python child (child.py) sets up once and
then runs the workload to a verified result again and again, one unit after
the other, for about S seconds, with the units pinned in turn to each of
(at most) two CPUs.  Two more children only set up, so that set-up is
sampled three times.  A unit that raises or fails its correctness gate, and
a child that dies, counts as a failed operation.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: medians over the units (wall and CPU time) and over
the set-ups of this run.  With ``--trace 1`` a single traced child runs one
unit, with every public function of the layer modules wrapped, and the
per-layer metrics are reported instead.  The call counts of a traced run
are compared with those of an earlier traced run of the same input in this
checkout, and must match exactly.

Inputs come from the seed: seed 0 is the nominal problem, other seeds
jitter the phase speed A within ±10% and the ellipse axes within ±2%.
Every result, with provenance, is also written to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

BUDGET_S = 170.0        # every run must end within 180 s
SETUP_SAMPLES = 3
# Timed units alternate between (at most) two of the usable CPUs.
CPUS = sorted(os.sched_getaffinity(0))[:2]
THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

PROBLEM = {"n": 2, "p": 3.0, "potential": "1/(1+r2)", "radial": [30.0, 3000]}
NOMINAL_A = 0.05
STAGES = "profile, geometry, scalings, criticality, branches, resonance, gap_scan"
GAP_POINTS = 100
# N_s = base_M/eps curve nodes per rung: 80/160/320.  The full-size ladder
# (base_M = 256, N_s up to 5120) takes over a minute and 2 GB per run, too
# long to repeat inside one run; the circle's norms and slopes do not depend
# on N_s, so the gate is the same.
LADDER_BASE_M = 16


def make_spec(workload, seed):
    """The inputs of one workload; seed 0 gives the nominal values."""
    rng = random.Random(seed)

    def jitter(value, rel):
        return value * (1.0 + rng.uniform(-rel, rel)) if seed else value

    spec = dict(PROBLEM, workload=workload, seed=seed,
                phase_speed=jitter(NOMINAL_A, 0.10))
    if workload == "residual_ladder":
        spec.update(eps_list=[0.2, 0.1, 0.05], levels=[0, 1, 2],
                    base_M=LADDER_BASE_M, bracket=[0.4, 1.2],
                    criticality_samples=128)
        return spec
    if workload == "pipeline_circle":
        curve = "kind = circle\nradius = 0.7012465\n"
        kind = "circle"
    else:
        a, b = jitter(0.85, 0.02), jitter(0.6, 0.02)
        curve = f"kind = ellipse\na = {a!r}\nb = {b!r}\n"
        kind = "ellipse"
    spec.update(curve_kind=kind, gap_points=GAP_POINTS, run_file=(
        f"[problem]\nn = {PROBLEM['n']}\np = {PROBLEM['p']!r}\n"
        f"phase_speed = {spec['phase_speed']!r}\n"
        f"potential = {PROBLEM['potential']}\n"
        f"[curve]\n{curve}samples = 256\n"
        f"[grids]\nradial_rmax = {PROBLEM['radial'][0]!r}\n"
        f"radial_m = {PROBLEM['radial'][1]}\n"
        f"[resonance]\neps = 0.05\ngap_eps_grid = 0.08:0.02:{GAP_POINTS}\n"
        f"[run]\nstages = {STAGES}\nassert_acceptance = true\n"))
    return spec


def run_child(spec, tag, deadline):
    """Run child.py on SPEC; return its result dict, or None if it died."""
    spec_path = os.path.join(OUT, f"{tag}.spec.json")
    result_path = os.path.join(OUT, f"{tag}.result.json")
    with open(spec_path, "w") as fh:
        json.dump(dict(spec, out_dir=OUT), fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0", **THREADS)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path,
             result_path], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"{tag}: child timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"{tag}: child exited {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    with open(result_path) as fh:
        result = json.load(fh)
    if result.get("error"):
        print(f"{tag}: workload raised\n{result['error']}", file=sys.stderr)
    return result


def provenance(seed):
    src = os.path.join(ROOT, "src", "nlscurve")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "seed": seed,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpus_pinned": CPUS,
            "threads": THREADS}


def untraced(spec, args, deadline, record):
    """One child running units for the window, then set-up-only children."""
    res = run_child(dict(spec, trace=0, seconds=args.seconds, cpus=CPUS),
                    f"{args.workload}-run", deadline)
    units = res["units"] if res else []
    setups = [res["setup_s"]] if res else []
    failed = sum(not u["passed"] for u in units) + (res is None)
    setup_children = 0
    while len(setups) < SETUP_SAMPLES and time.monotonic() + 15 < deadline:
        setup_children += 1
        out = run_child(dict(PROBLEM, workload="setup", seed=args.seed,
                             trace=0, cpus=[CPUS[setup_children % len(CPUS)]]),
                        f"setup{setup_children}", deadline)
        if out is None:
            failed += 1
            break
        setups.append(out["setup_s"])
    attempted = max(1, len(units) + setup_children)
    record.update(run=res, setup_samples=setups, fail_frac=failed / attempted)
    if not units:
        return None

    def med(key):
        return statistics.median(u[key] for u in units)

    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "values": {"wall_s": med("wall_s"),
                       "setup_s": statistics.median(setups),
                       "cpu_s": med("cpu_s"),
                       "peak_rss_mb": res["peak_rss_mb"]},
            "samples": {"wall_s": len(units), "setup_s": len(setups),
                        "cpu_s": len(units)}}


def traced(spec, args, deadline, record):
    """One traced child; per-layer metrics from its spans."""
    from layers import EXACT, layer_metrics

    tag = f"{args.workload}-seed{args.seed}"
    spans_file = os.path.join(OUT, f"spans-{tag}.json")
    run_id = f"{tag}-{os.getpid()}-{time.time_ns()}"
    res = run_child(dict(spec, trace=1, run_id=run_id, spans_file=spans_file),
                    f"{args.workload}-traced", deadline)
    if res is None:
        return None
    with open(spans_file) as fh:
        trace = json.load(fh)
    unit = res["units"][0]
    values, table = layer_metrics(trace["spans"], trace["notes"],
                                  unit["wall_s"])
    record.update(run=res, functions=table, notes=trace["notes"])

    counts = {name: values[name] for name in EXACT}
    counts_file = os.path.join(OUT, f"counts-{tag}.json")
    correct = bool(unit["passed"])
    if os.path.exists(counts_file):
        with open(counts_file) as fh:
            before = json.load(fh)
        if before.get("src_sha256") == record["provenance"]["src_sha256"]:
            moved = {k: (before["counts"].get(k), v) for k, v in counts.items()
                     if before["counts"].get(k) != v}
            record["counts_repeat"] = not moved
            if moved:
                print(f"counts differ from the previous traced run: {moved}",
                      file=sys.stderr)
                correct = False
    with open(counts_file, "w") as fh:
        json.dump({"src_sha256": record["provenance"]["src_sha256"],
                   "counts": counts}, fh, indent=1)

    # overhead against every untraced run of this workload and code so far
    walls = []
    for name in os.listdir(OUT):
        if name.startswith(f"{args.workload}-seed") and name.endswith("-trace0.json"):
            with open(os.path.join(OUT, name)) as fh:
                prev = json.load(fh)
            if prev["provenance"]["src_sha256"] == record["provenance"]["src_sha256"]:
                run = prev.get("run") or {}
                walls.extend(u["wall_s"] for u in run.get("units", []))
    if walls:
        record["tracing_overhead_s"] = unit["wall_s"] - statistics.median(walls)
    return {"correct": correct, "attempted": 1, "failed": int(not unit["passed"]),
            "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "nlscurve", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    spec = make_spec(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "inputs": spec,
              "provenance": provenance(args.seed)}
    declared = bench["per_layer" if args.trace else "end_to_end"]
    summary = (traced if args.trace else untraced)(spec, args, deadline, record)
    if summary is None:
        print("error: no run of the workload completed", file=sys.stderr)
        return 1
    if set(summary["values"]) != {m["name"] for m in declared}:
        print("error: measured metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": summary["values"][m["name"]],
                           "unit": m["unit"]} for m in declared}
    record.update(metrics=metrics, correct=summary["correct"],
                  attempted=summary["attempted"], failed=summary["failed"])
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: "
          f"{summary['attempted']} attempted, {summary['failed']} failed")
    samples = summary.get("samples", {})
    for name, m in metrics.items():
        n = f"  (median of {samples[name]})" if name in samples else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{n}")
    if not args.trace:
        print(f"  {'fail_frac':40s} {record['fail_frac']:.6g}")
    else:
        if "tracing_overhead_s" in record:
            print(f"  {'tracing overhead (traced - untraced wall_s)':40s} "
                  f"{record['tracing_overhead_s']:.6g} s")
        print("  largest self times:")
        top = sorted(record["functions"].items(),
                     key=lambda kv: -kv[1]["self_s"])[:8]
        for name, row in top:
            print(f"    {name:38s} {row['self_s']:.4g} s in {row['calls']} calls")
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
