"""Per-layer metrics from the spans of one traced run.

``LAYER_METRICS`` lists every per-layer metric with its unit and the
end-to-end metric and workload it should move; BENCHMARK.json's
``per_layer`` names the same metrics in the same order.  Span names are
``<module>.<function>``, except ``runner.stage.<stage>`` for the runner's
stage functions and ``ansatz.assemble_ansatz.L<level>`` per ansatz level.

A name's busy time (``_s``) sums its spans that are not nested inside a span
of the same name; its self time (``_self_s``) sums each span's duration
minus the time covered by its direct child spans.  The two ``_per_node``
ratios divide the solves made inside ``ansatz.build_correctors`` (resp.
``spectrum.alpha_field``) by the curve nodes passed to those calls.
"""

from collections import defaultdict

from tracer import LAYERS

RESIDUAL = "wall_s on residual_ladder"
PIPELINES = "wall_s on pipeline_circle and pipeline_ellipse"

# (name, unit, what it should move)
LAYER_METRICS = [
    ("ansatz.build_correctors_s", "s", RESIDUAL),
    ("ansatz.build_correctors_self_s", "s", RESIDUAL),
    ("radial.sector_solve_s", "s", RESIDUAL),
    ("radial.sector_solve_calls", "count", RESIDUAL),
    ("radial.sector_solve_per_node", "ratio", RESIDUAL),
    ("ansatz.assemble_ansatz.L0_s", "s", RESIDUAL),
    ("ansatz.assemble_ansatz.L1_s", "s", RESIDUAL),
    ("ansatz.assemble_ansatz.L2_s", "s", RESIDUAL),
    ("geometry.build_curve_s", "s", RESIDUAL + " and peak_rss_mb"),
    ("geometry.build_curve_peak_mb", "MB", "peak_rss_mb on residual_ladder"),
    ("geometry.sample_potential_s", "s", RESIDUAL),
    ("tube.build_tube_grid_s", "s", RESIDUAL),
    ("tube.apply_S_eps_s", "s", RESIDUAL),
    ("tube.apply_S_eps_calls", "count", RESIDUAL),
    ("tube.apply_S_eps_bytes_computed", "B", RESIDUAL),
    ("tube.apply_S_eps_flops_computed", "flop", RESIDUAL),
    ("tube.weighted_norm_s", "s", RESIDUAL),
    ("scalings.compute_scalings_s", "s", PIPELINES),
    ("scalings.critical_circle_radius_s", "s", RESIDUAL),
    ("scalings.assemble_jacobi_s", "s", PIPELINES),
    ("scalings.weighted_eigenbasis_s", "s", PIPELINES),
    ("spectrum.coupled_spectrum_s", "s", "wall_s on pipeline_ellipse"),
    ("spectrum.coupled_spectrum_calls", "count", "wall_s on pipeline_ellipse"),
    ("spectrum.trace_branches_s", "s", PIPELINES),
    ("spectrum.find_alpha_bar_calls", "count", "wall_s on pipeline_ellipse"),
    ("spectrum.alpha_field_s", "s", "wall_s on pipeline_ellipse"),
    ("spectrum.find_alpha_bar_per_node", "ratio", "wall_s on pipeline_ellipse"),
    ("resonance.resonance_eigenpairs_s", "s", PIPELINES),
    ("resonance.gap_scan_s", "s", PIPELINES),
    ("resonance.gap_scan_points", "count", PIPELINES),
    ("radial.solve_ground_state_s", "s", "setup_s on every workload"),
] + [(f"runner.stage.{stage}_s", "s", PIPELINES)
     for stage in ("profile", "geometry", "scalings", "criticality", "branches",
                   "resonance", "gap_scan")] + [
    ("runner.emit_report_s", "s", PIPELINES),
    ("runner.report_bytes", "B", PIPELINES),
] + [(f"{layer}.self_s", "s", "wall_s on the workloads that use " + layer)
     for layer in LAYERS] + [
    ("trace.wall_s", "s", "traced wall_s; minus the untraced wall_s it is "
                          "the tracing overhead"),
]

# Counts that must repeat exactly between traced runs of one input.
EXACT = [name for name, unit, _ in LAYER_METRICS
         if unit in ("count", "ratio") or name.endswith("_computed")]


def span_table(spans):
    """Per span name: calls, busy time and self time."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, parent, _) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["self_s"] += end - start - child_time[idx]
        if not _has_ancestor(spans, parent, name):
            row["busy_s"] += end - start
    return dict(table)


def _has_ancestor(spans, idx, name):
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def _calls_under(spans, name, ancestor):
    return sum(1 for s in spans
               if s[0] == name and _has_ancestor(spans, s[3], ancestor))


def layer_metrics(spans, notes, wall_s):
    """Every metric of LAYER_METRICS; a layer a workload never calls reads 0."""
    table = span_table(spans)

    def get(name, field):
        return table.get(name, {}).get(field, 0)

    values = {}
    for metric, unit, _ in LAYER_METRICS:
        if metric.endswith("_self_s"):
            values[metric] = float(get(metric[:-len("_self_s")], "self_s"))
        elif metric.endswith("_calls"):
            values[metric] = get(metric[:-len("_calls")], "calls")
        elif unit == "s":
            values[metric] = float(get(metric[:-len("_s")], "busy_s"))
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in table.items()
            if name.split(".", 1)[0] == layer)

    nodes = notes.get("ansatz.build_correctors_nodes", 0)
    values["radial.sector_solve_per_node"] = (
        _calls_under(spans, "radial.sector_solve", "ansatz.build_correctors")
        / nodes if nodes else 0.0)
    nodes = notes.get("spectrum.alpha_field_nodes", 0)
    values["spectrum.find_alpha_bar_per_node"] = (
        _calls_under(spans, "spectrum.find_alpha_bar", "spectrum.alpha_field")
        / nodes if nodes else 0.0)
    for metric in ("geometry.build_curve_peak_mb",
                   "tube.apply_S_eps_bytes_computed",
                   "tube.apply_S_eps_flops_computed",
                   "resonance.gap_scan_points", "runner.report_bytes"):
        values[metric] = notes.get(metric, 0)
    values["trace.wall_s"] = wall_s
    return {name: values[name] for name, _, _ in LAYER_METRICS}, table
