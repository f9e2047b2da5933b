"""Spans around the calls into each layer of the package, from outside it.

``Tracer.install()`` replaces every public function of the layer modules by
a wrapper that records one span per call: (name, start, end, parent span,
run id).  The replacement is made in every layer module that refers to the
function, including module-level dispatch tables such as the runner's
``STAGE_FUNCS``, so calls between layers are seen too.  Spans stay in
memory and are written out once, by ``write``, when the run ends.

Only the traced child installs a tracer; untraced runs import nothing from
here.  ``geometry.build_curve`` is the one call traced with tracemalloc,
which runs only inside that call.
"""

import functools
import importlib
import inspect
import json
import os
import time
import tracemalloc

LAYERS = ("radial", "geometry", "scalings", "spectrum", "resonance", "tube",
          "ansatz", "runner")

# Value and coefficient traffic of one S_eps apply on a complex128 field:
# the field is read and the result written (16 bytes each per node), and
# the real coefficient fields metric_a, ds_a and V_amb are read (8 each).
_S_EPS_BYTES_PER_NODE = 16 + 16 + 3 * 8


def _s_eps_flops_per_node(grid):
    """Real flops per tube node of one S_eps apply, counted from stencils.

    Each stencil tap on a complex value with a real weight is a multiply
    and an add on both parts (4 flops).  Along s there are 3 + 2 taps
    (second and first difference); along each z axis 5 + 4 taps at order 4
    or 3 + 2 at order 2.  The metric terms, the potential and the
    nonlinearity add 10 complex-by-real operations (20 flops) per node.
    """
    z_taps = 9 if grid.stencil_order == 4 else 5
    return 4 * (5 + grid.d * z_taps) + 20


def _add(notes, key, amount):
    notes[key] = notes.get(key, 0) + amount


def _note_build_correctors(notes, args, kwargs, result):
    curve = args[0] if args else kwargs["curve"]
    _add(notes, "ansatz.build_correctors_nodes", int(curve.M))


def _note_alpha_field(notes, args, kwargs, result):
    sf = args[0] if args else kwargs["sf"]
    _add(notes, "spectrum.alpha_field_nodes", int(sf.s.size))


def _note_apply_S_eps(notes, args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    _add(notes, "tube.apply_S_eps_bytes_computed",
         int(values.size) * _S_EPS_BYTES_PER_NODE)
    _add(notes, "tube.apply_S_eps_flops_computed",
         int(values.size) * _s_eps_flops_per_node(grid))


def _note_gap_scan(notes, args, kwargs, result):
    _add(notes, "resonance.gap_scan_points", len(result))


def _note_emit_report(notes, args, kwargs, result):
    _add(notes, "runner.report_bytes",
         sum(os.path.getsize(path) for path in result))


def _note_build_tube_grid(notes, args, kwargs, result):
    notes.setdefault("tube.z_shapes", []).append(
        [int(result.n_s)] + [int(v) for v in result.z_shape])


_AFTER = {
    "ansatz.build_correctors": _note_build_correctors,
    "spectrum.alpha_field": _note_alpha_field,
    "tube.apply_S_eps": _note_apply_S_eps,
    "resonance.gap_scan": _note_gap_scan,
    "runner.emit_report": _note_emit_report,
    "tube.build_tube_grid": _note_build_tube_grid,
}


def _span_name(qual, args, kwargs):
    if qual.startswith("runner.stage_"):
        return "runner.stage." + qual[len("runner.stage_"):]
    if qual == "ansatz.assemble_ansatz":
        params = kwargs.get("params", args[5] if len(args) > 5 else None)
        level = 2 if params is None else params.level
        return f"{qual}.L{level}"
    return qual


class Tracer:
    """In-memory span recorder for one run of one workload."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []      # [name, start, end, parent index or -1]
        self.notes = {}      # quantities observed at the call boundaries
        self._stack = []

    def install(self):
        """Wrap the public functions of every layer module, in place."""
        modules = [importlib.import_module(f"nlscurve.{m}") for m in LAYERS]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for fname, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not fname.startswith("_")):
                    wrapped[fn] = self._wrap(f"{short}.{fname}", fn)
        for mod in modules:
            for fname, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, fname, wrapped[val])
                elif isinstance(val, dict):
                    for key, entry in val.items():
                        if inspect.isfunction(entry) and entry in wrapped:
                            val[key] = wrapped[entry]
        return len(wrapped)

    def _wrap(self, qual, fn):
        after = _AFTER.get(qual)
        with_memory = qual == "geometry.build_curve"
        spans, stack, notes = self.spans, self._stack, self.notes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([_span_name(qual, args, kwargs), 0.0, 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            memory = with_memory and not tracemalloc.is_tracing()
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = "geometry.build_curve_peak_mb"
                    notes[key] = max(notes.get(key, 0.0), peak)
            if after is not None:
                after(notes, args, kwargs, result)
            return result

        return traced

    def write(self, path):
        """Write every span as [name, start, end, parent, run id]."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": [s + [self.run_id] for s in self.spans],
                       "notes": self.notes}, fh)
