"""Span recorder for the traced benchmark run.

Spans are opened around calls into the public functions of each cusplab
module by rebinding those names from the benchmark's side; the program
itself is not edited.  A span records its name, start, end and parent span,
plus the work counts of that call.  Each round runs in its own process, so
the spans of one process are the spans of one round.  Spans stay in memory
and are written out when the round ends.

Where a module imports a function by name (modes.py does so for `h_pair`,
`modes_below` and `radial_rep_l0`), the caller looks the function up in its
own namespace, so the wrapper is installed under that name as well.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from functools import wraps


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _field_points(args, kwargs, result):
    f = _arg(args, kwargs, 1, "f")
    return {"points": f.torus_resolution**f.torus_dims * len(f.grid)}


def _hpair_nodes(args, kwargs, result):
    return {"nodes": len(result.exponent)}


def _scan_elements(args, kwargs, result):
    return {"elements": len(_arg(args, kwargs, 0, "sigma"))}


def _picard_counts(args, kwargs, result):
    state = result[1]
    return {"iterations": state.iteration, "modes_solved": state.diagnostics["modes_solved"]}


# (module, attribute, span name, counter); class attributes are "Class.attr"
PATCH_POINTS = [
    ("cusplab.bessel", "h_pair", "bessel.h_pair", _hpair_nodes),
    ("cusplab.modes", "h_pair", "bessel.h_pair", _hpair_nodes),
    ("cusplab.modes", "exp_weighted_cumsum", "modes.scan", _scan_elements),
    ("cusplab.modes", "exp_weighted_revcumsum", "modes.scan", _scan_elements),
    ("cusplab.modes", "mode_solve", "modes.mode_solve", None),
    ("cusplab.modes", "assemble_representation", "modes.assemble_representation", None),
    ("cusplab.modes", "picard_solve", "modes.picard_solve", _picard_counts),
    ("cusplab.spectrum", "modes_below", "spectrum.modes_below", None),
    ("cusplab.modes", "modes_below", "spectrum.modes_below", None),
    ("cusplab.radial", "radial_rep_l0", "radial.radial_rep_l0", None),
    ("cusplab.modes", "radial_rep_l0", "radial.radial_rep_l0", None),
    ("cusplab.geometry", "quadratic_remainder", "geometry.quadratic_remainder", _field_points),
    ("cusplab.geometry", "monge_ampere_residual", "geometry.monge_ampere_residual", _field_points),
    ("cusplab.fields", "Field.from_values", "fields.Field.from_values", None),
    ("cusplab.fields", "Field.values", "fields.Field.values", None),
    ("cusplab.cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory list of the spans of one round."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        """Open a span; the yielded dict takes the call's work counts."""
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else -1,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts.update(counter(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every patch point to a traced wrapper; restore on exit."""
        saved = []
        wrapped = {}
        try:
            for module_name, attr, name, counter in PATCH_POINTS:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(name, fn, counter)
                new = classmethod(wrapped[id(fn)]) if is_classmethod else wrapped[id(fn)]
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def round_summary(spans):
    """Per-name totals of one round: calls, inclusive s, self s, counts."""
    child_time = {}
    for sp in spans:
        if sp["parent"] >= 0:
            dur = sp["end"] - sp["start"]
            child_time[sp["parent"]] = child_time.get(sp["parent"], 0.0) + dur
    out = {}
    for i, sp in enumerate(spans):
        dur = sp["end"] - sp["start"]
        agg = out.setdefault(sp["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - child_time.get(i, 0.0)
        for key, value in sp["counts"].items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value
    return out


def _get(summary, name, field):
    agg = summary.get(name)
    if agg is None:
        return 0
    if field in ("calls", "s", "self_s"):
        return agg[field]
    return agg["counts"].get(field, 0)


# per-layer metric -> (span name, field)
LAYER_METRICS = {
    "bessel.h_pair.calls": ("bessel.h_pair", "calls"),
    "bessel.h_pair.s": ("bessel.h_pair", "s"),
    "bessel.h_pair.nodes": ("bessel.h_pair", "nodes"),
    "modes.scan.calls": ("modes.scan", "calls"),
    "modes.scan.s": ("modes.scan", "s"),
    "modes.scan.elements": ("modes.scan", "elements"),
    "modes.mode_solve.calls": ("modes.mode_solve", "calls"),
    "modes.mode_solve.self_s": ("modes.mode_solve", "self_s"),
    "modes.assemble_representation.calls": ("modes.assemble_representation", "calls"),
    "modes.assemble_representation.s": ("modes.assemble_representation", "s"),
    "modes.assemble_representation.self_s": ("modes.assemble_representation", "self_s"),
    "modes.picard_solve.iterations": ("modes.picard_solve", "iterations"),
    "modes.modes_solved": ("modes.picard_solve", "modes_solved"),
    "spectrum.modes_below.calls": ("spectrum.modes_below", "calls"),
    "spectrum.modes_below.s": ("spectrum.modes_below", "s"),
    "geometry.quadratic_remainder.calls": ("geometry.quadratic_remainder", "calls"),
    "geometry.quadratic_remainder.s": ("geometry.quadratic_remainder", "s"),
    "geometry.quadratic_remainder.self_s": ("geometry.quadratic_remainder", "self_s"),
    "geometry.monge_ampere_residual.calls": ("geometry.monge_ampere_residual", "calls"),
    "geometry.monge_ampere_residual.s": ("geometry.monge_ampere_residual", "s"),
    "geometry.monge_ampere_residual.self_s": ("geometry.monge_ampere_residual", "self_s"),
    "fields.Field.from_values.calls": ("fields.Field.from_values", "calls"),
    "fields.Field.from_values.s": ("fields.Field.from_values", "s"),
    "fields.Field.values.calls": ("fields.Field.values", "calls"),
    "fields.Field.values.s": ("fields.Field.values", "s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def layer_metrics(summaries):
    """Median over rounds of each per-layer metric, plus the collocation
    point count summed over both geometry entry points."""
    out = {}
    for metric, (name, field) in LAYER_METRICS.items():
        out[metric] = statistics.median(_get(s, name, field) for s in summaries)
    out["geometry.collocation_points"] = statistics.median(
        _get(s, "geometry.quadratic_remainder", "points")
        + _get(s, "geometry.monge_ampere_residual", "points")
        for s in summaries
    )
    return out
