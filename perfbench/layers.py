"""Which tlabel functions the traced run wraps, and the per-layer metrics.

Each target is patched where its caller looks the name up: a function a
module imported by name is wrapped in that module as well as in its home
module, and methods are wrapped on the class that defines them.  The same
span name covers every site of one function.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from spans import outermost, self_times

KINDS = (
    "sparse_edge", "light_edge", "deg4_low_neighbor", "two_deg2",
    "twin_low_neighbor", "face_566", "face_567", "alternator",
)

# span name -> lookup sites, as "module" or "module:Class" plus attribute
SITES = {
    "graphs.PlaneGraph.__init__": [("graphs:PlaneGraph", "__init__")],
    "graphs.Graph.components": [("graphs:Graph", "components")],
    "graphs.trace_faces": [("graphs", "trace_faces")],
    "families.stacked_triangulation": [("families", "stacked_triangulation")],
    "families.random_planar": [("families", "random_planar")],
    "io.parse_graph": [("io", "parse_graph"), ("cli", "parse_graph")],
    "io.parse_labeling": [("io", "parse_labeling"), ("cli", "parse_labeling")],
    "io.serialize_graph": [("io", "serialize_graph"), ("cli", "serialize_graph")],
    "io.serialize_labeling": [("io", "serialize_labeling"), ("cli", "serialize_labeling")],
    "labeling.validate": [("reduction", "validate"), ("cli", "validate")],
    "labeling.available": [("exact", "available")],
    "labeling.available_edge": [("reduction", "available_edge")],
    "labeling.available_vertex": [("reduction", "available_vertex")],
    "exact.lambda_exact": [("exact", "lambda_exact"), ("cli", "lambda_exact")],
    "exact.find_labeling": [("exact", "find_labeling"), ("reduction", "find_labeling")],
    "exact.bounds": [("exact", "bounds")],
    "listcolor.list_edge_color": [("listcolor", "list_edge_color"),
                                  ("reduction", "list_edge_color")],
    "reduction.label_planar": [("reduction", "label_planar"), ("cli", "label_planar")],
    "reduction.find_configuration": [("reduction", "find_configuration")],
    "reduction.reduce_config": [("reduction", "reduce_config")],
    "discharge.audit": [("discharge", "audit"), ("cli", "audit")],
    "discharge.scan_structure": [("discharge", "scan_structure")],
    "discharge.initial_charges": [("discharge", "initial_charges")],
    "discharge.classify_faces": [("discharge", "classify_faces")],
    "discharge.apply_rules": [("discharge", "apply_rules")],
    "cli.main": [("cli", "main")],
}

# layer group -> the span names whose time it covers
GROUPS = {
    "plane_build": {"graphs.PlaneGraph.__init__"},
    "components": {"graphs.Graph.components"},
    "trace_faces": {"graphs.trace_faces"},
    "generate": {"families.stacked_triangulation", "families.random_planar"},
    "parse": {"io.parse_graph", "io.parse_labeling"},
    "serialize": {"io.serialize_graph", "io.serialize_labeling"},
    "validate": {"labeling.validate"},
    "available": {"labeling.available", "labeling.available_edge",
                  "labeling.available_vertex"},
    "find_labeling": {"exact.find_labeling"},
    "bounds": {"exact.bounds"},
    "listcolor": {"listcolor.list_edge_color"},
    "label_planar": {"reduction.label_planar"},
    "find": {"reduction.find_configuration"},
    "reduce": {"reduction.reduce_config"},
    "scan": {"discharge.scan_structure"},
    "charges": {"discharge.initial_charges"},
    "rules": {"discharge.apply_rules"},
    "cli": {"cli.main"},
}

# metric name -> (unit, how it is derived); see per_layer_metrics
METRICS = {
    "graphs.plane_builds": ("count", "calls", "plane_build"),
    "graphs.plane_build_s": ("s", "time", "plane_build"),
    "graphs.components_calls": ("count", "calls", "components"),
    "graphs.components_s": ("s", "time", "components"),
    "graphs.trace_faces_s": ("s", "time", "trace_faces"),
    "families.generate_s": ("s", "setup_time", "generate"),
    "io.parse_s": ("s", "time", "parse"),
    "io.serialize_s": ("s", "time", "serialize"),
    "labeling.validate_calls": ("count", "calls", "validate"),
    "labeling.validate_s": ("s", "time", "validate"),
    "labeling.available_calls": ("count", "calls", "available"),
    "labeling.available_us": ("us", "us_per_call", "available"),
    "exact.nodes": ("count", "counter", "exact.nodes"),
    "exact.us_per_node": ("us", "us_per_node", "find_labeling"),
    "exact.bounds_s": ("s", "time", "bounds"),
    "exact.find_labeling_calls": ("count", "calls", "find_labeling"),
    "exact.find_labeling_s": ("s", "time", "find_labeling"),
    "listcolor.calls": ("count", "calls", "listcolor"),
    "listcolor.s": ("s", "time", "listcolor"),
    "reduction.find_calls": ("count", "calls", "find"),
    "reduction.find_s": ("s", "time", "find"),
    "reduction.reduce_calls": ("count", "calls", "reduce"),
    "reduction.reduce_s": ("s", "time", "reduce"),
    "reduction.driver_self_s": ("s", "self_time", "label_planar"),
    "reduction.records": ("count", "counter", "reduction.records"),
    "reduction.splits": ("count", "counter", "reduction.splits"),
    "reduction.base_cases": ("count", "counter", "reduction.base_cases"),
    "reduction.steps": ("count", "counter", "reduction.steps"),
    **{"reduction.kind." + k: ("count", "counter", "reduction.kind." + k) for k in KINDS},
    "reduction.splits_per_reduction": ("ratio", "splits_per_reduction", "label_planar"),
    "reduction.min_slack": ("colors", "min_slack", "label_planar"),
    "discharge.scan_s": ("s", "time", "scan"),
    "discharge.violations": ("count", "counter", "discharge.violations"),
    "discharge.charges_s": ("s", "time", "charges"),
    "discharge.rules_s": ("s", "time", "rules"),
    "cli.main_s": ("s", "time", "cli"),
    "cli.self_s": ("s", "self_time", "cli"),
    "trace.overhead_frac": ("ratio", "overhead", None),
}

# the span whose results feed each counter
COUNTER_SPANS = {
    "exact.nodes": "exact.find_labeling",
    "discharge.violations": "discharge.scan_structure",
    **{"reduction." + k: "reduction.label_planar"
       for k in ("records", "splits", "base_cases", "steps")},
    **{"reduction.kind." + k: "reduction.label_planar" for k in KINDS},
}


def targets() -> list[tuple]:
    """(span name, owner, attribute) for every lookup site."""
    out = []
    for name, sites in SITES.items():
        for where, attr in sites:
            module, _, cls = where.partition(":")
            owner = importlib.import_module("tlabel." + module)
            if cls:
                owner = getattr(owner, cls, None)
                if owner is None:
                    continue
            out.append((name, owner, attr))
    return out


class Counters:
    """Exact counts read from the results of wrapped calls."""

    def __init__(self):
        self.counts: dict = defaultdict(int)
        self.min_slack = None

    def clear(self) -> None:
        self.counts.clear()
        self.min_slack = None

    def hooks(self) -> dict:
        return {
            "reduction.label_planar": self._on_label,
            "exact.find_labeling": self._on_find_labeling,
            "discharge.scan_structure": self._on_scan,
        }

    def _on_label(self, result) -> None:
        _, trace = result
        c = self.counts
        c["reduction.records"] += len(trace.records)
        c["reduction.splits"] += trace.splits
        c["reduction.base_cases"] += trace.base_cases
        for rec in trace.records:
            c["reduction.kind." + rec.kind] += 1
            c["reduction.steps"] += len(rec.steps)
            for step in rec.steps:
                slack = step.measured - step.required
                if self.min_slack is None or slack < self.min_slack:
                    self.min_slack = slack

    def _on_find_labeling(self, result) -> None:
        self.counts["exact.nodes"] += result[1]

    def _on_scan(self, result) -> None:
        self.counts["discharge.violations"] += len(result)


def per_layer_metrics(tracer, counters: Counters, traced_rounds: int,
                      overhead: float) -> tuple[dict, list]:
    """Every per-layer metric, per round, and the metrics left absent.

    Times, calls and counts are totals over the traced rounds divided by
    their number, so an exact count reads the same on every run of one
    seed.  ``families.generate_s`` is the time of the one traced set-up,
    because generation happens only there.  A metric whose spans were never
    installed (the function no longer exists) is absent, not zero.
    """
    names, parent, op = tracer.names, tracer.parent, tracer.op
    start, end = tracer.start, tracer.end
    selves = None
    cache: dict = {}

    def spans(group: str) -> tuple[list, list, int]:
        # (outermost measured spans, outermost set-up spans, measured calls)
        if group not in cache:
            members = GROUPS[group]
            top = outermost(names, parent, frozenset(members))
            cache[group] = (
                [i for i in top if op[i] >= 0],
                [i for i in top if op[i] < 0],
                sum(1 for i, n in enumerate(names) if n in members and op[i] >= 0),
            )
        return cache[group]

    def seconds(idx) -> float:
        return sum(end[i] - start[i] for i in idx) * 1e-9

    metrics, absent = {}, []
    for metric, (unit, how, arg) in METRICS.items():
        needs = GROUPS.get(arg) or {COUNTER_SPANS.get(arg, arg)}
        if how != "overhead" and not needs & tracer.installed:
            absent.append(metric)
            continue
        if how == "calls":
            value = spans(arg)[2] / traced_rounds
        elif how == "time":
            value = seconds(spans(arg)[0]) / traced_rounds
        elif how == "setup_time":
            value = seconds(spans(arg)[1])
        elif how == "self_time":
            if selves is None:
                selves = self_times(start, end, parent)
            value = sum(selves[i] for i in spans(arg)[0]) * 1e-9 / traced_rounds
        elif how == "us_per_call":
            n = spans(arg)[2]
            value = seconds(spans(arg)[0]) * 1e6 / n if n else 0.0
        elif how == "us_per_node":
            n = counters.counts["exact.nodes"]
            value = seconds(spans(arg)[0]) * 1e6 / n if n else 0.0
        elif how == "counter":
            value = counters.counts[arg] / traced_rounds
        elif how == "splits_per_reduction":
            records = counters.counts["reduction.records"]
            value = counters.counts["reduction.splits"] / records if records else 0.0
        elif how == "min_slack":
            # no extension step ran: nothing fell short, reported as 0
            value = 0 if counters.min_slack is None else counters.min_slack
        else:
            value = overhead
        metrics[metric] = {"value": value, "unit": unit}
    return metrics, absent
