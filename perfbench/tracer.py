"""Spans around the public functions of airylab's layers, recorded from outside.

install() wraps every public function of the seven layer modules, and the
study runners of the CLI, under every name a module binds it to: a module
that does `from .special import airy_ai` holds its own reference, so a
function wrapped only where it is defined would miss calls from other
modules.  A span is (id, parent id, name, start, end, attributes); spans are
kept in memory and written out once, when the process ends.

layer_metrics() turns the spans of one or more processes into the per-layer
metrics of BENCHMARK.json.
"""

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

from common import LAYERS

STUDY_PREFIX = "cli.study:"


def _key(values):
    # -0.0 + 0.0 is 0.0: a cache keyed on the float arguments treats them alike
    return [v + 0.0 if isinstance(v, float) else v for v in values]


def _coeffs(V):
    poly = getattr(V, "poly", None)
    return [float(c) for c in (poly.coeffs if poly is not None else V)]


# span name -> attrs(bound arguments, result)
ATTRS = {
    "special.airy_ai": lambda a, r: {"points": int(np.size(a["x"]))},
    "special.airy_ai_prime": lambda a, r: {"points": int(np.size(a["x"]))},
    "numerics.gauss_legendre": lambda a, r: {"key": [int(a["m"])]},
    "fredholm.fredholm_det_ft": lambda a, r: {"key": _key(["ft", a["s"], a["T"], a["m"], a["L"]])},
    "fredholm.fredholm_det_airy": lambda a, r: {"key": _key(["airy", a["s"], a["m"], a["L"]])},
    "equilibrium.build_equilibrium": lambda a, r: {"key": _coeffs(a["V"])},
    "ensemble.build_grid": lambda a, r: {"nodes": int(r.nodes.size)},
    "ensemble.stieltjes_recurrence": lambda a, r: {"steps": int(a["K"]) * int(np.size(a["nodes"]))},
    "ensemble.log_lstat_det": lambda a, r: {
        "flops": 2 * int(a["n"]) ** 2 * int(a["grid"].nodes.size)},
    "idpii.solve_idpii": lambda a, r: {
        "key": _key([float(v) for v in a.values()]), "steps": int(a["n_steps"]),
        "nodes": int(r.xi_grid.size)},
    "cli.emit": lambda a, r: {"records": len(a["records"])},
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next = 0

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)
        sig = inspect.signature(fn) if attrs else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            extra = None
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = attrs(bound.arguments, result)
            spans.append((sid, parent, name, t0, t1, extra))
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper.span_name = name
        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, extra in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "attrs": extra}) + "\n")


def load_spans(path):
    with open(path) as fh:
        return [(d["id"], d["parent"], d["name"], d["start"], d["end"], d["attrs"])
                for d in map(json.loads, fh)]


def install(tracer):
    """Wrap the public functions of every layer under every name bound to them.

    Returns the sorted span names.  Classes are left alone, so isinstance
    checks inside the program keep working.
    """
    mods = [importlib.import_module(f"airylab.{name}") for name in LAYERS]
    wrappers = {}

    def target(fn, name):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = tracer.wrap(name, fn)

    for name, mod in zip(LAYERS, mods):
        for key, fn in getattr(mod, "_STUDIES", {}).items():
            target(fn, STUDY_PREFIX + key)
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and val.__module__ == mod.__name__
                    and not attr.startswith("_")):
                target(val, f"{name}.{attr}")
    for mod in mods:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and id(val) in wrappers:
                setattr(mod, attr, wrappers[id(val)])
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if inspect.isfunction(v) and id(v) in wrappers:
                        val[k] = wrappers[id(v)]
    return sorted(w.span_name for w in wrappers.values())


# ---------------------------------------------------------------- metrics

PER_LAYER_UNITS = {
    "special.airy_calls": "count",
    "special.airy_points": "count",
    "special.airy_s": "s",
    "special.airy_ns_per_point": "ns",
    "numerics.gauss_legendre_calls": "count",
    "numerics.gauss_legendre_distinct": "count",
    "numerics.gauss_legendre_s": "s",
    "numerics.logdet_calls": "count",
    "numerics.logdet_s": "s",
    "fredholm.dets": "count",
    "fredholm.distinct_dets": "count",
    "fredholm.det_s": "s",
    "fredholm.assembly_self_s": "s",
    "equilibrium.builds": "count",
    "equilibrium.distinct_builds": "count",
    "equilibrium.build_s": "s",
    "ensemble.grid_nodes": "count",
    "ensemble.recurrence_calls": "count",
    "ensemble.recurrence_s": "s",
    "ensemble.recurrence_node_steps": "count",
    "ensemble.weighted_values_s": "s",
    "ensemble.deformation_s": "s",
    "ensemble.deformation_flops": "flop",
    "ensemble.edge_kernel_calls": "count",
    "ensemble.edge_kernel_s": "s",
    "idpii.solves": "count",
    "idpii.distinct_solves": "count",
    "idpii.solve_s": "s",
    "idpii.rk4_steps": "count",
    "idpii.ns_per_step_node": "ns",
    "idpii.kinf_calls": "count",
    "idpii.kinf_s": "s",
    "cli.study_self_s": "s",
    "cli.emit_s": "s",
    "cli.records": "count",
}

AIRY = ("special.airy_ai", "special.airy_ai_prime")
DETS = ("fredholm.fredholm_det_ft", "fredholm.fredholm_det_airy")
# the children subtracted from a determinant span to leave its assembly time
DET_CHILDREN = AIRY + ("numerics.gauss_legendre", "numerics.lu_logdet")


def _process_metrics(spans, acc):
    by_id = {sp[0]: sp for sp in spans}
    children = defaultdict(list)
    for sp in spans:
        children[sp[1]].append(sp[0])
    distinct = defaultdict(set)

    def dur(sp):
        return sp[4] - sp[3]

    def covered(sid, names):
        """Time of the topmost descendants of sid whose names are in names."""
        total = 0.0
        for c in children[sid]:
            sp = by_id[c]
            total += dur(sp) if sp[2] in names else covered(c, names)
        return total

    for sp in spans:
        name, extra = sp[2], sp[5] or {}
        if "key" in extra:
            distinct[name].add(json.dumps(extra["key"]))
        if name in AIRY:
            acc["special.airy_calls"] += 1
            acc["special.airy_points"] += extra["points"]
            acc["special.airy_s"] += dur(sp)
        elif name == "numerics.gauss_legendre":
            acc["numerics.gauss_legendre_calls"] += 1
            acc["numerics.gauss_legendre_s"] += dur(sp)
        elif name == "numerics.lu_logdet":
            acc["numerics.logdet_calls"] += 1
            acc["numerics.logdet_s"] += dur(sp)
        elif name in DETS:
            acc["fredholm.dets"] += 1
            acc["fredholm.det_s"] += dur(sp)
            acc["fredholm.assembly_self_s"] += dur(sp) - covered(sp[0], DET_CHILDREN)
        elif name == "equilibrium.build_equilibrium":
            acc["equilibrium.builds"] += 1
            acc["equilibrium.build_s"] += dur(sp)
        elif name == "ensemble.build_grid":
            acc["ensemble.grid_nodes"] += extra["nodes"]
        elif name == "ensemble.stieltjes_recurrence":
            acc["ensemble.recurrence_calls"] += 1
            acc["ensemble.recurrence_s"] += dur(sp)
            acc["ensemble.recurrence_node_steps"] += extra["steps"]
        elif name == "ensemble.weighted_values":
            acc["ensemble.weighted_values_s"] += dur(sp)
        elif name == "ensemble.log_lstat_det":
            acc["ensemble.deformation_s"] += dur(sp)
            acc["ensemble.deformation_flops"] += extra["flops"]
        elif name == "ensemble.rescaled_edge_kernel":
            acc["ensemble.edge_kernel_calls"] += 1
            acc["ensemble.edge_kernel_s"] += dur(sp)
        elif name == "idpii.solve_idpii":
            acc["idpii.solves"] += 1
            acc["idpii.solve_s"] += dur(sp)
            acc["idpii.rk4_steps"] += extra["steps"]
            acc["_step_nodes"] += extra["steps"] * extra["nodes"]
        elif name == "idpii.k_infinity":
            acc["idpii.kinf_calls"] += 1
            acc["idpii.kinf_s"] += dur(sp)
        elif name == "cli.emit":
            acc["cli.emit_s"] += dur(sp)
            acc["cli.records"] += extra["records"]
        elif name.startswith(STUDY_PREFIX):
            acc["cli.study_self_s"] += dur(sp) - sum(dur(by_id[c]) for c in children[sp[0]])
    acc["numerics.gauss_legendre_distinct"] += len(distinct["numerics.gauss_legendre"])
    acc["fredholm.distinct_dets"] += sum(len(distinct[d]) for d in DETS)
    acc["equilibrium.distinct_builds"] += len(distinct["equilibrium.build_equilibrium"])
    acc["idpii.distinct_solves"] += len(distinct["idpii.solve_idpii"])


def layer_metrics(processes):
    """Per-layer metrics from the spans of each process of one pass.

    Counts and times add up over the processes; the distinct counts are taken
    within each process, since a value computed in one process cannot serve
    another, and then added.
    """
    acc = defaultdict(float)
    for spans in processes:
        _process_metrics(spans, acc)
    out = {name: acc[name] for name in PER_LAYER_UNITS}
    points, step_nodes = acc["special.airy_points"], acc["_step_nodes"]
    out["special.airy_ns_per_point"] = 1e9 * acc["special.airy_s"] / points if points else 0.0
    out["idpii.ns_per_step_node"] = 1e9 * acc["idpii.solve_s"] / step_nodes if step_nodes else 0.0
    return out
