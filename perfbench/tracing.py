"""Span tracing from outside the package, and the per-layer metrics.

`install(tracer)` replaces public functions and methods of the nontrap
modules with wrappers that record one span per call: name, start, end,
parent span and a few attributes read from the arguments or the result.
Only module attributes and class attributes are replaced, so every call
that goes through a module global or a method lookup is seen; nothing
under src/ is edited.  `hamilton_field` runs hundreds of thousands of
times per report, so it is a *leaf*: its calls and seconds are added to the
open span and to a global tally instead of getting spans of their own.

Spans stay in memory and `Tracer.write` dumps them as JSON lines when the
traced repetition ends.  `layer_metrics` derives every per-layer metric
from such a file, so the numbers can be recomputed from the artefact.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LEAF = "geometry.hamilton_field"

#: span name -> attribute extractor(args, kwargs, result) -> dict
_ATTRS = {
    "flow.nontrapping_scan": lambda a, k, r: {
        "witnesses": len(r.trapped_witnesses), "sampled": r.sampled_points},
    "escape.build_tubes": lambda a, k, r: {"tubes": len(r.tubes)},
    "escape.eval_q_circ": lambda a, k, r: {"points": int(r[0].shape[0])},
    "escape.verify_proposition": lambda a, k, r: {"points": r.n_points},
    "resolvent.weighted_resolvent_norm": lambda a, k, r: {
        "iterations": r.iterations},
}

#: (module, attribute, span name); a dotted attribute is a class method
_TARGETS = [
    ("flow", "nontrapping_scan", "flow.nontrapping_scan"),
    ("flow", "classify_point", "flow.classify_point"),
    ("flow", "time_to_incoming", "flow.time_to_incoming"),
    ("flow", "batched_flow", "flow.batched_flow"),
    ("escape", "assemble_escape", "escape.assemble_escape"),
    ("escape", "build_tubes", "escape.build_tubes"),
    ("escape", "eval_q_circ", "escape.eval_q_circ"),
    ("escape", "verify_proposition", "escape.verify_proposition"),
    ("quantize", "quantize", "quantize.quantize"),
    ("quantize", "commutator_defect", "quantize.commutator_defect"),
    ("quantize", "garding_floor", "quantize.garding_floor"),
    ("resolvent", "BandedSolver.__init__", "resolvent.factor"),
    ("resolvent", "BandedSolver.solve", "resolvent.solve"),
    ("resolvent", "BandedSolver.solve_uncertified", "resolvent.solve"),
    ("resolvent", "BandedSolver.solve_adjoint", "resolvent.solve"),
    ("resolvent", "weighted_resolvent_norm",
     "resolvent.weighted_resolvent_norm"),
    ("resolvent", "h_sweep", "resolvent.h_sweep"),
    ("resolvent", "window_sup_norm", "resolvent.window_sup_norm"),
    ("resolvent", "function_of_operator", "resolvent.function_of_operator"),
    ("resolvent", "eigenvalues", "resolvent.eigenvalues"),
    ("cli", "cmd_flow_scan", "cli.cmd_flow_scan"),
    ("cli", "cmd_escape_verify", "cli.cmd_escape_verify"),
    ("cli", "cmd_calculus_tests", "cli.cmd_calculus_tests"),
    ("cli", "cmd_resolvent_sweep", "cli.cmd_resolvent_sweep"),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, attrs, leaf]
        self._stack = []
        self.leaf_calls = 0
        self.leaf_s = 0.0

    def span(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            rec = [name, time.monotonic(), None, parent, {}, [0, 0.0]]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic()
                self._stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.monotonic() - t0
                self.leaf_calls += 1
                self.leaf_s += dt
                if self._stack:
                    tally = self.spans[self._stack[-1]][5]
                    tally[0] += 1
                    tally[1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path):
        """One JSON object per line: a header with the leaf tally, then
        one line per span in start order."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"leaf": LEAF, "leaf_calls": self.leaf_calls,
                                 "leaf_s": self.leaf_s}) + "\n")
            for i, (name, t0, t1, parent, attrs, leaf) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": t0, "end": t1,
                    "parent": parent, "attrs": attrs,
                    "leaf_calls": leaf[0], "leaf_s": leaf[1]}) + "\n")


def _function_of_operator_name(fn, tracer):
    """function_of_operator gets a span named after its method, so the
    eigen and Helffer-Sjostrand paths are timed apart."""
    spans = {m: tracer.span(f"resolvent.function_of_operator[{m}]", fn)
             for m in ("eigen", "helffer_sjostrand")}

    def wrapper(op, f, method="eigen", *args, **kwargs):
        return spans.get(method, fn)(op, f, method, *args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer):
    """Wrap the public entry points of every traced nontrap module."""
    import importlib

    mods = {m: importlib.import_module(f"nontrap.{m}")
            for m in ("geometry", "flow", "escape", "quantize", "resolvent",
                      "cli")}
    mods["geometry"].hamilton_field = tracer.leaf(mods["geometry"].hamilton_field)
    for mod, attr, name in _TARGETS:
        owner = mods[mod]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        fn = getattr(owner, attr)
        if name == "resolvent.function_of_operator":
            wrapped = _function_of_operator_name(fn, tracer)
        else:
            wrapped = tracer.span(name, fn, _ATTRS.get(name))
        setattr(owner, attr, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics from a span file
# ---------------------------------------------------------------------------

def read_spans(path):
    with open(path) as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return header, spans


def layer_metrics(header, spans):
    """Every per-layer metric derivable from the span file, with unit.

    Times are inclusive span durations unless the name says otherwise;
    self time is a span minus its child spans and the leaf calls made
    directly inside it."""
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] >= 0:
            child_s[s["parent"]] += s["end"] - s["start"]
    names = {s["id"]: s["name"] for s in spans}

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def count(name):
        return len(by_name[name])

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    def self_s(name):
        return sum(s["end"] - s["start"] - child_s[s["id"]] - s["leaf_s"]
                   for s in by_name[name])

    # adjoint solves run through solve_uncertified: count outermost only
    solves = [s for s in by_name["resolvent.solve"]
              if names.get(s["parent"]) != "resolvent.solve"]
    norms = count("resolvent.weighted_resolvent_norm")
    iters = attr("resolvent.weighted_resolvent_norm", "iterations")
    eigen = ("resolvent.function_of_operator[eigen]", "resolvent.eigenvalues")
    values = {
        "flow.scan_s": (total("flow.nontrapping_scan"), "s"),
        "flow.scan_calls": (count("flow.nontrapping_scan"), "count"),
        "flow.points_classified": (count("flow.classify_point"), "count"),
        "flow.witnesses": (attr("flow.nontrapping_scan", "witnesses"), "count"),
        "flow.incoming_s": (total("flow.time_to_incoming"), "s"),
        "flow.incoming_calls": (count("flow.time_to_incoming"), "count"),
        "flow.batched_s": (total("flow.batched_flow"), "s"),
        "flow.batched_calls": (count("flow.batched_flow"), "count"),
        "geometry.field_calls": (header["leaf_calls"], "count"),
        "geometry.field_s": (header["leaf_s"], "s"),
        "escape.assemble_s": (self_s("escape.assemble_escape"), "s"),
        "escape.tubes_s": (total("escape.build_tubes"), "s"),
        "escape.tubes": (attr("escape.build_tubes", "tubes"), "count"),
        "escape.q_circ_s": (total("escape.eval_q_circ"), "s"),
        "escape.q_circ_calls": (count("escape.eval_q_circ"), "count"),
        "escape.q_circ_points": (attr("escape.eval_q_circ", "points"), "count"),
        "escape.verify_s": (total("escape.verify_proposition"), "s"),
        "escape.verify_points": (attr("escape.verify_proposition", "points"),
                                 "count"),
        "quantize.commutator_s": (total("quantize.commutator_defect"), "s"),
        "quantize.garding_s": (total("quantize.garding_floor"), "s"),
        "quantize.quantize_calls": (count("quantize.quantize"), "count"),
        "resolvent.factorizations": (count("resolvent.factor"), "count"),
        "resolvent.factor_s": (total("resolvent.factor"), "s"),
        "resolvent.solves": (len(solves), "count"),
        "resolvent.solve_s": (sum(s["end"] - s["start"] for s in solves), "s"),
        "resolvent.power_iterations": (iters, "count"),
        "resolvent.iterations_per_norm": (iters / norms if norms else 0.0,
                                          "count"),
        "resolvent.norm_s": (total("resolvent.weighted_resolvent_norm"), "s"),
        "resolvent.sweep_s": (total("resolvent.h_sweep"), "s"),
        "resolvent.window_s": (total("resolvent.window_sup_norm"), "s"),
        "resolvent.hs_s": (total("resolvent.function_of_operator"
                                 "[helffer_sjostrand]"), "s"),
        "resolvent.eigen_s": (sum(total(n) for n in eigen), "s"),
        "cli.flow_scan_s": (total("cli.cmd_flow_scan"), "s"),
        "cli.escape_verify_s": (total("cli.cmd_escape_verify"), "s"),
        "cli.calculus_s": (total("cli.cmd_calculus_tests"), "s"),
        "cli.sweep_s": (total("cli.cmd_resolvent_sweep"), "s"),
        "trace.spans": (len(spans), "count"),
    }
    return values
