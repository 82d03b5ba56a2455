"""Spans recorded from outside trispec, around the calls into each layer.

`Tracer.install` replaces each traced function in every trispec module that
holds it, so each caller looks up the wrapper under the name it already
uses: the `from`-imported copies in `isosceles`, `transplant` and `cli`, the
scipy names `fem` calls, and `fem.solve_extrapolated`, which
`certify.lemma62_verify` imports lazily.  Spans stay in memory until
`write_jsonl`; `layer_metrics` turns them into the per-layer numbers.
"""

import functools
import inspect
import json
import statistics
import sys
import time

# (span name, module that holds the original, attribute)
TARGETS = (
    ("fem.mesh_triangle", "trispec.fem", "mesh_triangle"),
    ("fem.assemble", "trispec.fem", "assemble"),
    ("fem.eigsh", "trispec.fem", "eigsh"),
    ("fem.splu", "trispec.fem", "splu"),
    ("fem.solve_lowest", "trispec.fem", "solve_lowest"),
    ("fem.solve_extrapolated", "trispec.fem", "solve_extrapolated"),
    ("fem.rayleigh_data", "trispec.fem", "rayleigh_data"),
    ("certify.boundary_sup", "trispec.certify", "boundary_sup"),
    ("certify.l2_lower", "trispec.certify", "l2_lower"),
    ("certify.sector_eigenvalue", "trispec.certify", "sector_eigenvalue"),
    ("certify.lemma62_verify", "trispec.certify", "lemma62_verify"),
    ("isosceles.sweep", "trispec.isosceles", "sweep"),
    ("isosceles.verify_monotonicity", "trispec.isosceles",
     "verify_monotonicity"),
    ("transplant.theorem1_verify", "trispec.transplant", "theorem1_verify"),
    ("equilateral.counting_exact", "trispec.equilateral", "counting_exact"),
    ("reports.to_json", "trispec.reports", "to_json"),
)


def _dofs(bound):
    return {"dofs": int(bound.arguments["A"].shape[0])}


def _problem(bound):
    mesh = bound.arguments["mesh"]
    edges = sorted(bound.arguments["dirichlet_edges"])
    return {"problem": [mesh.triangle.vertices.ravel().tolist(), mesh.level,
                        edges]}


def _points(bound):
    return {"points": int(bound.arguments["num"])}


# Span attributes read from the call's arguments (defaults applied).
ATTRIBUTES = {
    "fem.eigsh": _dofs,
    "fem.splu": _dofs,
    "fem.solve_lowest": _problem,
    "certify.boundary_sup": _points,
}


class Tracer:
    """Records (name, start, end, parent, request, attrs) for wrapped calls."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        attrs = ATTRIBUTES.get(name)
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None,
                      self.request, None]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if attrs is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record[5] = attrs(bound)
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "trispec" or key.startswith("trispec.")]
        for name, module, attr in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request, attrs) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": request,
                                     "attrs": attrs}) + "\n")


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# Per-layer metric names and units; README.md says what each should move.
PER_LAYER_UNITS = {
    "fem.solve_lowest.calls": "count",
    "fem.distinct_problems": "count",
    "fem.solve_useful_ratio": "ratio",
    "fem.lookup_hit_ratio": "ratio",
    "fem.eigsh.s": "s",
    "fem.eigsh.calls": "count",
    "fem.free_dofs": "count",
    "fem.eigsh.dofs_per_s": "1/s",
    "fem.splu.s": "s",
    "fem.mesh_triangle.s": "s",
    "fem.assemble.s": "s",
    "fem.assemble.calls": "count",
    "fem.solve_lowest.self_s": "s",
    "fem.rayleigh_data.self_s": "s",
    "certify.boundary_sup.s": "s",
    "certify.boundary_sup.points": "count",
    "certify.l2_lower.s": "s",
    "certify.sector_eigenvalue.s": "s",
    "isosceles.sweep.self_s": "s",
    "isosceles.verify_monotonicity.s": "s",
    "transplant.theorem1_verify.self_s": "s",
    "equilateral.counting_exact.s": "s",
    "reports.to_json.s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans):
    """Per-layer totals of one traced pass (everything but the overhead).

    Self time is a span's duration minus the durations of its children.
    """
    total, own, calls = {}, {}, {}
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    for s, c in zip(spans, child):
        dur = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + dur
        own[s["name"]] = own.get(s["name"], 0.0) + dur - c
        calls[s["name"]] = calls.get(s["name"], 0) + 1

    def attr_values(name, key):
        return [s["attrs"][key] for s in spans if s["name"] == name]

    solves = calls.get("fem.solve_lowest", 0)
    distinct = len({json.dumps(p)
                    for p in attr_values("fem.solve_lowest", "problem")})
    lookups = 2 * (calls.get("fem.solve_extrapolated", 0)
                   + calls.get("fem.rayleigh_data", 0))
    dofs = sum(attr_values("fem.eigsh", "dofs"))
    eigsh_s = total.get("fem.eigsh", 0.0)
    return {
        "fem.solve_lowest.calls": solves,
        "fem.distinct_problems": distinct,
        "fem.solve_useful_ratio": distinct / solves if solves else 0.0,
        "fem.lookup_hit_ratio": 1.0 - solves / lookups if lookups else 0.0,
        "fem.eigsh.s": eigsh_s,
        "fem.eigsh.calls": calls.get("fem.eigsh", 0),
        "fem.free_dofs": dofs,
        "fem.eigsh.dofs_per_s": dofs / eigsh_s if eigsh_s else 0.0,
        "fem.splu.s": total.get("fem.splu", 0.0),
        "fem.mesh_triangle.s": total.get("fem.mesh_triangle", 0.0),
        "fem.assemble.s": total.get("fem.assemble", 0.0),
        "fem.assemble.calls": calls.get("fem.assemble", 0),
        "fem.solve_lowest.self_s": own.get("fem.solve_lowest", 0.0),
        "fem.rayleigh_data.self_s": own.get("fem.rayleigh_data", 0.0),
        "certify.boundary_sup.s": total.get("certify.boundary_sup", 0.0),
        "certify.boundary_sup.points":
            sum(attr_values("certify.boundary_sup", "points")),
        "certify.l2_lower.s": total.get("certify.l2_lower", 0.0),
        "certify.sector_eigenvalue.s":
            total.get("certify.sector_eigenvalue", 0.0),
        "isosceles.sweep.self_s": own.get("isosceles.sweep", 0.0),
        "isosceles.verify_monotonicity.s":
            total.get("isosceles.verify_monotonicity", 0.0),
        "transplant.theorem1_verify.self_s":
            own.get("transplant.theorem1_verify", 0.0),
        "equilateral.counting_exact.s":
            total.get("equilateral.counting_exact", 0.0),
        "reports.to_json.s": total.get("reports.to_json", 0.0),
    }


def median_metrics(per_pass):
    """Median of each metric over passes (counts repeat exactly)."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
