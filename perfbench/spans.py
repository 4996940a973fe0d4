"""Spans around the package's public entry points, installed from outside.

``Tracer.install()`` replaces each traced function or method with a
wrapper that records one span: name, start, end, parent span and the op
id the runner set.  Module functions are replaced in every ``displace``
module that binds them, so calls made through ``from .x import y`` names
are caught too; methods are replaced on their class.  The package looks
both up at call time, so nested calls are traced as well.

Spans are kept in flat arrays for one pass of a round, reduced to
per-layer metrics by ``pass_metrics()``, and the first pass is written
out by ``dump()``.  A layer's self time is its spans' duration minus the
time their child spans cover.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import weakref
from array import array
from pathlib import Path

LAYERS = ("cli", "serialize", "expr", "gauge", "displacement", "calculus",
          "solver")

# (module, qualified attribute, layer); methods are "Class.method"
TARGETS = [
    ("expr", "parse", "expr"),
    ("expr", "evaluate", "expr"),
    ("gauge", "Gauge.__init__", "gauge"),
    ("gauge", "Gauge.__call__", "gauge"),
    ("gauge", "Gauge.measure", "gauge"),
    ("gauge", "Gauge.distinguished_sets", "gauge"),
    ("gauge", "Gauge.from_dict", "gauge"),
    ("gauge", "CumulativeQuadrature.value", "gauge"),
    ("displacement", "check_h1", "displacement"),
    ("displacement", "check_h2_usc", "displacement"),
    ("displacement", "check_h2prime", "displacement"),
    ("displacement", "check_h3", "displacement"),
    ("displacement", "check_h5", "displacement"),
    ("displacement", "check_d2_positive", "displacement"),
    ("displacement", "delta_ball", "displacement"),
    ("displacement", "gamma_estimate", "displacement"),
    ("displacement", "gauge_from_smooth", "displacement"),
    ("calculus", "delta_derivative", "calculus"),
    ("calculus", "stieltjes_integral", "calculus"),
    ("calculus", "path_integral", "calculus"),
    ("calculus", "ftc_forward_check", "calculus"),
    ("calculus", "ftc2_check", "calculus"),
    ("solver", "solve_ivp", "solver"),
    ("solver", "solve_surface", "solver"),
    ("solver", "verify_solution", "solver"),
    ("solver", "IvpSolution.value", "solver"),
    ("serialize", "dumps", "serialize"),
    ("serialize", "csv_lines", "serialize"),
    ("solver", "IvpSolution.to_csv", "serialize"),
]

CHECKS = {"check_h1", "check_h2_usc", "check_h2prime", "check_h3", "check_h5",
          "check_d2_positive"}

# metrics that must repeat exactly between passes over the same round
COUNT_METRICS = (
    "expr.parses", "expr.evals", "gauge.queries", "gauge.inserts",
    "gauge.density_evals", "gauge.density_evals_per_insert", "gauge.hit_ratio",
    "displacement.checks", "displacement.ball_calls", "calculus.derivatives",
    "calculus.quotient_samples", "solver.nodes", "solver.rhs_evals",
    "solver.rhs_evals_per_node", "solver.picard_sweeps", "solver.atoms",
    "serialize.calls", "serialize.bytes",
)

# unit of every per-layer metric a traced run reports
UNITS = {
    "cli.interp_s": "s", "cli.import_s": "s", "cli.compute_s": "s",
    "cli.stdout_bytes": "bytes",
    "serialize.calls": "count", "serialize.bytes": "bytes",
    "serialize.self_s": "s",
    "expr.parses": "count", "expr.evals": "count", "expr.eval_us": "us",
    "expr.self_s": "s",
    "gauge.queries": "count", "gauge.inserts": "count",
    "gauge.density_evals": "count", "gauge.density_evals_per_insert": "ratio",
    "gauge.fresh_query_us": "us", "gauge.hit_ratio": "ratio",
    "gauge.cached_query_us": "us", "gauge.dsets_s": "s",
    "gauge.construct_s": "s", "gauge.self_s": "s",
    "displacement.checks": "count", "displacement.h2usc_s": "s",
    "displacement.d2_s": "s", "displacement.ball_calls": "count",
    "displacement.self_s": "s",
    "calculus.derivatives": "count", "calculus.derivative_us": "us",
    "calculus.quotient_samples": "count", "calculus.ftc_s": "s",
    "calculus.ftc2_s": "s", "calculus.self_s": "s",
    "solver.nodes": "count", "solver.node_us": "us", "solver.rhs_evals": "count",
    "solver.rhs_evals_per_node": "ratio", "solver.picard_sweeps": "count",
    "solver.atoms": "count", "solver.verify_s": "s",
    "solver.surface_node_us": "us", "solver.value_query_us": "us",
    "solver.self_s": "s",
    "fail_ratio": "ratio", "trace.ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}

_FLAG_INSERT = 1    # CumulativeQuadrature.value added a point to its table
_FLAG_DENSITY = 2   # expr.evaluate of a gauge density expression


class Tracer:
    def __init__(self):
        self.names: list[str] = []      # wrapped function names, by id
        self.layers: list[str] = []
        self._patches: list[tuple] = []
        self.reset()

    # --- recording ---

    def reset(self) -> None:
        """Drop the spans of the previous pass."""
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.flag = array("b")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.sums = {"quotient_samples": 0, "picard_sweeps": 0, "atoms": 0,
                     "serialize_bytes": 0}
        self.nodes: dict[int, int] = {}     # solver span -> mesh nodes
        self._density_ids: set[int] = set()
        self._density_refs: list = []      # keeps registered ids alive
        self._tables = weakref.WeakKeyDictionary()

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str, before=None, after=None):
        nid = self._name_id(name, layer)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.t0)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.op.append(self.op_id)
            self.flag.append(0)
            self.t1.append(0.0)
            if before is not None:
                before(idx, args)
            self.stack.append(idx)
            self.t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[idx] = clock()
                self.stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # --- hooks that derive counts at the span boundaries ---

    def _before_cq_value(self, idx, args):
        cq, t = args[0], float(args[1])
        t = min(max(t, cq.lo), cq.hi)
        table = self._tables.get(cq)
        if table is None:
            table = self._tables[cq] = {cq.lo}
        if t not in table:
            table.add(t)
            self.flag[idx] = _FLAG_INSERT

    def _before_evaluate(self, idx, args):
        if id(args[0]) in self._density_ids:
            self.flag[idx] = _FLAG_DENSITY

    def _register_density(self, expr) -> None:
        if expr is not None:
            self._density_ids.add(id(expr))
            self._density_refs.append(expr)

    def _after_parse(self, idx, args, kwargs, result):
        p = self.parent[idx]
        if p >= 0 and self.names[self.name[p]] == "Gauge.from_dict":
            self._register_density(result)

    def _before_gauge_from_smooth(self, idx, args):
        self._register_density(getattr(args[0], "d2_expr", None))

    def _after_derivative(self, idx, args, kwargs, result):
        self.sums["quotient_samples"] += result.samples_used

    def _after_solve(self, idx, args, kwargs, result):
        self.nodes[idx] = len(result.ts)
        self.sums["atoms"] += len(result.jumps)
        if self.names[self.name[idx]] == "solve_ivp":
            sweeps = kwargs.get("picard_sweeps", args[2] if len(args) > 2 else 0)
            self.sums["picard_sweeps"] += max(0, int(sweeps))

    def _after_serialize(self, idx, args, kwargs, result):
        self.sums["serialize_bytes"] += len(result.encode("utf-8"))

    # --- installation ---

    def install(self) -> None:
        self.names, self.layers = [], []
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "displace" or k.startswith("displace.")]
        hooks = {
            "CumulativeQuadrature.value": (self._before_cq_value, None),
            "evaluate": (self._before_evaluate, None),
            "parse": (None, self._after_parse),
            "gauge_from_smooth": (self._before_gauge_from_smooth, None),
            "delta_derivative": (None, self._after_derivative),
            "solve_ivp": (None, self._after_solve),
            "solve_surface": (None, self._after_solve),
            "dumps": (None, self._after_serialize),
            "csv_lines": (None, self._after_serialize),
            "IvpSolution.to_csv": (None, self._after_serialize),
        }
        for mod_name, attr, layer in TARGETS:
            module = sys.modules[f"displace.{mod_name}"]
            before, after = hooks.get(attr, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, attr, layer,
                                                     before, after))
                else:
                    wrapped = self._wrap(raw, attr, layer, before, after)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(orig, attr, layer, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    # --- reduction ---

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.t0)
        names = [self.names[i] for i in self.name]
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        for i in range(n):
            nm = names[i]
            self_by_layer[self.layers[self.name[i]]] += dur[i] - child[i]
            total[nm] = total.get(nm, 0.0) + dur[i]
            count[nm] = count.get(nm, 0) + 1

        def durations(name):
            return [dur[i] for i in range(n) if names[i] == name]

        def med_us(values):
            return statistics.median(values) * 1e6 if values else 0.0

        evals = [i for i in range(n) if names[i] == "evaluate"]
        cq = [i for i in range(n) if names[i] == "CumulativeQuadrature.value"]
        inserts = [i for i in cq if self.flag[i] == _FLAG_INSERT]
        fresh_parents = {self.parent[i] for i in inserts}
        calls = [i for i in range(n) if names[i] == "Gauge.__call__"]
        density_evals = sum(
            1 for i in evals if self.flag[i] == _FLAG_DENSITY
            and self.parent[i] >= 0
            and names[self.parent[i]] == "CumulativeQuadrature.value")
        rhs_evals = sum(
            1 for i in evals if self.flag[i] != _FLAG_DENSITY
            and self.parent[i] >= 0
            and names[self.parent[i]] in ("solve_ivp", "verify_solution"))
        ivp = [i for i in range(n) if names[i] == "solve_ivp"]
        surf = [i for i in range(n) if names[i] == "solve_surface"]
        ivp_nodes = sum(self.nodes.get(i, 0) for i in ivp)
        surf_nodes = sum(self.nodes.get(i, 0) for i in surf)

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "serialize.calls": sum(count.get(k, 0) for k in
                                   ("dumps", "csv_lines", "IvpSolution.to_csv")),
            "serialize.bytes": self.sums["serialize_bytes"],
            "serialize.self_s": self_by_layer["serialize"],
            "expr.parses": count.get("parse", 0),
            "expr.evals": len(evals),
            "expr.eval_us": med_us([dur[i] for i in evals]),
            "expr.self_s": self_by_layer["expr"],
            "gauge.queries": len(cq),
            "gauge.inserts": len(inserts),
            "gauge.density_evals": density_evals,
            "gauge.density_evals_per_insert": ratio(density_evals, len(inserts)),
            "gauge.fresh_query_us": med_us([dur[i] for i in calls
                                            if i in fresh_parents]),
            "gauge.hit_ratio": ratio(len(cq) - len(inserts), len(cq)),
            "gauge.cached_query_us": med_us([dur[i] for i in calls
                                             if i not in fresh_parents]),
            "gauge.dsets_s": total.get("Gauge.distinguished_sets", 0.0),
            "gauge.construct_s": total.get("Gauge.__init__", 0.0),
            "gauge.self_s": self_by_layer["gauge"],
            "displacement.checks": sum(count.get(k, 0) for k in CHECKS),
            "displacement.h2usc_s": total.get("check_h2_usc", 0.0),
            "displacement.d2_s": total.get("check_d2_positive", 0.0),
            "displacement.ball_calls": count.get("delta_ball", 0),
            "displacement.self_s": self_by_layer["displacement"],
            "calculus.derivatives": count.get("delta_derivative", 0),
            "calculus.derivative_us": med_us(durations("delta_derivative")),
            "calculus.quotient_samples": self.sums["quotient_samples"],
            "calculus.ftc_s": total.get("ftc_forward_check", 0.0),
            "calculus.ftc2_s": total.get("ftc2_check", 0.0),
            "calculus.self_s": self_by_layer["calculus"],
            "solver.nodes": ivp_nodes + surf_nodes,
            "solver.node_us": ratio(total.get("solve_ivp", 0.0), ivp_nodes) * 1e6,
            "solver.rhs_evals": rhs_evals,
            "solver.rhs_evals_per_node": ratio(rhs_evals, ivp_nodes),
            "solver.picard_sweeps": self.sums["picard_sweeps"],
            "solver.atoms": self.sums["atoms"],
            "solver.verify_s": total.get("verify_solution", 0.0),
            "solver.surface_node_us": ratio(total.get("solve_surface", 0.0),
                                            surf_nodes) * 1e6,
            "solver.value_query_us": med_us(durations("IvpSolution.value")),
            "solver.self_s": self_by_layer["solver"],
        }
        return m

    def dump(self, path: Path) -> None:
        """Write the recorded spans: one JSON header line, then CSV rows."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["name", "layer", "parent", "op",
                                             "start_s", "end_s"],
                                 "spans": len(self.t0)}) + "\n")
            base = self.t0[0] if len(self.t0) else 0.0
            for i in range(len(self.t0)):
                nid = self.name[i]
                fh.write(f"{self.names[nid]},{self.layers[nid]},{self.parent[i]},"
                         f"{self.op[i]},{self.t0[i] - base:.9f},"
                         f"{self.t1[i] - base:.9f}\n")
