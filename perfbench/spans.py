"""In-memory spans around the library's layer boundaries, and the per-layer
metrics computed from them.

Tracing is installed by patching each public name where its caller looks it
up (``jetmin.analysis.minimal_integral``, ``jetmin.quadrature.build_region``,
``WeightKernel.psi``, ...).  The library itself is not modified.  A span is
``[name, start, end, parent index]``; counts are added at the same
boundaries.  Self time is a span's duration minus its children's.
"""
from __future__ import annotations

import collections
import functools
import importlib
import re
import statistics
from time import perf_counter

# (module where the caller looks the name up, attribute, span name, counter)
# The counter receives (args, result) and returns {count name: increment}.
PATCHES = (
    ("jetmin.analysis", "scan_G", "analysis.scan_G", None),
    ("jetmin.analysis", "suita_compare", "analysis.suita_compare", None),
    ("jetmin.cli", "suita_compare", "analysis.suita_compare", None),
    ("jetmin.analysis", "criterion_check", "analysis.criterion_check", None),
    ("jetmin.cli", "verify_mass", "analysis.verify_mass", None),
    ("jetmin.cli", "verify_orthogonality", "analysis.verify_orthogonality", None),
    ("jetmin.analysis", "minimal_integral", "solver.minimal_integral", None),
    ("jetmin.analysis", "extension_bound", "solver.extension_bound", None),
    ("jetmin.solver", "kkt_minimize_reduced", "solver.reduced_solve", None),
    ("jetmin.solver", "jet_constraints", "forms.jet_constraints", None),
    ("jetmin.solver", "gram_reduced", "forms.gram_reduced", None),
    ("jetmin.solver", "constraint_basis", "forms.constraint_basis", None),
    ("jetmin.forms", "constraint_basis", "forms.constraint_basis", None),
    ("jetmin.forms", "assembled_gram", "quadrature.assembled_gram", None),
    ("jetmin.quadrature", "build_region", "quadrature.build_region",
     lambda a, r: {"nodes": r.zeta.size}),
    ("jetmin.quadrature", "gram_on_nodes", "quadrature.gram_on_nodes",
     lambda a, r: {"nodes": a[0].zeta.size, "macs": a[0].zeta.size * len(a[3]) ** 2}),
    ("jetmin.quadrature", "integral_on_nodes", "quadrature.integral_on_nodes", None),
    ("jetmin.weights.WeightKernel", "psi", "weights.psi",
     lambda a, r: {"points": r.size}),
    ("jetmin.weights.WeightKernel", "phi_plus_psi", "weights.phi_plus_psi", None),
    ("jetmin.analysis", "invert_h", "gain.invert_h", None),
    ("jetmin.analysis", "eval_h", "gain.eval_h", None),
    ("jetmin.solver", "eval_h", "gain.eval_h", None),
    ("jetmin.gain", "eval_h", "gain.eval_h", None),
    ("jetmin.cli", "load_problem", "problems.load_problem", None),
    ("jetmin.cli", "dump_json", "problems.dump_json", None),
)

# (metric, unit, description); every traced run reports all of them, per op
LAYER_METRICS = (
    ("import.total_s", "s", "python -X importtime: cumulative import of jetmin"),
    ("import.numpy_s", "s", "python -X importtime: numpy share of the import"),
    ("import.scipy_s", "s", "python -X importtime: scipy share of the import"),
    ("quadrature.build_region.calls", "count", "regions built"),
    ("quadrature.regions_per_g", "ratio", "regions built per Gram assembly"),
    ("quadrature.build_region.self_s", "s", "region build, excluding WeightKernel.psi"),
    ("quadrature.nodes", "count", "nodes of all regions built"),
    ("quadrature.nodes_per_region", "count", "nodes per region built"),
    ("quadrature.integral_on_nodes.s", "s", "scalar integrals on built regions"),
    ("quadrature.gram_on_nodes.self_s", "s", "Gram accumulation, excluding kernels"),
    ("quadrature.gram_on_nodes.nodes", "count", "nodes entering Gram accumulation"),
    ("quadrature.gram_macs_computed", "count", "computed: sum of nodes x basis^2"),
    ("weights.psi.calls", "count", "WeightKernel.psi calls"),
    ("weights.psi.points", "count", "points WeightKernel.psi evaluated"),
    ("weights.psi.s", "s", "WeightKernel.psi"),
    ("weights.psi_points_per_node", "ratio", "psi points per region node"),
    ("weights.phi_plus_psi.s", "s", "WeightKernel.phi_plus_psi"),
    ("gain.invert_h.calls", "count", "invert_h calls"),
    ("gain.invert_h.s", "s", "invert_h, including its eval_h calls"),
    ("gain.eval_h.calls", "count", "eval_h calls, from every caller"),
    ("solver.minimal_integral.calls", "count", "G values computed"),
    ("solver.minimal_integral.s", "s", "minimal_integral, all layers below"),
    ("solver.reduced_solve.s", "s", "kkt_minimize_reduced"),
    ("solver.extension_bound.s", "s", "extension_bound"),
    ("forms.jet_constraints.s", "s", "jet_constraints"),
    ("forms.constraint_basis.s", "s", "constraint_basis"),
    ("forms.gram_reduced.s", "s", "gram_reduced, all layers below"),
    ("analysis.scan_G.s", "s", "scan_G, all layers below"),
    ("analysis.suita_compare.s", "s", "suita_compare, all layers below"),
    ("analysis.criterion_check.s", "s", "criterion_check"),
    ("analysis.verify_mass.s", "s", "verify_mass, all layers below"),
    ("analysis.verify_orthogonality.s", "s", "verify_orthogonality, all layers below"),
    ("problems.load_problem.s", "s", "load_problem"),
    ("problems.dump_json.s", "s", "dump_json"),
    ("cli.main.s", "s", "jetmin.cli.main inside a CLI process"),
    ("trace.op_wall_s", "s", "traced op wall time"),
    ("trace.unattributed_s", "s", "op wall time outside every wrapped span"),
    ("trace.spans", "count", "spans recorded"),
    ("trace.overhead_s", "s", "traced minus untraced wall time: spans x span cost + patching"),
)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.install_s = 0.0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        """fn, recording a span per call and the counter's counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, n in counter(args, result).items():
                    self.counts[f"{name}.{key}"] += n
            return result
        return traced

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "install_s": self.install_s}


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod_path, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(mod_path), cls)


def install(tracer: Tracer) -> None:
    """Patch every entry of PATCHES; the originals are not restored."""
    t0 = perf_counter()
    for where, attr, name, counter in PATCHES:
        owner = _resolve(where)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), counter))
    tracer.install_s += perf_counter() - t0


def span_cost(calls: int = 20000, batches: int = 5) -> float:
    """Seconds one traced call costs over a bare call, median of batches.

    The wall-time difference of a traced and an untraced run of the same op
    is far below the run-to-run noise of a whole op, so the overhead is
    measured where it arises: on a call that does nothing.
    """
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)

    def batch(fn):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        return perf_counter() - t0

    bare = statistics.median(batch(noop) for _ in range(batches))
    wrapped = statistics.median(batch(traced) for _ in range(batches))
    return max(wrapped - bare, 0.0) / calls


def aggregate(exports) -> dict:
    """Calls, total and self seconds per span name over many exports, the
    seconds of the spans without a parent, and the regions built directly
    by a Gram assembly."""
    agg = {"calls": collections.Counter(), "total": collections.Counter(),
           "self": collections.Counter(), "counts": collections.Counter(),
           "roots_s": 0.0, "regions_in_gram": 0}
    for ex in exports:
        spans = ex["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
                if (name == "quadrature.build_region"
                        and spans[parent][0] == "quadrature.assembled_gram"):
                    agg["regions_in_gram"] += 1
            else:
                agg["roots_s"] += t1 - t0
        for (name, t0, t1, _), c in zip(spans, child):
            agg["calls"][name] += 1
            agg["total"][name] += t1 - t0
            agg["self"][name] += t1 - t0 - c
        agg["counts"].update(ex["counts"])
    return agg


def layer_metrics(exports, n_ops: int, op_wall_s: float, imports: dict) -> dict:
    """Per-op layer metrics from span exports covering n_ops ops."""
    agg = aggregate(exports)
    calls, total, self_s, counts = agg["calls"], agg["total"], agg["self"], agg["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    nodes = counts["quadrature.build_region.nodes"]
    n_spans = sum(len(ex["spans"]) for ex in exports)
    per_op = {
        "quadrature.build_region.calls": calls["quadrature.build_region"],
        "quadrature.build_region.self_s": self_s["quadrature.build_region"],
        "quadrature.nodes": nodes,
        "quadrature.integral_on_nodes.s": total["quadrature.integral_on_nodes"],
        "quadrature.gram_on_nodes.self_s": self_s["quadrature.gram_on_nodes"],
        "quadrature.gram_on_nodes.nodes": counts["quadrature.gram_on_nodes.nodes"],
        "quadrature.gram_macs_computed": counts["quadrature.gram_on_nodes.macs"],
        "weights.psi.calls": calls["weights.psi"],
        "weights.psi.points": counts["weights.psi.points"],
        "weights.psi.s": total["weights.psi"],
        "weights.phi_plus_psi.s": total["weights.phi_plus_psi"],
        "gain.invert_h.calls": calls["gain.invert_h"],
        "gain.invert_h.s": total["gain.invert_h"],
        "gain.eval_h.calls": calls["gain.eval_h"],
        "solver.minimal_integral.calls": calls["solver.minimal_integral"],
        "solver.minimal_integral.s": total["solver.minimal_integral"],
        "solver.reduced_solve.s": total["solver.reduced_solve"],
        "solver.extension_bound.s": total["solver.extension_bound"],
        "forms.jet_constraints.s": total["forms.jet_constraints"],
        "forms.constraint_basis.s": total["forms.constraint_basis"],
        "forms.gram_reduced.s": total["forms.gram_reduced"],
        "analysis.scan_G.s": total["analysis.scan_G"],
        "analysis.suita_compare.s": total["analysis.suita_compare"],
        "analysis.criterion_check.s": total["analysis.criterion_check"],
        "analysis.verify_mass.s": total["analysis.verify_mass"],
        "analysis.verify_orthogonality.s": total["analysis.verify_orthogonality"],
        "problems.load_problem.s": total["problems.load_problem"],
        "problems.dump_json.s": total["problems.dump_json"],
        "cli.main.s": total["cli.main"],
        "trace.op_wall_s": op_wall_s * n_ops,
        "trace.unattributed_s": op_wall_s * n_ops - agg["roots_s"],
        "trace.spans": n_spans,
        "trace.overhead_s": span_cost() * n_spans + sum(ex["install_s"] for ex in exports),
    }
    out = {k: v / n_ops for k, v in per_op.items()}
    out["quadrature.regions_per_g"] = ratio(agg["regions_in_gram"],
                                            calls["quadrature.assembled_gram"])
    out["quadrature.nodes_per_region"] = ratio(nodes, calls["quadrature.build_region"])
    out["weights.psi_points_per_node"] = ratio(counts["weights.psi.points"], nodes)
    out.update(imports)
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict:
    """import.* metrics from ``python -X importtime -c 'import jetmin'``.

    A package's share is the cumulative time of its entries that have no
    numpy or scipy ancestor, so a numpy module that scipy pulls in counts for
    scipy only.  Children precede their parent in the output, so the lines
    are walked in reverse, parents first.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6))
    share = {"numpy": 0.0, "scipy": 0.0}
    total = 0.0
    stack: list[tuple[int, str]] = []  # (depth, top-level package) of ancestors
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if name == "jetmin":
            total = cum
        if top in share and not any(pkg in share for _, pkg in stack):
            share[top] += cum
        stack.append((depth, top))
    return {"import.total_s": total, "import.numpy_s": share["numpy"],
            "import.scipy_s": share["scipy"]}
