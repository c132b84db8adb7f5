"""Spans around the calls into sketchlr's layers, recorded from outside ``src/``.

While a :class:`Tracer` is installed, every public function bound in a layer
module's namespace (``sketchlr.solver.svd``, ``sketchlr.sketches.svd``,
``sketchlr.harness.singular_values``, ...) and ``SparseMatrix.to_dense`` is
replaced by a wrapper that records a span. A span is named after the module
that defines the function (``matrixcore.svd``), and ``via`` names the module
whose binding was called, which separates e.g. the SVD inside the leverage
sampler (``via=sketches``) from the one on the double sketch
(``via=solver``). Spans stay in memory until :meth:`Tracer.dump`.
"""

import json
import time
import types
from dataclasses import asdict, dataclass, field

import numpy as np

from sketchlr import harness, matrixcore, norms, sketches, solver

LAYERS = (matrixcore, sketches, norms, solver, harness)
SOLVES = (
    "solver.solve_schatten",
    "solver.solve_generalized",
    "solver.solve_frobenius_baseline",
)
MIB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    via: str
    start: float
    end: float
    parent: int | None
    op: int | str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _svd_gflop(shape) -> float:
    # Golub & Van Loan's R-SVD count for U1, Sigma, V: 6 m n^2 + 20 n^3 (m >= n)
    m, n = max(shape), min(shape)
    return (6.0 * m * n * n + 20.0 * n**3) / 1e9


def _solve_attrs(args, report) -> dict:
    return {
        "stages": dict(report.elapsed),
        "macs": {k: int(v) for k, v in report.multiply_add_counts.items()},
        "nnz": int(args[0].nnz),
        "s_clipped": bool(report.clipped),
        "t_passthrough": "t" not in report.seeds,
        "r_passthrough": "r" not in report.seeds,
        "fallback": bool(report.fallback_used),
    }


# span name -> attributes drawn from (args, return value)
_ATTRS = {
    **{name: _solve_attrs for name in SOLVES},
    "sketches.build_row_sampler": lambda args, out: {
        "sampled": int(out.sample_count),
        "source": int(out.source_dim),
    },
    "sketches.apply_row_sampler": lambda args, out: {"sa_bytes": int(out.nbytes)},
    "sketches.apply_countsketch_left": lambda args, out: {"sa_bytes": int(out.nbytes)},
    "matrixcore.svd": lambda args, out: {"gflop": _svd_gflop(np.shape(args[0]))},
    "matrixcore.SparseMatrix.to_dense": lambda args, out: {"bytes": int(out.nbytes)},
}


class Tracer:
    """Records spans for calls through the rebound layer functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | str = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, via: str):
        attrs = _ATTRS.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, via, time.perf_counter(), 0.0, parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind the layer functions; :meth:`uninstall` restores them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module in LAYERS:
            via = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                owner = getattr(fn, "__module__", "")
                if not owner.startswith("sketchlr."):
                    continue
                name = f"{owner.rsplit('.', 1)[1]}.{fn.__name__}"
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, via))
        fn = matrixcore.SparseMatrix.to_dense
        self._saved.append((matrixcore.SparseMatrix, "to_dense", fn))
        matrixcore.SparseMatrix.to_dense = self._wrap(
            fn, "matrixcore.SparseMatrix.to_dense", "matrixcore"
        )

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": [asdict(s) for s in self.spans]}, fh)


def _per_op(values: dict) -> float:
    """Median over the ops that have a value; 0.0 when none does."""
    return float(np.median(list(values.values()))) if values else 0.0


def _sum_by_op(pairs) -> dict:
    acc: dict = {}
    for op, v in pairs:
        acc[op] = acc.get(op, 0.0) + v
    return acc


MAC_STAGES = ("s_apply", "t_apply", "r_apply", "zr_apply", "wsa", "regression")
STAGES = ("s_apply", "t_apply", "svd_sat", "rowspace", "regression")


def layer_metrics(tracer: Tracer, panel: int) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced ops.

    Times are per-op totals, median over the ops that made the call. Counts,
    byte sizes and shares use only ops ``0..panel-1``, which every run
    executes, so they repeat exactly for a fixed seed.
    """
    # a call that raised has no attributes; its op is counted as failed
    spans = [
        s
        for s in tracer.spans
        if isinstance(s.op, int) and (s.attrs or s.name not in _ATTRS)
    ]
    selfs = tracer.self_seconds()
    self_of = {id(s): t for s, t in zip(tracer.spans, selfs)}
    in_panel = [s for s in spans if s.op < panel]

    def seconds(name, use_self=False):
        return _per_op(
            _sum_by_op((s.op, self_of[id(s)] if use_self else s.seconds) for s in spans if s.name == name)
        )

    def panel_sum(name, value):
        return _per_op(_sum_by_op((s.op, value(s)) for s in in_panel if s.name == name))

    solves = [s for s in spans if s.name in SOLVES]
    panel_solves = [s for s in in_panel if s.name in SOLVES]
    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"solver.{stage}_s"] = _per_op(
            _sum_by_op((s.op, s.attrs["stages"].get(stage, 0.0)) for s in solves)
        )
    m["solver.exact_oracle_s"] = seconds("solver.exact_oracle")
    for stage in MAC_STAGES:
        m[f"solver.macs.{stage}"] = _per_op(
            _sum_by_op((s.op, s.attrs["macs"].get(stage, 0)) for s in panel_solves)
        )
    macs = _sum_by_op((s.op, sum(s.attrs["macs"].values())) for s in panel_solves)
    nnz = _sum_by_op((s.op, s.attrs["nnz"]) for s in panel_solves)
    m["solver.macs_per_nnz"] = _per_op({op: macs[op] / nnz[op] for op in macs})
    for key in ("s_clipped", "t_passthrough", "r_passthrough", "fallback"):
        share = np.mean([s.attrs[key] for s in panel_solves]) if panel_solves else 0.0
        m[f"solver.{key}_frac"] = float(share)

    m["sketches.build_row_sampler_s"] = seconds("sketches.build_row_sampler")
    m["sketches.build_row_sampler_self_s"] = seconds("sketches.build_row_sampler", True)
    m["sketches.apply_row_sampler_s"] = seconds("sketches.apply_row_sampler")
    m["sketches.row_sample_frac"] = panel_sum(
        "sketches.build_row_sampler", lambda s: s.attrs["sampled"] / s.attrs["source"]
    )
    for name in ("build_countsketch", "apply_countsketch_left", "apply_countsketch_right"):
        m[f"sketches.{name}_s"] = seconds(f"sketches.{name}")
    sa = _sum_by_op(
        (s.op, s.attrs["sa_bytes"] / MIB)
        for s in in_panel
        if s.name in ("sketches.apply_row_sampler", "sketches.apply_countsketch_left")
    )
    m["sketches.sa_mb"] = _per_op(sa)

    m["matrixcore.svd_s"] = seconds("matrixcore.svd")
    m["matrixcore.svd_calls"] = panel_sum("matrixcore.svd", lambda s: 1)
    m["matrixcore.svd_gflop"] = panel_sum("matrixcore.svd", lambda s: s.attrs["gflop"])
    for name in ("singular_values", "orthonormal_rowspace", "sparse_dense_multiply"):
        m[f"matrixcore.{name}_s"] = seconds(f"matrixcore.{name}")
    m["matrixcore.densify_mb"] = panel_sum(
        "matrixcore.SparseMatrix.to_dense", lambda s: s.attrs["bytes"] / MIB
    )

    loads = [s.seconds for s in tracer.spans if s.name == "harness.load_matrix"]
    m["harness.load_matrix_s"] = float(np.median(loads)) if loads else 0.0
    m["harness.run_experiment_s"] = seconds("harness.run_experiment")
    m["harness.run_experiment_self_s"] = seconds("harness.run_experiment", True)
    m["norms.check_phi_conditions_s"] = seconds("norms.check_phi_conditions")
    return m


def dominant_spans(tracer: Tracer, top: int = 6) -> list[tuple[str, float]]:
    """Spans grouped by ``name@via``, ranked by per-op median self time."""
    selfs = tracer.self_seconds()
    groups: dict[str, dict] = {}
    for s, t in zip(tracer.spans, selfs):
        if isinstance(s.op, int):
            g = groups.setdefault(f"{s.name}@{s.via}", {})
            g[s.op] = g.get(s.op, 0.0) + t
    ranked = sorted(((k, _per_op(v)) for k, v in groups.items()), key=lambda kv: -kv[1])
    return ranked[:top]
