"""Outside-in tracing of hopfsmash's public entry points.

`Tracer.install` replaces each function named in ENTRY_POINTS by a wrapper
that records a span (function, parent span, start, end). The wrapper is bound
under every name in every hopfsmash module namespace that held the original,
because a `from .x import f` keeps its own reference; calls from one module
into another are therefore traced too. Inner helpers that run millions of
times (`mat_vec`, `sp_add`, `Fraction` arithmetic, ...) are never wrapped.

Spans stay in memory until the run ends. Besides spans the wrappers keep
exact counts: nonzero structure constants built by hopfcore constructors,
bytes the CLI read and wrote, and re-seeds of the Wedderburn block oracle.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

ENTRY_POINTS = {
    "exactlin": ("rref", "rank", "kernel_basis", "solve", "mat_inverse", "span_basis",
                 "in_span", "coords_in_basis", "spans_equal", "tensor_product", "contract"),
    "hopfcore": ("verify_algebra", "verify_coalgebra", "verify_hopf", "check_map",
                 "group_algebra", "dual_hopf", "opposites", "integrals", "drinfeld_double",
                 "heisenberg_double", "convolution_algebra", "dual_coalgebra"),
    "qtriang": ("qt_structure", "trivial_qt", "verify_qt", "drinfeld_element",
                "classify_triangularity", "adjoint_action_tensor", "transmute",
                "verify_braided_group", "muger_membership", "hr_star_algebra",
                "hr_dual_separability", "almost_triangular_equivalences"),
    "modalg": ("verify_module_algebra", "is_quantum_commutative", "u_acts_trivially",
               "regular_trace", "separability", "verify_separability", "is_H_simple",
               "permutation_module_algebra", "adjoint_module_algebra"),
    "weakhopf": ("verify_weak_bialgebra", "counital_data", "verify_weak_hopf",
                 "verify_weak_qt", "almost_triangular_wha_report", "check_wha_morphism",
                 "groupoid_wha", "transformation_groupoid"),
    "smashcons": ("smash_algebra", "smash_weak_structure", "smash_qt", "theta_embed",
                  "build_B", "phi_embed", "rb_in_image_iff_muger", "double_module_algebra",
                  "double_smash_decomposition", "double_module_spot_check",
                  "groupoid_case_study"),
    "adjstable": ("verify_left_comodule", "verify_right_comodule", "dual_right_comodule",
                  "verify_yd", "yd_to_comodule", "build_h_tensor_w", "cotensor",
                  "adjoint_stable_algebra", "nw_direct_sum_report", "cotensor_right_module",
                  "subcoalgebra_data", "dstar_module_algebra", "psi_phi", "decompose_hr",
                  "nd_transport_report", "yd_summand_from_block"),
    "repdim": ("wedderburn_blocks", "fpdim_report", "class_idempotents", "dv_divisibility"),
    "cli": ("main", "cmd_demo", "cmd_verify", "cmd_construct", "ser_hopf", "ser_algebra",
            "de_hopf", "Workspace.load", "Workspace.resolve_hopf",
            "Workspace.resolve_weak_hopf", "Workspace.resolve_qt",
            "Workspace.resolve_weak_qt", "Workspace.resolve_module_algebra"),
}
LAYERS = tuple(ENTRY_POINTS)


def _nnz(t) -> int:
    d0, d1, _ = t.dims
    return sum(len(t.row(i, j)) for i in range(d0) for j in range(d1))


def _count_nnz(counts, result, args, kwargs) -> None:
    """Nonzero constants of the tensors a hopfcore constructor returns."""
    built = result[0] if isinstance(result, tuple) else result
    if hasattr(built, "coalgebra"):
        counts["hopfcore.nnz_built"] += _nnz(built.mult) + _nnz(built.comult)
    else:
        counts["hopfcore.nnz_built"] += _nnz(built.mult)


def _count_reseeds(counts, result, args, kwargs) -> None:
    asked = kwargs.get("seed", args[2] if len(args) > 2 else 0)
    counts["repdim.reseeds"] += result.seed - asked


def _count_read(counts, result, args, kwargs) -> None:
    counts["cli.bytes_read"] += len(result.raw)


def _count_written(path_index: int):
    def count(counts, result, args, kwargs) -> None:
        path = args[path_index] if len(args) > path_index else None
        if path and os.path.exists(path):
            counts["cli.bytes_written"] += os.path.getsize(path)
    return count


POST_HOOKS = {
    "hopfcore.group_algebra": _count_nnz,
    "hopfcore.dual_hopf": _count_nnz,
    "hopfcore.opposites": _count_nnz,
    "hopfcore.drinfeld_double": _count_nnz,
    "hopfcore.heisenberg_double": _count_nnz,
    "repdim.wedderburn_blocks": _count_reseeds,
    "cli.Workspace.load": _count_read,
    "cli.cmd_construct": _count_written(2),
    "cli.cmd_verify": _count_written(5),
}


class Tracer:
    """Spans and counts of one traced pass; reset between passes."""

    def __init__(self):
        self.names: list[str] = []       # function id -> "layer.function"
        self.spans: list[list] = []      # [function id, parent span, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, fid: int, fn, post):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if post is not None:
                post(counts, result, args, kwargs)
            return result
        return traced

    def install(self, also=()) -> None:
        """Wrap every entry point; `also` lists non-hopfsmash modules (the
        benchmark's own) whose bindings are replaced as well."""
        replace = {}  # id(original) -> wrapper, for module-level functions
        for layer, names in ENTRY_POINTS.items():
            module = importlib.import_module(f"hopfsmash.{layer}")
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = vars(owner).get(attr)
                if raw is None:  # entry point gone from this version of the program
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                qual = f"{layer}.{name}"
                wrapper = self._wrap(len(self.names), fn, POST_HOOKS.get(qual))
                self.names.append(qual)
                if owner_name:
                    self._undo.append((owner, attr, raw))
                    setattr(owner, attr,
                            staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
                else:
                    replace[id(fn)] = (fn, wrapper)
        namespaces = [m for name, m in list(sys.modules.items())
                      if name.split(".")[0] == "hopfsmash" and m is not None]
        for module in namespaces + list(also):
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def dump(self) -> dict:
        return {"functions": list(self.names),
                "spans": [list(s) for s in self.spans],
                "counts": dict(self.counts)}


class SpanStats:
    """Self time, inclusive time and call counts derived from one pass."""

    def __init__(self, names: list[str], spans: list[list]):
        self.names = names
        self.spans = spans
        n = len(names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        child = [0.0] * len(spans)
        for fid, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for s, (fid, parent, start, end) in enumerate(spans):
            self.calls[fid] += 1
            self.self_s[fid] += end - start - child[s]

    def layer_ids(self, layer: str) -> set:
        return {i for i, q in enumerate(self.names) if q.startswith(layer + ".")}

    def fn_ids(self, layer: str, fns) -> set:
        return {i for i, q in enumerate(self.names) if q in {f"{layer}.{f}" for f in fns}}

    def layer_self(self, layer: str) -> float:
        return sum(self.self_s[i] for i in self.layer_ids(layer))

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls[i] for i in self.layer_ids(layer))

    def fn_self(self, ids: set) -> float:
        return sum(self.self_s[i] for i in ids)

    def fn_calls(self, ids: set) -> int:
        return sum(self.calls[i] for i in ids)

    def inclusive(self, ids: set) -> float:
        """Time inside any of the functions, counting nested calls once."""
        total = 0.0
        spans = self.spans
        for fid, parent, start, end in spans:
            if fid not in ids:
                continue
            p = parent
            while p >= 0 and spans[p][0] not in ids:
                p = spans[p][1]
            if p < 0:
                total += end - start
        return total


# (metric, unit, kind, layer, functions); kinds are evaluated by layer_metrics.
PER_LAYER = (
    ("exactlin.self_s", "s", "layer_self", "exactlin", ()),
    ("exactlin.calls", "count", "layer_calls", "exactlin", ()),
    ("exactlin.in_span.calls", "count", "calls", "exactlin", ("in_span",)),
    ("exactlin.solve.calls", "count", "calls", "exactlin", ("solve",)),
    ("exactlin.kernel_basis.s", "s", "inclusive", "exactlin", ("kernel_basis",)),
    ("hopfcore.self_s", "s", "layer_self", "hopfcore", ()),
    ("hopfcore.verify.s", "s", "inclusive", "hopfcore",
     ("verify_algebra", "verify_coalgebra", "verify_hopf")),
    ("hopfcore.verify_hopf.calls", "count", "calls", "hopfcore", ("verify_hopf",)),
    ("hopfcore.build.self_s", "s", "self", "hopfcore",
     ("group_algebra", "drinfeld_double", "heisenberg_double", "integrals")),
    ("hopfcore.check_map.s", "s", "inclusive", "hopfcore", ("check_map",)),
    ("hopfcore.check_map.calls", "count", "calls", "hopfcore", ("check_map",)),
    ("hopfcore.nnz_built", "count", "count", "hopfcore", ()),
    ("qtriang.self_s", "s", "layer_self", "qtriang", ()),
    ("qtriang.verify_qt.s", "s", "inclusive", "qtriang", ("verify_qt",)),
    ("qtriang.verify_qt.calls", "count", "calls", "qtriang", ("verify_qt",)),
    ("qtriang.transmute.self_s", "s", "self", "qtriang", ("transmute",)),
    ("qtriang.verify_braided_group.s", "s", "inclusive", "qtriang", ("verify_braided_group",)),
    ("modalg.self_s", "s", "layer_self", "modalg", ()),
    ("modalg.verify_module_algebra.s", "s", "inclusive", "modalg", ("verify_module_algebra",)),
    ("modalg.separability.s", "s", "inclusive", "modalg", ("separability",)),
    ("weakhopf.self_s", "s", "layer_self", "weakhopf", ()),
    ("weakhopf.verify_weak_bialgebra.s", "s", "inclusive", "weakhopf", ("verify_weak_bialgebra",)),
    ("weakhopf.verify_weak_hopf.s", "s", "inclusive", "weakhopf", ("verify_weak_hopf",)),
    ("weakhopf.counital_data.s", "s", "inclusive", "weakhopf", ("counital_data",)),
    ("weakhopf.check_wha_morphism.s", "s", "inclusive", "weakhopf", ("check_wha_morphism",)),
    ("smashcons.self_s", "s", "layer_self", "smashcons", ()),
    ("smashcons.smash_algebra.s", "s", "inclusive", "smashcons", ("smash_algebra",)),
    ("smashcons.build_B.self_s", "s", "self", "smashcons", ("build_B",)),
    ("smashcons.theta_embed.self_s", "s", "self", "smashcons", ("theta_embed",)),
    ("smashcons.phi_embed.self_s", "s", "self", "smashcons", ("phi_embed",)),
    ("smashcons.double_smash_decomposition.self_s", "s", "self", "smashcons",
     ("double_smash_decomposition",)),
    ("adjstable.self_s", "s", "layer_self", "adjstable", ()),
    ("adjstable.psi_phi.self_s", "s", "self", "adjstable", ("psi_phi",)),
    ("adjstable.nd_transport_report.self_s", "s", "self", "adjstable", ("nd_transport_report",)),
    ("adjstable.decompose_hr.s", "s", "inclusive", "adjstable", ("decompose_hr",)),
    ("repdim.self_s", "s", "layer_self", "repdim", ()),
    ("repdim.wedderburn_blocks.s", "s", "inclusive", "repdim", ("wedderburn_blocks",)),
    ("repdim.wedderburn_blocks.calls", "count", "calls", "repdim", ("wedderburn_blocks",)),
    ("repdim.reseeds", "count", "count", "repdim", ()),
    ("repdim.class_idempotents.s", "s", "inclusive", "repdim", ("class_idempotents",)),
    ("cli.self_s", "s", "layer_self", "cli", ()),
    ("cli.load.s", "s", "inclusive", "cli", ("Workspace.load",)),
    ("cli.resolve.s", "s", "inclusive", "cli",
     ("Workspace.resolve_hopf", "Workspace.resolve_weak_hopf", "Workspace.resolve_qt",
      "Workspace.resolve_weak_qt", "Workspace.resolve_module_algebra")),
    ("cli.serialize.s", "s", "inclusive", "cli", ("ser_hopf", "ser_algebra")),
    ("cli.bytes_written", "bytes", "count", "cli", ()),
    ("cli.bytes_read", "bytes", "count", "cli", ()),
)


def layer_metrics(stats: SpanStats, counts: Counter, factor: float) -> dict:
    """{metric: value} for every PER_LAYER metric of one traced pass; times
    are multiplied by the pass's relative speed `factor` (see speed.py)."""
    out = {}
    for metric, unit, kind, layer, fns in PER_LAYER:
        ids = stats.fn_ids(layer, fns)
        if kind == "layer_self":
            out[metric] = stats.layer_self(layer)
        elif kind == "layer_calls":
            out[metric] = stats.layer_calls(layer)
        elif kind == "calls":
            out[metric] = stats.fn_calls(ids)
        elif kind == "self":
            out[metric] = stats.fn_self(ids)
        elif kind == "inclusive":
            out[metric] = stats.inclusive(ids)
        else:
            out[metric] = counts.get(metric, 0)
        if unit == "s":
            out[metric] *= factor
    return out


def exact_counts(metrics: dict) -> dict:
    """The metrics that must repeat exactly from one traced pass to the next."""
    return {m: metrics[m] for m, unit, *_ in PER_LAYER if unit != "s"}
