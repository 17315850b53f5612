"""Span tracing of qglab's public functions, installed from outside the package.

``from .tensorlin import apply_leg`` binds the name in the importing module at
import time, so patching ``tensorlin.apply_leg`` alone would miss every call
made through ``qgcore.apply_leg``, ``diagonals.apply_leg`` and so on.
``Tracer.installed`` therefore replaces the function object in every qglab
module namespace that holds it, and in ``suites.SUITE_FUNCS``, and puts the
originals back on exit.

Spans live in memory as ``(name, job, parent, t0, t1, extra)`` tuples; the
parent is the index of the enclosing span (-1 for a root).  ``extra`` is a
count computed from the operand shapes, never measured.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# Public functions traced per module, named ``<module>.<function>``.
TRACED = {
    "tensorlin": (
        "apply_leg",
        "operator_norm",
        "projection_residual",
        "span_basis",
        "trace_norm",
        "partial_trace",
    ),
    "funalg": (
        "block_decompose",
        "predual_norm",
        "tensor_predual_norm",
        "convolve",
        "module_action_left",
        "module_action_right",
        "product_map",
    ),
    "qgcore": (
        "function_algebra",
        "dual",
        "structure_identity_residuals",
        "coassociativity_residual",
        "derived_unitaries",
    ),
    "diagonals": (
        "commutant_compression",
        "compression_choi_matrix",
        "build_diagonal",
        "diagonal_residuals",
        "certify_commutator_bound",
        "dual_quasicentral_residual",
    ),
    "dualside": (
        "dual_context",
        "pentagonal_consequence_residuals",
        "quasicentral_exchange_residual",
        "identity_shift_exchange_residual",
        "flip_relation_residuals",
        "build_approximate_identity",
        "slice_convention_residual",
        "certify_identity_bound",
        "certify_quasicentral_bound",
    ),
    "groups": ("load_group",),
}
TRACED_METHODS = {"report": (("CheckReport", "to_json_bytes"),)}
SUITES = ("structure", "lemma32", "lemma42", "lemma43", "theta", "thm33", "obad", "dual", "thm44")


def _apply_leg_gflop(op, legs, v, dims):
    """Dense complex matmul flops of ``op @ v`` reshaped to ``(s, size / s)``."""
    s = op.shape[0]
    return 8.0 * s * s * (v.size // s) / 1e9


def _operator_norm_entries(a):
    return a.size


def _basis_dim(basis, *args, **kwargs):
    return basis[0].shape[0]


EXTRAS = {
    "tensorlin.apply_leg": _apply_leg_gflop,
    "tensorlin.operator_norm": _operator_norm_entries,
    "funalg.block_decompose": _basis_dim,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.jobs: list[dict] = []
        self.job = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (
                    name,
                    self.job,
                    parent,
                    t0,
                    t1,
                    extra(*args, **kwargs) if extra else None,
                )

        return traced

    @contextlib.contextmanager
    def job_span(self, job_id: str, order: int):
        """Root span of one job; ``order`` is its group order."""
        self.jobs.append({"id": job_id, "order": order})
        self.job = len(self.jobs) - 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[index] = ("job", self.job, -1, t0, t1, None)

    @contextlib.contextmanager
    def installed(self):
        """Trace every name in TRACED wherever a qglab module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "qglab" or n.startswith("qglab.")]
        patches = []  # (namespace, attribute, original)
        for mod_name, funcs in TRACED.items():
            mod = sys.modules[f"qglab.{mod_name}"]
            for fname in funcs:
                orig = getattr(mod, fname)
                wrapper = self.wrap(f"{mod_name}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            patches.append((m, attr, orig))
        for mod_name, methods in TRACED_METHODS.items():
            mod = sys.modules[f"qglab.{mod_name}"]
            for cls_name, meth in methods:
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", orig))
                patches.append((cls, meth, orig))
        suite_funcs = sys.modules["qglab.suites"].SUITE_FUNCS
        originals = dict(suite_funcs)
        for suite, fn in originals.items():
            suite_funcs[suite] = self.wrap(f"suites.{suite}", fn)
        try:
            yield self
        finally:
            suite_funcs.update(originals)
            for target, attr, orig in reversed(patches):
                setattr(target, attr, orig)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return [t1 - t0 - c for (_, _, _, t0, t1, _), c in zip(self.spans, covered)]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics named ``<module>.<function>.{calls,self_s}`` and so on."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        extra: dict[str, float] = defaultdict(float)
        doubled_s = 0.0
        for (name, job, _, t0, t1, x), st in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += st
            incl_s[name] += t1 - t0
            if x is not None:
                extra[name] += x
            if name == "funalg.block_decompose" and x == self.jobs[job]["order"] ** 2:
                doubled_s += t1 - t0
        names = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
        names += [f"{m}.{c}.{f}" for m, ms in TRACED_METHODS.items() for c, f in ms]
        out: dict[str, tuple[float, str]] = {}
        for name in names:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for suite in SUITES:
            name = f"suites.{suite}"
            out[f"{name}.incl_s"] = (incl_s[name], "s")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["funalg.block_decompose.doubled_s"] = (doubled_s, "s")
        out["tensorlin.apply_leg.gflop"] = (extra["tensorlin.apply_leg"], "GFLOP")
        out["tensorlin.operator_norm.entries"] = (extra["tensorlin.operator_norm"], "count")
        return out

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "job", "parent", "t0", "t1", "computed"],
                    "names": names,
                    "jobs": self.jobs,
                    "spans": [[index[n], j, p, t0, t1, x] for n, j, p, t0, t1, x in self.spans],
                },
                fh,
                separators=(",", ":"),
            )

