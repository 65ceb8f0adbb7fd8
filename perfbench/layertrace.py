"""Spans around calls into anisodg's layers, recorded from outside the library.

``Tracer.install`` wraps every public function of the seven layer modules,
plus the few methods and private writers the per-layer metrics need, in
every namespace that binds them (``from .x import y`` copies a name into
``spectrum``, ``eigensolve``, ``assembly`` and the package).  The wrappers
append spans to an in-memory list; ``uninstall`` puts the originals back.
Nothing under ``src/`` is edited.

A span is ``[name, layer, parent, t0, t1, attrs]``; ``parent`` indexes the
same pass's span list.  Calls are strictly nested (the sweep runs one
worker), so a span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("geometry", "basis", "fields", "assembly", "eigensolve", "spectrum",
          "cli")

#: Self time of the pass's root span: benchmark glue that no layer covers.
GLUE = "bench"


def _attr_interfaces(args, kwargs, out):
    return {"interfaces": len(out.interfaces)}


def _attr_eval_points(args, kwargs, out):
    return {"points": int(np.size(out))}


def _attr_reduced(args, kwargs, out):
    a = out[0]
    return {"n": a.n, "nnz": int(a.lower.nnz), "fill": a.nnz_percent()}


def _attr_splu(args, kwargs, out):
    a = args[0]
    # L stores the unit diagonal explicitly, so it is counted once
    return {"fill": (out.L.nnz + out.U.nnz - a.shape[0]) / a.nnz}


def _attr_eigsh(args, kwargs, out):
    return {"k": int(kwargs.get("k", args[1] if len(args) > 1 else 6))}


def _attr_band_eig(args, kwargs, out):
    return {"count": len(out), "method": out.method}


def _attr_associate(args, kwargs, out):
    return {"vectors": len(args[0])}


def _attr_write_csv(args, kwargs, out):
    return {"bytes": args[0].stat().st_size}


#: (module, class or None, attribute, span name, layer) wrapped besides the
#: layers' public functions: methods and writers the metrics below need, and
#: the SciPy kernels the eigensolve layer calls through module attributes.
EXTRA_TARGETS = (
    ("anisodg.fields", "CoefficientField", "eval", "fields.CoefficientField.eval", "fields"),
    ("anisodg.spectrum", "FourierProjector", "__init__", "spectrum.FourierProjector", "spectrum"),
    ("anisodg.cli", None, "_write_csv", "cli._write_csv", "cli"),
    ("scipy.sparse.linalg", None, "splu", "eigensolve.splu", "eigensolve"),
    ("scipy.sparse.linalg", None, "eigsh", "eigensolve.eigsh", "eigensolve"),
)

ATTRS = {
    "geometry.build_mesh": _attr_interfaces,
    "fields.CoefficientField.eval": _attr_eval_points,
    "assembly.build_reduced": _attr_reduced,
    "eigensolve.splu": _attr_splu,
    "eigensolve.eigsh": _attr_eigsh,
    "eigensolve.band_eig": _attr_band_eig,
    "spectrum.associate_modes": _attr_associate,
    "cli._write_csv": _attr_write_csv,
}

CAPTURE = "spectrum.run_band_solve"


def _targets():
    """(span name, layer, owner, attribute, original) for every wrapped callable."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"anisodg.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                out.append((f"{layer}.{name}", layer, module, name, obj))
    for module_name, cls, attr, span, layer in EXTRA_TARGETS:
        owner = importlib.import_module(module_name)
        if cls is not None:
            owner = getattr(owner, cls)
        out.append((span, layer, owner, attr, getattr(owner, attr)))
    return out


def _bindings(owner, original):
    """Every (namespace, key) that binds ``original``: the owner's aliases
    (``CoefficientField.__call__ = eval``) and anisodg's module globals."""
    spaces = [owner] + [m for name, m in sorted(sys.modules.items())
                        if name == "anisodg" or name.startswith("anisodg.")]
    found = []
    for space in spaces:
        for key, value in list(vars(space).items()):
            if value is original and (space, key) not in found:
                found.append((space, key))
    return found


class Tracer:
    """Wraps anisodg's layers; keeps spans of the current pass in memory.

    With ``spans=False`` only ``run_band_solve`` is wrapped, to keep its
    results for the correctness checks; that is the untraced mode.
    """

    def __init__(self):
        self.passes: list[tuple[int, list]] = []
        self.results: list = []
        self._spans: list | None = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- patching ------------------------------------------------------------

    def install(self, spans: bool) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for span, layer, owner, attr, original in _targets():
            if not spans and span != CAPTURE:
                continue
            wrapper = self._wrap(original, span, layer)
            for space, key in _bindings(owner, original):
                self._undo.append((space, key, original))
                setattr(space, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            space, key, original = self._undo.pop()
            setattr(space, key, original)

    def _wrap(self, fn, name, layer):
        attrs_of = ATTRS.get(name)
        capture = name == CAPTURE
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer._spans
            if spans is None:
                out = fn(*args, **kwargs)
            else:
                stack = tracer._stack
                record = [name, layer, stack[-1], time.perf_counter(), 0.0, None]
                stack.append(len(spans))
                spans.append(record)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    record[4] = time.perf_counter()
                    stack.pop()
                if attrs_of is not None:
                    record[5] = attrs_of(args, kwargs, out)
            if capture:
                tracer.results.append(out)
            return out

        return wrapper

    # -- passes --------------------------------------------------------------

    @contextmanager
    def traced_pass(self, pass_id: int):
        """Record one pass under a root span; its spans share ``pass_id``."""
        spans = [[GLUE + ".pass", GLUE, -1, 0.0, 0.0, None]]
        self._spans, self._stack = spans, [0]
        spans[0][3] = time.perf_counter()
        try:
            yield spans
        finally:
            spans[0][4] = time.perf_counter()
            self._spans, self._stack = None, []
            self.passes.append((pass_id, spans))


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


class PassSpans:
    """Durations, self times and nesting of one pass's spans."""

    def __init__(self, spans: list):
        self.spans = spans
        self.dur = [s[4] - s[3] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, self.dur):
            if s[2] >= 0:
                child[s[2]] += d
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def _named(self, names):
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def covered(self, *names) -> float:
        """Wall time inside spans of ``names``, nested repeats counted once."""
        total = 0.0
        for i in self._named(names):
            p = self.spans[i][2]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][2]
            if p < 0:
                total += self.dur[i]
        return total

    def calls(self, name) -> int:
        return len(self._named((name,)))

    def attr_values(self, name, key) -> list:
        return [self.spans[i][5][key] for i in self._named((name,))]

    def layer_self(self, layer) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if s[1] == layer)

    def layer_calls(self, layer) -> int:
        return sum(1 for s in self.spans if s[1] == layer)


def _largest_reduced(p: PassSpans) -> dict:
    values = p.attr_values("assembly.build_reduced", "n")
    if not values:
        return {"n": 0, "nnz": 0, "fill": 0.0}
    i = p._named(("assembly.build_reduced",))[int(np.argmax(values))]
    return p.spans[i][5]


def _band_yield(p: PassSpans) -> float:
    k = sum(p.attr_values("eigensolve.eigsh", "k"))
    band = sum(a["count"] for a in
               (p.spans[i][5] for i in p._named(("eigensolve.band_eig",)))
               if a["method"] == "shift-invert")
    return band / k if k else 0.0


#: metric -> (unit, function of PassSpans); the names later changes cite.
LAYER_METRICS = {
    "geometry.build_mesh_s": ("s", lambda p: p.covered("geometry.build_mesh")),
    "geometry.interfaces": ("count", lambda p: sum(
        p.attr_values("geometry.build_mesh", "interfaces"))),
    "basis.gauss_rule_calls": ("count", lambda p: p.calls("basis.gauss_rule")),
    "basis.eval_s": ("s", lambda p: p.covered(
        "basis.legendre_basis_eval", "basis.tensor_basis_eval")),
    "fields.eval_points": ("count", lambda p: sum(
        p.attr_values("fields.CoefficientField.eval", "points"))),
    "fields.eval_s": ("s", lambda p: p.covered("fields.CoefficientField.eval")),
    "fields.load_s": ("s", lambda p: p.covered("fields.load_field")),
    "assembly.volume_s": ("s", lambda p: p.covered(
        "assembly.assemble_mass_u", "assembly.assemble_mass_phi",
        "assembly.assemble_gradient")),
    "assembly.face_s": ("s", lambda p: p.covered("assembly.assemble_face_terms")),
    "assembly.penalty_s": ("s", lambda p: p.covered("assembly.assemble_penalty")),
    "assembly.face_quadrature_calls": ("count", lambda p: p.calls("assembly.face_quadrature")),
    "assembly.reduce_s": ("s", lambda p: p.covered("assembly.build_reduced")),
    "assembly.standard_form_s": ("s", lambda p: p.covered("assembly.standard_form")),
    "assembly.n": ("count", lambda p: _largest_reduced(p)["n"]),
    "assembly.nnz_A": ("count", lambda p: _largest_reduced(p)["nnz"]),
    "assembly.fill_A_percent": ("%", lambda p: _largest_reduced(p)["fill"]),
    "eigensolve.band_eig_s": ("s", lambda p: p.covered("eigensolve.band_eig")),
    "eigensolve.inertia_s": ("s", lambda p: p.covered(
        "eigensolve.shifted_inertia", "eigensolve.ldl_inertia")),
    "eigensolve.inertia_dense_calls": ("count", lambda p: p.calls("eigensolve.ldl_inertia")),
    # ARPACK binds its own splu at import, so these spans are the inertia's
    "eigensolve.inertia_sparse_calls": ("count", lambda p: p.calls("eigensolve.splu")),
    "eigensolve.superlu_fill": ("ratio", lambda p: max(
        p.attr_values("eigensolve.splu", "fill"), default=0.0)),
    "eigensolve.eigsh_calls": ("count", lambda p: p.calls("eigensolve.eigsh")),
    "eigensolve.eigsh_s": ("s", lambda p: p.covered("eigensolve.eigsh")),
    "eigensolve.eigsh_k": ("count", lambda p: sum(p.attr_values("eigensolve.eigsh", "k"))),
    "eigensolve.band_yield": ("ratio", _band_yield),
    "eigensolve.dense_full_s": ("s", lambda p: p.covered("eigensolve.dense_generalized_eig")),
    "spectrum.projector_s": ("s", lambda p: p.covered("spectrum.FourierProjector")),
    "spectrum.associate_s": ("s", lambda p: p.covered("spectrum.associate_modes")),
    "spectrum.associated_vectors": ("count", lambda p: sum(
        p.attr_values("spectrum.associate_modes", "vectors"))),
    "cli.write_s": ("s", lambda p: p.covered("cli._write_csv")),
    "cli.bytes_written": ("B", lambda p: sum(p.attr_values("cli._write_csv", "bytes"))),
}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.self_s"] = ("s", lambda p, _l=_layer: p.layer_self(_l))
    LAYER_METRICS[f"{_layer}.calls"] = ("count", lambda p, _l=_layer: p.layer_calls(_l))
LAYER_METRICS["trace.unattributed_s"] = ("s", lambda p: p.layer_self(GLUE))
LAYER_METRICS["trace.spans"] = ("count", lambda p: len(p.spans) - 1)


def pass_layer_metrics(spans: list) -> dict[str, float]:
    p = PassSpans(spans)
    return {name: float(fn(p)) for name, (_, fn) in LAYER_METRICS.items()}
