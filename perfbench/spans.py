"""Span recording and per-layer summaries for the traced benchmark run.

The tracer works from outside the program: it rebinds every public
function of the traced ``entdist`` modules at every namespace that binds
it (the defining module, the modules that imported it, the package), and
``numpy.linalg.eigh``/``eigvalsh``, which ``sdp.py`` and ``tensor.py`` call
directly. ``measures`` is not traced: its functions take well under a
millisecond per case and their time stays in the caller's self time.
Leaving the context restores every original binding, so untraced passes in
the same process run the program as shipped.

A span is ``[name, start, end, parent, case, matrices, work]``: ``parent``
indexes the enclosing span (-1 at the root), ``case`` is the benchmark case
id, and for eigen calls ``matrices`` counts the decomposed matrices and
``work`` adds up D**3 over them, the computed cubic cost of the calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

LAYERS = ("cli", "states", "protocol", "certificate", "sdp", "tensor")
EIG_FUNCTIONS = ("eigh", "eigvalsh")

NAME, START, END, PARENT, CASE, MATRICES, WORK = range(7)


class Tracer:
    """Collects spans in memory; ``case`` tags the spans of the running case."""

    def __init__(self):
        self.spans: list[list] = []
        self.case: str | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, eig: bool = False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case, 0, 0]
            if eig:
                shape = np.shape(args[0] if args else kwargs["a"])
                matrices = math.prod(shape[:-2])
                span[MATRICES] = matrices
                span[WORK] = matrices * shape[-1] ** 3
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced functions for the duration of the block."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"entdist.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for attr in EIG_FUNCTIONS:
            obj = getattr(np.linalg, attr)
            wrappers[id(obj)] = (obj, self._wrap(f"linalg.{attr}", obj, eig=True))

        namespaces = [np.linalg] + [
            module
            for name, module in sorted(sys.modules.items())
            if name == "entdist" or name.startswith("entdist.")
        ]
        patched = []
        try:
            for namespace in namespaces:
                for attr, obj in list(vars(namespace).items()):
                    entry = wrappers.get(id(obj))
                    if entry is not None and entry[0] is obj:
                        setattr(namespace, attr, entry[1])
                        patched.append((namespace, attr, obj))
            yield self
        finally:
            for namespace, attr, obj in reversed(patched):
                setattr(namespace, attr, obj)

    def dump(self) -> dict:
        """All spans, in a compact column-labelled form for writing out."""
        return {
            "columns": ["name", "start", "end", "parent", "case", "matrices", "work"],
            "spans": self.spans,
        }


def summarize(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer figures for the spans ``spans[lo:hi]`` of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children; a named time (``build_s`` and the like) adds up the spans of
    the named functions that have no such span above them, so a function
    that calls itself through the package is not counted twice.
    """
    child = [0.0] * (hi - lo)
    for span in spans[lo:hi]:
        if span[PARENT] >= lo:
            child[span[PARENT] - lo] += span[END] - span[START]

    def ancestors(i: int):
        parent = spans[i][PARENT]
        while parent >= 0:
            yield spans[parent][NAME]
            parent = spans[parent][PARENT]

    self_s = {layer: 0.0 for layer in LAYERS + ("linalg",)}
    calls = {layer: 0 for layer in LAYERS + ("linalg",)}
    for i in range(lo, hi):
        span = spans[i]
        layer = span[NAME].split(".", 1)[0]
        self_s[layer] += span[END] - span[START] - child[i - lo]
        calls[layer] += 1

    def outer(*names: str) -> float:
        wanted = set(names)
        return sum(
            (
                spans[i][END] - spans[i][START]
                for i in range(lo, hi)
                if spans[i][NAME] in wanted
                and not any(name in wanted for name in ancestors(i))
            ),
            0.0,
        )

    eig = [i for i in range(lo, hi) if spans[i][NAME].startswith("linalg.")]
    out = {f"{layer}.self_s": value for layer, value in self_s.items()}
    out.update(
        {
            "cli.resolve_s": outer("cli.resolve_config"),
            "cli.emit_s": outer("cli.emit"),
            "states.basis_s": outer("states.weyl_basis", "states.load_basis_file"),
            "states.ensemble_s": outer("states.build_ensemble"),
            "states.calls": calls["states"],
            "protocol.simulate_s": outer(
                "protocol.simulate_protocol",
                "protocol.protocol_success",
                "protocol.sample_protocol_success",
            ),
            "protocol.bounds_s": outer("protocol.incomplete_bounds"),
            "protocol.calls": calls["protocol"],
            "certificate.build_s": outer("certificate.build_certificate"),
            "certificate.feasibility_s": outer("certificate.verify_dual_feasibility"),
            "certificate.upsilon_s": outer(
                "certificate.upsilon_spectrum_check", "certificate.upsilon"
            ),
            "certificate.eig_matrices": sum(
                spans[i][MATRICES]
                for i in eig
                if any(name.startswith("certificate.") for name in ancestors(i))
            ),
            "sdp.solve_s": outer("sdp.solve_primal_ppt"),
            "tensor.calls": calls["tensor"],
            "linalg.eig_calls": len(eig),
            "linalg.eig_matrices": sum(spans[i][MATRICES] for i in eig),
            "linalg.eig_work_d3": sum(spans[i][WORK] for i in eig),
            "linalg.eig_s": sum(spans[i][END] - spans[i][START] for i in eig),
        }
    )
    return out
