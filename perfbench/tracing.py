"""Spans around the calls into each ``rho_lattice`` layer, recorded from outside.

The tracer wraps the listed public functions in every ``rho_lattice`` module
namespace that holds them, and the listed class attributes together with
their aliases (``Element.__rmul__`` is ``Element.__mul__``).  A span is
``(id, parent, name, start, end)`` with ``perf_counter`` times; spans stay in
memory until the run writes them out.  A function missing from the package
is skipped, and its metrics read 0.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

FUNCTIONS = {
    "ring": (
        "reduce_poly",
        "inverse",
        "solve_linear",
        "crt_split",
        "crt_combine",
        "involution",
        "eigen_project",
        "restrict",
        "in_lattice_4r",
    ),
    "elements": ("divide_by_f",),
    "abelian": ("smith_normal_form", "solve_integer", "subgroup_from_elements"),
    "surgery": (
        "kernel_rho_bar",
        "l_group_reduced_rank",
        "rho_bar_formula",
        "element_validate",
        "structure_set",
    ),
    "suspension": ("suspend", "resolve", "elem_nu", "torsion_basis", "torsion_coordinates"),
}
METHODS = (("ring", "Element", "__mul__"), ("elements", "Catalog", "get"))

SPAN_NAMES = tuple(
    [f"{layer}.{name}" for layer, names in FUNCTIONS.items() for name in names]
    + [f"{layer}.{cls}.{meth}" for layer, cls, meth in METHODS]
)


def _observe_inverse(counters, args, result, exc):
    if exc is not None and type(exc).__name__ == "NotInvertible":
        counters["ring.inverse.refused"] += 1


def _observe_kernel(counters, args, result, exc):
    if result is None or getattr(result, "method", None) != "brute":
        return
    params = args[0]
    if params.K:  # K = 0 returns the trivial kernel without enumerating
        counters["surgery.kernel_rho_bar.candidates"] += (2**params.K) ** params.c
        counters["surgery.kernel_rho_bar.members"] += len(result.members)


def _observe_resolve(counters, args, result, exc):
    if result is not None:
        counters["suspension.resolve.returns"] += 1
        if result[1] is not None:
            counters["suspension.resolve.ambiguous"] += 1


def _observe_torsion_basis(counters, args, result, exc):
    if result is not None:
        counters["suspension.torsion_basis.table_entries"] += len(
            getattr(result, "table", None) or ()
        )


OBSERVERS = {
    "ring.inverse": _observe_inverse,
    "surgery.kernel_rho_bar": _observe_kernel,
    "suspension.resolve": _observe_resolve,
    "suspension.torsion_basis": _observe_torsion_basis,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        observe, counters = OBSERVERS.get(name), self.counters

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                spans.append((sid, parent, name, start, clock()))
                stack.pop()
                if observe is not None:
                    observe(counters, args, result, exc)

        traced.__wrapped__ = fn
        return traced

    def current(self) -> int:
        """Id of the innermost open span (0 outside any)."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self.spans.append((sid, parent, name, start, time.perf_counter()))
            self._stack.pop()

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "rho_lattice"]
        for layer, names in FUNCTIONS.items():
            home = sys.modules.get(f"rho_lattice.{layer}")
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(f"rho_lattice.{layer}"), cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            wrapper = self._wrap(f"{layer}.{cls_name}.{meth}", fn)
            for attr, value in list(vars(cls).items()):
                if value is raw:
                    self._patch(cls, attr, kind(wrapper) if kind else wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def absorb(self, spans, counters, parent: int) -> None:
        """Merge spans recorded in a child process under the span ``parent``."""
        remap = {0: parent}
        for sid, par, name, start, end in sorted(spans):
            remap[sid] = next(self._ids)
            self.spans.append((remap[sid], remap[par], name, start, end))
        self.counters.update(counters)

    def self_times(self) -> dict[str, list]:
        """name -> [calls, self seconds]; self time excludes direct child spans."""
        child_time: Counter = Counter()
        for _sid, parent, _name, start, end in self.spans:
            child_time[parent] += end - start
        out: dict[str, list] = {}
        for sid, _parent, name, start, end in self.spans:
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time[sid]
        return out

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"], "spans": self.spans}, fh)
