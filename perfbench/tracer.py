"""Span tracing of flexprism's public functions, from outside the package.

The tracer replaces each named function with a wrapper wherever the
function object is bound -- in every flexprism module namespace, so that
``from .geom import wedge_angle`` inside ``flexion`` is caught too -- and
wraps the named ``PolyhedronSpec`` property and methods on the class.
Every call pushes a span on a stack; a span's self time is its duration
minus the durations of its direct child spans.  Spans stay in memory
until :meth:`Tracer.write` saves them once at the end of a run.

A name that no longer exists (a later change deleted or renamed it) is
reported as absent instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

# Layer -> traced names.  ``PolyhedronSpec.<attr>`` entries live on the
# class in ``assembly``.  The ``params.juncture_*`` constructors are listed
# one by one so that the metric names stay fixed when one is renamed.
TRACED = {
    "cli": ["main"],
    "io": ["load_config", "load_spec", "read_spec", "save_spec", "write_obj",
           "write_profiles_csv", "write_rigidity_text"],
    "flexion": ["sweep", "realize", "rigidity_report", "dihedral_profiles"],
    "assembly": ["build_open", "build_torus", "PolyhedronSpec.flexion_interval",
                 "PolyhedronSpec.theta_local", "PolyhedronSpec.faces",
                 "PolyhedronSpec.edges"],
    "juncture": ["chain_vertices", "symmetric_start", "closure_residual",
                 "flexion_range", "dihedral_from_angles"],
    "geom": ["wedge_angle", "orientation_vectors"],
    "params": ["juncture_i_oee", "juncture_ii_aee", "juncture_ii_oee",
               "juncture_iii_oae", "continuity_residual"],
}
LAYERS = tuple(TRACED)


def metric_name(layer: str, name: str) -> str:
    """``assembly.PolyhedronSpec.faces`` is reported as ``assembly.faces``."""
    return f"{layer}.{name.rpartition('.')[2]}"


class Tracer:
    """Install wrappers, record spans, restore the originals."""

    def __init__(self) -> None:
        # Each span: [metric name, start, end, parent index or -1, job id].
        self.spans: list[list] = []
        self.job = -1  # set by the caller before each job; spans of a job share it
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[idx]
                span[1] = start
                span[2] = end

        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.absent = []
        modules = {layer: importlib.import_module(f"flexprism.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("flexprism"), *modules.values()]
        for layer, names in TRACED.items():
            mod = modules[layer]
            for name in names:
                label = metric_name(layer, name)
                if "." in name:
                    cls_name, _, attr = name.partition(".")
                    if not self._wrap_member(getattr(mod, cls_name, None), attr, label):
                        self.absent.append(label)
                    continue
                original = getattr(mod, name, None)
                if not callable(original):
                    self.absent.append(label)
                    continue
                wrapper = self._wrap(label, original)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is original:
                            self._set(ns, key, wrapper)

    def _wrap_member(self, cls: object, attr: str, label: str) -> bool:
        if not isinstance(cls, type) or attr not in vars(cls):
            return False
        member = vars(cls)[attr]
        if isinstance(member, property) and member.fget is not None:
            self._set(cls, attr, property(self._wrap(label, member.fget), member.fset,
                                          member.fdel, member.__doc__))
        elif isinstance(member, functools.cached_property):
            wrapped = functools.cached_property(self._wrap(label, member.func))
            wrapped.__set_name__(cls, attr)
            self._set(cls, attr, wrapped)
        elif callable(member):
            self._set(cls, attr, self._wrap(label, member))
        else:
            return False
        return True

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per traced name: call count and summed self time in ms."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += (end - start - child_time[i]) * 1e3
        return out

    def write(self, path: Path) -> None:
        """Save every span once, as a name table plus compact rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(start, 9), round(end, 9), parent, job]
                for n, start, end, parent, job in self.spans]
        path.write_text(json.dumps({"names": names,
                                    "columns": ["name", "start_s", "end_s", "parent", "job"],
                                    "spans": rows}))
