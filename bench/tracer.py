"""Span tracer for the traced benchmark run.

The tracer wraps bellport's public functions from the outside: it
replaces the module attribute that defines each function, and every copy
a sibling module imported by name (``bellport.protocol.measure_sequence``
is the same object as ``bellport.measure.measure_sequence`` until it is
wrapped).  Classes are traced by wrapping their ``__init__``.  The
program's source is never touched, and ``uninstall`` puts every original
object back.

Spans are kept in memory as parallel columns (name id, parent span, job
id, start, end) and written out once, when the run ends.  A span's self
time is its duration minus the part of that interval its child spans
cover.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array
from collections import Counter

import numpy as np

# Public functions traced per module; the span name is "<module>.<fn>".
TARGETS = {
    "states": ("PureState", "apply_local", "tensor", "random_state"),
    "bell": (
        "apply_upsilon",
        "upsilon_expectations",
        "class_projector_apply",
        "decompose_classes",
    ),
    "measure": ("bell_measure", "measure_sequence"),
    "protocol": ("teleport", "order_parameter", "sample_scatter_channel", "fig2_run"),
    "channels": (
        "build",
        "heisenberg_ring_ground",
        "singlet_random",
        "aklt_state",
        "cluster_state",
        "string_order",
    ),
    "qudit": ("qudit_teleport", "qudit_decompose", "qudit_class_projector_apply"),
    "threequbit": ("teleport3",),
    "cli": ("main", "write_table"),
}

# Entry points that force a measurement outcome; a forced call counts as
# one forced branch attempted, and it is useful unless it raises
# ImpossibleOutcomeError.  They do not call one another.
FORCED_ENTRY = ("measure.measure_sequence", "threequbit.teleport3", "qudit.qudit_teleport")
# Builders whose peak allocation tracemalloc records.
ALLOC_TRACKED = ("channels.heisenberg_ring_ground", "channels.singlet_random")
JOB_SPAN = "bench.job"


def span_names(targets=TARGETS) -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in targets.items() for fn in fns]


class Tracer:
    """Records nested spans around wrapped functions of one package."""

    def __init__(self, package: str = "bellport", targets=TARGETS, clock=time.perf_counter):
        self.package = package
        self.targets = targets
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.job_id = -1
        self.counters: Counter = Counter()
        self.peak_alloc: dict[str, int] = {}
        self.impossible: type | tuple = ()
        self.patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(float("nan"))
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span (used for job spans)."""
        return _Span(self, self.name_id(name))

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        if name in FORCED_ENTRY:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                forced = kwargs.get("forced") is not None
                if forced:
                    tracer.counters["measure.forced.attempts"] += 1
                sid = tracer.open(nid)
                try:
                    return fn(*args, **kwargs)
                except tracer.impossible:
                    if forced:
                        tracer.counters["measure.forced.impossible"] += 1
                    raise
                finally:
                    tracer.close(sid)

        elif name in ALLOC_TRACKED:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                sid = tracer.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(sid)
                    peak = tracemalloc.get_traced_memory()[1] - base
                    if started:
                        tracemalloc.stop()
                    tracer.peak_alloc[name] = max(tracer.peak_alloc.get(name, 0), peak)

        elif name == "cli.write_table":

            @functools.wraps(fn)
            def wrapper(stream, *args, **kwargs):
                before = stream.tell()
                sid = tracer.open(nid)
                try:
                    return fn(stream, *args, **kwargs)
                finally:
                    tracer.close(sid)
                    tracer.counters["cli.write_table.bytes"] += stream.tell() - before

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = tracer.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(sid)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target and every by-name copy in the package's modules."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        measure = sys.modules.get(f"{self.package}.measure")
        self.impossible = getattr(measure, "ImpossibleOutcomeError", ())
        try:
            for mod_name, fns in self.targets.items():
                home = sys.modules[f"{self.package}.{mod_name}"]
                for fn_name in fns:
                    original = getattr(home, fn_name)
                    name = f"{mod_name}.{fn_name}"
                    if isinstance(original, type):
                        init = original.__dict__["__init__"]
                        self._patch(original, "__init__", self._wrapper(name, init))
                        continue
                    wrapper = self._wrapper(name, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original object back, last patch first."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "job": np.frombuffer(self.job, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> np.ndarray:
        return self_times(self.columns())

    def descendants_of(self, child: str, ancestor: str) -> int:
        """Number of ``child`` spans with an ``ancestor`` span above them."""
        if child not in self._ids or ancestor not in self._ids:
            return 0
        cid, aid = self._ids[child], self._ids[ancestor]
        count = 0
        for sid, nid in enumerate(self.name):
            if nid != cid:
                continue
            p = self.parent[sid]
            while p >= 0 and self.name[p] != aid:
                p = self.parent[p]
            count += p >= 0
        return count

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.sid = self.tracer.open(self.nid)
        return self.sid

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals."""
    start, end, parent = cols["start"], cols["end"], cols["parent"]
    out = end - start
    children: dict[int, list[int]] = {}
    for sid in np.flatnonzero(parent >= 0):
        children.setdefault(int(parent[sid]), []).append(int(sid))
    for pid, kids in children.items():
        lo, hi = start[pid], end[pid]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[pid] -= covered
    return out
