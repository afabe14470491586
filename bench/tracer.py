"""Span tracing of the calls the benchmark makes into each qbos layer.

The tracer wraps every public module-level function of the layers, plus the
public methods of the device layer's two classes (the device API is mostly
methods, and ``device.pair_calls`` counts one of them).  A function is
replaced at every place its name is bound: ``cli`` imports ``sample_counts``
and ``derive_seed`` by name, ``noise`` imports ``gate_library`` and
``build_ewl_circuit``, ``stats`` imports ``expected_payoffs``, and the
package namespace re-exports most of them.  Patching only the defining module
would miss those calls.

Spans (name, start, end, parent, op id) are kept in flat arrays in memory and
written out once, when the run ends.  Nothing here touches qbos source: the
wrappers are installed for a traced op and removed after it.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "device", "gcm", "noise", "statevec", "game", "stats")
DEVICE_CLASSES = ("CouplingGraph", "CalibrationSnapshot")

# results that feed a per-layer count: span name -> (tally name, value of result)
TALLIES = {
    "statevec.sample_counts": ("statevec.shots_sampled", lambda r: r.total_shots),
    "gcm.select_pairs": ("gcm.pairs_placed", lambda r: len(r.assignments)),
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its child spans.

    The tracer keeps one call stack, so child spans nest strictly inside their
    parent and never overlap each other.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


class Tracer:
    """Collects spans while installed; ``op`` tags every span with the op id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.tallies: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack = [-1]
        self._wrappers: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A span the benchmark itself opens around an op step (layer 'bench')."""
        idx = self._open(self._name_id(f"bench.{name}"))
        try:
            yield
        finally:
            self._close(idx)

    # --- wrapping ----------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        nid = self._name_id(name)
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if tally is not None:
                tracer.tallies[tally[0]] += tally[1](result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function at every place its name is bound."""
        if self._wrappers:
            raise RuntimeError("tracer already installed")
        modules = {m: sys.modules[m] for m in sorted(sys.modules)
                   if m == "qbos" or m.startswith("qbos.")}
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"qbos.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._swap(mod, attr, wrapped[id(obj)])
        device = modules["qbos.device"]
        for cls_name in DEVICE_CLASSES:
            cls = getattr(device, cls_name)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = f"device.{cls_name}.{attr}"
                if inspect.isfunction(obj):
                    self._swap(cls, attr, self._wrap(obj, name))
                elif isinstance(obj, classmethod):
                    self._swap(cls, attr, classmethod(self._wrap(obj.__func__, name)))
                elif isinstance(obj, staticmethod):
                    self._swap(cls, attr, staticmethod(self._wrap(obj.__func__, name)))

    def _swap(self, owner, attr: str, new) -> None:
        self._wrappers.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._wrappers):
            setattr(owner, attr, original)
        self._wrappers.clear()

    # --- results -----------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzip'd TSV: op, name, parent index, start, end (seconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op\tname\tparent\tstart\tend\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.ops[i]}\t{self.names[self.name_ids[i]]}\t"
                         f"{self.parents[i]}\t{self.starts[i]!r}\t{self.ends[i]!r}\n")


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive seconds; per layer: self seconds."""
    names = [tracer.names[i] for i in tracer.name_ids]
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for name, s, e, own in zip(names, tracer.starts, tracer.ends, selfs):
        calls[name] += 1
        inclusive[name] += e - s
        layer_self[layer_of(name)] += own
    roots = sum(e - s for s, e, p in zip(tracer.starts, tracer.ends, tracer.parents)
                if p < 0)
    return {"calls": calls, "inclusive": inclusive, "layer_self": layer_self,
            "root_seconds": roots}
