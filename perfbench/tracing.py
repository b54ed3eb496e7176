"""Spans around the library's public functions, installed from outside.

`install(recorder)` replaces every binding of every public function of the
zdcubes modules with a wrapper that records one span per call: name, start,
end, parent span and request id.  Modules that import names by value
(`battery`, `proximal`, `structure`, `cli`) hold their own bindings, so each
binding is replaced; `return_times` imports inside its function bodies and
picks up the patched module attribute at call time.  A few class methods are
wrapped as well.  `uninstall` restores the originals.

Spans stay in memory, in flat arrays, until `Recorder.write` dumps them as
one compressed .npz (columns name, span, parent, request, start, end; span
ids count entries, parent -1 marks a root, `names` maps name ids).  Self time is a
span's duration minus the time its direct child spans cover, accumulated per
span name as the spans close; inclusive time counts only the outermost span
of each name, so recursion is not counted twice.  A few wrappers also count
work (rows, bytes, hits, points) at the boundary where it happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "battery", "proximal", "structure", "return_times",
           "cube_engine", "finite_system", "affine", "kernels", "hypercube")

# (module, class, attribute) -> span name
METHODS = {
    ("cube_engine", "FaceGroupElement", "apply"): "cube_engine.FaceGroupElement.apply",
    ("cube_engine", "CubeSet", "__post_init__"): "cube_engine.CubeSet.init",
    ("cube_engine", "CubeSet", "from_text"): "cube_engine.CubeSet.from_text",
    ("return_times", "PeriodicSet", "canonical"): "return_times.PeriodicSet.canonical",
    ("return_times", "PeriodicSet", "from_text"): "return_times.PeriodicSet.from_text",
}


class Frame:
    __slots__ = ("name", "span", "start", "child", "rows")

    def __init__(self, name: str, span: int, start: float):
        self.name = name
        self.span = span
        self.start = start
        self.child = 0.0
        self.rows = 0


class Recorder:
    """Span stack, closed spans, self time and counters of one traced run."""

    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.columns = {"name": array("H"), "span": array("q"),
                        "parent": array("q"), "request": array("i"),
                        "start": array("d"), "end": array("d")}
        self.stack: list[Frame] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self._open: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.request = -1
        self._next_span = 0
        self.request_keys: set = set()

    def enter(self, name: str) -> Frame:
        frame = Frame(name, self._next_span, perf_counter())
        self._next_span += 1
        self.stack.append(frame)
        self._open[name] += 1
        return frame

    def exit(self, frame: Frame) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame.start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += duration
        self.self_s[frame.name] += duration - frame.child
        self._open[frame.name] -= 1
        if not self._open[frame.name]:
            self.inclusive_s[frame.name] += duration
        self.calls[frame.name] += 1
        col = self.columns
        col["name"].append(self.names.setdefault(frame.name, len(self.names)))
        col["span"].append(frame.span)
        col["parent"].append(parent.span if parent is not None else -1)
        col["request"].append(self.request)
        col["start"].append(frame.start)
        col["end"].append(end)

    def begin_request(self, request: int) -> None:
        self.request = request
        self.request_keys = set()

    def end_request(self) -> None:
        self.counts["cube_engine.enumerate_Q.distinct_keys"] += len(self.request_keys)

    def nearest(self, name: str) -> Frame | None:
        for frame in reversed(self.stack):
            if frame.name == name:
                return frame
        return None

    def __len__(self) -> int:
        return len(self.columns["span"])

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(list(self.names)),
                            **{k: np.frombuffer(v, dtype=v.typecode)
                               for k, v in self.columns.items()})


# ---------------------------------------------------------------------------
# counters, attached where the work happens


def _count_blocks(rec: Recorder, frame, args, kwargs, result) -> None:
    rows = int(result.shape[0])
    rec.counts["kernels.enumerate_blocks.rows"] += rows
    rec.counts["kernels.enumerate_blocks.bytes_out"] += int(result.nbytes)
    owner = rec.nearest("cube_engine.enumerate_Q")
    if owner is not None:
        owner.rows += rows


def _count_Q(rec: Recorder, frame, args, kwargs, result) -> None:
    sys, dirs = args[0], tuple(args[1] if len(args) > 1 else kwargs["dirs"])
    rec.counts["cube_engine.enumerate_Q.rows"] += frame.rows
    rec.counts["cube_engine.enumerate_Q.unique_rows"] += len(result)
    rec.request_keys.add((sys.n_points, sys.perms, dirs))


def _count_scan(rec: Recorder, frame, args, kwargs, result) -> None:
    rec.counts["kernels.template_scan.rows"] += int(len(args[0]))
    rec.counts["kernels.template_scan.hits"] += int(result.shape[0])


def _count_discretize(rec: Recorder, frame, args, kwargs, result) -> None:
    rec.counts["affine.discretize.points"] += result.n_points


HOOKS = {
    "kernels.enumerate_blocks": _count_blocks,
    "cube_engine.enumerate_Q": _count_Q,
    "kernels.template_scan": _count_scan,
    "affine.discretize": _count_discretize,
}


def _wrap(rec: Recorder, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if hook is not None:
            hook(rec, frame, args, kwargs, result)
        return result

    return traced


def install(rec: Recorder):
    """Wrap the library; returns a function that undoes every replacement."""
    pkg = importlib.import_module("zdcubes")
    modules = {m: importlib.import_module(f"zdcubes.{m}") for m in MODULES}
    namespaces = [pkg, *modules.values()]
    undo = []
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            wrapper = _wrap(rec, f"{short}.{attr}", obj)
            for ns in namespaces:
                for bound, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, bound, wrapper)
                        undo.append((ns, bound, obj))
    for (short, cls_name, attr), name in METHODS.items():
        cls = getattr(modules[short], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(_wrap(rec, name, raw.__func__))
        else:
            wrapper = _wrap(rec, name, raw)
        setattr(cls, attr, wrapper)
        undo.append((cls, attr, raw))

    def uninstall() -> None:
        for ns, bound, original in reversed(undo):
            setattr(ns, bound, original)

    return uninstall
