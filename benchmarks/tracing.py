"""In-memory span tracer that times calls into safecascade's modules.

Spans are recorded by rebinding the names a calling module imported (for
example ``safecascade.cascade.build_constraint_set``) to thin wrappers; the
package source is never edited. A span's name is ``<layer>.<function>``,
where the layer is the module that defines the function, so per-layer
counts and self times line up with the package's module names.

A layer's self time is the summed duration of its spans minus the part of
each span covered by its child spans. The root span ``bench.workload``
covers one iteration's measured work, so the self times of all layers,
``bench`` included, sum to the traced wall time.
"""
from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

ROOT_SPAN = "bench.workload"


class Tracer:
    """Records spans (name, start, end, parent) for one iteration.

    ``on_result`` hooks let a wrapper count work from a call's arguments and
    return value (QP iterations from ``QpSolution``, bytes written, ...);
    ``errors`` counts exceptions per layer at the span that raised them.
    """

    def __init__(self, iteration: int = 0):
        self.iteration = iteration
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._last_exc: BaseException | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str,
             on_result: Callable[["Tracer", tuple, dict, object], None] | None = None) -> Callable:
        nid = self._intern(name)
        layer = name.split(".", 1)[0]
        clock = time.perf_counter_ns
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_exc:
                    self._last_exc = exc
                    self.errors[layer] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` to ``replacement`` until ``restore``."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def rebind(self, owner: object, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``restore``."""
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name, on_result))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
                for key in ("name_id", "parent", "start", "end")}

    def save(self, path: Path) -> None:
        """Write the spans out (``numpy.savez``); called once, after timing."""
        path.parent.mkdir(parents=True, exist_ok=True)
        data = self.arrays()
        tmp = path.with_name(path.name + ".tmp.npz")
        np.savez(tmp, names=np.array(self.names), iteration=np.array(self.iteration), **data)
        os.replace(tmp, path)


def self_times(span: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time in ns: duration minus the durations of its children.

    Children of one span run one after another (calls are synchronous), so
    the children's summed duration is the part of the parent they cover.
    """
    dur = (span["end"] - span["start"]).astype(np.float64)
    parent = span["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0])
    return dur - covered


def nesting_violations(span: dict[str, np.ndarray]) -> int:
    """Spans that leave their parent's interval or overlap an earlier sibling."""
    start, end, parent = span["start"], span["end"], span["parent"]
    bad = int(np.count_nonzero(end < start))
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    bad += int(np.count_nonzero((start[child] < start[p]) | (end[child] > end[p])))
    # Spans are stored in start order; a sibling must start after the
    # previous sibling with the same parent ended.
    order = np.lexsort((start[child], p))
    c_sorted, p_sorted = child[order], p[order]
    same = p_sorted[1:] == p_sorted[:-1]
    bad += int(np.count_nonzero(same & (start[c_sorted[1:]] < end[c_sorted[:-1]])))
    return bad


def layer_self_seconds(names: list[str], span: dict[str, np.ndarray]) -> dict[str, float]:
    """Self time in seconds summed per layer (the prefix of each span name)."""
    own = self_times(span)
    per_name = np.bincount(span["name_id"], weights=own, minlength=len(names))
    out: dict[str, float] = {}
    for name, ns in zip(names, per_name):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + float(ns) * 1e-9
    return out


def calls_per_name(names: list[str], span: dict[str, np.ndarray]) -> dict[str, int]:
    counts = np.bincount(span["name_id"], minlength=len(names))
    return {name: int(c) for name, c in zip(names, counts)}
