"""In-memory span recorder that wraps nosubkm entry points from outside.

`Tracer.install` replaces each entry point under the name its caller looks
up (a module global or a class attribute) with a wrapper. While a trace is
active (`with tracer.trace(id):`) every wrapped call records its name, start,
end, parent span and trace id into flat arrays; outside a trace the wrapper
only forwards the call. `restore` puts the originals back.

A span's self time is its duration minus the durations of its direct
children, so self times of all spans in a trace add up to the traced time.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

SETUP_TRACE = 0  # trace id of spans recorded while building inputs


class Target(NamedTuple):
    """One lookup site of an entry point, recorded under `layer`.

    With `watch` set, a span is flagged when the named attribute of the
    call's first argument differs after the call.
    """

    owner: object
    attr: str
    layer: str
    watch: str | None = None


class LayerStats(NamedTuple):
    calls: float
    self_s: float
    changed: float
    durations_s: np.ndarray  # inclusive durations of spans outside set-up


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer_id = array("i")
        self.parent = array("q")
        self.trace_id = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.changed = array("b")
        self._stack = [-1]
        self._trace: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self, targets: list[Target]) -> None:
        for t in targets:
            original = getattr(t.owner, t.attr)
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(t.layer, original, t.watch))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def trace(self, trace_id: int) -> Iterator[None]:
        previous, self._trace = self._trace, trace_id
        try:
            yield
        finally:
            self._trace = previous

    def _wrap(self, layer: str, fn, watch: str | None):
        lid = self._layer_ids.setdefault(layer, len(self._layer_ids))
        if lid == len(self.layers):
            self.layers.append(layer)
        clock = time.perf_counter_ns
        stack = self._stack
        layer_ids, parents, traces = self.layer_id, self.parent, self.trace_id
        starts, ends, changed = self.start_ns, self.end_ns, self.changed

        def wrapper(*args, **kwargs):
            trace = self._trace
            if trace is None:
                return fn(*args, **kwargs)
            idx = len(starts)
            layer_ids.append(lid)
            parents.append(stack[-1])
            traces.append(trace)
            starts.append(0)
            ends.append(0)
            changed.append(0)
            before = getattr(args[0], watch) if watch else None
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if watch and getattr(args[0], watch) != before:
                    changed[idx] = 1

        return wrapper

    def stats(self, repeats: int) -> dict[str, LayerStats]:
        """Per-layer totals: set-up spans once, other traces per repeat."""
        n = len(self.start_ns)
        dur = (_np(self.end_ns) - _np(self.start_ns)) / 1e9
        parent = _np(self.parent)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_s = dur - child
        in_setup = _np(self.trace_id) == SETUP_TRACE
        layer = _np(self.layer_id)
        changed = _np(self.changed).astype(np.int64)

        def per_repeat(values: np.ndarray, mask: np.ndarray) -> float:
            return float(values[mask & in_setup].sum()) + float(values[mask & ~in_setup].sum()) / repeats

        out = {}
        for lid, name in enumerate(self.layers):
            mask = layer == lid
            out[name] = LayerStats(
                calls=per_repeat(np.ones(n, dtype=np.int64), mask),
                self_s=per_repeat(self_s, mask),
                changed=per_repeat(changed, mask),
                durations_s=dur[mask & ~in_setup],
            )
        return out

    def write(self, path: Path) -> None:
        """Write every span as arrays of one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layers=np.array(self.layers),
            layer_id=_np(self.layer_id),
            parent=_np(self.parent),
            trace_id=_np(self.trace_id),
            start_ns=_np(self.start_ns),
            end_ns=_np(self.end_ns),
        )


def _np(values: array) -> np.ndarray:
    return np.frombuffer(values, dtype=values.typecode)
