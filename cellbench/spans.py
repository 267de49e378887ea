"""Outside-in tracing for the cell benchmark.

The benchmark records spans from its own files only: :class:`Tracer` opens
the cell and phase spans around the calls the benchmark makes, and
:class:`Instrumentation` temporarily replaces the public functions of each
layer (``rl``, ``core``, ``autodiff``, ``nn``, ``systems``, ``attacks``,
``metrics``, ``verification``) with wrappers that open a span around the
original call and record counts from its result.  Nothing inside ``src/``
knows it is being traced, and every replaced attribute is put back when the
instrumentation exits.

A span's *self time* is its duration minus the part of that interval its
direct child spans cover; a layer's total time counts only its outermost
spans, so a layer that calls itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed interval; ``parent`` indexes the enclosing span, if any."""

    name: str
    start: float
    end: float = float("nan")
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps the spans and counts of one operation in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.captured: List[object] = []
        self._stack: List[int] = []

    def clear(self) -> None:
        """Forget the previous operation's spans, counts and captured results."""

        self.spans.clear()
        self.counts.clear()
        self.captured.clear()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), parent=parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self._clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def total(self, name: str) -> float:
        """Seconds spent in ``name``, outermost spans only."""

        return sum(
            span.duration
            for index, span in enumerate(self.spans)
            if span.name == name and not self._has_ancestor_named(index, name)
        )

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name: duration minus the union of direct children."""

        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += span.duration - covered(span.start, span.end, children[index])
        return dict(totals)


def covered(start: float, end: float, intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""

    length = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            length += high - low
            cursor = high
    return length


# ---------------------------------------------------------------------------
# Layer wrappers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """A public layer function (``attribute`` may be ``Class.method``) to trace.

    ``observe(tracer, result)`` records counts taken from the call's result.
    A module-level function is replaced in every loaded ``repro`` module that
    holds it, because ``from x import f`` binds a second name at the call
    site; a method is replaced on its class only.
    """

    span: str
    module: str
    attribute: str
    observe: Optional[Callable[[Tracer, object], None]] = None


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, name = target.attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


_INHERITED = object()


def _repro_attributes():
    """``(module, attribute, value)`` for every attribute of every loaded ``repro`` module."""

    for module_name, module in list(sys.modules.items()):
        if module_name == "repro" or module_name.startswith("repro."):
            for attribute, value in list(vars(module).items()):
                yield module, attribute, value


def _binding_sites(owner, name: str, original) -> List[Tuple[object, str, object]]:
    """``(site, attribute, value to restore)`` for every name bound to ``original``.

    A method a class inherits is wrapped on that class and deleted again on
    restore, so the base class is never touched.
    """

    if isinstance(owner, type):
        return [(owner, name, owner.__dict__.get(name, _INHERITED))]
    return [
        (module, attribute, original)
        for module, attribute, value in _repro_attributes()
        if value is original
    ]


class Instrumentation:
    """Context manager that installs span wrappers and always restores them."""

    def __init__(self, targets: Sequence[Target], tracer: Tracer):
        self._targets = list(targets)
        self._tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps its id unique.
        self._wrappers: Dict[int, Tuple[object, object]] = {}

    def _wrap(self, target: Target, original):
        tracer = self._tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(target.span):
                result = original(*args, **kwargs)
            if target.observe is not None:
                target.observe(tracer, result)
            return result

        traced.traced_span = target.span
        self._wrappers[id(traced)] = (traced, original)
        return traced

    def __enter__(self) -> "Instrumentation":
        try:
            for target in self._targets:
                owner, name = _resolve(target)
                original = getattr(owner, name)
                wrapper = self._wrap(target, original)
                for site, attribute, saved in _binding_sites(owner, name, original):
                    self._saved.append((site, attribute, saved))
                    setattr(site, attribute, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            site, attribute, saved = self._saved.pop()
            if saved is _INHERITED:
                delattr(site, attribute)
            else:
                setattr(site, attribute, saved)
        # A module first imported while the wrappers were installed bound a
        # wrapper with ``from x import f``; give it the original back too.
        for module, attribute, value in _repro_attributes():
            wrapper, original = self._wrappers.get(id(value), (None, None))
            if wrapper is value:
                setattr(module, attribute, original)
        self._wrappers.clear()

    def __exit__(self, *exc_info) -> None:
        self.restore()
