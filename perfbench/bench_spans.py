"""Spans recorded from outside the package, by wrapping public names.

A target names an owner (a module, or ``module:Class``), the attribute that
callers in that owner resolve at run time, and the span name to record.
Because ``from .raster import warp_raster`` binds a name in the importing
module, each caller module is its own target: patching
``semshare.flow.warp_raster`` times the calls that ``flow`` makes and no
others.  Targets whose owner or attribute does not exist are skipped and
reported as missing, so a later rename shows as an absent metric rather
than a crash.

Spans stay in memory.  Each one carries its name, start and end
(``perf_counter_ns``), the index of its parent span (-1 at the top), the
operation it belongs to and optional attributes taken from the arguments.
Wrappers are installed only while a scope is active and are removed on
exit, leaving every wrapped name as it was.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    op: object
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    owner: str
    attr: str
    name: str
    # optional callable(args, kwargs) -> dict, evaluated before the clock
    # starts; a "kind" entry is appended to the span name
    annotate: object = None


def resolve_owner(path: str):
    """Module or ``module:Class`` -> object, or None when it does not exist."""
    module_name, _, class_name = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name:
        owner = getattr(owner, class_name, None)
    return owner


class Tracer:
    """Records nested spans around the calls made through the targets."""

    def __init__(self, targets, clock=time.perf_counter_ns):
        self.targets = list(targets)
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list = []
        self._op = None

    def missing(self) -> list[str]:
        """Targets that cannot be wrapped at this commit."""
        out = []
        for t in self.targets:
            owner = resolve_owner(t.owner)
            if owner is None or not hasattr(owner, t.attr):
                out.append(f"{t.owner}.{t.attr}")
        return out

    def _wrap(self, fn, target: Target):
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = target.annotate(args, kwargs) if target.annotate else {}
            name = target.name
            if "kind" in attrs:
                name = f"{name}.{attrs['kind']}"
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, tracer.clock(), 0, parent, tracer._op, attrs)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for t in self.targets:
            owner = resolve_owner(t.owner)
            if owner is None or not hasattr(owner, t.attr):
                continue
            if isinstance(owner, type):
                original = owner.__dict__.get(t.attr)
                if not isinstance(original, staticmethod):
                    continue
                replacement = staticmethod(self._wrap(original.__func__, t))
            else:
                original = getattr(owner, t.attr)
                replacement = self._wrap(original, t)
            self._patches.append((owner, t.attr, original))
            setattr(owner, t.attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def scope(self, op):
        """Wrap the targets while the block runs; spans get ``op``."""
        self.install()
        self._op = op
        try:
            yield self
        finally:
            self._op = None
            self.restore()

    def write_jsonl(self, path, header: dict) -> None:
        """One header line, then one line per span."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                f.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for j in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            lo = max(spans[j].start, cursor)
            hi = min(spans[j].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def aggregate(spans, keep) -> dict[str, dict]:
    """Per span name: total self time (ns), call count and the spans' attrs,
    over the spans whose op satisfies ``keep``."""
    totals: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        if not keep(span.op):
            continue
        entry = totals.setdefault(span.name, {"self_ns": 0, "calls": 0, "attrs": []})
        entry["self_ns"] += own
        entry["calls"] += 1
        if span.attrs:
            entry["attrs"].append((own, span.attrs))
    return totals
