"""In-memory span tracer that wraps library entry points from outside.

The benchmark never edits library code.  A traced run instead replaces
selected functions and methods with thin wrappers that record one span
per call (name, start, end, parent) and restores the originals when the
run ends.  Spans stay in memory and are written out once, at the end.

Self time is a span's duration minus the part of it that its child
spans cover, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

#: Called after a wrapped call returns: ``hook(tracer, args, kwargs, result)``.
Hook = Callable[["Tracer", tuple, dict, Any], None]


@dataclass
class Span:
    """One recorded call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters for the calls it wraps."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def note_key(self, name: str, key: Any) -> None:
        """Count one call of ``name`` and whether ``key`` was seen before."""
        self.counters[f"{name}.calls"] += 1
        if key in self._seen[name]:
            self.counters[f"{name}.repeats"] += 1
        else:
            self._seen[name].add(key)

    def repeat_frac(self, name: str) -> float:
        """Share of ``name``'s calls whose key an earlier call already had."""
        calls = self.counters.get(f"{name}.calls", 0.0)
        return self.counters.get(f"{name}.repeats", 0.0) / calls if calls else 0.0

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap_method(
        self, owner: type, attr: str, name: str, hook: Hook | None = None,
        span: bool = True,
    ) -> None:
        """Replace ``owner.attr`` (a plain method) with a traced wrapper.

        ``span=False`` keeps only the hook, for per-call counters on hot
        paths where a span per call would cost more than the call.
        """
        original = owner.__dict__[attr]
        self._patch(owner, attr, original, self._wrapper(original, name, hook, span))

    def wrap_function(
        self, original: Callable, name: str, modules: Iterable[Any],
        hook: Hook | None = None,
    ) -> None:
        """Replace every reference to ``original`` held by ``modules``.

        Modules that did ``from x import f`` hold their own reference, so
        each one is patched where it looks the name up.
        """
        wrapper = self._wrapper(original, name, hook, True)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    def restore(self) -> None:
        """Put every original back (in reverse order of patching)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrapper(
        self, original: Callable, name: str, hook: Hook | None, span: bool
    ) -> Callable:
        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if span:
                result = self.call(name, original, *args, **kwargs)
            else:
                result = original(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Analysis and export
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total ``s``, ``self_s`` and ``calls``."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, selfs):
            row = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += span.seconds
            row["self_s"] += own
            row["calls"] += 1
        return out

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.seconds - covered)
    return out


def repro_modules() -> list[Any]:
    """Every loaded module of the library (the places references live)."""
    return [
        module for name, module in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]
