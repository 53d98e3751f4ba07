"""Exclusive-time spans recorded around calls into the program's layers.

The tracer replaces functions with timing wrappers from outside the
program: a class attribute (a method) or a module-level function in
every module that binds it. Each wrapped call is a span. A span's
*self* time is its duration minus the durations of the wrapped calls
made inside it, so the self times of all spans partition the time
spent inside root spans exactly; time inside the traced region but
outside every span is *unattributed*. ``self_s`` summed over layers
plus ``unattributed_s`` therefore equals the region's wall time.

A layer's ``calls`` counts *entries* into it: a wrapped call whose
caller span belongs to another layer (or to none). Nested calls inside
one layer — an override delegating to ``super()``, a method calling a
wrapped helper of its own layer — are timed but not counted again, and
their hooks do not fire.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanTracer"]

#: ``hook(args, kwargs, result)`` runs after an outermost call of a
#: layer returns, inside that call's span (its cost is the layer's).
Hook = Callable[[tuple, dict, object], None]


class SpanTracer:
    """Install timing wrappers, attribute self time, then restore.

    Args:
        clock: Monotonic clock in seconds (injectable for tests).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Open spans, innermost last: ``[layer, child_seconds]``.
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.unattributed_s = 0.0
        self.wall_s = 0.0
        self._region_mark: Optional[float] = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def wrap_method(
        self, owner: type, name: str, layer: str, hook: Optional[Hook] = None
    ) -> bool:
        """Wrap ``owner.name`` if ``owner`` defines it itself.

        Inherited attributes are left alone, so wrapping a base class and
        a subclass that overrides the method times both exactly once.
        Returns whether a wrapper was installed.
        """
        original = vars(owner).get(name)
        if original is None:
            return False
        if not callable(original):
            raise TypeError(f"{owner.__name__}.{name} is not a plain function")
        self._patch(owner, name, original, self._wrapper(original, layer, hook))
        return True

    def wrap_function(
        self, func: Callable, layer: str, hook: Optional[Hook] = None,
        package: str = "repro",
    ) -> int:
        """Wrap a module-level function in every loaded module of
        ``package`` that binds it (``from x import f`` makes copies of
        the binding). Returns the number of bindings replaced."""
        wrapper = self._wrapper(func, layer, hook)
        replaced = 0
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patch(module, attr, func, wrapper)
                    replaced += 1
        return replaced

    def _patch(self, owner, name: str, original, wrapper) -> None:
        if any(o is owner and n == name for o, n, _ in self._patches):
            raise ValueError(f"{_label(owner, name)} is already wrapped")
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    @property
    def wrapped(self) -> List[str]:
        """``Owner.name`` of every attribute ever replaced."""
        return [_label(owner, name) for owner, name, _ in self._patches]

    def uninstall(self) -> None:
        """Put every original attribute back (last patched, first)."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)

    def unrestored(self) -> List[str]:
        """Replaced attributes whose current value is not the original —
        empty after :meth:`uninstall`."""
        return [
            _label(owner, name)
            for owner, name, original in self._patches
            if vars(owner).get(name) is not original
        ]

    # -- measurement ----------------------------------------------------------

    @contextmanager
    def region(self) -> Iterator["SpanTracer"]:
        """Time a region; gaps between its root spans are unattributed."""
        start = self._clock()
        self._region_mark = start
        try:
            yield self
        finally:
            end = self._clock()
            self.unattributed_s += end - self._region_mark
            self.wall_s += end - start
            self._region_mark = None

    def _wrapper(self, fn: Callable, layer: str, hook: Optional[Hook]):
        clock = self._clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def span(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            t0 = clock()
            if not stack and self._region_mark is not None:
                self.unattributed_s += t0 - self._region_mark
            frame = [layer, 0.0]
            stack.append(frame)
            try:
                if outer:
                    calls[layer] += 1
                result = fn(*args, **kwargs)
                if outer and hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                stack.pop()
                t1 = clock()
                elapsed = t1 - t0
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                elif self._region_mark is not None:
                    self._region_mark = t1

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", "span")
        span.__qualname__ = getattr(fn, "__qualname__", span.__name__)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    def reconciliation_error(self) -> float:
        """``|sum(self_s) + unattributed_s - wall_s|`` over timed regions."""
        return abs(sum(self.self_s.values()) + self.unattributed_s - self.wall_s)


def _label(owner, name: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{name}"
