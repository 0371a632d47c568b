"""Layer timing from outside the program.

A :class:`Tracer` wraps public callables of the program (methods on its
classes, functions looked up through its modules) and books each call's
*self time*: its duration minus the time covered by nested wrapped
calls.  Self times of every layer plus the unwrapped remainder
(``other_s``) add up to the timed part of the run.

Wrappers book time only while :meth:`Tracer.timed` is open, so the
set-up and the output checks, which call the same code, stay out of
the layer figures.  The untraced run uses :class:`NullTracer`, which
installs nothing.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

_clock = time.perf_counter


class NullTracer:
    """The untraced run: spans and counters cost nothing."""

    def timed(self):
        return contextlib.nullcontext()

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, value=1):
        pass

    def wrap(self, owner, attr, name, counter=None):
        pass

    def restore(self):
        pass


class Tracer:
    """Self-time spans around wrapped calls, plus work counters."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.calls = 0
        self.timed_s = 0.0
        self._active = False
        # Time covered by nested spans, one slot per open span; the
        # bottom slot belongs to the timed part itself.
        self._children = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def timed(self):
        """The measured part: wrappers book time only in here."""
        self._active = True
        self._children = [0.0]
        started = _clock()
        try:
            yield
        finally:
            self.timed_s += _clock() - started
            self._active = False

    def _enter(self):
        self._children.append(0.0)
        return _clock()

    def _leave(self, name, started):
        elapsed = _clock() - started
        children = self._children.pop()
        self.busy[name] += elapsed - children
        self._children[-1] += elapsed
        self.calls += 1

    @contextlib.contextmanager
    def span(self, name):
        """A span around a call the benchmark makes itself."""
        if not self._active:
            yield
            return
        started = self._enter()
        try:
            yield
        finally:
            self._leave(name, started)

    def count(self, name, value=1):
        self.counts[name] += value

    def wrap(self, owner, attr, name, counter=None):
        """Replace ``owner.attr`` by a timed wrapper booking to ``name``.

        ``counter(tracer, result, args)`` may add work counts after each
        booked call.
        """
        # A class's own __dict__ entry, so restore() puts back exactly
        # what was there; modules have no descriptors to worry about.
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return original(*args, **kwargs)
            started = tracer._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._leave(name, started)
            if counter is not None:
                counter(tracer, result, args)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put every wrapped callable back, last wrapped first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def per_call_overhead_s(self, calls: int = 20000) -> float:
        """Cost of one booked call around a no-op, measured here."""

        class _Probe:
            def noop(self):
                return None

        probe_tracer = Tracer()
        probe_tracer.wrap(_Probe, "noop", "probe")
        target = _Probe()
        bare = _Probe.__dict__["noop"].__wrapped__
        with probe_tracer.timed():
            started = _clock()
            for _ in range(calls):
                target.noop()
            wrapped_s = _clock() - started
        started = _clock()
        for _ in range(calls):
            bare(target)
        bare_s = _clock() - started
        return max(wrapped_s - bare_s, 0.0) / calls
