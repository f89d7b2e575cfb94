"""Spans and a counting loss proxy for the traced benchmark run.

Spans are recorded in the benchmark's own code, around each public
diagflow call it makes; diagflow itself is neither edited nor patched. The
untraced run uses ``NullTracer``, whose calls go straight through.
"""

from __future__ import annotations

import time


class CountingLoss:
    """Forwards every attribute of a loss and counts its gradient evaluations.

    Only the gradient entry points that the wrapped loss really has are
    wrapped, so ``getattr(loss, "value_and_gradient", None)`` and
    ``hasattr(loss, "X")`` probes inside diagflow take the same branches as
    with the bare loss.
    """

    def __init__(self, loss):
        self._loss = loss
        self.calls = {"gradient": 0, "value_and_gradient": 0}
        self.busy_s = 0.0
        for name in self.calls:
            fn = getattr(loss, name, None)
            if fn is not None:
                setattr(self, name, self._counted(name, fn))

    def _counted(self, name, fn):
        def call(theta):
            start = time.perf_counter()
            try:
                return fn(theta)
            finally:
                self.busy_s += time.perf_counter() - start
                self.calls[name] += 1
        return call

    def __getattr__(self, name):
        return getattr(self._loss, name)


class Tracer:
    """In-memory spans: id, parent id, name, start and end, plus counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict = {}
        self.flows: list[tuple] = []  # (accepted steps * state size, run, loss)
        self._open: list[int] = []

    def _begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span)

    def count(self, key: str, n) -> None:
        """Add ``n`` to a named counter."""
        self.counters[key] = self.counters.get(key, 0) + n

    def flow(self, name: str, run, loss):
        """Run ``run(loss)`` in a span, passing a ``CountingLoss`` for ``loss``.

        The span records the loss-gradient evaluations made inside it.
        diagflow evaluates ``value_and_gradient`` once at the start and once
        per accepted step, and ``gradient`` for every other RK4 stage, so
        accepted steps are the ``value_and_gradient`` count minus one. The
        flow is kept in ``flows`` so that its memory can be measured again.
        """
        proxy = CountingLoss(loss)
        span = self._begin(name)
        try:
            traj = run(proxy)
        finally:
            self._end(span)
            span["grad_calls"] = sum(proxy.calls.values())
            span["accepted_steps"] = proxy.calls["value_and_gradient"] - 1
            span["grad_s"] = proxy.busy_s
        self.flows.append((span["accepted_steps"] * traj.layers[0].size, run, loss))
        return traj

    def named(self, *names: str) -> list[dict]:
        return [s for s in self.spans if s["name"] in names]

    def busy(self, *names: str) -> float:
        """Summed duration of the spans with any of these names."""
        return sum(s["end"] - s["start"] for s in self.named(*names))

    def children_busy(self, name: str) -> float:
        """Summed duration of the direct children of the spans named ``name``."""
        ids = {s["id"] for s in self.named(name)}
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] in ids)

    def self_times(self) -> dict[str, float]:
        """Per span name, duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
        return out


class NullTracer:
    """Tracing off: every call goes straight to diagflow with the bare loss."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def count(key, n):
        pass

    @staticmethod
    def flow(name, run, loss):
        return run(loss)
