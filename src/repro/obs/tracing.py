"""Span-based phase attribution for the CONGEST simulator.

A :class:`Tracer` hands out :class:`Span` context managers that nest::

    trace = RoundTrace()
    tracer = Tracer()
    tracer.attach(trace)
    with tracer.span("separator-search", level=2):
        with tracer.span("weights-problem"):
            weights_problem_run(cfg, trace=trace)

While a span is open, every :meth:`RoundTrace.record_round` call
attributes that round's counters — one round, its messages, words,
dropped/lost/duplicated counts — to the **innermost** open span, and the
round record itself is stamped with the span id.  Attribution is
therefore complete and non-overlapping by construction: summing the
*self* counters over all spans plus the untraced remainder reproduces
the trace totals exactly (the ``repro trace phases`` CLI checks this).
Wall-clock is measured per span at enter/exit, so a span's interval also
covers local orchestration work between simulator passes.

Spans never steer a run: a traced run and an untraced run execute the
same rounds and deliver the same messages, and
:func:`repro.congest.faults.run_fingerprint` is bit-identical either way
(locked by ``tests/test_obs.py``).

Tracing off costs nothing: :func:`trace_span` returns the shared
:data:`NULL_SPAN` singleton when no tracer is attached — no :class:`Span`
object is allocated (also locked by the tests).

This module deliberately imports nothing from :mod:`repro.congest`;
``congest`` imports *it*, keeping the dependency one-way.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

__all__ = ["NULL_SPAN", "Span", "Tracer", "trace_span"]


class _NullSpan:
    """Reentrant no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: Shared singleton; ``with NULL_SPAN:`` nests freely and allocates nothing.
NULL_SPAN = _NullSpan()


class Span:
    """One named phase interval, created via :meth:`Tracer.span`.

    Attributes
    ----------
    id:
        1-based id in open order (unique within the tracer).
    name / attrs:
        The phase name and free-form attributes (``level=k`` etc.).
    parent_id / depth:
        Nesting structure at open time (``None`` / 0 for a root span).
    open_at / close_at:
        Indices into the attached trace's ``records`` list: the span
        covers ``records[open_at:close_at]``.  ``close_at`` is ``None``
        while the span is open.
    rounds, messages, words, dropped, lost, duplicated:
        *Self* counters — rounds recorded while this span was the
        innermost open span (child spans absorb their own).
    wall_s:
        Wall-clock seconds between enter and exit (includes children).
    """

    __slots__ = (
        "id",
        "name",
        "attrs",
        "parent_id",
        "depth",
        "open_at",
        "close_at",
        "rounds",
        "messages",
        "words",
        "dropped",
        "lost",
        "duplicated",
        "wall_s",
        "_tracer",
        "_t0",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = 0  # assigned at __enter__
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.open_at = 0
        self.close_at: Optional[int] = None
        self.rounds = 0
        self.messages = 0
        self.words = 0
        self.dropped = 0
        self.lost = 0
        self.duplicated = 0
        self.wall_s = 0.0
        self._t0 = 0.0

    # -- context manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self)
        return False

    # -- serialization --------------------------------------------------
    def open_event(self) -> Dict[str, Any]:
        event = {
            "kind": "span-open",
            "id": self.id,
            "parent": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "attrs": dict(self.attrs),
        }
        context = getattr(self._tracer, "context", None)
        if context is not None:
            # request lineage: every span event names the request that
            # caused it, so a dump keeps its ancestry
            event["trace"] = context.trace_id
        return event

    def close_event(self) -> Dict[str, Any]:
        return {
            "kind": "span-close",
            "id": self.id,
            "rounds": self.rounds,
            "messages": self.messages,
            "words": self.words,
            "dropped": self.dropped,
            "lost": self.lost,
            "duplicated": self.duplicated,
            "wall_s": round(self.wall_s, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.close_at is None else "closed"
        return (
            f"Span(id={self.id}, name={self.name!r}, {state}, "
            f"rounds={self.rounds}, messages={self.messages})"
        )


class Tracer:
    """Hands out nesting spans and owns the open-span stack.

    Attach to a live :class:`repro.congest.trace.RoundTrace` with
    :meth:`attach`; from then on the trace attributes every recorded
    round to ``tracer.current`` and the trace's ``dump_jsonl`` interleaves
    the span open/close events with the round records.

    A tracer without an attached trace still measures wall-clock per
    span (useful for charged-layer phases that send no messages).
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: List[Span] = []
        #: chronological ``(record_index, "open"|"close", span)`` log —
        #: what ``dump_jsonl`` interleaves with the round records
        self.events: List[Any] = []
        #: optional request lineage (a ``repro.obs.events.TraceContext``
        #: or any object with a ``trace_id``) — see :meth:`bind_context`
        self.context = None
        self._stack: List[Span] = []
        self._trace = None
        self._clock = clock

    def attach(self, trace) -> Any:
        """Bind this tracer to a ``RoundTrace``; returns the trace."""
        trace.tracer = self
        self._trace = trace
        return trace

    def bind_context(self, context) -> None:
        """Stamp subsequent span events with a request's trace lineage.

        ``context`` is duck-typed (anything with a ``trace_id``
        attribute — in practice a :class:`repro.obs.events.TraceContext`;
        this module deliberately does not import it).
        Binding is observational only: it never changes which rounds run
        or how they are attributed.
        """
        self.context = context

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside all spans."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span context manager; counters attribute to it while it
        is the innermost open span."""
        return Span(self, name, attrs)

    # -- span lifecycle (called by Span.__enter__/__exit__) ------------
    def _open(self, span: Span) -> None:
        if span.id:
            raise RuntimeError(f"span {span.name!r} entered twice")
        span.id = len(self.spans) + 1
        span.parent_id = self._stack[-1].id if self._stack else None
        span.depth = len(self._stack)
        span.open_at = len(self._trace.records) if self._trace is not None else 0
        span._t0 = self._clock()
        self.spans.append(span)
        self.events.append((span.open_at, "open", span))
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            innermost = self._stack[-1].name if self._stack else None
            raise RuntimeError(
                f"span {span.name!r} closed out of order "
                f"(innermost is {innermost!r})"
            )
        self._stack.pop()
        span.close_at = len(self._trace.records) if self._trace is not None else 0
        span.wall_s = self._clock() - span._t0
        self.events.append((span.close_at, "close", span))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tracer(spans={len(self.spans)}, open={len(self._stack)})"


def trace_span(trace, name: str, **attrs: Any):
    """Span for the tracer attached to ``trace`` — or :data:`NULL_SPAN`.

    The hook the simulations use: ``with trace_span(trace, "bfs"):``.
    When ``trace`` is ``None`` or has no tracer attached, the shared
    no-op singleton comes back and **no span object is allocated**, so a
    sim that threads its ``trace=`` argument through pays nothing for the
    instrumentation until a user opts in via :meth:`Tracer.attach`.
    """
    tracer = getattr(trace, "tracer", None) if trace is not None else None
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)
