"""Spans around calls into modalguard's layers, installed from outside.

The program has no tracing of its own yet, so the benchmark wraps the
module-level bindings that callers inside modalguard look up at call
time: `prove` as guard.py and ethics.py see it, `saturate` as
prover.py sees it, and so on.  A span records its layer name, the
binding it came through, start, end, parent span and request id.
Counters come from what the wrapped call returns.  Spans stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

# (module whose binding is wrapped, binding name, layer the span is named after)
HOOKS = (
    ("guard", "prove", "prover.prove"),
    ("guard", "verify_proof", "proofs.verify_proof"),
    ("guard", "check_dde", "ethics.check_dde"),
    ("guard", "project", "eventcalc.project"),
    ("guard", "oracle_entails", "models.entails"),
    ("ethics", "prove", "prover.prove"),
    ("ethics", "effects_of", "eventcalc.effects_of"),
    ("eventcalc", "project", "eventcalc.project"),
    ("prover", "harvest_join_targets", "schemata.harvest_join_targets"),
    ("prover", "expand_modal", "schemata.expand_modal"),
    ("prover", "shadow", "shadow.shadow"),
    ("prover", "clausify", "clauses.clausify"),
    ("prover", "saturate", "resolution.saturate"),
    # entry points the benchmark itself calls
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("guard", "adjudicate", "guard.adjudicate"),
    ("report", "render_json", "report.render_json"),
    ("guard", "prevents_holds", "guard.prevents_holds"),
    ("guard", "base_theory", "guard.base_theory"),
    ("guard", "trace_atoms", "guard.trace_atoms"),
    ("ethics", "check_dde", "ethics.check_dde"),
    ("proofs", "verify_proof", "proofs.verify_proof"),
)

REQUEST = "request"


def _prove_counters(args: tuple, result) -> dict:
    stats = result.stats
    return {
        "assumptions": len(args[0]),
        "grounding_instances": stats.get("grounding_instances", 0),
        "expansion_size": stats.get("expansion_size", 0),
    }


def _saturate_counters(args: tuple, result) -> dict:
    used = len(result.used_nodes()) if result.status == "refutation" else 0
    return {"generated": result.generated, "nodes": len(result.nodes), "used": used}


def _clausify_counters(args: tuple, result) -> dict:
    return {"clauses": len(result)}


COUNTERS: dict[str, Callable[[tuple, object], dict]] = {
    "prover.prove": _prove_counters,
    "resolution.saturate": _saturate_counters,
    "clauses.clausify": _clausify_counters,
}


class HookMissing(Exception):
    """A binding the benchmark traces no longer exists in modalguard."""


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "request", "counters")

    def __init__(self, name: str, site: str, parent: Optional[int], request: int):
        self.name = name
        self.site = site
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.request = request
        self.counters: Optional[dict] = None


class Tracer:
    """Collects spans; one request at a time, single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.requests: list[str] = []  # request id -> label
        self._stack: list[int] = []

    def _open(self, name: str, site: str) -> Span:
        if not self._stack and name != REQUEST:
            raise RuntimeError(f"{site} was called outside a traced request")
        parent = self._stack[-1] if self._stack else None
        span = Span(name, site, parent, len(self.requests) - 1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def call(self, name: str, site: str, fn: Callable, args: tuple, kwargs: dict):
        span = self._open(name, site)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        counters = COUNTERS.get(name)
        if counters is not None:
            span.counters = counters(args, result)
        return result

    @contextmanager
    def request(self, label: str) -> Iterator[None]:
        """Root span of one request; every layer span nests inside it."""
        if self._stack:
            raise RuntimeError("requests do not nest")
        self.requests.append(label)
        span = self._open(REQUEST, label)
        span.start = perf_counter()
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def dump(self) -> dict:
        return {
            "span_fields": Span.__slots__,
            "spans": [[getattr(s, f) for f in Span.__slots__] for s in self.spans],
            "requests": self.requests,
        }


def _wrap(tracer: Tracer, fn: Callable, name: str, site: str) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(name, site, fn, args, kwargs)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every hooked binding for the duration of the block."""
    saved = []
    try:
        for module, binding, layer in HOOKS:
            mod = importlib.import_module(f"modalguard.{module}")
            fn = getattr(mod, binding, None)
            if not callable(fn):
                raise HookMissing(
                    f"modalguard.{module}.{binding} no longer exists, so the "
                    f"{layer} layer cannot be traced; update HOOKS in "
                    f"guardbench/tracing.py"
                )
            saved.append((mod, binding, fn))
            setattr(mod, binding, _wrap(tracer, fn, layer, f"{module}.{binding}"))
        yield
    finally:
        for mod, binding, fn in reversed(saved):
            setattr(mod, binding, fn)


class RequestProfile:
    """Per-layer figures of one traced request."""

    def __init__(self, label: str, duration: float):
        self.label = label
        self.duration = duration  # seconds, root span
        self.busy: dict[str, float] = {}  # outermost spans of a name, seconds
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.sites: dict[str, int] = {}  # calls per wrapped binding
        self.counters: dict[str, dict[str, int]] = {}

    def deterministic(self) -> tuple:
        """Everything that must repeat exactly when the request repeats."""
        return (
            sorted(self.calls.items()),
            sorted(self.sites.items()),
            sorted((k, sorted(v.items())) for k, v in self.counters.items()),
        )


def profiles(tracer: Tracer) -> list[RequestProfile]:
    """Fold the spans into one profile per request.  Self time is a
    span's duration minus the durations of its children, so the self
    times of a request sum to its root span's duration."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: list[RequestProfile] = []
    for i, s in enumerate(spans):
        dur = s.end - s.start
        if s.name == REQUEST:
            out.append(RequestProfile(s.site, dur))
        prof = out[s.request]
        prof.self_time[s.name] = prof.self_time.get(s.name, 0.0) + dur - child_time[i]
        if s.name == REQUEST:
            continue
        prof.calls[s.name] = prof.calls.get(s.name, 0) + 1
        prof.sites[s.site] = prof.sites.get(s.site, 0) + 1
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            prof.busy[s.name] = prof.busy.get(s.name, 0.0) + dur
        if s.counters:
            acc = prof.counters.setdefault(s.name, {})
            for k, v in s.counters.items():
                acc[k] = acc.get(k, 0) + v
    return out
