"""Outside-in layer spans, recorded by wrapping the program's functions.

The benchmark never edits the program to time it.  :meth:`Tracer.install`
replaces a fixed list of public functions, module globals included
(``repro.service.gateway.write_snapshot`` is looked up there at call
time), with wrappers that record one span per call and restores them on
:meth:`Tracer.uninstall`.

A span is ``(span_id, parent_id, name, trace_id, start_ns, end_ns,
note)``.  The parent is the span open in the caller's ``contextvars``
context, so spans nest correctly inside asyncio tasks and never across
them.  The trace id is the request id for spans on a request's path
(inherited from the enclosing span) and the run id otherwise.  Times are
``time.perf_counter_ns`` (``CLOCK_MONOTONIC``), so spans from the serving
process and the load generator's records can be joined.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
from collections import defaultdict
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from common import percentile

#: (span_id, trace_id) of the innermost open span in this context.
_CURRENT: ContextVar[tuple[int, str] | None] = ContextVar("bench_span", default=None)


def _request_arg(args: tuple) -> str | None:
    """Trace id of ``method(self, request, ...)``."""
    return args[1].request_id if len(args) > 1 else None


def _exchange_request_arg(args: tuple) -> str | None:
    """Trace id of ``exchange.query(self, platform_id, request)``."""
    return args[2].request_id if len(args) > 2 else None


def _wire_payload_id(args: tuple) -> str | None:
    payload = args[0] if args else None
    return str(payload["id"]) if isinstance(payload, dict) and "id" in payload else None


def _response_request_id(args: tuple) -> str | None:
    outcome = args[0].get("outcome") if args and isinstance(args[0], dict) else None
    return outcome.get("request_id") if isinstance(outcome, dict) else None


def _accepted(args: tuple, result) -> object:
    return result.kind.value == "serve_outer"


def _size(args: tuple, result) -> object:
    return len(result)


def _status(args: tuple, result) -> object:
    return result.status


def _journal_seq(args: tuple, result) -> object:
    return args[0].next_seq


#: (owner, attribute, span name, trace-id extractor, note extractor).
#: ``owner`` is ``module`` or ``module:Class``.
LAYERS: tuple[tuple, ...] = (
    ("repro.core.simulator:Simulator", "run", "simulator.run", None, None),
    ("repro.core.simulator:SimulationSession", "submit_request", "session.submit_request", _request_arg, None),
    ("repro.core.simulator:SimulationSession", "submit_worker", "session.submit_worker", None, None),
    ("repro.core.simulator:SimulationSession", "advance_to", "session.advance_to", None, None),
    ("repro.core.simulator:SimulationSession", "finalize", "session.finalize", None, None),
    ("repro.core.simulator", "approximate_size_bytes", "memory.size_walk", None, None),
    ("repro.core.exchange:CooperationExchange", "inner_candidates", "exchange.inner_candidates", _exchange_request_arg, None),
    ("repro.core.exchange:CooperationExchange", "outer_candidates", "exchange.outer_candidates", _exchange_request_arg, _size),
    ("repro.core.exchange:CooperationExchange", "worker_arrives", "exchange.worker_arrives", None, None),
    ("repro.core.exchange:CooperationExchange", "claim", "exchange.claim", None, None),
    ("repro.core.pricing:MaximumExpectedRevenuePricer", "quote", "pricing.quote", None, None),
    ("repro.core.payment:MinimumOuterPaymentEstimator", "estimate", "payment.estimate", None, None),
    ("repro.core.ramcom", "run_offer_loop", "offer_loop", None, _accepted),
    ("repro.core.demcom", "run_offer_loop", "offer_loop", None, _accepted),
    ("repro.behavior.worker_model:BehaviorOracle", "offer", "behavior.offer", None, None),
    ("repro.core.acceptance:AcceptanceEstimator", "record_completion", "acceptance.record_completion", None, None),
    ("repro.service.gateway:MatchingGateway", "submit_request", "gateway.submit_request", _request_arg, _status),
    ("repro.service.gateway:MatchingGateway", "submit_worker", "gateway.submit_worker", None, None),
    ("repro.service.gateway", "write_snapshot", "snapshot.write", None, None),
    ("repro.service.journal:Journal", "append", "journal.append", None, None),
    ("repro.service.journal:Journal", "append_worker_ref", "journal.append", None, None),
    ("repro.service.journal:Journal", "append_request_ref", "journal.append", None, None),
    ("repro.service.journal:Journal", "commit", "journal.commit", None, _journal_seq),
    ("repro.obs.events:EventLog", "emit", "events.emit", None, None),
    ("repro.obs.events:EventLog", "flush", "events.flush", None, None),
    ("repro.service.server", "request_from_wire", "wire.request_from_wire", _wire_payload_id, None),
    ("repro.service.server", "encode_response", "server.encode_response", _response_request_id, None),
)


def _resolve(owner: str) -> object:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, owner: object, attribute: str, name: str, trace_of=None, note=None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = getattr(owner, attribute)
        spans = self.spans
        ids = self._ids
        run_id = self.run_id

        def enter(args: tuple) -> tuple:
            parent = _CURRENT.get()
            trace = trace_of(args) if trace_of is not None else None
            if trace is None:
                trace = parent[1] if parent is not None else run_id
            span_id = next(ids)
            token = _CURRENT.set((span_id, trace))
            return span_id, parent[0] if parent is not None else None, trace, token, perf_counter_ns()

        def leave(frame: tuple, end: int, noted: object) -> None:
            span_id, parent, trace, token, start = frame
            _CURRENT.reset(token)
            spans.append((span_id, parent, name, trace, start, end, noted))

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                frame = enter(args)
                try:
                    result = await original(*args, **kwargs)
                except BaseException:
                    leave(frame, perf_counter_ns(), None)
                    raise
                end = perf_counter_ns()
                leave(frame, end, note(args, result) if note else None)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                frame = enter(args)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    leave(frame, perf_counter_ns(), None)
                    raise
                end = perf_counter_ns()
                leave(frame, end, note(args, result) if note else None)
                return result

        setattr(owner, attribute, wrapper)
        self._restore.append((owner, attribute, original))

    def install(self) -> "Tracer":
        """Wrap every function in :data:`LAYERS`."""
        for owner, attribute, name, trace_of, note in LAYERS:
            self._wrap(_resolve(owner), attribute, name, trace_of, note)
        return self

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)


def write_spans(path: Path, spans: list[tuple]) -> None:
    """Write spans as JSON lines (read back by :func:`read_spans`)."""
    with path.open("w") as handle:
        for span_id, parent, name, trace, start, end, note in spans:
            handle.write(json.dumps({
                "span": span_id, "parent": parent, "name": name, "trace": trace,
                "start_ns": start, "end_ns": end, "note": note,
            }) + "\n")


def read_spans(path: Path) -> list[tuple]:
    """Spans written by :func:`write_spans`, as tuples."""
    spans = []
    with path.open() as handle:
        for line in handle:
            record = json.loads(line)
            spans.append((record["span"], record["parent"], record["name"], record["trace"],
                          record["start_ns"], record["end_ns"], record["note"]))
    return spans


# -- analysis ----------------------------------------------------------------


def _covered(intervals: list[tuple[int, int]], low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


@dataclass
class Layer:
    """Everything recorded under one span name."""

    durations_ns: list[int] = field(default_factory=list)
    self_ns: int = 0
    notes: list = field(default_factory=list)

    @property
    def calls(self) -> int:
        return len(self.durations_ns)

    @property
    def total_ns(self) -> int:
        return sum(self.durations_ns)

    def us_mean(self) -> float:
        return self.total_ns / self.calls / 1e3 if self.calls else 0.0

    def us_percentile(self, q: float) -> float:
        return percentile(self.durations_ns, q) / 1e3


def analyze(spans: list[tuple]) -> tuple[dict[str, Layer], dict[int, int], int]:
    """Per-name layers, each span's self time, and the traced window.

    Self time is a span's duration minus the part of it covered by its
    children.  The window is the union of the root spans: the time the
    process spent inside any traced call.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    roots: list[tuple[int, int]] = []
    for span_id, parent, _, _, start, end, _ in spans:
        if parent is None:
            roots.append((start, end))
        else:
            children[parent].append((start, end))
    layers: dict[str, Layer] = defaultdict(Layer)
    self_times: dict[int, int] = {}
    for span_id, _, name, _, start, end, note in spans:
        own = end - start - _covered(children.get(span_id, []), start, end)
        self_times[span_id] = own
        layer = layers[name]
        layer.durations_ns.append(end - start)
        layer.self_ns += own
        layer.notes.append(note)
    window = _covered(roots, min((s for s, _ in roots), default=0), max((e for _, e in roots), default=0))
    return dict(layers), self_times, window


def per_layer_metrics(spans: list[tuple], records: list[dict], extras: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced run.

    ``records`` are the load generator's per-request due/sent/received
    times (served workloads); ``extras`` are values measured without
    spans (build time, file sizes, generator lateness, tracing overhead).
    A layer the workload never calls reads 0.
    """
    layers, _, window = analyze(spans)
    empty = Layer()

    def layer(name: str) -> Layer:
        return layers.get(name, empty)

    def share(name: str) -> float:
        return layer(name).self_ns / window if window else 0.0

    gateway = {span[3]: span for span in spans if span[2] == "gateway.submit_request"}
    session = {span[3]: span for span in spans if span[2] == "session.submit_request"}
    joined = [(entry, session[trace]) for trace, entry in gateway.items() if trace in session]
    answered = [(record, gateway[record["id"]]) for record in records if record["id"] in gateway]
    commits = layer("journal.commit").notes
    effective_commits = sum(1 for before, after in zip([0, *commits], commits) if after != before)
    outer_sizes = layer("exchange.outer_candidates").notes
    offers = layer("offer_loop")
    metrics = {
        "transport.wait_ms.p50": percentile([(entry[4] - record["due_ns"]) / 1e6 for record, entry in answered], 50),
        "transport.wait_ms.p99": percentile([(entry[4] - record["due_ns"]) / 1e6 for record, entry in answered], 99),
        "transport.return_ms.p50": percentile([(record["recv_ns"] - entry[5]) / 1e6 for record, entry in answered], 50),
        "wire.request_from_wire.us_mean": layer("wire.request_from_wire").us_mean(),
        "server.encode_response.us_mean": layer("server.encode_response").us_mean(),
        "gateway.submit_request.us_p50": layer("gateway.submit_request").us_percentile(50),
        "gateway.submit_request.us_p99": layer("gateway.submit_request").us_percentile(99),
        "gateway.queue_wait_us.p50": percentile([(inner[4] - entry[4]) / 1e3 for entry, inner in joined], 50),
        "gateway.ack_us.p50": percentile([(entry[5] - inner[5]) / 1e3 for entry, inner in joined], 50),
        "gateway.shed": sum(1 for status in layer("gateway.submit_request").notes if status == "shed"),
        "journal.append.calls": layer("journal.append").calls,
        "journal.append.us_mean": layer("journal.append").us_mean(),
        "journal.commit.calls": layer("journal.commit").calls,
        "journal.commit.us_mean": layer("journal.commit").us_mean(),
        "journal.records_per_commit": layer("journal.append").calls / effective_commits if effective_commits else 0.0,
        "snapshot.write.calls": layer("snapshot.write").calls,
        "snapshot.write.ms_max": max(layer("snapshot.write").durations_ns, default=0) / 1e6,
        "snapshot.write.ms_total": layer("snapshot.write").total_ns / 1e6,
        "events.emit.calls": layer("events.emit").calls,
        "events.emit.us_mean": layer("events.emit").us_mean(),
        "events.flush.us_mean": layer("events.flush").us_mean(),
        "session.submit_request.us_mean": layer("session.submit_request").us_mean(),
        "session.submit_request.self_share": share("session.submit_request"),
        "session.advance_to.us_mean": layer("session.advance_to").us_mean(),
        "session.finalize.ms": layer("session.finalize").us_mean() / 1e3,
        "memory.size_walk.ms": layer("memory.size_walk").us_mean() / 1e3,
        "exchange.inner_candidates.calls": layer("exchange.inner_candidates").calls,
        "exchange.inner_candidates.us_mean": layer("exchange.inner_candidates").us_mean(),
        "exchange.outer_candidates.calls": layer("exchange.outer_candidates").calls,
        "exchange.outer_candidates.us_mean": layer("exchange.outer_candidates").us_mean(),
        "exchange.outer_candidates.size_mean": sum(outer_sizes) / len(outer_sizes) if outer_sizes else 0.0,
        "exchange.worker_arrives.calls": layer("exchange.worker_arrives").calls,
        "exchange.claim.calls": layer("exchange.claim").calls,
        "pricing.quote.calls": layer("pricing.quote").calls,
        "pricing.quote.us_mean": layer("pricing.quote").us_mean(),
        "pricing.quote.us_p99": layer("pricing.quote").us_percentile(99),
        "pricing.quote.self_share": share("pricing.quote"),
        "payment.estimate.calls": layer("payment.estimate").calls,
        "payment.estimate.us_mean": layer("payment.estimate").us_mean(),
        "payment.estimate.self_share": share("payment.estimate"),
        "offer_loop.calls": offers.calls,
        "offer_loop.us_mean": offers.us_mean(),
        "offer_loop.accept_ratio": sum(1 for accepted in offers.notes if accepted) / offers.calls if offers.calls else 0.0,
        "behavior.offer.calls": layer("behavior.offer").calls,
        "behavior.offer.us_mean": layer("behavior.offer").us_mean(),
        "acceptance.record_completion.calls": layer("acceptance.record_completion").calls,
        "acceptance.record_completion.us_mean": layer("acceptance.record_completion").us_mean(),
    }
    defaults = dict.fromkeys(
        ("workloads.build_s", "journal.bytes", "events.bytes", "loadgen.lateness_ms.p50",
         "loadgen.lateness_ms.p99", "trace.overhead_ratio"),
        0.0,
    )
    return {**defaults, **metrics, **extras}
