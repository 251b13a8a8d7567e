"""Tests for :mod:`repro.obs.events` — the ``COMEVT1`` event log.

The anchor properties: the canonical projection is stable under process
restarts (``seq`` renumbering, ops markers), the file tail is
crash-tolerant exactly like the journal's, and subscriber backpressure
drops (and counts) instead of stalling the emitter.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import EventLogError, JournalError
from repro.obs import MetricsRegistry
from repro.obs.events import (
    CANONICAL_KINDS,
    EVENT_MAGIC,
    NULL_EVENT_SINK,
    EventLog,
    GatewayEvent,
    RecordFile,
    canonical_projection,
    encode_canonical,
    read_events,
    row_digest,
)
from repro.service.journal import JOURNAL_MAGIC, Journal, scan_journal

#: A record file's frame header: payload length, CRC32 of the payload.
FRAME = struct.Struct(">II")


def frame(payload: bytes) -> bytes:
    return FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def first_payload(blob: bytes) -> bytes:
    """The payload of a record file's first frame."""
    length, __ = FRAME.unpack_from(blob, len(EVENT_MAGIC))
    start = len(EVENT_MAGIC) + FRAME.size
    return blob[start:start + length]


#: JSON documents with the values records carry, and the ones the encoder
#: must escape or spell out: quotes, control and non-ASCII characters,
#: signed zeros, subnormals, infinities and NaN.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, 5e-324, 1e300, float("inf"), float("nan")])
    | st.text(alphabet='ab"\\\x00\x1f\x7fé\U0001f600', max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


class TestEncoding:
    def test_encode_canonical_is_sorted_and_compact(self):
        assert encode_canonical({"b": 1, "a": [2, 3]}) == b'{"a":[2,3],"b":1}'

    @given(payload=_JSON)
    def test_encode_canonical_matches_json_dumps(self, payload):
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert encode_canonical(payload) == expected.encode()

    def test_row_digest_is_order_independent(self):
        assert row_digest({"a": 1, "b": 2}) == row_digest({"b": 2, "a": 1})
        assert row_digest({"a": 1}) != row_digest({"a": 2})

    def test_envelope_collision_rejected(self):
        log = EventLog()
        with pytest.raises(EventLogError):
            log.emit("decision", 1.0, seq=9)

    def test_event_roundtrip(self):
        event = GatewayEvent(seq=3, kind="decision", time=2.5, fields={"x": 1})
        assert GatewayEvent.from_dict(event.as_dict()) == event

    def test_malformed_envelope_raises(self):
        with pytest.raises(EventLogError):
            GatewayEvent.from_dict({"seq": 1, "time": 0.0})  # no kind


class TestCanonicalProjection:
    def test_ops_kinds_and_seq_are_stripped(self):
        canonical = GatewayEvent(seq=0, kind="decision", time=1.0, fields={"a": 1})
        renumbered = GatewayEvent(
            seq=99, kind="decision", time=1.0, fields={"a": 1}
        )
        crash = GatewayEvent(seq=1, kind="crash", time=1.0, fields={})
        metrics = GatewayEvent(seq=2, kind="metrics", time=1.0, fields={})
        assert canonical_projection(
            [canonical, crash, metrics]
        ) == canonical_projection([renumbered])

    def test_wall_field_is_stripped(self):
        with_wall = GatewayEvent(
            seq=0, kind="drain", time=1.0, fields={"wall": 123.4, "a": 1}
        )
        without = GatewayEvent(seq=0, kind="drain", time=1.0, fields={"a": 1})
        assert canonical_projection([with_wall]) == canonical_projection(
            [without]
        )

    def test_empty_projection(self):
        assert canonical_projection([]) == b""


class TestEventLogFile:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "events.comevt"
        log = EventLog(path)
        log.emit("meta", 0.0, schema="COMEVT1")
        log.emit("decision", 1.0, request="r1", status="serve_inner")
        log.close()
        recorded = read_events(path)
        assert [event.kind for event in recorded] == ["meta", "decision"]
        assert [event.seq for event in recorded] == [0, 1]
        assert recorded[1].fields["request"] == "r1"

    def test_flush_makes_pending_batch_visible(self, tmp_path):
        path = tmp_path / "events.comevt"
        log = EventLog(path)
        log.emit("decision", 1.0, request="r1")
        log.flush()  # write-behind batch must land on flush, not close
        assert len(read_events(path)) == 1
        log.close()

    def test_torn_tail_is_tolerated_and_truncated_on_resume(self, tmp_path):
        path = tmp_path / "events.comevt"
        log = EventLog(path)
        for seq in range(4):
            log.emit("decision", float(seq), request=f"r{seq}")
        log.close()
        intact = path.read_bytes()
        torn = frame(encode_canonical({"kind": "decision", "seq": 4, "time": 9.0}))
        path.write_bytes(intact + torn[: len(torn) // 2])
        assert len(read_events(path)) == 4  # reader drops the torn tail
        resumed = EventLog.resume(path)
        assert resumed.next_seq == 4
        resumed.emit("decision", 9.0, request="r4")
        resumed.close()
        recorded = read_events(path)
        assert [event.seq for event in recorded] == [0, 1, 2, 3, 4]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "events.comevt"
        log = EventLog(path)
        log.emit("decision", 1.0, request="r1")
        log.emit("decision", 2.0, request="r2")
        log.close()
        blob = bytearray(path.read_bytes())
        blob[len(EVENT_MAGIC) + FRAME.size] ^= 0xFF  # inside record 0
        path.write_bytes(bytes(blob))
        with pytest.raises(EventLogError):
            read_events(path)

    def test_resume_seeds_ring_and_continues_stream(self, tmp_path):
        path = tmp_path / "events.comevt"
        log = EventLog(path)
        log.emit("meta", 0.0)
        log.emit("decision", 1.0, request="r1")
        log.close()
        resumed = EventLog.resume(path)
        assert [event.seq for event in resumed.events()] == [0, 1]
        resumed.emit("recovered", 1.0, checkpoint_seq=0)
        resumed.close()
        assert [event.seq for event in read_events(path)] == [0, 1, 2]

    def test_emit_after_close_is_dropped(self, tmp_path):
        path = tmp_path / "events.comevt"
        log = EventLog(path)
        log.emit("decision", 1.0)
        log.close()
        log.emit("decision", 2.0)
        assert len(read_events(path)) == 1


class TestEventLogLive:
    def test_ring_catchup_since(self):
        log = EventLog(ring=4)
        for seq in range(6):
            log.emit("decision", float(seq))
        assert [event.seq for event in log.events()] == [2, 3, 4, 5]
        assert [event.seq for event in log.events(since=4)] == [5]

    def test_unbounded_ring(self):
        log = EventLog(ring=0)
        for seq in range(5000):
            log.emit("decision", float(seq))
        assert len(log.events()) == 5000

    def test_subscriber_receives_live_events(self):
        async def scenario():
            log = EventLog()
            queue = log.subscribe()
            log.emit("decision", 1.0, request="r1")
            event = await asyncio.wait_for(queue.get(), timeout=1.0)
            assert event.kind == "decision"
            log.unsubscribe(queue)
            log.emit("decision", 2.0)
            assert queue.empty()

        asyncio.run(scenario())

    def test_slow_subscriber_drops_and_counts(self):
        async def scenario():
            registry = MetricsRegistry()
            log = EventLog(registry=registry, queue_limit=2)
            log.subscribe()
            for seq in range(5):
                log.emit("decision", float(seq))
            assert log.dropped == 3
            assert (
                registry.counter("service_events_dropped_total").value(
                    reason="slow_subscriber"
                )
                == 3
            )

        asyncio.run(scenario())

    def test_observer_runs_inline(self):
        log = EventLog()
        seen: list[str] = []
        log.add_observer(lambda event: seen.append(event.kind))
        log.emit("decision", 1.0)
        log.emit("shed", 2.0)
        assert seen == ["decision", "shed"]

    def test_registry_counters_and_stats(self):
        registry = MetricsRegistry()
        log = EventLog(registry=registry)
        log.emit("decision", 1.0)
        log.emit("decision", 2.0)
        log.emit("worker", 3.0)
        assert (
            registry.counter("service_events_total").value(kind="decision")
            == 2
        )
        stats = log.stats()
        assert stats["emitted"] == 3
        assert stats["next_seq"] == 3
        assert stats["dropped"] == 0
        assert stats["lag"] == 0
        assert stats["events_per_second"] >= 0.0

    def test_null_sink_is_disabled_noop(self):
        assert NULL_EVENT_SINK.enabled is False
        NULL_EVENT_SINK.emit("decision", 1.0, request="r")
        NULL_EVENT_SINK.flush()
        NULL_EVENT_SINK.close()

    def test_canonical_kinds_partition(self):
        from repro.obs.events import OPS_KINDS

        assert not (CANONICAL_KINDS & OPS_KINDS)
        assert "decision" in CANONICAL_KINDS
        assert "crash" in OPS_KINDS


class TestFileFormat:
    def test_lines_are_canonical_json(self, tmp_path):
        path = tmp_path / "events.comevt"
        log = EventLog(path)
        log.emit("decision", 1.0, request="r1", payment=2.5)
        log.close()
        line = first_payload(path.read_bytes())
        payload = json.loads(line)
        assert line == encode_canonical(payload)
        assert set(payload) == {"kind", "seq", "time", "request", "payment"}


#: Each log on the shared record file: magic, error class, reader and
#: crash reopener.
LOGS = {
    "journal": (JOURNAL_MAGIC, JournalError, scan_journal, Journal.open),
    "events": (EVENT_MAGIC, EventLogError, read_events, EventLog.resume),
}

_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
_RECORDS = st.lists(
    st.tuples(
        st.sampled_from(sorted(CANONICAL_KINDS)),
        st.floats(min_value=0.0, max_value=1e6),
        st.dictionaries(st.sampled_from(["a", "ref", "status"]), _VALUES, max_size=3),
    ),
    min_size=1,
    max_size=6,
)


class TestRecordFileProperties:
    @pytest.mark.parametrize("log", sorted(LOGS))
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(records=_RECORDS, data=st.data())
    def test_torn_tails_corruption_and_format_1(self, tmp_path, log, records, data):
        magic, error, read, reopen = LOGS[log]
        events = [
            GatewayEvent(seq=seq, kind=kind, time=at, fields=fields)
            for seq, (kind, at, fields) in enumerate(records)
        ]
        payloads = [encode_canonical(event.as_dict()) for event in events]
        path = tmp_path / log
        file = RecordFile.create(path, magic, error)
        for payload in payloads:
            file.append(payload)
        file.close()
        blob = path.read_bytes()
        ends = list(
            itertools.accumulate(
                [len(magic)] + [FRAME.size + len(payload) for payload in payloads]
            )
        )

        # Cut anywhere past the header: the longest intact prefix, no error.
        cut = data.draw(st.integers(len(magic), len(blob)), label="cut")
        path.write_bytes(blob[:cut])
        assert read(path) == events[: sum(1 for end in ends[1:] if end <= cut)]

        # One flipped byte in any frame but the last is corruption.
        if len(events) > 1:
            at = data.draw(st.integers(ends[0], ends[-2] - 1), label="flip at")
            flipped = bytearray(blob)
            flipped[at] ^= data.draw(st.integers(1, 255), label="flip mask")
            path.write_bytes(bytes(flipped))
            with pytest.raises(error):
                read(path)

        # A format-1 (line-delimited JSON) file is refused by name.
        path.write_bytes(b"".join(payload + b"\n" for payload in payloads))
        with pytest.raises(error, match="format-1"):
            read(path)
        with pytest.raises(error, match="format-1"):
            reopen(path)
