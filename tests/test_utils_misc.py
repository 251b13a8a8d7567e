"""Tests for timers, memory accounting and table rendering."""

from __future__ import annotations

import time

import pytest

from repro.utils.memory import MemoryMeter, approximate_size_bytes
from repro.utils.tables import TextTable, format_float, format_si
from repro.utils.timer import Stopwatch, TimingAccumulator


class TestStopwatch:
    def test_context_manager(self):
        with Stopwatch() as watch:
            time.sleep(0.005)
        assert watch.elapsed_seconds >= 0.004

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_restart(self):
        watch = Stopwatch().start()
        first = watch.stop()
        watch.start()
        second = watch.stop()
        assert first >= 0 and second >= 0

    def test_success_not_flagged(self):
        with Stopwatch() as watch:
            pass
        assert watch.failed is False

    def test_exception_propagates_and_flags_sample(self):
        watch = Stopwatch()
        with pytest.raises(ValueError, match="boom"):
            with watch:
                time.sleep(0.001)
                raise ValueError("boom")
        # The exception escapes, the elapsed time is still measured for
        # diagnostics, but the sample is flagged so latency metrics skip it.
        assert watch.failed is True
        assert watch.elapsed_seconds > 0.0

    def test_restart_clears_failed_flag(self):
        watch = Stopwatch()
        with pytest.raises(RuntimeError):
            with watch:
                raise RuntimeError
        assert watch.failed
        with watch:
            pass
        assert watch.failed is False


class TestTimingAccumulator:
    def test_empty_means_zero(self):
        acc = TimingAccumulator()
        assert acc.mean_ms == 0.0
        assert acc.max_ms == 0.0

    def test_records_in_milliseconds(self):
        acc = TimingAccumulator()
        acc.record(0.001)
        acc.record(0.003)
        assert acc.count == 2
        assert acc.mean_ms == pytest.approx(2.0)
        assert acc.max_ms == pytest.approx(3.0)
        assert acc.total_seconds == pytest.approx(0.004)


class TestApproximateSize:
    def test_atomic(self):
        assert approximate_size_bytes(1) > 0
        assert approximate_size_bytes("hello") > 0

    def test_container_grows_with_content(self):
        small = approximate_size_bytes([1] * 10)
        large = approximate_size_bytes(list(range(1000)))
        assert large > small

    def test_shared_objects_counted_once(self):
        shared = list(range(100))
        single = approximate_size_bytes([shared])
        double = approximate_size_bytes([shared, shared])
        # The second reference adds only list overhead, not the payload.
        assert double - single < approximate_size_bytes(shared) / 2

    def test_cycles_terminate(self):
        a: list = []
        a.append(a)
        assert approximate_size_bytes(a) > 0

    def test_objects_with_slots(self):
        class Slotted:
            __slots__ = ("x", "y")

            def __init__(self):
                self.x = list(range(50))
                self.y = "payload"

        assert approximate_size_bytes(Slotted()) > approximate_size_bytes(object())

    def test_mapping(self):
        assert approximate_size_bytes({"k": list(range(100))}) > approximate_size_bytes(
            {}
        )


class TestMemoryMeter:
    def test_measures_allocation(self):
        meter = MemoryMeter()
        with meter:
            data = list(range(200_000))
        assert meter.peak_bytes > 100_000
        del data


class TestFormatting:
    def test_format_float_basic(self):
        assert format_float(1.23456) == "1.235"
        assert format_float(1.0, digits=1) == "1.0"

    def test_format_float_none_and_nan(self):
        assert format_float(None) == "-"
        assert format_float(float("nan")) == "-"
        assert format_float(float("inf")) == "-"

    def test_format_si(self):
        assert format_si(500) == "500"
        assert format_si(2500) == "2.5k"
        assert format_si(100_000) == "100k"
        assert format_si(2_000_000) == "2M"


class TestTextTable:
    def test_render_alignment(self):
        table = TextTable(["Name", "Value"], title="T")
        table.add_row(["abc", 1.5])
        table.add_row(["de", None])
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "T"
        assert "Name" in lines[1]
        assert "-" in lines[2]
        assert "abc" in lines[3]
        assert lines[4].startswith("de")

    def test_row_width_mismatch_raises(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_markdown(self):
        table = TextTable(["a"])
        table.add_row([1])
        markdown = table.render_markdown()
        assert "| a |" in markdown
        assert "|---|" in markdown

    def test_csv(self):
        table = TextTable(["a", "b"])
        table.add_row([1, 2.5])
        assert table.render_csv().splitlines() == ["a,b", "1,2.500"]


class TestTimingPercentiles:
    def test_exact_until_reservoir_full(self):
        acc = TimingAccumulator()
        for value in range(1, 101):
            acc.record(value / 1000.0)
        assert acc.percentile_ms(0.5) == pytest.approx(50.5, abs=1.0)
        assert acc.percentile_ms(1.0) == pytest.approx(100.0)

    def test_empty_is_zero(self):
        assert TimingAccumulator().percentile_ms(0.9) == 0.0

    def test_reservoir_bounded(self):
        acc = TimingAccumulator()
        for value in range(5000):
            acc.record(float(value))
        assert len(acc._reservoir) == TimingAccumulator.RESERVOIR_SIZE
        # The estimate still tracks the true distribution roughly.
        assert acc.percentile_ms(0.5) == pytest.approx(2500 * 1e3, rel=0.15)

    def test_repeated_queries_use_cached_sort(self):
        acc = TimingAccumulator()
        for value in (0.005, 0.001, 0.003, 0.002, 0.004):
            acc.record(value)
        first = [acc.percentile_ms(q) for q in (0.1, 0.5, 0.9)]
        assert acc._sorted is not None
        cached = acc._sorted
        second = [acc.percentile_ms(q) for q in (0.1, 0.5, 0.9)]
        # Same answers, and the sorted view object was not rebuilt.
        assert second == first
        assert acc._sorted is cached

    def test_record_invalidates_cached_sort(self):
        acc = TimingAccumulator()
        acc.record(0.002)
        acc.record(0.001)
        assert acc.percentile_ms(1.0) == pytest.approx(2.0)
        acc.record(0.009)
        assert acc._sorted is None
        assert acc.percentile_ms(1.0) == pytest.approx(9.0)

    def test_reservoir_replacement_invalidates_cache(self):
        acc = TimingAccumulator()
        for value in range(TimingAccumulator.RESERVOIR_SIZE):
            acc.record(float(value))
        acc.percentile_ms(0.5)
        # Keep recording until a reservoir slot is actually replaced, then
        # the cached sorted view must have been dropped.
        before = acc.samples()
        while acc.samples() == before:
            acc.record(1e9)
        assert acc._sorted is None
