"""Tests for timers and table rendering."""

from __future__ import annotations

import hashlib
import time

import pytest

from repro.utils.stats import quantile
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
        assert acc.count == 0
        assert acc.total_seconds == 0.0

    def test_records_in_milliseconds(self):
        acc = TimingAccumulator()
        acc.record(0.001)
        acc.record(0.003)
        assert acc.count == 2
        assert acc.total_seconds == pytest.approx(0.004)


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


class TestTimingPercentiles:
    def test_exact_until_reservoir_full(self):
        acc = TimingAccumulator()
        values = [value / 1000.0 for value in range(1, 101)]
        for value in values:
            acc.record(value)
        assert acc.samples() == values
        assert quantile(sorted(acc.samples()), 0.5) == pytest.approx(0.0505, abs=1e-3)

    def test_empty_is_zero(self):
        assert TimingAccumulator().samples() == []

    def test_reservoir_bounded(self):
        acc = TimingAccumulator()
        for value in range(5000):
            acc.record(float(value))
        assert len(acc.samples()) == TimingAccumulator.RESERVOIR_SIZE
        # The estimate still tracks the true distribution roughly.
        assert quantile(sorted(acc.samples()), 0.5) == pytest.approx(2500, rel=0.15)

    def test_reservoir_draws_pinned(self):
        # Recorded before the accumulator kept a plain count and total in
        # place of full running statistics: the draws must not move.
        acc = TimingAccumulator()
        for value in range(3000):
            acc.record(value / 7.0)
        digest = hashlib.sha256(repr(acc.samples()).encode()).hexdigest()
        assert digest == (
            "949c44a8968c28634a487df2e1aa848858d143f1ddd89db7fa9535c8a0da10c0"
        )
        assert acc.count == 3000
        assert acc.total_seconds == 642642.857142857
