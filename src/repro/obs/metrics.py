"""The metrics registry — labelled counters, gauges and histograms.

A :class:`MetricsRegistry` is the numeric half of the telemetry substrate
(the :mod:`repro.obs.tracing` spans are the structural half).  It follows
the Prometheus data model without any dependency: a *family* is a named
metric (``decisions_total``), a *series* is one labelled instance of it
(``decisions_total{platform="A", kind="serve_inner"}``).

Design constraints, in order:

* **Mergeable.**  Snapshots from per-platform (or per-process) registries
  must combine into exactly the snapshot a single shared registry would
  have produced — counters and histograms sum, gauges sum too (a gauge
  here is a *shard-additive* level, e.g. waiting-list size per platform;
  see :meth:`MetricsSnapshot.merge`).  Merging is associative and
  commutative, which the property tests exercise.
* **Deterministic.**  Snapshots sort families and series so that equal
  measurement histories serialise to identical JSON.
* **Cheap.**  Recording is a dict lookup and a float add; the registry is
  only ever touched behind a :class:`~repro.obs.probe.Probe`, whose no-op
  default skips it entirely.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_BUCKETS",
]

#: Label sets are kwargs at the call site, tuples of sorted items inside.
LabelKey = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds-flavoured log scale, but
#: unit-agnostic: iteration counts and sim-seconds use them equally well).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6,
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
    100.0,
    1000.0,
)


def _label_key(labels: dict[str, str], keys: dict[tuple, LabelKey]) -> LabelKey:
    """The key of ``labels``, remembered in a family's ``keys`` when every
    label and value is an exact ``str``: a ``str`` never equals a number,
    so ``trips=1`` and ``trips=True`` miss and keep their own series."""
    items = tuple(labels.items())
    try:
        return keys[items]
    except (KeyError, TypeError):  # a new set, or an unhashable value
        pass
    key = tuple(sorted((str(k), str(v)) for k, v in items))
    if all(type(k) is type(v) is str for k, v in items):
        keys[items] = key
    return key


class Counter:
    """A monotonically increasing sum per label set."""

    __slots__ = ("name", "_series", "_keys")

    def __init__(self, name: str):
        self.name = name
        self._series: dict[LabelKey, float] = {}
        self._keys: dict[tuple, LabelKey] = {}

    def inc(self, value: float = 1.0, **labels: str) -> None:
        """Add ``value`` (must be >= 0) to the labelled series."""
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({value})")
        key = _label_key(labels, self._keys)
        self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels: str) -> float:
        """Current value of one labelled series (0.0 if never touched)."""
        return self._series.get(_label_key(labels, self._keys), 0.0)

    def series(self) -> dict[LabelKey, float]:
        """All series, keyed by sorted label tuples."""
        return dict(self._series)


class Gauge:
    """A settable level per label set.

    Gauges here are *shard-additive*: each shard (platform, process) sets
    its own labelled series and a merged snapshot sums them — the natural
    semantics for levels like waiting-worker counts or bytes held.
    """

    __slots__ = ("name", "_series", "_keys")

    def __init__(self, name: str):
        self.name = name
        self._series: dict[LabelKey, float] = {}
        self._keys: dict[tuple, LabelKey] = {}

    def set(self, value: float, **labels: str) -> None:
        """Set the labelled series to ``value``."""
        self._series[_label_key(labels, self._keys)] = float(value)

    def add(self, delta: float, **labels: str) -> None:
        """Adjust the labelled series by ``delta``."""
        key = _label_key(labels, self._keys)
        self._series[key] = self._series.get(key, 0.0) + delta

    def value(self, **labels: str) -> float:
        """Current value of one labelled series (0.0 if never set)."""
        return self._series.get(_label_key(labels, self._keys), 0.0)

    def series(self) -> dict[LabelKey, float]:
        """All series, keyed by sorted label tuples."""
        return dict(self._series)


class _HistogramSeries:
    """One labelled histogram: bucket counts plus running aggregates."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self, n_buckets: int):
        # counts[i] = observations <= bounds[i]; counts[-1] = overflow.
        self.counts = [0] * (n_buckets + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float, bounds: tuple[float, ...]) -> None:
        self.counts[bisect.bisect_left(bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value


class Histogram:
    """A bucketed distribution per label set (cumulative on snapshot)."""

    __slots__ = ("name", "bounds", "_series", "_keys")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name} bounds must strictly increase")
        self.name = name
        self.bounds = tuple(bounds)
        self._series: dict[LabelKey, _HistogramSeries] = {}
        self._keys: dict[tuple, LabelKey] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation in the labelled series."""
        key = _label_key(labels, self._keys)
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(len(self.bounds))
            self._series[key] = series
        series.observe(value, self.bounds)

    def count(self, **labels: str) -> int:
        """Observation count of one labelled series."""
        series = self._series.get(_label_key(labels, self._keys))
        return series.count if series is not None else 0

    def sum(self, **labels: str) -> float:
        """Observation sum of one labelled series."""
        series = self._series.get(_label_key(labels, self._keys))
        return series.total if series is not None else 0.0

    def series(self) -> dict[LabelKey, _HistogramSeries]:
        """All series, keyed by sorted label tuples."""
        return dict(self._series)


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable, JSON-ready view of a registry at one instant.

    The payload (:meth:`as_dict`) is pure dicts/lists with sorted keys and
    sorted series, so equal histories produce byte-equal JSON.
    """

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The snapshot as plain JSON-serialisable dicts."""
        return {
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsSnapshot":
        """Rebuild a snapshot from :meth:`as_dict` output."""
        return cls(
            counters=payload.get("counters", {}),
            gauges=payload.get("gauges", {}),
            histograms=payload.get("histograms", {}),
        )

    def counter_value(self, name: str, **labels: str) -> float:
        """One counter series' value (0.0 when absent)."""
        wanted = [list(pair) for pair in _label_key(labels, {})]
        for entry in self.counters.get(name, []):
            if entry["labels"] == wanted:
                return entry["value"]
        return 0.0

    def without_families(self, *names: str) -> "MetricsSnapshot":
        """A copy with the named metric families removed (any kind).

        Used to strip wall-clock-valued families (e.g. measured-latency
        histograms) before byte-level snapshot comparisons — everything
        else in a snapshot is a deterministic function of (scenario,
        seed); see :data:`repro.obs.WALL_CLOCK_FAMILIES`.
        """
        dropped = set(names)
        return MetricsSnapshot(
            counters={k: v for k, v in self.counters.items() if k not in dropped},
            gauges={k: v for k, v in self.gauges.items() if k not in dropped},
            histograms={
                k: v for k, v in self.histograms.items() if k not in dropped
            },
        )

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots as if one registry had seen both histories.

        Counters and gauges sum per series; histograms sum bucket counts
        (bucket bounds must agree) and fold min/max/total.
        """
        counters = _merge_scalar(self.counters, other.counters)
        gauges = _merge_scalar(self.gauges, other.gauges)
        histograms = _merge_histograms(self.histograms, other.histograms)
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )


def _series_map(entries: list[dict]) -> dict[tuple, dict]:
    return {tuple(tuple(pair) for pair in e["labels"]): e for e in entries}


def _merge_scalar(a: dict, b: dict) -> dict:
    merged: dict = {}
    for name in sorted(set(a) | set(b)):
        by_label = _series_map([dict(e) for e in a.get(name, [])])
        for entry in b.get(name, []):
            key = tuple(tuple(pair) for pair in entry["labels"])
            if key in by_label:
                by_label[key]["value"] += entry["value"]
            else:
                by_label[key] = dict(entry)
        merged[name] = [by_label[key] for key in sorted(by_label)]
    return merged


def _merge_histograms(a: dict, b: dict) -> dict:
    merged: dict = {}
    for name in sorted(set(a) | set(b)):
        by_label = {
            key: _copy_hist(entry)
            for key, entry in _series_map(a.get(name, [])).items()
        }
        for entry in b.get(name, []):
            key = tuple(tuple(pair) for pair in entry["labels"])
            if key not in by_label:
                by_label[key] = _copy_hist(entry)
                continue
            ours = by_label[key]
            if ours["bounds"] != entry["bounds"]:
                raise ValueError(
                    f"cannot merge histogram {name}: bucket bounds differ"
                )
            ours["counts"] = [
                x + y for x, y in zip(ours["counts"], entry["counts"])
            ]
            ours["count"] += entry["count"]
            ours["sum"] += entry["sum"]
            ours["min"] = min(ours["min"], entry["min"])
            ours["max"] = max(ours["max"], entry["max"])
        merged[name] = [by_label[key] for key in sorted(by_label)]
    return merged


def _copy_hist(entry: dict) -> dict:
    out = dict(entry)
    out["counts"] = list(entry["counts"])
    return out


class MetricsRegistry:
    """Creates-or-returns metric families and snapshots the whole set."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter family ``name`` (created on first use)."""
        family = self._counters.get(name)
        if family is None:
            family = Counter(name)
            self._counters[name] = family
        return family

    def gauge(self, name: str) -> Gauge:
        """The gauge family ``name`` (created on first use)."""
        family = self._gauges.get(name)
        if family is None:
            family = Gauge(name)
            self._gauges[name] = family
        return family

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram family ``name`` (created on first use).

        ``bounds`` only applies at creation; later calls with different
        bounds raise so series within a family stay mergeable.
        """
        family = self._histograms.get(name)
        if family is None:
            family = Histogram(name, bounds)
            self._histograms[name] = family
        elif family.bounds != tuple(bounds) and bounds is not DEFAULT_BUCKETS:
            raise ValueError(
                f"histogram {name} already registered with different bounds"
            )
        return family

    def snapshot(self) -> MetricsSnapshot:
        """A deterministic point-in-time copy of every series."""
        counters = {
            name: [
                {"labels": [list(pair) for pair in key], "value": value}
                for key, value in sorted(family.series().items())
            ]
            for name, family in sorted(self._counters.items())
        }
        gauges = {
            name: [
                {"labels": [list(pair) for pair in key], "value": value}
                for key, value in sorted(family.series().items())
            ]
            for name, family in sorted(self._gauges.items())
        }
        histograms = {}
        for name, family in sorted(self._histograms.items()):
            entries = []
            for key, series in sorted(family.series().items()):
                entries.append(
                    {
                        "labels": [list(pair) for pair in key],
                        "bounds": list(family.bounds),
                        "counts": list(series.counts),
                        "count": series.count,
                        "sum": series.total,
                        "min": series.min,
                        "max": series.max,
                    }
                )
            histograms[name] = entries
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )
