"""Memory accounting for the paper's memory-cost metric (§V-C2).

The paper reports the resident memory of its C++ implementation.  A Python
process's RSS is dominated by the interpreter, so raw RSS would hide the
signal the paper plots (memory grows with |R| and |W|, flat in rad, nearly
identical across algorithms).  We therefore provide two complementary
meters:

* :func:`approximate_size_bytes` — a deep ``sys.getsizeof`` walk over the
  simulator's live data structures, giving an *analytic* footprint that
  scales exactly with the stored requests/workers (this is what the figure
  benches report);
* :class:`MemoryMeter` — a ``tracemalloc`` wrapper measuring real allocation
  deltas for callers who want interpreter-level truth.
"""

from __future__ import annotations

import sys
import tracemalloc
from collections.abc import Mapping

__all__ = ["approximate_size_bytes", "MemoryMeter"]

_ATOMIC_TYPES = (int, float, complex, bool, bytes, str, type(None), range)

#: Atoms counted per *reference*, not per object: whether two equal numbers
#: are the same CPython object is an interpreter accident (int caching,
#: constant folding) that pickling does not preserve, so id-deduplicating
#: them would make the metric differ between a scenario and its pickled
#: copy — breaking the parallel-runner byte-identity guarantee
#: (docs/PERFORMANCE.md).  str/bytes identity survives pickling (the
#: pickle memo covers them), so they stay id-deduplicated.
_VALUE_TYPES = (int, float, complex, bool, type(None))


def _container_size(obj: object) -> int:
    """``sys.getsizeof`` with canonical (not historical) capacity.

    A list grown by repeated ``append`` carries over-allocation slack,
    while the same list unpickled arrives compact — so raw ``getsizeof``
    would make the metric depend on each container's growth *history*,
    not its contents, and differ between an uninterrupted run and one
    resumed from a service snapshot (docs/SERVICE.md).  Measuring a
    freshly rebuilt copy makes the overhead a deterministic function of
    the element count alone.
    """
    if type(obj) is list:
        return sys.getsizeof(list(obj))
    if type(obj) is dict:
        return sys.getsizeof(dict(obj))
    if type(obj) is set:
        return sys.getsizeof(set(obj))
    return sys.getsizeof(obj)


def approximate_size_bytes(obj: object, _seen: set[int] | None = None) -> int:
    """Recursively approximate the memory footprint of ``obj`` in bytes.

    Follows containers (dict/list/tuple/set/frozenset), object ``__dict__``
    and ``__slots__``.  Shared sub-objects are counted once (cycle-safe),
    except plain numbers, which count per reference so the result is a
    function of the data's *values*, not of interpreter-level object
    sharing.  Atomic immutables are counted with plain ``sys.getsizeof``.
    """
    if isinstance(obj, _VALUE_TYPES):
        return sys.getsizeof(obj)
    if _seen is None:
        _seen = set()
    object_id = id(obj)
    if object_id in _seen:
        return 0
    _seen.add(object_id)

    size = _container_size(obj)
    if isinstance(obj, _ATOMIC_TYPES):
        return size

    if isinstance(obj, Mapping):
        for key, value in obj.items():
            size += approximate_size_bytes(key, _seen)
            size += approximate_size_bytes(value, _seen)
        return size

    if isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += approximate_size_bytes(item, _seen)
        return size

    instance_dict = getattr(obj, "__dict__", None)
    if instance_dict is not None:
        size += approximate_size_bytes(instance_dict, _seen)
    slots = getattr(type(obj), "__slots__", ())
    if isinstance(slots, str):
        slots = (slots,)
    for slot in slots:
        if hasattr(obj, slot):
            size += approximate_size_bytes(getattr(obj, slot), _seen)
    return size


class MemoryMeter:
    """Measure real allocation deltas with ``tracemalloc``.

    Example
    -------
    >>> meter = MemoryMeter()
    >>> with meter:
    ...     data = list(range(100_000))
    >>> meter.peak_bytes > 0
    True
    """

    def __init__(self) -> None:
        self.current_bytes = 0
        self.peak_bytes = 0
        self._was_tracing = False

    def __enter__(self) -> "MemoryMeter":
        self._was_tracing = tracemalloc.is_tracing()
        if not self._was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        self._baseline = tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, *exc_info: object) -> None:
        current, peak = tracemalloc.get_traced_memory()
        self.current_bytes = max(0, current - self._baseline)
        self.peak_bytes = max(0, peak - self._baseline)
        if not self._was_tracing:
            tracemalloc.stop()
