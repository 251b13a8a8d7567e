"""Memory accounting for the paper's memory-cost metric (§V-C2).

The paper reports the resident memory of its C++ implementation.  A Python
process's RSS is dominated by the interpreter, so raw RSS would hide the
signal the paper plots (memory grows with |R| and |W|, flat in rad, nearly
identical across algorithms).  We therefore report
:func:`approximate_size_bytes`: a deep ``sys.getsizeof`` walk over the
simulator's live data structures, giving an *analytic* footprint that
scales exactly with the stored requests/workers (this is what the figure
benches report).
"""

from __future__ import annotations

import sys
from collections.abc import Mapping

__all__ = ["approximate_size_bytes"]

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


#: Node kinds, resolved once per class by :func:`_layout_of`.
_VALUE, _ATOMIC, _MAPPING, _SEQUENCE, _OBJECT = range(5)

#: Sentinel for a declared but unset slot.
_UNSET = object()


def _layout_of(cls: type) -> tuple[int, tuple[str, ...]]:
    """The kind of ``cls``'s instances and, for plain objects, the slot
    names to follow.

    The checks and their order are the per-node ``isinstance`` tests the
    walk used to make, asked once of the class: value before atomic
    (``bool`` is both), ``Mapping`` (the ABC, so ``OrderedDict`` and
    ``MappingProxyType`` qualify) before the sequence types.  The slot
    names are ``cls.__slots__`` as attribute lookup finds it — the class's
    own declaration, or the nearest base's — with a bare string meaning
    one slot.
    """
    if issubclass(cls, _VALUE_TYPES):
        return _VALUE, ()
    if issubclass(cls, _ATOMIC_TYPES):
        return _ATOMIC, ()
    if issubclass(cls, Mapping):
        return _MAPPING, ()
    if issubclass(cls, (list, tuple, set, frozenset)):
        return _SEQUENCE, ()
    slots = getattr(cls, "__slots__", ())
    if isinstance(slots, str):
        slots = (slots,)
    return _OBJECT, tuple(slots)


def approximate_size_bytes(obj: object, _seen: set[int] | None = None) -> int:
    """Recursively approximate the memory footprint of ``obj`` in bytes.

    Follows containers (dict/list/tuple/set/frozenset), object ``__dict__``
    and ``__slots__``.  Shared sub-objects are counted once (cycle-safe),
    except plain numbers, which count per reference so the result is a
    function of the data's *values*, not of interpreter-level object
    sharing.  Atomic immutables are counted with plain ``sys.getsizeof``.

    Each class's kind and slot names are resolved once per call
    (:func:`_layout_of`) rather than per node; a walk meets a handful of
    classes over tens of thousands of nodes
    (docs/PERFORMANCE.md#per-class-memory-walk).
    """
    seen = set() if _seen is None else _seen
    layouts: dict[type, tuple[int, tuple[str, ...]]] = {}
    getsizeof = sys.getsizeof

    def walk(node: object) -> int:
        cls = type(node)
        layout = layouts.get(cls)
        if layout is None:
            layout = layouts[cls] = _layout_of(cls)
        kind, slots = layout
        if kind == _VALUE:
            return getsizeof(node)
        node_id = id(node)
        if node_id in seen:
            return 0
        seen.add(node_id)

        size = _container_size(node)
        if kind == _ATOMIC:
            return size

        if kind == _MAPPING:
            for key, value in node.items():  # type: ignore[attr-defined]
                size += walk(key)
                size += walk(value)
            return size

        if kind == _SEQUENCE:
            for item in node:  # type: ignore[attr-defined]
                size += walk(item)
            return size

        instance_dict = getattr(node, "__dict__", None)
        if instance_dict is not None:
            size += walk(instance_dict)
        for slot in slots:
            # One lookup where hasattr + getattr made two: both swallow
            # exactly AttributeError (an unset slot).
            value = getattr(node, slot, _UNSET)
            if value is not _UNSET:
                size += walk(value)
        return size

    return walk(obj)
