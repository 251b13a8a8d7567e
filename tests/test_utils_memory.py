"""The memory-cost walk (``approximate_size_bytes``, paper §V-C2).

:func:`approximate_size_bytes` resolves each class's kind (value, atomic,
mapping, sequence or object) and its ``__slots__`` once per walk instead of
per node.  :func:`_reference_size` below is the per-node ``isinstance``
walk it replaced, kept here as the oracle: every case must measure the same
byte count through both.  The golden DemCOM / RamCOM runs additionally pin
the absolute ``memory_bytes`` recorded before the per-class dispatch landed.
"""

from __future__ import annotations

import sys
import types
from collections import OrderedDict, defaultdict
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.simulator as simulator_module
from repro.core import DemCOM, RamCOM, Simulator, SimulatorConfig
from repro.utils.memory import _container_size, approximate_size_bytes
from repro.workloads import SyntheticWorkload, SyntheticWorkloadConfig

from conftest import make_worker
from test_perf_fastpath import _golden_scenario

_ATOMIC_TYPES = (int, float, complex, bool, bytes, str, type(None), range)
_VALUE_TYPES = (int, float, complex, bool, type(None))


def _reference_size(obj: object, _seen: set[int] | None = None) -> int:
    """The per-node ``isinstance`` walk: five type checks per node, the
    ``Mapping`` ABC check among them, plus a ``__slots__`` lookup."""
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
            size += _reference_size(key, _seen)
            size += _reference_size(value, _seen)
        return size

    if isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += _reference_size(item, _seen)
        return size

    instance_dict = getattr(obj, "__dict__", None)
    if instance_dict is not None:
        size += _reference_size(instance_dict, _seen)
    slots = getattr(type(obj), "__slots__", ())
    if isinstance(slots, str):
        slots = (slots,)
    for slot in slots:
        if hasattr(obj, slot):
            size += _reference_size(getattr(obj, slot), _seen)
    return size


def _assert_same(obj: object) -> int:
    size = approximate_size_bytes(obj)
    assert size == _reference_size(obj)
    return size


class _DictSubclass(dict):
    pass


class _ListSubclass(list):
    pass


class _StringSlot:
    __slots__ = "payload"

    def __init__(self, payload):
        self.payload = payload


class _SlotsAndDict:
    __slots__ = ("slotted", "__dict__")

    def __init__(self):
        self.slotted = list(range(20))
        self.loose = {"k": "v" * 40}


class _Base:
    __slots__ = ("a",)

    def __init__(self):
        self.a = [1.5, 2.5]


class _Derived(_Base):
    __slots__ = ("b",)

    def __init__(self):
        super().__init__()
        self.b = "derived"


class _PartlyFilled:
    __slots__ = ("set_slot", "unset_slot")

    def __init__(self):
        self.set_slot = (1, 2, 3)


class _Plain:
    def __init__(self, child):
        self.child = child
        self.number = 7.25


class TestPerClassDispatch:
    """Each class's kind and slot layout, checked against the per-node
    ``isinstance`` walk."""

    def test_dict_and_list_subclasses(self):
        mapping = _DictSubclass(a=[1, 2, 3], b="text")
        sequence = _ListSubclass([mapping, 4.5, "x"])
        # Walked as their base kind: the contents contribute.
        assert _assert_same(mapping) > sys.getsizeof(mapping) + sys.getsizeof(
            mapping["a"]
        )
        assert _assert_same(sequence) > sys.getsizeof(sequence) + sys.getsizeof(
            mapping
        )

    def test_ordered_dict_and_defaultdict(self):
        _assert_same(OrderedDict([("x", [1.0, 2.0]), ("y", "long" * 10)]))
        grouped: defaultdict[str, list[int]] = defaultdict(list)
        grouped["a"].extend(range(5))
        _assert_same(grouped)

    def test_mapping_proxy(self):
        proxy = types.MappingProxyType({"k": list(range(10)), 3: "v"})
        size = _assert_same(proxy)
        # Walked as a mapping: its values contribute.
        assert size > sys.getsizeof(proxy) + sys.getsizeof(list(range(10)))

    def test_string_slots(self):
        holder = _StringSlot(list(range(30)))
        size = _assert_same(holder)
        assert size >= sys.getsizeof(holder) + sys.getsizeof(list(range(30)))

    def test_slots_and_dict(self):
        both = _SlotsAndDict()
        size = _assert_same(both)
        # Both the slot value and the instance-dict value are counted.
        assert size > sys.getsizeof(both.slotted) + sys.getsizeof(both.loose["k"])

    def test_inherited_slots_follow_the_reference(self):
        _assert_same(_Derived())

    def test_unset_slot_is_skipped(self):
        _assert_same(_PartlyFilled())

    def test_class_first_seen_after_the_cache_warmed(self):
        class LateArrival:
            __slots__ = ("data",)

            def __init__(self):
                self.data = {"late": list(range(12))}

        warm = [make_worker(f"w{i}", x=i * 0.1) for i in range(50)]
        payload = {"warm": warm, "then": [_Plain(LateArrival())]}
        _assert_same(payload)
        # A fresh walk over the late class alone resolves it cold.
        _assert_same(LateArrival())

    def test_numbers_counted_per_reference_and_shared_objects_once(self):
        shared = [3.0] * 4
        big = 10**30
        once = _assert_same([shared, big, True, None])
        twice = _assert_same([shared, shared, big, big, True, None])
        # The second list reference is free; the second number is not.
        two_more_slots = _container_size([None] * 6) - _container_size([None] * 4)
        assert twice - once == two_more_slots + sys.getsizeof(big)

    def test_cycles_terminate(self):
        node = _Plain(None)
        node.child = [node, {"self": node}]
        _assert_same(node)

    def test_explicit_seen_set_is_shared(self):
        shared = list(range(40))
        seen: set[int] = set()
        first = approximate_size_bytes(shared, seen)
        outer = [shared]
        assert approximate_size_bytes(outer, seen) == _container_size(outer)
        assert first == _reference_size(list(range(40)))


_LEAVES = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=12),
    st.binary(max_size=8),
)


def _structures():
    return st.recursive(
        _LEAVES,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.lists(children, max_size=5).map(tuple),
            st.lists(children, max_size=5).map(_ListSubclass),
            st.dictionaries(st.text(max_size=5), children, max_size=4),
            st.dictionaries(st.text(max_size=5), children, max_size=4).map(
                OrderedDict
            ),
            st.frozensets(st.integers(), max_size=5),
            children.map(_Plain),
            children.map(_StringSlot),
        ),
        max_leaves=30,
    )


class TestDispatchMatchesReference:
    @given(_structures())
    @settings(max_examples=200, deadline=None)
    def test_random_structures(self, structure):
        assert approximate_size_bytes(structure) == _reference_size(structure)


def _synthetic_run(algorithm, reentry: bool):
    workload = SyntheticWorkload(
        SyntheticWorkloadConfig(request_count=400, worker_count=110, city_km=3.0)
    )
    config = SimulatorConfig(
        seed=3,
        measure_response_time=False,
        worker_reentry=reentry,
        service_duration=1800.0,
    )
    return Simulator(config).run(workload.build(17), algorithm)


def _golden_run(algorithm):
    config = SimulatorConfig(
        seed=7,
        measure_response_time=False,
        worker_reentry=True,
        service_duration=600.0,
    )
    return Simulator(config).run(_golden_scenario(), algorithm)


class TestGoldenMemoryWalk:
    """``memory_bytes`` of the golden runs, recorded on the per-node walk.

    ``sys.getsizeof`` figures depend on the interpreter version, so the
    absolute values are pinned for the version they were recorded on;
    every version checks the finalize walk against the reference walk over
    the very structure the simulator measures.
    """

    RECORDED_ON = (3, 11)
    GOLDEN = {"DemCOM": 24066, "RamCOM": 23442}
    SYNTHETIC = {
        ("DemCOM", True): 301565,
        ("DemCOM", False): 175622,
        ("RamCOM", True): 297533,
        ("RamCOM", False): 175470,
    }

    @pytest.mark.skipif(
        sys.version_info[:2] != RECORDED_ON,
        reason="getsizeof figures were recorded on CPython 3.11",
    )
    @pytest.mark.parametrize("algorithm", [DemCOM, RamCOM], ids=lambda a: a.name)
    def test_pinned_bytes(self, algorithm):
        assert _golden_run(algorithm).memory_bytes == self.GOLDEN[algorithm.name]
        for reentry in (True, False):
            result = _synthetic_run(algorithm, reentry)
            assert result.memory_bytes == self.SYNTHETIC[(algorithm.name, reentry)]

    @pytest.mark.parametrize("algorithm", [DemCOM, RamCOM], ids=lambda a: a.name)
    def test_finalize_walk_matches_reference(self, algorithm, monkeypatch):
        measured: list[tuple[int, int]] = []

        def both(obj):
            measured.append((approximate_size_bytes(obj), _reference_size(obj)))
            return measured[-1][0]

        monkeypatch.setattr(simulator_module, "approximate_size_bytes", both)
        result = _synthetic_run(algorithm, reentry=True)
        assert len(measured) == 1
        assert measured[0][0] == measured[0][1] == result.memory_bytes
