"""The memory-cost model behind the paper's memory metric (§V-C2).

The paper reports the memory cost of a C++ implementation, which is the
cost of the data it stores.  Measuring our own heap would report Python's
per-object overhead instead, so the metric is a count model: a fixed byte
cost per stored item of each kind (the size of a plain C++ struct on a
64-bit target) times the number of such items.  DESIGN.md §1.4 argues
which kinds are stored and why.
"""

from __future__ import annotations

__all__ = [
    "REQUEST_BYTES",
    "WORKER_BYTES",
    "HISTORY_ENTRY_BYTES",
    "MATCH_RECORD_BYTES",
    "WAITING_ENTRY_BYTES",
    "approximate_size_bytes",
]

#: Id, platform, arrival time, value (8 B each) and a location (16 B).
REQUEST_BYTES = 48
#: Id, platform, arrival time, radius, shareable flag, shift end (8 B each),
#: a location (16 B) and the header of the history vector (24 B).
WORKER_BYTES = 88
#: One double of a worker's Eq.-4 history.
HISTORY_ENTRY_BYTES = 8
#: Request and worker pointers, kind, payment, decision time and pickup
#: distance (8 B each).
MATCH_RECORD_BYTES = 48
#: A waiting worker's slot in the id map (key and value pointers), its grid
#: cell and the radius multiset.
WAITING_ENTRY_BYTES = 32


def approximate_size_bytes(
    *,
    requests: int,
    workers: int,
    history_entries: int,
    match_records: int,
    waiting_entries: int,
) -> int:
    """The modelled memory cost, in bytes, of a run's stored data.

    >>> approximate_size_bytes(
    ...     requests=10, workers=2, history_entries=6, match_records=3,
    ...     waiting_entries=1,
    ... )
    880
    """
    return (
        requests * REQUEST_BYTES
        + workers * WORKER_BYTES
        + history_entries * HISTORY_ENTRY_BYTES
        + match_records * MATCH_RECORD_BYTES
        + waiting_entries * WAITING_ENTRY_BYTES
    )
