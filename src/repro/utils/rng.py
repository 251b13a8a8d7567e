"""Deterministic random-number plumbing.

Every stochastic component in the library (workload generators, worker
behaviour, DemCOM's Bernoulli acceptance draws, RamCOM's threshold draw,
Monte-Carlo payment sampling) receives an explicit :class:`random.Random`
instance.  This module centralises how those instances are derived from a
single experiment seed so that:

* the same experiment seed always reproduces the same results bit-for-bit;
* independent components get *independent* streams (deriving a child seed
  from a parent seed plus a label), so adding draws to one component never
  perturbs another.

The scheme hashes ``(seed, label)`` with SHA-256, which is stable across
Python versions and processes (unlike the built-in ``hash``).
"""

from __future__ import annotations

import hashlib
import random
import struct
from collections.abc import Iterator

__all__ = ["SeedSequence", "derive_rng", "derive_seed", "derive_uniform"]

_UNIT_53 = 2.0**-53
#: The first 8 bytes of a digest as a big-endian unsigned integer.
_FIRST_U64 = struct.Struct(">Q").unpack_from


def derive_seed(seed: int, label: str) -> int:
    """Derive a stable 64-bit child seed from ``seed`` and a string label."""
    return _FIRST_U64(hashlib.sha256(f"{seed:#x}|{label}".encode()).digest())[0]


def derive_uniform(seed: int, label: str) -> float:
    """A stable uniform in ``[0, 1)`` from ``(seed, label)``.

    The top 53 bits of :func:`derive_seed` times ``2**-53``: every value
    is exact, the largest is ``1 - 2**-53``, and no generator is seeded.
    """
    return (derive_seed(seed, label) >> 11) * _UNIT_53


def derive_rng(seed: int, label: str) -> random.Random:
    """Return a fresh :class:`random.Random` seeded from ``(seed, label)``."""
    return random.Random(derive_seed(seed, label))


class SeedSequence:
    """A hierarchical seed namespace.

    ``SeedSequence(42).child("workload")`` and ``.child("behavior")`` give
    independent sub-namespaces; ``.rng("didi")`` materialises a generator.

    Example
    -------
    >>> root = SeedSequence(7)
    >>> a = root.child("workload").rng("requests")
    >>> b = root.child("workload").rng("requests")
    >>> a.random() == b.random()   # same path -> same stream
    True
    """

    def __init__(self, seed: int, path: str = ""):
        self.seed = int(seed)
        self.path = path

    def child(self, label: str) -> "SeedSequence":
        """Return a sub-namespace rooted at ``label``."""
        new_path = f"{self.path}/{label}" if self.path else label
        return SeedSequence(self.seed, new_path)

    def derived_seed(self, label: str = "") -> int:
        """Return the integer seed for ``label`` under this namespace."""
        full = f"{self.path}/{label}" if label else (self.path or "root")
        return derive_seed(self.seed, full)

    def rng(self, label: str = "") -> random.Random:
        """Return a generator for ``label`` under this namespace."""
        return random.Random(self.derived_seed(label))

    def streams(self, label: str, count: int) -> Iterator[random.Random]:
        """Yield ``count`` independent generators for repeated trials."""
        for index in range(count):
            yield self.rng(f"{label}#{index}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeedSequence(seed={self.seed}, path={self.path!r})"
