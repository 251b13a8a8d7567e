"""Job counts and the one process-pool fan-out.

Experiment cells and lint files are independent units of work whose
results the callers fold in argument order, so their output is the same
at any job count.  ``multiprocessing`` is imported only when a pool
starts, which keeps it off the ``import repro`` path.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from typing import Any, TypeVar

from repro.errors import ConfigurationError

__all__ = ["resolve_jobs", "starmap_jobs"]

T = TypeVar("T")


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a job count: ``None`` or ``0`` means one worker per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    return jobs


def starmap_jobs(
    function: Callable[..., T],
    arguments: Sequence[tuple[Any, ...]],
    jobs: int | None,
) -> list[T]:
    """``[function(*args) for args in arguments]``, in argument order.

    Runs in-process when ``resolve_jobs(jobs) <= 1`` or there is at most
    one argument tuple.  Otherwise it runs in a pool of
    ``min(jobs, len(arguments))`` processes, forked where the platform
    allows (cheap, and the children inherit the loaded interpreter), one
    task at a time.  ``function`` must be a module-level function so that
    it pickles.
    """
    workers = min(resolve_jobs(jobs), len(arguments))
    if workers <= 1:
        return [function(*args) for args in arguments]
    import multiprocessing

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with multiprocessing.get_context(method).Pool(processes=workers) as pool:
        return pool.starmap(function, arguments, chunksize=1)
