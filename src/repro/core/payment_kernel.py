"""Vectorized (numpy) backend for the Algorithm-2 / Eq.-4 hot path.

This module is the *array backend* behind the payment machinery's
``backend`` seam (docs/PERFORMANCE.md#the-array-backend).  The scalar
pure-Python implementations in :mod:`repro.core.payment` and
:mod:`repro.core.pricing` remain the bit-identity reference; the kernel
here trades bit-identity for throughput by evaluating all candidates ×
all dyadic trial prices as a handful of numpy array operations and by
running the ``n_s`` Monte-Carlo instances of Algorithm 2 — for a whole
*batch* of requests at once — as one array program.

numpy is an **optional dependency**: the import below is guarded, every
entry point degrades explicitly (``numpy_available()`` /
``resolve_backend("auto")`` fall back to the pure-Python backend), and
nothing else in the package imports numpy directly.

Determinism contract
--------------------
The kernel draws uniforms from a dedicated ``numpy.random`` PCG64 stream
seeded per *request* through the same SHA-256 derivation scheme as
:func:`repro.utils.rng.derive_seed` — one pinned ``(n_s, depth + 1)``
block of uniforms per request (:func:`uniform_block`, a state-reset fast
path producing the exact stream of :func:`kernel_generator`).  Because
the seed depends only on the request key (and never on how many requests
share a kernel invocation), a batched estimate is bit-identical to the
same estimate computed alone — the property the gateway's micro-batched
dispatch relies on (docs/SERVICE.md).  This module is the *sanctioned
seam* for ``numpy.random``: comlint rule ``DET005`` flags any other use.

Equivalence contract (vs the scalar reference)
----------------------------------------------
* Eq.-4 probability vectors (:func:`acceptance_probabilities`) perform
  the same ``offer = payment / value`` normalisation, the same
  ``count(history <= offer)`` comparison and the same ``count / size``
  division as ``AcceptanceEstimator.probability`` — element-for-element
  identical floats.
* The Monte-Carlo estimator samples the same distribution by a
  different, coupled scheme: instead of one uniform per candidate until
  someone accepts, each round draws **one** uniform against the
  any-acceptance probability ``q = 1 - prod_c (1 - p_c)`` — an exact
  reformulation of the round's acceptance law, so estimates agree with
  the scalar backend in distribution (Lemma 1's ``(xi, eta)`` guarantee
  is unchanged) but not draw-for-draw.  Equivalence is pinned by the
  property tests in ``tests/test_payment_kernel.py`` (same-uniforms
  comparisons at ~1e-9 relative tolerance; end-to-end golden-metric
  comparisons at statistical tolerance).
* Trial prices sit on the exact dyadic grid ``j * v / 2**depth``.  In
  relative mode the grid *offers* ``j / 2**depth`` and the quantisation
  ``ceil(rate * 2**depth)`` are exact in binary floating point, so grid
  counts match ``bisect_right`` bit for bit; in absolute mode the
  quantisation rounds once more and counts may differ from the scalar
  path by one CDF step when a history value collides with a grid point
  (covered by the documented tolerance).
"""

from __future__ import annotations

import os
import threading
from collections.abc import Hashable, Sequence
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.utils.rng import derive_seed

try:  # pragma: no cover - exercised by the no-numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.acceptance import AcceptanceSnapshot

__all__ = [
    "BACKENDS",
    "ENV_BACKEND",
    "MAX_GRID_DEPTH",
    "CandidateMatrix",
    "acceptance_probabilities",
    "bisection_depth",
    "build_matrix",
    "estimate_batch",
    "kernel_generator",
    "numpy_available",
    "request_seed",
    "resolve_backend",
    "uniform_block",
]

#: Recognised values for the ``backend`` knobs / ``REPRO_PAYMENT_BACKEND``.
BACKENDS = ("auto", "numpy", "python")

#: Environment override for every ``backend="..."`` knob (CI matrix legs
#: and deployments flip the backend without touching code).
ENV_BACKEND = "REPRO_PAYMENT_BACKEND"

#: Largest bisection depth the grid kernel materialises (2**depth + 1
#: trial prices per request).  The default knobs (xi=0.1) need depth 4;
#: pathological accuracy settings beyond the cap fall back to the scalar
#: fast path rather than allocating a huge probability grid.
MAX_GRID_DEPTH = 12

_MASK_64 = (1 << 64) - 1


def numpy_available() -> bool:
    """True iff the optional numpy dependency imported successfully."""
    return _np is not None


def resolve_backend(requested: str | None = None) -> str:
    """Resolve a backend request to a concrete ``"numpy"`` or ``"python"``.

    Resolution order: the ``REPRO_PAYMENT_BACKEND`` environment variable
    (when set) overrides ``requested``; ``"auto"`` selects numpy when it
    is importable and degrades to the pure-Python backend otherwise; an
    explicit ``"numpy"`` without numpy installed is a configuration
    error (never a silent fallback).
    """
    choice = os.environ.get(ENV_BACKEND) or requested or "python"
    if choice not in BACKENDS:
        raise ConfigurationError(
            f"payment backend must be one of {BACKENDS}, got {choice!r}"
        )
    if choice == "auto":
        return "numpy" if numpy_available() else "python"
    if choice == "numpy" and not numpy_available():
        raise ConfigurationError(
            "payment backend 'numpy' requested but numpy is not installed "
            "(use 'auto' to fall back to the pure-Python backend)"
        )
    return choice


def request_seed(kernel_seed: int, key: Hashable) -> int:
    """The pinned per-request generator seed for ``key``.

    Stable in ``(kernel_seed, key)`` alone — independent of call order
    and of batch composition, which is what makes batched estimates
    bit-identical to one-at-a-time estimates.
    """
    return derive_seed(kernel_seed, f"payment/{key!r}")


def kernel_generator(seed: int) -> Any:
    """The sanctioned ``numpy.random`` construction point (DET005).

    Every uniform the array backend consumes flows through a generator
    built here (or its state-reset fast path :func:`uniform_block`),
    seeded via :func:`repro.utils.rng.derive_seed`'s scheme.
    """
    if _np is None:  # pragma: no cover - callers check numpy_available()
        raise ConfigurationError("numpy is not installed")
    bit_generator = _np.random.PCG64(0)
    bit_generator.state = _seeded_state(bit_generator.state, seed)
    return _np.random.Generator(bit_generator)


_LOCAL = threading.local()


def _seeded_state(template: dict, seed: int) -> dict:
    """A PCG64 state dict whose 128-bit LCG state is the 64-bit ``seed``.

    The increment is PCG64(0)'s (a fixed, version-stable constant via
    ``SeedSequence(0)``), so the draws are a pure function of ``seed`` —
    independent of call order, thread, and batch composition.
    """
    state = dict(template)
    state["state"] = {
        "state": seed & _MASK_64,
        "inc": template["state"]["inc"],
    }
    state["has_uint32"] = 0
    state["uinteger"] = 0
    return state


def uniform_block(seed: int, shape: tuple[int, ...], out: Any = None) -> Any:
    """The pinned uniform block for one request seed (DET005 seam).

    Equivalent to ``kernel_generator(seed).random(shape)`` but reuses a
    thread-local bit generator, resetting its state per call instead of
    paying ``SeedSequence`` construction (~10us) per request.  ``out``
    optionally receives the draws in place (must be C-contiguous
    float64 of the right shape).
    """
    if _np is None:  # pragma: no cover - callers check numpy_available()
        raise ConfigurationError("numpy is not installed")
    cached = getattr(_LOCAL, "generator", None)
    if cached is None:
        bit_generator = _np.random.PCG64(0)
        cached = (
            bit_generator,
            _np.random.Generator(bit_generator),
            bit_generator.state,
        )
        _LOCAL.generator = cached
    bit_generator, generator, template = cached
    bit_generator.state = _seeded_state(template, seed)
    if out is not None:
        return generator.random(out=out)
    return generator.random(shape)


def bisection_depth(request_value: float, tolerance: float) -> int:
    """Number of bisection iterations Algorithm 2 runs for this request.

    The interval ``[low, high]`` starts at width ``v_r`` and halves once
    per iteration (both branches move one endpoint to the midpoint), so
    the loop runs until ``v_r / 2**depth <= tolerance`` regardless of
    which way each round goes.
    """
    depth = 0
    span = float(request_value)
    while span > tolerance:
        span /= 2.0
        depth += 1
    return depth


class CandidateMatrix:
    """Dense struct-of-arrays form of one candidate set's histories.

    Built from an :class:`~repro.core.acceptance.AcceptanceSnapshot` (its
    ``matrix()`` method); all per-candidate state the kernel touches is
    laid out as flat arrays so probability evaluation never iterates
    candidates in Python:

    ``entries``
        All warm candidates' sorted history values, concatenated in
        candidate order (float64, length E).
    ``segments``
        Candidate index of each entry (int64, length E) — the bincount
        key for segmented counting.
    ``sizes``
        History length per candidate (float64; 0 for cold candidates).
    ``denominators``
        ``sizes`` with cold candidates' zeros replaced by 1 — the safe
        division denominator (Eq. 4 divides by N).
    ``cold``
        Boolean mask of candidates with no history (Eq. 4 falls back to
        ``default_probability`` for them at any positive payment).
    ``grid_cache``
        Memoised any-acceptance grid curves: ``depth -> q`` in relative
        mode (the dyadic offer grid is value-independent), ``(depth,
        value) -> q`` in absolute mode.  The curves are pure functions of
        the (immutable) matrix, so entries never go stale; the estimator
        drops the whole matrix on history mutation.
    """

    __slots__ = (
        "mode",
        "default_probability",
        "count",
        "entries",
        "segments",
        "sizes",
        "denominators",
        "cold",
        "grid_cache",
    )

    def __init__(
        self,
        mode: str,
        default_probability: float,
        count: int,
        entries: Any,
        segments: Any,
        sizes: Any,
        denominators: Any,
        cold: Any,
    ):
        self.mode = mode
        self.default_probability = default_probability
        self.count = count
        self.entries = entries
        self.segments = segments
        self.sizes = sizes
        self.denominators = denominators
        self.cold = cold
        self.grid_cache: dict[Any, Any] = {}

    def __len__(self) -> int:
        return self.count


def build_matrix(
    snapshot: "AcceptanceSnapshot",
    array_cache: dict[Hashable, Any] | None = None,
    worker_ids: Sequence[Hashable] | None = None,
) -> CandidateMatrix:
    """Materialise a snapshot's rows as a :class:`CandidateMatrix`.

    ``array_cache`` (normally the owning estimator's per-worker cache,
    invalidated on every history mutation) avoids re-converting each
    sorted history list to an ndarray on every estimate.
    """
    if _np is None:
        raise ConfigurationError(
            "the array backend requires numpy (not installed)"
        )
    rows = snapshot.rows
    count = len(rows)
    lengths = _np.zeros(count, dtype=_np.int64)
    cold = _np.zeros(count, dtype=bool)
    arrays = []
    for index, (history, size) in enumerate(rows):
        if history is None:
            cold[index] = True
            continue
        array = None
        worker_id = worker_ids[index] if worker_ids is not None else None
        if array_cache is not None and worker_id is not None:
            array = array_cache.get(worker_id)
            # Length-mismatch means a stale entry slipped past the
            # estimator's invalidation (e.g. direct list mutation);
            # rebuild rather than silently miscount.
            if array is not None and len(array) != size:
                array = None
        if array is None:
            array = _np.asarray(history, dtype=_np.float64)
            if array_cache is not None and worker_id is not None:
                array_cache[worker_id] = array
        arrays.append(array)
        lengths[index] = size
    if arrays:
        entries = _np.concatenate(arrays)
    else:
        entries = _np.empty(0, dtype=_np.float64)
    segments = _np.repeat(_np.arange(count, dtype=_np.int64), lengths)
    sizes = lengths.astype(_np.float64)
    denominators = _np.where(cold, 1.0, sizes)
    return CandidateMatrix(
        mode=snapshot.mode,
        default_probability=snapshot.default_probability,
        count=count,
        entries=entries,
        segments=segments,
        sizes=sizes,
        denominators=denominators,
        cold=cold,
    )


def _segment_counts(
    segments: Any, first_column: Any, n_segments: int, n_offers: int
) -> Any:
    """``counts[c, j]`` = number of entries of segment ``c`` whose first
    counting column is ``<= j`` — one bincount plus a cumulative sum.

    ``first_column[e]`` is the index of the first (ascending) offer the
    entry counts toward, with ``n_offers`` meaning "beyond every offer".
    """
    flat = segments * (n_offers + 1) + first_column
    histogram = _np.bincount(
        flat, minlength=n_segments * (n_offers + 1)
    ).reshape(n_segments, n_offers + 1)
    return _np.cumsum(histogram[:, :n_offers], axis=1)


def acceptance_probabilities(
    matrix: CandidateMatrix, payments: Any, request_value: float
) -> Any:
    """Eq.-4 probability of every candidate at every payment — a
    ``(candidates, payments)`` float64 array.

    Element-for-element identical to calling
    ``AcceptanceEstimator.probability(payment, worker, request_value)``:
    the offer normalisation, the ``history <= offer`` comparison (one
    ``searchsorted`` over the flat entry array instead of a
    ``bisect_right`` per candidate) and the ``count / size`` division
    reproduce the same IEEE-754 operations.
    """
    if _np is None:
        raise ConfigurationError(
            "the array backend requires numpy (not installed)"
        )
    payments = _np.asarray(payments, dtype=_np.float64)
    if matrix.mode == "relative":
        if request_value <= 0:
            raise ConfigurationError(
                f"request_value must be positive, got {request_value}"
            )
        offers = payments / request_value
    else:
        offers = payments
    order = _np.argsort(offers, kind="stable")
    sorted_offers = offers[order]
    n_offers = sorted_offers.size
    # First sorted offer each entry counts toward: entry e counts at
    # offer o iff e <= o, i.e. at every sorted index >= searchsorted-left.
    first_column = _np.searchsorted(sorted_offers, matrix.entries, side="left")
    counts = _segment_counts(
        matrix.segments, first_column, matrix.count, n_offers
    )
    probabilities = counts / matrix.denominators[:, None]
    if matrix.cold.any():
        cold_row = _np.where(payments > 0, matrix.default_probability, 0.0)
        probabilities[matrix.cold] = cold_row[order]
    unsorted = _np.empty_like(probabilities)
    unsorted[:, order] = probabilities
    return unsorted


def _relative_grid_curves(
    matrices: Sequence[CandidateMatrix], depth: int
) -> Any:
    """Any-acceptance probability ``q`` on the dyadic offer grid for a
    group of relative-mode requests — a ``(requests, 2**depth + 1)``
    array.  Curves are memoised per matrix (``grid_cache``): only
    matrices without a cached curve at this depth pay a segmented
    counting pass, shared across all of them.

    Relative-mode grid offers are ``j / 2**depth`` and both the scaling
    ``rate * 2**depth`` and the integer comparison are exact in float64,
    so the counts equal ``bisect_right(history, j / 2**depth)`` bit for
    bit.
    """
    fresh: list[CandidateMatrix] = []
    seen: set[int] = set()
    for matrix in matrices:
        if depth not in matrix.grid_cache and id(matrix) not in seen:
            seen.add(id(matrix))
            fresh.append(matrix)
    if fresh:
        scale = float(1 << depth)
        n_offers = (1 << depth) + 1
        total_candidates = 0
        entry_arrays = []
        segment_arrays = []
        for matrix in fresh:
            entry_arrays.append(matrix.entries)
            segment_arrays.append(matrix.segments + total_candidates)
            total_candidates += matrix.count
        entries = (
            _np.concatenate(entry_arrays) if entry_arrays else _np.empty(0)
        )
        segments = (
            _np.concatenate(segment_arrays)
            if segment_arrays
            else _np.empty(0, dtype=_np.int64)
        )
        # ceil(rate * 2**depth) is the first grid index j with
        # rate <= j / 2**depth.
        first_column = _np.ceil(entries * scale).astype(_np.int64)
        _np.clip(first_column, 0, n_offers, out=first_column)
        counts = _segment_counts(
            segments, first_column, total_candidates, n_offers
        )
        denominators = _np.concatenate([m.denominators for m in fresh])
        cold = _np.concatenate([m.cold for m in fresh])
        probabilities = counts / denominators[:, None]
        if cold.any():
            default = fresh[0].default_probability
            probabilities[cold, 1:] = default
            probabilities[cold, 0] = 0.0
        counts_per_request = _np.asarray(
            [m.count for m in fresh], dtype=_np.int64
        )
        starts = _np.zeros(len(fresh), dtype=_np.int64)
        _np.cumsum(counts_per_request[:-1], out=starts[1:])
        # Sequential product in candidate order per request (reduceat).
        none_accepts = _np.multiply.reduceat(
            1.0 - probabilities, starts, axis=0
        )
        curves = 1.0 - none_accepts
        for position, matrix in enumerate(fresh):
            matrix.grid_cache[depth] = curves[position]
    if len(matrices) == 1:
        return matrices[0].grid_cache[depth][None, :]
    return _np.stack([matrix.grid_cache[depth] for matrix in matrices])


def _absolute_grid_curve(
    matrix: CandidateMatrix, request_value: float, depth: int
) -> Any:
    """Any-acceptance ``q`` on the dyadic price grid for one
    absolute-mode request (exact searchsorted counts per request),
    memoised per ``(depth, value)``."""
    cache_key = (depth, float(request_value))
    cached = matrix.grid_cache.get(cache_key)
    if cached is not None:
        return cached
    step = float(request_value) * (0.5**depth)
    prices = _np.arange((1 << depth) + 1, dtype=_np.float64) * step
    probabilities = acceptance_probabilities(matrix, prices, request_value)
    none_accepts = _np.multiply.reduce(1.0 - probabilities, axis=0)
    curve = 1.0 - none_accepts
    if len(matrix.grid_cache) >= 64:
        # Absolute-mode keys include the request value; bound the cache
        # under unbounded distinct-value churn.
        matrix.grid_cache.clear()
    matrix.grid_cache[cache_key] = curve
    return curve


def estimate_batch(
    matrices: Sequence[CandidateMatrix],
    values: Sequence[float],
    seeds: Sequence[int],
    samples: int,
    xi: float,
    epsilon: float,
    uniforms: Sequence[Any] | None = None,
) -> list[tuple[float, int, int] | None]:
    """Run Algorithm 2 for a batch of requests as one array program.

    Returns one ``(payment, rejected_instances, bisection_iterations)``
    triple per request, or ``None`` for a request whose bisection depth
    exceeds :data:`MAX_GRID_DEPTH` (the caller falls back to the scalar
    path).  ``uniforms`` injects the per-request ``(samples, depth + 1)``
    uniform blocks (test seam); by default they are drawn from
    :func:`kernel_generator` seeded per request.

    Per instance: column 0 of the uniform block decides the full-value
    probe (reject contributes ``v_r + epsilon``); columns ``1..depth``
    drive the bisection over integer dyadic bounds, and the estimate for
    an accepted instance is the final midpoint
    ``(low + high) * v_r / 2**(depth + 1)``.
    """
    if _np is None:
        raise ConfigurationError(
            "the array backend requires numpy (not installed)"
        )
    results: list[tuple[float, int, int] | None] = [None] * len(matrices)
    # Group requests by bisection depth so each group shares one grid.
    groups: dict[int, list[int]] = {}
    for index, value in enumerate(values):
        tolerance = max(epsilon, xi * float(value))
        depth = bisection_depth(value, tolerance)
        if depth <= MAX_GRID_DEPTH:
            groups.setdefault(depth, []).append(index)
    for depth, members in groups.items():
        group_matrices = [matrices[i] for i in members]
        group_values = _np.asarray(
            [float(values[i]) for i in members], dtype=_np.float64
        )
        if group_matrices[0].mode == "relative":
            q = _relative_grid_curves(group_matrices, depth)
        else:
            q = _np.stack(
                [
                    _absolute_grid_curve(matrix, value, depth)
                    for matrix, value in zip(group_matrices, group_values)
                ]
            )
        if uniforms is not None:
            block = _np.stack([uniforms[i] for i in members])
        else:
            block = _np.empty((len(members), samples, depth + 1))
            for position, index in enumerate(members):
                uniform_block(
                    seeds[index], (samples, depth + 1), out=block[position]
                )
        top = 1 << depth
        q_full = q[:, top]
        accepted = (q_full > 0.0)[:, None] & (block[:, :, 0] <= q_full[:, None])
        low = _np.zeros((len(members), samples), dtype=_np.int64)
        high = _np.full_like(low, top)
        row_index = _np.arange(len(members))[:, None]
        for step in range(depth):
            mid = (low + high) >> 1
            q_mid = q[row_index, mid]
            take = accepted & (q_mid > 0.0) & (block[:, :, step + 1] <= q_mid)
            lower = accepted & ~take
            high = _np.where(take, mid, high)
            low = _np.where(lower, mid, low)
        unit = group_values * (0.5 ** (depth + 1))
        payments = (low + high) * unit[:, None]
        per_instance = _np.where(
            accepted, payments, (group_values + epsilon)[:, None]
        )
        totals = per_instance.sum(axis=1)
        accepted_counts = accepted.sum(axis=1)
        for position, index in enumerate(members):
            results[index] = (
                float(totals[position]) / samples,
                samples - int(accepted_counts[position]),
                int(accepted_counts[position]) * depth,
            )
    return results
