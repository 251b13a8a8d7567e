"""The vectorized payment/acceptance kernel (docs/PERFORMANCE.md).

Four contracts, each pinned here:

* **Backend resolution** — ``"auto"``/``"numpy"``/``"python"`` plus the
  ``REPRO_PAYMENT_BACKEND`` override resolve predictably, and the repo
  degrades to the pure-Python backend when numpy is absent.
* **Exact equivalences** — the kernel's Eq.-4 probability table and the
  below-crossover scalar delegation are *bit-identical* to the scalar
  implementations (hypothesis-driven).
* **Statistical equivalence** — vectorized estimates (pinned per-request
  streams) agree with scalar estimates within the documented tolerance
  (a few bisection tolerances ``xi * v_r``; see
  docs/PERFORMANCE.md#the-array-backend).
* **Byte identity of the python path** — golden digests pin the default
  backend's estimates, quotes, RNG stream and full simulation reports,
  so the array backend can never perturb them.

Batching is covered at both layers: ``estimate_many``/``prime_batch``
against sequential calls, and the gateway's micro-batched dispatch
against one-at-a-time submission.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import DemCOM, RamCOM, SimulatorConfig, payment_kernel
from repro.core.acceptance import AcceptanceEstimator
from repro.core.payment import MinimumOuterPaymentEstimator
from repro.core.pricing import MaximumExpectedRevenuePricer
from repro.errors import ConfigurationError
from repro.service import MatchingGateway
from repro.utils.rng import derive_rng

from test_perf_fastpath import _golden_report, _populated_estimator
from test_service import build_scenario, golden_row, submit_event

numpy_missing = not payment_kernel.numpy_available()
needs_numpy = pytest.mark.skipif(numpy_missing, reason="numpy not installed")


def _wide_estimator(mode: str, seed: int, extra: int = 30):
    """``_populated_estimator`` widened past the vector crossover."""
    acceptance, workers = _populated_estimator(mode)
    rng = derive_rng(seed, "kernel/extra-histories")
    scale = 1.0 if mode == "relative" else 50.0
    for index in range(extra):
        acceptance.set_history(
            f"x{index}",
            [rng.random() * scale for _ in range(1 + rng.randrange(30))],
        )
        workers.append(f"x{index}")
    return acceptance, workers


class TestBackendResolution:
    def test_explicit_python(self):
        assert payment_kernel.resolve_backend("python") == "python"

    def test_auto_matches_availability(self):
        expected = "numpy" if payment_kernel.numpy_available() else "python"
        assert payment_kernel.resolve_backend("auto") == expected

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            payment_kernel.resolve_backend("cupy")

    def test_env_overrides_argument(self, monkeypatch):
        monkeypatch.setenv(payment_kernel.ENV_BACKEND, "python")
        assert payment_kernel.resolve_backend("auto") == "python"
        estimator = MinimumOuterPaymentEstimator(
            AcceptanceEstimator(), backend="auto"
        )
        assert estimator.backend == "python"

    def test_env_garbage_raises(self, monkeypatch):
        monkeypatch.setenv(payment_kernel.ENV_BACKEND, "fortran")
        with pytest.raises(ConfigurationError):
            payment_kernel.resolve_backend("python")


class TestNoNumpyDegradation:
    """The repo stays fully functional when numpy is absent."""

    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(payment_kernel, "_np", None)

    def test_auto_degrades_to_python(self, no_numpy):
        assert not payment_kernel.numpy_available()
        assert payment_kernel.resolve_backend("auto") == "python"

    def test_explicit_numpy_is_an_error_not_a_fallback(self, no_numpy):
        with pytest.raises(ConfigurationError):
            payment_kernel.resolve_backend("numpy")

    def test_kernel_entry_points_raise_cleanly(self, no_numpy):
        with pytest.raises(ConfigurationError):
            payment_kernel.estimate_batch([], [], [], 8, 0.1, 1e-6)

    def test_auto_estimator_still_estimates(self, no_numpy):
        acceptance, workers = _populated_estimator("relative")
        estimator = MinimumOuterPaymentEstimator(acceptance, backend="auto")
        assert estimator.backend == "python"
        estimate = estimator.estimate(
            20.0, workers, derive_rng(3, "kernel/no-numpy")
        )
        assert 0.0 < estimate.payment <= 20.0 + estimator.epsilon
        assert estimator.prime_batch([(20.0, tuple(workers), "r1")]) == 0


@needs_numpy
class TestKernelPrimitives:
    def test_uniform_block_matches_kernel_generator(self):
        np = pytest.importorskip("numpy")
        for seed in (0, 1, 2**63, (1 << 64) - 1):
            block = payment_kernel.uniform_block(seed, (5, 7))
            reference = payment_kernel.kernel_generator(seed).random((5, 7))
            assert np.array_equal(block, reference)

    def test_uniform_block_out_parameter(self):
        np = pytest.importorskip("numpy")
        out = np.empty((3, 4))
        returned = payment_kernel.uniform_block(42, (3, 4), out=out)
        assert returned is out
        assert np.array_equal(out, payment_kernel.uniform_block(42, (3, 4)))

    def test_request_seed_is_stable_and_key_sensitive(self):
        seed = payment_kernel.request_seed(7, "r1")
        assert seed == payment_kernel.request_seed(7, "r1")
        assert seed != payment_kernel.request_seed(7, "r2")
        assert seed != payment_kernel.request_seed(8, "r1")

    @given(st.floats(min_value=0.01, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_bisection_depth_brackets_tolerance(self, value):
        tolerance = max(1e-6, 0.1 * value)
        depth = payment_kernel.bisection_depth(value, tolerance)
        assert value / 2.0**depth <= tolerance
        if depth:
            assert value / 2.0 ** (depth - 1) > tolerance


@needs_numpy
class TestProbabilityTableExact:
    """``acceptance_probabilities`` == scalar Eq. 4, element for element."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_scalar_probability(self, case_seed):
        rng = derive_rng(case_seed, "kernel/prob-cases")
        mode = "relative" if case_seed % 2 else "absolute"
        scale = 1.0 if mode == "relative" else 50.0
        acceptance = AcceptanceEstimator(
            default_probability=rng.choice([0.0, 0.3, 0.5, 1.0]), mode=mode
        )
        workers = []
        for index in range(rng.randrange(1, 24)):
            worker_id = f"w{index}"
            if rng.random() < 0.2:
                workers.append(worker_id)  # cold: no history
                continue
            acceptance.set_history(
                worker_id,
                [rng.random() * scale for _ in range(1 + rng.randrange(20))],
            )
            workers.append(worker_id)
        value = 1.0 + 99.0 * rng.random()
        payments = [0.0, value] + [
            value * 1.2 * rng.random() for _ in range(10)
        ]
        matrix = acceptance.matrix(workers)
        table = payment_kernel.acceptance_probabilities(
            matrix, payments, value
        )
        for column, payment in enumerate(payments):
            for row, worker_id in enumerate(workers):
                assert table[row, column] == acceptance.probability(
                    payment, worker_id, value
                )


@needs_numpy
class TestScalarCrossover:
    """Below ``vector_min_candidates`` the numpy backend *is* the scalar
    path — same result and the same rng stream, so small candidate sets
    cannot diverge between backends."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_small_sets_share_the_scalar_stream(self, case_seed):
        mode = "relative" if case_seed % 2 else "absolute"
        acceptance, workers = _populated_estimator(mode)
        scalar = MinimumOuterPaymentEstimator(acceptance, backend="python")
        vector = MinimumOuterPaymentEstimator(acceptance, backend="numpy")
        assert vector.vector_min_candidates > len(workers[:8])
        rng_a = derive_rng(case_seed, "kernel/crossover")
        rng_b = derive_rng(case_seed, "kernel/crossover")
        pick = derive_rng(case_seed, "kernel/crossover-pick")
        for _ in range(3):
            value = 5.0 + 95.0 * pick.random()
            ids = pick.sample(workers, 1 + pick.randrange(8))
            a = scalar.estimate(value, ids, rng_a, key="r")
            b = vector.estimate(value, ids, rng_b, key="r")
            assert a.payment == b.payment
            assert a.rejected_instances == b.rejected_instances
        assert rng_a.getstate() == rng_b.getstate()

    def test_keyed_vector_estimates_leave_rng_untouched(self):
        acceptance, workers = _wide_estimator("relative", 5)
        vector = MinimumOuterPaymentEstimator(acceptance, backend="numpy")
        rng = derive_rng(1, "kernel/untouched")
        before = rng.getstate()
        vector.estimate(40.0, workers, rng, key="r1")
        assert rng.getstate() == before

    def test_keyed_estimates_are_order_independent(self):
        acceptance, workers = _wide_estimator("relative", 6)
        items = [
            (20.0 + 7.0 * index, tuple(workers), f"r{index}")
            for index in range(4)
        ]

        def run(order):
            est = MinimumOuterPaymentEstimator(acceptance, backend="numpy")
            rng = derive_rng(2, "kernel/order")
            return {
                key: est.estimate(value, ids, rng, key=key).payment
                for value, ids, key in order
            }

        assert run(items) == run(list(reversed(items)))


@needs_numpy
class TestStatisticalEquivalence:
    """Vectorized estimates track scalar estimates within the documented
    tolerance: both are (xi, eta) Monte-Carlo estimates of the same
    minimum expected payment, so they agree to a few bisection
    tolerances ``max(epsilon, xi * v_r)`` — the test allows 5.

    ``derandomize=True``: the bound is statistical, so the example set
    is pinned to keep the test deterministic run to run.
    """

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=20,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_estimates_within_documented_tolerance(self, case_seed):
        mode = "relative" if case_seed % 2 else "absolute"
        acceptance, workers = _wide_estimator(mode, case_seed)
        scalar = MinimumOuterPaymentEstimator(acceptance, backend="python")
        vector = MinimumOuterPaymentEstimator(acceptance, backend="numpy")
        pick = derive_rng(case_seed, "kernel/stat-cases")
        value = 5.0 + 95.0 * pick.random()
        ids = pick.sample(workers, 16 + pick.randrange(len(workers) - 16))
        scalar_estimate = scalar.estimate(
            value, ids, derive_rng(case_seed, "kernel/stat-draws")
        )
        vector_estimate = vector.estimate(
            value,
            ids,
            derive_rng(case_seed, "kernel/stat-draws"),
            key=("r", case_seed),
        )
        tolerance = max(scalar.epsilon, scalar.xi * value)
        assert abs(
            scalar_estimate.payment - vector_estimate.payment
        ) <= 5 * tolerance
        assert 0.0 <= vector_estimate.payment <= value + scalar.epsilon


@needs_numpy
class TestBatchingIdentity:
    """Batched evaluation never changes values, only amortises work."""

    def _items(self, workers, *, keyed=True, mixed=False):
        pick = derive_rng(4, "kernel/batch-items")
        items = []
        for index in range(6):
            if mixed and index % 2:
                ids = tuple(pick.sample(workers, 3))  # below crossover
            else:
                ids = tuple(workers)
            key = f"r{index}" if keyed else None
            items.append((10.0 + 13.0 * pick.random(), ids, key))
        return items

    @pytest.mark.parametrize("mixed", [False, True])
    def test_estimate_many_equals_sequential(self, mixed):
        acceptance, workers = _wide_estimator("relative", 7)
        items = self._items(workers, keyed=not mixed, mixed=mixed)
        batched_estimator = MinimumOuterPaymentEstimator(
            acceptance, backend="numpy"
        )
        sequential_estimator = MinimumOuterPaymentEstimator(
            acceptance, backend="numpy"
        )
        batched = batched_estimator.estimate_many(
            items, derive_rng(9, "kernel/batch-rng")
        )
        rng = derive_rng(9, "kernel/batch-rng")
        sequential = [
            sequential_estimator.estimate(value, ids, rng, key=key)
            for value, ids, key in items
        ]
        assert [(e.payment, e.rejected_instances) for e in batched] == [
            (e.payment, e.rejected_instances) for e in sequential
        ]

    def test_empty_candidate_items_short_circuit_in_batch(self):
        acceptance, workers = _wide_estimator("relative", 8)
        estimator = MinimumOuterPaymentEstimator(acceptance, backend="numpy")
        items = [(25.0, (), "r0"), (30.0, tuple(workers), "r1")]
        results = estimator.estimate_many(
            items, derive_rng(10, "kernel/batch-empty")
        )
        assert results[0].payment == 25.0 + estimator.epsilon
        assert results[0].rejected_instances == estimator.samples

    def test_primed_batch_is_bit_identical_and_hit(self):
        acceptance, workers = _wide_estimator("relative", 11)
        primed = MinimumOuterPaymentEstimator(acceptance, backend="numpy")
        direct = MinimumOuterPaymentEstimator(acceptance, backend="numpy")
        items = [(33.0, tuple(workers), "r1"), (44.0, tuple(workers), "r2")]
        assert primed.prime_batch(items) == 2
        rng = derive_rng(12, "kernel/prime")
        for value, ids, key in items:
            a = primed.estimate(value, ids, rng, key=key)
            b = direct.estimate(value, ids, rng, key=key)
            assert (a.payment, a.rejected_instances) == (
                b.payment,
                b.rejected_instances,
            )
        assert primed.prime_hits == 2

    def test_unrelated_mutation_keeps_primed_results(self):
        acceptance, workers = _wide_estimator("relative", 13)
        acceptance.set_history("bystander", [0.4, 0.6])
        estimator = MinimumOuterPaymentEstimator(acceptance, backend="numpy")
        assert estimator.prime_batch([(33.0, tuple(workers), "r1")]) == 1
        acceptance.record_completion("bystander", 13.0, 33.0)
        estimator.estimate(
            33.0, workers, derive_rng(14, "kernel/prime-alias"), key="r1"
        )
        assert estimator.prime_hits == 1

    def test_relevant_mutation_invalidates_primed_results(self):
        acceptance, workers = _wide_estimator("relative", 15)
        estimator = MinimumOuterPaymentEstimator(acceptance, backend="numpy")
        direct = MinimumOuterPaymentEstimator(acceptance, backend="numpy")
        assert estimator.prime_batch([(33.0, tuple(workers), "r1")]) == 1
        acceptance.record_completion(workers[0], 13.0, 33.0)
        stale = estimator.estimate(
            33.0, workers, derive_rng(16, "kernel/prime-stale"), key="r1"
        )
        fresh = direct.estimate(
            33.0, workers, derive_rng(16, "kernel/prime-stale"), key="r1"
        )
        assert estimator.prime_hits == 0
        assert stale.payment == fresh.payment

    def test_python_backend_never_primes(self):
        acceptance, workers = _populated_estimator("relative")
        estimator = MinimumOuterPaymentEstimator(acceptance, backend="python")
        assert estimator.prime_batch([(33.0, tuple(workers), "r1")]) == 0


class TestGatewayBatchingIdentity:
    """Micro-batched dispatch is observationally identical to
    one-at-a-time submission (docs/SERVICE.md#micro-batched-dispatch)."""

    @pytest.mark.parametrize("algorithm", ["demcom", "ramcom"])
    def test_batched_metrics_match_unbatched_and_golden(self, algorithm):
        scenario = build_scenario(seed=21)
        config = SimulatorConfig(
            measure_response_time=False, payment_backend="auto"
        )
        golden = golden_row(scenario, algorithm, config)

        async def replay(batch_max: int, batch_linger_ms: float) -> str:
            gateway = MatchingGateway(
                scenario=scenario,
                algorithm=algorithm,
                config=config,
                batch_max=batch_max,
                batch_linger_ms=batch_linger_ms,
            )
            await gateway.start()
            for event in scenario.events:
                await submit_event(gateway, event, clock=gateway.clock)
            await gateway.drain()
            return json.dumps(gateway.metrics_dict(), sort_keys=True)

        unbatched = asyncio.run(replay(1, 0.0))
        batched = asyncio.run(replay(8, 0.5))
        assert unbatched == batched == golden


class TestPythonPathByteIdentity:
    """Golden digests of the default (pure-Python) backend.

    These values were captured before the array backend existed; the
    kernel, the crossover dispatch and the batching layers must never
    move them.  A digest change here is a reproducibility break, not a
    test to update casually (docs/PERFORMANCE.md#the-array-backend).
    """

    ESTIMATE_GOLDENS = {
        "relative": ("5560ffd19d3c802f", "bfd6855f9ff19800"),
        "absolute": ("69661f5c64fffbdf", "d253a2fbad9ff356"),
    }
    FIRST_RELATIVE_ESTIMATE = (3.858236012923015, 0)
    QUOTE_GOLDENS = {
        "relative": "0e7fc469abeeb144",
        "absolute": "acd6a6c2deb3c10e",
    }
    FIRST_RELATIVE_QUOTE = (
        2.756739315767495,
        14.3070314984404,
        0.6206896551724138,
    )
    REPORT_GOLDENS = {
        "DemCOM": "23dac5dc6cb8682b4abd2542dfe3dbdd7bd6a410afba74d907f15478f8821560",
        "RamCOM": "58f0b91cedf7d0c4e6df7a631d583566ab7a1ac912b12b6a5f1efbfca827ad1d",
    }

    @pytest.mark.parametrize("mode", ["relative", "absolute"])
    def test_estimates_and_rng_stream_pinned(self, mode):
        acceptance, workers = _populated_estimator(mode)
        estimator = MinimumOuterPaymentEstimator(acceptance, fast_path=True)
        assert estimator.backend == "python"
        rng = derive_rng(5, "fastpath/draws")
        pick = derive_rng(5, "fastpath/calls")
        payments = []
        for _ in range(10):
            value = 5.0 + 95.0 * pick.random()
            ids = pick.sample(workers, 1 + pick.randrange(len(workers)))
            estimate = estimator.estimate(value, ids, rng)
            payments.append((estimate.payment, estimate.rejected_instances))
        if mode == "relative":
            assert payments[0] == self.FIRST_RELATIVE_ESTIMATE
        payments_digest = hashlib.sha256(
            json.dumps(payments).encode()
        ).hexdigest()[:16]
        state_digest = hashlib.sha256(
            repr(rng.getstate()).encode()
        ).hexdigest()[:16]
        assert (payments_digest, state_digest) == self.ESTIMATE_GOLDENS[mode]

    @pytest.mark.parametrize("mode", ["relative", "absolute"])
    def test_quotes_pinned(self, mode):
        acceptance, workers = _populated_estimator(mode)
        pricer = MaximumExpectedRevenuePricer(acceptance, fast_path=True)
        pick = derive_rng(11, "fastpath/quotes")
        quotes = []
        for _ in range(10):
            value = 5.0 + 95.0 * pick.random()
            ids = pick.sample(workers, 1 + pick.randrange(len(workers)))
            quote = pricer.quote(value, ids)
            quotes.append(
                (
                    quote.payment,
                    quote.expected_revenue,
                    quote.acceptance_probability,
                )
            )
        if mode == "relative":
            assert quotes[0] == self.FIRST_RELATIVE_QUOTE
        digest = hashlib.sha256(json.dumps(quotes).encode()).hexdigest()[:16]
        assert digest == self.QUOTE_GOLDENS[mode]

    @pytest.mark.parametrize("algorithm", [DemCOM, RamCOM])
    def test_full_simulation_reports_pinned(self, algorithm):
        report = _golden_report(algorithm, True)
        digest = hashlib.sha256(report.encode()).hexdigest()
        assert digest == self.REPORT_GOLDENS[algorithm.name]
