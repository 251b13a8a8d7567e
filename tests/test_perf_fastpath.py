"""Golden equivalence tests for the Algorithm-2 / MER snapshot fast path.

The fast path (docs/PERFORMANCE.md) must be *bit-identical* to the retained
reference implementations — same estimates, same quotes, and the same RNG
stream (one uniform per candidate with positive acceptance probability, in
candidate order, until one accepts).  These tests pin that down at three
levels: the estimator/pricer units, the RNG-boundary edge cases, and full
DemCOM / RamCOM simulations run with ``payment_fast_path`` on vs off.
Golden digests (:class:`TestPythonPathByteIdentity`) pin the fast path's
outputs themselves.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DemCOM, RamCOM, Simulator, SimulatorConfig
from repro.core.acceptance import AcceptanceEstimator, AcceptanceSnapshot
from repro.core.events import EventKind
from repro.core.payment import MinimumOuterPaymentEstimator
from repro.core.pricing import MaximumExpectedRevenuePricer
from repro.utils.rng import derive_rng

from conftest import make_request, make_scenario, make_worker


def _populated_estimator(mode: str) -> tuple[AcceptanceEstimator, list[str]]:
    acceptance = AcceptanceEstimator(mode=mode)
    rng = derive_rng(99, "fastpath/histories")
    workers = []
    for index in range(12):
        length = 1 + rng.randrange(40)
        scale = 1.0 if mode == "relative" else 50.0
        acceptance.set_history(
            f"w{index}", [rng.random() * scale for _ in range(length)]
        )
        workers.append(f"w{index}")
    workers.extend(f"cold{i}" for i in range(3))
    return acceptance, workers


class TestSnapshot:
    def test_rows_alias_live_histories(self):
        acceptance, workers = _populated_estimator("relative")
        snapshot = acceptance.snapshot(workers)
        assert len(snapshot) == len(workers)
        history, size = snapshot.rows[0]
        assert history is acceptance._histories["w0"]
        assert size == len(history)

    def test_cold_rows_are_none(self):
        acceptance, workers = _populated_estimator("relative")
        snapshot = acceptance.snapshot(workers)
        assert snapshot.rows[-1] == (None, 0)

    @pytest.mark.parametrize("mode", ["relative", "absolute"])
    def test_probabilities_match_estimator(self, mode):
        acceptance, workers = _populated_estimator(mode)
        snapshot = acceptance.snapshot(workers)
        probe = derive_rng(7, "fastpath/probe")
        for _ in range(25):
            value = 10.0 + 90.0 * probe.random()
            payment = value * probe.random()
            expected = [
                acceptance.probability(payment, worker_id, value)
                for worker_id in workers
            ]
            assert snapshot.probabilities(payment, value) == expected

    def test_normalize_matches_private_helper(self):
        for mode in ("relative", "absolute"):
            acceptance, _ = _populated_estimator(mode)
            snapshot = AcceptanceSnapshot(mode, 0.5, [])
            assert snapshot.normalize(30.0, 40.0) == acceptance._normalize(
                30.0, 40.0
            )


class TestEstimatorEquivalence:
    @pytest.mark.parametrize("mode", ["relative", "absolute"])
    def test_estimates_and_rng_stream_bit_identical(self, mode):
        acceptance, workers = _populated_estimator(mode)
        fast = MinimumOuterPaymentEstimator(acceptance, fast_path=True)
        slow = MinimumOuterPaymentEstimator(acceptance, fast_path=False)
        rng_fast = derive_rng(5, "fastpath/draws")
        rng_slow = derive_rng(5, "fastpath/draws")
        pick = derive_rng(5, "fastpath/calls")
        for _ in range(40):
            value = 5.0 + 95.0 * pick.random()
            ids = pick.sample(workers, 1 + pick.randrange(len(workers)))
            assert fast.estimate(value, ids, rng_fast) == slow.estimate(
                value, ids, rng_slow
            )
            # Not just equal results: the exact same uniforms were drawn.
            assert rng_fast.getstate() == rng_slow.getstate()

    def test_probability_one_still_consumes_a_draw(self):
        # Every history entry sits below the offer -> probability is
        # exactly 1.0; the reference path still draws one uniform before
        # accepting, so the fast path must too.
        acceptance = AcceptanceEstimator(mode="absolute")
        acceptance.set_history("w", [1.0, 2.0, 3.0])
        fast = MinimumOuterPaymentEstimator(acceptance, fast_path=True)
        slow = MinimumOuterPaymentEstimator(acceptance, fast_path=False)
        rng_fast, rng_slow = random.Random(3), random.Random(3)
        assert fast.estimate(50.0, ["w"], rng_fast) == slow.estimate(
            50.0, ["w"], rng_slow
        )
        assert rng_fast.getstate() == rng_slow.getstate()
        # The stream moved: draws really were consumed.
        assert rng_fast.getstate() != random.Random(3).getstate()

    def test_zero_default_probability_draws_nothing_for_cold_workers(self):
        acceptance = AcceptanceEstimator(default_probability=0.0)
        fast = MinimumOuterPaymentEstimator(acceptance, fast_path=True)
        slow = MinimumOuterPaymentEstimator(acceptance, fast_path=False)
        rng_fast, rng_slow = random.Random(4), random.Random(4)
        assert fast.estimate(10.0, ["a", "b"], rng_fast) == slow.estimate(
            10.0, ["a", "b"], rng_slow
        )
        # Probability 0 everywhere: neither path may touch the stream.
        assert rng_fast.getstate() == random.Random(4).getstate()
        assert rng_slow.getstate() == random.Random(4).getstate()

    def test_no_candidates_short_circuits(self):
        acceptance = AcceptanceEstimator()
        fast = MinimumOuterPaymentEstimator(acceptance, fast_path=True)
        rng = random.Random(1)
        estimate = fast.estimate(10.0, [], rng)
        assert estimate.always_rejected
        assert rng.getstate() == random.Random(1).getstate()


class TestPricerEquivalence:
    @pytest.mark.parametrize("mode", ["relative", "absolute"])
    @pytest.mark.parametrize("breakpoints", [True, False])
    def test_quotes_bit_identical(self, mode, breakpoints):
        acceptance, workers = _populated_estimator(mode)
        fast = MaximumExpectedRevenuePricer(
            acceptance,
            include_history_breakpoints=breakpoints,
            fast_path=True,
        )
        slow = MaximumExpectedRevenuePricer(
            acceptance,
            include_history_breakpoints=breakpoints,
            fast_path=False,
        )
        pick = derive_rng(11, "fastpath/quotes")
        for _ in range(25):
            value = 5.0 + 95.0 * pick.random()
            ids = pick.sample(workers, 1 + pick.randrange(len(workers)))
            assert fast.quote(value, ids) == slow.quote(value, ids)


def _quote_bits(quote) -> tuple[str, str, str]:
    """A quote's three floats, bit for bit."""
    return (
        quote.payment.hex(),
        quote.expected_revenue.hex(),
        quote.acceptance_probability.hex(),
    )


@st.composite
def _pricing_cases(draw):
    """One pricer configuration, candidate set and request value.

    Covers both estimator modes, cold-only / warm-only / mixed candidate
    sets, default probabilities 0 and 1, duplicate history values,
    history values on grid points, grid-only pricing and breakpoint caps
    from 0 to cap-hitting.  Histories may sit wholly above the request
    value, so some sets have zero acceptance probability everywhere.
    """
    mode = draw(st.sampled_from(["relative", "absolute"]))
    default_probability = draw(st.sampled_from([0.0, 0.3, 1.0]))
    value = draw(
        st.one_of(
            st.sampled_from([1.0, 6.6, 10.0, 13.7]),
            st.floats(min_value=0.5, max_value=200.0),
        )
    )
    grid_steps = draw(st.sampled_from([1, 4, 10, 50]))
    step = value / grid_steps
    if mode == "relative":
        grid_entries = [step * i / value for i in range(1, grid_steps + 1)]
        entry = st.floats(min_value=0.0, max_value=1.3)
    else:
        grid_entries = [step * i for i in range(1, grid_steps + 1)]
        entry = st.floats(min_value=0.0, max_value=1.3 * value)
    composition = draw(st.sampled_from(["cold", "warm", "mixed"]))
    acceptance = AcceptanceEstimator(
        default_probability=default_probability, mode=mode
    )
    worker_ids = []
    for index in range(draw(st.integers(min_value=1, max_value=8))):
        worker_id = f"w{index}"
        worker_ids.append(worker_id)
        if composition == "cold" or (
            composition == "mixed" and draw(st.booleans())
        ):
            continue
        history = draw(
            st.lists(
                st.one_of(entry, st.sampled_from(grid_entries)),
                min_size=1,
                max_size=12,
            )
        )
        repeats = draw(st.integers(min_value=0, max_value=len(history)))
        acceptance.set_history(worker_id, history + history[:repeats])
    knobs = {
        "grid_steps": grid_steps,
        "include_history_breakpoints": draw(st.booleans()),
        "max_breakpoints": draw(st.sampled_from([0, 1, 3, 200])),
    }
    return acceptance, worker_ids, value, knobs


class TestPrunedQuote:
    """The pruned ascending sweep against the full reference evaluation."""

    @given(_pricing_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_field_for_field(self, case):
        acceptance, worker_ids, value, knobs = case
        pruned = MaximumExpectedRevenuePricer(acceptance, fast_path=True, **knobs)
        reference = MaximumExpectedRevenuePricer(
            acceptance, fast_path=False, **knobs
        )
        assert _quote_bits(pruned.quote(value, worker_ids)) == _quote_bits(
            reference.quote(value, worker_ids)
        )
        assert pruned.payments_built == reference.payments_built
        assert reference.payments_evaluated == reference.payments_built
        assert 1 <= pruned.payments_evaluated <= pruned.payments_built

    def test_strict_stop_keeps_the_higher_tied_payment(self):
        # pr(5) = 0.5 and pr(7.5) = 1 tie at expected revenue 2.5; 7.5's
        # margin equals the best, so only a strict stop evaluates it.
        acceptance = AcceptanceEstimator(mode="absolute")
        acceptance.set_history("w", [5.0, 7.5])
        quote = MaximumExpectedRevenuePricer(acceptance).quote(10.0, ["w"])
        assert (
            quote.payment,
            quote.expected_revenue,
            quote.acceptance_probability,
        ) == (7.5, 2.5, 1.0)

    @pytest.mark.parametrize("value", [10.0, 6.6])
    def test_zero_probability_sets_take_the_top_payment(self, value):
        # Every payment ties at zero expected revenue, so the highest
        # candidate payment wins.  For v = 10 the top grid point is v; for
        # v = 6.6, (6.6 / 50) * 50 rounds above v and must still win.
        acceptance = AcceptanceEstimator(default_probability=0.0)
        pruned = MaximumExpectedRevenuePricer(acceptance)
        reference = MaximumExpectedRevenuePricer(acceptance, fast_path=False)
        quote = pruned.quote(value, ["a", "b"])
        assert _quote_bits(quote) == _quote_bits(reference.quote(value, ["a", "b"]))
        assert quote.payment == (value / 50) * 50
        assert quote.expected_revenue == 0.0
        assert quote.acceptance_probability == 0.0


def _golden_scenario():
    workers = [
        make_worker(f"a{i}", "A", i * 0.2, x=i * 0.3, y=0.1 * i, radius=1.8)
        for i in range(10)
    ] + [
        make_worker(f"b{i}", "B", i * 0.3, x=i * 0.4, y=0.25, radius=1.5)
        for i in range(8)
    ]
    requests = [
        make_request(f"ra{i}", "A", 2.0 + i * 0.25, x=i * 0.3, value=4.0 + i)
        for i in range(12)
    ] + [
        make_request(f"rb{i}", "B", 2.4 + i * 0.35, x=i * 0.4, y=0.25, value=6.5)
        for i in range(8)
    ]
    return make_scenario(workers, requests, platform_ids=["A", "B"])


def _golden_report(algorithm, fast_path: bool) -> str:
    config = SimulatorConfig(
        seed=7,
        measure_response_time=False,
        worker_reentry=True,
        service_duration=600.0,
        payment_fast_path=fast_path,
    )
    result = Simulator(config).run(_golden_scenario(), algorithm)
    payload = {}
    for pid in sorted(result.platforms):
        ledger = result.platforms[pid].ledger
        payload[pid] = {
            "revenue": ledger.revenue,
            "lender_income": ledger.total_lender_income,
            "matches": [
                [
                    record.request.request_id,
                    record.worker.worker_id,
                    record.kind.value,
                    record.payment,
                ]
                for record in ledger.records
            ],
            "rejected": [request.request_id for request in ledger.rejected],
        }
    return json.dumps(payload, sort_keys=True)


class TestEndToEndGolden:
    """The byte-identity the determinism suite relies on: flipping
    ``payment_fast_path`` must not move a single float."""

    @pytest.mark.parametrize("algorithm", [DemCOM, RamCOM], ids=lambda a: a.name)
    def test_fast_path_report_is_byte_identical(self, algorithm):
        assert _golden_report(algorithm, True) == _golden_report(
            algorithm, False
        )


def _golden_pricer_totals(fast_path: bool) -> tuple[int, int]:
    config = SimulatorConfig(
        seed=7,
        measure_response_time=False,
        worker_reentry=True,
        service_duration=600.0,
        payment_fast_path=fast_path,
    )
    scenario = _golden_scenario()
    session = Simulator(config).session(scenario, RamCOM)
    for event in scenario.events:
        if event.kind is EventKind.WORKER:
            session.submit_worker(event.worker, time=event.time)
        else:
            session.submit_request(event.request, time=event.time)
    session.finalize()
    return session.pricer.payments_built, session.pricer.payments_evaluated


class TestPruningCounters:
    """Deterministic, host-independent guard on the pruning itself: the
    golden RamCOM run builds and evaluates exactly these many payments."""

    BUILT = 3180
    EVALUATED = 1683

    def test_totals_pinned_on_golden_ramcom_run(self):
        assert _golden_pricer_totals(fast_path=True) == (
            self.BUILT,
            self.EVALUATED,
        )

    def test_reference_evaluates_every_payment(self):
        assert _golden_pricer_totals(fast_path=False) == (self.BUILT, self.BUILT)


class TestPythonPathByteIdentity:
    """Golden digests of the fast-path estimates, quotes and reports.

    The digests pin the estimates, the RNG stream they leave behind, the
    MER quotes and full DemCOM / RamCOM simulation reports.  A digest
    change here is a reproducibility break, not a test to update
    casually.
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
