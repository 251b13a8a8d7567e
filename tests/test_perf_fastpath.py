"""Golden equivalence tests for the Algorithm-2 / MER snapshot fast path.

The fast path (docs/PERFORMANCE.md) must be *bit-identical* to the retained
reference implementations — same estimates, same quotes, and the same RNG
stream (one uniform per candidate with positive acceptance probability, in
candidate order, until one accepts).  These tests pin that down at three
levels: the estimator/pricer units, the RNG-boundary edge cases, and full
DemCOM / RamCOM simulations run as shipped and with the reference paths
swapped in.  No option selects a reference path: the tests reach
``_run_instances_reference`` and ``_quote_reference`` by replacing their
fast twins on one instance (:func:`_reference_estimator`,
:func:`_reference_pricer`) or on the class (:func:`_reference_paths`);
the breakpoint build's oracle is :func:`_candidate_payments_reference`.
Golden digests (:class:`TestPythonPathByteIdentity`) pin the fast path's
outputs themselves, and counted-work tests (:class:`TestEq4EvaluationCounts`,
:class:`TestPruningCounters`) pin how much Eq.-4 work each path does.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.behavior import worker_model
from repro.core import DemCOM, RamCOM, Simulator, SimulatorConfig
from repro.core import payment as payment_module
from repro.core.acceptance import AcceptanceEstimator, AcceptanceSnapshot
from repro.core.events import EventKind
from repro.core.payment import MinimumOuterPaymentEstimator
from repro.core.pricing import MaximumExpectedRevenuePricer
from repro.utils.rng import derive_rng
from repro.workloads import SyntheticWorkload, SyntheticWorkloadConfig

from conftest import make_request, make_scenario, make_worker


def _reference_estimator(*args, **kwargs) -> MinimumOuterPaymentEstimator:
    """An estimator whose ``estimate`` runs the reference instance loop."""
    estimator = MinimumOuterPaymentEstimator(*args, **kwargs)
    estimator._run_instances_fast = estimator._run_instances_reference
    return estimator


def _reference_pricer(*args, **kwargs) -> MaximumExpectedRevenuePricer:
    """A pricer whose ``quote`` runs the reference evaluation."""
    pricer = MaximumExpectedRevenuePricer(*args, **kwargs)
    pricer._quote_pruned = pricer._quote_reference
    return pricer


@contextlib.contextmanager
def _reference_paths():
    """Swap the reference paths in on every estimator and pricer, for the
    simulator runs inside the ``with`` block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            MinimumOuterPaymentEstimator,
            "_run_instances_fast",
            MinimumOuterPaymentEstimator._run_instances_reference,
        )
        patch.setattr(
            MaximumExpectedRevenuePricer,
            "_quote_pruned",
            MaximumExpectedRevenuePricer._quote_reference,
        )
        yield


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
        fast = MinimumOuterPaymentEstimator(acceptance)
        slow = _reference_estimator(acceptance)
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
        fast = MinimumOuterPaymentEstimator(acceptance)
        slow = _reference_estimator(acceptance)
        rng_fast, rng_slow = random.Random(3), random.Random(3)
        assert fast.estimate(50.0, ["w"], rng_fast) == slow.estimate(
            50.0, ["w"], rng_slow
        )
        assert rng_fast.getstate() == rng_slow.getstate()
        # The stream moved: draws really were consumed.
        assert rng_fast.getstate() != random.Random(3).getstate()

    def test_zero_default_probability_draws_nothing_for_cold_workers(self):
        acceptance = AcceptanceEstimator(default_probability=0.0)
        fast = MinimumOuterPaymentEstimator(acceptance)
        slow = _reference_estimator(acceptance)
        rng_fast, rng_slow = random.Random(4), random.Random(4)
        assert fast.estimate(10.0, ["a", "b"], rng_fast) == slow.estimate(
            10.0, ["a", "b"], rng_slow
        )
        # Probability 0 everywhere: neither path may touch the stream.
        assert rng_fast.getstate() == random.Random(4).getstate()
        assert rng_slow.getstate() == random.Random(4).getstate()

    def test_no_candidates_short_circuits(self):
        acceptance = AcceptanceEstimator()
        fast = MinimumOuterPaymentEstimator(acceptance)
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
            acceptance, include_history_breakpoints=breakpoints
        )
        slow = _reference_pricer(
            acceptance, include_history_breakpoints=breakpoints
        )
        pick = derive_rng(11, "fastpath/quotes")
        for _ in range(25):
            value = 5.0 + 95.0 * pick.random()
            ids = pick.sample(workers, 1 + pick.randrange(len(workers)))
            assert fast.quote(value, ids) == slow.quote(value, ids)


class TestBreakpointCap:
    """The default breakpoint cap binds on dense histories: a quote builds
    at most ``grid_steps`` grid points plus the cap, and the pruned sweep
    still equals the reference there."""

    def _dense(self, mode: str) -> tuple[AcceptanceEstimator, list[str]]:
        acceptance = AcceptanceEstimator(mode=mode)
        rng = derive_rng(23, "fastpath/dense")
        scale = 1.0 if mode == "relative" else 60.0
        workers = [f"d{index}" for index in range(10)]
        for worker_id in workers:
            acceptance.set_history(
                worker_id, [rng.random() * scale for _ in range(40)]
            )
        return acceptance, workers

    @pytest.mark.parametrize("mode", ["relative", "absolute"])
    def test_payments_built_within_grid_plus_cap(self, mode):
        acceptance, workers = self._dense(mode)
        pricer = MaximumExpectedRevenuePricer(acceptance)
        pick = derive_rng(29, "fastpath/dense-quotes")
        for _ in range(20):
            value = 5.0 + 95.0 * pick.random()
            built = pricer.payments_built
            pricer.quote(value, workers)
            assert (
                pricer.payments_built - built
                <= pricer.grid_steps + pricer.max_breakpoints
            )

    @pytest.mark.parametrize("mode", ["relative", "absolute"])
    def test_fast_equals_reference_at_the_default_cap(self, mode):
        acceptance, workers = self._dense(mode)
        fast = MaximumExpectedRevenuePricer(acceptance)
        slow = _reference_pricer(acceptance)
        pick = derive_rng(31, "fastpath/dense-quotes")
        for _ in range(20):
            value = 5.0 + 95.0 * pick.random()
            ids = pick.sample(workers, 2 + pick.randrange(len(workers) - 1))
            assert _quote_bits(fast.quote(value, ids)) == _quote_bits(
                slow.quote(value, ids)
            )


def _quote_bits(quote) -> tuple[str, str, str]:
    """A quote's three floats, bit for bit."""
    return (
        quote.payment.hex(),
        quote.expected_revenue.hex(),
        quote.acceptance_probability.hex(),
    )


#: Subnormal request values: at 50 steps every grid payment underflows to
#: 0.0, and ``rate * v`` rounds to exactly ``v`` for some rates above 1.0
#: (below the normal range one unit of ``v`` is coarse).
_TINY_VALUES = [1e-322, 5e-323]


@st.composite
def _pricing_cases(draw):
    """One pricer configuration, candidate set and request value.

    Covers both estimator modes; cold-only, warm-only and mixed candidate
    sets at default probabilities 0, 0.3 and 1; a floor under every
    history value at, just past or between grid points, or above every
    payment, so the zero-probability prefix takes every length, up to a
    quote where no payment moves a cursor; history values on grid
    points, heavy duplicates (a candidate may leave the breakpoint cap
    unfilled), and values above the request value, among them rates just
    above 1.0 whose payment rounds to exactly ``v`` at a subnormal ``v``;
    grid payments that underflow to 0.0; grid-only pricing and breakpoint
    caps from 0 to cap-hitting.
    """
    mode = draw(st.sampled_from(["relative", "absolute"]))
    default_probability = draw(st.sampled_from([0.0, 0.3, 1.0]))
    value = draw(
        st.one_of(
            st.sampled_from([1.0, 6.6, 10.0, 13.7, *_TINY_VALUES]),
            st.floats(min_value=0.5, max_value=200.0),
        )
    )
    grid_steps = draw(st.sampled_from([1, 4, 10, 50]))
    step = value / grid_steps
    # History entries live in offer space: rates in relative mode, raw
    # prices in absolute mode.
    top = 1.0 if mode == "relative" else value
    if mode == "relative":
        grid_entries = [step * i / value for i in range(1, grid_steps + 1)]
    else:
        grid_entries = [step * i for i in range(1, grid_steps + 1)]
    above = [math.nextafter(top, math.inf), top * 1.01, top * 1.02, top * 1.04]
    entry = st.one_of(
        st.floats(min_value=0.0, max_value=1.3 * top),
        st.sampled_from(grid_entries),
        st.sampled_from(above),
    )
    floor = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from(grid_entries),
            st.sampled_from(grid_entries).map(lambda e: math.nextafter(e, math.inf)),
            st.just(2.0 * top),
        )
    )
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
        if draw(st.booleans()):
            history = draw(st.lists(entry, min_size=1, max_size=12))
        else:
            # Few distinct values, many times each.
            history = draw(st.integers(min_value=1, max_value=6)) * draw(
                st.lists(entry, min_size=1, max_size=2)
            )
        repeats = draw(st.integers(min_value=0, max_value=len(history)))
        acceptance.set_history(
            worker_id, [max(floor, e) for e in history + history[:repeats]]
        )
    knobs = {
        "grid_steps": grid_steps,
        "include_history_breakpoints": draw(st.booleans()),
        "max_breakpoints": draw(st.sampled_from([0, 1, 3, 200])),
    }
    return acceptance, worker_ids, value, knobs


def _strict_stop_count(reference, value, worker_ids) -> int:
    """How many payments the ascending sweep evaluates before its strict
    stop, from the reference's expected revenue at each payment alone."""
    snapshot = reference.estimator.snapshot(worker_ids)
    payments = sorted(reference._candidate_payments(value, snapshot))
    best_payment, best_expected = value, -1.0
    for count, payment in enumerate(payments):
        margin = value - payment
        if margin < best_expected and best_expected > 0.0:
            return count
        _, expected, _, _ = reference._quote_reference(value, snapshot, [payment])
        if expected > best_expected or (
            expected == best_expected and payment > best_payment
        ):
            best_payment, best_expected = payment, expected
    return len(payments)


class TestPrunedQuote:
    """The pruned ascending sweep against the full reference evaluation."""

    @given(_pricing_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_field_for_field(self, case):
        acceptance, worker_ids, value, knobs = case
        pruned = MaximumExpectedRevenuePricer(acceptance, **knobs)
        reference = _reference_pricer(acceptance, **knobs)
        quote = pruned.quote(value, worker_ids)
        expected = reference.quote(value, worker_ids)
        assert quote.payment.hex() == expected.payment.hex()
        assert quote.expected_revenue.hex() == expected.expected_revenue.hex()
        assert (
            quote.acceptance_probability.hex()
            == expected.acceptance_probability.hex()
        )
        assert pruned.payments_built == reference.payments_built
        assert reference.payments_evaluated == reference.payments_built
        # The zero-probability prefix the sweep settles by one bisect still
        # counts as evaluated, payment by payment.
        assert pruned.payments_evaluated == _strict_stop_count(
            reference, value, worker_ids
        )

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
        reference = _reference_pricer(acceptance)
        quote = pruned.quote(value, ["a", "b"])
        assert _quote_bits(quote) == _quote_bits(reference.quote(value, ["a", "b"]))
        assert quote.payment == (value / 50) * 50
        assert quote.expected_revenue == 0.0
        assert quote.acceptance_probability == 0.0

    # Factor-list sweep edge cases: each pins the incremental product
    # (factors touched only where a cursor moves, the product reused when
    # none does) against the reference's left fold per payment.

    @staticmethod
    def _check(acceptance, value, worker_ids, **knobs):
        pruned = MaximumExpectedRevenuePricer(acceptance, **knobs)
        reference = _reference_pricer(acceptance, **knobs)
        quote = pruned.quote(value, worker_ids)
        assert _quote_bits(quote) == _quote_bits(reference.quote(value, worker_ids))
        return quote, pruned

    def test_collapse_at_candidate_zero(self):
        # w0 accepts every offer from 1.0 on: its 0.0 factor zeroes the
        # product ahead of every other candidate.
        acceptance = AcceptanceEstimator(mode="absolute")
        acceptance.set_history("w0", [1.0])
        acceptance.set_history("w1", [4.0, 8.0, 9.5])
        quote, _ = self._check(acceptance, 10.0, ["w0", "w1"])
        assert quote.acceptance_probability == 1.0

    def test_cursors_move_only_after_the_collapse_point(self):
        # w1 collapses at 0.6; w0's and w2's cursors keep moving past it,
        # and w2 only starts moving once the product is already zero.
        acceptance = AcceptanceEstimator(mode="absolute")
        acceptance.set_history("w0", [0.2, 2.0, 5.0, 7.0])
        acceptance.set_history("w1", [0.4, 0.6])
        acceptance.set_history("w2", [3.0, 3.5, 6.0])
        self._check(acceptance, 10.0, ["w0", "w1", "w2"])
        self._check(acceptance, 10.0, ["w2", "w0", "w1"], max_breakpoints=2)

    def test_grid_runs_that_move_no_cursor(self):
        # Every history value sits above 85% of the grid, so long runs of
        # grid points reuse the product unchanged.
        acceptance = AcceptanceEstimator()
        acceptance.set_history("w0", [0.86, 0.93])
        acceptance.set_history("w1", [0.9, 0.97, 0.99])
        self._check(acceptance, 20.0, ["w0", "w1"])
        self._check(
            acceptance, 20.0, ["w0", "w1"], include_history_breakpoints=False
        )

    def test_duplicate_history_values_across_candidates(self):
        acceptance = AcceptanceEstimator(mode="absolute")
        acceptance.set_history("w0", [3.0, 3.0, 5.0])
        acceptance.set_history("w1", [3.0, 5.0, 5.0, 5.0])
        acceptance.set_history("w2", [2.0, 3.0])
        self._check(acceptance, 8.0, ["w0", "w1", "w2"])
        self._check(acceptance, 8.0, ["w2", "w1", "w0"], grid_steps=4)

    @pytest.mark.parametrize("default_probability", [0.0, 0.3, 1.0])
    def test_cold_candidates(self, default_probability):
        acceptance = AcceptanceEstimator(
            default_probability=default_probability, mode="absolute"
        )
        acceptance.set_history("warm", [2.5, 6.0])
        self._check(acceptance, 10.0, ["cold0", "warm", "cold1"])
        self._check(acceptance, 10.0, ["cold0", "cold1"])

    @pytest.mark.parametrize("mode", ["relative", "absolute"])
    def test_zero_prefix_of_every_length(self, mode):
        # A floor at, or one ulp past, each grid offer: the payments below
        # it are settled by one bisect and still counted; a floor above
        # every payment leaves no cursor to move.
        top = 1.0 if mode == "relative" else 10.0
        grid = [top * i / 10 for i in range(1, 11)]
        floors = grid + [math.nextafter(f, math.inf) for f in grid] + [2.0 * top]
        for floor in floors:
            acceptance = AcceptanceEstimator(mode=mode)
            acceptance.set_history("w0", [floor, floor])
            acceptance.set_history("w1", [max(floor, 0.75 * top), 2.0 * top])
            _, pruned = self._check(acceptance, 10.0, ["w0", "w1"], grid_steps=10)
            assert pruned.payments_evaluated == _strict_stop_count(
                _reference_pricer(acceptance, grid_steps=10), 10.0, ["w0", "w1"]
            )

    def test_rates_whose_payment_rounds_to_v(self):
        # At a subnormal v, rates just above 1.0 pay exactly v and stay
        # breakpoints; 1.04 * v lies past v and is dropped.
        value = 1e-322
        acceptance = AcceptanceEstimator()
        acceptance.set_history("w", [0.5, math.nextafter(1.0, 2.0), 1.02, 1.04])
        pricer = MaximumExpectedRevenuePricer(acceptance, grid_steps=4)
        payments = pricer._candidate_payments(value, acceptance.snapshot(["w"]))
        assert sorted(payments[4:]) == [0.5 * value, value]
        self._check(acceptance, value, ["w"], grid_steps=4)

    def test_duplicates_leave_the_cap_unfilled(self):
        # w0's four entries make one breakpoint, so a cap of 3 goes on to
        # take two from w1.
        acceptance = AcceptanceEstimator(mode="absolute")
        acceptance.set_history("w0", [4.0] * 4)
        acceptance.set_history("w1", [2.0, 3.0, 5.0, 6.0])
        knobs = {"grid_steps": 1, "max_breakpoints": 3}
        pricer = MaximumExpectedRevenuePricer(acceptance, **knobs)
        snapshot = acceptance.snapshot(["w0", "w1"])
        assert sorted(pricer._candidate_payments(10.0, snapshot)) == [2, 3, 4, 10]
        self._check(acceptance, 10.0, ["w0", "w1"], **knobs)

    def test_underflowing_grid_payment_keeps_cold_factor_one(self):
        # v / 50 rounds to 0.0, so every grid payment is 0.0: a cold
        # candidate's probability there is 0, not the default, exactly as
        # in the reference.  The warm breakpoints are positive payments.
        value = 1e-322
        acceptance = AcceptanceEstimator(default_probability=0.5, mode="absolute")
        assert value / 50 == 0.0
        quote, pruned = self._check(acceptance, value, ["cold"])
        assert (quote.payment, quote.acceptance_probability) == (0.0, 0.0)
        assert pruned.payments_evaluated == 50
        acceptance.set_history("warm", [5e-324, value])
        self._check(acceptance, value, ["cold", "warm"])
        self._check(acceptance, value, ["warm", "cold"])


def _candidate_payments_reference(
    pricer: MaximumExpectedRevenuePricer,
    request_value: float,
    snapshot: AcceptanceSnapshot,
) -> list[float]:
    """The breakpoint build one value at a time: the equivalence oracle for
    ``_candidate_payments``'s one-sort rounds.

    The even grid, then every history payment ``<= v`` in candidate order,
    ascending within a candidate, into a set whose size is checked against
    the cap before each add; the set's positive members follow the grid.
    """
    step = request_value / pricer.grid_steps
    payments = [step * i for i in range(1, pricer.grid_steps + 1)]
    if pricer.include_history_breakpoints:
        scale = request_value if snapshot.mode == "relative" else 1.0
        breakpoints: set[float] = set()
        cap = pricer.max_breakpoints
        for history, _ in snapshot.rows:
            if len(breakpoints) >= cap:
                break
            for value in history or ():
                payment = value * scale
                if payment > request_value or len(breakpoints) >= cap:
                    break
                breakpoints.add(payment)
        payments.extend(v for v in breakpoints if 0.0 < v <= request_value)
    return payments


def _payment_bits(payments: list[float]) -> list[str]:
    """A payment list as a multiset, bit for bit."""
    return sorted(payment.hex() for payment in payments)


@st.composite
def _breakpoint_cases(draw):
    """Candidate histories built to stress the cap and the dedup.

    Values come from a small shared pool, so they repeat within and across
    candidates; relative-mode pools hold adjacent rates whose payments
    collide only after scaling; ``0.0`` and ``-0.0`` and values past the
    request value (rates just above 1.0, which pay exactly ``v`` at a
    subnormal ``v``) mix in; some candidates are cold.
    """
    mode = draw(st.sampled_from(["relative", "absolute"]))
    value = draw(
        st.one_of(
            st.sampled_from([1.0, 3.0, 6.6, 10.0, 13.7, *_TINY_VALUES]),
            st.floats(min_value=0.5, max_value=200.0),
        )
    )
    top = 1.0 if mode == "relative" else value
    entries = st.floats(min_value=0.0, max_value=1.3 * top)
    pool = draw(st.lists(entries, min_size=1, max_size=8))
    if mode == "relative":
        # A rate and the next float up may pay the same after rounding.
        pool += [math.nextafter(rate, math.inf) for rate in pool]
    pool += [0.0, -0.0, top, math.nextafter(top, math.inf), top * 1.01]
    acceptance = AcceptanceEstimator(mode=mode)
    worker_ids = []
    for index in range(draw(st.integers(min_value=1, max_value=8))):
        worker_ids.append(f"w{index}")
        if draw(st.integers(min_value=0, max_value=3)):
            acceptance.set_history(
                f"w{index}",
                draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40)),
            )
    knobs = {
        "grid_steps": draw(st.sampled_from([1, 10, 50])),
        "max_breakpoints": draw(st.sampled_from([0, 1, 3, 64, 200])),
    }
    return acceptance, worker_ids, value, knobs


class TestOneSortBreakpointBuild:
    """``_candidate_payments`` builds in rounds of one sort each; the set it
    yields, and so ``payments_built``, equals the one-value-at-a-time
    oracle's."""

    @given(_breakpoint_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_per_value_oracle(self, case):
        acceptance, worker_ids, value, knobs = case
        snapshot = acceptance.snapshot(worker_ids)
        pricer = MaximumExpectedRevenuePricer(acceptance, **knobs)
        built = pricer._candidate_payments(value, snapshot)
        expected = _candidate_payments_reference(pricer, value, snapshot)
        assert _payment_bits(built) == _payment_bits(expected)
        # The grid, then the breakpoints ascending: two sorted runs.
        breakpoints = built[knobs["grid_steps"] :]
        assert breakpoints == sorted(breakpoints)
        oracle = MaximumExpectedRevenuePricer(acceptance, **knobs)
        oracle._candidate_payments = lambda value, snapshot: (
            _candidate_payments_reference(oracle, value, snapshot)
        )
        assert _quote_bits(pricer.quote(value, worker_ids)) == _quote_bits(
            oracle.quote(value, worker_ids)
        )
        assert pricer.payments_built == oracle.payments_built
        assert pricer.payments_evaluated == oracle.payments_evaluated

    def test_duplicate_moves_the_cut_into_a_later_candidate(self):
        # w0's repeated 2.0 adds one payment, so a cap of 3 still has room
        # after w0's three values: w1's smallest value, 1.0, is the third
        # breakpoint and w1's 6.0 is not taken.
        acceptance = AcceptanceEstimator(mode="absolute")
        acceptance.set_history("w0", [2.0, 2.0, 5.0])
        acceptance.set_history("w1", [1.0, 6.0])
        pricer = MaximumExpectedRevenuePricer(
            acceptance, grid_steps=1, max_breakpoints=3
        )
        snapshot = acceptance.snapshot(["w0", "w1"])
        assert pricer._candidate_payments(10.0, snapshot) == [10.0, 1.0, 2.0, 5.0]
        oracle = _candidate_payments_reference(pricer, 10.0, snapshot)
        assert sorted(oracle) == [1.0, 2.0, 5.0, 10.0]

    def test_rates_that_collide_only_after_scaling(self):
        # At v = 3, 0.1 and the next float up pay the same, and so do 0.2
        # and its neighbour: five rates make three payments, and a cap of
        # 3 takes all three.
        rates = [0.1, math.nextafter(0.1, 1.0), 0.2, math.nextafter(0.2, 1.0), 0.4]
        assert rates[0] * 3.0 == rates[1] * 3.0 and rates[2] * 3.0 == rates[3] * 3.0
        acceptance = AcceptanceEstimator()
        acceptance.set_history("w", rates)
        pricer = MaximumExpectedRevenuePricer(
            acceptance, grid_steps=1, max_breakpoints=3
        )
        snapshot = acceptance.snapshot(["w"])
        expected = [3.0, 0.1 * 3.0, 0.2 * 3.0, 0.4 * 3.0]
        assert pricer._candidate_payments(3.0, snapshot) == expected
        oracle = _candidate_payments_reference(pricer, 3.0, snapshot)
        assert sorted(oracle) == sorted(expected)


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


def _golden_report(algorithm) -> str:
    config = SimulatorConfig(
        seed=7,
        measure_response_time=False,
        worker_reentry=True,
        service_duration=600.0,
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
    """The byte-identity the determinism suite relies on: swapping the
    reference paths in must not move a single float."""

    @pytest.mark.parametrize("algorithm", [DemCOM, RamCOM], ids=lambda a: a.name)
    def test_fast_path_report_is_byte_identical(self, algorithm):
        fast = _golden_report(algorithm)
        with _reference_paths():
            reference = _golden_report(algorithm)
        assert fast == reference


def _golden_pricer_totals() -> tuple[int, int]:
    config = SimulatorConfig(
        seed=7,
        measure_response_time=False,
        worker_reentry=True,
        service_duration=600.0,
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

    BUILT = 1866
    EVALUATED = 1132

    def test_totals_pinned_on_golden_ramcom_run(self):
        assert _golden_pricer_totals() == (self.BUILT, self.EVALUATED)

    def test_reference_evaluates_every_payment(self):
        with _reference_paths():
            totals = _golden_pricer_totals()
        assert totals == (self.BUILT, self.BUILT)


class TestEq4EvaluationCounts:
    """Deterministic, host-independent guard on Algorithm 2's memoised
    price grid: the fast path computes each trial price's Eq.-4 vector
    once and shares it across the Monte-Carlo instances, where the
    reference asks one ``probability`` query per candidate per probe.

    The fast path's Eq.-4 evaluations are its ``bisect_right`` calls,
    which it reads from ``repro.core.payment`` on every ``estimate``.
    """

    FAST = {"relative": 216, "absolute": 384}
    REFERENCE = {"relative": 3393, "absolute": 6045}

    @staticmethod
    def _estimate_all(estimator, workers):
        for value in (3.0, 10.0, 25.0):
            estimator.estimate(value, workers, random.Random(1))

    @pytest.mark.parametrize("mode", ["relative", "absolute"])
    def test_counts_pinned(self, mode, monkeypatch):
        acceptance, workers = _populated_estimator(mode)
        calls = {"bisect": 0, "probability": 0}
        bisect_right = payment_module.bisect_right
        probability = AcceptanceEstimator.probability

        def counting_bisect(*args):
            calls["bisect"] += 1
            return bisect_right(*args)

        def counting_probability(self, *args):
            calls["probability"] += 1
            return probability(self, *args)

        monkeypatch.setattr(payment_module, "bisect_right", counting_bisect)
        monkeypatch.setattr(AcceptanceEstimator, "probability", counting_probability)
        # Neither path reaches the other's Eq.-4 entry point.
        self._estimate_all(MinimumOuterPaymentEstimator(acceptance), workers)
        assert calls == {"bisect": self.FAST[mode], "probability": 0}
        fast, calls["bisect"] = calls["bisect"], 0
        self._estimate_all(_reference_estimator(acceptance), workers)
        assert calls == {"bisect": 0, "probability": self.REFERENCE[mode]}
        assert calls["probability"] >= 10 * fast


def _ramcom_draws(monkeypatch, scenario, config) -> tuple[int, int]:
    """(reservation draws, offers made) over one RamCOM run."""
    labels = []
    real = worker_model.derive_uniform

    def counting(seed, label):
        labels.append(label)
        return real(seed, label)

    monkeypatch.setattr(worker_model, "derive_uniform", counting)
    result = Simulator(config).run(scenario, RamCOM)
    draws = sum(label.startswith("reservation/") for label in labels)
    offers = sum(outcome.offers_made for outcome in result.platforms.values())
    return draws, offers


class TestReservationDraws:
    """Host-independent guard on the draw-free offer decisions: the oracle
    draws only for offers its workers' reservation support leaves open.
    Before draws were skipped, every offer drew once (draws == offers)."""

    def test_golden_ramcom_run(self, monkeypatch):
        config = SimulatorConfig(
            seed=7,
            measure_response_time=False,
            worker_reentry=True,
            service_duration=600.0,
        )
        # Every golden offer lies inside its worker's support.
        assert _ramcom_draws(monkeypatch, _golden_scenario(), config) == (34, 34)

    def test_synthetic_ramcom_run(self, monkeypatch):
        scenario = SyntheticWorkload(
            SyntheticWorkloadConfig(request_count=400, worker_count=120, city_km=5.0)
        ).build(seed=3)
        digest = hashlib.sha256(pickle.dumps(scenario)).hexdigest()
        config = SimulatorConfig(
            seed=0,
            measure_response_time=False,
            worker_reentry=True,
            service_duration=1800.0,
        )
        assert _ramcom_draws(monkeypatch, scenario, config) == (225, 307)
        assert hashlib.sha256(pickle.dumps(scenario)).hexdigest() == digest


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
        "relative": "ef0894f068c7ccf7",
        "absolute": "2e4bff36a386f8ff",
    }
    FIRST_RELATIVE_QUOTE = (
        2.756739315767495,
        14.3070314984404,
        0.6206896551724138,
    )
    REPORT_GOLDENS = {
        "DemCOM": "0446e324e17254f57ae2ed1aa2f288b45b566ff3e0f028b8b41239fd48d0ec32",
        "RamCOM": "6f7e322c9b00a8ad66bbb111a4667955713538b48d2be39b6687f0a5beb2c7ac",
    }

    @pytest.mark.parametrize("mode", ["relative", "absolute"])
    def test_estimates_and_rng_stream_pinned(self, mode):
        acceptance, workers = _populated_estimator(mode)
        estimator = MinimumOuterPaymentEstimator(acceptance)
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
        pricer = MaximumExpectedRevenuePricer(acceptance)
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
        report = _golden_report(algorithm)
        digest = hashlib.sha256(report.encode()).hexdigest()
        assert digest == self.REPORT_GOLDENS[algorithm.name]
