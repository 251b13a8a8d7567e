"""Tests for the incentive machinery: Eq. 4, Algorithm 2, and MER pricing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acceptance import AcceptanceEstimator
from repro.core.payment import (
    MinimumOuterPaymentEstimator,
    PaymentEstimate,
    sample_count,
)
from repro.core.pricing import MaximumExpectedRevenuePricer
from repro.errors import ConfigurationError


class TestAcceptanceEstimator:
    def test_invalid_defaults(self):
        with pytest.raises(ConfigurationError):
            AcceptanceEstimator(default_probability=1.5)
        with pytest.raises(ConfigurationError):
            AcceptanceEstimator(mode="weird")

    def test_cold_start_default(self):
        estimator = AcceptanceEstimator(default_probability=0.4)
        assert estimator.probability(5.0, "ghost", 10.0) == 0.4
        assert estimator.probability(0.0, "ghost", 10.0) == 0.0

    def test_eq4_relative(self):
        estimator = AcceptanceEstimator()
        estimator.set_history("w", [0.5, 0.6, 0.8, 0.9])
        # offer rate 0.7 clears two of four history rates
        assert estimator.probability(7.0, "w", 10.0) == 0.5
        assert estimator.probability(10.0, "w", 10.0) == 1.0
        assert estimator.probability(4.0, "w", 10.0) == 0.0

    def test_eq4_absolute(self):
        estimator = AcceptanceEstimator(mode="absolute")
        estimator.set_history("w", [3.0, 6.0])
        assert estimator.probability(4.0, "w", 100.0) == 0.5
        assert estimator.probability(6.0, "w", 1.0) == 1.0

    def test_probability_monotone_in_payment(self):
        estimator = AcceptanceEstimator()
        estimator.set_history("w", [0.2, 0.4, 0.6, 0.8])
        probabilities = [
            estimator.probability(p, "w", 10.0) for p in (1, 3, 5, 7, 9, 10)
        ]
        assert probabilities == sorted(probabilities)

    def test_invalid_request_value(self):
        estimator = AcceptanceEstimator()
        estimator.set_history("w", [0.5])
        with pytest.raises(ConfigurationError):
            estimator.probability(1.0, "w", 0.0)

    def test_record_completion_keeps_sorted(self):
        estimator = AcceptanceEstimator()
        estimator.record_completion("w", 8.0, 10.0)
        estimator.record_completion("w", 2.0, 10.0)
        assert estimator.history_size("w") == 2
        assert estimator.probability(5.0, "w", 10.0) == 0.5

    def test_support(self):
        estimator = AcceptanceEstimator()
        assert estimator.support("w") is None
        estimator.set_history("w", [0.3, 0.7])
        assert estimator.support("w") == (0.3, 0.7)

    def test_has_history(self):
        estimator = AcceptanceEstimator()
        assert not estimator.has_history("w")
        estimator.set_history("w", [0.5])
        assert estimator.has_history("w")

    def test_shared_history_is_copied_on_write(self):
        estimator = AcceptanceEstimator()
        assert not estimator.share_history("clone", "ghost")
        estimator.set_history("w", [0.5, 0.7])
        estimator.record_completion("w", 9.0, 10.0)
        # The clone gets the loaded history, not what "w" has grown to.
        assert estimator.share_history("w@reentry1", "w")
        assert estimator.share_history("w@reentry2", "w@reentry1")
        assert estimator.history_size("w@reentry1") == 2
        estimator.record_completion("w@reentry1", 1.0, 10.0)
        assert estimator.history_size("w") == 3
        assert estimator.history_size("w@reentry1") == 3
        assert estimator.history_size("w@reentry2") == 2
        assert estimator.support("w@reentry2") == (0.5, 0.7)


class TestSampleCount:
    def test_lemma1_formula(self):
        import math

        assert sample_count(0.1, 0.5) == math.ceil(4 * math.log(20) / 0.25)

    def test_invalid_ranges(self):
        with pytest.raises(ConfigurationError):
            sample_count(0.0, 0.5)
        with pytest.raises(ConfigurationError):
            sample_count(0.1, 1.0)

    def test_tighter_knobs_cost_more_samples(self):
        assert sample_count(0.05, 0.3) > sample_count(0.1, 0.5)


class TestMinimumOuterPaymentEstimator:
    def _estimator(self, histories: dict, **kwargs) -> MinimumOuterPaymentEstimator:
        acceptance = AcceptanceEstimator()
        for worker_id, history in histories.items():
            acceptance.set_history(worker_id, history)
        return MinimumOuterPaymentEstimator(acceptance, **kwargs)

    def test_no_candidates_always_rejected(self):
        estimator = self._estimator({})
        result = estimator.estimate(10.0, [], random.Random(0))
        assert result.always_rejected
        assert result.payment > 10.0

    def test_invalid_value_raises(self):
        estimator = self._estimator({"w": [0.5]})
        with pytest.raises(ConfigurationError):
            estimator.estimate(0.0, ["w"], random.Random(0))

    def test_deterministic_cliff(self):
        # History all at rate 0.5: acceptance is a step at half the value.
        estimator = self._estimator({"w": [0.5] * 10})
        result = estimator.estimate(10.0, ["w"], random.Random(1))
        # Bisection brackets the cliff at 5.0 within xi * value.
        assert 5.0 - 1.0 <= result.payment <= 5.0 + 1.0
        assert result.rejected_instances == 0

    def test_estimate_undershoots_cliff(self):
        """The midpoint reading sits at or below the acceptance cliff —
        DemCOM's documented weakness (§III-D)."""
        estimator = self._estimator({"w": [0.5] * 10})
        result = estimator.estimate(10.0, ["w"], random.Random(1))
        assert result.payment <= 5.0

    def test_unreachable_worker_rejects(self):
        # History rates above 1: no payment <= v_r can clear them.
        estimator = self._estimator({"w": [1.5] * 5})
        result = estimator.estimate(10.0, ["w"], random.Random(0))
        assert result.always_rejected

    def test_cheapest_candidate_drives_payment(self):
        cheap_only = self._estimator({"cheap": [0.3] * 20}).estimate(
            10.0, ["cheap"], random.Random(2)
        )
        both = self._estimator(
            {"cheap": [0.3] * 20, "dear": [0.9] * 20}
        ).estimate(10.0, ["cheap", "dear"], random.Random(2))
        assert both.payment <= cheap_only.payment + 1.0

    def test_sample_count_matches_config(self):
        estimator = self._estimator({"w": [0.5]}, xi=0.2, eta=0.7)
        assert estimator.samples == sample_count(0.2, 0.7)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1.0, max_value=50.0), st.integers(0, 2**31))
    def test_payment_positive_and_bounded(self, value, seed):
        estimator = self._estimator({"w": [0.4, 0.6, 0.8]})
        result = estimator.estimate(value, ["w"], random.Random(seed))
        assert 0.0 < result.payment <= value + estimator.epsilon + 1e-9

    def test_deterministic_given_rng(self):
        estimator = self._estimator({"w": [0.4, 0.6, 0.8]})
        a = estimator.estimate(10.0, ["w"], random.Random(9)).payment
        b = estimator.estimate(10.0, ["w"], random.Random(9)).payment
        assert a == b


class TestMaximumExpectedRevenuePricer:
    def _pricer(self, histories: dict, **kwargs) -> MaximumExpectedRevenuePricer:
        acceptance = AcceptanceEstimator()
        for worker_id, history in histories.items():
            acceptance.set_history(worker_id, history)
        return MaximumExpectedRevenuePricer(acceptance, **kwargs)

    def test_invalid_config(self):
        acceptance = AcceptanceEstimator()
        with pytest.raises(ConfigurationError):
            MaximumExpectedRevenuePricer(acceptance, grid_steps=0)
        with pytest.raises(ConfigurationError):
            MaximumExpectedRevenuePricer(acceptance, max_breakpoints=-1)

    def test_no_candidates(self):
        pricer = self._pricer({})
        quote = pricer.quote(10.0, [])
        assert quote.expected_revenue == 0.0
        assert quote.acceptance_probability == 0.0

    def test_invalid_value(self):
        pricer = self._pricer({"w": [0.5]})
        with pytest.raises(ConfigurationError):
            pricer.quote(-1.0, ["w"])

    def test_single_cliff_pays_just_above(self):
        # Step CDF at rate 0.6: optimum is the breakpoint itself.
        pricer = self._pricer({"w": [0.6] * 10})
        quote = pricer.quote(10.0, ["w"])
        assert quote.payment == pytest.approx(6.0)
        assert quote.acceptance_probability == 1.0
        assert quote.expected_revenue == pytest.approx(4.0)

    def test_exactness_from_breakpoints(self):
        # Without breakpoints a coarse grid misses the 0.61 step.
        histories = {"w": [0.61] * 10}
        exact = self._pricer(histories, grid_steps=5).quote(10.0, ["w"])
        coarse = self._pricer(
            histories, grid_steps=5, include_history_breakpoints=False
        ).quote(10.0, ["w"])
        assert exact.expected_revenue >= coarse.expected_revenue
        assert exact.payment == pytest.approx(6.1)

    def test_multiple_workers_any_acceptance(self):
        # Two workers with step CDFs at 0.5 and 0.9: paying 0.5v reaches
        # one worker with probability 1.
        pricer = self._pricer({"a": [0.5] * 10, "b": [0.9] * 10})
        quote = pricer.quote(10.0, ["a", "b"])
        assert quote.payment == pytest.approx(5.0)
        assert quote.acceptance_probability == 1.0

    def test_trade_off_prefers_expected_revenue(self):
        # Worker accepts at 0.2 with prob 0.5 or at 0.8 surely:
        # (10-2)*0.5 = 4.0 > (10-8)*1.0 = 2.0 -> pick the cheap gamble.
        pricer = self._pricer({"w": [0.2] * 5 + [0.8] * 5})
        quote = pricer.quote(10.0, ["w"])
        assert quote.payment == pytest.approx(2.0)
        assert quote.expected_revenue == pytest.approx(4.0)

    def test_breakpoints_relative(self):
        pricer = self._pricer({"w": [0.5, 0.9, 1.2]}, grid_steps=1)
        snapshot = pricer.estimator.snapshot(["w"])
        payments = pricer._candidate_payments(10.0, snapshot)
        # The grid's one point, then the breakpoints; 1.2 exceeds the value.
        assert payments[0] == 10.0
        assert sorted(payments[1:]) == [5.0, 9.0]

    def test_breakpoints_absolute(self):
        acceptance = AcceptanceEstimator(mode="absolute")
        acceptance.set_history("w", [3.0, 12.0])
        pricer = MaximumExpectedRevenuePricer(acceptance, grid_steps=1)
        payments = pricer._candidate_payments(10.0, acceptance.snapshot(["w"]))
        assert payments == [10.0, 3.0]  # 12.0 exceeds the value, dropped

    @pytest.mark.parametrize("path", ["fast", "reference"])
    @pytest.mark.parametrize(
        ("cap", "payments"),
        [(0, [2.5, 5.0, 7.5, 10.0]), (1, [2.5, 5.0, 7.5, 10.0, 2.0])],
    )
    def test_breakpoint_cap_is_checked_before_adding(self, path, cap, payments):
        pricer = self._pricer(
            {"w": [0.2, 0.5, 0.7]}, grid_steps=4, max_breakpoints=cap
        )
        if path == "reference":
            # The test-only seam: the reference evaluation in place of the
            # pruned sweep, on this instance.
            pricer._quote_pruned = pricer._quote_reference
        snapshot = pricer.estimator.snapshot(["w"])
        assert pricer._candidate_payments(10.0, snapshot) == payments
        quote = pricer.quote(10.0, ["w"])
        assert pricer.payments_built == len(payments)
        assert (quote.payment, quote.acceptance_probability) == (5.0, 2 / 3)

    def test_quote_never_exceeds_value(self):
        pricer = self._pricer({"w": [0.4, 1.3]})
        quote = pricer.quote(10.0, ["w"])
        assert 0.0 < quote.payment <= 10.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.05, max_value=1.2), min_size=1, max_size=20),
        st.floats(min_value=1.0, max_value=40.0),
    )
    def test_optimum_dominates_grid(self, history, value):
        """The returned quote is at least as good as every grid candidate."""
        pricer = self._pricer({"w": history})
        quote = pricer.quote(value, ["w"])
        acceptance = pricer.estimator
        for i in range(1, 51):
            payment = value * i / 50
            probability = acceptance.probability(payment, "w", value)
            assert quote.expected_revenue >= (value - payment) * probability - 1e-9


class TestLemma1Accuracy:
    """Empirical check of Lemma 1: with n_s = ceil(4 ln(2/xi) / eta^2)
    instances, the estimate deviates from its expectation by more than a
    xi-fraction with probability below eta."""

    def test_concentration_bound_holds(self):
        import random as random_module

        acceptance = AcceptanceEstimator()
        # Three candidates with soft cliffs around rates 0.6-0.8.
        rng = random_module.Random(0)
        for index, center in enumerate((0.6, 0.7, 0.8)):
            acceptance.set_history(
                f"w{index}",
                [max(0.05, rng.gauss(center, 0.05)) for _ in range(60)],
            )
        xi, eta = 0.1, 0.5
        estimator = MinimumOuterPaymentEstimator(acceptance, xi=xi, eta=eta)
        workers = ["w0", "w1", "w2"]
        value = 10.0

        # Ground truth: the estimator's own expectation, taken over many
        # independent runs (400 * n_s instances in total).
        truth = sum(
            estimator.estimate(value, workers, random_module.Random(1000 + i)).payment
            for i in range(60)
        ) / 60

        violations = 0
        trials = 120
        for trial in range(trials):
            estimate = estimator.estimate(
                value, workers, random_module.Random(trial)
            ).payment
            if estimate - truth > xi * truth:
                violations += 1
        # Lemma 1 guarantees < eta; allow generous sampling slack.
        assert violations / trials < eta

    def test_more_samples_tighter_spread(self):
        import random as random_module
        import statistics

        acceptance = AcceptanceEstimator()
        rng = random_module.Random(3)
        acceptance.set_history(
            "w", [max(0.05, rng.gauss(0.7, 0.08)) for _ in range(60)]
        )

        def spread(xi, eta):
            estimator = MinimumOuterPaymentEstimator(acceptance, xi=xi, eta=eta)
            values = [
                estimator.estimate(10.0, ["w"], random_module.Random(i)).payment
                for i in range(60)
            ]
            return statistics.pstdev(values)

        loose = spread(0.2, 0.7)   # few instances
        tight = spread(0.05, 0.25)  # many instances
        assert tight < loose
