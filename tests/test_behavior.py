"""Tests for reservation distributions and the behaviour oracle."""

from __future__ import annotations

import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.behavior import (
    BehaviorOracle,
    EmpiricalDistribution,
    UniformDistribution,
    WorkerBehavior,
)
from repro.errors import ConfigurationError
from repro.utils.rng import derive_uniform

probabilities = st.floats(min_value=0.001, max_value=0.999)

#: The largest uniform a reservation draw can see.
LARGEST_UNIFORM = 1.0 - 2.0**-53


class TestUniformDistribution:
    def test_cdf_endpoints(self):
        dist = UniformDistribution(2.0, 4.0)
        assert dist.cdf(1.9) == 0.0
        assert dist.cdf(3.0) == 0.5
        assert dist.cdf(4.1) == 1.0

    def test_degenerate(self):
        dist = UniformDistribution(3.0, 3.0)
        assert dist.cdf(3.0) == 1.0
        assert dist.cdf(2.999) == 0.0
        assert dist.quantile(0.0) == dist.quantile(LARGEST_UNIFORM) == 3.0

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformDistribution(4.0, 2.0)
        with pytest.raises(ConfigurationError):
            UniformDistribution(-1.0, 2.0)

    def test_mean(self):
        assert UniformDistribution(2.0, 4.0).mean() == 3.0

    @given(probabilities)
    def test_quantile_inverts_cdf(self, q):
        dist = UniformDistribution(1.0, 9.0)
        assert dist.cdf(dist.quantile(q)) == pytest.approx(q, abs=1e-9)

    def test_samples_in_support(self):
        dist = UniformDistribution(2.0, 4.0)
        rng = random.Random(7)
        assert all(2.0 <= dist.quantile(rng.random()) <= 4.0 for _ in range(100))


class TestEmpiricalDistribution:
    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            EmpiricalDistribution([])

    def test_negative_raises(self):
        with pytest.raises(ConfigurationError):
            EmpiricalDistribution([1.0, -0.5])

    def test_nan_raises(self):
        # A NaN would leave the sorted sample unsorted, and its first and
        # last entries would no longer bound the draws.
        with pytest.raises(ConfigurationError):
            EmpiricalDistribution([0.5, math.nan, 0.1])

    def test_cdf_is_step_function(self):
        dist = EmpiricalDistribution([1.0, 2.0, 2.0, 4.0])
        assert dist.cdf(0.5) == 0.0
        assert dist.cdf(1.0) == 0.25
        assert dist.cdf(2.0) == 0.75
        assert dist.cdf(4.0) == 1.0

    def test_sample_from_support(self):
        values = [1.0, 3.0, 5.0]
        dist = EmpiricalDistribution(values)
        rng = random.Random(0)
        assert all(dist.quantile(rng.random()) in values for _ in range(50))
        assert dist.quantile(LARGEST_UNIFORM) == 5.0

    def test_mean(self):
        assert EmpiricalDistribution([1.0, 3.0]).mean() == 2.0

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_cdf_monotone(self, values):
        dist = EmpiricalDistribution(values)
        grid = sorted(values)
        cdfs = [dist.cdf(v) for v in grid]
        assert cdfs == sorted(cdfs)
        assert cdfs[-1] == 1.0


class TestBehaviorOracle:
    def _oracle(self, mode: str = "relative") -> BehaviorOracle:
        oracle = BehaviorOracle(seed=5, mode=mode)
        oracle.register(
            WorkerBehavior("w1", UniformDistribution(0.4, 0.8), [0.5, 0.6])
        )
        return oracle

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            BehaviorOracle(seed=0, mode="nonsense")

    def test_duplicate_registration_raises(self):
        oracle = self._oracle()
        with pytest.raises(ConfigurationError):
            oracle.register(WorkerBehavior("w1", UniformDistribution(0, 1), []))

    def test_reservation_deterministic(self):
        oracle = self._oracle()
        assert oracle.reservation("w1", "r1") == oracle.reservation("w1", "r1")

    def test_reservation_varies_by_request(self):
        oracle = self._oracle()
        draws = {oracle.reservation("w1", f"r{i}") for i in range(20)}
        assert len(draws) > 1

    def test_reentry_clone_shares_draw(self):
        oracle = self._oracle()
        base = oracle.reservation("w1", "r9")
        assert oracle.reservation("w1@reentry1", "r9") == base
        assert oracle.reservation("w1@reentry3", "r9") == base

    def test_offer_relative_mode(self):
        oracle = self._oracle()
        rate = oracle.reservation("w1", "r1")
        value = 10.0
        assert oracle.offer("w1", "r1", rate * value, value)
        assert not oracle.offer("w1", "r1", rate * value - 0.01, value)

    def test_offer_absolute_mode(self):
        oracle = BehaviorOracle(seed=5, mode="absolute")
        oracle.register(WorkerBehavior("w1", UniformDistribution(3.0, 3.0), [3.0]))
        assert oracle.offer("w1", "r1", 3.0, 100.0)
        assert not oracle.offer("w1", "r1", 2.99, 100.0)

    def test_reservation_price_scales_with_value(self):
        oracle = self._oracle()
        small = oracle.reservation_price("w1", "r1", 10.0)
        large = oracle.reservation_price("w1", "r1", 20.0)
        assert large == pytest.approx(2 * small)

    def test_history_of(self):
        oracle = self._oracle()
        assert oracle.history_of("w1") == [0.5, 0.6]
        assert oracle.history_of("w1@reentry2") == [0.5, 0.6]

    def test_contains_and_len(self):
        oracle = self._oracle()
        assert "w1" in oracle
        assert "w2" not in oracle
        assert len(oracle) == 1


class TestReservationDrawing:
    """Each draw is the quantile of one hashed uniform of (seed, base
    worker, request)."""

    def _oracle(self, dist) -> BehaviorOracle:
        oracle = BehaviorOracle(seed=11)
        oracle.register(WorkerBehavior("w", dist, []))
        return oracle

    def test_draw_is_the_quantile_of_the_hashed_uniform(self):
        dist = UniformDistribution(0.2, 0.9)
        u = derive_uniform(11, "reservation/w/r3")
        assert self._oracle(dist).reservation("w@reentry2", "r3") == dist.quantile(u)

    def test_draws_are_pure_and_skipping_one_changes_no_other(self):
        dist = EmpiricalDistribution([i / 10 for i in range(10)])
        every = self._oracle(dist)
        all_draws = [every.reservation("w", f"r{i}") for i in range(40)]
        sparse = self._oracle(dist)
        # Odd requests only, newest first: nothing is consumed in between.
        for i in reversed(range(1, 40, 2)):
            assert sparse.reservation("w", f"r{i}") == all_draws[i]
        assert [every.reservation("w", f"r{i}") for i in range(40)] == all_draws

    def test_largest_uniform_draws_the_top_member(self, monkeypatch):
        from repro.behavior import worker_model

        monkeypatch.setattr(
            worker_model, "derive_uniform", lambda seed, label: LARGEST_UNIFORM
        )
        values = [i / 50 for i in range(1, 51)]
        assert self._oracle(EmpiricalDistribution(values)).reservation("w", "r") == 1.0
        uniform = self._oracle(UniformDistribution(0.3, 0.6))
        assert 0.3 <= uniform.reservation("w", "r") <= 0.6

    def test_members_of_a_50_value_distribution_are_drawn_evenly(self):
        values = [round(0.3 + 0.01 * i, 2) for i in range(50)]
        oracle = self._oracle(EmpiricalDistribution(values))
        draws = 20_000
        counts = dict.fromkeys(values, 0)
        for i in range(draws):
            counts[oracle.reservation("w", i)] += 1
        # Binomial(draws, 1/50): mean 400, standard deviation about 19.8;
        # five deviations bound every fair member with overwhelming odds.
        p = 1 / len(values)
        spread = 5 * math.sqrt(draws * p * (1 - p))
        assert all(abs(count - draws * p) <= spread for count in counts.values())


distributions = st.one_of(
    st.lists(
        st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=30
    ).map(EmpiricalDistribution),
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    ).map(lambda pair: UniformDistribution(min(pair), max(pair))),
)


class TestDrawBounds:
    @settings(max_examples=40, deadline=None)
    @given(distributions, st.integers(min_value=0, max_value=2**32))
    def test_every_sample_lies_in_the_bounds(self, dist, seed):
        low, high = dist.draw_bounds()
        rng = random.Random(seed)
        uniforms = [0.0, LARGEST_UNIFORM] + [rng.random() for _ in range(1000)]
        assert all(low <= dist.quantile(u) <= high for u in uniforms)

    def test_declared_bounds(self):
        assert EmpiricalDistribution([0.7, 0.2, 0.5]).draw_bounds() == (0.2, 0.7)
        # low + q * (high - low) may round past high, so only low is
        # declared.
        assert UniformDistribution(0.3, 0.6).draw_bounds() == (0.3, math.inf)

    def test_parameters_that_would_draw_nan_raise(self):
        with pytest.raises(ConfigurationError):
            UniformDistribution(0.0, math.inf)


def _boundary_payments(oracle, dist, worker_id, request_id, value):
    """Payments at and next to every threshold ``offer`` compares with:
    both draw bounds and the realized draw, each minus the tolerance."""
    low, high = dist.draw_bounds()
    draw = oracle.reservation(worker_id, request_id)
    scale = value if oracle.mode == "relative" else 1.0
    payments = []
    for threshold in (low * scale, high * scale, draw * scale):
        edge = threshold - 1e-12
        payments += [
            threshold,
            edge,
            math.nextafter(edge, -math.inf),
            math.nextafter(edge, math.inf),
        ]
    return payments


class TestDrawFreeOffers:
    """``offer`` settles out-of-support payments without drawing; its
    answer must equal the drawing expression it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        mode=st.sampled_from(["relative", "absolute"]),
        dist=distributions,
        worker_id=st.sampled_from(["w", "w@reentry1", "w@reentry12"]),
        request_id=st.one_of(st.text(max_size=6), st.integers()),
        value=st.one_of(
            st.floats(min_value=1e-3, max_value=1e4),
            st.sampled_from([0.0, -3.0, 5e-324, 1e308, math.inf]),
        ),
        payments=st.lists(
            st.floats(allow_nan=False, min_value=-10.0, max_value=1e5),
            max_size=5,
        ),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_offer_equals_the_drawing_expression(
        self, mode, dist, worker_id, request_id, value, payments, seed
    ):
        oracle = BehaviorOracle(seed=seed, mode=mode)
        oracle.register(WorkerBehavior("w", dist, []))
        payments = payments + _boundary_payments(
            oracle, dist, worker_id, request_id, value
        ) + [math.inf, -math.inf]
        for payment in payments:
            expected = payment >= oracle.reservation_price(
                worker_id, request_id, value
            ) - 1e-12
            assert oracle.offer(worker_id, request_id, payment, value) is expected

    def test_out_of_support_offers_skip_the_draw(self, monkeypatch):
        from repro.behavior import worker_model

        labels = []
        real = worker_model.derive_uniform

        def counting(seed, label):
            labels.append(label)
            return real(seed, label)

        monkeypatch.setattr(worker_model, "derive_uniform", counting)
        oracle = BehaviorOracle(seed=3)
        oracle.register(
            WorkerBehavior("w", EmpiricalDistribution([0.4, 0.6]), [0.4, 0.6])
        )
        assert not oracle.offer("w@reentry2", "r", 3.9, 10.0)
        assert oracle.offer("w", "r", 6.0, 10.0)
        assert labels == []
        oracle.offer("w@reentry2", "r", 5.0, 10.0)
        assert labels == ["reservation/w/r"]

    @settings(max_examples=100, deadline=None)
    @given(
        mode=st.sampled_from(["relative", "absolute"]),
        dist=distributions,
        generation=st.integers(min_value=1, max_value=40),
        request_id=st.one_of(st.text(max_size=6), st.integers()),
        value=st.floats(min_value=1e-3, max_value=1e4),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_clone_offers_answer_and_draw_as_the_base(
        self, mode, dist, generation, request_id, value, seed
    ):
        from repro.behavior import worker_model

        oracle = BehaviorOracle(seed=seed, mode=mode)
        oracle.register(WorkerBehavior("w", dist, []))
        state = pickle.dumps(oracle)
        clone = f"w@reentry{generation}"
        payments = _boundary_payments(oracle, dist, "w", request_id, value)
        labels = []
        real = worker_model.derive_uniform

        def recording(seed, label):
            labels.append(label)
            return real(seed, label)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(worker_model, "derive_uniform", recording)
            for payment in payments + [0.0, math.inf, -math.inf]:
                base = oracle.offer("w", request_id, payment, value)
                base_labels, labels[:] = labels[:], []
                assert oracle.offer(clone, request_id, payment, value) is base
                assert labels == base_labels
                assert set(labels) <= {f"reservation/w/{request_id}"}
                labels.clear()
        # Offers to clones leave nothing behind on the oracle.
        assert pickle.dumps(oracle) == state

    def test_unregistered_worker_raises(self):
        oracle = BehaviorOracle(seed=0)
        with pytest.raises(ConfigurationError):
            oracle.offer("ghost", "r1", 5.0, 10.0)
        with pytest.raises(ConfigurationError):
            oracle.offer("ghost@reentry1", "r1", 5.0, 10.0)
