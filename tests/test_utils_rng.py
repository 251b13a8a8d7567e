"""Tests for the deterministic RNG plumbing."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.utils import rng as rng_module
from repro.utils.rng import SeedSequence, derive_rng, derive_seed, derive_uniform


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")

    def test_label_sensitivity(self):
        assert derive_seed(42, "x") != derive_seed(42, "y")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_64_bit_range(self):
        seed = derive_seed(123456789, "label")
        assert 0 <= seed < 2**64

    @given(st.integers(min_value=0, max_value=2**63), st.text(max_size=40))
    def test_stable_under_repetition(self, seed, label):
        assert derive_seed(seed, label) == derive_seed(seed, label)


class TestDeriveUniform:
    @given(st.integers(min_value=0, max_value=2**63), st.text(max_size=40))
    def test_in_unit_interval_and_stable(self, seed, label):
        u = derive_uniform(seed, label)
        assert 0.0 <= u < 1.0
        assert u == derive_uniform(seed, label)

    def test_top_53_bits_of_the_derived_seed(self):
        assert derive_uniform(7, "x") == (derive_seed(7, "x") >> 11) / 2**53

    def test_extreme_seeds_map_to_the_interval_ends(self, monkeypatch):
        monkeypatch.setattr(rng_module, "derive_seed", lambda seed, label: 0)
        assert derive_uniform(0, "x") == 0.0
        monkeypatch.setattr(
            rng_module, "derive_seed", lambda seed, label: 2**64 - 1
        )
        assert derive_uniform(0, "x") == 1.0 - 2.0**-53 < 1.0


class TestDeriveRng:
    def test_same_stream(self):
        a = derive_rng(7, "workload")
        b = derive_rng(7, "workload")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_independent_streams(self):
        a = derive_rng(7, "one")
        b = derive_rng(7, "two")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class TestSeedSequence:
    def test_child_path_isolation(self):
        root = SeedSequence(9)
        a = root.child("workload").derived_seed("requests")
        b = root.child("behavior").derived_seed("requests")
        assert a != b

    def test_same_path_same_stream(self):
        a = SeedSequence(7).child("w").rng("r")
        b = SeedSequence(7).child("w").rng("r")
        assert a.random() == b.random()

    def test_nested_children(self):
        root = SeedSequence(5)
        deep = root.child("a").child("b").child("c")
        assert deep.path == "a/b/c"

    def test_streams_are_independent(self):
        root = SeedSequence(11)
        streams = list(root.streams("trial", 3))
        values = [rng.random() for rng in streams]
        assert len(set(values)) == 3

    def test_root_label_default(self):
        # No label: falls back to a stable "root" identifier.
        assert SeedSequence(1).derived_seed() == SeedSequence(1).derived_seed()
