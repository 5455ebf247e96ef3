"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.util.rng import make_rng, spawn_rngs


class TestMakeRng:
    def test_same_seed_same_stream(self):
        assert make_rng(7).integers(0, 1000) == make_rng(7).integers(0, 1000)

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 2**62)
        b = make_rng(2).integers(0, 2**62)
        assert a != b

    def test_passthrough_generator(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_independent(self):
        a, b = spawn_rngs(0, 2)
        xs = a.random(100)
        ys = b.random(100)
        assert not np.allclose(xs, ys)

    def test_deterministic_across_calls(self):
        a1, b1 = spawn_rngs(3, 2)
        a2, b2 = spawn_rngs(3, 2)
        assert np.allclose(a1.random(10), a2.random(10))
        assert np.allclose(b1.random(10), b2.random(10))

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(5), 3)
        assert len(children) == 3
        vals = [c.random() for c in children]
        assert len(set(vals)) == 3


class TestDirectDrawIdentity:
    """Cluster tenants draw through numpy's scalar kernels directly.

    ``mean * standard_exponential()`` and ``0.5 + random()`` must equal
    ``exponential(mean)`` and ``uniform(0.5, 1.5)`` draw for draw: numpy
    computes those as the same IEEE operations on the same draws.  A
    numpy release that changes either formula fails here, instead of
    showing up as unexplained drift in the cluster fingerprints.
    """

    MEANS = (0.0125, 0.3, 1.0, 7.5)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_interleaved_like_a_tenant(self, seed):
        for mean in self.MEANS:
            direct, numpy_form = make_rng(seed), make_rng(seed)
            # A tenant draws one interarrival, then per arrival a size
            # and the next interarrival.
            assert mean * direct.standard_exponential() == numpy_form.exponential(mean)
            for _ in range(500):
                assert 0.5 + direct.random() == numpy_form.uniform(0.5, 1.5)
                assert mean * direct.standard_exponential() == numpy_form.exponential(mean)
