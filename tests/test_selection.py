import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scm_ident import (
    DomainError,
    ScmTopology,
    ShapeError,
    build_task_latent_matrix,
    gumbel_softmax_mask,
    sample_hard_mask,
    soft_mask,
    uic_check,
)
from scm_ident.selection import mask_statistics_self_test


class TestSoftMask:
    def test_zero_score_is_half(self):
        for scale in (60.0, 100.0, 199.0):
            assert soft_mask([0.0], scale)[0] == 0.5

    def test_logistic_value(self):
        # logistic(100 * 0.1) = logistic(10)
        assert soft_mask([0.1], 100.0)[0] == pytest.approx(0.9999546021312976, abs=1e-15)

    def test_output_strictly_inside_unit_interval(self):
        out = soft_mask([-100.0, -1.0, 0.0, 1.0, 100.0], 100.0)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=8))
    @settings(max_examples=60)
    def test_monotone_in_each_coordinate(self, scores):
        scores = np.asarray(scores)
        base = soft_mask(scores, 100.0)
        bumped = scores.copy()
        bumped[0] += 0.5
        assert soft_mask(bumped, 100.0)[0] >= base[0]

    def test_larger_scale_sharpens(self):
        low = soft_mask([0.2, -0.2], 60.0)
        high = soft_mask([0.2, -0.2], 180.0)
        assert high[0] >= low[0] and high[1] <= low[1]

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            soft_mask([np.inf], 100.0)


class TestBernoulliMask:
    def test_degenerate_probabilities_exact(self):
        mask = sample_hard_mask([1.0, 0.0], seed=123)
        assert mask.tolist() == [1, 0]

    def test_near_degenerate(self):
        mask = sample_hard_mask([1 - 1e-12, 1e-12], seed=9)
        assert mask.tolist() == [1, 0]

    def test_frequency_grid_within_binomial_bounds(self):
        draws = 100_000
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            freq = sample_hard_mask(np.full(draws, p), seed=17).mean()
            assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / draws)

    def test_same_seed_identical(self):
        probs = np.linspace(0.05, 0.95, 7)
        assert np.array_equal(sample_hard_mask(probs, 5), sample_hard_mask(probs, 5))

    def test_different_seed_differs(self):
        probs = np.full(64, 0.5)
        assert not np.array_equal(sample_hard_mask(probs, 1), sample_hard_mask(probs, 2))

    def test_output_is_binary(self):
        mask = sample_hard_mask(np.linspace(0.01, 0.99, 50), seed=3)
        assert set(np.unique(mask)) <= {0, 1}


class TestGumbelMask:
    def test_reproducible(self):
        probs = np.linspace(0.1, 0.9, 5)
        a = gumbel_softmax_mask(probs, temperature=0.5, seed=21)
        b = gumbel_softmax_mask(probs, temperature=0.5, seed=21)
        assert np.array_equal(a.relaxed, b.relaxed)
        assert np.array_equal(a.hard, b.hard)

    def test_relaxed_in_open_interval(self):
        sample = gumbel_softmax_mask(np.full(1000, 0.5), temperature=0.01, seed=2)
        assert np.all(sample.relaxed > 0.0) and np.all(sample.relaxed < 1.0)
        assert set(np.unique(sample.hard)) <= {0, 1}

    def test_hard_matches_relaxed_argmax(self):
        sample = gumbel_softmax_mask(np.linspace(0.05, 0.95, 2000), temperature=0.7, seed=8)
        assert np.array_equal(sample.hard, (sample.relaxed > 0.5).astype(np.int64))

    def test_cold_temperature_matches_bernoulli_frequencies(self):
        draws = 100_000
        for p in (0.1, 0.5, 0.9):
            probs = np.full(draws, p)
            gumbel_freq = gumbel_softmax_mask(probs, temperature=0.01, seed=33).hard.mean()
            bernoulli_freq = sample_hard_mask(probs, seed=33).mean()
            assert abs(gumbel_freq - bernoulli_freq) <= 0.01

    def test_relaxed_symmetric_at_half(self):
        sample = gumbel_softmax_mask(np.full(100_000, 0.5), temperature=1.0, seed=4)
        assert abs(sample.relaxed.mean() - 0.5) <= 0.01

    def test_self_test_passes(self):
        assert mask_statistics_self_test(seed=0)["ok"]


class TestStacking:
    def test_single_mask(self):
        out = build_task_latent_matrix([[0.2, 0.8]])
        np.testing.assert_array_equal(out, [[0.2, 0.8]])

    def test_stack_then_extract_identity(self):
        masks = [np.array([0.1, 0.9, 0.4]), np.array([0.6, 0.2, 0.8])]
        out = build_task_latent_matrix(masks)
        for row, mask in zip(out, masks):
            np.testing.assert_array_equal(row, mask)

    def test_binary_masks_form_valid_topology(self):
        masks = [sample_hard_mask(np.full(4, 0.5), seed=s) for s in range(3)]
        matrix = build_task_latent_matrix(masks)
        topology = ScmTopology.from_rows(matrix)
        uic_check(topology)  # must accept the input, verdict free

    def test_ragged_masks_rejected(self):
        with pytest.raises(ShapeError):
            build_task_latent_matrix([[0.1], [0.2, 0.3]])
