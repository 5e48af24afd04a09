import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    OPEN_HIGH,
    OPEN_LOW,
    fresh_stream_bernoulli,
    fresh_stream_gumbel,
    fresh_uniforms,
    two_branch_sigmoid,
)
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
from scm_ident._rng import MASK_BERNOULLI, uniforms
from scm_ident.selection import _sigmoid, mask_statistics_self_test

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
# +-0, subnormals, the overflow edges of exp and the extremes of the range
EDGES = [0.0, -0.0, 5e-324, -5e-324, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308]


def float_vectors(infinities: bool):
    return arrays(
        np.float64,
        st.integers(min_value=1, max_value=40),
        elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=infinities), st.sampled_from(EDGES)
        ),
    )


PROBABILITIES = arrays(
    np.float64,
    st.integers(min_value=1, max_value=40),
    elements=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, OPEN_HIGH])),
)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("soft", [[1.5], [-0.5], [math.nan], [0.5, math.inf]])
    def test_probabilities_outside_the_unit_interval_refused(self, soft):
        with pytest.raises(DomainError, match=r"^probabilities must lie in \[0, 1\]$"):
            sample_hard_mask(soft)


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

    def test_a_tiny_temperature_gives_the_exact_logistic_without_a_warning(self):
        # the logits over 1e-320 pass the float range: +-inf, whose logistic is 1 or 0
        sample = gumbel_softmax_mask(np.linspace(0.05, 0.95, 200), temperature=1e-320, seed=8)
        want = np.where(sample.hard == 1, np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0))
        assert np.array_equal(sample.relaxed, want)

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


class TestSameBitsAsTheReferences:
    """The one-expression logistic and the re-keyed per-thread Philox give
    exactly what the two-branch logistic and a fresh generator give."""

    @pytest.mark.filterwarnings("error")
    @given(float_vectors(infinities=True))
    @settings(max_examples=300, deadline=None)
    def test_sigmoid(self, x):
        assert same_bits(_sigmoid(x), two_branch_sigmoid(x))

    @pytest.mark.filterwarnings("error")
    @given(float_vectors(infinities=False), st.sampled_from([1.0, 100.0, 1e10]))
    @settings(max_examples=150, deadline=None)
    def test_soft_mask(self, scores, scale):
        with np.errstate(over="ignore"):
            expected = np.clip(two_branch_sigmoid(scale * scores), OPEN_LOW, OPEN_HIGH)
        assert same_bits(soft_mask(scores, scale), expected)

    @given(PROBABILITIES, SEEDS)
    @settings(max_examples=150, deadline=None)
    def test_bernoulli(self, probs, seed):
        assert same_bits(sample_hard_mask(probs, seed), fresh_stream_bernoulli(probs, seed))

    @given(PROBABILITIES, st.sampled_from([0.01, 0.5, 1.0, 3.0]), SEEDS)
    @settings(max_examples=150, deadline=None)
    def test_gumbel(self, probs, temperature, seed):
        sample = gumbel_softmax_mask(probs, temperature, seed)
        relaxed, hard = fresh_stream_gumbel(probs, temperature, seed)
        assert same_bits(sample.relaxed, relaxed) and same_bits(sample.hard, hard)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(1, 300), SEEDS),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_interleaved_calls_in_one_thread(self, calls):
        for bernoulli, size, seed in calls:
            probs = np.linspace(0.0, 1.0, size)
            if bernoulli:
                assert same_bits(sample_hard_mask(probs, seed), fresh_stream_bernoulli(probs, seed))
            else:
                sample = gumbel_softmax_mask(probs, 0.5, seed)
                relaxed, hard = fresh_stream_gumbel(probs, 0.5, seed)
                assert same_bits(sample.relaxed, relaxed) and same_bits(sample.hard, hard)

    def test_rekey_after_a_draw_left_the_buffer_and_counter_mid_block(self):
        # Philox makes four words per counter step, so these sizes leave
        # the buffer part used and the counter advanced; the next call
        # must start the stream afresh regardless
        for size in (1, 3, 5, 100_001):
            uniforms(MASK_BERNOULLI, 7, size)
            assert same_bits(uniforms(MASK_BERNOULLI, 7, size), fresh_uniforms(1, 7, size))
        assert same_bits(uniforms(MASK_BERNOULLI, 2**64 - 1, 4), fresh_uniforms(1, 2**64 - 1, 4))

    def test_threads_drawing_at_once_get_the_serial_draws(self):
        jobs = [(np.linspace(0.0, 1.0, 3 + seed % 50), seed) for seed in range(400)]
        serial = [
            (fresh_stream_bernoulli(p, seed), fresh_stream_gumbel(p, 0.5, seed)) for p, seed in jobs
        ]
        results: dict[int, list] = {}
        start = threading.Barrier(4)

        def draw(worker: int) -> None:
            start.wait(timeout=60)
            results[worker] = [
                (sample_hard_mask(p, seed), gumbel_softmax_mask(p, 0.5, seed)) for p, seed in jobs
            ]

        threads = [threading.Thread(target=draw, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between nearly every bytecode
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for worker in range(4):
            for (hard, sample), (ref_hard, (ref_relaxed, ref_gumbel_hard)) in zip(
                results[worker], serial
            ):
                assert same_bits(hard, ref_hard)
                assert same_bits(sample.relaxed, ref_relaxed)
                assert same_bits(sample.hard, ref_gumbel_hard)
