import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from helpers import (
    central_difference,
    naive_dis_loss,
    naive_uic_loss,
    relative_gradient_error,
)
from scm_ident import (
    DomainError,
    LossConfig,
    ScmTopology,
    as_soft_adjacency,
    constraint_loss,
    constraint_loss_grad,
    dis_loss,
    dis_loss_grad,
    uic_check,
    uic_loss,
    uic_loss_grad,
)
from scm_ident.losses import _int_power

soft_matrices = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestSoftAdjacencyValidation:
    def test_binary_matrix_is_valid(self):
        out = as_soft_adjacency([[1, 0], [0, 1]])
        assert out.dtype == np.float64

    def test_tolerance_band_clipped(self):
        out = as_soft_adjacency([[1.0 + 5e-13, -5e-13]])
        assert out.max() <= 1.0 and out.min() >= 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            as_soft_adjacency([[1.1]])
        with pytest.raises(DomainError):
            as_soft_adjacency([[np.nan]])

    def test_odd_alpha_rejected(self):
        with pytest.raises(DomainError):
            uic_loss([[0.5]], alpha=3)
        with pytest.raises(DomainError):
            uic_loss([[0.5]], alpha=0)


class TestUicLossValues:
    def test_complementary_columns_zero(self):
        for alpha in (2, 4, 50):
            assert uic_loss([[1, 0], [0, 1]], alpha) == 0.0

    def test_identical_columns_value(self):
        # two ordered identical-column pairs, each contributing 1
        for alpha in (2, 4, 50):
            value = uic_loss([[1, 1], [0, 0]], alpha)
            assert value == pytest.approx(2.0, abs=1e-12)
            assert value == pytest.approx(naive_uic_loss([[1, 1], [0, 0]], alpha), abs=1e-12)

    def test_half_entry_diagonal_penalty(self):
        # single entry 0.5: diagonal agreement 0.5 - 1 = -0.5, squared
        assert uic_loss([[0.5]], alpha=2) == pytest.approx(0.25, abs=1e-15)
        assert naive_uic_loss([[0.5]], 2) == pytest.approx(0.25, abs=1e-15)

    @given(soft_matrices, st.sampled_from([2, 4, 6]))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_summation(self, matrix, alpha):
        assert uic_loss(matrix, alpha) == pytest.approx(
            naive_uic_loss(matrix, alpha), rel=1e-10, abs=1e-12
        )

    @given(soft_matrices, st.sampled_from([2, 4, 50]))
    @settings(max_examples=80, deadline=None)
    def test_non_negative_for_even_alpha(self, matrix, alpha):
        assert uic_loss(matrix, alpha) >= 0.0
        assert dis_loss(matrix, alpha) >= 0.0

    @given(soft_matrices, st.sampled_from([2, 4]), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_row_and_column_permutation_invariance(self, matrix, alpha, seed):
        rng = np.random.default_rng(abs(seed) % (2**32))
        permuted = matrix[rng.permutation(matrix.shape[0])][:, rng.permutation(matrix.shape[1])]
        assert uic_loss(permuted, alpha) == pytest.approx(uic_loss(matrix, alpha), rel=1e-9, abs=1e-12)
        assert dis_loss(permuted, alpha) == pytest.approx(dis_loss(matrix, alpha), rel=1e-9, abs=1e-12)


class TestDisLossValues:
    def test_complementary_rows_zero(self):
        assert dis_loss([[1, 0], [0, 1]], 4) == 0.0

    def test_identical_rows_value(self):
        assert dis_loss([[1, 0], [1, 0]], 4) == pytest.approx(2.0, abs=1e-12)
        assert naive_dis_loss([[1, 0], [1, 0]], 4) == pytest.approx(2.0, abs=1e-12)

    def test_all_ones_matrix_both_losses(self):
        assert dis_loss([[1, 1], [1, 1]], 4) == pytest.approx(2.0, abs=1e-12)
        assert uic_loss([[1, 1], [1, 1]], 4) == pytest.approx(2.0, abs=1e-12)

    @given(soft_matrices, st.sampled_from([2, 4, 6]))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_summation(self, matrix, alpha):
        assert dis_loss(matrix, alpha) == pytest.approx(
            naive_dis_loss(matrix, alpha), rel=1e-10, abs=1e-12
        )

    @given(soft_matrices, st.sampled_from([2, 4, 50]))
    @settings(max_examples=100, deadline=None)
    def test_duality_with_transposed_column_loss(self, matrix, alpha):
        assert dis_loss(matrix, alpha) == pytest.approx(
            uic_loss(matrix.T, alpha), rel=1e-12, abs=1e-12
        )


def written_out_penalties(matrix, alpha: int):
    """uic, dis and both gradients from the row and column agreement products.

    Column agreement is ``M.T @ M + C.T @ C`` and row agreement
    ``M @ M.T + C @ C.T`` with ``C = 1 - M``; the gradients' pair terms are
    ``(2M - 1) @ off`` and ``off @ (2M - 1)``.
    """
    soft = np.clip(np.asarray(matrix, dtype=np.float64), 0.0, 1.0)
    comp = 1.0 - soft
    m, n = soft.shape
    out = []
    for agree, count in ((soft.T @ soft + comp.T @ comp, m), (soft @ soft.T + comp @ comp.T, n)):
        np.fill_diagonal(agree, agree.diagonal() - count)
        ratios = agree / count
        powers = _int_power(ratios, alpha - 1)
        diag = powers.diagonal().copy()
        off = powers.copy()
        np.fill_diagonal(off, 0.0)
        out.append((float(_int_power(ratios, alpha).sum()), alpha / count, diag, off))
    (uic, uic_scale, uic_diag, uic_off), (dis, dis_scale, dis_diag, dis_off) = out
    uic_grad = uic_scale * (
        2.0 * ((2.0 * soft - 1.0) @ uic_off) + (4.0 * soft - 2.0) * uic_diag[None, :]
    )
    dis_grad = dis_scale * (
        2.0 * (dis_off @ (2.0 * soft - 1.0)) + (4.0 * soft - 2.0) * dis_diag[:, None]
    )
    return uic, dis, uic_grad, dis_grad


def penalty_cases(kind: str, count: int = 40):
    rng = np.random.default_rng(["random", "binary", "fortran", "lists", "row", "column"].index(kind))
    for _ in range(count):
        shape = {"row": (1, rng.integers(1, 10)), "column": (rng.integers(1, 10), 1)}.get(
            kind, tuple(rng.integers(1, 10, size=2))
        )
        matrix = rng.uniform(0.0, 1.0, size=shape)
        if kind == "binary":
            matrix = (matrix > 0.5).astype(np.float64)
        elif kind == "fortran":
            matrix = np.asfortranarray(matrix)
        elif kind == "lists":
            matrix = matrix.tolist()
        yield matrix


class TestPenaltyBits:
    @pytest.mark.parametrize("kind", ["random", "binary", "fortran", "lists", "row", "column"])
    def test_matches_written_out_products_bit_for_bit(self, kind):
        for matrix in penalty_cases(kind):
            for alpha in (2, 4, 50):
                uic, dis, uic_grad, dis_grad = written_out_penalties(matrix, alpha)
                assert np.float64(uic_loss(matrix, alpha)).tobytes() == np.float64(uic).tobytes()
                assert np.float64(dis_loss(matrix, alpha)).tobytes() == np.float64(dis).tobytes()
                assert uic_loss_grad(matrix, alpha).tobytes() == uic_grad.tobytes()
                assert dis_loss_grad(matrix, alpha).tobytes() == dis_grad.tobytes()


class TestGradients:
    def test_half_entry_stationary(self):
        grad = uic_loss_grad([[0.5]], alpha=2)
        assert grad.shape == (1, 1)
        assert grad[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_binary_point_is_finite(self):
        grad = uic_loss_grad([[1, 0, 1], [0, 1, 1]], alpha=4)
        assert np.all(np.isfinite(grad))

    def test_zero_loss_point_is_global_minimum(self):
        # loss is exactly 0 at complementary binary columns, and 0 is the
        # floor, so no feasible direction can decrease it
        matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert dis_loss(matrix, 4) == 0.0
        rng = np.random.default_rng(0)
        for _ in range(50):
            probe = np.clip(matrix + rng.uniform(-0.05, 0.05, matrix.shape), 0, 1)
            assert dis_loss(probe, 4) >= 0.0

    @pytest.mark.parametrize("alpha,tol", [(2, 1e-6), (4, 1e-6), (50, 1e-4)])
    def test_finite_difference_agreement(self, alpha, tol):
        rng = np.random.default_rng(11)
        for _ in range(25):
            matrix = rng.uniform(0.05, 0.95, size=(3, 4))
            numeric = central_difference(lambda m: uic_loss(m, alpha), matrix)
            assert relative_gradient_error(uic_loss_grad(matrix, alpha), numeric) <= tol
            numeric = central_difference(lambda m: dis_loss(m, alpha), matrix)
            assert relative_gradient_error(dis_loss_grad(matrix, alpha), numeric) <= tol

    def test_transposition_symmetry_of_gradients(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            matrix = rng.uniform(0.05, 0.95, size=(rng.integers(1, 5), rng.integers(1, 5)))
            np.testing.assert_allclose(
                dis_loss_grad(matrix, 4),
                uic_loss_grad(matrix.T, 4).T,
                rtol=1e-12,
                atol=1e-14,
            )


class TestLossIndicatorConsistency:
    def test_binary_threshold_reproduces_decider(self):
        from helpers import enumerate_matrices

        for m in range(1, 4):
            for n in range(1, 4):
                for rows in enumerate_matrices(m, n):
                    value = uic_loss(np.asarray(rows, dtype=float), 50)
                    verdict = uic_check(ScmTopology.from_rows(rows))
                    assert (value < 0.5) == verdict

    def test_identifiable_side_bound(self):
        # for all-distinct columns the loss is at most n**2 * ((m-1)/m)**alpha
        matrix = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=float)
        bound = 9 * (2 / 3) ** 50
        assert uic_loss(matrix, 50) <= bound


class TestCombinators:
    def test_zero_weights_zero_loss(self):
        config = LossConfig(alpha=4, lambda_uic=0.0, lambda_dis=0.0)
        assert constraint_loss([[0.3, 0.7]], config) == 0.0

    def test_single_term_linearity(self):
        matrix = [[1, 0], [0, 1]]
        config = LossConfig(alpha=4, lambda_uic=1.0, lambda_dis=0.0)
        assert constraint_loss(matrix, config) == uic_loss(matrix, 4)

    def test_weighted_sum_matches_components(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            matrix = rng.random((3, 4))
            config = LossConfig(alpha=4, lambda_uic=0.3, lambda_dis=0.9)
            expected = 0.3 * uic_loss(matrix, 4) + 0.9 * dis_loss(matrix, 4)
            assert constraint_loss(matrix, config) == pytest.approx(expected, rel=1e-12)

    def test_constraint_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        config = LossConfig(alpha=4, lambda_uic=0.7, lambda_dis=0.2)
        matrix = rng.uniform(0.1, 0.9, size=(2, 3))
        numeric = central_difference(lambda m: constraint_loss(m, config), matrix)
        assert relative_gradient_error(constraint_loss_grad(matrix, config), numeric) <= 1e-6

    def test_config_validation(self):
        with pytest.raises(DomainError):
            LossConfig(alpha=5)
        with pytest.raises(DomainError):
            LossConfig(alpha=4, lambda_uic=-0.1)
