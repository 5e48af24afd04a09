"""Differentiable structure penalties on a soft task-latent matrix.

Both losses relax the exact column/row comparison of the deciders into a
polynomial: pairwise agreement sums are normalized into [-1, 1] and raised
to a large even power ``alpha``, so fully agreeing pairs contribute 1 while
partial agreement decays geometrically toward 0. ``uic_loss`` penalizes
identical latent columns (the identifiability condition), ``dis_loss``
identical task rows (distinct factor selection across tasks); the row
penalty is the column penalty of the transposed matrix.

For a binary matrix the diagonal terms vanish; for fractional entries the
diagonal agreement sum falls below the task count, so even powers also
penalize fractional values toward {0, 1}. That side effect is a measured
property of the relaxation, documented here and pinned by tests.

Gradients are hand-derived from the polynomial and validated against
central finite differences; no autodiff dependency is involved.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, read_array, read_int, read_real

ENTRY_TOLERANCE = 1e-12
DEFAULT_ALPHA = 50


def as_soft_adjacency(values) -> np.ndarray:
    """Validate an m x n real matrix with entries in [0, 1].

    Entries may stray from the interval by at most 1e-12 (they are clipped
    back); anything further is a domain violation. Binary adjacency
    matrices are valid inputs.
    """
    arr = read_array(values, DomainError, "matrix")
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"expected a non-empty 2-d matrix, got shape {arr.shape}")
    # min and max propagate NaN, so both are finite iff every entry is
    low, high = arr.min(), arr.max()
    if not (math.isfinite(low) and math.isfinite(high)):
        raise DomainError("matrix entries must be finite")
    if low < -ENTRY_TOLERANCE or high > 1.0 + ENTRY_TOLERANCE:
        raise DomainError(f"matrix entries must lie in [0, 1], found range [{low}, {high}]")
    return arr.clip(0.0, 1.0)


def _check_alpha(alpha: int) -> int:
    alpha = read_int(alpha, DomainError, "alpha")
    if alpha.bit_length() > 1023:
        # the gradient's scale alpha / m would not be a float
        raise DomainError(f"alpha must be below 2**1023, got {alpha.bit_length()} bits")
    if alpha < 2 or alpha % 2 != 0:
        # Odd powers would make the loss sign-indefinite: the diagonal
        # agreement term is negative for fractional entries.
        raise DomainError(f"alpha must be an even integer >= 2, got {alpha}")
    return alpha


def _finite(compute, what: str):
    """``compute()``, raising :class:`DomainError` if it overflows the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = compute()
    if not np.isfinite(value).all():
        raise DomainError(f"{what} overflows the float range")
    return value


def _int_power(base: np.ndarray, exponent: int) -> np.ndarray:
    """Elementwise integer power by repeated squaring.

    Bases are normalized agreement ratios in [-1, 1], so no intermediate
    can overflow and large exponents underflow gracefully toward the
    indicator limit. The first factor is taken as it is (1 * x is x
    exactly), so an exponent of 1 returns ``base`` itself.
    """
    result = None
    square = base
    while True:
        if exponent & 1:
            result = square if result is None else result * square
        exponent >>= 1
        if not exponent:
            return result
        square = square * square


def _ratios(m_soft: np.ndarray) -> np.ndarray:
    """Column-agreement ratios of a validated matrix.

    Entry ``(i, j)`` is the agreement sum of latent columns ``i`` and
    ``j`` over the task count, less 1 on the diagonal.
    """
    m = m_soft.shape[0]
    comp = 1.0 - m_soft
    agree = m_soft.T @ m_soft + comp.T @ comp
    np.fill_diagonal(agree, agree.diagonal() - m)
    return agree / m


def _split_diagonal(ratios: np.ndarray, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal part of the ratios' ``alpha - 1`` powers."""
    powers = _int_power(ratios, alpha - 1)
    diag = powers.diagonal().copy()
    np.fill_diagonal(powers, 0.0)
    return diag, powers


def _uic_value(m_soft: np.ndarray, alpha: int) -> float:
    return float(_int_power(_ratios(m_soft), alpha).sum())


def _uic_grad(m_soft: np.ndarray, alpha: int) -> np.ndarray:
    diag, off = _split_diagonal(_ratios(m_soft), alpha)
    pair_term = 2.0 * ((2.0 * m_soft - 1.0) @ off)
    diag_term = (4.0 * m_soft - 2.0) * diag[None, :]
    return (alpha / m_soft.shape[0]) * (pair_term + diag_term)


def _dis_grad(m_soft: np.ndarray, alpha: int) -> np.ndarray:
    m_soft_t = m_soft.T
    diag, off = _split_diagonal(_ratios(m_soft_t), alpha)
    # its own pair term: the transpose of uic's (2M^T - 1) @ off can
    # differ from off @ (2M - 1) in the last bits
    pair_term = 2.0 * (off @ (2.0 * m_soft - 1.0))
    diag_term = (4.0 * m_soft - 2.0) * diag[:, None]
    return (alpha / m_soft_t.shape[0]) * (pair_term + diag_term)


def uic_loss(matrix, alpha: int = DEFAULT_ALPHA) -> float:
    """Column-agreement penalty.

    ``(1/m**a) * sum_{i,j} (sum_k M[k,i]*M[k,j] + (1-M[k,i])*(1-M[k,j])
    - m*delta_ij)**a`` over all ordered latent pairs; zero exactly when
    the relaxation sees no identical-column structure.
    """
    m_soft = as_soft_adjacency(matrix)
    return _uic_value(m_soft, _check_alpha(alpha))


def uic_loss_grad(matrix, alpha: int = DEFAULT_ALPHA) -> np.ndarray:
    """Exact partial derivatives of :func:`uic_loss` per matrix entry."""
    m_soft, alpha = as_soft_adjacency(matrix), _check_alpha(alpha)
    return _finite(lambda: _uic_grad(m_soft, alpha), "the uic gradient")


def dis_loss(matrix, alpha: int = DEFAULT_ALPHA) -> float:
    """Row-agreement penalty: :func:`uic_loss` of the transpose.

    ``(1/n**a) * sum_{k,k'} (sum_i M[k,i]*M[k',i] + (1-M[k,i])*(1-M[k',i])
    - n*delta_kk')**a`` over all ordered task pairs; penalizes tasks that
    select identical latent subsets.
    """
    return uic_loss(read_array(matrix, DomainError, "matrix").T, alpha)


def dis_loss_grad(matrix, alpha: int = DEFAULT_ALPHA) -> np.ndarray:
    """Exact partial derivatives of :func:`dis_loss` per matrix entry."""
    m_soft_t = as_soft_adjacency(read_array(matrix, DomainError, "matrix").T)
    alpha = _check_alpha(alpha)
    return _finite(lambda: _dis_grad(m_soft_t.T, alpha), "the dis gradient")


@dataclass(frozen=True)
class LossConfig:
    """Weights for the combined structure penalty."""

    alpha: int = DEFAULT_ALPHA
    lambda_uic: float = 1.0
    lambda_dis: float = 1.0

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        for name in ("lambda_uic", "lambda_dis"):
            value = read_real(getattr(self, name), DomainError, name)
            if value < 0:
                raise DomainError(f"{name} must be a finite non-negative real, got {value}")


def constraint_loss(matrix, config: LossConfig = LossConfig()) -> float:
    """Weighted sum of the column and row agreement penalties.

    The matrix is validated once; the row penalty is the column penalty
    of its transpose, as in :func:`dis_loss`. A sum beyond the float range
    raises :class:`DomainError`.
    """
    m_soft, alpha = as_soft_adjacency(matrix), _check_alpha(config.alpha)
    lam_uic, lam_dis = config.lambda_uic, config.lambda_dis
    return _finite(
        lambda: lam_uic * _uic_value(m_soft, alpha) + lam_dis * _uic_value(m_soft.T, alpha),
        "the weighted penalty",
    )


def constraint_loss_grad(matrix, config: LossConfig = LossConfig()) -> np.ndarray:
    """Gradient of :func:`constraint_loss` per matrix entry."""
    m_soft, alpha = as_soft_adjacency(matrix), _check_alpha(config.alpha)
    lam_uic, lam_dis = config.lambda_uic, config.lambda_dis
    return _finite(
        lambda: lam_uic * _uic_grad(m_soft, alpha) + lam_dis * _dis_grad(m_soft, alpha),
        "the weighted gradient",
    )
