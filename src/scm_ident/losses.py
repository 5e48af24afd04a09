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

from .errors import DomainError, ShapeError

ENTRY_TOLERANCE = 1e-12
DEFAULT_ALPHA = 50


def as_soft_adjacency(values) -> np.ndarray:
    """Validate an m x n real matrix with entries in [0, 1].

    Entries may stray from the interval by at most 1e-12 (they are clipped
    back); anything further is a domain violation. Binary adjacency
    matrices are valid inputs.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"expected a non-empty 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix entries must be finite")
    if arr.min() < -ENTRY_TOLERANCE or arr.max() > 1.0 + ENTRY_TOLERANCE:
        raise DomainError(
            f"matrix entries must lie in [0, 1], found range "
            f"[{arr.min()}, {arr.max()}]"
        )
    return np.clip(arr, 0.0, 1.0)


def _check_alpha(alpha: int) -> int:
    if not isinstance(alpha, (int, np.integer)) or isinstance(alpha, bool):
        raise DomainError(f"alpha must be an integer, got {alpha!r}")
    if alpha < 2 or alpha % 2 != 0:
        # Odd powers would make the loss sign-indefinite: the diagonal
        # agreement term is negative for fractional entries.
        raise DomainError(f"alpha must be an even integer >= 2, got {alpha}")
    return int(alpha)


def _int_power(base: np.ndarray, exponent: int) -> np.ndarray:
    """Elementwise integer power by repeated squaring.

    Bases are normalized agreement ratios in [-1, 1], so no intermediate
    can overflow and large exponents underflow gracefully toward the
    indicator limit.
    """
    result = np.ones_like(base)
    square = base.copy()
    e = exponent
    while e:
        if e & 1:
            result = result * square
        e >>= 1
        if e:
            square = square * square
    return result


def _agreement(matrix, alpha: int) -> tuple[np.ndarray, int, np.ndarray]:
    """The validated matrix, the checked alpha and the column-agreement ratios.

    Entry ``(i, j)`` of the ratios is the agreement sum of latent columns
    ``i`` and ``j`` over the task count, less 1 on the diagonal.
    """
    m_soft = as_soft_adjacency(matrix)
    alpha = _check_alpha(alpha)
    m = m_soft.shape[0]
    comp = 1.0 - m_soft
    agree = m_soft.T @ m_soft + comp.T @ comp
    np.fill_diagonal(agree, agree.diagonal() - m)
    return m_soft, alpha, agree / m


def _split_diagonal(ratios: np.ndarray, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal part of the ratios' ``alpha - 1`` powers."""
    powers = _int_power(ratios, alpha - 1)
    diag = powers.diagonal().copy()
    np.fill_diagonal(powers, 0.0)
    return diag, powers


def uic_loss(matrix, alpha: int = DEFAULT_ALPHA) -> float:
    """Column-agreement penalty.

    ``(1/m**a) * sum_{i,j} (sum_k M[k,i]*M[k,j] + (1-M[k,i])*(1-M[k,j])
    - m*delta_ij)**a`` over all ordered latent pairs; zero exactly when
    the relaxation sees no identical-column structure.
    """
    _, alpha, ratios = _agreement(matrix, alpha)
    return float(_int_power(ratios, alpha).sum())


def uic_loss_grad(matrix, alpha: int = DEFAULT_ALPHA) -> np.ndarray:
    """Exact partial derivatives of :func:`uic_loss` per matrix entry."""
    m_soft, alpha, ratios = _agreement(matrix, alpha)
    diag, off = _split_diagonal(ratios, alpha)
    pair_term = 2.0 * ((2.0 * m_soft - 1.0) @ off)
    diag_term = (4.0 * m_soft - 2.0) * diag[None, :]
    return (alpha / m_soft.shape[0]) * (pair_term + diag_term)


def dis_loss(matrix, alpha: int = DEFAULT_ALPHA) -> float:
    """Row-agreement penalty: :func:`uic_loss` of the transpose.

    ``(1/n**a) * sum_{k,k'} (sum_i M[k,i]*M[k',i] + (1-M[k,i])*(1-M[k',i])
    - n*delta_kk')**a`` over all ordered task pairs; penalizes tasks that
    select identical latent subsets.
    """
    return uic_loss(np.asarray(matrix, dtype=np.float64).T, alpha)


def dis_loss_grad(matrix, alpha: int = DEFAULT_ALPHA) -> np.ndarray:
    """Exact partial derivatives of :func:`dis_loss` per matrix entry."""
    m_soft_t, alpha, ratios = _agreement(np.asarray(matrix, dtype=np.float64).T, alpha)
    m_soft = m_soft_t.T
    diag, off = _split_diagonal(ratios, alpha)
    # its own pair term: the transpose of uic's (2M^T - 1) @ off can
    # differ from off @ (2M - 1) in the last bits
    pair_term = 2.0 * (off @ (2.0 * m_soft - 1.0))
    diag_term = (4.0 * m_soft - 2.0) * diag[:, None]
    return (alpha / m_soft_t.shape[0]) * (pair_term + diag_term)


@dataclass(frozen=True)
class LossConfig:
    """Weights for the combined structure penalty."""

    alpha: int = DEFAULT_ALPHA
    lambda_uic: float = 1.0
    lambda_dis: float = 1.0

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        for name in ("lambda_uic", "lambda_dis"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise DomainError(f"{name} must be a finite non-negative real, got {value}")


def constraint_loss(matrix, config: LossConfig = LossConfig()) -> float:
    """Weighted sum of the column and row agreement penalties."""
    return config.lambda_uic * uic_loss(matrix, config.alpha) + config.lambda_dis * dis_loss(
        matrix, config.alpha
    )


def constraint_loss_grad(matrix, config: LossConfig = LossConfig()) -> np.ndarray:
    """Gradient of :func:`constraint_loss` per matrix entry."""
    return config.lambda_uic * uic_loss_grad(matrix, config.alpha) + config.lambda_dis * (
        dis_loss_grad(matrix, config.alpha)
    )
