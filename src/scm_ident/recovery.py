"""Latent recovery from multi-environment observations.

For linear-Gaussian data the per-environment means and covariances of the
joint observable vector are sufficient statistics, so fitting a model by
matching those moments is likelihood-equivalent at the population level.
The residuals are smooth in the parameters with a closed-form Jacobian, so
the fit is a damped Gauss-Newton (Levenberg-Marquardt) least-squares
solve. The fitted model is inverted to estimate latents, which are then
aligned to the ground truth by the permutation maximizing the mean
absolute Pearson correlation — for scalar Gaussian latents perfect
recovery up to an affine map per latent is exactly |correlation| = 1.

The contrast experiment runs the same pipeline on a topology whose latent
columns are all distinct and on one with a colliding pair: the collider
admits a continuum of equally good models mixing the pair, which shows up
as depressed correlations and seed-to-seed alignment instability.
"""

import itertools
import math
import statistics
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._parallel import parallel_map
from ._rng import FIT_INIT, check_seed, stream
from .dgp import DgpSpec, SyntheticDataset, generate_dataset, singular_ratio, singular_ratios
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateError,
    DomainError,
    ShapeError,
    SingularModelError,
)
from .errors import read_array, read_block, read_int, read_real, read_task_blocks
from .ident import uic_check, uic_violations
from .topology import ScmTopology

MAX_FIT_LATENTS = 8
MAX_RESTARTS = 1000  # each restart draws its own start, so the count bounds the fit's work
# a run of kept steps ends only here: 5x the default, and about 40x the
# longest restart (236 steps) of the default experiment
MAX_ITERS = 10_000
SINGULAR_RATIO = 1e-8
VARIANCE_FLOOR = 1e-8
# Marquardt's damping: its start, and its change after an accepted or a rejected step
INITIAL_DAMPING = 1e-3
DAMPING_DOWN = 3.0
DAMPING_UP = 4.0
# bytes of latents and x one experiment job keeps until its batch is fitted
# (10 seeds of 3 x 20,000 two-latent rows take 19.2 MB). A worker's peak RSS
# grows by 1.31 bytes per kept byte, so the budget lets a job at most double
# the 38.5 MB peak of a worker fitting one such seed
ARM_JOB_BYTES = 29 * 10**6


@dataclass(frozen=True)
class FitConfig:
    """Levenberg-Marquardt settings.

    Each iteration solves the damped normal equations of the moment
    residuals once and tries the step; the objective must strictly
    decrease for the step to be kept. A restart stops at the first of:
    ``grad_tol`` (the objective gradient's largest entry is below it),
    ``min_step`` (the step's largest entry is below it; a run of rejected
    steps shrinks the step geometrically until it is) and ``max_iters``
    (tried steps, accepted or not; at most :data:`MAX_ITERS`), the only
    bound on a run of kept steps. ``seed`` is kept as a Python int.
    """

    restarts: int = 8
    max_iters: int = 2000
    min_step: float = 1e-10
    grad_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("restarts", "max_iters"):
            read_int(getattr(self, name), ConfigError, name)
        for name in ("min_step", "grad_tol"):
            read_real(getattr(self, name), ConfigError, name)
        if self.restarts < 1 or self.max_iters < 1:
            raise ConfigError("restarts and max_iters must be positive")
        if self.restarts > MAX_RESTARTS:
            raise ConfigError(f"restarts must be at most {MAX_RESTARTS}, got {self.restarts}")
        if self.max_iters > MAX_ITERS:
            raise ConfigError(f"max_iters must be at most {MAX_ITERS}, got {self.max_iters}")
        if not (self.min_step > 0 and self.grad_tol > 0):
            raise ConfigError("step sizes and tolerances must be positive")
        object.__setattr__(self, "seed", check_seed(self.seed))  # an int, so seed + d never wraps


@dataclass
class UnmixModel:
    """Estimated generator: forward mixing map plus per-env latent moments.

    Latents are recovered by inverting ``mixing`` on the source
    observables; the per-task maps, each acting on its task's parents in
    the fitted topology, are carried so model moments can be reproduced.
    """

    mixing: np.ndarray
    env_means: np.ndarray
    env_variances: np.ndarray
    task_maps: tuple[np.ndarray, ...]

    def singular_ratio(self) -> float:
        return singular_ratio(self.mixing)


@dataclass
class RestartResult:
    """One restart's final model and objective.

    ``iterations`` counts the steps it tried. ``stop_reason`` says why it
    ended: ``grad_tol`` (the gradient's largest entry fell below
    ``grad_tol``), ``min_step`` (the next step's largest entry fell below
    ``min_step``) or ``max_iters`` (``max_iters`` steps tried).
    """

    objective: float
    iterations: int
    model: UnmixModel
    stop_reason: str


@dataclass
class FitResult:
    model: UnmixModel
    objective: float
    restarts: list[RestartResult]


@dataclass(frozen=True)
class _Moments:
    """One dataset's per-environment empirical moments of the joint observable vector."""

    means: np.ndarray  # (envs, q)
    covariances: np.ndarray  # (envs, q, q), each divided by its environment's rows
    sizes: np.ndarray  # (envs,): each environment's row count


def _environment_rows(dataset: SyntheticDataset) -> tuple[np.ndarray, np.ndarray]:
    """Rows in environment order and each environment's row count.

    Every environment needs 2 rows. The first short one is the first id
    missing from the runs or the first run of one row, found without
    sizing anything by the environment count, which a loaded CSV takes
    from its largest id.
    """
    order, present, sizes = dataset.env_runs()
    gaps = np.flatnonzero(present != np.arange(present.size))
    missing = int(gaps[0]) if gaps.size else present.size
    single = present[sizes < 2]
    if single.size and single[0] < missing:
        raise DataError(f"environment {single[0]} needs at least 2 samples, has 1")
    if missing < dataset.num_environments:
        raise DataError(f"environment {missing} needs at least 2 samples, has 0")
    return order, sizes


def _empirical_moments(dataset: SyntheticDataset) -> _Moments:
    """Each environment's moments of ``[x, *y]``, its rows centred on its own mean.

    The columns are gathered in environment order into one column-major
    buffer and centred in place there; every temporary is one column long.
    """
    order, sizes = _environment_rows(dataset)
    blocks = [dataset.x, *dataset.y]
    columns = np.empty((sum(block.shape[1] for block in blocks), order.size))
    for j, column in enumerate(c for block in blocks for c in block.T):
        # mode="clip" writes straight into ``out``; the indices are in range
        np.take(column, order, out=columns[j], mode="clip")
    starts = np.cumsum(sizes) - sizes
    means = np.add.reduceat(columns, starts, axis=1) / sizes
    width = columns.shape[0]
    for j in range(width):
        columns[j] -= np.repeat(means[j], sizes)
    covariances = np.empty((sizes.size, width, width))
    for i in range(width):
        for j in range(i + 1):
            products = np.add.reduceat(columns[i] * columns[j], starts) / sizes
            covariances[:, i, j] = covariances[:, j, i] = products
    return _Moments(np.ascontiguousarray(means.T), covariances, sizes)


def _check_dataset(dataset: SyntheticDataset, topology: ScmTopology) -> None:
    n = topology.num_latents
    if n > MAX_FIT_LATENTS:
        raise CapacityError(f"fit supports at most {MAX_FIT_LATENTS} latents, got {n}")
    if dataset.x.shape[1] != n:
        raise DataError(
            f"dataset has {dataset.x.shape[1]} source columns, topology expects {n}"
        )
    # a task without parents adds no columns, so the CSV form drops its
    # block when no later task has parents
    parents = topology.parent_indices()
    if len(dataset.y) > len(parents) or any(parents[len(dataset.y) :]):
        raise DataError(
            f"dataset has {len(dataset.y)} task blocks, topology expects {topology.num_tasks}"
        )
    for k, block in enumerate(dataset.y):
        if block.shape[1] != len(parents[k]):
            raise DataError(
                f"task {k} block has width {block.shape[1]}, expected {len(parents[k])}"
            )


def _check_init(init: UnmixModel, topology: ScmTopology, num_environments: int) -> UnmixModel:
    """``init`` with every block read as a float64 array of its shape and finite."""
    # a NaN objective would win the choice between restarts
    n, widths = topology.num_latents, [len(p) for p in topology.parent_indices()]
    return UnmixModel(
        read_block(init.mixing, (n, n), DomainError, "init F"),
        read_block(init.env_means, (num_environments, n), DomainError, "init means"),
        read_block(init.env_variances, (num_environments, n), DomainError, "init variances"),
        read_task_blocks(init.task_maps, [(p, p) for p in widths], DomainError, "init B"),
    )


@dataclass(frozen=True)
class _Layout:
    """Where one model's parameters sit in a row of a flat batch.

    A row holds the joint map (q x n: F on top, then each task's rows,
    zero outside the task's parents), then the per-environment latent
    means and the variances (envs x n each).
    """

    num_latents: int
    num_environments: int
    parent_indices: tuple[tuple[int, ...], ...]

    @cached_property
    def blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``np.ix_`` index in the joint map of F, then of each task's map."""
        n = self.num_latents
        blocks, row = [np.ix_(range(n), range(n))], n
        for parents in self.parent_indices:
            blocks.append(np.ix_(range(row, row + len(parents)), parents))
            row += len(parents)
        return tuple(blocks)

    @cached_property
    def joint_rows(self) -> int:
        return self.num_latents + sum(len(p) for p in self.parent_indices)

    @cached_property
    def sides(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The square blocks of each nonzero side as one stacked row and column index.

        Indexing a batch's joint maps with a side's pair gives its blocks
        as (restarts, blocks, side, side), in ``blocks`` order.
        """
        groups: dict[int, list] = {}
        for rows, cols in self.blocks:
            if rows.size:
                groups.setdefault(rows.size, []).append((rows, cols))
        return tuple(
            (np.stack([rows for rows, _ in group]), np.stack([cols for _, cols in group]))
            for group in groups.values()
        )

    @cached_property
    def map_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column in the joint map of each entry not held at zero, row by row."""
        moved = np.zeros((self.joint_rows, self.num_latents), dtype=bool)
        for index in self.blocks:
            moved[index] = True
        return np.nonzero(moved)

    @cached_property
    def free(self) -> np.ndarray:
        """Positions in a parameter row of the entries the fit moves, in the order it solves them.

        The joint-map entries of ``map_entries``, then the means, then the
        variances, each latent by latent and, within a latent, environment
        by environment.
        """
        (a, b), n, envs = self.map_entries, self.num_latents, self.num_environments
        moments = np.arange(2 * envs * n).reshape(2, envs, n).swapaxes(1, 2)
        return np.concatenate([a * n + b, self.joint_rows * n + moments.ravel()])

    @cached_property
    def map_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For free entries (a, b) and (a', b'): [a = a'], b·n + b' and (a·n + b')·q·n + a'·n + b.

        Flat indices into an (n, n) and a (q·n, q·n) matrix, for the
        map-with-map block of ``_normal_equations``.
        """
        a, b = self.map_entries
        n, width = self.num_latents, self.joint_rows * self.num_latents
        same_row = a[:, None] == a
        crossed = (a[:, None] * n + b) * width + a * n + b[:, None]
        return same_row, b[:, None] * n + b, crossed


class _Batch:
    """Models of several restarts, one flat parameter row each, and the moments each fits.

    ``stacked`` (restarts, q, n), ``means`` and ``variances``
    (restarts, envs, n) are views of the rows; see ``_Layout``. Row r's
    model is fitted to ``empirical_means[r]`` (envs, q) and
    ``empirical_covariances[r]`` (envs, q, q), so one batch can fit
    several datasets of one layout.
    """

    def __init__(
        self,
        layout: _Layout,
        params: np.ndarray,
        empirical_means: np.ndarray,
        empirical_covariances: np.ndarray,
    ):
        self.layout = layout
        self.params = params
        self.empirical_means = empirical_means
        self.empirical_covariances = empirical_covariances
        q, n, envs = layout.joint_rows, layout.num_latents, layout.num_environments
        restarts = params.shape[0]
        self.stacked = params[:, : q * n].reshape(restarts, q, n)
        self.means = params[:, q * n : (q + envs) * n].reshape(restarts, envs, n)
        self.variances = params[:, (q + envs) * n :].reshape(restarts, envs, n)

    @classmethod
    def of(cls, rows: list[tuple[UnmixModel, _Moments]], topology: ScmTopology) -> "_Batch":
        """One row per (model, moments it fits) pair, in order."""
        envs, n = rows[0][0].env_means.shape
        layout = _Layout(n, envs, topology.parent_indices())
        batch = cls(
            layout,
            np.zeros((len(rows), (layout.joint_rows + 2 * envs) * n)),
            np.stack([moments.means for _, moments in rows]),
            np.stack([moments.covariances for _, moments in rows]),
        )
        for r, (model, _) in enumerate(rows):
            for index, block in zip(layout.blocks, (model.mixing, *model.task_maps)):
                batch.stacked[r][index] = block
            batch.means[r] = model.env_means
            batch.variances[r] = model.env_variances
        return batch

    def model(self, r: int) -> UnmixModel:
        mixing, *task_maps = (self.stacked[r][index] for index in self.layout.blocks)
        return UnmixModel(mixing, self.means[r].copy(), self.variances[r].copy(), tuple(task_maps))

    def take(self, keep: np.ndarray) -> "_Batch":
        moments = self.empirical_means[keep], self.empirical_covariances[keep]
        return _Batch(self.layout, self.params[keep], *moments)

    def stepped(self, step: np.ndarray) -> "_Batch":
        """A copy with ``step`` added to each row's free parameters, fitting the same moments."""
        params = self.params.copy()
        params[:, self.layout.free] += step
        return _Batch(self.layout, params, self.empirical_means, self.empirical_covariances)


def _residuals(batch: _Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_e = W·D_e and the model-minus-empirical mean and covariance of each restart.

    Shapes (restarts, envs, q, n), (restarts, envs, q) and
    (restarts, envs, q, q). Every product is a stacked ``matmul`` over
    slices of the same shape and layout as one model's, so a restart's
    bits do not depend on the batch it is in.
    """
    per_env = batch.stacked[:, None]
    scaled = per_env * batch.variances[..., None, :]
    mean_resid = np.matmul(per_env, batch.means[..., None])[..., 0] - batch.empirical_means
    cov_resid = np.matmul(scaled, per_env.swapaxes(-1, -2)) - batch.empirical_covariances
    return scaled, mean_resid, cov_resid


def _objective(batch: _Batch) -> np.ndarray:
    """Summed squared moment residuals per restart, the environments added in order."""
    _, mean_resid, cov_resid = _residuals(batch)
    mean_terms = np.matmul(mean_resid[..., None, :], mean_resid[..., None])[..., 0, 0]
    cov_terms = (cov_resid * cov_resid).reshape(cov_resid.shape[:2] + (-1,)).sum(axis=-1)
    terms = mean_terms + cov_terms
    objective = np.zeros(terms.shape[0])
    for e in range(terms.shape[1]):
        objective += terms[:, e]
    return objective


@dataclass(frozen=True)
class _NormalEquations:
    """JᵀJ and Jᵀr of each restart's residuals, block by block, J never formed.

    The free joint-map entries θ move every environment's residuals, while
    environment e's latent means and variances φ_e = (μ_e, v_e) move only
    its own, so JᵀJ is block-arrow: ``shared`` (θ with θ), ``crossed``
    (θ with each φ_e) and ``local`` (φ_e with φ_e, the same for every
    environment, with no μ-v coupling). Everything grows linearly with the
    environments. In ``_Layout.free`` order the blocks are the dense
    system as they stand: JᵀJ = [[shared, crossed], [crossedᵀ, local ⊗ I_envs]]
    and Jᵀr = ``half_gradient()``.
    """

    shared: np.ndarray  # (restarts, p, p)
    local: np.ndarray  # (restarts, 2n, 2n)
    # per environment [X_eᵀ | g_e]: the cross block and Jᵀr over φ_e, side by side
    rhs: np.ndarray  # (restarts, 2n, envs, p + 1)
    shared_gradient: np.ndarray  # (restarts, p): Jᵀr over θ

    @cached_property
    def crossed(self) -> np.ndarray:
        """θ with φ per restart, (restarts, p, 2n·envs), its columns in ``_Layout.free`` order."""
        restarts, width, envs, columns = self.rhs.shape
        return self.rhs[..., :-1].reshape(restarts, width * envs, columns - 1).swapaxes(1, 2)

    def take(self, keep: np.ndarray) -> "_NormalEquations":
        return _NormalEquations(
            self.shared[keep], self.local[keep], self.rhs[keep], self.shared_gradient[keep]
        )

    def half_gradient(self) -> np.ndarray:
        """Jᵀr per restart over the free parameters, in ``_Layout.free`` order."""
        local_gradient = self.rhs[..., -1].reshape(self.rhs.shape[0], -1)
        return np.concatenate([self.shared_gradient, local_gradient], axis=1)

    def step(self, damping: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """δ with (JᵀJ + λ·diag JᵀJ)·δ = −Jᵀr per restart, and which restarts had one.

        The φ_e are eliminated first (a Schur complement): with the damped
        blocks U, X_e and V, (U − Σ_e X_e·V⁻¹·X_eᵀ)·δθ = −g_θ + Σ_e X_e·V⁻¹·g_e
        and δφ_e = −V⁻¹·(g_e + X_eᵀ·δθ). δ is in ``_Layout.free`` order. A
        restart with an exactly singular system gets δ = 0.
        """
        restarts, width, envs, columns = self.rhs.shape
        p = columns - 1
        scale = 1.0 + damping[:, None]
        local, shared = self.local.copy(), self.shared.copy()
        local[:, range(width), range(width)] *= scale
        shared[:, range(p), range(p)] *= scale
        # V⁻¹·[X_eᵀ | g_e] for every environment at once
        eliminated, local_solved = _solve(local, self.rhs.reshape(restarts, width, -1))
        eliminated = eliminated.reshape(self.rhs.shape)
        cross = self.crossed
        reduced = shared - np.matmul(cross, eliminated[..., :p].reshape(restarts, width * envs, p))
        folded = np.matmul(cross, eliminated[..., p].reshape(restarts, width * envs, 1))[..., 0]
        shared_step, solved = _solve(reduced, (folded - self.shared_gradient)[..., None])
        local_step = -eliminated[..., p] - np.matmul(eliminated[..., :p], shared_step[:, None])[..., 0]
        solved &= local_solved
        step = np.concatenate([shared_step[..., 0], local_step.reshape(restarts, -1)], axis=1)
        return np.where(solved[:, None], step, 0.0), solved


def _normal_equations(batch: _Batch) -> _NormalEquations:
    """JᵀJ and Jᵀr of the moment residuals of each restart in ``batch``.

    With D_e = diag(v_e), S_e = W·D_e and w_i column i of W, environment
    e's residuals r_e = Wμ_e − m_e and R_e = W·D_e·Wᵀ − C_e move as
    ∂r_e/∂W_ab = e_a·μ_e,b, ∂r_e/∂μ_e = W, ∂R_e/∂W_ab = e_a·s_bᵀ + s_b·e_aᵀ
    (s_b column b of S_e) and ∂R_e/∂v_e,i = w_i·w_iᵀ. Their inner
    products give each block in closed form; S_e and the residuals come
    from ``_residuals``, as the objective's do.
    """
    layout = batch.layout
    q, n, envs = layout.joint_rows, layout.num_latents, layout.num_environments
    restarts = batch.params.shape[0]
    a, b = layout.map_entries
    same_row, gathered, crossed = layout.map_pairs
    w, means = batch.stacked, batch.means
    scaled, mean_resid, cov_resid = _residuals(batch)
    stacked_scaled = scaled.reshape(restarts, envs * q, n)
    # θ with θ: [a = a']·K_bb' + 2·Σ_e S_e[a, b']·S_e[a', b], K = Σ_e μ_e·μ_eᵀ + 2·S_eᵀ·S_e
    k = np.matmul(means.swapaxes(1, 2), means)
    k += 2.0 * np.matmul(stacked_scaled.swapaxes(1, 2), stacked_scaled)
    flat = scaled.reshape(restarts, envs, q * n)
    pairs = np.matmul(flat.swapaxes(1, 2), flat).reshape(restarts, -1)
    shared = same_row * k.reshape(restarts, -1)[:, gathered] + 2.0 * pairs[:, crossed]
    # φ_e with θ: μ_e,b·W[a, i] for the means, 2·W[a, i]·(S_eᵀ·W)[b, i] for the variances
    rows = w[:, a].swapaxes(1, 2)[:, :, None]  # W[a, i], (restarts, n, 1, p)
    overlap = np.matmul(w[:, None].swapaxes(-1, -2), scaled)[..., b].swapaxes(1, 2)
    rhs = np.empty((restarts, 2 * n, envs, a.size + 1))  # [X_eᵀ | g_e]
    np.multiply(rows, means[:, None, :, b], out=rhs[:, :n, :, :-1])
    np.multiply(rows, 2.0 * overlap, out=rhs[:, n:, :, :-1])  # overlap: (S_eᵀ·W)[b, i] at [i, e]
    # φ_e with φ_e: WᵀW for the means, its elementwise square for the variances
    gram = np.matmul(w.swapaxes(1, 2), w)
    local = np.zeros((restarts, 2 * n, 2 * n))
    local[:, :n, :n] = gram
    local[:, n:, n:] = gram * gram
    # Jᵀr: Σ_e r_e·μ_eᵀ + (R_e + R_eᵀ)·S_e over θ, then Wᵀr_e and w_iᵀ·R_e·w_i
    symmetric = (cov_resid + cov_resid.swapaxes(-1, -2)).swapaxes(1, 2)
    shared_gradient = np.matmul(mean_resid.swapaxes(1, 2), means) + np.matmul(
        symmetric.reshape(restarts, q, envs * q), stacked_scaled
    )
    rhs[:, :n, :, -1] = np.matmul(w.swapaxes(1, 2), mean_resid.swapaxes(1, 2))
    rhs[:, n:, :, -1] = (np.matmul(cov_resid, w[:, None]) * w[:, None]).sum(axis=2).swapaxes(1, 2)
    return _NormalEquations(shared, local, rhs, shared_gradient[:, a, b])


def _reproject(matrix: np.ndarray) -> np.ndarray:
    """Push a near-singular square map back to the allowed region."""
    u, s, vt = np.linalg.svd(matrix)
    floor = max(s[0], 1.0) * 10 * SINGULAR_RATIO
    return (u * np.maximum(s, floor)) @ vt


def _project(batch: _Batch) -> _Batch:
    """Floor the variances and reproject near-singular maps, in place."""
    np.maximum(batch.variances, VARIANCE_FLOOR, out=batch.variances)
    for rows, cols in batch.layout.sides:
        maps = batch.stacked[:, rows, cols]  # (restarts, blocks, side, side)
        for r, k in np.argwhere(singular_ratios(maps) <= SINGULAR_RATIO):
            batch.stacked[r, rows[k], cols[k]] = _reproject(maps[r, k])
    return batch


def _solve(matrices: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` with ``matrices @ x = rhs`` per restart (leading axis), and which were solvable.

    A restart with an exactly singular matrix gets ``x = 0``. When one is
    present the others are solved again one at a time, through the same
    stacked call a lone restart makes, so each gets the bits it would get
    alone.
    """
    try:
        return np.linalg.solve(matrices, rhs), np.ones(len(rhs), bool)
    except np.linalg.LinAlgError:
        if len(rhs) == 1:
            return np.zeros_like(rhs), np.zeros(1, bool)
        parts = [_solve(matrices[k : k + 1], rhs[k : k + 1]) for k in range(len(rhs))]
        return np.concatenate([x for x, _ in parts]), np.concatenate([ok for _, ok in parts])


def _levenberg_marquardt(start: _Batch, config: FitConfig) -> list[RestartResult]:
    """Levenberg-Marquardt on the moment residuals of every restart in one batch.

    Each row of ``start`` carries the moments it fits, so one batch can
    fit several datasets of one layout. An iteration solves
    (JᵀJ + λ·diag JᵀJ)·δ = −Jᵀr over the free parameters of every restart
    still running (``_NormalEquations.step``), projects each moved model
    (``_project``) and keeps it only if its objective strictly decreases;
    λ starts at ``INITIAL_DAMPING`` and is divided by ``DAMPING_DOWN``
    after a kept step, multiplied by ``DAMPING_UP`` after a rejected one.
    A rejected step leaves its model where it was, so the normal
    equations, and with them the gradient test, are rebuilt for the whole
    batch only after an iteration in which some restart kept its step.
    Products and solves run slice by slice, so each restart keeps the
    bits it would reach alone, and the loop runs max(iterations) times.
    """
    batch = _project(start)
    objective = _objective(batch)
    damping = np.full(objective.shape, INITIAL_DAMPING)
    ids = np.arange(objective.shape[0])
    results: list[RestartResult] = [None] * ids.shape[0]  # type: ignore[list-item]
    iterations = 0
    normal: _NormalEquations | None = None

    def leave(mask: np.ndarray, stop_reason: str) -> bool:
        """Record and drop the restarts in ``mask``; whether there were any."""
        nonlocal batch, objective, normal, damping, ids
        if not mask.any():
            return False
        for i in np.flatnonzero(mask):
            results[ids[i]] = RestartResult(
                float(objective[i]), iterations, batch.model(i), stop_reason
            )
        keep = ~mask
        batch = batch.take(keep)
        if normal is not None:  # it is None after a kept step
            normal = normal.take(keep)
        objective, damping, ids = objective[keep], damping[keep], ids[keep]
        return True

    for _ in range(config.max_iters):
        if normal is None:
            normal = _normal_equations(batch)
            # the gradient changes only with the model, so only here
            leave(2.0 * np.abs(normal.half_gradient()).max(axis=1) < config.grad_tol, "grad_tol")
            if not ids.shape[0]:
                break
        step, solved = normal.step(damping)
        # a step that is not a number is no step either
        stopped = solved & ~(np.abs(step).max(axis=1) >= config.min_step)
        if leave(stopped, "min_step"):
            step = step[~stopped]
            if not ids.shape[0]:
                break
        candidates = _project(batch.stepped(step))
        candidate_objective = _objective(candidates)
        better = candidate_objective < objective
        np.copyto(batch.params, candidates.params, where=better[:, None])
        np.copyto(objective, candidate_objective, where=better)
        damping = np.where(better, damping / DAMPING_DOWN, damping * DAMPING_UP)
        if better.any():
            normal = None
        iterations += 1
    leave(np.ones(ids.shape, dtype=bool), "max_iters")
    return results


def _data_driven_init(topology: ScmTopology, moments: _Moments) -> UnmixModel:
    """Whitening-style start, built from the moments alone.

    With L the Cholesky factor of the averaged source covariance, the
    latents are estimated as L⁻¹x. Their moments are the source moments
    whitened by L⁻¹, and each task's least-squares map on its parents'
    estimates solves the p×p normal equations of the pooled uncentered
    second moments Σ_e n_e·(C_e + μ_e·μ_eᵀ), through ``lstsq`` so that a
    rank-deficient design still gets the minimum-norm map.
    """
    n = topology.num_latents
    means, covariances, sizes = moments.means, moments.covariances, moments.sizes
    avg_cov = covariances[:, :n, :n].mean(axis=0)
    jitter = 1e-10 * max(float(np.trace(avg_cov)) / n, 1.0)
    mixing = np.linalg.cholesky(avg_cov + jitter * np.eye(n))
    whiten = np.eye(means.shape[1])
    whiten[:n, :n] = np.linalg.inv(mixing)
    means = means @ whiten.T
    covariances = whiten @ covariances @ whiten.T
    variances = np.maximum(np.diagonal(covariances[:, :n, :n], axis1=1, axis2=2), VARIANCE_FLOOR)
    uncentered = covariances + means[:, :, None] * means[:, None, :]
    second = np.tensordot(sizes, uncentered, axes=1)
    task_maps, row = [], n
    for parents in topology.parent_indices():
        p = list(parents)
        if p:
            design, target = second[np.ix_(p, p)], second[p, row : row + len(p)]
            task_maps.append(np.linalg.lstsq(design, target, rcond=None)[0].T)
        else:
            task_maps.append(np.zeros((0, 0)))
        row += len(p)
    return UnmixModel(mixing, means[:, :n], variances, tuple(task_maps))


def _random_init(
    rng: np.random.Generator, topology: ScmTopology, num_environments: int
) -> UnmixModel:
    n = topology.num_latents

    def nonsingular(size: int) -> np.ndarray:
        while True:
            candidate = rng.standard_normal((size, size))
            if size == 0 or singular_ratio(candidate) > 1e-3:
                return candidate

    mixing = nonsingular(n)
    means = rng.standard_normal((num_environments, n))
    variances = np.exp(rng.standard_normal((num_environments, n)) * 0.3)
    task_maps = tuple(nonsingular(len(parents)) for parents in topology.parent_indices())
    return UnmixModel(mixing, means, variances, task_maps)


def _starts(
    topology: ScmTopology, moments: _Moments, config: FitConfig, init: UnmixModel | None
) -> list[UnmixModel]:
    """Starting model of each restart of one dataset with ``moments``, in restart order."""
    first = init if init is not None else _data_driven_init(topology, moments)
    rng = stream(FIT_INIT, config.seed)
    envs = moments.means.shape[0]
    return [first] + [_random_init(rng, topology, envs) for _ in range(config.restarts - 1)]


def fit(
    dataset: SyntheticDataset,
    topology: ScmTopology,
    config: FitConfig = FitConfig(),
    init: UnmixModel | None = None,
) -> FitResult:
    """Match per-environment joint moments by multi-restart Levenberg-Marquardt.

    The restarts run together in one batch, each reaching the result it
    would reach alone. Restart 0 starts from the supplied ``init`` when
    given, otherwise from a whitening-style guess made from the moments;
    later restarts draw random parameters from the fit stream of
    ``config.seed``. The best restart by final objective wins, ties going
    to the earliest. An ``init`` whose shapes do not match the topology
    and the dataset's environments raises ``ShapeError``, and one with a
    malformed or non-finite entry ``DomainError``. A best objective that
    is not finite (data whose squared moments overflow float64) raises
    ``DataError``. This is ``fit_many`` on one dataset.
    """
    (result,) = fit_many([dataset], topology, config, init)
    return result


def fit_many(
    datasets,
    topology: ScmTopology,
    config: FitConfig,
    init: UnmixModel | None = None,
) -> list[FitResult]:
    """``fit`` of each dataset, with every restart of every dataset in one batch.

    Dataset d is fitted as ``fit`` would fit it with ``config.seed + d``
    as its seed, and gets the same bits; a seed past the last one
    ``check_seed`` accepts raises ``ConfigError``. The datasets must
    share one environment count.
    ``datasets`` is read once, in order, and each dataset is reduced to its
    moments as it is read, so a generator lets the caller hold one at a
    time. Refusals are ``fit``'s, for the first dataset that has one.
    """
    moments: list[_Moments] = []
    for dataset in datasets:
        _check_dataset(dataset, topology)
        if not moments:
            envs = dataset.num_environments
            if init is not None:
                init = _check_init(init, topology, envs)
        elif dataset.num_environments != envs:
            raise DataError(
                f"datasets must share one environment count, got {envs}"
                f" and {dataset.num_environments}"
            )
        moments.append(_empirical_moments(dataset))
    if not moments:
        return []
    rows = [
        (model, data)
        for d, data in enumerate(moments)
        for model in _starts(topology, data, replace(config, seed=config.seed + d), init)
    ]
    # an overflow leaves an objective that is not finite, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        restarts = _levenberg_marquardt(_Batch.of(rows, topology), config)
    per_dataset = config.restarts
    return [_best(restarts[d : d + per_dataset]) for d in range(0, len(restarts), per_dataset)]


def _best(restarts: list[RestartResult]) -> FitResult:
    """One dataset's result: its best restart by final objective, ties to the earliest."""
    best = min(restarts, key=lambda res: (math.isnan(res.objective), res.objective))
    if not math.isfinite(best.objective):
        raise DataError(
            "the fit objective is not finite: the data overflow float64 in the moment residuals"
        )
    if best.model.singular_ratio() <= SINGULAR_RATIO:
        raise SingularModelError("every restart collapsed to a singular mixing map")
    return FitResult(model=best.model, objective=best.objective, restarts=restarts)


def recover_latents(model: UnmixModel, x: np.ndarray) -> np.ndarray:
    """Invert the fitted mixing map on source observations, one product with its inverse."""
    if model.singular_ratio() <= SINGULAR_RATIO:
        raise SingularModelError("mixing map is numerically singular")
    x = read_array(x, DataError, "observations")
    if x.ndim != 2 or x.shape[1] != model.mixing.shape[0]:
        raise ShapeError(f"observations must be (samples x {model.mixing.shape[0]})")
    return x @ np.linalg.inv(model.mixing).T


@dataclass(frozen=True)
class MatchResult:
    """Best alignment of estimated to true latents.

    ``permutation[i]`` is the estimated column matched to true latent
    ``i``; correlations are absolute Pearson values for matched pairs.
    """

    permutation: tuple[int, ...]
    per_latent_abs_corr: tuple[float, ...]

    @property
    def mcc(self) -> float:
        """Mean of the matched absolute correlations."""
        return float(np.mean(self.per_latent_abs_corr))


def _standardised(latents: np.ndarray) -> np.ndarray:
    """Each column of ``latents`` centred and scaled to unit norm, as a row of a C-ordered copy.

    Each column is first brought to a largest magnitude in [0.5, 1) by a
    power of two, so its squares neither overflow nor underflow. In the
    normal range that scaling is exact and changes no bit of the result.
    """
    rows = np.array(latents.T, order="C")
    scales, exponents = np.frexp(np.abs(rows).max(axis=1, initial=0.0))
    np.ldexp(rows, -exponents[:, None], out=rows)
    rows -= rows.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(rows, axis=1)
    # a constant column centres to round-off of its scale, not always to zero
    if np.any(norms <= rows.shape[1] * np.finfo(np.float64).eps * scales):
        raise DegenerateError("a latent column has zero variance")
    rows /= norms[:, None]
    return rows


def match_permutation(true_latents: np.ndarray, est_latents: np.ndarray) -> MatchResult:
    """Exhaustive search for the correlation-maximizing permutation.

    Ties resolve to the lexicographically smallest permutation. Absolute
    Pearson correlation is invariant to per-column affine rescaling of
    either side. Each side is standardised as a contiguous (latents x
    samples) copy, so the result does not depend on the inputs' memory
    layout.
    """
    true_arr = read_array(true_latents, DataError, "true latents")
    est_arr = read_array(est_latents, DataError, "estimated latents")
    if true_arr.shape != est_arr.shape or true_arr.ndim != 2 or 0 in true_arr.shape:
        raise ShapeError(
            "latent arrays must share a 2-d shape with a sample and a latent,"
            f" got {true_arr.shape} and {est_arr.shape}"
        )
    if not (np.isfinite(true_arr).all() and np.isfinite(est_arr).all()):
        raise DataError("latent arrays must be finite")
    n = true_arr.shape[1]
    if n > MAX_FIT_LATENTS:
        raise CapacityError(f"permutation search supports at most {MAX_FIT_LATENTS} latents")
    corr = np.abs(_standardised(true_arr) @ _standardised(est_arr).T)
    corr = np.clip(corr, 0.0, 1.0)  # |Pearson| is in [0, 1]; trim round-off
    best_perm: tuple[int, ...] | None = None
    best_mean = -np.inf
    for perm in itertools.permutations(range(n)):
        mean = float(corr[np.arange(n), perm].mean())
        if mean > best_mean:
            best_mean = mean
            best_perm = perm
    assert best_perm is not None
    matched = tuple(float(corr[i, best_perm[i]]) for i in range(n))
    return MatchResult(permutation=best_perm, per_latent_abs_corr=matched)


@dataclass(frozen=True)
class SeedOutcome:
    seed: int
    mcc: float
    per_latent_abs_corr: tuple[float, ...]
    objective: float


@dataclass(frozen=True)
class ExperimentArm:
    per_seed: tuple[SeedOutcome, ...]

    @property
    def median_mcc(self) -> float:
        return float(statistics.median(outcome.mcc for outcome in self.per_seed))


@dataclass(frozen=True)
class ExperimentReport:
    """Comparative recovery report for one identifiable/colliding pair.

    Dispersion statistics summarize, across seeds, the matched
    correlation averaged over the two colliding latents: the spread
    (max minus min) and the population standard deviation.
    """

    identifiable: ExperimentArm
    colliding: ExperimentArm
    colliding_pair: tuple[int, int]
    colliding_pair_corr_per_seed: tuple[float, ...]
    dispersion_range: float
    dispersion_std: float

    @property
    def mcc_gap(self) -> float:
        return self.identifiable.median_mcc - self.colliding.median_mcc


def _arm_jobs(spec: DgpSpec, config: FitConfig, samples_per_env: int, seeds: int) -> list:
    """One arm's seeds from ``config.seed`` as contiguous runs, one job each.

    An arm is one job, split only to keep a job's retained latents and x
    within ``ARM_JOB_BYTES``; a job's config starts at its first seed.
    """
    per_seed = 16 * samples_per_env * spec.prior.num_environments * spec.topology.num_latents
    count = min(-(-seeds * per_seed // ARM_JOB_BYTES), seeds)
    bounds = [seeds * j // count for j in range(count + 1)]
    return [
        (spec, replace(config, seed=config.seed + lo), samples_per_env, hi - lo)
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _run_arm_job(args) -> list[SeedOutcome]:
    """Generate, fit in one ``fit_many`` batch, recover and match a run of one arm's seeds.

    The run is ``count`` seeds from ``config.seed``. Each seed's data is
    reduced to its moments as the batch reads it; only its latents and x,
    which matching reads, are kept.
    """
    spec, config, samples_per_env, count = args
    seeds = range(config.seed, config.seed + count)
    kept = []

    def datasets():
        for seed in seeds:
            dataset = generate_dataset(spec, samples_per_env, seed)
            kept.append((dataset.latents, dataset.x))
            yield dataset

    results = fit_many(datasets(), spec.topology, config)
    outcomes = []
    for seed, result, (latents, x) in zip(seeds, results, kept):
        match = match_permutation(latents, recover_latents(result.model, x))
        outcomes.append(SeedOutcome(seed, match.mcc, match.per_latent_abs_corr, result.objective))
    return outcomes


def identifiability_experiment(
    spec_ident: DgpSpec,
    spec_collide: DgpSpec,
    config: FitConfig = FitConfig(),
    seeds: int = 10,
    samples_per_env: int = 20000,
) -> ExperimentReport:
    """Run the recovery pipeline on both specs over fresh seeds.

    Per-seed data and fit seeds are ``config.seed + s``. Each arm's seeds
    are fitted in one ``fit_many`` batch per job (see ``_arm_jobs``: one
    job per arm unless the memory budget calls for more). The jobs run in
    worker processes, one per CPU and at most one per job, and are merged
    back in seed order; every outcome has the bits of a lone ``fit`` of
    its seed.
    """
    if read_int(seeds, ConfigError, "seeds") < 1:
        raise ConfigError("need at least one seed")
    check_seed(config.seed + seeds - 1)  # the last data seed, checked before any job is built
    samples_per_env = read_int(samples_per_env, ConfigError, "sample count")  # sizes the jobs
    if samples_per_env < 1:
        raise ConfigError(f"sample count must be positive, got {samples_per_env}")
    if not uic_check(spec_ident.topology):
        raise ConfigError("the identifiable spec fails the column-distinctness check")
    violations = uic_violations(spec_collide.topology)
    if not violations:
        raise ConfigError("the colliding spec has no colliding latent pair")
    pair = violations[0]
    arms = (spec_ident, spec_collide)
    jobs = [job for spec in arms for job in _arm_jobs(spec, config, samples_per_env, seeds)]
    outcomes = [outcome for part in parallel_map(_run_arm_job, jobs) for outcome in part]
    ident_arm = ExperimentArm(tuple(outcomes[:seeds]))
    collide_arm = ExperimentArm(tuple(outcomes[seeds:]))
    pair_corr = tuple(
        float((outcome.per_latent_abs_corr[pair[0]] + outcome.per_latent_abs_corr[pair[1]]) / 2)
        for outcome in collide_arm.per_seed
    )
    return ExperimentReport(
        identifiable=ident_arm,
        colliding=collide_arm,
        colliding_pair=pair,
        colliding_pair_corr_per_seed=pair_corr,
        dispersion_range=float(max(pair_corr) - min(pair_corr)),
        dispersion_std=float(np.std(pair_corr)),
    )
