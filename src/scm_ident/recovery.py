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
from .dgp import _task_map
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateError,
    DomainError,
    ShapeError,
    SingularModelError,
)
from .errors import read_array, read_int, read_real
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
    bound on a run of kept steps.
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
        check_seed(self.seed)


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
    """Per-environment empirical moments of the joint observable vector."""

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
    n, parents = topology.num_latents, topology.parent_indices()
    if not isinstance(init.task_maps, (list, tuple)):
        raise DataError("init B must be a list of matrices, one per task")
    if len(init.task_maps) != len(parents):
        raise ShapeError(f"init needs one B per task, got {len(init.task_maps)}")
    names = ["F", "means", "variances", *(f"B for task {k}" for k in range(len(parents)))]
    values = [init.mixing, init.env_means, init.env_variances, *init.task_maps]
    shapes = [(n, n), *[(num_environments, n)] * 2, *((len(p), len(p)) for p in parents)]
    blocks = []
    for name, block, shape in zip(names, values, shapes):
        # only a parentless task's map has 0 rows; its [] is the 0x0 map
        block = _task_map(read_array(block, DataError, f"init {name}"), shape[0])
        if block.shape != shape:
            raise ShapeError(f"init {name} must be {shape[0]}x{shape[1]}, got shape {block.shape}")
        # a NaN objective would win the choice between restarts
        if not np.isfinite(block).all():
            raise DomainError(f"init {name} entries must be finite")
        blocks.append(block)
    mixing, means, variances, *task_maps = blocks
    return UnmixModel(mixing, means, variances, tuple(task_maps))


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
    def fixed(self) -> np.ndarray:
        """(q, n) mask of the joint-map entries held at zero."""
        fixed = np.ones((self.joint_rows, self.num_latents), dtype=bool)
        for index in self.blocks:
            fixed[index] = False
        return fixed

    @cached_property
    def free(self) -> np.ndarray:
        """Positions in a parameter row of the entries the fit moves: all but the fixed zeros."""
        latent_moments = np.ones(2 * self.num_environments * self.num_latents, dtype=bool)
        return np.flatnonzero(np.concatenate([~self.fixed.ravel(), latent_moments]))

    @cached_property
    def map_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column in the joint map of each free entry, in ``free`` order."""
        return np.nonzero(~self.fixed)

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
    """Models of several restarts, one flat parameter row each.

    ``stacked`` (restarts, q, n), ``means`` and ``variances``
    (restarts, envs, n) are views of the rows; see ``_Layout``.
    """

    def __init__(self, layout: _Layout, params: np.ndarray):
        self.layout = layout
        self.params = params
        q, n, envs = layout.joint_rows, layout.num_latents, layout.num_environments
        restarts = params.shape[0]
        self.stacked = params[:, : q * n].reshape(restarts, q, n)
        self.means = params[:, q * n : (q + envs) * n].reshape(restarts, envs, n)
        self.variances = params[:, (q + envs) * n :].reshape(restarts, envs, n)

    @classmethod
    def of(cls, models: list[UnmixModel], topology: ScmTopology) -> "_Batch":
        envs, n = models[0].env_means.shape
        layout = _Layout(n, envs, topology.parent_indices())
        batch = cls(layout, np.zeros((len(models), (layout.joint_rows + 2 * envs) * n)))
        for r, model in enumerate(models):
            for index, block in zip(layout.blocks, (model.mixing, *model.task_maps)):
                batch.stacked[r][index] = block
            batch.means[r] = model.env_means
            batch.variances[r] = model.env_variances
        return batch

    def model(self, r: int) -> UnmixModel:
        mixing, *task_maps = (self.stacked[r][index] for index in self.layout.blocks)
        return UnmixModel(mixing, self.means[r].copy(), self.variances[r].copy(), tuple(task_maps))

    def take(self, keep: np.ndarray) -> "_Batch":
        return _Batch(self.layout, self.params[keep])


@dataclass(frozen=True)
class _Residuals:
    """Per-environment moment residuals of a batch, kept for its next step."""

    means: np.ndarray  # (restarts, envs, q): model minus empirical mean
    covariances: np.ndarray  # (restarts, envs, q, q): model minus empirical covariance

    def take(self, keep: np.ndarray) -> "_Residuals":
        return _Residuals(self.means[keep], self.covariances[keep])


def _residuals(batch: _Batch, moments: _Moments) -> tuple[np.ndarray, _Residuals]:
    """Objective per restart (summed squared residuals) and the residuals behind it.

    Every product is a stacked ``matmul`` over slices of the same shape and
    layout as one model's, and the objective adds the environments in
    order, so a restart's bits do not depend on the batch it is in.
    """
    per_env = batch.stacked[:, None]
    scaled = per_env * batch.variances[..., None, :]
    mean_resid = np.matmul(per_env, batch.means[..., None])[..., 0] - moments.means
    cov_resid = np.matmul(scaled, per_env.swapaxes(-1, -2)) - moments.covariances
    mean_terms = np.matmul(mean_resid[..., None, :], mean_resid[..., None])[..., 0, 0]
    cov_terms = (cov_resid * cov_resid).reshape(cov_resid.shape[:2] + (-1,)).sum(axis=-1)
    terms = mean_terms + cov_terms
    objective = np.zeros(terms.shape[0])
    for e in range(terms.shape[1]):
        objective += terms[:, e]
    return objective, _Residuals(mean_resid, cov_resid)


@dataclass(frozen=True)
class _NormalEquations:
    """JᵀJ and Jᵀr of each restart's residuals, block by block, J never formed.

    The free joint-map entries θ move every environment's residuals, while
    environment e's latent means and variances φ_e = (μ_e, v_e) move only
    its own, so JᵀJ is block-arrow: ``shared`` (θ with θ), ``cross`` (φ_e
    with θ, one block per environment) and ``local`` (φ_e with φ_e, the
    same for every environment, with no μ-v coupling). Everything grows
    linearly with the environments.
    """

    shared: np.ndarray  # (restarts, p, p)
    cross: np.ndarray  # (restarts, 2n, envs, p): X_eᵀ side by side
    local: np.ndarray  # (restarts, 2n, 2n)
    shared_gradient: np.ndarray  # (restarts, p): Jᵀr over θ
    local_gradient: np.ndarray  # (restarts, 2n, envs): Jᵀr over each φ_e

    def take(self, keep: np.ndarray) -> "_NormalEquations":
        return _NormalEquations(
            self.shared[keep],
            self.cross[keep],
            self.local[keep],
            self.shared_gradient[keep],
            self.local_gradient[keep],
        )

    def half_gradient(self) -> np.ndarray:
        """Jᵀr per restart over the free parameters, in ``_Layout.free`` order."""
        return _free_order(self.shared_gradient, self.local_gradient)

    def step(self, damping: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """δ with (JᵀJ + λ·diag JᵀJ)·δ = −Jᵀr per restart, and which restarts had one.

        The φ_e are eliminated first (a Schur complement): with the damped
        blocks U, X_e and V, (U − Σ_e X_e·V⁻¹·X_eᵀ)·δθ = −g_θ + Σ_e X_e·V⁻¹·g_e
        and δφ_e = −V⁻¹·(g_e + X_eᵀ·δθ). A restart with an exactly
        singular system gets δ = 0.
        """
        restarts, width, envs, p = self.cross.shape
        scale = 1.0 + damping[:, None]
        local, shared = self.local.copy(), self.shared.copy()
        local[:, range(width), range(width)] *= scale
        shared[:, range(p), range(p)] *= scale
        # V⁻¹·[X_eᵀ | g_e] for every environment at once
        rhs = np.concatenate([self.cross, self.local_gradient[..., None]], axis=3)
        eliminated, local_solved = _solve(local, rhs.reshape(restarts, width, -1))
        eliminated = eliminated.reshape(rhs.shape)
        cross = self.cross.reshape(restarts, width * envs, p).swapaxes(1, 2)
        reduced = shared - np.matmul(cross, eliminated[..., :p].reshape(restarts, width * envs, p))
        folded = np.matmul(cross, eliminated[..., p].reshape(restarts, width * envs, 1))[..., 0]
        shared_step, solved = _solve(reduced, (folded - self.shared_gradient)[..., None])
        local_step = -eliminated[..., p] - np.matmul(eliminated[..., :p], shared_step[:, None])[..., 0]
        solved &= local_solved
        step = _free_order(shared_step[..., 0], local_step)
        return np.where(solved[:, None], step, 0.0), solved


def _free_order(shared: np.ndarray, local: np.ndarray) -> np.ndarray:
    """θ-part (restarts, p) and φ-part (restarts, 2n, envs) as rows in ``_Layout.free`` order."""
    restarts, width, envs = local.shape
    # means then variances, each environment by environment
    by_environment = local.reshape(restarts, 2, width // 2, envs).swapaxes(2, 3)
    return np.concatenate([shared, by_environment.reshape(restarts, -1)], axis=1)


def _normal_equations(batch: _Batch, residuals: _Residuals) -> _NormalEquations:
    """JᵀJ and Jᵀr of the residuals ``_residuals`` returned for ``batch``.

    With D_e = diag(v_e), S_e = W·D_e and w_i column i of W, environment
    e's residuals r_e = Wμ_e − m_e and R_e = W·D_e·Wᵀ − C_e move as
    ∂r_e/∂W_ab = e_a·μ_e,b, ∂r_e/∂μ_e = W, ∂R_e/∂W_ab = e_a·s_bᵀ + s_b·e_aᵀ
    (s_b column b of S_e) and ∂R_e/∂v_e,i = w_i·w_iᵀ. Their inner
    products give each block in closed form.
    """
    layout = batch.layout
    q, n, envs = layout.joint_rows, layout.num_latents, layout.num_environments
    restarts = batch.params.shape[0]
    a, b = layout.map_entries
    same_row, gathered, crossed = layout.map_pairs
    w, means = batch.stacked, batch.means
    scaled = w[:, None] * batch.variances[..., None, :]  # S_e, (restarts, envs, q, n)
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
    cross = np.empty((restarts, 2 * n, envs, a.size))
    np.multiply(rows, means[:, None, :, b], out=cross[:, :n])
    np.multiply(rows, 2.0 * overlap, out=cross[:, n:])  # overlap: (S_eᵀ·W)[b, i] at [i, e]
    # φ_e with φ_e: WᵀW for the means, its elementwise square for the variances
    gram = np.matmul(w.swapaxes(1, 2), w)
    local = np.zeros((restarts, 2 * n, 2 * n))
    local[:, :n, :n] = gram
    local[:, n:, n:] = gram * gram
    # Jᵀr: Σ_e r_e·μ_eᵀ + (R_e + R_eᵀ)·S_e over θ, then Wᵀr_e and w_iᵀ·R_e·w_i
    mean_resid, cov_resid = residuals.means, residuals.covariances
    symmetric = (cov_resid + cov_resid.swapaxes(-1, -2)).swapaxes(1, 2)
    shared_gradient = np.matmul(mean_resid.swapaxes(1, 2), means) + np.matmul(
        symmetric.reshape(restarts, q, envs * q), stacked_scaled
    )
    local_gradient = np.concatenate(
        [
            np.matmul(w.swapaxes(1, 2), mean_resid.swapaxes(1, 2)),
            (np.matmul(cov_resid, w[:, None]) * w[:, None]).sum(axis=2).swapaxes(1, 2),
        ],
        axis=1,
    )
    return _NormalEquations(shared, cross, local, shared_gradient[:, a, b], local_gradient)


def _reproject(matrix: np.ndarray) -> np.ndarray:
    """Push a near-singular square map back to the allowed region."""
    u, s, vt = np.linalg.svd(matrix)
    floor = max(s[0], 1.0) * 10 * SINGULAR_RATIO
    return (u * np.maximum(s, floor)) @ vt


def _project(batch: _Batch) -> _Batch:
    """Floor the variances and reproject near-singular maps, in place."""
    np.maximum(batch.variances, VARIANCE_FLOOR, out=batch.variances)
    for rows, cols in batch.layout.blocks:
        if rows.size:
            maps = batch.stacked[:, rows, cols]  # (restarts, side, side)
            for r in np.flatnonzero(singular_ratios(maps) <= SINGULAR_RATIO):
                batch.stacked[r, rows, cols] = _reproject(maps[r])
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


def _levenberg_marquardt(
    start: _Batch, moments: _Moments, config: FitConfig
) -> list[RestartResult]:
    """Levenberg-Marquardt on the moment residuals of every restart in one batch.

    An iteration solves (JᵀJ + λ·diag JᵀJ)·δ = −Jᵀr over the free
    parameters of every restart still running (``_NormalEquations.step``),
    projects each moved model (``_project``) and keeps it only if its
    objective strictly decreases; λ starts at ``INITIAL_DAMPING`` and is
    divided by ``DAMPING_DOWN`` after a kept step, multiplied by
    ``DAMPING_UP`` after a rejected one. A rejected step leaves its model
    where it was, so the normal equations are rebuilt, for the whole
    batch, only after an iteration in which some restart kept its step.
    Products and solves run slice by slice, so each restart keeps the
    bits it would reach alone, and the loop runs max(iterations) times.
    """
    batch = _project(start)
    objective, residuals = _residuals(batch, moments)
    damping = np.full(objective.shape, INITIAL_DAMPING)
    ids = np.arange(objective.shape[0])
    results: list[RestartResult] = [None] * ids.shape[0]  # type: ignore[list-item]
    free = batch.layout.free
    iterations = 0
    normal: _NormalEquations | None = None

    def leave(mask: np.ndarray, stop_reason: str) -> np.ndarray:
        nonlocal batch, objective, residuals, normal, damping, ids
        for i in np.flatnonzero(mask):
            results[ids[i]] = RestartResult(
                float(objective[i]), iterations, batch.model(i), stop_reason
            )
        keep = ~mask
        if mask.any():
            batch, residuals = batch.take(keep), residuals.take(keep)
            if normal is not None:  # it is None after a kept step
                normal = normal.take(keep)
            objective, damping, ids = objective[keep], damping[keep], ids[keep]
        return keep

    for _ in range(config.max_iters):
        if normal is None:
            normal = _normal_equations(batch, residuals)
        step, solved = normal.step(damping)
        converged = 2.0 * np.abs(normal.half_gradient()).max(axis=1) < config.grad_tol
        keep = leave(converged, "grad_tol")
        step, solved = step[keep], solved[keep]
        # a step that is not a number is no step either
        keep = leave(solved & ~(np.abs(step).max(axis=1) >= config.min_step), "min_step")
        step = step[keep]
        if not ids.shape[0]:
            break
        candidates = _Batch(batch.layout, batch.params.copy())
        candidates.params[:, free] += step
        candidate_objective, candidate_residuals = _residuals(_project(candidates), moments)
        better = candidate_objective < objective
        batch.params[better] = candidates.params[better]
        objective[better] = candidate_objective[better]
        residuals.means[better] = candidate_residuals.means[better]
        residuals.covariances[better] = candidate_residuals.covariances[better]
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
    avg_cov = moments.covariances[:, :n, :n].mean(axis=0)
    jitter = 1e-10 * max(float(np.trace(avg_cov)) / n, 1.0)
    mixing = np.linalg.cholesky(avg_cov + jitter * np.eye(n))
    whiten = np.eye(moments.means.shape[1])
    whiten[:n, :n] = np.linalg.inv(mixing)
    means = moments.means @ whiten.T
    covariances = whiten @ moments.covariances @ whiten.T
    variances = np.maximum(np.diagonal(covariances[:, :n, :n], axis1=1, axis2=2), VARIANCE_FLOOR)
    uncentered = covariances + means[:, :, None] * means[:, None, :]
    second = np.tensordot(moments.sizes, uncentered, axes=1)
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
    """Starting model of each restart, in restart order."""
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
    non-finite entry ``DomainError``. A best objective that is not finite
    (data whose squared moments overflow float64) raises ``DataError``.
    """
    _check_dataset(dataset, topology)
    if init is not None:
        init = _check_init(init, topology, dataset.num_environments)
    moments = _empirical_moments(dataset)
    starts = _Batch.of(_starts(topology, moments, config, init), topology)
    # an overflow leaves an objective that is not finite, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        restarts = _levenberg_marquardt(starts, moments, config)
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
    """Each column of ``latents`` centred and scaled to unit norm, as a row of a C-ordered copy."""
    rows = np.array(latents.T, order="C")
    scales = np.abs(rows).max(axis=1, initial=0.0)
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
    if true_arr.shape != est_arr.shape or true_arr.ndim != 2:
        raise ShapeError(
            f"latent arrays must share a 2-d shape, got {true_arr.shape} and {est_arr.shape}"
        )
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


def _run_experiment_seed(args) -> SeedOutcome:
    spec, config, samples_per_env, seed = args
    dataset = generate_dataset(spec, samples_per_env, seed)
    result = fit(dataset, spec.topology, replace(config, seed=seed))
    estimated = recover_latents(result.model, dataset.x)
    match = match_permutation(dataset.latents, estimated)
    return SeedOutcome(
        seed=seed,
        mcc=match.mcc,
        per_latent_abs_corr=match.per_latent_abs_corr,
        objective=result.objective,
    )


def identifiability_experiment(
    spec_ident: DgpSpec,
    spec_collide: DgpSpec,
    config: FitConfig = FitConfig(),
    seeds: int = 10,
    samples_per_env: int = 20000,
) -> ExperimentReport:
    """Run the recovery pipeline on both specs over fresh seeds.

    Per-seed data seeds are ``config.seed + s``. The ``2 * seeds`` jobs
    run in worker processes, one per CPU and at most one per job, and
    are merged back in seed order.
    """
    if read_int(seeds, ConfigError, "seeds") < 1:
        raise ConfigError("need at least one seed")
    base = check_seed(config.seed)
    check_seed(base + seeds - 1)  # the last data seed, checked before any job is built
    if not uic_check(spec_ident.topology):
        raise ConfigError("the identifiable spec fails the column-distinctness check")
    violations = uic_violations(spec_collide.topology)
    if not violations:
        raise ConfigError("the colliding spec has no colliding latent pair")
    pair = violations[0]
    arms = (spec_ident, spec_collide)
    jobs = [(spec, config, samples_per_env, base + s) for spec in arms for s in range(seeds)]
    outcomes = parallel_map(_run_experiment_seed, jobs)
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
