"""Latent recovery from multi-environment observations.

For linear-Gaussian data the per-environment means and covariances of the
joint observable vector are sufficient statistics, so fitting a model by
matching those moments is likelihood-equivalent at the population level
and admits closed-form gradients. The fitted model is inverted to
estimate latents, which are then aligned to the ground truth by the
permutation maximizing the mean absolute Pearson correlation — for scalar
Gaussian latents perfect recovery up to an affine map per latent is
exactly |correlation| = 1.

The contrast experiment runs the same pipeline on a topology whose latent
columns are all distinct and on one with a colliding pair: the collider
admits a continuum of equally good models mixing the pair, which shows up
as depressed correlations and seed-to-seed alignment instability.
"""

import itertools
import math
import numbers
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
from .ident import uic_check, uic_violations
from .topology import ScmTopology

MAX_FIT_LATENTS = 8
SINGULAR_RATIO = 1e-8
VARIANCE_FLOOR = 1e-8
STEP_GROWTH = 2.0


@dataclass(frozen=True)
class FitConfig:
    """First-order descent settings.

    Each iteration backtracks (halving) from the current step until the
    objective strictly decreases, then doubles the step for the next
    iteration; descent stops when the step or gradient norm underflows
    its floor.
    """

    restarts: int = 8
    max_iters: int = 2000
    initial_step: float = 1e-2
    min_step: float = 1e-10
    grad_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("restarts", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        # an infinite step never halves below min_step, so its descent never ends
        for name in ("initial_step", "min_step", "grad_tol"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite real number, got {value!r}")
        if self.restarts < 1 or self.max_iters < 1:
            raise ConfigError("restarts and max_iters must be positive")
        if not (self.initial_step > 0 and self.min_step > 0 and self.grad_tol > 0):
            raise ConfigError("step sizes and tolerances must be positive")
        check_seed(self.seed)


@dataclass
class UnmixModel:
    """Estimated generator: forward mixing map plus per-env latent moments.

    Latents are recovered by inverting ``mixing`` on the source
    observables; the per-task maps are carried so model moments can be
    reproduced.
    """

    mixing: np.ndarray
    env_means: np.ndarray
    env_variances: np.ndarray
    task_maps: tuple[np.ndarray, ...]
    parent_indices: tuple[tuple[int, ...], ...]

    def singular_ratio(self) -> float:
        return singular_ratio(self.mixing)


@dataclass
class RestartResult:
    """One restart's final model and objective.

    ``stop_reason`` says why its descent ended: ``grad_tol`` (gradient
    below tolerance), ``min_step`` (no step at or above ``min_step``
    lowered the objective) or ``max_iters`` (iteration budget spent).
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
    covariances: np.ndarray  # (envs, q, q)


def _joint_rows(dataset: SyntheticDataset) -> np.ndarray:
    return np.hstack([dataset.x, *dataset.y]) if dataset.y else dataset.x.copy()


def _empirical_moments(dataset: SyntheticDataset) -> _Moments:
    joint = _joint_rows(dataset)
    q = joint.shape[1]
    means, covs = [], []
    # each environment is checked before anything is sized by their count,
    # which a loaded CSV takes from its largest environment id
    for e in range(dataset.num_environments):
        rows = dataset.env_rows(e)
        if rows.shape[0] < 2:
            raise DataError(f"environment {e} needs at least 2 samples, has {rows.shape[0]}")
        block = joint[rows]
        mean = block.mean(axis=0)
        centered = block - mean
        means.append(mean)
        covs.append(centered.T @ centered / rows.shape[0])
    return _Moments(np.reshape(means, (-1, q)), np.reshape(covs, (-1, q, q)))


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


def _check_init(init: UnmixModel, topology: ScmTopology, num_environments: int) -> None:
    n = topology.num_latents
    parents = topology.parent_indices()
    if np.shape(init.mixing) != (n, n):
        raise ShapeError(f"init F must be {n}x{n}, got shape {np.shape(init.mixing)}")
    for name, block in (("means", init.env_means), ("variances", init.env_variances)):
        if np.shape(block) != (num_environments, n):
            raise ShapeError(
                f"init {name} must be {num_environments}x{n} (environments x latents), "
                f"got shape {np.shape(block)}"
            )
    if tuple(tuple(p) for p in init.parent_indices) != parents:
        raise ShapeError("init parent indices do not match the topology")
    if len(init.task_maps) != len(parents):
        raise ShapeError(f"init needs one B per task, got {len(init.task_maps)}")
    for k, (b, p) in enumerate(zip(init.task_maps, parents)):
        if np.shape(b) != (len(p), len(p)):
            raise ShapeError(
                f"init B for task {k} must be {len(p)}x{len(p)}, got shape {np.shape(b)}"
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
    def fixed(self) -> np.ndarray:
        """(q, n) mask of the joint-map entries held at zero."""
        fixed = np.ones((self.joint_rows, self.num_latents), dtype=bool)
        for index in self.blocks:
            fixed[index] = False
        return fixed

    @cached_property
    def square_groups(self) -> tuple[tuple[list[int], tuple[np.ndarray, np.ndarray]], ...]:
        """Non-empty maps grouped by side: their block numbers and one joint-map index."""
        groups: dict[int, list[int]] = {}
        for k, (rows, _) in enumerate(self.blocks):
            if rows.size:
                groups.setdefault(rows.size, []).append(k)
        return tuple(
            (ks, tuple(np.stack(axis) for axis in zip(*(self.blocks[k] for k in ks))))
            for ks in groups.values()
        )


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
    def of(cls, models: list[UnmixModel]) -> "_Batch":
        envs, n = models[0].env_means.shape
        layout = _Layout(n, envs, models[0].parent_indices)
        batch = cls(layout, np.zeros((len(models), (layout.joint_rows + 2 * envs) * n)))
        for r, model in enumerate(models):
            for index, block in zip(layout.blocks, (model.mixing, *model.task_maps)):
                batch.stacked[r][index] = block
            batch.means[r] = model.env_means
            batch.variances[r] = model.env_variances
        return batch

    def model(self, r: int) -> UnmixModel:
        mixing, *task_maps = (self.stacked[r][index] for index in self.layout.blocks)
        return UnmixModel(
            mixing,
            self.means[r].copy(),
            self.variances[r].copy(),
            tuple(task_maps),
            self.layout.parent_indices,
        )

    def moved(self, steps: np.ndarray, grads: "_Batch") -> "_Batch":
        """Each restart moved against its gradient by its own step."""
        return _Batch(self.layout, self.params - steps[:, None] * grads.params)

    def where(self, mask: np.ndarray, other: "_Batch") -> "_Batch":
        """This batch's restarts where ``mask`` holds, ``other``'s elsewhere."""
        return _Batch(self.layout, np.where(mask[:, None], self.params, other.params))

    def take(self, keep: np.ndarray) -> "_Batch":
        return _Batch(self.layout, self.params[keep])


@dataclass(frozen=True)
class _Residuals:
    """Per-environment moment residuals of a batch, kept for its gradient."""

    means: np.ndarray  # (restarts, envs, q): model minus empirical mean
    covariances: np.ndarray  # (restarts, envs, q, q): model minus empirical covariance

    def where(self, mask: np.ndarray, other: "_Residuals") -> "_Residuals":
        return _Residuals(
            np.where(mask[:, None, None], self.means, other.means),
            np.where(mask[:, None, None, None], self.covariances, other.covariances),
        )

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


def _gradients(batch: _Batch, residuals: _Residuals) -> _Batch:
    """Objective gradient of each restart, laid out like its parameters."""
    per_env = batch.stacked[:, None]
    scaled = per_env * batch.variances[..., None, :]
    d_per_env = 2.0 * (residuals.means[..., :, None] * batch.means[..., None, :]) + 4.0 * (
        np.matmul(residuals.covariances, scaled)
    )
    grads = _Batch(batch.layout, np.zeros_like(batch.params))
    for e in range(d_per_env.shape[1]):
        grads.stacked += d_per_env[:, e]
    grads.stacked[:, batch.layout.fixed] = 0.0
    d_means = np.matmul(per_env.swapaxes(-1, -2), residuals.means[..., None])[..., 0]
    grads.means[...] = 2.0 * d_means
    back = np.matmul(residuals.covariances, per_env)
    grads.variances[...] = 2.0 * np.einsum("...qi,...qi->...i", per_env, back)
    return grads


def _reproject(matrix: np.ndarray) -> np.ndarray:
    """Push a near-singular square map back to the allowed region."""
    u, s, vt = np.linalg.svd(matrix)
    floor = max(s[0], 1.0) * 10 * SINGULAR_RATIO
    return (u * np.maximum(s, floor)) @ vt


def _project(batch: _Batch) -> _Batch:
    """Floor the variances and reproject near-singular maps, in place."""
    np.maximum(batch.variances, VARIANCE_FLOOR, out=batch.variances)
    # one singular-value pass per map size: F and the task maps of its size together
    for blocks, (rows, cols) in batch.layout.square_groups:
        maps = batch.stacked[:, rows, cols]  # (restarts, len(blocks), side, side)
        low = singular_ratios(maps.reshape((-1,) + maps.shape[2:])) <= SINGULAR_RATIO
        for r, g in zip(*np.nonzero(low.reshape(maps.shape[:2]))):
            batch.stacked[r][batch.layout.blocks[blocks[g]]] = _reproject(maps[r, g])
    return batch


def _descend(start: _Batch, moments: _Moments, config: FitConfig) -> list[RestartResult]:
    """Backtracking descent of every restart in lock step.

    Each restart keeps its own step. A backtracking round evaluates the
    whole batch; restarts that have accepted discard their candidates. A
    restart leaves the batch where it would stop alone, so the loop runs
    max(iterations) times and each restart ends as it would alone.
    """
    batch = _project(start)
    objective, residuals = _residuals(batch, moments)
    grads = _gradients(batch, residuals)
    steps = np.full(objective.shape, config.initial_step)
    ids = np.arange(objective.shape[0])
    results: list[RestartResult] = [None] * ids.shape[0]  # type: ignore[list-item]
    iterations = 0

    def leave(mask: np.ndarray, stop_reason: str) -> None:
        nonlocal batch, objective, residuals, grads, steps, ids
        if not mask.any():
            return
        for i in np.flatnonzero(mask):
            results[ids[i]] = RestartResult(
                float(objective[i]), iterations, batch.model(i), stop_reason
            )
        keep = ~mask
        batch, residuals, grads = batch.take(keep), residuals.take(keep), grads.take(keep)
        objective, steps, ids = objective[keep], steps[keep], ids[keep]

    for _ in range(config.max_iters):
        # the largest gradient entry; the joint map's fixed zeros never exceed it
        leave(np.abs(grads.params).max(axis=1) < config.grad_tol, "grad_tol")
        searching = steps >= config.min_step
        accepted = np.zeros_like(searching)
        while searching.any():
            candidate = _project(batch.moved(np.where(searching, steps, 0.0), grads))
            candidate_objective, candidate_residuals = _residuals(candidate, moments)
            better = searching & (candidate_objective < objective)
            batch = candidate.where(better, batch)
            objective = np.where(better, candidate_objective, objective)
            residuals = candidate_residuals.where(better, residuals)
            steps = np.where(
                better,
                np.minimum(steps * STEP_GROWTH, 1e6),
                np.where(searching, steps * 0.5, steps),
            )
            accepted |= better
            searching &= ~better & (steps >= config.min_step)
        iterations += 1
        leave(~accepted, "min_step")
        if not ids.shape[0]:
            break
        grads = _gradients(batch, residuals)
    leave(np.ones(ids.shape, dtype=bool), "max_iters")
    return results


def _data_driven_init(
    dataset: SyntheticDataset, topology: ScmTopology, moments: _Moments
) -> UnmixModel:
    """Whitening-style initialization from the averaged source covariance."""
    n = topology.num_latents
    avg_cov = moments.covariances[:, :n, :n].mean(axis=0)
    jitter = 1e-10 * max(float(np.trace(avg_cov)) / n, 1.0)
    mixing = np.linalg.cholesky(avg_cov + jitter * np.eye(n))
    est_latents = np.linalg.solve(mixing, dataset.x.T).T
    means = np.zeros((dataset.num_environments, n))
    variances = np.ones((dataset.num_environments, n))
    for e in range(dataset.num_environments):
        rows = dataset.env_rows(e)
        means[e] = est_latents[rows].mean(axis=0)
        variances[e] = np.maximum(est_latents[rows].var(axis=0), VARIANCE_FLOOR)
    parent_indices = topology.parent_indices()
    task_maps = []
    for k, parents in enumerate(parent_indices):
        if parents:
            design = est_latents[:, list(parents)]
            solution, *_ = np.linalg.lstsq(design, dataset.y[k], rcond=None)
            task_maps.append(solution.T)
        else:
            task_maps.append(np.zeros((0, 0)))
    return UnmixModel(mixing, means, variances, tuple(task_maps), parent_indices)


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
    parent_indices = topology.parent_indices()
    task_maps = tuple(nonsingular(len(parents)) for parents in parent_indices)
    return UnmixModel(mixing, means, variances, task_maps, parent_indices)


def _starts(
    dataset: SyntheticDataset,
    topology: ScmTopology,
    moments: _Moments,
    config: FitConfig,
    init: UnmixModel | None,
) -> list[UnmixModel]:
    """Starting model of each restart, in restart order."""
    first = init if init is not None else _data_driven_init(dataset, topology, moments)
    rng = stream(FIT_INIT, config.seed)
    return [first] + [
        _random_init(rng, topology, dataset.num_environments) for _ in range(config.restarts - 1)
    ]


def fit(
    dataset: SyntheticDataset,
    topology: ScmTopology,
    config: FitConfig = FitConfig(),
    init: UnmixModel | None = None,
) -> FitResult:
    """Match per-environment joint moments by multi-restart descent.

    All restarts descend together as one batch; each restart's result is
    the one it would reach alone. Restart 0 starts from the supplied ``init`` when given, otherwise
    from a whitening-style data-driven guess; later restarts draw random
    parameters from the fit stream of ``config.seed``. The best restart
    by final objective wins, ties going to the earliest. An ``init``
    whose shapes do not match the topology and the dataset's
    environments raises ``ShapeError``.
    """
    _check_dataset(dataset, topology)
    if init is not None:
        _check_init(init, topology, dataset.num_environments)
    moments = _empirical_moments(dataset)
    starts = _Batch.of(_starts(dataset, topology, moments, config, init))
    restarts = _descend(starts, moments, config)
    best = min(restarts, key=lambda res: res.objective)
    if best.model.singular_ratio() <= SINGULAR_RATIO:
        raise SingularModelError("every restart collapsed to a singular mixing map")
    return FitResult(model=best.model, objective=best.objective, restarts=restarts)


def recover_latents(model: UnmixModel, x: np.ndarray) -> np.ndarray:
    """Invert the fitted mixing map on source observations."""
    if model.singular_ratio() <= SINGULAR_RATIO:
        raise SingularModelError("mixing map is numerically singular")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.mixing.shape[0]:
        raise ShapeError(f"observations must be (samples x {model.mixing.shape[0]})")
    return np.linalg.solve(model.mixing, x.T).T


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


def match_permutation(true_latents: np.ndarray, est_latents: np.ndarray) -> MatchResult:
    """Exhaustive search for the correlation-maximizing permutation.

    Ties resolve to the lexicographically smallest permutation. Absolute
    Pearson correlation is invariant to per-column affine rescaling of
    either side.
    """
    true_arr = np.asarray(true_latents, dtype=np.float64)
    est_arr = np.asarray(est_latents, dtype=np.float64)
    if true_arr.shape != est_arr.shape or true_arr.ndim != 2:
        raise ShapeError(
            f"latent arrays must share a 2-d shape, got {true_arr.shape} and {est_arr.shape}"
        )
    n = true_arr.shape[1]
    if n > MAX_FIT_LATENTS:
        raise CapacityError(f"permutation search supports at most {MAX_FIT_LATENTS} latents")
    true_centered = true_arr - true_arr.mean(axis=0)
    est_centered = est_arr - est_arr.mean(axis=0)
    true_norm = np.linalg.norm(true_centered, axis=0)
    est_norm = np.linalg.norm(est_centered, axis=0)
    if np.any(true_norm == 0) or np.any(est_norm == 0):
        raise DegenerateError("a latent column has zero variance")
    corr = np.abs(true_centered.T @ est_centered) / np.outer(true_norm, est_norm)
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
    if seeds < 1:
        raise ConfigError("need at least one seed")
    if not uic_check(spec_ident.topology):
        raise ConfigError("the identifiable spec fails the column-distinctness check")
    violations = uic_violations(spec_collide.topology)
    if not violations:
        raise ConfigError("the colliding spec has no colliding latent pair")
    pair = violations[0]
    jobs = []
    for spec in (spec_ident, spec_collide):
        for s in range(seeds):
            jobs.append((spec, config, samples_per_env, check_seed(config.seed) + s))
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
