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
import statistics
from dataclasses import dataclass, replace

import numpy as np

from ._parallel import parallel_map
from ._rng import FIT_INIT, check_seed, stream
from .dgp import DgpSpec, SyntheticDataset, generate_dataset, singular_ratio
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

    def copy(self) -> "UnmixModel":
        return UnmixModel(
            self.mixing.copy(),
            self.env_means.copy(),
            self.env_variances.copy(),
            tuple(b.copy() for b in self.task_maps),
            self.parent_indices,
        )

    def singular_ratio(self) -> float:
        return singular_ratio(self.mixing)


@dataclass
class RestartResult:
    objective: float
    iterations: int
    model: UnmixModel


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
    means = np.zeros((dataset.num_environments, q))
    covs = np.zeros((dataset.num_environments, q, q))
    for e in range(dataset.num_environments):
        rows = dataset.env_rows(e)
        if rows.shape[0] < 2:
            raise DataError(f"environment {e} needs at least 2 samples, has {rows.shape[0]}")
        block = joint[rows]
        mean = block.mean(axis=0)
        centered = block - mean
        means[e] = mean
        covs[e] = centered.T @ centered / rows.shape[0]
    return _Moments(means, covs)


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


def _stacked_map(model: UnmixModel, q: int) -> np.ndarray:
    n = model.mixing.shape[0]
    stacked = np.zeros((q, n))
    stacked[:n] = model.mixing
    row = n
    for b, parents in zip(model.task_maps, model.parent_indices):
        width = len(parents)
        stacked[row : row + width, list(parents)] = b
        row += width
    return stacked


@dataclass(frozen=True)
class _Residuals:
    """Per-environment moment residuals of one model, kept for its gradient."""

    stacked: np.ndarray  # (q, n) joint map
    scaled: list[np.ndarray]  # per env: stacked * variances
    means: list[np.ndarray]  # per env: model minus empirical mean, (q,)
    covariances: list[np.ndarray]  # per env: model minus empirical covariance, (q, q)


def _residuals(model: UnmixModel, moments: _Moments) -> tuple[float, _Residuals]:
    """Objective (summed squared residuals) and the residuals behind it."""
    q = moments.means.shape[1]
    stacked = _stacked_map(model, q)
    objective = 0.0
    scaled_maps, mean_resids, cov_resids = [], [], []
    for e in range(moments.means.shape[0]):
        scaled = stacked * model.env_variances[e][None, :]
        mean_resid = stacked @ model.env_means[e] - moments.means[e]
        cov_resid = scaled @ stacked.T - moments.covariances[e]
        objective += float(mean_resid @ mean_resid) + float((cov_resid * cov_resid).sum())
        scaled_maps.append(scaled)
        mean_resids.append(mean_resid)
        cov_resids.append(cov_resid)
    return objective, _Residuals(stacked, scaled_maps, mean_resids, cov_resids)


def _gradients(model: UnmixModel, residuals: _Residuals):
    """Objective gradient per parameter block: F, means, variances, each B."""
    n = model.mixing.shape[0]
    stacked = residuals.stacked
    d_stacked = np.zeros_like(stacked)
    d_means = np.zeros_like(model.env_means)
    d_vars = np.zeros_like(model.env_variances)
    for e, (scaled, mean_resid, cov_resid) in enumerate(
        zip(residuals.scaled, residuals.means, residuals.covariances)
    ):
        d_stacked += 2.0 * np.outer(mean_resid, model.env_means[e]) + 4.0 * (cov_resid @ scaled)
        d_means[e] = 2.0 * (stacked.T @ mean_resid)
        back = cov_resid @ stacked
        d_vars[e] = 2.0 * np.einsum("qi,qi->i", stacked, back)
    d_mixing = d_stacked[:n]
    d_task_maps = []
    row = n
    for parents in model.parent_indices:
        width = len(parents)
        d_task_maps.append(d_stacked[row : row + width][:, list(parents)])
        row += width
    return d_mixing, d_means, d_vars, d_task_maps


def _grad_norm(d_mixing, d_means, d_vars, d_task_maps) -> float:
    parts = [np.abs(d_mixing).max(), np.abs(d_means).max(), np.abs(d_vars).max()]
    parts += [np.abs(b).max() for b in d_task_maps if b.size]
    return float(max(parts))


def _reproject(matrix: np.ndarray) -> np.ndarray:
    """Push a near-singular square map back to the allowed region."""
    u, s, vt = np.linalg.svd(matrix)
    floor = max(s[0], 1.0) * 10 * SINGULAR_RATIO
    return (u * np.maximum(s, floor)) @ vt


def _project(model: UnmixModel) -> UnmixModel:
    model.env_variances = np.maximum(model.env_variances, VARIANCE_FLOOR)
    if model.singular_ratio() <= SINGULAR_RATIO:
        model.mixing = _reproject(model.mixing)
    for t, b in enumerate(model.task_maps):
        if b.size and singular_ratio(b) <= SINGULAR_RATIO:
            new_maps = list(model.task_maps)
            new_maps[t] = _reproject(b)
            model.task_maps = tuple(new_maps)
    return model


def _descend(model: UnmixModel, moments: _Moments, config: FitConfig) -> RestartResult:
    model = _project(model.copy())
    objective, residuals = _residuals(model, moments)
    grads = _gradients(model, residuals)
    step = config.initial_step
    iterations = 0
    for _ in range(config.max_iters):
        d_mixing, d_means, d_vars, d_task_maps = grads
        if _grad_norm(d_mixing, d_means, d_vars, d_task_maps) < config.grad_tol:
            break
        accepted = False
        while step >= config.min_step:
            candidate = _project(
                UnmixModel(
                    model.mixing - step * d_mixing,
                    model.env_means - step * d_means,
                    model.env_variances - step * d_vars,
                    tuple(b - step * g for b, g in zip(model.task_maps, d_task_maps)),
                    model.parent_indices,
                )
            )
            candidate_objective, candidate_residuals = _residuals(candidate, moments)
            if candidate_objective < objective:
                model = candidate
                objective = candidate_objective
                residuals = candidate_residuals
                step = min(step * STEP_GROWTH, 1e6)
                accepted = True
                break
            step *= 0.5
        iterations += 1
        if not accepted:
            break
        grads = _gradients(model, residuals)
    return RestartResult(objective=objective, iterations=iterations, model=model)


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


def fit(
    dataset: SyntheticDataset,
    topology: ScmTopology,
    config: FitConfig = FitConfig(),
    init: UnmixModel | None = None,
) -> FitResult:
    """Match per-environment joint moments by multi-restart descent.

    Restart 0 starts from the supplied ``init`` when given, otherwise
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
    rng = stream(FIT_INIT, config.seed)
    restarts: list[RestartResult] = []
    for r in range(config.restarts):
        if r == 0:
            start = init.copy() if init is not None else _data_driven_init(
                dataset, topology, moments
            )
        else:
            start = _random_init(rng, topology, dataset.num_environments)
        restarts.append(_descend(start, moments, config))
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
    workers: int | None = None,
) -> ExperimentReport:
    """Run the recovery pipeline on both specs over fresh seeds.

    Per-seed data seeds are ``config.seed + s``; seeds may be processed
    in parallel worker processes, merged back in seed order.
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
    outcomes = parallel_map(_run_experiment_seed, jobs, workers)
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
