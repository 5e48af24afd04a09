from dataclasses import replace

import numpy as np
import pytest

from conftest import colliding_spec, identifiable_spec
from helpers import brute_force_best_matching, central_difference, relative_gradient_error
from scm_ident import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateError,
    FitConfig,
    ScmTopology,
    ShapeError,
    SingularModelError,
    SyntheticDataset,
    UnmixModel,
    fit,
    generate_dataset,
    identifiability_experiment,
    match_permutation,
    recover_latents,
)
from scm_ident import recovery
from scm_ident.recovery import _empirical_moments, _gradients, _residuals


def truth_model(spec) -> UnmixModel:
    return UnmixModel(
        spec.mixing.matrix.copy(),
        spec.prior.means.copy(),
        spec.prior.variances.copy(),
        tuple(b.copy() for b in spec.mixing.task_maps),
        spec.mixing.parent_indices,
    )


def moment_exact_dataset(spec, samples_per_env: int, seed: int) -> SyntheticDataset:
    """Zero-noise dataset whose per-env latent moments equal the prior exactly.

    Latent columns are orthonormalized and rescaled per environment, so the
    empirical joint moments coincide with the population moments of the
    true parameters up to float round-off.
    """
    rng = np.random.default_rng(seed)
    n = spec.topology.num_latents
    blocks = []
    for e in range(spec.prior.num_environments):
        raw = rng.standard_normal((samples_per_env, n))
        raw -= raw.mean(axis=0)
        q, _ = np.linalg.qr(raw)
        latents = spec.prior.means[e] + q * np.sqrt(
            samples_per_env * spec.prior.variances[e]
        )
        from scm_ident import generate_observed

        x, y = generate_observed(spec.mixing, spec.noise, latents)
        blocks.append((np.full(samples_per_env, e, dtype=np.int64), latents, x, y))
    return SyntheticDataset(
        spec.prior.num_environments,
        np.concatenate([b[0] for b in blocks]),
        np.vstack([b[1] for b in blocks]),
        np.vstack([b[2] for b in blocks]),
        tuple(np.vstack([b[3][t] for b in blocks]) for t in range(spec.topology.num_tasks)),
    )


class TestMatchPermutation:
    def test_identity(self):
        rng = np.random.default_rng(0)
        latents = rng.standard_normal((500, 3))
        match = match_permutation(latents, latents)
        assert match.permutation == (0, 1, 2)
        np.testing.assert_allclose(match.per_latent_abs_corr, 1.0, atol=1e-12)
        assert 0.0 <= match.mcc <= 1.0

    def test_swap_scale_negate_invariance(self):
        rng = np.random.default_rng(1)
        latents = rng.standard_normal((500, 2))
        est = np.column_stack([-3.0 * latents[:, 1] + 5.0, 0.5 * latents[:, 0]])
        match = match_permutation(latents, est)
        assert match.permutation == (1, 0)
        np.testing.assert_allclose(match.per_latent_abs_corr, [1.0, 1.0], atol=1e-12)

    def test_mixed_columns_below_one(self):
        rng = np.random.default_rng(2)
        latents = rng.standard_normal((2000, 2))
        blended = latents.mean(axis=1)
        est = np.column_stack([blended, blended + 1e-3 * rng.standard_normal(2000)])
        match = match_permutation(latents, est)
        assert match.mcc < 0.95
        perm, best = brute_force_best_matching(latents, est)
        assert match.mcc == pytest.approx(best, abs=1e-9)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            latents = rng.standard_normal((300, 4))
            est = latents @ rng.standard_normal((4, 4))
            match = match_permutation(latents, est)
            perm, best = brute_force_best_matching(latents, est)
            assert match.mcc == pytest.approx(best, abs=1e-9)

    def test_zero_variance_is_degenerate(self):
        latents = np.random.default_rng(0).standard_normal((100, 2))
        bad = latents.copy()
        bad[:, 1] = 1.0
        with pytest.raises(DegenerateError):
            match_permutation(latents, bad)

    def test_capacity_limit(self):
        wide = np.random.default_rng(0).standard_normal((20, 9))
        with pytest.raises(CapacityError):
            match_permutation(wide, wide)

    def test_mcc_values(self):
        from scm_ident.recovery import MatchResult

        assert MatchResult((0, 1), (1.0, 1.0)).mcc == 1.0
        assert MatchResult((0, 1), (1.0, 0.5)).mcc == 0.75

    def test_mcc_symmetric_under_latent_reordering(self):
        rng = np.random.default_rng(6)
        latents = rng.standard_normal((400, 3))
        est = latents @ rng.standard_normal((3, 3))
        base = match_permutation(latents, est).mcc
        order = rng.permutation(3)
        shuffled = match_permutation(latents[:, order], est[:, rng.permutation(3)]).mcc
        assert shuffled == pytest.approx(base, abs=1e-12)


class TestRecoverLatents:
    def test_true_model_inverts_exactly(self, ident_spec):
        dataset = generate_dataset(ident_spec, 500, seed=8)
        recovered = recover_latents(truth_model(ident_spec), dataset.x)
        np.testing.assert_allclose(recovered, dataset.latents, rtol=1e-10, atol=1e-10)

    def test_scaled_model_scales_latents(self, ident_spec):
        dataset = generate_dataset(ident_spec, 200, seed=8)
        model = truth_model(ident_spec)
        model.mixing = 2.0 * model.mixing
        recovered = recover_latents(model, dataset.x)
        np.testing.assert_allclose(recovered, dataset.latents / 2.0, rtol=1e-9, atol=1e-10)
        match = match_permutation(dataset.latents, recovered)
        np.testing.assert_allclose(match.per_latent_abs_corr, [1.0, 1.0], atol=1e-12)

    def test_singular_model_rejected(self, ident_spec):
        model = truth_model(ident_spec)
        model.mixing = np.ones((2, 2))
        with pytest.raises(SingularModelError):
            recover_latents(model, np.zeros((3, 2)))


def perturbed_truth(spec, seed: int) -> UnmixModel:
    rng = np.random.default_rng(seed)
    truth = truth_model(spec)
    return UnmixModel(
        truth.mixing + 0.1 * rng.standard_normal(truth.mixing.shape),
        truth.env_means + 0.1 * rng.standard_normal(truth.env_means.shape),
        truth.env_variances * np.exp(0.1 * rng.standard_normal(truth.env_variances.shape)),
        tuple(b + 0.1 * rng.standard_normal(b.shape) for b in truth.task_maps),
        truth.parent_indices,
    )


def block_value(model: UnmixModel, block: str) -> np.ndarray:
    if block.startswith("B"):
        return model.task_maps[int(block[1:])]
    return getattr(model, block)


def with_block(model: UnmixModel, block: str, value: np.ndarray) -> UnmixModel:
    if block.startswith("B"):
        k = int(block[1:])
        maps = model.task_maps[:k] + (value,) + model.task_maps[k + 1 :]
        return replace(model, task_maps=maps)
    return replace(model, **{block: value})


def block_cases():
    for spec_fn in (identifiable_spec, colliding_spec):
        tasks = spec_fn().topology.num_tasks
        for block in ("mixing", "env_means", "env_variances", *(f"B{k}" for k in range(tasks))):
            yield pytest.param(spec_fn, block, id=f"{spec_fn.__name__}-{block}")


class TestFitGradient:
    @pytest.mark.parametrize("spec_fn, block", list(block_cases()))
    def test_gradient_matches_central_difference(self, spec_fn, block):
        spec = spec_fn()
        moments = _empirical_moments(generate_dataset(spec, 500, seed=12))
        model = perturbed_truth(spec, seed=13)
        d_mixing, d_means, d_vars, d_task_maps = _gradients(model, _residuals(model, moments)[1])
        analytic = {"mixing": d_mixing, "env_means": d_means, "env_variances": d_vars}
        analytic.update({f"B{k}": g for k, g in enumerate(d_task_maps)})
        numeric = central_difference(
            lambda value: _residuals(with_block(model, block, value), moments)[0],
            block_value(model, block),
        )
        assert np.abs(numeric).max() > 1e-3  # the check is not vacuous
        assert relative_gradient_error(analytic[block], numeric) < 1e-6

    def test_one_objective_evaluation_per_projected_model(self, ident_spec, monkeypatch):
        calls = {"project": 0, "residuals": 0, "gradients": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(recovery, "_project", counted("project", recovery._project))
        monkeypatch.setattr(recovery, "_residuals", counted("residuals", recovery._residuals))
        monkeypatch.setattr(recovery, "_gradients", counted("gradients", recovery._gradients))
        dataset = generate_dataset(ident_spec, 2000, seed=9)
        result = fit(dataset, ident_spec.topology, FitConfig(restarts=1, max_iters=20, seed=9))
        assert result.restarts[0].iterations == 20
        # every backtracking candidate (and the start) is projected, then evaluated once
        assert calls["residuals"] == calls["project"] > 20
        # one gradient at the start and one per accepted step
        assert calls["gradients"] == 21


class TestFit:
    def test_truth_is_a_fixed_point_of_population_moments(self, ident_spec):
        dataset = moment_exact_dataset(ident_spec, 4000, seed=5)
        truth = truth_model(ident_spec)
        floor = _residuals(truth, _empirical_moments(dataset))[0]
        assert floor <= 1e-18
        result = fit(dataset, ident_spec.topology, FitConfig(restarts=1, seed=5), init=truth_model(ident_spec))
        assert result.objective <= floor + 1e-18
        for estimate, target in (
            (result.model.mixing, truth.mixing),
            (result.model.env_means, truth.env_means),
            (result.model.env_variances, truth.env_variances),
        ):
            move = np.abs(estimate - target).max() / np.abs(target).max()
            assert move < 1e-3

    def test_best_restart_near_truth_objective(self, ident_spec):
        dataset = generate_dataset(ident_spec, 20000, seed=6)
        floor = _residuals(truth_model(ident_spec), _empirical_moments(dataset))[0]
        result = fit(dataset, ident_spec.topology, FitConfig(restarts=8, seed=6))
        assert result.objective <= 10.0 * floor

    def test_single_environment_is_non_unique(self, ident_spec):
        from scm_ident import DgpSpec, ExpFamilyPrior

        one_env = DgpSpec(
            ident_spec.topology,
            ExpFamilyPrior(means=[[0.2, -0.1]], variances=[[1.0, 1.0]]),
            ident_spec.mixing,
            ident_spec.noise,
        )
        dataset = generate_dataset(one_env, 20000, seed=4)
        result = fit(dataset, ident_spec.topology, FitConfig(restarts=6, seed=4))
        objectives = np.array([r.objective for r in result.restarts])
        near_equal = objectives <= objectives.min() * 10.0 + 1e-12
        assert near_equal.sum() >= 3
        maps = [r.model.mixing for i, r in enumerate(result.restarts) if near_equal[i]]
        spread = max(
            np.abs(a - b).max() / np.abs(a).max()
            for i, a in enumerate(maps)
            for b in maps[i + 1 :]
        )
        assert spread > 0.2

    def test_objective_monotone_in_iteration_budget(self, ident_spec):
        dataset = generate_dataset(ident_spec, 5000, seed=10)
        objectives = [
            fit(
                dataset,
                ident_spec.topology,
                FitConfig(restarts=1, max_iters=budget, seed=10),
            ).objective
            for budget in (1, 5, 25, 125, 600)
        ]
        assert all(a >= b for a, b in zip(objectives, objectives[1:]))

    def test_schema_mismatch_rejected(self, ident_spec):
        dataset = generate_dataset(ident_spec, 100, seed=0)
        other = ScmTopology.from_rows([[1, 1], [0, 1]])
        with pytest.raises(DataError):
            fit(dataset, other, FitConfig(restarts=1))

    @pytest.mark.parametrize(
        "blocks,rows",
        [
            pytest.param(1, [[1, 0], [0, 1]], id="absent-block-of-task-with-parents"),
            pytest.param(2, [[1, 0]], id="block-beyond-last-task"),
        ],
    )
    def test_task_block_count_mismatch_rejected(self, ident_spec, blocks, rows):
        dataset = generate_dataset(ident_spec, 100, seed=0)
        dataset = replace(dataset, y=dataset.y[:blocks])
        with pytest.raises(DataError, match="task blocks"):
            fit(dataset, ScmTopology.from_rows(rows), FitConfig(restarts=1))

    def test_capacity_limit(self):
        wide = ScmTopology.from_rows([[1] * 9])
        dataset = SyntheticDataset(
            1,
            np.zeros(10, dtype=np.int64),
            np.zeros((10, 9)),
            np.zeros((10, 9)),
            (np.zeros((10, 9)),),
        )
        with pytest.raises(CapacityError):
            fit(dataset, wide, FitConfig(restarts=1))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mixing", np.eye(3)),
            ("env_means", np.zeros((1, 2))),
            ("env_variances", np.ones((3, 3))),
            ("task_maps", (np.eye(1),)),
            ("task_maps", (np.eye(1), np.eye(2))),
            ("parent_indices", ((0,), (0,))),
        ],
    )
    def test_mismatched_init_rejected(self, ident_spec, field, value):
        dataset = generate_dataset(ident_spec, 100, seed=0)
        init = replace(truth_model(ident_spec), **{field: value})
        with pytest.raises(ShapeError):
            fit(dataset, ident_spec.topology, FitConfig(restarts=1), init=init)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FitConfig(restarts=0)
        with pytest.raises(ConfigError):
            FitConfig(initial_step=-1.0)


class TestEndToEnd:
    def test_identifiable_pipeline_recovers(self, ident_spec):
        dataset = generate_dataset(ident_spec, 20000, seed=7)
        result = fit(dataset, ident_spec.topology, FitConfig(restarts=8, seed=7))
        estimated = recover_latents(result.model, dataset.x)
        match = match_permutation(dataset.latents, estimated)
        assert match.mcc >= 0.99

    def test_truth_bypass_yields_perfect_mcc(self, ident_spec, collide_spec):
        for spec in (ident_spec, collide_spec):
            dataset = generate_dataset(spec, 2000, seed=3)
            match = match_permutation(dataset.latents, dataset.latents.copy())
            assert match.mcc == pytest.approx(1.0, abs=1e-6)

    def test_colliding_pipeline_mixes_latents(self, collide_spec):
        dataset = generate_dataset(collide_spec, 20000, seed=7)
        result = fit(dataset, collide_spec.topology, FitConfig(restarts=8, seed=7))
        estimated = recover_latents(result.model, dataset.x)
        match = match_permutation(dataset.latents, estimated)
        assert match.mcc < 0.95


class TestExperiment:
    def test_preconditions_enforced(self, ident_spec, collide_spec):
        with pytest.raises(ConfigError):
            identifiability_experiment(collide_spec, collide_spec, FitConfig(restarts=1), seeds=1)
        with pytest.raises(ConfigError):
            identifiability_experiment(ident_spec, ident_spec, FitConfig(restarts=1), seeds=1)

    def test_small_contrast_run(self, ident_spec, collide_spec):
        report = identifiability_experiment(
            ident_spec,
            collide_spec,
            FitConfig(restarts=3, seed=1),
            seeds=3,
            samples_per_env=4000,
        )
        assert len(report.identifiable.per_seed) == 3
        assert report.colliding_pair == (0, 1)
        assert report.identifiable.median_mcc >= 0.99
        assert report.colliding.median_mcc <= report.identifiable.median_mcc
        assert len(report.colliding_pair_corr_per_seed) == 3
        assert report.dispersion_range >= 0.0

    def test_parallel_matches_serial(self, ident_spec, collide_spec, monkeypatch):
        kwargs = dict(
            config=FitConfig(restarts=2, seed=2), seeds=2, samples_per_env=2000
        )
        serial = identifiability_experiment(ident_spec, collide_spec, workers=1, **kwargs)
        monkeypatch.setenv("SCM_IDENT_THREADS", "2")
        parallel = identifiability_experiment(ident_spec, collide_spec, workers=2, **kwargs)
        assert serial == parallel
