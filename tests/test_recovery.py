import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PARENTLESS_TASK_ROWS, colliding_spec, identifiable_spec, parentless_task_spec
from helpers import (
    brute_force_best_matching,
    central_difference,
    reference_data_driven_start,
    reference_moments,
    relative_gradient_error,
    unscaled_standardised,
)
from scm_ident import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateError,
    DgpSpec,
    ExpFamilyPrior,
    FitConfig,
    ScmTopology,
    ShapeError,
    SingularModelError,
    SyntheticDataset,
    UnmixModel,
    fit,
    fit_many,
    generate_dataset,
    identifiability_experiment,
    match_permutation,
    recover_latents,
)
from scm_ident import _parallel, recovery
from scm_ident.dgp import singular_ratio
from scm_ident.recovery import (
    SeedOutcome,
    _Batch,
    _data_driven_init,
    _empirical_moments,
    _normal_equations,
    _objective,
    _project,
    _residuals,
    _run_arm_job,
    _solve,
    _standardised,
    _starts,
)


def objective(model: UnmixModel, topology, moments) -> float:
    """The fit objective of one model, evaluated as a batch of one."""
    return float(_objective(_Batch.of([(model, moments)], topology))[0])


def truth_model(spec) -> UnmixModel:
    return UnmixModel(
        spec.source_map.copy(),
        spec.prior.means.copy(),
        spec.prior.variances.copy(),
        tuple(b.copy() for b in spec.task_maps),
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

        x, y = generate_observed(spec, latents)
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

    def test_ties_go_to_the_lexicographically_smallest_permutation(self):
        latents = np.random.default_rng(4).standard_normal((500, 3))
        # estimates 0 and 1 are one column, so (0, 1, 2) and (1, 0, 2) tie exactly
        match = match_permutation(latents, latents[:, [1, 1, 2]])
        assert match.permutation == (0, 1, 2)

    @pytest.mark.parametrize("value", [1.0, 0.1, 0.0])
    def test_zero_variance_is_degenerate(self, value):
        # 0.1 is not exactly the mean of a thousand 0.1s
        latents = np.random.default_rng(0).standard_normal((1000, 2))
        bad = latents.copy()
        bad[:, 1] = value
        with pytest.raises(DegenerateError):
            match_permutation(latents, bad)

    def test_extreme_magnitudes_match_exactly(self):
        latents = np.random.default_rng(0).standard_normal((50, 2))
        for k in range(-300, 301):
            match = match_permutation(latents * 10.0**k, latents)
            assert match.permutation == (0, 1)
            np.testing.assert_allclose(match.per_latent_abs_corr, 1.0, rtol=0, atol=1e-12)

    def test_a_huge_constant_column_is_degenerate(self):
        latents = np.random.default_rng(0).standard_normal((50, 2))
        bad = latents.copy()
        bad[:, 1] = 3e200
        with pytest.raises(DegenerateError, match="zero variance"):
            match_permutation(latents, bad)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 40).flatmap(
            lambda rows: st.lists(
                st.tuples(
                    st.integers(-100, 99),
                    st.lists(
                        st.one_of(st.just(0.0), st.floats(1, 10), st.floats(-10, -1)),
                        min_size=rows,
                        max_size=rows,
                    ),
                ),
                min_size=1,
                max_size=3,
            )
        )
    )
    def test_rescaling_changes_no_bit_in_the_normal_range(self, columns):
        # column j is its digits times 10**k_j: magnitudes 0 or within [1e-100, 1e100]
        latents = np.column_stack([np.array(digits) * 10.0**k for k, digits in columns])
        want = unscaled_standardised(latents)
        if want is None:
            with pytest.raises(DegenerateError):
                _standardised(latents)
        else:
            assert _standardised(latents).tobytes() == want.tobytes()

    def test_capacity_limit(self):
        wide = np.random.default_rng(0).standard_normal((20, 9))
        with pytest.raises(CapacityError):
            match_permutation(wide, wide)

    @pytest.mark.parametrize("shape", [(5, 0), (0, 2)])
    def test_no_sample_or_no_latent_is_a_shape_error(self, shape):
        empty = np.zeros(shape)
        with pytest.raises(ShapeError, match="^latent arrays must share a 2-d shape with a sample"):
            match_permutation(empty, empty)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_latents_are_a_data_error(self, value):
        latents = np.random.default_rng(0).standard_normal((20, 2))
        bad = latents.copy()
        bad[3, 1] = value
        for pair in [(bad, latents), (latents, bad)]:
            with pytest.raises(DataError, match="^latent arrays must be finite$"):
                match_permutation(*pair)

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

    def test_memory_layout_does_not_change_the_result(self):
        rng = np.random.default_rng(7)
        latents = rng.standard_normal((5000, 3)) * [1.0, 10.0, 100.0] + 3.0
        est = latents @ rng.standard_normal((3, 3)) + 0.1 * rng.standard_normal((5000, 3))
        want = match_permutation(latents, est)
        for true_order, est_order in (("F", "F"), ("F", "C"), ("C", "F")):
            got = match_permutation(
                np.asarray(latents, order=true_order), np.asarray(est, order=est_order)
            )
            assert got == want
        assert match_permutation(latents[::2], est[::2]) == match_permutation(
            latents[::2].copy(), est[::2].copy()
        )


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

    def test_near_singular_model_inverts(self):
        rng = np.random.default_rng(11)
        rotations = [np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2)]
        mixing = rotations[0] @ np.diag([1.0, 1e-3, 1e-6]) @ rotations[1].T
        assert singular_ratio(mixing) == pytest.approx(1e-6, rel=1e-6)
        latents = rng.standard_normal((2000, 3))
        model = UnmixModel(mixing, np.zeros((1, 3)), np.ones((1, 3)), ())
        recovered = recover_latents(model, latents @ mixing.T)
        np.testing.assert_allclose(recovered, latents, rtol=0, atol=1e-8)

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


def interior_parentless_spec():
    return parentless_task_spec(PARENTLESS_TASK_ROWS["interior"])


def block_cases():
    for spec_fn in (identifiable_spec, colliding_spec, interior_parentless_spec):
        parents = spec_fn().topology.parent_indices()
        maps = [f"B{k}" for k, p in enumerate(parents) if p]  # a parentless task has no entries
        for block in ("mixing", "env_means", "env_variances", *maps):
            yield pytest.param(spec_fn, block, id=f"{spec_fn.__name__}-{block}")


def block_columns(batch, block: str) -> np.ndarray:
    """The free-parameter columns of one block's entries, shaped like the block."""
    positions = batch.take([0])
    positions.params[0] = np.arange(batch.params.shape[1])
    full = block_value(positions.model(0), block).astype(int)
    column = np.empty(batch.params.shape[1], dtype=int)
    column[batch.layout.free] = np.arange(batch.layout.free.size)
    return column[full]


def residual_vector(batch) -> np.ndarray:
    """The first restart's residuals: per environment the mean's, then the covariance's."""
    _, means, covariances = (part[0] for part in _residuals(batch))
    return np.concatenate([means, covariances.reshape(means.shape[0], -1)], axis=1).ravel()


def numeric_jacobian(batch) -> np.ndarray:
    """Central differences of the first restart's residual vector in every free parameter."""
    columns = []
    for position in batch.layout.free:
        values = []
        for delta in (1e-6, -1e-6):
            bumped = batch.take([0])
            bumped.params[0, position] += delta
            values.append(residual_vector(bumped))
        columns.append((values[0] - values[1]) / 2e-6)
    return np.column_stack(columns)


def dense_normal_equations(normal, r: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Restart r's JᵀJ and Jᵀr from the blocks, as dense arrays in ``_Layout.free`` order."""
    envs = normal.rhs.shape[2]
    crossed = normal.crossed[r]
    matrix = np.block(
        [[normal.shared[r], crossed], [crossed.T, np.kron(normal.local[r], np.eye(envs))]]
    )
    return matrix, normal.half_gradient()[r]


class TestFitGradient:
    @staticmethod
    def case(spec_fn):
        spec = spec_fn()
        moments = _empirical_moments(generate_dataset(spec, 500, seed=12))
        return spec, moments, perturbed_truth(spec, seed=13)

    @pytest.mark.parametrize("spec_fn, block", list(block_cases()))
    def test_normal_equations_match_central_difference(self, spec_fn, block):
        spec, moments, model = self.case(spec_fn)
        batch = _Batch.of([(model, moments)], spec.topology)
        matrix, half_gradient = dense_normal_equations(_normal_equations(batch))
        jacobian = numeric_jacobian(batch)
        columns = block_columns(batch, block).ravel()
        # every free entry moves the residuals
        assert np.abs(jacobian[:, columns]).max(axis=0).min() > 1e-3
        # every row of the block's columns, the zeros between environments included
        want = jacobian.T @ jacobian[:, columns]
        assert relative_gradient_error(matrix[:, columns], want) < 1e-7
        want = jacobian[:, columns].T @ residual_vector(batch)
        assert relative_gradient_error(half_gradient[columns], want) < 1e-7

    @pytest.mark.parametrize("spec_fn, block", list(block_cases()))
    def test_gradient_matches_central_difference(self, spec_fn, block):
        spec, moments, model = self.case(spec_fn)
        batch = _Batch.of([(model, moments)], spec.topology)
        normal = _normal_equations(batch)
        gradient = 2.0 * normal.half_gradient()[0]
        numeric = central_difference(
            lambda value: objective(with_block(model, block, value), spec.topology, moments),
            block_value(model, block),
        )
        assert np.abs(numeric).max() > 1e-3  # the check is not vacuous
        analytic = gradient[block_columns(batch, block)]
        assert relative_gradient_error(analytic, numeric) < 1e-6

    @pytest.mark.parametrize(
        "spec_fn", [identifiable_spec, colliding_spec, interior_parentless_spec]
    )
    def test_step_solves_the_damped_normal_equations(self, spec_fn):
        spec, moments, model = self.case(spec_fn)
        models = [model, perturbed_truth(spec, seed=14)]
        batch = _Batch.of([(m, moments) for m in models], spec.topology)
        normal = _normal_equations(batch)
        damping = np.array([1e-3, 10.0])
        step, solved = normal.step(damping)
        assert solved.all()
        for r in range(2):
            matrix, half_gradient = dense_normal_equations(normal, r)
            matrix += damping[r] * np.diag(np.diag(matrix))
            want = np.linalg.solve(matrix, -half_gradient)
            assert relative_gradient_error(step[r], want) < 1e-9

    @staticmethod
    def count_calls(monkeypatch) -> dict:
        calls = {"project": 0, "objective": 0, "normal_equations": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(recovery, f"_{name}", counted(name, getattr(recovery, f"_{name}")))
        return calls

    def test_one_objective_evaluation_per_projected_model(self, ident_spec, monkeypatch):
        calls = self.count_calls(monkeypatch)
        dataset = generate_dataset(ident_spec, 2000, seed=9)
        result = fit(dataset, ident_spec.topology, FitConfig(restarts=1, max_iters=5, seed=9))
        assert result.restarts[0].iterations == 5
        # the start, then one projected and evaluated candidate per iteration
        assert calls["objective"] == calls["project"] == 6
        assert calls["normal_equations"] == 5

    def test_restarts_share_each_gradient_evaluation(self, ident_spec, monkeypatch):
        calls = self.count_calls(monkeypatch)
        dataset = generate_dataset(ident_spec, 2000, seed=9)
        result = fit(dataset, ident_spec.topology, FitConfig(restarts=3, seed=9))
        iterations = max(r.iterations for r in result.restarts)
        assert iterations > 3 and "max_iters" not in {r.stop_reason for r in result.restarts}
        # the batch moves in lock step: one normal-equation pass and one candidate batch
        # per iteration, not per restart; the last pass finds every remaining restart done
        assert calls["objective"] == calls["project"] == iterations + 1
        assert calls["normal_equations"] == iterations + 1

    def test_normal_equations_rebuilt_only_after_a_kept_step(self, collide_spec, monkeypatch):
        calls = self.count_calls(monkeypatch)
        objectives = []
        counted = recovery._objective

        def recorded(*args):
            objective = counted(*args)
            objectives.append(float(objective[0]))
            return objective

        monkeypatch.setattr(recovery, "_objective", recorded)
        dataset = generate_dataset(collide_spec, 2000, seed=4)
        result = fit(dataset, collide_spec.topology, FitConfig(restarts=1, seed=4))
        restart = result.restarts[0]
        assert restart.stop_reason != "max_iters"
        # the start's objective, then one candidate per iteration, kept when it is lower
        assert len(objectives) == restart.iterations + 1
        best, kept = objectives[0], 0
        for candidate in objectives[1:]:
            if candidate < best:
                best, kept = candidate, kept + 1
        assert kept < restart.iterations  # some steps were rejected
        assert calls["normal_equations"] == 1 + kept


class TestEmpiricalMoments:
    @pytest.mark.parametrize(
        "environments, interleaved", [(3, True), (6000, True), (6000, False)]
    )
    def test_moments_match_per_environment_scans(self, ident_spec, environments, interleaved):
        dataset = generate_dataset(ident_spec, 4000, seed=2)
        per_environment = dataset.env_ids.shape[0] // environments
        env_ids = np.repeat(np.arange(environments), per_environment)
        if interleaved:
            env_ids = np.random.default_rng(2).permutation(env_ids)
        dataset = replace(dataset, num_environments=environments, env_ids=env_ids)
        moments = _empirical_moments(dataset)
        want_means, want_covariances = reference_moments(dataset)
        np.testing.assert_allclose(moments.means, want_means, rtol=1e-12, atol=0)
        np.testing.assert_allclose(moments.covariances, want_covariances, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "spec",
    [identifiable_spec(), colliding_spec()]
    + [parentless_task_spec(rows) for rows in PARENTLESS_TASK_ROWS.values()],
    ids=["identifiable", "colliding", *(f"parentless-{place}" for place in PARENTLESS_TASK_ROWS)],
)
def test_data_driven_start_matches_row_based_reference(spec):
    dataset = generate_dataset(spec, 20000, seed=3)
    start = _data_driven_init(spec.topology, _empirical_moments(dataset))
    mixing, means, variances, task_maps = reference_data_driven_start(dataset, spec.topology)
    got = (start.mixing, start.env_means, start.env_variances, *start.task_maps)
    for block, want in zip(got, (mixing, means, variances, *task_maps), strict=True):
        assert block.shape == want.shape
        if want.size:
            assert np.abs(block - want).max() <= 1e-12 * np.abs(want).max()


class TestFit:
    def test_truth_is_a_fixed_point_of_population_moments(self, ident_spec):
        dataset = moment_exact_dataset(ident_spec, 4000, seed=5)
        truth = truth_model(ident_spec)
        floor = objective(truth, ident_spec.topology, _empirical_moments(dataset))
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
        floor = objective(truth_model(ident_spec), ident_spec.topology, _empirical_moments(dataset))
        result = fit(dataset, ident_spec.topology, FitConfig(restarts=8, seed=6))
        assert result.objective <= 10.0 * floor

    def test_single_environment_is_non_unique(self, ident_spec):
        from scm_ident import ExpFamilyPrior

        one_env = replace(
            ident_spec, prior=ExpFamilyPrior(means=[[0.2, -0.1]], variances=[[1.0, 1.0]])
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

    @pytest.mark.parametrize("last_id,has", [(10**15, 0), (3, 1)])
    def test_environment_short_of_samples_rejected(self, ident_spec, last_id, has):
        # a loaded CSV takes its environment count from the largest id
        dataset = generate_dataset(ident_spec, 100, seed=0)
        env_ids = dataset.env_ids.copy()
        env_ids[-1] = last_id
        dataset = replace(dataset, num_environments=last_id + 1, env_ids=env_ids)
        message = f"environment 3 needs at least 2 samples, has {has}"
        with pytest.raises(DataError, match=message):
            fit(dataset, ident_spec.topology, FitConfig(restarts=1))

    @pytest.mark.parametrize("short_id, other_id, has", [(1, 0, 1), (2, 0, 0)])
    def test_first_short_environment_reported(self, ident_spec, short_id, other_id, has):
        # of 3 environments, one row goes to `short_id` and the rest to `other_id`;
        # environment 1 is short first, with one row or with none
        dataset = generate_dataset(ident_spec, 100, seed=0)
        env_ids = np.full_like(dataset.env_ids, other_id)
        env_ids[0] = short_id
        dataset = replace(dataset, env_ids=env_ids)
        message = f"environment 1 needs at least 2 samples, has {has}"
        with pytest.raises(DataError, match=message):
            fit(dataset, ident_spec.topology, FitConfig(restarts=1))

    def test_many_environments_fit_in_linear_memory(self, ident_spec):
        # 3,000 rows dealt into 300 environments; one restart's dense Jacobian
        # would hold 300 * (4 + 4 * 4) * (6 + 2 * 300 * 2) doubles, 58 MB
        dataset = generate_dataset(ident_spec, 1000, seed=3)
        environments = 300
        env_ids = np.arange(dataset.env_ids.shape[0]) % environments
        dataset = replace(dataset, num_environments=environments, env_ids=env_ids)
        tracemalloc.start()
        try:
            result = fit(dataset, ident_spec.topology, FitConfig(restarts=2, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert {r.stop_reason for r in result.restarts} <= {"grad_tol", "min_step"}

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

    def test_source_width_must_match_the_topology(self, ident_spec):
        three = ScmTopology.from_rows([[1, 0, 1], [0, 1, 1]])
        dataset = generate_dataset(ident_spec, 100, seed=0)
        with pytest.raises(DataError, match="^dataset has 2 source columns, topology expects 3$"):
            fit(dataset, three, FitConfig(restarts=1))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mixing", np.eye(3)),
            ("env_means", np.zeros((1, 2))),
            ("env_variances", np.ones((3, 3))),
            ("task_maps", (np.eye(1),)),
            ("task_maps", (np.eye(1), np.eye(2))),
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
            FitConfig(restarts=recovery.MAX_RESTARTS + 1)
        with pytest.raises(ConfigError):
            FitConfig(min_step=-1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("restarts", True),
            ("restarts", 2.0),
            ("max_iters", True),
            ("max_iters", "10"),
            ("min_step", "0.1"),
            ("min_step", True),
            ("grad_tol", None),
            ("min_step", float("inf")),
            ("min_step", float("nan")),
            ("seed", True),
        ],
    )
    def test_config_types_checked(self, field, value):
        with pytest.raises(ConfigError, match=field):
            FitConfig(**{field: value})

    def test_config_accepts_numpy_and_integer_numbers(self):
        config = FitConfig(restarts=np.int64(2), max_iters=5, min_step=1, grad_tol=np.float64(1e-6))
        assert config.restarts == 2 and config.min_step == 1


def restart_bytes(restart) -> tuple:
    model = restart.model
    arrays = (model.mixing, model.env_means, model.env_variances, *model.task_maps)
    return (
        np.float64(restart.objective).tobytes(),
        restart.iterations,
        restart.stop_reason,
        *((a.shape, a.dtype.str, a.tobytes()) for a in arrays),
    )


def assert_restarts_match_lone_fits(dataset, topology, config, init=None) -> list:
    """Every restart of the batched fit equals a one-restart fit from its start, bit for bit."""
    result = fit(dataset, topology, config, init=init)
    starts = _starts(topology, _empirical_moments(dataset), config, init)
    assert len(result.restarts) == len(starts) == config.restarts
    for got, start in zip(result.restarts, starts):
        (want,) = fit(dataset, topology, replace(config, restarts=1), init=start).restarts
        assert restart_bytes(got) == restart_bytes(want)
    return result.restarts


class TestBatchedDescent:
    """The batch gives each restart the bits of its lone fit."""

    @pytest.mark.parametrize("restarts", [1, 3, 8])
    @pytest.mark.parametrize(
        "spec_fn", [identifiable_spec, colliding_spec], ids=["identifiable", "colliding"]
    )
    def test_matches_lone_descent(self, spec_fn, restarts):
        spec = spec_fn()
        dataset = generate_dataset(spec, 2000, seed=restarts)
        config = FitConfig(restarts=restarts, seed=restarts)
        assert_restarts_match_lone_fits(dataset, spec.topology, config)

    @pytest.mark.parametrize("place", sorted(PARENTLESS_TASK_ROWS))
    def test_matches_lone_descent_with_parentless_task(self, place):
        spec = parentless_task_spec(PARENTLESS_TASK_ROWS[place])
        dataset = generate_dataset(spec, 2000, seed=3)
        assert_restarts_match_lone_fits(dataset, spec.topology, FitConfig(restarts=3, seed=3))

    @pytest.mark.parametrize("spec_fn", [identifiable_spec, colliding_spec])
    def test_matches_lone_descent_from_near_singular_init(self, spec_fn, monkeypatch):
        spec = spec_fn()
        init = truth_model(spec)
        init.mixing = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        init.task_maps = tuple(np.zeros_like(b) for b in init.task_maps)
        assert singular_ratio(init.mixing) <= recovery.SINGULAR_RATIO
        reprojected, reproject = [], recovery._reproject
        monkeypatch.setattr(recovery, "_reproject", lambda m: reprojected.append(m) or reproject(m))
        dataset = generate_dataset(spec, 2000, seed=4)
        config = FitConfig(restarts=3, max_iters=50, seed=4)
        assert_restarts_match_lone_fits(dataset, spec.topology, config, init=init)
        # F and every task map of restart 0 start below the singular floor
        assert len(reprojected) >= 1 + spec.topology.num_tasks

    def test_matches_lone_descent_when_restarts_stop_for_different_reasons(self, ident_spec):
        dataset = generate_dataset(ident_spec, 2000, seed=1)
        config = FitConfig(restarts=4, max_iters=15, seed=1)
        restarts = assert_restarts_match_lone_fits(dataset, ident_spec.topology, config)
        assert {r.stop_reason for r in restarts} == {"grad_tol", "min_step", "max_iters"}

    def test_matches_lone_descent_through_a_singular_solve(self, collide_spec, monkeypatch):
        unsolved, solve = [], recovery._solve

        def counted(matrices, rhs):
            steps, solved = solve(matrices, rhs)
            unsolved.append((len(rhs), int((~solved).sum())))
            return steps, solved

        monkeypatch.setattr(recovery, "_solve", counted)
        dataset = generate_dataset(collide_spec, 2000, seed=9)
        config = FitConfig(restarts=8, seed=9)
        assert_restarts_match_lone_fits(dataset, collide_spec.topology, config)
        # a restart's damping fell so far that its system was exactly singular in the batch
        assert any(batch > 1 and count for batch, count in unsolved)

    def test_projection_reprojects_each_flagged_map_as_a_lone_restart_would(
        self, collide_spec, monkeypatch
    ):
        # F and the one task map are both 2x2; restart 1's F and restart 2's task map collapse
        models = [perturbed_truth(collide_spec, seed=s) for s in range(3)]
        models[1].mixing = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        models[2].task_maps = (np.array([[0.5, -1.0], [-0.5, 1.0 + 1e-13]]),)
        reprojected, reproject = [], recovery._reproject
        monkeypatch.setattr(recovery, "_reproject", lambda m: reprojected.append(m) or reproject(m))
        moments = _empirical_moments(generate_dataset(collide_spec, 100, seed=0))
        together = _project(_Batch.of([(m, moments) for m in models], collide_spec.topology))
        flagged = [m.tobytes() for m in reprojected]
        assert flagged == [models[1].mixing.tobytes(), models[2].task_maps[0].tobytes()]
        for r, model in enumerate(models):
            alone = _project(_Batch.of([(model, moments)], collide_spec.topology))
            assert together.params[r].tobytes() == alone.params[0].tobytes()

    def test_a_singular_slice_gets_no_step_and_leaves_the_others_alone(self):
        rng = np.random.default_rng(0)
        matrices = rng.standard_normal((3, 4, 4))
        matrices[1, :, 3] = matrices[1, :, 0]
        vectors = rng.standard_normal((3, 4, 1))
        steps, solved = _solve(matrices, vectors)
        assert solved.tolist() == [True, False, True]
        assert not steps[1].any()
        for k in (0, 2):
            alone, _ = _solve(matrices[k : k + 1], vectors[k : k + 1])
            assert steps[k].tobytes() == alone[0].tobytes()
        together, _ = _solve(matrices[[0, 2]], vectors[[0, 2]])
        assert steps[[0, 2]].tobytes() == together.tobytes()


def random_spec(rows, seed: int) -> DgpSpec:
    """A generator spec on ``rows`` with three environments and well-conditioned maps."""
    rng = np.random.default_rng(seed)
    topology = ScmTopology.from_rows(rows)
    n = topology.num_latents
    prior = ExpFamilyPrior(rng.normal(size=(3, n)), np.exp(rng.normal(scale=0.5, size=(3, n))))

    def square(side: int) -> np.ndarray:
        return np.eye(side) + 0.3 * rng.standard_normal((side, side))

    task_maps = [square(len(parents)) for parents in topology.parent_indices()]
    return DgpSpec(topology, prior, square(n), task_maps)


def lone_fit_or_error(dataset, topology, config):
    try:
        return fit(dataset, topology, config)
    except (DataError, SingularModelError) as error:
        return type(error)


class TestFitMany:
    """One batch over several datasets gives each the bits of its own ``fit``."""

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=3
            )
        ),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_equals_one_fit_per_dataset(self, rows, datasets, restarts, seed):
        spec = random_spec(rows, seed)
        config = FitConfig(restarts=restarts, max_iters=25, seed=seed)
        seeds = [seed + d for d in range(datasets)]  # dataset d is fitted with config.seed + d
        data = [generate_dataset(spec, 100, s) for s in seeds]
        lone = [
            lone_fit_or_error(dataset, spec.topology, replace(config, seed=s))
            for dataset, s in zip(data, seeds)
        ]
        errors = [result for result in lone if isinstance(result, type)]
        if errors:  # the batch refuses as the first refused dataset does
            with pytest.raises(errors[0]):
                fit_many(data, spec.topology, config)
            return
        together = fit_many(iter(data), spec.topology, config)
        assert len(together) == datasets
        for got, want in zip(together, lone):
            assert [restart_bytes(r) for r in got.restarts] == [
                restart_bytes(r) for r in want.restarts
            ]
            assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()

    def test_refusals(self, ident_spec):
        data = [generate_dataset(ident_spec, 100, 1)]
        assert fit_many([], ident_spec.topology, FitConfig()) == []
        last = FitConfig(restarts=1, max_iters=5, seed=np.uint64(2**64 - 1))
        assert type(last.seed) is int  # so the next seed does not wrap to 0
        assert len(fit_many(data, ident_spec.topology, last)) == 1
        with pytest.raises(ConfigError, match="^seed must fit in an unsigned 64-bit integer"):
            fit_many(data * 2, ident_spec.topology, last)  # dataset 1's seed is 2**64
        prior = ExpFamilyPrior(ident_spec.prior.means[:2], ident_spec.prior.variances[:2])
        data.append(generate_dataset(replace(ident_spec, prior=prior), 100, 2))
        with pytest.raises(DataError, match="^datasets must share one environment count, got 3 and 2"):
            fit_many(data, ident_spec.topology, FitConfig())

    def test_a_dataset_without_environments_is_refused_before_its_moments(self, ident_spec):
        empty = np.zeros((0, 1))
        dataset = SyntheticDataset(0, [], np.zeros((0, 2)), np.zeros((0, 2)), (empty, empty))
        # the repository's filters make a RuntimeWarning from empty moments an error
        with pytest.raises(DataError, match="^dataset has no environments to fit$"):
            fit(dataset, ident_spec.topology)
        with pytest.raises(DataError, match="^dataset has no environments to fit$"):
            fit_many([dataset], ident_spec.topology, FitConfig())


class TestStopReason:
    @pytest.mark.parametrize(
        "config, reason",
        [
            (FitConfig(restarts=1, grad_tol=1e-3, seed=1), "grad_tol"),
            (FitConfig(restarts=1, min_step=1e3, seed=1), "min_step"),
            (FitConfig(restarts=1, max_iters=2, seed=1), "max_iters"),
        ],
        ids=["grad_tol", "min_step", "max_iters"],
    )
    def test_reason_reported(self, ident_spec, config, reason):
        dataset = generate_dataset(ident_spec, 2000, seed=1)
        (restart,) = fit(dataset, ident_spec.topology, config).restarts
        assert restart.stop_reason == reason
        if reason == "min_step":  # the first step is already below the floor
            assert restart.iterations == 0
        if reason == "max_iters":
            assert restart.iterations == config.max_iters
        if reason == "grad_tol":
            assert 0 < restart.iterations < config.max_iters


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

    @pytest.mark.parametrize("samples", [0, -1, -(10**9)])
    def test_sample_count_must_be_positive(self, ident_spec, collide_spec, samples):
        message = f"^sample count must be positive, got {samples}$"
        with pytest.raises(ConfigError, match=message):
            identifiability_experiment(
                ident_spec, collide_spec, FitConfig(restarts=1), seeds=2, samples_per_env=samples
            )

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
        config = FitConfig(restarts=2, seed=2)
        kwargs = dict(config=config, seeds=2, samples_per_env=2000)
        reports = []
        for budget in (2**60, 1):  # one job per arm, and one job per seed
            monkeypatch.setattr(recovery, "ARM_JOB_BYTES", budget)
            reports.append(identifiability_experiment(ident_spec, collide_spec, **kwargs))
        # every outcome is a lone fit of its seed, matched
        replayed = []
        for spec in (ident_spec, collide_spec):
            for seed in (2, 3):
                dataset = generate_dataset(spec, 2000, seed)
                result = fit(dataset, spec.topology, replace(config, seed=seed))
                match = match_permutation(dataset.latents, recover_latents(result.model, dataset.x))
                replayed.append(
                    SeedOutcome(seed, match.mcc, match.per_latent_abs_corr, result.objective)
                )
        for report in reports:
            assert [*report.identifiable.per_seed, *report.colliding.per_seed] == replayed


def thread_counts_around_experiment_job(spec) -> tuple[int, int]:
    """This process's thread count before and after one contrast arm job of two seeds on ``spec``."""
    before = len(os.listdir("/proc/self/task"))
    _run_arm_job((spec, FitConfig(), 20000, 2))
    return before, len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_experiment_jobs_start_no_thread_in_a_forked_worker(monkeypatch):
    """A contrast job leaves the worker ``parallel_map`` forks for it with its one thread.

    A LAPACK call over all the rows would make OpenBLAS start a helper
    thread in the worker, which spins on the CPU the other worker needs.
    """
    monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    specs = [identifiable_spec(), colliding_spec()]
    counts = _parallel.parallel_map(thread_counts_around_experiment_job, specs)
    assert counts == [(1, 1), (1, 1)]
