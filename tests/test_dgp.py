import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    PARENTLESS_TASK_ROWS,
    colliding_spec,
    identifiable_spec,
    parentless_task_spec,
)
from helpers import reference_export_csv
from scm_ident import dgp
from scm_ident import (
    ConfigError,
    DataError,
    DgpSpec,
    DomainError,
    ExpFamilyPrior,
    FitConfig,
    ScmTopology,
    ShapeError,
    SyntheticDataset,
    check_variety,
    export_dataset,
    fit,
    generate_dataset,
    generate_observed,
    load_dataset,
    sample_latents,
)
from scm_ident._rng import LATENT_DRAWS, OBSERVATION_NOISE, env_seed, stream


@pytest.fixture
def prior3() -> ExpFamilyPrior:
    return ExpFamilyPrior(
        means=[[0.0, 1.0], [1.5, -0.5], [-1.0, 0.5]],
        variances=[[1.0, 0.7], [2.5, 1.2], [0.6, 3.0]],
    )


class TestPrior:
    def test_positive_variance_required(self):
        with pytest.raises(DomainError):
            ExpFamilyPrior(means=[[0.0]], variances=[[0.0]])

    def test_shape_agreement_required(self):
        with pytest.raises(ShapeError):
            ExpFamilyPrior(means=[[0.0, 0.0]], variances=[[1.0]])

    def test_natural_parameters_gaussian_form(self, prior3):
        params = prior3.natural_parameters(1)
        np.testing.assert_allclose(params[0], 1.5 / 2.5)
        np.testing.assert_allclose(params[1], -0.5 / 2.5)
        np.testing.assert_allclose(params[2], -0.5 / 1.2)
        np.testing.assert_allclose(params[3], -0.5 / 1.2)


class TestSampleLatents:
    def test_moments_match_configuration(self, prior3):
        draws = sample_latents(prior3, env_index=1, count=50_000, seed=11)
        np.testing.assert_allclose(draws.mean(axis=0), [1.5, -0.5], atol=4 / np.sqrt(50_000) * np.sqrt(2.5))
        np.testing.assert_allclose(draws.var(axis=0), [2.5, 1.2], rtol=0.05)

    def test_cross_latent_independence(self, prior3):
        draws = sample_latents(prior3, env_index=0, count=50_000, seed=12)
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) <= 4 / np.sqrt(50_000)

    def test_reproducible(self, prior3):
        a = sample_latents(prior3, 0, 100, seed=5)
        b = sample_latents(prior3, 0, 100, seed=5)
        assert np.array_equal(a, b)

    def test_environments_use_distinct_streams(self, prior3):
        a = sample_latents(prior3, 0, 100, seed=5)
        b = sample_latents(prior3, 1, 100, seed=5)
        assert not np.array_equal(a - a.mean(0), b - b.mean(0))

    def test_unconfigured_environment(self, prior3):
        with pytest.raises(ConfigError):
            sample_latents(prior3, 3, 10, seed=0)
        with pytest.raises(ConfigError):
            sample_latents(prior3, 0, 0, seed=0)


def observed_spec(rows, matrix, task_maps, slope=None) -> DgpSpec:
    """A noiseless one-environment spec for calling generate_observed directly."""
    topology = ScmTopology.from_rows(rows)
    n = topology.num_latents
    prior = ExpFamilyPrior(means=[[0.0] * n], variances=[[1.0] * n])
    return DgpSpec(topology, prior, matrix, task_maps, slope)


class TestGenerateObserved:
    def test_identity_map_reproduces_latents(self):
        spec = observed_spec([[1]], np.eye(1), [np.eye(1)])
        latents = np.array([[1.0], [2.0], [-3.0]])
        x, y = generate_observed(spec, latents)
        np.testing.assert_array_equal(x, latents)
        np.testing.assert_array_equal(y[0], latents)

    def test_zero_noise_linear_identity(self, ident_spec):
        latents = sample_latents(ident_spec.prior, 0, 1000, seed=3)
        x, _ = generate_observed(ident_spec, latents)
        np.testing.assert_allclose(x, latents @ ident_spec.source_map.T, atol=1e-14)

    def test_covariance_closed_form(self, ident_spec):
        latents = sample_latents(ident_spec.prior, 2, 50_000, seed=7)
        x, _ = generate_observed(ident_spec, latents)
        F = ident_spec.source_map
        target = F @ np.diag(ident_spec.prior.variances[2]) @ F.T
        emp = np.cov(x, rowvar=False, ddof=0)
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) <= 0.05

    def test_targets_ignore_non_parents(self, ident_spec):
        latents = sample_latents(ident_spec.prior, 0, 500, seed=9)
        _, y = generate_observed(ident_spec, latents)
        shuffled = latents.copy()
        shuffled[:, 1] = np.random.default_rng(0).permutation(shuffled[:, 1])
        _, y_shuffled = generate_observed(ident_spec, shuffled)
        np.testing.assert_array_equal(y[0], y_shuffled[0])  # task 0 reads latent 0 only

    def test_leaky_map_is_invertible(self):
        spec = observed_spec([[1, 1]], np.array([[1.0, 0.3], [0.2, 1.0]]), [np.eye(2)], 0.25)
        latents = np.array([[1.0, -2.0], [-0.5, 0.75]])
        x, _ = generate_observed(spec, latents)
        pre = latents @ spec.source_map.T
        recovered = np.where(x >= 0, x, x / 0.25)
        np.testing.assert_allclose(recovered, pre, atol=1e-12)

    def test_singular_map_rejected(self):
        with pytest.raises(DomainError, match="source map is numerically singular"):
            observed_spec([[1, 1]], np.ones((2, 2)), [np.eye(2)])

    def test_noise_changes_output_but_seeded(self, ident_spec):
        noisy = dataclasses.replace(ident_spec, noise_x=np.array([0.1, 0.1]))
        latents = sample_latents(ident_spec.prior, 0, 100, seed=1)
        x1, _ = generate_observed(noisy, latents, seed=1)
        x2, _ = generate_observed(noisy, latents, seed=1)
        x3, _ = generate_observed(noisy, latents, seed=2)
        assert np.array_equal(x1, x2)
        assert not np.array_equal(x1, x3)

    @staticmethod
    def count_draws(monkeypatch) -> dict:
        """Arrays drawn per stream purpose, through a counting ``dgp.stream``."""
        draws = {LATENT_DRAWS: 0, OBSERVATION_NOISE: 0}

        class Counted:
            def __init__(self, purpose, seed):
                self.purpose, self.rng = purpose, stream(purpose, seed)

            def standard_normal(self, *args):
                draws[self.purpose] += 1
                return self.rng.standard_normal(*args)

        monkeypatch.setattr(dgp, "stream", Counted)
        return draws

    def test_noiseless_spec_draws_no_noise(self, ident_spec, monkeypatch):
        draws = self.count_draws(monkeypatch)
        generate_dataset(ident_spec, 50, seed=3)
        assert draws == {LATENT_DRAWS: 3, OBSERVATION_NOISE: 0}
        noisy = dataclasses.replace(ident_spec, noise_x=np.array([0.0, 0.1]))
        generate_dataset(noisy, 50, seed=3)
        # one draw for x and one per task in each of the 3 environments
        assert draws == {LATENT_DRAWS: 6, OBSERVATION_NOISE: 3 * (1 + ident_spec.topology.num_tasks)}

    @pytest.mark.parametrize("level", ["x", "y"])
    def test_one_nonzero_level_draws_noise_for_every_block(self, level):
        spec = three_task_spec()
        if level == "x":
            spec = dataclasses.replace(spec, noise_x=np.array([0.0, 0.0, 0.3]))
        else:
            noise_y = tuple(np.zeros(len(p)) for p in spec.topology.parent_indices())
            spec = dataclasses.replace(spec, noise_y=(noise_y[0], np.array([0.0, 0.2])) + noise_y[2:])
        latents = sample_latents(spec.prior, 1, 200, seed=4)
        x, y = generate_observed(spec, latents, seed=4, env_index=1)
        # each block gets its draws, in order, even where its level is zero
        rng = stream(OBSERVATION_NOISE, env_seed(4, 1))
        want_x = latents @ spec.source_map.T + rng.standard_normal(x.shape) * spec.noise_x
        assert want_x.tobytes() == x.tobytes()
        for b, parents, std, block in zip(
            spec.task_maps, spec.topology.parent_indices(), spec.noise_y, y
        ):
            want = latents[:, list(parents)] @ b.T + rng.standard_normal(block.shape) * std
            assert want.tobytes() == block.tobytes()


class TestVariety:
    def test_generic_three_environments_pass(self, prior3):
        report = check_variety(prior3)
        assert report.ok and report.rank >= report.required_rank

    def test_duplicated_environments_fail(self):
        dup = ExpFamilyPrior(means=[[0.0, 0.0]] * 3, variances=[[1.0, 1.0]] * 3)
        report = check_variety(dup)
        assert not report.ok and report.rank == 0

    def test_two_environments_fail_by_count(self):
        two = ExpFamilyPrior(
            means=[[0.0, 0.0], [1.0, 1.0]], variances=[[1.0, 1.0], [2.0, 2.0]]
        )
        report = check_variety(two)
        assert not report.ok
        assert report.num_environments == 2 and report.required_environments == 3

    def test_environment_relabeling_invariant(self, prior3):
        flipped = ExpFamilyPrior(prior3.means[::-1].copy(), prior3.variances[::-1].copy())
        assert check_variety(flipped).rank == check_variety(prior3).rank

    def test_matrix_shape(self, prior3):
        report = check_variety(prior3)
        assert report.matrix.shape == (2 * prior3.num_latents, prior3.num_environments - 1)


def three_task_spec() -> DgpSpec:
    """n=3, m=3; every task has two parents, so each block is multi-column."""
    topology = ScmTopology.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    prior = ExpFamilyPrior(
        means=[[0.0, 1.0, -0.5], [1.5, -0.5, 0.2], [-1.0, 0.5, 1.1]],
        variances=[[1.0, 0.7, 1.4], [2.5, 1.2, 0.8], [0.6, 3.0, 1.9]],
    )
    return DgpSpec(
        topology,
        prior,
        np.array([[1.0, 0.6, 0.1], [-0.4, 1.1, 0.3], [0.2, -0.5, 0.9]]),
        [
            np.array([[1.3, 0.2], [-0.1, 0.8]]),
            np.array([[0.7, -0.4], [0.5, 1.2]]),
            np.array([[-0.9, 0.3], [0.6, 1.1]]),
        ],
    )


LEAKY_NOISY_SPEC = Path(__file__).parent / "golden" / "dgp_gen_leaky_noisy.spec.json"
HEADER = "env,sample,l_1,x_1,y1_1\n"


def assert_same_dataset(loaded: SyntheticDataset, original: SyntheticDataset) -> None:
    """Bit-for-bit equality, so -0.0 and subnormals count."""
    assert loaded.num_environments == original.num_environments
    pairs = [
        (loaded.env_ids, original.env_ids),
        (loaded.latents, original.latents),
        (loaded.x, original.x),
        *zip(loaded.y, original.y, strict=True),
    ]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestDatasetRoundTrip:
    def test_export_import_bit_identical(self, ident_spec, tmp_path):
        dataset = generate_dataset(ident_spec, 200, seed=42)
        path = tmp_path / "data.csv"
        export_dataset(dataset, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.env_ids, dataset.env_ids)
        assert np.array_equal(loaded.latents, dataset.latents)
        assert np.array_equal(loaded.x, dataset.x)
        for a, b in zip(loaded.y, dataset.y):
            assert np.array_equal(a, b)

    def test_row_and_column_counts(self, ident_spec, tmp_path):
        dataset = generate_dataset(ident_spec, 50, seed=0)
        path = tmp_path / "data.csv"
        export_dataset(dataset, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3 * 50
        n = ident_spec.topology.num_latents
        parents = sum(mask.bit_count() for mask in ident_spec.topology.row_masks())
        assert len(lines[0].split(",")) == 2 + n + n + parents

    def test_regeneration_is_deterministic(self, ident_spec, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_dataset(generate_dataset(ident_spec, 100, seed=9), a)
        export_dataset(generate_dataset(ident_spec, 100, seed=9), b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("env,sample,l_1\n0,0,not_a_number\n")
        with pytest.raises(DataError):
            load_dataset(path)

    @pytest.mark.parametrize("task_column", ["y0_1", "y-1_1"])
    def test_task_index_below_one_rejected(self, tmp_path, task_column):
        path = tmp_path / "bad.csv"
        path.write_text(f"env,sample,l_1,x_1,{task_column}\n0,0,0.5,0.5,0.5\n")
        with pytest.raises(DataError, match="unexpected dataset header"):
            load_dataset(path)

    def test_task_index_above_header_width_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("env,sample,l_1,x_1,y200000_1\n0,0,0.5,0.5,0.5\n")
        with pytest.raises(DataError, match="unexpected dataset header"):
            load_dataset(path)

    def test_task_label_over_int_digit_limit_rejected(self, tmp_path):
        # int() refuses strings of more than 4300 digits with a plain ValueError
        path = tmp_path / "bad.csv"
        path.write_text(f"env,sample,l_1,x_1,y{'1' * 5000}_1\n0,0,0.5,0.5,0.5\n")
        with pytest.raises(DataError, match="unexpected dataset header"):
            load_dataset(path)

    def test_trailing_task_without_parents_loads_and_fits(self, tmp_path):
        spec = parentless_task_spec(PARENTLESS_TASK_ROWS["trailing"])
        dataset = generate_dataset(spec, 200, seed=4)
        path = tmp_path / "data.csv"
        export_dataset(dataset, path)
        loaded = load_dataset(path)
        assert len(loaded.y) == 2  # the CSV has no columns for task 3
        config = FitConfig(restarts=2, max_iters=50)
        from_csv = fit(loaded, spec.topology, config)
        in_memory = fit(dataset, spec.topology, config)
        assert [r.objective for r in from_csv.restarts] == [
            r.objective for r in in_memory.restarts
        ]
        assert [b.shape for b in from_csv.model.task_maps] == [(1, 1), (1, 1), (0, 0)]

    def test_interior_task_without_parents_round_trips(self, tmp_path):
        spec = parentless_task_spec(PARENTLESS_TASK_ROWS["interior"])
        dataset = generate_dataset(spec, 20, seed=3)
        path = tmp_path / "data.csv"
        export_dataset(dataset, path)
        assert path.read_text().splitlines()[0] == "env,sample,l_1,l_2,x_1,x_2,y1_1,y3_1"
        assert_same_dataset(load_dataset(path), dataset)

    @pytest.mark.parametrize(
        "dataset",
        [
            pytest.param(generate_dataset(identifiable_spec(), 300, seed=11), id="identifiable"),
            pytest.param(generate_dataset(colliding_spec(), 300, seed=12), id="colliding"),
            pytest.param(generate_dataset(three_task_spec(), 300, seed=13), id="three-task"),
            pytest.param(
                SyntheticDataset(
                    3,
                    np.array([2, 0, 2, 1, 0]),
                    np.arange(10.0).reshape(5, 2) / 7.0,
                    -np.arange(10.0).reshape(5, 2) / 3.0,
                    (np.linspace(-1.0, 1.0, 5).reshape(5, 1),),
                ),
                id="interleaved-envs",
            ),
            pytest.param(
                SyntheticDataset(
                    3,
                    np.array([2, 0, 0, 2]),
                    np.arange(8.0).reshape(4, 2) / 9.0,
                    np.arange(8.0).reshape(4, 2) * -0.25,
                    (np.linspace(0.5, -0.5, 4).reshape(4, 1),),
                ),
                id="absent-env",
            ),
            pytest.param(
                SyntheticDataset(
                    2,
                    np.array([0, 1, 0]),
                    np.array([[-0.0, 5e-324], [1.7976931348623157e308, 0.1 + 0.2], [1 / 3, -2 / 3]]),
                    np.array([[2.0**-1074, -1.7976931348623157e308], [1e-300, 1e300], [0.0, -1.5]]),
                    (np.array([[123456789.12345678], [-9.999999999999999e-5], [2.0**53 + 2]]),),
                ),
                id="extreme-values",
            ),
        ],
    )
    def test_export_matches_reference_writer(self, tmp_path, dataset):
        path, reference = tmp_path / "data.csv", tmp_path / "reference.csv"
        export_dataset(dataset, path)
        reference_export_csv(dataset, reference)
        assert path.read_bytes() == reference.read_bytes()
        assert_same_dataset(load_dataset(path), dataset)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(HEADER + "0,0,0.5,abc,0.5\n", id="non-numeric-cell"),
            pytest.param(HEADER + "0,0,0.5,0.5,0.5\n1,0,0.5,0.5\n", id="short-row"),
            pytest.param(HEADER + "0,0,0.5,0.5,0.5\n1,0,0.5,0.5,0.5,0.5\n", id="long-row"),
            pytest.param(HEADER + "0,0,0.5,0.5,0.5\n\n1,0,0.5,0.5,0.5\n", id="blank-line"),
            pytest.param(HEADER + "1.5,0,0.5,0.5,0.5\n", id="fractional-env"),
            pytest.param(HEADER + "1.0,0,0.5,0.5,0.5\n", id="float-env"),
            pytest.param(HEADER + "0,0,1_0,0.5,0.5\n", id="underscore-literal"),
            pytest.param(HEADER, id="header-only"),
            pytest.param("", id="empty-file"),
        ],
    )
    def test_malformed_row_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError):
            load_dataset(path)


class TestSpecJson:
    def test_round_trip(self, ident_spec):
        doc = ident_spec.to_json_dict()
        rebuilt = DgpSpec.from_json_dict(doc)
        assert rebuilt.to_json_dict() == doc

    @pytest.mark.parametrize("place", sorted(PARENTLESS_TASK_ROWS))
    def test_task_without_parents_round_trips(self, place):
        rows = PARENTLESS_TASK_ROWS[place]
        doc = parentless_task_spec(rows).to_json_dict()
        assert DgpSpec.from_json_dict(doc).to_json_dict() == doc
        label = f"t{rows.index([0, 0]) + 1}"
        doc["B"][label] = [[1.0]]
        with pytest.raises(ShapeError):
            DgpSpec.from_json_dict(doc)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda doc: doc["B"].update(t1=[[1.0, 2.0], [3.0]]), id="ragged-B"),
            pytest.param(
                lambda doc: doc["environments"][1].update(means=[1.0]), id="short-env-means"
            ),
            pytest.param(lambda doc: doc.update(noise={"x": [[0.1], [0.1, 0.2]]}), id="ragged-noise"),
            pytest.param(
                lambda doc: doc.update(nonlinearity={"type": "leaky", "slope": "steep"}),
                id="non-numeric-slope",
            ),
        ],
    )
    def test_malformed_entry_is_data_error(self, ident_spec, edit):
        doc = ident_spec.to_json_dict()
        edit(doc)
        with pytest.raises(DataError, match="malformed generator spec"):
            DgpSpec.from_json_dict(doc)

    def test_unknown_keys_rejected(self, ident_spec):
        doc = ident_spec.to_json_dict()
        doc["typo"] = 1
        with pytest.raises(DataError):
            DgpSpec.from_json_dict(doc)

    def test_scalar_noise_broadcasts(self):
        doc = identifiable_spec().to_json_dict()
        doc["noise"] = {"x": 0.5, "y": 0.1}
        spec = DgpSpec.from_json_dict(doc)
        np.testing.assert_array_equal(spec.noise_x, [0.5, 0.5])
        np.testing.assert_array_equal(spec.noise_y[0], [0.1])

    def test_missing_noise_means_zero(self):
        doc = identifiable_spec().to_json_dict()
        del doc["noise"]
        spec = DgpSpec.from_json_dict(doc)
        assert not any(np.any(s) for s in (spec.noise_x, *spec.noise_y))

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(
                DgpSpec.from_json_dict(json.loads(LEAKY_NOISY_SPEC.read_text())), id="from-json"
            ),
            pytest.param(
                dataclasses.replace(
                    three_task_spec(),
                    noise_x=np.array([0.1, 0.2, 0.3]),
                    noise_y=(np.array([0.1, 0.0]),) * 3,
                ),
                id="python",
            ),
        ],
    )
    def test_every_array_is_read_only(self, spec):
        arrays = [
            item
            for value in (*vars(spec).values(), *vars(spec.prior).values())
            for item in (value if isinstance(value, tuple) else (value,))
            if isinstance(item, np.ndarray)
        ]
        assert len(arrays) == 4 + 2 * spec.topology.num_tasks
        assert not any(array.flags.writeable for array in arrays)

    def test_arrays_are_copies(self):
        noise_x, source_map = np.array([0.1, 0.2, 0.3]), three_task_spec().source_map.copy()
        spec = dataclasses.replace(three_task_spec(), source_map=source_map, noise_x=noise_x)
        noise_x[0] = source_map[0, 0] = 9.0
        assert spec.noise_x[0] == 0.1 and spec.source_map[0, 0] == 1.0

    def test_bad_nonlinearity_rejected(self):
        doc = identifiable_spec().to_json_dict()
        doc["nonlinearity"] = {"type": "cubic"}
        with pytest.raises(DataError):
            DgpSpec.from_json_dict(doc)
