import numpy as np
import pytest

from conftest import (
    PARENTLESS_TASK_ROWS,
    colliding_spec,
    identifiable_spec,
    parentless_task_spec,
)
from helpers import reference_export_csv
from scm_ident import (
    ConfigError,
    DataError,
    DgpSpec,
    DomainError,
    ExpFamilyPrior,
    FitConfig,
    MixingSpec,
    NoiseSpec,
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


class TestGenerateObserved:
    def test_identity_map_reproduces_latents(self):
        top = ScmTopology.from_rows([[1]])
        mixing = MixingSpec.for_topology(top, np.eye(1), [np.eye(1)])
        latents = np.array([[1.0], [2.0], [-3.0]])
        x, y = generate_observed(mixing, NoiseSpec.zero(1, [1]), latents)
        np.testing.assert_array_equal(x, latents)
        np.testing.assert_array_equal(y[0], latents)

    def test_zero_noise_linear_identity(self, ident_spec):
        latents = sample_latents(ident_spec.prior, 0, 1000, seed=3)
        x, _ = generate_observed(ident_spec.mixing, ident_spec.noise, latents)
        np.testing.assert_allclose(x, latents @ ident_spec.mixing.matrix.T, atol=1e-14)

    def test_covariance_closed_form(self, ident_spec):
        latents = sample_latents(ident_spec.prior, 2, 50_000, seed=7)
        x, _ = generate_observed(ident_spec.mixing, ident_spec.noise, latents)
        F = ident_spec.mixing.matrix
        target = F @ np.diag(ident_spec.prior.variances[2]) @ F.T
        emp = np.cov(x, rowvar=False, ddof=0)
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) <= 0.05

    def test_targets_ignore_non_parents(self, ident_spec):
        latents = sample_latents(ident_spec.prior, 0, 500, seed=9)
        _, y = generate_observed(ident_spec.mixing, ident_spec.noise, latents)
        shuffled = latents.copy()
        shuffled[:, 1] = np.random.default_rng(0).permutation(shuffled[:, 1])
        _, y_shuffled = generate_observed(ident_spec.mixing, ident_spec.noise, shuffled)
        np.testing.assert_array_equal(y[0], y_shuffled[0])  # task 0 reads latent 0 only

    def test_leaky_map_is_invertible(self):
        top = ScmTopology.from_rows([[1, 1]])
        mixing = MixingSpec.for_topology(
            top, np.array([[1.0, 0.3], [0.2, 1.0]]), [np.eye(2)], slope=0.25
        )
        latents = np.array([[1.0, -2.0], [-0.5, 0.75]])
        x, _ = generate_observed(mixing, NoiseSpec.zero(2, [2]), latents)
        pre = latents @ mixing.matrix.T
        recovered = np.where(x >= 0, x, x / 0.25)
        np.testing.assert_allclose(recovered, pre, atol=1e-12)

    def test_singular_map_rejected(self):
        top = ScmTopology.from_rows([[1, 1]])
        with pytest.raises(DomainError):
            MixingSpec.for_topology(top, np.ones((2, 2)), [np.eye(2)])

    def test_noise_changes_output_but_seeded(self, ident_spec):
        noisy = NoiseSpec(np.array([0.1, 0.1]), (np.array([0.0]), np.array([0.0])))
        latents = sample_latents(ident_spec.prior, 0, 100, seed=1)
        x1, _ = generate_observed(ident_spec.mixing, noisy, latents, seed=1)
        x2, _ = generate_observed(ident_spec.mixing, noisy, latents, seed=1)
        x3, _ = generate_observed(ident_spec.mixing, noisy, latents, seed=2)
        assert np.array_equal(x1, x2)
        assert not np.array_equal(x1, x3)


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
    mixing = MixingSpec.for_topology(
        topology,
        np.array([[1.0, 0.6, 0.1], [-0.4, 1.1, 0.3], [0.2, -0.5, 0.9]]),
        [
            np.array([[1.3, 0.2], [-0.1, 0.8]]),
            np.array([[0.7, -0.4], [0.5, 1.2]]),
            np.array([[-0.9, 0.3], [0.6, 1.1]]),
        ],
    )
    return DgpSpec(topology, prior, mixing, NoiseSpec.zero(3, [2, 2, 2]))


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
        parents = sum(
            len(ident_spec.topology.parent_latents(k))
            for k in range(ident_spec.topology.num_tasks)
        )
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
        assert from_csv.model.parent_indices == ((0,), (1,), ())

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

    def test_unknown_keys_rejected(self, ident_spec):
        doc = ident_spec.to_json_dict()
        doc["typo"] = 1
        with pytest.raises(DataError):
            DgpSpec.from_json_dict(doc)

    def test_scalar_noise_broadcasts(self):
        doc = identifiable_spec().to_json_dict()
        doc["noise"] = {"x": 0.5, "y": 0.1}
        spec = DgpSpec.from_json_dict(doc)
        np.testing.assert_array_equal(spec.noise.x_std, [0.5, 0.5])
        np.testing.assert_array_equal(spec.noise.y_std[0], [0.1])

    def test_missing_noise_means_zero(self):
        doc = identifiable_spec().to_json_dict()
        del doc["noise"]
        noise = DgpSpec.from_json_dict(doc).noise
        assert not any(np.any(s) for s in (noise.x_std, *noise.y_std))

    def test_bad_nonlinearity_rejected(self):
        doc = identifiable_spec().to_json_dict()
        doc["nonlinearity"] = {"type": "cubic"}
        with pytest.raises(DataError):
            DgpSpec.from_json_dict(doc)
