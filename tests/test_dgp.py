import dataclasses
import decimal
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PARENTLESS_TASK_ROWS,
    colliding_spec,
    identifiable_spec,
    parentless_task_spec,
)
from helpers import reference_export_csv
from scm_ident import _csvrows, dgp
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
from scm_ident._csvrows import render_rows
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

    def test_non_finite_parameters_refused(self):
        with pytest.raises(DomainError, match="^prior parameters must be finite$"):
            ExpFamilyPrior(means=[[0.0, math.inf]], variances=[[1.0, 1.0]])

    @pytest.mark.parametrize("env_index", [-1, 3])
    def test_natural_parameters_of_an_unconfigured_environment(self, prior3, env_index):
        with pytest.raises(ConfigError, match=f"^environment {env_index} is not configured$"):
            prior3.natural_parameters(env_index)

    @pytest.mark.parametrize(
        "means, variances", [([0.0, 1.0], [1.0, 1e-310]), ([1e300, 1.0], [1e-10, 1.0])]
    )
    def test_natural_parameters_beyond_the_float_range(self, means, variances):
        prior = ExpFamilyPrior(means=[[0.0, 1.0], means], variances=[[1.0, 1.0], variances])
        message = "^environment 1's natural parameters are beyond the float range$"
        with pytest.raises(DomainError, match=message):
            prior.natural_parameters(1)
        with pytest.raises(DomainError, match=message):
            check_variety(prior)


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

    def test_singular_task_map_rejected(self):
        with pytest.raises(DomainError, match="^task map 0 is numerically singular$"):
            observed_spec([[1, 1]], np.eye(2), [np.ones((2, 2))])

    def test_prior_of_another_width_rejected(self, prior3):
        three = ScmTopology.from_rows([[1, 1, 1]])
        with pytest.raises(ShapeError, match="^prior covers 2 latents, topology has 3$"):
            DgpSpec(three, prior3, np.eye(3), [np.eye(3)])

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

    def test_one_environment_fails_with_no_differences(self):
        report = check_variety(ExpFamilyPrior(means=[[0.0, 1.0]], variances=[[1.0, 2.0]]))
        assert not report.ok and report.rank == 0 and report.matrix.shape == (4, 0)

    def test_a_difference_beyond_the_float_range_names_the_environment(self):
        # each environment's mean/variance ratio is 1e308; their difference is not a float
        prior = ExpFamilyPrior(
            means=[[1e301, 0.0], [-1e301, 1.0], [0.0, 2.0]],
            variances=[[1e-7, 1.0], [1e-7, 1.0], [1.0, 2.0]],
        )
        message = "^environment 1's natural parameters differ from environment 0's beyond"
        with pytest.raises(DomainError, match=message):
            check_variety(prior)


class TestSyntheticDataset:
    ROWS = np.arange(6.0).reshape(2, 3)

    @pytest.mark.parametrize("env_ids", [[0.5, 1.9], [0.0, 1.0], np.array([0.0, 1.0])])
    def test_float_env_ids_are_refused_not_truncated(self, env_ids):
        with pytest.raises(DataError, match="^environment ids must be integers, got dtype float64$"):
            SyntheticDataset(2, env_ids, self.ROWS, self.ROWS, ())

    def test_zero_rows_are_accepted(self):
        dataset = SyntheticDataset(1, [], np.zeros((0, 2)), np.zeros((0, 2)), ())
        assert dataset.env_ids.dtype == np.int64 and dataset.env_ids.shape == (0,)

    def test_x_wider_than_latents_is_refused(self):
        wide = np.arange(8.0).reshape(2, 4)
        with pytest.raises(ShapeError, match="^x must be as wide as latents, got 4 and 3 columns$"):
            SyntheticDataset(2, [0, 1], self.ROWS, wide, ())

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            (dict(env_ids=["0", "1"]), DataError, "environment ids must be integers, got dtype <U1"),
            (dict(env_ids=[True, False]), DataError, "environment ids must be integers, got dtype bool"),
            (dict(env_ids=[2**70, 0]), DataError, "environment ids must be integers, got dtype object"),
            (dict(num_environments=2.5), DataError, "environment count must be an integer, got float"),
            (dict(latents=np.zeros(2)), ShapeError, "latents, x and every task block must be 2-d"),
            (dict(y=[[1.0, 2.0]]), ShapeError, "latents, x and every task block must be 2-d"),
            (dict(y=[object()]), DataError, "task block y1 entries must be numbers"),
            (dict(y=["ab"]), DataError, "task block y1 entries must be numbers"),
            (dict(y=np.zeros((1, 2, 1))), DataError, "task blocks must be a list or tuple"),
            (dict(y=[[[1.0]] * 3]), ShapeError, "all task arrays must have one row per sample"),
            (dict(env_ids=[0, 2]), DataError, "sample environment id outside the configured range"),
            (dict(env_ids=[-1, 0]), DataError, "sample environment id outside the configured range"),
        ],
    )
    def test_refusals(self, fields, error, message):
        valid = dict(num_environments=2, env_ids=[0, 1], latents=self.ROWS, x=self.ROWS, y=())
        with pytest.raises(error) as raised:
            SyntheticDataset(**{**valid, **fields})
        assert str(raised.value).startswith(message)

    def test_values_are_read_once_and_float64_arrays_kept(self):
        dataset = SyntheticDataset(np.int64(2), [0, 1], self.ROWS, self.ROWS.tolist(), [[[1.0]] * 2])
        assert type(dataset.num_environments) is int and dataset.env_ids.dtype == np.int64
        assert dataset.latents is self.ROWS and dataset.x.dtype == np.float64
        assert isinstance(dataset.y, tuple) and dataset.y[0].shape == (2, 1)


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
MALFORMED_TEXTS = [
    pytest.param(HEADER + "0,0,0.5,abc,0.5\n", id="non-numeric-cell"),
    pytest.param(HEADER + "0,0,0.5,0.5,0.5\n1,0,0.5,0.5\n", id="short-row"),
    pytest.param(HEADER + "0,0,0.5,0.5,0.5\n1,0,0.5,0.5,0.5,0.5\n", id="long-row"),
    pytest.param(HEADER + "0,0,0.5,0.5,0.5\n\n1,0,0.5,0.5,0.5\n", id="blank-line"),
    pytest.param(HEADER + "1.5,0,0.5,0.5,0.5\n", id="fractional-env"),
    pytest.param(HEADER + "1.0,0,0.5,0.5,0.5\n", id="float-env"),
    pytest.param(HEADER + "0,0,1_0,0.5,0.5\n", id="underscore-literal"),
    pytest.param(HEADER, id="header-only"),
    pytest.param("", id="empty-file"),
]


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


def random_dataset(rows: int, seed: int, scale: float = 1.0) -> SyntheticDataset:
    """Rows spread over 3 environments in random order; 2 latents and one task column."""
    rng = np.random.default_rng(seed)
    return SyntheticDataset(
        3,
        rng.integers(0, 3, rows),
        rng.standard_normal((rows, 2)) * scale,
        rng.standard_normal((rows, 2)) * scale,
        (rng.standard_normal((rows, 1)) * scale,),
    )


def rendered_cells(values) -> list[str]:
    """The float cells that the CSV writer gives for ``values``, one row each."""
    values = np.asarray(values, dtype=np.float64)
    text = render_rows(np.zeros(values.size, np.int64), np.arange(values.size), values[:, None])
    return [line.split(",")[2] for line in text.decode().splitlines()]


def writer_boundaries() -> list[float]:
    """Powers of ten and their neighbouring doubles, the ends of the fast range, and extremes."""
    powers = [float(f"1e{k}") for k in range(-20, 26)]
    values = [*powers, *np.nextafter(powers, 0.0), *np.nextafter(powers, np.inf)]
    values += [9.999999999999999e-5, 1e-4, 9.999999999999998e15, 1e16, 1e17]
    values += [-0.0, 0.0, 5e-324, 1.7976931348623157e308, 2.0**53 - 1, 2.0**53 + 1, 2.0**53 + 2]
    return values + [-v for v in values]


class TestCsvWriter:
    def test_dataset_without_rows_is_refused_before_the_file_is_created(self, tmp_path):
        empty = SyntheticDataset(1, [], np.zeros((0, 2)), np.zeros((0, 2)), ())
        path = tmp_path / "data.csv"
        with pytest.raises(DataError, match="^dataset contains no samples$"):
            export_dataset(empty, path)
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(min_value=1e-4, max_value=1e16, exclude_max=True),
                st.floats(min_value=-1e16, max_value=-1e-4, exclude_min=True),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_cells_match_percent_g(self, values):
        assert rendered_cells(values) == ["%.17g" % v for v in values]

    def test_boundary_cells_match_percent_g(self):
        values = writer_boundaries()
        assert rendered_cells(values) == ["%.17g" % v for v in values]

    @pytest.mark.parametrize("rows, latents", [(1024, 100), (3, 12300)])
    def test_export_scratch_is_bounded_in_cells_not_rows(self, tmp_path, rows, latents):
        """A write renders at most ``_EXPORT_CHUNK_CELLS`` floats, or one row.

        1,024 rows of 201 floats rendered at once held 60 MB of scratch,
        and 3 rows of 24,601 floats 21 MB.
        """
        rng = np.random.default_rng(rows)
        dataset = SyntheticDataset(
            1,
            np.zeros(rows, np.int64),
            rng.standard_normal((rows, latents)),
            rng.standard_normal((rows, latents)),
            (rng.standard_normal((rows, 1)),),
        )
        path, reference = tmp_path / "data.csv", tmp_path / "reference.csv"
        tracemalloc.start()
        try:
            export_dataset(dataset, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * rows * (2 * latents + 1) + 8e6
        reference_export_csv(dataset, reference)
        assert path.read_bytes() == reference.read_bytes()

    def test_integers_match_percent_d(self):
        first = np.array([0, 9, 10, 99999999, 100000000, 2**63 - 1])
        second = np.arange(6) * 10**12
        text = render_rows(first, second, np.full((6, 1), 0.5)).decode()
        assert text.splitlines() == [f"{a},{b},0.5" for a, b in zip(first, second)]


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
            *(
                pytest.param(random_dataset(rows, seed=rows), id=f"{rows}-rows")
                # random_dataset's rows hold five floats
                for rows in dgp._EXPORT_CHUNK_CELLS // 5 + np.array([-1, 0, 1])
            ),
            pytest.param(
                SyntheticDataset(
                    2,
                    np.array([0, 1, 1, 0]),
                    np.array([[1e-7, 0.5], [3e20, -2.5], [0.0, 1e-4], [-7.5e-5, 1e16]]),
                    np.array(
                        [[0.25, -1e-300], [5e-324, 12.0], [-0.0, 9.999999999999998e15], [1.0, 2.0]]
                    ),
                    (np.array([[123.456], [-1e17], [0.001], [-6.02e23]]),),
                ),
                id="fast-and-slow-cells-in-a-row",
            ),
            pytest.param(random_dataset(500, seed=3, scale=1e-6), id="all-slow-cells"),
        ],
    )
    def test_export_matches_reference_writer(self, tmp_path, dataset):
        path, reference = tmp_path / "data.csv", tmp_path / "reference.csv"
        export_dataset(dataset, path)
        reference_export_csv(dataset, reference)
        assert path.read_bytes() == reference.read_bytes()
        assert_same_dataset(load_dataset(path), dataset)

    @pytest.mark.parametrize("text", MALFORMED_TEXTS)
    def test_malformed_row_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError):
            load_dataset(path)


class TestDatasetRoundTripThroughLoadtxt(TestDatasetRoundTrip):
    """Every round trip and refusal above with the strtold reader switched off."""

    @pytest.fixture(autouse=True)
    def loadtxt_only(self, monkeypatch):
        monkeypatch.setattr(_csvrows, "_X87", False)


def load_outcome(path):
    """``load_dataset``'s arrays, or its ``DataError`` message."""
    try:
        dataset = load_dataset(path)
    except DataError as exc:
        return str(exc)
    return dataset.num_environments, [dataset.env_ids, dataset.latents, dataset.x, *dataset.y]


def assert_same_outcome(got, want) -> None:
    """The same message, or arrays equal in dtype, shape, strides and bytes."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got[0] == want[0] and len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
        assert a.tobytes() == b.tobytes()


NON_CANONICAL_BODIES = [
    pytest.param(b'0,0,"0.5",0.5,0.5\n', id="quoted-cell"),
    pytest.param(b"0,0,0.5,0.5,0.5\r\n1,1,-0.25,2,3\r\n", id="crlf"),
    pytest.param(b"0,0,0.5,0.5,0.5\r1,1,-0.25,2,3\r", id="cr"),
    pytest.param(b"0, 0,0.5 ,0.5,0.5\n", id="spaces"),
    pytest.param(b"+1,0,0.5,0.5,0.5\n", id="plus-sign-env"),
    pytest.param(b"0,-0,0.5,0.5,0.5\n", id="negative-zero-sample"),
    pytest.param(b"1e2,0,0.5,0.5,0.5\n", id="exponent-env"),
    pytest.param(b"1000000000000000000,0,0.5,0.5,0.5\n", id="19-digit-env"),
    pytest.param(b"9223372036854775808,0,0.5,0.5,0.5\n", id="env-beyond-int64"),
    pytest.param(b"0,1000000000000000000,0.5,0.5,0.5\n", id="19-digit-sample"),
    pytest.param(b"0,0,nan,0.5,0.5\n", id="nan"),
    pytest.param(b"0,0,0.5,inf,0.5\n", id="inf"),
    pytest.param(b"0,0,0.5,0.5,0x1p3\n", id="hex-float"),
    pytest.param(b"0,0,0.5,0.5,0.5", id="no-final-newline"),
    pytest.param(b"0,0,0.5,0.5,0.5\n1,1,0.5,0.5,\n", id="empty-cell"),
    pytest.param(b"0,0,0.5,0.5,0.5,\n", id="trailing-comma"),
    pytest.param(b"0,0,1.2.3,0.5,0.5\n", id="two-points"),
    pytest.param(b"0,0,1e,0.5,0.5\n", id="bare-exponent"),
    pytest.param(b"0,0,-,0.5,0.5\n", id="bare-sign"),
    pytest.param(b"0,0,1,1,1\n0,1,1,1,1,1\n0,2,1,1\n", id="widths-add-up"),
    pytest.param(b"0,0,0.5,0.5,0.5\n\xff\n", id="non-utf8-body"),
    pytest.param(b"\n", id="blank-body"),
]
# float spellings that strtold and np.loadtxt both read, in canonical bodies
CANONICAL_BODIES = [
    pytest.param(b"0,0,+0.5,.5,5.\n2,1,1E5,1e+05,-0.0\n", id="float-spellings"),
    pytest.param(b"0,0,0e0,-0e-0,00012.5000\n", id="zeros"),
    pytest.param(b"007,01,0.5,0.5,0.5\n", id="leading-zeros"),
    pytest.param(
        b"0000000000000000000000001,999999999999999999,0.5,0.5,0.5\n", id="padded-ints"
    ),
    pytest.param(
        ("3,999999999999999999,0." + "1" * 400 + ",1" + "0" * 300 + ",2\n").encode(), id="long"
    ),
]
# beyond the float range, or rounding to its largest value
EXTREME_TOKENS = ["1e400", "-1e5000", "1e-400", "-1e-400", "1e-5000", "1.7976931348623158e308"]
FINITE_EXTREMES = ["1e-400", "-1e-400", "1.7976931348623158e308", "4.9406564584124654e-324"]


def midpoint_tokens(value: float) -> list[str]:
    """The midpoint between |value| and the next double up, and it times 1 +- 1e-40, in full."""
    low = decimal.Decimal(abs(value))
    high = decimal.Decimal(float(np.nextafter(abs(value), np.inf)))
    with decimal.localcontext(decimal.Context(prec=2000)):
        middle = (low + high) / 2
        nudge = middle * decimal.Decimal("1e-40")
        points = [middle, middle + nudge, middle - nudge]
    sign = "-" if math.copysign(1.0, value) < 0 else ""
    return [sign + str(point) for point in points]


def strtold_cells(tokens) -> np.ndarray:
    """The float64 cells that ``parse_rows`` reads from one row per token."""
    body = "".join(f"0,{i},{token}\n" for i, token in enumerate(tokens)).encode()
    _, values = _csvrows.parse_rows(body, 0, 3)
    return values[:, 0]


def float_bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SUBNORMAL = st.builds(
    lambda k, sign: sign * k * 5e-324, st.integers(1, 2**52 - 1), st.sampled_from([1, -1])
)
FORMS = [lambda v: "%.17g" % v, repr, lambda v: "%.25g" % v]
TOKENS = st.one_of(
    st.builds(lambda v, form: form(v), st.one_of(FINITE, SUBNORMAL), st.sampled_from(FORMS)),
    st.one_of(FINITE, SUBNORMAL)
    .filter(lambda v: abs(v) < sys.float_info.max)
    .flatmap(lambda v: st.sampled_from(midpoint_tokens(v))),
    st.sampled_from(EXTREME_TOKENS),
)


@pytest.mark.skipif(not _csvrows._X87, reason="the strtold reader needs x87 extended precision")
class TestStrtoldReader:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(TOKENS, min_size=1, max_size=30))
    def test_cells_equal_float(self, tokens):
        assert float_bits(strtold_cells(tokens)) == float_bits([float(t) for t in tokens])

    @pytest.mark.parametrize(
        "value", [5e-324, 2.0**-1022 - 5e-324, 2.2250738585072014e-308, 0.1, 1.0, 1e300]
    )
    def test_midpoints_equal_float(self, value):
        tokens = midpoint_tokens(value) + midpoint_tokens(-value)
        assert float_bits(strtold_cells(tokens)) == float_bits([float(t) for t in tokens])

    def test_cells_beyond_the_range_equal_float(self):
        # RuntimeWarning is an error here, so an overflowing cast would fail the test
        tokens = EXTREME_TOKENS + ["-0", "0", "-0.0", "4.9406564584124654e-324"]
        assert float_bits(strtold_cells(tokens)) == float_bits([float(t) for t in tokens])

    def test_canonical_export_skips_loadtxt(self, ident_spec, tmp_path, monkeypatch):
        dataset = generate_dataset(ident_spec, 300, seed=5)
        path = tmp_path / "data.csv"
        export_dataset(dataset, path)

        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt ran")

        monkeypatch.setattr(np, "loadtxt", refuse)
        assert_same_dataset(load_dataset(path), dataset)

    @pytest.mark.parametrize("body", CANONICAL_BODIES)
    def test_canonical_body_is_parsed(self, body):
        assert _csvrows.parse_rows(HEADER.encode() + body, len(HEADER), 5) is not None

    @pytest.mark.parametrize("body", NON_CANONICAL_BODIES)
    def test_non_canonical_body_is_left_to_loadtxt(self, body):
        data = HEADER.encode() + body
        assert _csvrows.parse_rows(data, len(HEADER), 5) is None

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_pieces_run_on_at_most_one_thread_per_cpu(self, tmp_path, monkeypatch, cpus):
        dataset = random_dataset(3000, seed=cpus)
        dataset.x[::7] *= 1e-310  # subnormal cells to read again in every piece
        path = tmp_path / "data.csv"
        export_dataset(dataset, path)
        pools = []

        class Pool(_csvrows.ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(_csvrows, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(_csvrows, "worker_count", lambda: cpus)
        monkeypatch.setattr(_csvrows, "_PIECE_BYTES", 4096)
        assert_same_dataset(load_dataset(path), dataset)
        assert pools == [cpus]

    def test_a_late_non_canonical_piece_falls_back(self, tmp_path, monkeypatch):
        dataset = random_dataset(2000, seed=8)
        path = tmp_path / "data.csv"
        export_dataset(dataset, path)
        path.write_bytes(path.read_bytes()[:-1] + b"\r\n")  # the last line only
        monkeypatch.setattr(_csvrows, "worker_count", lambda: 2)
        monkeypatch.setattr(_csvrows, "_PIECE_BYTES", 4096)
        assert_same_dataset(load_dataset(path), dataset)


class TestReaderParity:
    """The strtold reader and np.loadtxt give the same arrays or the same error."""

    @pytest.mark.parametrize(
        "data",
        [
            *(pytest.param(p.values[0].encode(), id=p.id) for p in MALFORMED_TEXTS),
            *(
                pytest.param(HEADER.encode() + p.values[0], id=p.id)
                for p in NON_CANONICAL_BODIES + CANONICAL_BODIES
            ),
            pytest.param(b"\xffnv,sample,l_1,x_1,y1_1\n0,0,0.5,0.5,0.5\n", id="non-utf8-header"),
            pytest.param(
                b"env,sample,l_1,x_1,y2_1\n0,0,0.5,0.5,\xff\n", id="bad-header-non-utf8-body"
            ),
            pytest.param(b"env,sample,l_1,x_1,y1_1\r\n0,0,0.5,0.5,0.5\n", id="crlf-header"),
            pytest.param(
                b"\xef\xbb\xbfenv,sample,l_1,x_1,y1_1\n0,0,0.5,0.5,0.5\n", id="byte-order-mark"
            ),
            pytest.param(
                (HEADER + "".join(f"0,{i},{t},{t},{t}\n" for i, t in enumerate(FINITE_EXTREMES)))
                .encode(),
                id="finite-extremes",
            ),
        ],
    )
    def test_same_outcome_on_both_paths(self, tmp_path, monkeypatch, data):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        strtold = load_outcome(path)
        monkeypatch.setattr(_csvrows, "_X87", False)
        assert_same_outcome(strtold, load_outcome(path))

    @pytest.mark.parametrize(
        "offset", [0, 3, len(HEADER) + 4], ids=["header-start", "header", "body"]
    )
    def test_non_utf8_byte_is_a_data_error(self, tmp_path, offset):
        data = bytearray((HEADER + "0,0,0.5,0.5,0.5\n").encode())
        data[offset] = 0xFF
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        message = f"^dataset is not UTF-8 text: byte 0xff at offset {offset}$"
        with pytest.raises(DataError, match=message):
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

    def test_empty_environment_list_rejected(self, ident_spec):
        doc = ident_spec.to_json_dict()
        doc["environments"] = []
        with pytest.raises(DataError, match="^environments must be a non-empty list$"):
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

    @pytest.mark.parametrize(
        "nonlinearity",
        [
            {"type": "cubic"},
            {"type": "leaky"},
            {"type": "leaky", "slope": None},
            {"type": "none", "slope": 0.5},
        ],
    )
    def test_bad_nonlinearity_rejected(self, nonlinearity):
        doc = identifiable_spec().to_json_dict()
        doc["nonlinearity"] = nonlinearity
        with pytest.raises(DataError, match="^nonlinearity must be type 'none', or type 'leaky'"):
            DgpSpec.from_json_dict(doc)

    def test_noise_y_refuses_unknown_task_keys(self):
        doc = json.loads(LEAKY_NOISY_SPEC.read_text())
        doc["noise"] = {"x": 0.0, "y": {"t9": 0.5, "bogus": "x"}}
        with pytest.raises(DataError) as raised:
            DgpSpec.from_json_dict(doc)
        assert str(raised.value) == "unknown generator spec noise y keys: ['bogus', 't9']"

    @pytest.mark.parametrize("levels", [[0.1], [0.1, 0.2], []])
    def test_noise_y_refuses_a_list(self, levels):
        # one level per task would not fit tasks of different widths
        doc = identifiable_spec().to_json_dict()
        doc["noise"] = {"y": levels}
        with pytest.raises(DataError) as raised:
            DgpSpec.from_json_dict(doc)
        want = 'noise y must be one level or a "t1".."tm" object, got a list'
        assert str(raised.value) == f"malformed generator spec: {want}"

    @pytest.mark.parametrize(
        "field, value, error, message",
        [
            ("F", [[1.0]], ShapeError, "spec: F must have shape (2, 2), got (1, 1)"),
            ("B", [[1.3]], DataError, "generator spec B must be a JSON object"),
            ("B", {"t1": [[1.3]]}, DataError, "generator spec B missing key 't2'"),
            ("B", {"t1": 1, "t2": 1, "t3": 1}, DataError, "unknown generator spec B keys: ['t3']"),
            ("environments", [{"means": [0]}], DataError, "environment 0 missing key 'variances'"),
            ("noise", {"z": 0.1}, DataError, "unknown generator spec noise keys: ['z']"),
            ("noise", {"x": [0.1]}, ShapeError, "spec: noise x must have shape (2,), got (1,)"),
            ("noise", {"y": {"t1": math.nan}}, DataError, "noise y t1 entries must be finite"),
            ("noise", {"x": float("inf")}, DataError, "spec: noise x entries must be finite"),
            ("noise", {"y": -0.1}, DomainError, "noise standard deviations must be non-negative"),
        ],
    )
    def test_refusals_name_the_field(self, field, value, error, message):
        doc = identifiable_spec().to_json_dict()
        doc[field] = value
        with pytest.raises(error) as raised:
            DgpSpec.from_json_dict(doc)
        assert str(raised.value).endswith(message)

    @pytest.mark.parametrize(
        "task_maps, error, message",
        [
            ([[[1.3]]], ShapeError, "spec: B must have 2 blocks, one per task, got 1"),
            ({"t1": [[1.3]]}, DataError, "spec: B must be a list of blocks, one per task"),
        ],
    )
    def test_task_maps_are_one_list_entry_per_task(self, task_maps, error, message):
        spec = identifiable_spec()
        with pytest.raises(error) as raised:
            DgpSpec(spec.topology, spec.prior, spec.source_map, task_maps)
        assert str(raised.value).endswith(message)
