"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Every tolerance is pinned here, not configurable.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from conftest import colliding_spec, identifiable_spec
from helpers import (
    central_difference,
    enumerate_matrices,
    relative_gradient_error,
)
from scm_ident import (
    FitConfig,
    ScmTopology,
    check_variety,
    dis_loss,
    dis_loss_grad,
    equivalence_audit,
    generate_dataset,
    identifiability_experiment,
    sample_hard_mask,
    uic_check,
    uic_loss,
    uic_loss_grad,
)
from scm_ident._rng import GRADCHECK, stream
from scm_ident.cli import main
from scm_ident.selection import gumbel_softmax_mask


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL — {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS — {description}")


def test_01_decider_equivalence_exhaustive():
    with criterion(1, "closure and agreement deciders agree on all A, m<=3, n<=5"):
        start = time.perf_counter()
        report = equivalence_audit(3, 5)
        elapsed = time.perf_counter() - start
        assert report.total_matrices == sum(
            1 << (m * n) for m in range(1, 4) for n in range(1, 6)
        )
        assert report.mismatches == ()
        assert report.agreements == report.total_matrices
        assert elapsed < 60.0


def test_02_duplicated_columns_always_rejected():
    with criterion(2, "duplicated column <=> rejected by both deciders (m<=3, n<=5)"):
        # column distinctness vs agreement decider, all matrices, both backends'
        # closure already matched the agreement decider in criterion 1
        report = equivalence_audit(3, 5)
        assert report.agreement_vs_distinct == ()
        assert report.mismatches == ()
        # direct spot re-check through the public per-topology API
        from scm_ident import closure_identifiable

        for m in range(1, 3):
            for n in range(1, 4):
                for rows in enumerate_matrices(m, n):
                    top = ScmTopology.from_rows(rows)
                    distinct = len(set(top.column_masks())) == n
                    assert uic_check(top) == distinct
                    assert closure_identifiable(top).identifiable == distinct


def test_03_accepted_matrices_respect_parent_bound():
    with criterion(3, "every accepted matrix has row sums <= 2**(m-1) (m<=3, n<=5)"):
        for m in range(1, 4):
            bound = 1 << (m - 1)
            for n in range(1, 6):
                for rows in enumerate_matrices(m, n):
                    cols = set(zip(*rows))
                    if len(cols) == n:  # accepted by the deciders
                        assert all(sum(row) <= bound for row in rows)


def test_04_capacity_boundary_reported(capsys):
    with criterion(4, "enumerate reports measured max n for m=2 next to the 2^m-1 bound"):
        code = main(["enumerate", "--m", "2", "--n", "5", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        capacity = payload["capacity"]["2"]
        # measured finding: one all-zero column is admissible, so 4 > 3
        assert capacity["max_identifiable_latents_measured"] == 4
        assert capacity["nonempty_child_bound"] == 3


def test_05_loss_threshold_reproduces_decider():
    with criterion(5, "uic_loss at alpha=50 thresholded at 0.5 == decider verdict (m,n<=4)"):
        for m in range(1, 5):
            for n in range(1, 5):
                bound = n * n * ((m - 1) / m) ** 50
                assert bound <= 1e-3
                for rows in enumerate_matrices(m, n):
                    top = ScmTopology.from_rows(rows)
                    value = uic_loss(np.asarray(rows, dtype=float), 50)
                    violated = value >= 0.5
                    assert violated == (not uic_check(top))
                    if not violated:
                        assert value <= bound


@pytest.mark.parametrize("alpha,tolerance", [(2, 1e-6), (4, 1e-6), (50, 1e-4)])
def test_06_gradients_match_finite_differences(alpha, tolerance):
    with criterion(6, f"analytic gradients within {tolerance:g} of central FD at alpha={alpha}"):
        rng = stream(GRADCHECK, 2024)
        worst = 0.0
        for m in range(1, 5):
            for n in range(1, 7):
                for _ in range(100):
                    matrix = rng.uniform(0.05, 0.95, size=(m, n))
                    for value_fn, grad_fn in (
                        (lambda M: uic_loss(M, alpha), lambda M: uic_loss_grad(M, alpha)),
                        (lambda M: dis_loss(M, alpha), lambda M: dis_loss_grad(M, alpha)),
                    ):
                        numeric = central_difference(value_fn, matrix, step=1e-6)
                        worst = max(worst, relative_gradient_error(grad_fn(matrix), numeric))
        assert worst <= tolerance


def test_07_row_column_duality():
    with criterion(7, "dis_loss(M) == uic_loss(M^T) to 1e-12 on 1000 random matrices"):
        rng = stream(GRADCHECK, 7)
        for _ in range(1000):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            matrix = rng.random((m, n))
            assert abs(dis_loss(matrix, 50) - uic_loss(matrix.T, 50)) <= 1e-12


def test_08_mask_sampling_statistics():
    with criterion(8, "Bernoulli within 4-sigma and cold Gumbel within 0.01 at N=100k"):
        draws = 100_000
        for offset, p in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
            vector = np.full(draws, p)
            bernoulli_freq = float(sample_hard_mask(vector, seed=offset).mean())
            assert abs(bernoulli_freq - p) <= 4.0 * np.sqrt(p * (1 - p) / draws)
            gumbel_freq = float(
                gumbel_softmax_mask(vector, temperature=0.01, seed=offset).hard.mean()
            )
            assert abs(gumbel_freq - bernoulli_freq) <= 0.01


def test_09_generator_moments_and_variety():
    with criterion(9, "x covariance within 5% of F Sigma F^T at N=50k; variety verdicts"):
        spec = identifiable_spec()
        dataset = generate_dataset(spec, 50_000, seed=3)
        F = spec.source_map
        assert dataset.num_environments == spec.prior.num_environments
        for e, rows in enumerate(dataset.env_groups()):
            emp = np.cov(dataset.x[rows], rowvar=False, ddof=0)
            target = F @ np.diag(spec.prior.variances[e]) @ F.T
            rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
            assert rel <= 0.05
        assert check_variety(spec.prior).ok
        from scm_ident import ExpFamilyPrior

        duplicated = ExpFamilyPrior(
            means=np.tile(spec.prior.means[0], (3, 1)),
            variances=np.tile(spec.prior.variances[0], (3, 1)),
        )
        assert not check_variety(duplicated).ok


def test_10_recovery_contrast():
    with criterion(
        10,
        "identifiable median MCC >= 0.95; colliding gap >= 0.10 or dispersion >= 0.1",
    ):
        report = identifiability_experiment(
            identifiable_spec(),
            colliding_spec(),
            FitConfig(restarts=8, seed=0),
            seeds=10,
            samples_per_env=20_000,
        )
        assert report.identifiable.median_mcc >= 0.95
        assert (report.mcc_gap >= 0.10) or (report.dispersion_range >= 0.1)


def test_11_cli_reproducibility(tmp_path, capsys):
    with criterion(11, "every CLI invocation with a fixed seed is byte-identical twice"):
        spec = identifiable_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_json_dict()))
        collide_path = tmp_path / "collide.json"
        collide_path.write_text(json.dumps(colliding_spec().to_json_dict()))
        top_path = tmp_path / "top.json"
        top_path.write_text(json.dumps(spec.topology.to_json_dict()))
        scores_path = tmp_path / "scores.json"
        scores_path.write_text("[0.0, 0.1, -0.3]")
        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_text("[[1, 0], [0, 1]]")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"restarts": 2, "max_iters": 300}))
        csv_path = tmp_path / "data.csv"
        main(["dgp-gen", str(spec_path), "--samples", "1500", "--seed", "4", "--out", str(csv_path)])
        capsys.readouterr()

        invocations = [
            ["check", str(top_path), "--format", "json", "--seed", "1"],
            ["closure", str(top_path), "--trace", "--format", "json", "--seed", "1"],
            ["enumerate", "--m", "2", "--n", "4", "--format", "json", "--seed", "1"],
            ["loss", str(matrix_path), "--alpha", "50", "--format", "json", "--seed", "1"],
            ["gradcheck", "--alpha", "4", "--trials", "5", "--format", "json", "--seed", "1"],
            ["mask", "--scores", str(scores_path), "--format", "json", "--seed", "1"],
            ["mask", "--self-test", "--draws", "5000", "--format", "json", "--seed", "1"],
            [
                "recover", str(csv_path), str(top_path),
                "--config", str(config_path), "--format", "json", "--seed", "2",
            ],
            [
                "experiment", str(spec_path), str(collide_path),
                "--seeds", "2", "--samples", "1200",
                "--config", str(config_path), "--format", "json", "--seed", "2",
            ],
        ]
        for argv in invocations:
            first_code = main(list(argv))
            first_out = capsys.readouterr().out
            second_code = main(list(argv))
            second_out = capsys.readouterr().out
            assert first_code == second_code
            assert first_out == second_out, f"non-deterministic output: {argv}"
            assert first_out.strip(), f"no output captured: {argv}"

        # CSV determinism on a fresh generation
        other_csv = tmp_path / "data2.csv"
        main(["dgp-gen", str(spec_path), "--samples", "1500", "--seed", "4", "--out", str(other_csv)])
        capsys.readouterr()
        assert csv_path.read_bytes() == other_csv.read_bytes()
