import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    PARENTLESS_TASK_ROWS,
    colliding_spec,
    identifiable_spec,
    parentless_task_spec,
)
from scm_ident import FitConfig, ScmTopology, SingularModelError, cli, fit, load_dataset
from scm_ident.cli import main
from scm_ident.dgp import export_dataset, generate_dataset
from scm_ident.recovery import MAX_ITERS, MAX_RESTARTS
from scm_ident.selection import SELF_TEST_MAX_DRAWS

GOLDEN = Path(__file__).parent / "golden"


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def identity_topology_file(tmp_path):
    return write_json(
        tmp_path / "identity.json",
        {"num_tasks": 2, "num_latents": 2, "adjacency": [[1, 0], [0, 1]]},
    )


@pytest.fixture
def colliding_topology_file(tmp_path):
    return write_json(
        tmp_path / "collide.json",
        {"num_tasks": 2, "num_latents": 2, "adjacency": [[1, 1], [0, 0]]},
    )


def distinct_columns_file(tmp_path, num_tasks: int, num_latents: int) -> str:
    """Topology whose latent j has child pattern j (all columns distinct)."""
    rows = [[(j >> k) & 1 for j in range(num_latents)] for k in range(num_tasks)]
    return write_json(
        tmp_path / "distinct.json",
        {"num_tasks": num_tasks, "num_latents": num_latents, "adjacency": rows},
    )


def run_json(capsys, argv) -> tuple[int, dict]:
    code = main(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


class TestCheck:
    def test_identity_exit_zero(self, identity_topology_file, capsys):
        code, payload = run_json(capsys, ["check", identity_topology_file])
        assert code == 0
        assert payload["identifiable"] is True
        assert payload["violating_pairs"] == []

    def test_duplicated_column_exit_one(self, colliding_topology_file, capsys):
        code, payload = run_json(capsys, ["check", colliding_topology_file])
        assert code == 1
        assert payload["violating_pairs"] == [["L1", "L2"]]

    def test_decider_disagreement_exit_four(self, identity_topology_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "uic_violations", lambda topology: [(0, 1)])
        assert main(["check", identity_topology_file]) == 4
        assert capsys.readouterr() == (
            "",
            "internal error: the closure and agreement deciders disagree on this input\n",
        )

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == 2

    def test_schema_violation_exit_two(self, tmp_path):
        path = write_json(
            tmp_path / "schema.json",
            {"num_tasks": 1, "num_latents": 1, "adjacency": [[1]], "bogus": True},
        )
        assert main(["check", path]) == 2

    @pytest.mark.parametrize("cells", [["1", "0"], ["1", 0]])
    def test_string_cells_exit_two(self, tmp_path, capsys, cells):
        path = write_json(
            tmp_path / "strings.json",
            {"num_tasks": 1, "num_latents": 2, "adjacency": [cells]},
        )
        assert main(["check", path]) == 2
        assert "must be numbers" in capsys.readouterr().err

    def test_boolean_cells_accepted(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "bools.json",
            {"num_tasks": 1, "num_latents": 2, "adjacency": [[True, False]]},
        )
        code, payload = run_json(capsys, ["check", path])
        assert code == 0
        assert payload["identifiable"] is True

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["check", str(tmp_path / "absent.json")]) == 2

    def test_sixty_four_latents_decided(self, tmp_path, capsys):
        path = distinct_columns_file(tmp_path, 7, 64)
        start = time.perf_counter()
        code, payload = run_json(capsys, ["check", path])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert payload["closure_identifiable"] and payload["agreement_identifiable"]
        assert payload["missing_singletons"] == []


class TestClosure:
    def test_trace_shows_parent_subtraction(self, tmp_path, capsys):
        # task 0's parents minus task 1's parents isolates latent 0
        path = write_json(
            tmp_path / "walk.json",
            {
                "num_tasks": 3,
                "num_latents": 5,
                "adjacency": [
                    [1, 1, 0, 0, 0],
                    [0, 1, 1, 0, 1],
                    [0, 0, 1, 1, 0],
                ],
            },
        )
        code = main(["closure", path, "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "{L1} = Pa(Y1) - Pa(Y2)" in out

    @pytest.mark.parametrize("fmt,golden", [("text", "txt"), ("json", "json")])
    def test_trace_matches_golden(self, tmp_path, capsys, walkthrough_topology, fmt, golden):
        path = write_json(tmp_path / "walk.json", walkthrough_topology.to_json_dict())
        assert main(["closure", path, "--trace", "--format", fmt]) == 0
        expected = (GOLDEN / f"closure_trace_walkthrough.{golden}").read_text()
        assert capsys.readouterr().out == expected

    def test_family_above_the_member_limit_exit_two(self, tmp_path, capsys):
        path = distinct_columns_file(tmp_path, 5, 17)
        start = time.perf_counter()
        assert main(["closure", path, "--trace"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "input error: closure listing supports at most 65536 members, "
            "this topology's family has 131072\n"
        )
        assert main(["check", path]) == 0

    def test_trace_at_the_member_limit_is_fast(self, tmp_path, capsys):
        path = distinct_columns_file(tmp_path, 4, 16)
        start = time.perf_counter()
        code = main(["closure", path, "--trace"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("family size: 65536 (bound 2^n = 65536)\n")
        assert out.count("derivation of") == 16

    def test_trace_skips_the_unreachable_singletons(self, tmp_path, capsys):
        adjacency = [[1, 1, 0], [0, 0, 1]]  # L1 and L2 collide, L3 is identifiable
        path = write_json(
            tmp_path / "pair.json", {"num_tasks": 2, "num_latents": 3, "adjacency": adjacency}
        )
        assert main(["closure", path, "--trace"]) == 1
        out = capsys.readouterr().out
        assert "missing singletons: L1, L2\n" in out
        assert out.count("derivation of") == 1 and "derivation of {L3}:" in out
        code, payload = run_json(capsys, ["closure", path, "--trace"])
        assert code == 1 and list(payload["traces"]) == ["L3"]

    def test_missing_singletons_reported(self, colliding_topology_file, capsys):
        code, payload = run_json(capsys, ["closure", colliding_topology_file])
        assert code == 1
        assert payload["missing_singletons"] == ["L1", "L2"]

    def test_family_size_bound(self, identity_topology_file, capsys):
        code, payload = run_json(capsys, ["closure", identity_topology_file])
        assert code == 0
        assert payload["family_size"] <= 2**2


class TestEnumerate:
    def test_counts_and_agreement(self, capsys):
        code, payload = run_json(capsys, ["enumerate", "--m", "2", "--n", "2"])
        assert code == 0
        assert payload["mismatches"] == []
        shapes = {
            (s["num_tasks"], s["num_latents"]): s["identifiable"] for s in payload["shapes"]
        }
        assert shapes[(2, 2)] == 12
        assert shapes[(1, 2)] == 2  # columns (0) and (1) in either order

    def test_capacity_reporting_for_two_tasks(self, capsys):
        code, payload = run_json(capsys, ["enumerate", "--m", "2", "--n", "5"])
        assert code == 0
        capacity = payload["capacity"]["2"]
        assert capacity["max_identifiable_latents_measured"] == 4
        assert capacity["nonempty_child_bound"] == 3
        assert capacity["child_pattern_bound"] == 4

    @pytest.mark.parametrize("fmt,golden", [("text", "txt"), ("json", "json")])
    def test_3x5_matches_golden(self, capsys, fmt, golden):
        assert main(["enumerate", "--m", "3", "--n", "5", "--format", fmt]) == 0
        expected = (GOLDEN / f"enumerate_3x5.{golden}").read_text()
        assert capsys.readouterr().out == expected

    def test_over_capacity_exit_two(self):
        assert main(["enumerate", "--m", "5", "--n", "5"]) == 2

    @pytest.mark.parametrize("field", ["mismatches", "agreement_vs_distinct"])
    def test_decider_disagreement_exit_four(self, capsys, monkeypatch, field):
        audit = cli.equivalence_audit

        def disagreeing(max_m, max_n):
            flagged = (ScmTopology.from_rows([[1, 0]]),)
            return dataclasses.replace(audit(max_m, max_n), **{field: flagged})

        monkeypatch.setattr(cli, "equivalence_audit", disagreeing)
        assert main(["enumerate", "--m", "1", "--n", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out.startswith("audited 6 matrices up to 1x2\n")
        assert captured.err == "internal error: deciders disagreed during enumeration\n"

    def test_workers_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--m", "2", "--n", "2", "--workers", "2"])
        assert exc.value.code == 2


class TestLossAndGradcheck:
    def test_identity_binary_losses_zero(self, tmp_path, capsys):
        matrix = write_json(tmp_path / "m.json", [[1, 0], [0, 1]])
        code, payload = run_json(capsys, ["loss", matrix, "--alpha", "50"])
        assert code == 0
        assert payload["uic_loss"] == 0.0
        assert payload["dis_loss"] == 0.0

    def test_duplicate_column_loss_two(self, tmp_path, capsys):
        matrix = write_json(tmp_path / "m.json", [[1, 1], [0, 0]])
        code, payload = run_json(capsys, ["loss", matrix, "--alpha", "50"])
        assert code == 0
        assert payload["uic_loss"] == pytest.approx(2.0, abs=1e-9)

    def test_domain_violation_exit_two(self, tmp_path):
        matrix = write_json(tmp_path / "m.json", [[1.5]])
        assert main(["loss", matrix]) == 2

    def test_loss_beyond_the_float_range_exit_two(self, tmp_path, capsys):
        matrix = write_json(tmp_path / "ones.json", [[1] * 64])
        argv = ["loss", matrix, "--lambda-uic", "1e307", "--format", "json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: the weighted penalty overflows the float range\n"

    def test_gradcheck_passes(self, capsys):
        code, payload = run_json(
            capsys, ["gradcheck", "--alpha", "4", "--trials", "20", "--seed", "1"]
        )
        assert code == 0
        assert payload["max_relative_error"] <= 1e-6

    def test_gradcheck_alpha_fifty(self, capsys):
        code, payload = run_json(
            capsys, ["gradcheck", "--alpha", "50", "--trials", "10", "--seed", "2"]
        )
        assert code == 0
        assert payload["tolerance"] == 1e-4

    def test_gradcheck_unreachable_tolerance_fails(self, capsys):
        code = main(["gradcheck", "--trials", "2", "--tol", "1e-18", "--format", "json"])
        assert code == 3

    @pytest.mark.parametrize(
        "flags",
        [
            ["--step", "0"],
            ["--step", "nan"],
            ["--trials", "0"],
            ["--trials=-1"],
            ["--tol", "nan"],
            ["--tol=-1e-6"],
        ],
    )
    def test_gradcheck_input_error_exit_two(self, capsys, flags):
        assert main(["gradcheck", "--trials", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error" in captured.err

    @pytest.mark.parametrize("step", ["0.06", "-0.06", "0.05000000000000001", "1e300"])
    def test_gradcheck_step_beyond_the_sampling_margin_exit_two(self, capsys, step):
        assert main(["gradcheck", "--trials", "2", f"--step={step}"]) == 2
        assert capsys.readouterr().err == (
            "input error: --step must be at most 0.05 in magnitude, the distance of the"
            f" sampled entries from 0 and 1, got {float(step)}\n"
        )

    @pytest.mark.parametrize("step", ["0.05", "-0.05"])
    def test_gradcheck_step_at_the_sampling_margin_is_checked(self, capsys, step):
        # a step this coarse misses the tolerance, but every bumped entry stays in [0, 1]
        code = main(["gradcheck", "--trials", "50", f"--step={step}", "--format", "json"])
        captured = capsys.readouterr()
        assert code in (0, 3) and captured.err == ""
        assert json.loads(captured.out)["step"] == float(step)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trials", "1000000000"], "exceeds the work limit"),
            (["--rows", "64", "--cols", "64", "--trials", "3"], "exceeds the work limit"),
            (
                ["--trials", "1", "--alpha", str(2**1200)],
                "alpha must be below 2**1023, got 1201 bits",
            ),
            (["--rows", "0"], "--rows must be positive, got 0"),
            (["--cols=-100000"], "--cols must be positive, got -100000"),
        ],
    )
    def test_gradcheck_refuses_work_before_doing_any(self, capsys, monkeypatch, flags, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused gradcheck drew or evaluated something")

        for name in ("stream", "uic_loss", "dis_loss", "uic_loss_grad", "dis_loss_grad"):
            monkeypatch.setattr(cli, name, refuse)
        assert main(["gradcheck", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    def test_gradcheck_one_trial_beyond_the_limit_is_refused(self, capsys, monkeypatch):
        allowed = cli.GRADCHECK_WORK_LIMIT // cli._gradcheck_work(1, 3, 4, 4)
        assert allowed > 100  # the default
        monkeypatch.setattr(cli, "stream", lambda *args: pytest.fail("refused work ran"))
        assert main(["gradcheck", "--trials", str(allowed + 1)]) == 2
        assert "exceeds the work limit" in capsys.readouterr().err


class TestMask:
    def test_scores_evaluation(self, tmp_path, capsys):
        scores = write_json(tmp_path / "scores.json", [0.0, 0.1, -0.2])
        code, payload = run_json(capsys, ["mask", "--scores", scores, "--seed", "3"])
        assert code == 0
        assert payload["soft"][0] == 0.5
        assert set(payload["bernoulli_hard"]) <= {0, 1}

    @pytest.mark.filterwarnings("error")
    def test_scaled_score_beyond_the_float_range_prints_no_warning(self, tmp_path, capsys):
        scores = write_json(tmp_path / "scores.json", [1e308, -1e308])
        code, payload = run_json(capsys, ["mask", "--scores", scores, "--scale", "1e10"])
        assert code == 0
        assert payload["soft"] == [np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)]
        assert capsys.readouterr().err == ""

    def test_requires_scores_or_self_test(self, capsys):
        assert main(["mask"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: mask: provide --scores or --self-test\n"

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_self_test_draws_below_one_exit_two(self, capsys, draws):
        assert main(["mask", "--self-test", f"--draws={draws}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: draws must be positive, got {draws}\n"

    def test_self_test_draws_above_the_limit_exit_two(self, capsys):
        draws = SELF_TEST_MAX_DRAWS + 1
        start = time.perf_counter()
        assert main(["mask", "--self-test", "--draws", str(draws)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: draws must be at most {SELF_TEST_MAX_DRAWS}, got {draws}\n"
        )

    def test_self_test_small(self, capsys):
        code, payload = run_json(
            capsys, ["mask", "--self-test", "--draws", "20000", "--seed", "0"]
        )
        assert code == 0
        assert payload["self_test"]["ok"] is True

    def test_failed_self_test_reported_once_exit_three(self, tmp_path, capsys, monkeypatch):
        real = cli.mask_statistics_self_test
        monkeypatch.setattr(
            cli, "mask_statistics_self_test", lambda **kw: {**real(**kw), "ok": False}
        )
        scores = write_json(tmp_path / "scores.json", [0.0, 0.1])
        code, payload = run_json(
            capsys, ["mask", "--scores", scores, "--self-test", "--draws", "20000"]
        )
        assert code == 3
        assert payload["self_test"]["ok"] is False
        assert payload["soft"][0] == 0.5


class TestDataAndRecovery:
    def test_generate_and_recover(self, tmp_path, capsys):
        spec = identifiable_spec()
        spec_path = write_json(tmp_path / "spec.json", spec.to_json_dict())
        top_path = write_json(tmp_path / "top.json", spec.topology.to_json_dict())
        csv_path = tmp_path / "data.csv"
        code = main(
            ["dgp-gen", spec_path, "--samples", "4000", "--seed", "5", "--out", str(csv_path)]
        )
        capsys.readouterr()
        assert code == 0
        config = write_json(tmp_path / "cfg.json", {"restarts": 4, "seed": 5})
        code, payload = run_json(
            capsys, ["recover", str(csv_path), top_path, "--config", config]
        )
        assert code == 0
        assert payload["mcc"] >= 0.99

    @pytest.mark.parametrize("place", sorted(PARENTLESS_TASK_ROWS))
    def test_task_without_parents_generates_and_recovers(self, tmp_path, capsys, place):
        spec = parentless_task_spec(PARENTLESS_TASK_ROWS[place])
        spec_path = write_json(tmp_path / "spec.json", spec.to_json_dict())
        top_path = write_json(tmp_path / "top.json", spec.topology.to_json_dict())
        csv_path = tmp_path / "data.csv"
        argv = ["dgp-gen", spec_path, "--samples", "300", "--seed", "7", "--out", str(csv_path)]
        assert main(argv) == 0
        config = write_json(tmp_path / "cfg.json", {"restarts": 2, "max_iters": 200})
        assert main(["recover", str(csv_path), top_path, "--config", config]) == 0
        assert "mcc:" in capsys.readouterr().out

    def test_recover_truth_init(self, tmp_path, capsys):
        spec = identifiable_spec()
        spec_path = write_json(tmp_path / "spec.json", spec.to_json_dict())
        top_path = write_json(tmp_path / "top.json", spec.topology.to_json_dict())
        csv_path = tmp_path / "data.csv"
        main(["dgp-gen", spec_path, "--samples", "4000", "--seed", "6", "--out", str(csv_path)])
        capsys.readouterr()
        config = write_json(
            tmp_path / "cfg.json",
            {
                "restarts": 1,
                "seed": 6,
                "init": {
                    "F": spec.source_map.tolist(),
                    "means": spec.prior.means.tolist(),
                    "variances": spec.prior.variances.tolist(),
                    "B": {
                        "t1": spec.task_maps[0].tolist(),
                        "t2": spec.task_maps[1].tolist(),
                    },
                },
            },
        )
        code, payload = run_json(
            capsys, ["recover", str(csv_path), top_path, "--config", config]
        )
        assert code == 0
        assert payload["mcc"] >= 0.999

    @pytest.mark.parametrize("place", sorted(PARENTLESS_TASK_ROWS))
    def test_recover_truth_init_with_parentless_task(self, tmp_path, capsys, place):
        # the parentless task's B is written as [], which must read back as 0x0
        spec = parentless_task_spec(PARENTLESS_TASK_ROWS[place])
        spec_path = write_json(tmp_path / "spec.json", spec.to_json_dict())
        top_path = write_json(tmp_path / "top.json", spec.topology.to_json_dict())
        csv_path = tmp_path / "data.csv"
        argv = ["dgp-gen", spec_path, "--samples", "300", "--seed", "7", "--out", str(csv_path)]
        assert main(argv) == 0
        init = {
            "F": spec.source_map.tolist(),
            "means": spec.prior.means.tolist(),
            "variances": spec.prior.variances.tolist(),
            "B": {f"t{k + 1}": b.tolist() for k, b in enumerate(spec.task_maps)},
        }
        assert [] in init["B"].values()
        config = write_json(tmp_path / "cfg.json", {"restarts": 1, "init": init})
        assert main(["recover", str(csv_path), top_path, "--config", config]) == 0
        assert "mcc:" in capsys.readouterr().out

    def test_recover_rejects_mismatched_init(self, tmp_path, capsys):
        spec = identifiable_spec()
        spec_path = write_json(tmp_path / "spec.json", spec.to_json_dict())
        top_path = write_json(tmp_path / "top.json", spec.topology.to_json_dict())
        csv_path = tmp_path / "data.csv"
        main(["dgp-gen", spec_path, "--samples", "200", "--seed", "6", "--out", str(csv_path)])
        capsys.readouterr()
        config = write_json(
            tmp_path / "cfg.json",
            {
                "restarts": 1,
                "init": {
                    "F": spec.source_map.tolist(),
                    "means": spec.prior.means[:1].tolist(),  # 1 row, 3 environments
                    "variances": spec.prior.variances.tolist(),
                    "B": {
                        "t1": spec.task_maps[0].tolist(),
                        "t2": spec.task_maps[1].tolist(),
                    },
                },
            },
        )
        code = main(["recover", str(csv_path), top_path, "--config", config])
        assert code == 2
        assert "init means" in capsys.readouterr().err

    @pytest.mark.parametrize("task_column", ["y0_1", "y-1_1"])
    def test_recover_rejects_task_index_below_one(self, tmp_path, capsys, task_column):
        top_path = write_json(
            tmp_path / "top.json", {"num_tasks": 1, "num_latents": 1, "adjacency": [[1]]}
        )
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(f"env,sample,l_1,x_1,{task_column}\n0,0,0.5,0.5,0.5\n")
        assert main(["recover", str(csv_path), top_path]) == 2
        assert "unexpected dataset header" in capsys.readouterr().err

    def test_recover_rejects_a_dataset_that_is_not_utf8(self, tmp_path, capsys):
        top_path = write_json(
            tmp_path / "top.json", {"num_tasks": 1, "num_latents": 1, "adjacency": [[1]]}
        )
        csv_path = tmp_path / "data.csv"
        csv_path.write_bytes(b"env,sample,l_1,x_1,y1_1\n0,0,0.5,\xff,0.5\n")
        assert main(["recover", str(csv_path), top_path]) == 2
        assert capsys.readouterr().err == (
            "input error: dataset is not UTF-8 text: byte 0xff at offset 32\n"
        )

    @pytest.mark.parametrize(
        "config",
        [
            {"max_iters": True},
            {"restarts": True},
            {"restarts": 2.0},
            {"min_step": "0.1"},
            {"min_step": 1e400},
            {"grad_tol": None},
            {"seed": True},
        ],
    )
    def test_recover_rejects_mistyped_fit_config(self, tmp_path, capsys, config):
        top_path = write_json(
            tmp_path / "top.json", {"num_tasks": 1, "num_latents": 1, "adjacency": [[1]]}
        )
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("env,sample,l_1,x_1,y1_1\n0,0,0.5,0.5,0.5\n")
        config_path = write_json(tmp_path / "cfg.json", config)
        assert main(["recover", str(csv_path), top_path, "--config", config_path]) == 2
        assert f"input error: {next(iter(config))} must be" in capsys.readouterr().err

    def test_recover_rejects_the_removed_initial_step(self, tmp_path, capsys):
        top_path = write_json(
            tmp_path / "top.json", {"num_tasks": 1, "num_latents": 1, "adjacency": [[1]]}
        )
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("env,sample,l_1,x_1,y1_1\n0,0,0.5,0.5,0.5\n0,1,0.25,0.5,0.75\n")
        config_path = write_json(tmp_path / "cfg.json", {"initial_step": 0.01})
        assert main(["recover", str(csv_path), top_path, "--config", config_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "'initial_step'" in err and err.count("\n") == 1

    def test_recover_with_an_unbounded_fit_budget_ends(self, tmp_path, capsys):
        spec = colliding_spec()
        spec_path = write_json(tmp_path / "spec.json", spec.to_json_dict())
        top_path = write_json(tmp_path / "top.json", spec.topology.to_json_dict())
        csv_path = tmp_path / "data.csv"
        main(["dgp-gen", spec_path, "--samples", "20000", "--seed", "3", "--out", str(csv_path)])
        config = {"restarts": 2, "max_iters": MAX_ITERS}
        config_path = write_json(tmp_path / "cfg.json", config)
        start = time.perf_counter()
        assert main(["recover", str(csv_path), top_path, "--config", config_path]) == 0
        assert time.perf_counter() - start < 10.0
        result = fit(load_dataset(csv_path), spec.topology, FitConfig(**config))
        assert all(r.stop_reason != "max_iters" for r in result.restarts)

    def test_dgp_gen_above_the_latent_limit_exit_two(self, tmp_path, capsys):
        n = 65
        eye = np.eye(n).tolist()
        spec = {
            "topology": {"num_tasks": 1, "num_latents": n, "adjacency": [[1] * n]},
            "environments": [{"means": [0.0] * n, "variances": [1.0] * n}] * 3,
            "F": eye,
            "B": {"t1": eye},
        }
        spec_path = write_json(tmp_path / "spec.json", spec)
        csv_path = tmp_path / "data.csv"
        assert main(["dgp-gen", spec_path, "--samples", "2", "--out", str(csv_path)]) == 2
        assert "64" in capsys.readouterr().err
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda doc: doc.update(F=[[str(v) for v in row] for row in doc["F"]]), id="F"),
            pytest.param(lambda doc: doc["environments"][0].update(means=["0.0", "1.0"]), id="means"),
            pytest.param(lambda doc: doc.update(noise={"x": "0.0"}), id="noise"),
            pytest.param(
                lambda doc: doc.update(nonlinearity={"type": "leaky", "slope": "0.5"}), id="slope"
            ),
            pytest.param(
                lambda doc: doc.update(nonlinearity={"type": "leaky", "slope": 10**400}),
                id="slope-beyond-float-range",
            ),
        ],
    )
    def test_dgp_gen_rejects_non_numeric_spec_entry(self, tmp_path, capsys, edit):
        doc = identifiable_spec().to_json_dict()
        edit(doc)
        spec_path = write_json(tmp_path / "spec.json", doc)
        csv_path = tmp_path / "data.csv"
        assert main(["dgp-gen", spec_path, "--samples", "10", "--out", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: malformed generator spec") and err.count("\n") == 1
        assert not csv_path.exists()

    @pytest.mark.parametrize("name", ["F", "B t2"])
    def test_dgp_gen_rejects_non_finite_map(self, tmp_path, capsys, name):
        doc = identifiable_spec().to_json_dict()
        (doc["F"] if name == "F" else doc["B"]["t2"])[0][0] = 12345.5
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc).replace("12345.5", "1e400"))
        csv_path = tmp_path / "data.csv"
        assert main(["dgp-gen", str(spec_path), "--samples", "10", "--out", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: malformed generator spec: {name} entries must be finite\n"
        assert not csv_path.exists()

    def test_dgp_gen_rejects_unknown_noise_y_keys(self, tmp_path, capsys):
        doc = json.loads((GOLDEN / "dgp_gen_leaky_noisy.spec.json").read_text())
        doc["noise"] = {"x": 0.0, "y": {"t9": 0.5, "bogus": "x"}}
        spec_path = write_json(tmp_path / "spec.json", doc)
        csv_path = tmp_path / "data.csv"
        assert main(["dgp-gen", spec_path, "--samples", "10", "--out", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err == "input error: unknown generator spec noise y keys: ['bogus', 't9']\n"
        assert not csv_path.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("column, value", [("x_1", "nan"), ("l_1", "nan"), ("y1_1", "-inf")])
    def test_recover_rejects_a_non_finite_cell(self, tmp_path, capfd, column, value):
        spec = identifiable_spec()
        spec_path = write_json(tmp_path / "spec.json", spec.to_json_dict())
        top_path = write_json(tmp_path / "top.json", spec.topology.to_json_dict())
        csv_path = tmp_path / "data.csv"
        main(["dgp-gen", spec_path, "--samples", "200", "--seed", "1", "--out", str(csv_path)])
        lines = csv_path.read_text().splitlines()
        row = lines[5].split(",")
        row[lines[0].split(",").index(column)] = value
        lines[5] = ",".join(row)
        csv_path.write_text("\n".join(lines) + "\n")
        capfd.readouterr()
        assert main(["recover", str(csv_path), top_path]) == 2
        message = f"input error: non-finite cell in dataset columns {column[:-1]}*\n"
        assert capfd.readouterr() == ("", message)

    @pytest.mark.filterwarnings("error")
    def test_dgp_gen_rejects_products_beyond_the_float_range(self, tmp_path, capfd):
        doc = identifiable_spec().to_json_dict()
        doc["F"] = [[1e200, 0.0], [0.0, 1e200]]
        doc["environments"][0]["variances"][0] = 1e300
        spec_path = write_json(tmp_path / "spec.json", doc)
        csv_path = tmp_path / "data.csv"
        assert main(["dgp-gen", spec_path, "--samples", "20", "--out", str(csv_path)]) == 2
        assert capfd.readouterr() == ("", "input error: non-finite cell in dataset columns x_*\n")
        assert not csv_path.exists()

    @pytest.mark.filterwarnings("error")
    def test_recover_with_an_objective_beyond_the_float_range_exit_two(self, tmp_path, capfd):
        doc = identifiable_spec().to_json_dict()
        doc["environments"][0]["variances"][0] = 1e200  # the squared residuals overflow
        spec_path = write_json(tmp_path / "spec.json", doc)
        top_path = write_json(tmp_path / "top.json", identifiable_spec().topology.to_json_dict())
        csv_path = tmp_path / "data.csv"
        assert main(["dgp-gen", spec_path, "--samples", "2000", "--out", str(csv_path)]) == 0
        capfd.readouterr()
        assert main(["recover", str(csv_path), top_path, "--format", "json"]) == 2
        message = (
            "input error: the fit objective is not finite: "
            "the data overflow float64 in the moment residuals\n"
        )
        assert capfd.readouterr() == ("", message)

    def test_recover_rejects_malformed_row(self, tmp_path, capsys):
        top_path = write_json(
            tmp_path / "top.json", {"num_tasks": 1, "num_latents": 1, "adjacency": [[1]]}
        )
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("env,sample,l_1,x_1,y1_1\n0,0,0.5,0.5,0.5\n1,0,0.5,abc,0.5\n")
        assert main(["recover", str(csv_path), top_path]) == 2
        assert "malformed dataset row" in capsys.readouterr().err

    def test_experiment_rejects_init(self, tmp_path, capsys):
        spec = identifiable_spec()
        ident_path = write_json(tmp_path / "ident.json", spec.to_json_dict())
        collide_path = write_json(tmp_path / "collide.json", colliding_spec().to_json_dict())
        config = write_json(
            tmp_path / "cfg.json",
            {
                "restarts": 1,
                "init": {
                    "F": spec.source_map.tolist(),
                    "means": spec.prior.means.tolist(),
                    "variances": spec.prior.variances.tolist(),
                    "B": {
                        "t1": spec.task_maps[0].tolist(),
                        "t2": spec.task_maps[1].tolist(),
                    },
                },
            },
        )
        argv = ["experiment", ident_path, collide_path, "--seeds", "1", "--samples", "200"]
        assert main(argv + ["--config", config]) == 2
        assert "init" in capsys.readouterr().err

    def test_experiment_config_must_be_an_object(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "spec.json", identifiable_spec().to_json_dict())
        config = write_json(tmp_path / "cfg.json", "init")
        assert main(["experiment", spec_path, spec_path, "--config", config]) == 2
        assert capsys.readouterr().err == "input error: fit config must be a JSON object\n"

    def test_experiment_needs_a_seed(self, tmp_path, capsys):
        ident_path = write_json(tmp_path / "ident.json", identifiable_spec().to_json_dict())
        collide_path = write_json(tmp_path / "collide.json", colliding_spec().to_json_dict())
        assert main(["experiment", ident_path, collide_path, "--seeds", "0"]) == 2
        assert capsys.readouterr() == ("", "input error: need at least one seed\n")

    def test_experiment_needs_a_positive_sample_count(self, tmp_path, capsys):
        ident_path = write_json(tmp_path / "ident.json", identifiable_spec().to_json_dict())
        collide_path = write_json(tmp_path / "collide.json", colliding_spec().to_json_dict())
        assert main(["experiment", ident_path, collide_path, "--samples", "0"]) == 2
        assert capsys.readouterr() == ("", "input error: sample count must be positive, got 0\n")

    def test_experiment_workers_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "ident.json", "collide.json", "--workers", "2"])
        assert exc.value.code == 2

    def test_recover_environment_id_far_above_the_rows_exit_two(self, tmp_path, capsys):
        spec = identifiable_spec()
        spec_path = write_json(tmp_path / "spec.json", spec.to_json_dict())
        top_path = write_json(tmp_path / "top.json", spec.topology.to_json_dict())
        csv_path = tmp_path / "data.csv"
        main(["dgp-gen", spec_path, "--samples", "50", "--out", str(csv_path)])
        lines = csv_path.read_text().splitlines()
        lines.append("1000000000000000," + lines[-1].split(",", 1)[1])
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["recover", str(csv_path), top_path]) == 2
        err = capsys.readouterr().err
        assert err == "input error: environment 3 needs at least 2 samples, has 0\n"

    @pytest.mark.parametrize("command", ["recover", "experiment"])
    def test_out_file_equals_stdout(self, tmp_path, capsys, command):
        spec_path = write_json(tmp_path / "spec.json", identifiable_spec().to_json_dict())
        config = write_json(tmp_path / "cfg.json", {"restarts": 1, "max_iters": 50})
        if command == "recover":
            csv_path = str(tmp_path / "data.csv")
            main(["dgp-gen", spec_path, "--samples", "200", "--out", csv_path])
            top_path = write_json(
                tmp_path / "top.json", identifiable_spec().topology.to_json_dict()
            )
            argv = ["recover", csv_path, top_path]
        else:
            collide_path = write_json(
                tmp_path / "collide.json", colliding_spec().to_json_dict()
            )
            argv = ["experiment", spec_path, collide_path, "--seeds", "1", "--samples", "200"]
        argv += ["--config", config, "--format", "json"]
        capsys.readouterr()
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / "report.json"
        assert main(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == stdout

    def test_experiment_report(self, tmp_path, capsys):
        ident_path = write_json(tmp_path / "ident.json", identifiable_spec().to_json_dict())
        collide_path = write_json(tmp_path / "collide.json", colliding_spec().to_json_dict())
        config = write_json(tmp_path / "cfg.json", {"restarts": 2, "seed": 0})
        code, payload = run_json(
            capsys,
            [
                "experiment",
                ident_path,
                collide_path,
                "--seeds",
                "2",
                "--samples",
                "2000",
                "--config",
                config,
            ],
        )
        assert code == 0
        assert set(payload) == {
            "identifiable",
            "colliding",
            "colliding_pair",
            "colliding_pair_corr_per_seed",
            "summary",
        }
        assert len(payload["identifiable"]["per_seed"]) == 2
        assert set(payload["summary"]) >= {"median_mcc_gap", "dispersion_range"}
        assert "median_mcc" in payload["identifiable"]["summary"]


@pytest.mark.parametrize("command", ["dgp-gen", "experiment"])
def test_request_too_large_to_allocate_exit_two(tmp_path, capsys, command):
    # 1.8e18 float cells: the cell limit refuses it before any array is made
    huge = "100000000000000000"
    spec_path = write_json(tmp_path / "spec.json", identifiable_spec().to_json_dict())
    collide_path = write_json(tmp_path / "collide.json", colliding_spec().to_json_dict())
    argv = {
        "dgp-gen": ["dgp-gen", spec_path, "--samples", huge, "--out", str(tmp_path / "d.csv")],
        "experiment": ["experiment", spec_path, collide_path, "--samples", huge, "--seeds", "1"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    spec = {"dgp-gen": "generator spec", "experiment": "identifiable spec"}[command]
    assert err.startswith(f"input error: {huge} samples in each of 3 environments of the {spec}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["loss", "mask", "recover"])
def test_integer_beyond_float_range_exit_two(tmp_path, capsys, command):
    huge = 10**400
    top_path = write_json(
        tmp_path / "top.json", {"num_tasks": 1, "num_latents": 1, "adjacency": [[1]]}
    )
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("env,sample,l_1,x_1,y1_1\n0,0,0.5,0.5,0.5\n0,1,0.25,0.5,0.75\n")
    argv = {
        "loss": ["loss", write_json(tmp_path / "matrix.json", [[1, huge]])],
        "mask": ["mask", "--scores", write_json(tmp_path / "scores.json", [0.5, huge])],
        "recover": [
            "recover",
            str(csv_path),
            top_path,
            "--config",
            write_json(tmp_path / "cfg.json", {"min_step": huge}),
        ],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    message = f"JSON in {argv[-1]} holds an integer with 401 digits, beyond the float range"
    assert err == f"input error: {message}\n"


@pytest.fixture
def recover_files(tmp_path, capsys):
    """A small identifiable dataset, its topology file and the truth as a fit-config init."""
    spec = identifiable_spec()
    spec_path = write_json(tmp_path / "spec.json", spec.to_json_dict())
    top_path = write_json(tmp_path / "top.json", spec.topology.to_json_dict())
    csv_path = str(tmp_path / "data.csv")
    main(["dgp-gen", spec_path, "--samples", "200", "--seed", "6", "--out", csv_path])
    capsys.readouterr()
    init = {
        "F": spec.source_map.tolist(),
        "means": spec.prior.means.tolist(),
        "variances": spec.prior.variances.tolist(),
        "B": {"t1": spec.task_maps[0].tolist(), "t2": spec.task_maps[1].tolist()},
    }
    return csv_path, top_path, init


def test_singular_model_exit_three(capsys, recover_files, monkeypatch):
    def collapse(*args, **kwargs):
        raise SingularModelError("every restart collapsed to a singular mixing map")

    monkeypatch.setattr(cli, "fit", collapse)
    csv_path, top_path, _ = recover_files
    assert main(["recover", csv_path, top_path]) == 3
    assert capsys.readouterr() == (
        "",
        "numeric failure: every restart collapsed to a singular mixing map\n",
    )


@pytest.mark.parametrize("command", ["loss", "mask", "recover"])
def test_string_cells_in_numeric_inputs_exit_two(tmp_path, capsys, recover_files, command):
    csv_path, top_path, init = recover_files
    config = {"restarts": 1, "init": dict(init, F=[["1", 0], [0, "1"]])}
    argv = {
        "loss": ["loss", write_json(tmp_path / "matrix.json", [["1", "0.5"], ["0", "1"]])],
        "mask": ["mask", "--scores", write_json(tmp_path / "scores.json", ["0.5", "-1"])],
        "recover": [
            "recover", csv_path, top_path, "--config", write_json(tmp_path / "cfg.json", config)
        ],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "entries must be numbers" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "case", ["unknown-key", "init-not-object", "init-without-B", "init-1e400", "init-nan"]
)
def test_recover_rejects_malformed_fit_config(tmp_path, capsys, recover_files, case):
    csv_path, top_path, init = recover_files
    config, message = {
        "unknown-key": ({"foo": 1}, "unknown fit config keys: ['foo']"),
        "init-not-object": ({"init": 5}, "fit config init must be a JSON object"),
        "init-without-B": (
            {"init": {key: value for key, value in init.items() if key != "B"}},
            "fit config init missing key 'B'",
        ),
        # the marker becomes 1e400, which JSON reads as infinity
        "init-1e400": (
            {"init": dict(init, F=[[12345.5, 0.6], [-0.4, 1.1]])},
            "init F entries must be finite",
        ),
        "init-nan": (
            {"init": dict(init, B={"t1": [[float("nan")]], "t2": init["B"]["t2"]})},
            "init B t1 entries must be finite",
        ),
    }[case]
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config).replace("12345.5", "1e400"))
    assert main(["recover", csv_path, top_path, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_recover_rejects_restarts_above_the_bound(tmp_path, capsys):
    top_path = write_json(
        tmp_path / "top.json", {"num_tasks": 1, "num_latents": 1, "adjacency": [[1]]}
    )
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("env,sample,l_1,x_1,y1_1\n0,0,0.5,0.5,0.5\n0,1,0.25,0.5,0.75\n")
    config = write_json(tmp_path / "cfg.json", {"restarts": MAX_RESTARTS + 1, "max_iters": 1})
    assert main(["recover", str(csv_path), top_path, "--config", config]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: restarts must be at most {MAX_RESTARTS}, got {MAX_RESTARTS + 1}\n"


def test_recover_rejects_max_iters_above_the_bound(tmp_path, capsys):
    top_path = write_json(
        tmp_path / "top.json", {"num_tasks": 1, "num_latents": 1, "adjacency": [[1]]}
    )
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("env,sample,l_1,x_1,y1_1\n0,0,0.5,0.5,0.5\n0,1,0.25,0.5,0.75\n")
    config = write_json(tmp_path / "cfg.json", {"restarts": 1, "max_iters": MAX_ITERS + 1})
    assert main(["recover", str(csv_path), top_path, "--config", config]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: max_iters must be at most {MAX_ITERS}, got {MAX_ITERS + 1}\n"


def test_recover_of_tiny_environments_is_refused_before_the_fit(tmp_path, capsys, monkeypatch):
    """3,000 rows dealt into 1,500 two-row environments, 2 restarts: a fit
    that runs every restart to max_iters is refused at once."""
    spec = identifiable_spec()
    dataset = generate_dataset(spec, 1000, seed=0)
    dealt = dataclasses.replace(
        dataset, num_environments=1500, env_ids=np.arange(3000) // 2
    )
    csv_path = tmp_path / "data.csv"
    export_dataset(dealt, csv_path)
    top_path = write_json(tmp_path / "top.json", spec.topology.to_json_dict())
    config = write_json(tmp_path / "cfg.json", {"restarts": 2})
    monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: pytest.fail("the fit ran"))
    start = time.perf_counter()
    assert main(["recover", str(csv_path), top_path, "--config", config]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "",
        "input error: recover of 2 restarts x 2000 iterations on 1500 environments"
        " exceeds the work limit; lower restarts, max_iters or the environment count\n",
    )


def test_recover_work_estimate_accepts_the_default_three_environment_fit():
    topology = identifiable_spec().topology
    work = cli._recover_work(FitConfig(), 3, topology)
    assert work == 8 * 2020 * (3 * (10 + 16 + 2 * 6) + 36)
    assert work < cli.RECOVER_WORK_LIMIT


class Reached(Exception):
    """Raised in place of the work that a refusal must come before."""


def reach(*args, **kwargs):
    raise Reached


def test_dgp_gen_above_the_cell_limit_is_refused_before_generating(tmp_path, capsys, monkeypatch):
    # 3 environments of 2 latents, 2 source and 2 task columns: 18 float cells a sample
    spec_path = write_json(tmp_path / "spec.json", identifiable_spec().to_json_dict())
    samples = cli.DATASET_CELL_LIMIT // 18
    assert samples >= 20000  # the benchmark's pipeline request
    monkeypatch.setattr(cli, "generate_dataset", reach)
    argv = ["dgp-gen", spec_path, "--out", str(tmp_path / "data.csv"), "--samples"]
    with pytest.raises(Reached):
        main(argv + [str(samples)])
    assert main(argv + [str(samples + 1)]) == 2
    assert capsys.readouterr() == (
        "",
        f"input error: {samples + 1} samples in each of 3 environments of the generator spec"
        f" make {18 * (samples + 1)} float cells, beyond the limit of {cli.DATASET_CELL_LIMIT};"
        " lower --samples\n",
    )


def test_experiment_above_the_cell_limit_is_refused_before_forking(tmp_path, capsys, monkeypatch):
    ident_path = write_json(tmp_path / "ident.json", identifiable_spec().to_json_dict())
    collide_path = write_json(tmp_path / "collide.json", colliding_spec().to_json_dict())
    samples = cli.DATASET_CELL_LIMIT // 18 + 1
    monkeypatch.setattr(cli, "identifiability_experiment", reach)
    argv = ["experiment", ident_path, collide_path, "--seeds", "1", "--samples", str(samples)]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "",
        f"input error: {samples} samples in each of 3 environments of the identifiable spec"
        f" make {18 * samples} float cells, beyond the limit of {cli.DATASET_CELL_LIMIT};"
        " lower --samples\n",
    )


def test_experiment_above_the_work_limit_is_refused_before_forking(tmp_path, capsys, monkeypatch):
    ident, collide = identifiable_spec(), colliding_spec()
    ident_path = write_json(tmp_path / "ident.json", ident.to_json_dict())
    collide_path = write_json(tmp_path / "collide.json", collide.to_json_dict())
    config = write_json(tmp_path / "cfg.json", {"restarts": 2})
    seeds = cli.EXPERIMENT_WORK_LIMIT // cli._experiment_work(
        FitConfig(restarts=2), 1, 20000, ident, collide
    )
    assert seeds >= 2  # the benchmark's contrast request
    monkeypatch.setattr(cli, "identifiability_experiment", reach)
    argv = ["experiment", ident_path, collide_path, "--samples", "20000", "--config", config]
    with pytest.raises(Reached):
        main(argv + ["--seeds", str(seeds)])
    assert main(argv + ["--seeds", str(seeds + 1)]) == 2
    assert capsys.readouterr() == (
        "",
        f"input error: experiment of {seeds + 1} seeds x 2 restarts x 2000 iterations exceeds"
        " the work limit; lower --seeds, --samples, restarts or max_iters\n",
    )


def test_experiment_work_estimate_accepts_the_default_experiment():
    work = cli._experiment_work(FitConfig(), 10, 20000, identifiable_spec(), colliding_spec())
    ident_fit = 8 * 2020 * (3 * (10 + 16 + 2 * 6) + 36)
    collide_fit = 8 * 2020 * (3 * (10 + 16 + 2 * 8) + 64)
    assert work == 10 * (ident_fit + collide_fit + 2 * (360_000 + 100 * 2 + 10**4))
    assert work < cli.EXPERIMENT_WORK_LIMIT


class TestDeterminism:
    def test_dgp_gen_matches_golden(self, tmp_path, capsys):
        # leaky slope, source and task noise, and a parentless task between two others
        csv_path = tmp_path / "data.csv"
        spec_path = str(GOLDEN / "dgp_gen_leaky_noisy.spec.json")
        argv = ["dgp-gen", spec_path, "--samples", "20", "--seed", "11", "--out", str(csv_path)]
        assert main(argv) == 0
        assert csv_path.read_bytes() == (GOLDEN / "dgp_gen_leaky_noisy.csv").read_bytes()

    def test_json_outputs_byte_identical(self, identity_topology_file, capsys):
        main(["check", identity_topology_file, "--format", "json", "--seed", "9"])
        first = capsys.readouterr().out
        main(["check", identity_topology_file, "--format", "json", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_csv_outputs_byte_identical(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "spec.json", identifiable_spec().to_json_dict())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["dgp-gen", spec_path, "--samples", "500", "--seed", "2", "--out", str(a)])
        main(["dgp-gen", spec_path, "--samples", "500", "--seed", "2", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_out_flag_writes_file(self, identity_topology_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(
            ["check", identity_topology_file, "--format", "json", "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["identifiable"] is True


# calls cli.main once per command line in its argv, each with stdout discarded,
# and prints the exit codes; run under -W error -X dev -X warn_default_encoding
SMOKE_SCRIPT = """
import contextlib, io, json, sys
from scm_ident.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def test_every_subcommand_runs_clean_under_dev_mode_with_warnings_as_errors(tmp_path):
    """One process under ``-W error -X dev``: no warning, ResourceWarning included, reaches stderr.

    ``-X warn_default_encoding`` makes a text-mode ``open`` without an
    encoding, whose bytes would follow the host's locale, one more warning.
    """
    ident, collide = identifiable_spec(), colliding_spec()
    top = write_json(tmp_path / "top.json", ident.topology.to_json_dict())
    ident_path = write_json(tmp_path / "ident.json", ident.to_json_dict())
    collide_path = write_json(tmp_path / "collide.json", collide.to_json_dict())
    csv_path = str(tmp_path / "data.csv")
    commands = {
        "check": ["check", top],
        "check --out": ["check", top, "--format", "json", "--out", str(tmp_path / "check.json")],
        "closure": ["closure", top, "--trace"],
        "enumerate": ["enumerate", "--m", "2", "--n", "2"],
        "loss": ["loss", write_json(tmp_path / "matrix.json", [[1, 0.5], [0, 1]])],
        "gradcheck": ["gradcheck", "--trials", "5"],
        "mask": [
            "mask", "--scores", write_json(tmp_path / "scores.json", [0.5, -1.0, 2.0]),
            "--temperature", "1e-320",
        ],
        "dgp-gen": ["dgp-gen", ident_path, "--samples", "200", "--out", csv_path],
        "recover": ["recover", csv_path, top],
        "experiment": [
            "experiment", ident_path, collide_path, "--seeds", "2", "--samples", "200",
            "--config", write_json(tmp_path / "cfg.json", {"restarts": 2}),
        ],
    }
    package_root = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join([package_root, *filter(None, [os.environ.get("PYTHONPATH")])])
    run = subprocess.run(
        [sys.executable, "-W", "error", "-X", "dev", "-X", "warn_default_encoding",
         "-c", SMOKE_SCRIPT,
         json.dumps(list(commands.values()))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert dict(zip(commands, json.loads(run.stdout))) == dict.fromkeys(commands, 0)


# Hostile JSON documents, each fed to every subcommand argument that reads JSON.
HOSTILE_JSON = {
    "deep-array": "[" * 1000 + "]" * 1000,
    "deep-object": '{"a": ' * 1000 + "1" + "}" * 1000,
    "list": "[1, 2]",
    "string": '"text"',
    "number": "3",
    "null": "null",
    "empty": b"",
    "not-utf8": b"\xff\xfe{}",
    "utf8-bom": b"\xef\xbb\xbf{}",
    "beyond-float": "1e400",
    "nan": "NaN",
    "400-digits": "7" * 400,
    "5000-digits": "7" * 5000,
    "list-beyond-float": "[1e400, 2]",
    "list-nan": "[NaN, 2]",
}
JSON_ENTRY_POINTS = (
    "check",
    "closure",
    "loss",
    "mask --scores",
    "dgp-gen",
    "recover topology",
    "recover --config",
    "experiment",
)
# the hostile documents that are valid input where they go
VALID_JSON = {("list", "mask --scores")}
# the documents refused while the file is decoded, before any reader sees them
UNDECODABLE_JSON = {
    "deep-array", "deep-object", "empty", "not-utf8", "utf8-bom", "400-digits", "5000-digits"
}


@pytest.fixture(scope="module")
def json_entry_points(tmp_path_factory):
    """Each of ``JSON_ENTRY_POINTS`` as a function from the document's path to a full argv."""
    root = tmp_path_factory.mktemp("json-entry-points")
    spec = identifiable_spec()
    spec_path = write_json(root / "spec.json", spec.to_json_dict())
    top_path = write_json(root / "top.json", spec.topology.to_json_dict())
    csv_path = str(root / "data.csv")
    assert main(["dgp-gen", spec_path, "--samples", "50", "--out", csv_path]) == 0
    small = ["--seeds", "1", "--samples", "50"]
    return {
        "check": lambda path: ["check", path],
        "closure": lambda path: ["closure", path],
        "loss": lambda path: ["loss", path],
        "mask --scores": lambda path: ["mask", "--scores", path],
        "dgp-gen": lambda path: ["dgp-gen", path, "--samples", "10", "--out", str(root / "o.csv")],
        "recover topology": lambda path: ["recover", csv_path, path],
        "recover --config": lambda path: ["recover", csv_path, top_path, "--config", path],
        "experiment": lambda path: ["experiment", path, spec_path, *small],
    }


@pytest.mark.parametrize("entry", JSON_ENTRY_POINTS)
@pytest.mark.parametrize("document", sorted(HOSTILE_JSON))
def test_hostile_json_gets_an_answer_or_one_input_error(
    tmp_path, capsys, json_entry_points, entry, document
):
    path = tmp_path / "document.json"
    content = HOSTILE_JSON[document]
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    capsys.readouterr()
    code = main(json_entry_points[entry](str(path)))
    err = capsys.readouterr().err
    if (document, entry) in VALID_JSON:
        assert (code, err) == (0, "")
    else:
        assert code == 2
        assert err.startswith("input error: ") and err.count("\n") == 1
        if document in UNDECODABLE_JSON:
            assert f"JSON in {path} " in err
        assert "7" * 40 not in err  # no digits of a long integer
        if document.startswith("deep"):
            assert err.endswith(f"JSON in {path} is nested too deeply to read\n")
        if entry == "recover --config" and document in {"list", "string", "number", "null"}:
            assert err == "input error: fit config must be a JSON object\n"
