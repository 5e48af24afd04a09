"""Tests of the benchmark's own generators, references and bookkeeping.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).parent)]

import compare  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from conftest import colliding_spec, identifiable_spec  # noqa: E402
from scm_ident import (  # noqa: E402
    DgpSpec,
    ScmTopology,
    closure_generate,
    export_dataset,
    generate_dataset,
    uic_check,
)
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("seed", range(5))
def test_decide_round_has_requested_columns_and_verdicts(seed):
    targets = gen.decide_round(np.random.default_rng(seed))
    assert sorted((t.distinct, t.identifiable) for t in targets) == sorted(
        (d, v) for d in gen.DECIDE_DISTINCT for v in (True, False)
    )
    for target in targets:
        topology = ScmTopology.from_rows(target.rows)
        columns = topology.column_masks()
        assert len(set(columns)) == target.distinct
        assert (topology.num_latents == target.distinct) == target.identifiable
        assert uic_check(topology) == target.identifiable
        shared = {j for pair in topology.collision_pairs() for j in pair}
        assert target.duplicated == shared
        assert np.array_equal(target.scores > 0, target.rows == 1)


def test_closure_counts_match_the_generated_family():
    for target in gen.decide_round(np.random.default_rng(7)):
        if target.distinct <= 6:
            family = closure_generate(ScmTopology.from_rows(target.rows))
            assert len(family) == gen.closure_counts(target.distinct)[0]


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 4) for n in range(1, 5)])
def test_falling_factorial_matches_brute_force(m, n):
    distinct = 0
    for enc in range(1 << (m * n)):
        columns = [(enc >> (j * m)) & ((1 << m) - 1) for j in range(n)]
        distinct += len(set(columns)) == n
    assert gen.falling_factorial(m, n) == distinct


def test_audit_reference_total_at_three_by_five():
    assert sum(gen.falling_factorial(m, n) for m in range(1, 4) for n in range(1, 6)) == 8868


def test_spec_copies_equal_the_test_fixtures():
    assert DgpSpec.from_json_dict(gen.SPEC_IDENT).to_json_dict() == identifiable_spec().to_json_dict()
    assert DgpSpec.from_json_dict(gen.SPEC_COLLIDE).to_json_dict() == colliding_spec().to_json_dict()


def test_render_csv_matches_export(tmp_path):
    dataset = generate_dataset(identifiable_spec(), 40, seed=3)
    export_dataset(dataset, tmp_path / "data.csv")
    rendered = gen.render_csv(dataset.env_ids, dataset.latents, dataset.x, dataset.y)
    assert (tmp_path / "data.csv").read_bytes() == rendered


def test_self_time_subtracts_children():
    tracer = Tracer(True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner["parent"] == 0 and outer["parent"] is None
    self_ms = tracer.self_ms()
    total = (outer["end"] - outer["start"]) * 1000
    assert self_ms["outer"] + self_ms["inner"] == pytest.approx(total)
    assert Tracer(False).span("x").__enter__() is None and not Tracer(False).spans


def test_benchmark_json_declares_the_metrics_run_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOAD_NAMES)


def test_compare_flags_a_backend_or_cpu_mismatch():
    def record(backend, nproc):
        return {
            "workload": "audit",
            "trace": 0,
            "environment": {"backend": backend, "nproc": nproc},
            "metrics": {"op_p50_ms": {"value": 2.0, "unit": "ms"}},
        }

    assert compare.compare(record("pure", 2), record("pure", 2))[1] == []
    assert len(compare.compare(record("pure", 2), record("fast", 4))[1]) == 2
