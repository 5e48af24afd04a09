"""Every outside value is read by one reader per kind (``scm_ident.errors``).

The hostile-value test feeds each value parameter of each public entry
point, one at a time with the others valid, a value of the wrong kind or at
an extreme. The answer must be a value or a :class:`ScmIdentError`
subclass: never a bare ``ValueError``, ``TypeError``, ``AttributeError`` or
``OverflowError``, and never a warning. Parameters that take a package
object (a topology, a prior, a spec, a config, a dataset) and file paths
are outside its scope.
"""

import copy
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import colliding_spec, identifiable_spec
from scm_ident import (
    DataError,
    DgpSpec,
    DomainError,
    ExpFamilyPrior,
    FitConfig,
    LabelError,
    LossConfig,
    ScmIdentError,
    ScmTopology,
    ShapeError,
    UnmixModel,
    as_soft_adjacency,
    build_task_latent_matrix,
    constraint_loss,
    constraint_loss_grad,
    dis_loss,
    dis_loss_grad,
    equivalence_audit,
    export_dataset,
    fit,
    generate_dataset,
    generate_observed,
    gumbel_softmax_mask,
    identifiability_experiment,
    match_permutation,
    min_tasks_for,
    recover_latents,
    sample_hard_mask,
    sample_latents,
    soft_mask,
    uic_loss,
    uic_loss_grad,
)
from scm_ident.cli import main
from scm_ident.errors import read_array, read_int, read_names, read_real
from scm_ident.selection import mask_statistics_self_test

HOSTILE = {
    "None": None,
    "True": True,
    "digit-string": "1",
    "string": "x",
    "ragged": [[0.5, 1], [1]],
    "empty-row": [[]],
    "nan": math.nan,
    "inf": math.inf,
    "huge-int": 2**1100,
    "negative-zero": -0.0,
}

SPEC = identifiable_spec()
DATASET = generate_dataset(SPEC, 20, 0)
TRUTH = {
    "mixing": SPEC.source_map,
    "env_means": SPEC.prior.means,
    "env_variances": SPEC.prior.variances,
    "task_maps": SPEC.task_maps,
}
SOFT = [0.2, 0.9]
MATRIX = [[0.2, 0.9], [0.6, 0.1]]
TOPOLOGY_FIELDS = dict(
    num_tasks=1, num_latents=2, adjacency=[[1, 0]], latent_names=["a", "b"], task_names=["t"]
)


def _spec_doc(**fields):
    return DgpSpec.from_json_dict({**SPEC.to_json_dict(), **fields})


def _leaky_spec_doc(slope):
    return _spec_doc(nonlinearity={"type": "leaky", "slope": slope})


def _fit_from(**blocks):
    return fit(DATASET, SPEC.topology, FitConfig(restarts=1, max_iters=1), UnmixModel(**blocks))


# entry point -> (callable, valid keyword arguments, each of which gets a hostile value)
ENTRIES = {
    "ScmTopology": (ScmTopology, TOPOLOGY_FIELDS),
    "ScmTopology.from_rows": (
        ScmTopology.from_rows,
        dict(rows=[[1, 0]], latent_names=["a", "b"], task_names=["t"]),
    ),
    "ScmTopology.from_json_dict": (lambda **doc: ScmTopology.from_json_dict(doc), TOPOLOGY_FIELDS),
    "ExpFamilyPrior": (
        ExpFamilyPrior,
        dict(means=SPEC.prior.means.tolist(), variances=SPEC.prior.variances.tolist()),
    ),
    "DgpSpec": (
        lambda **arrays: DgpSpec(SPEC.topology, SPEC.prior, **arrays),
        dict(
            source_map=SPEC.source_map.tolist(),
            task_maps=[b.tolist() for b in SPEC.task_maps],
            slope=0.5,
            noise_x=[0.1, 0.1],
            noise_y=[[0.1], [0.1]],
        ),
    ),
    "DgpSpec.from_json_dict": (
        _spec_doc,
        dict(F=SPEC.source_map.tolist(), B={"t1": [[1.3]], "t2": [[-0.8]]}),
    ),
    "DgpSpec.from_json_dict slope": (_leaky_spec_doc, dict(slope=0.5)),
    "sample_latents": (
        lambda **values: sample_latents(SPEC.prior, **values),
        dict(env_index=1, count=4, seed=3),
    ),
    "generate_observed": (
        lambda **values: generate_observed(SPEC, **values),
        dict(latents=DATASET.latents[:4].tolist(), seed=3, env_index=1),
    ),
    "generate_dataset": (
        lambda **values: generate_dataset(SPEC, **values),
        dict(samples_per_env=4, seed=3),
    ),
    "as_soft_adjacency": (as_soft_adjacency, dict(values=MATRIX)),
    "uic_loss": (uic_loss, dict(matrix=MATRIX, alpha=4)),
    "uic_loss_grad": (uic_loss_grad, dict(matrix=MATRIX, alpha=4)),
    "dis_loss": (dis_loss, dict(matrix=MATRIX, alpha=4)),
    "dis_loss_grad": (dis_loss_grad, dict(matrix=MATRIX, alpha=4)),
    "LossConfig": (LossConfig, dict(alpha=4, lambda_uic=0.5, lambda_dis=2.0)),
    "constraint_loss": (constraint_loss, dict(matrix=MATRIX)),
    "constraint_loss_grad": (constraint_loss_grad, dict(matrix=MATRIX)),
    "soft_mask": (soft_mask, dict(scores=[0.5, -1.0], scale=10.0)),
    "sample_hard_mask": (sample_hard_mask, dict(soft=SOFT, seed=3)),
    "gumbel_softmax_mask": (gumbel_softmax_mask, dict(soft=SOFT, temperature=0.5, seed=3)),
    "build_task_latent_matrix": (build_task_latent_matrix, dict(soft_masks=MATRIX)),
    "mask_statistics_self_test": (mask_statistics_self_test, dict(seed=3, draws=100)),
    "FitConfig": (
        FitConfig,
        dict(restarts=2, max_iters=10, min_step=1e-10, grad_tol=1e-9, seed=3),
    ),
    "fit init": (_fit_from, TRUTH),
    "recover_latents": (
        lambda x: recover_latents(UnmixModel(**TRUTH), x),
        dict(x=DATASET.x[:4].tolist()),
    ),
    "match_permutation": (
        match_permutation,
        dict(true_latents=DATASET.latents.tolist(), est_latents=DATASET.x.tolist()),
    ),
    "equivalence_audit": (equivalence_audit, dict(max_m=1, max_n=2)),
    "min_tasks_for": (min_tasks_for, dict(n_latents=3)),
    "identifiability_experiment": (
        lambda **counts: identifiability_experiment(
            SPEC, colliding_spec(), FitConfig(restarts=1, max_iters=1), **counts
        ),
        dict(seeds=1, samples_per_env=20),
    ),
}

CASES = [
    pytest.param(entry, param, value, id=f"{entry}-{param}-{value_id}")
    for entry, (_, valid) in ENTRIES.items()
    for param in valid
    for value_id, value in HOSTILE.items()
]


@pytest.mark.parametrize("entry, param, value", CASES)
def test_hostile_value_gets_a_value_or_a_typed_error(entry, param, value):
    call, valid = ENTRIES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(**{**valid, param: copy.deepcopy(value)})
        except ScmIdentError:
            pass


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(
            lambda: ExpFamilyPrior([["0", "1"]], [["1", "1"]]), DataError, id="prior-strings"
        ),
        pytest.param(
            lambda: ScmTopology(1, 2, [[1, 0]], latent_names="ab"), DataError, id="bare-string"
        ),
        pytest.param(
            lambda: ScmTopology(1, 2, [[1, 0]], task_names=[7]), DataError, id="number-names"
        ),
        pytest.param(lambda: uic_loss([["0.5", "1"]]), DomainError, id="loss-strings"),
        pytest.param(lambda: soft_mask(["0.5"]), DomainError, id="score-strings"),
        pytest.param(lambda: LossConfig(lambda_uic="1"), DomainError, id="weight-string"),
        pytest.param(lambda: min_tasks_for(2.5), ScmIdentError, id="fractional-latent-count"),
    ],
)
def test_a_value_of_the_wrong_kind_is_refused(call, error):
    with pytest.raises(error):
        call()


class TestReaders:
    def test_a_float64_array_is_not_copied(self):
        values = np.arange(6.0).reshape(2, 3)
        assert read_array(values, DataError, "values") is values

    @pytest.mark.parametrize(
        "value, want",
        [([[1, 0]], [[1.0, 0.0]]), ([True, False], [1.0, 0.0]), (np.float32(0.5), 0.5)],
    )
    def test_numbers_read_as_float64(self, value, want):
        got = read_array(value, DataError, "values")
        assert got.dtype == np.float64 and got.tolist() == want

    @pytest.mark.parametrize(
        "value, message",
        [
            ([["1", "0"]], "values entries must be numbers, got dtype <U1"),
            ([1, None], "values entries must be numbers, got dtype object"),
            ([2**70], "values entries must be numbers, got dtype object"),
            ([1j], "values entries must be numbers, got dtype complex128"),
            ([[1.0], [1.0, 2.0]], "values: setting an array element with a sequence"),
        ],
    )
    def test_array_refusals_name_the_label(self, value, message):
        with pytest.raises(ShapeError) as raised:
            read_array(value, ShapeError, "values")
        assert str(raised.value).startswith(message)

    @pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, "2", None, Fraction(2)])
    def test_int_refusals(self, value):
        with pytest.raises(LabelError, match=r"^count must be an integer, got "):
            read_int(value, LabelError, "count")

    def test_numpy_ints_read_as_int(self):
        assert type(read_int(np.uint64(2**64 - 1), DataError, "seed")) is int

    @pytest.mark.parametrize("value", [True, "0.5", None, math.nan, -math.inf, [0.5]])
    def test_real_refusals(self, value):
        with pytest.raises(DataError, match=r"^step must be a finite real number, got "):
            read_real(value, DataError, "step")

    def test_real_beyond_the_float_range(self):
        with pytest.raises(DataError, match=r"^step is an integer beyond the float range$"):
            read_real(-(10**400), DataError, "step")

    @pytest.mark.parametrize("value, want", [(np.float32(0.5), 0.5), (3, 3.0), (-0.0, -0.0)])
    def test_reals_read_as_float(self, value, want):
        got = read_real(value, DataError, "step")
        assert type(got) is float and got == want

    @pytest.mark.parametrize("value", ["ab", {"a": 1}, ["a", 1], None, b"ab"])
    def test_name_refusals(self, value):
        with pytest.raises(LabelError, match=r"^names must be an array of strings$"):
            read_names(value, LabelError, "names")

    def test_names_read_as_tuple(self):
        assert read_names(["a", "b"], LabelError, "names") == ("a", "b")


def _recover_argv(tmp_path, init_f) -> list[str]:
    csv_path = tmp_path / "data.csv"
    export_dataset(DATASET, csv_path)
    topology_path = tmp_path / "top.json"
    topology_path.write_text(json.dumps(SPEC.topology.to_json_dict()))
    init = {
        "F": init_f,
        "means": SPEC.prior.means.tolist(),
        "variances": SPEC.prior.variances.tolist(),
        "B": {"t1": [[1.3]], "t2": [[-0.8]]},
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"restarts": 1, "init": init}))
    return ["recover", str(csv_path), str(topology_path), "--config", str(config_path)]


DOCUMENTS = {
    ("loss", "strings"): [["1", "0.5"], ["0", "1"]],
    ("loss", "ragged"): [[1, 0.5], [0]],
    ("mask", "strings"): ["0.5", "-1"],
    ("mask", "ragged"): [[0.5], [1, 2]],
    ("recover", "strings"): [["1", 0], [0, "1"]],
    ("recover", "ragged"): [[1, 0], [0]],
}


@pytest.mark.parametrize("command, kind", sorted(DOCUMENTS))
def test_a_malformed_document_exits_two_with_one_line(tmp_path, capsys, command, kind):
    document = DOCUMENTS[command, kind]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    argv = {
        "loss": ["loss", str(path)],
        "mask": ["mask", "--scores", str(path)],
        "recover": _recover_argv(tmp_path, document),
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1
    if kind == "strings":
        assert "entries must be numbers" in captured.err
