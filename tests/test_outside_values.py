"""Every outside value is read by one reader per kind (``scm_ident.errors``).

The hostile-value test feeds each value parameter of each public entry
point, one at a time with the others valid, a value of the wrong kind or at
an extreme. The answer must be a value or a :class:`ScmIdentError`
subclass: never a bare ``ValueError``, ``TypeError``, ``AttributeError`` or
``OverflowError``, and never a warning. Parameters that take a package
object (a topology, a prior, a spec, a config, a dataset) are outside its
scope; a file path gets every hostile value but the strings, which are
paths.
"""

import copy
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import colliding_spec, identifiable_spec
import scm_ident
from scm_ident import (
    CapacityError,
    ConfigError,
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
    SyntheticDataset,
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
    load_dataset,
    match_permutation,
    min_tasks_for,
    recover_latents,
    sample_hard_mask,
    sample_latents,
    soft_mask,
    uic_loss,
    uic_loss_grad,
)
from scm_ident._rng import check_seed
from scm_ident.cli import main
from scm_ident.errors import read_array, read_block, read_int, read_names, read_real
from scm_ident.errors import read_task_blocks, read_task_keyed
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
    "SyntheticDataset": (
        SyntheticDataset,
        dict(
            num_environments=3,
            env_ids=DATASET.env_ids.tolist(),
            latents=DATASET.latents.tolist(),
            x=DATASET.x.tolist(),
            y=[block.tolist() for block in DATASET.y],
        ),
    ),
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


PATH_ENTRIES = {
    "export_dataset": lambda path: export_dataset(DATASET, path),
    "load_dataset": load_dataset,
}
# open() reads a bool or an int as a file descriptor, so those cases run in
# their own process: a regression there cannot close this process's stdout
PATH_SCRIPT = """
import sys
import numpy as np
from scm_ident import DataError, SyntheticDataset, export_dataset, load_dataset
dataset = SyntheticDataset(1, [0], np.zeros((1, 1)), np.zeros((1, 1)), ())
call = {"export_dataset": lambda path: export_dataset(dataset, path), "load_dataset": load_dataset}
try:
    call[sys.argv[1]](%s)
except DataError as exc:
    print(exc)
"""


@pytest.mark.parametrize(
    "entry, value_id",
    [
        pytest.param(entry, value_id, id=f"{entry}-path-{value_id}")
        for entry in PATH_ENTRIES
        for value_id, value in HOSTILE.items()
        if not isinstance(value, str)
    ],
)
def test_a_hostile_path_gets_a_data_error(entry, value_id):
    value = HOSTILE[value_id]
    if not isinstance(value, int):
        with pytest.raises(DataError, match=r"^dataset must be a path, got "):
            PATH_ENTRIES[entry](copy.deepcopy(value))
        return
    package_root = str(Path(scm_ident.__file__).resolve().parent.parent)
    path = os.pathsep.join([package_root, *filter(None, [os.environ.get("PYTHONPATH")])])
    run = subprocess.run(
        [sys.executable, "-c", PATH_SCRIPT % repr(value), entry],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == f"dataset must be a path, got {type(value).__name__}\n"


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: sample_latents(SPEC.prior, 0, -(10**5000), 0), ConfigError, id="count"),
        pytest.param(lambda: FitConfig(restarts=10**5000), ConfigError, id="restarts"),
        pytest.param(lambda: check_seed(10**5000), ConfigError, id="seed"),
        pytest.param(lambda: equivalence_audit(10**5000, 1), CapacityError, id="audit-bound"),
        pytest.param(lambda: ScmTopology(-(10**5000), 1, [[1]]), ShapeError, id="num-tasks"),
        pytest.param(lambda: min_tasks_for(10**5000), CapacityError, id="latent-count"),
    ],
)
def test_an_int_beyond_4096_bits_is_refused_by_its_bit_length(call, error):
    with pytest.raises(error, match=r" is an integer of 16610 bits, beyond 4096$"):
        call()


BAD_B_T1 = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(
            lambda: DgpSpec(SPEC.topology, SPEC.prior, SPEC.source_map, [BAD_B_T1, [[-0.8]]]),
            id="spec",
        ),
        pytest.param(lambda: _spec_doc(B={"t1": BAD_B_T1, "t2": [[-0.8]]}), id="spec-json"),
        pytest.param(lambda: _fit_from(**{**TRUTH, "task_maps": [BAD_B_T1, [[-0.8]]]}), id="init"),
    ],
)
def test_the_spec_and_the_init_name_a_bad_block_alike(build):
    with pytest.raises(ShapeError) as raised:
        build()
    assert str(raised.value).endswith("B t1 must have shape (1, 1), got (2, 2)")


@pytest.mark.parametrize(
    "blocks, error, message",
    [
        (dict(mixing=[["1", 0], [0, "1"]]), DomainError, "init F entries must be numbers"),
        (dict(env_means=[[math.nan] * 2] * 3), DomainError, "init means entries must be finite"),
        (dict(task_maps={"t1": [[1.3]]}), DomainError, "init B must be a list of blocks"),
        (dict(task_maps=[[[1.3]]]), ShapeError, "init B must have 2 blocks, one per task, got 1"),
    ],
)
def test_init_refusals(blocks, error, message):
    with pytest.raises(error) as raised:
        _fit_from(**{**TRUTH, **blocks})
    assert str(raised.value).startswith(message)


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

    @pytest.mark.parametrize(
        "value, kind",
        [
            (True, "bool"),
            (np.bool_(True), "bool"),
            (2.0, "float"),
            ("2", "str"),
            (None, "NoneType"),
            (Fraction(2), "Fraction"),
            (Fraction(10**5000, 3), "Fraction"),
        ],
    )
    def test_int_refusals(self, value, kind):
        with pytest.raises(LabelError) as raised:
            read_int(value, LabelError, "count")
        assert str(raised.value) == f"count must be an integer, got {kind}"

    def test_a_fraction_beyond_4300_digits_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"^restarts must be an integer, got Fraction$"):
            FitConfig(restarts=Fraction(10**5000, 3))

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

    def test_int_bound_is_4096_bits(self):
        assert read_int(-(2**4096 - 1), DataError, "seed") == -(2**4096 - 1)
        with pytest.raises(DataError, match=r"^seed is an integer of 4097 bits, beyond 4096$"):
            read_int(2**4096, DataError, "seed")

    def test_block_shape_mismatch_is_a_shape_error(self):
        with pytest.raises(ShapeError, match=r"^F must have shape \(2, 1\), got \(1, 2\)$"):
            read_block([[1.0, 2.0]], (2, 1), LabelError, "F")

    @pytest.mark.parametrize(
        "value, message",
        [
            ([["1"]], "F entries must be numbers, got dtype <U1"),
            ([[1.0], [1.0, 2.0]], "F: setting an array element with a sequence"),
            ([[math.nan]], "F entries must be finite"),
            ([[-math.inf]], "F entries must be finite"),
        ],
    )
    def test_block_entry_refusals_raise_the_callers_class(self, value, message):
        with pytest.raises(LabelError) as raised:
            read_block(value, (1, 1), LabelError, "F")
        assert str(raised.value).startswith(message)

    @pytest.mark.parametrize(
        "value, shape, read",
        [([], (0, 0), (0, 0)), ([], (0,), (0,)), ([], (0, 1), None), ([[]], (0, 0), None)],
    )
    def test_an_empty_list_is_0x0_only_where_the_shape_is(self, value, shape, read):
        if read is None:
            with pytest.raises(ShapeError):
                read_block(value, shape, DataError, "B")
        else:
            assert read_block(value, shape, DataError, "B").shape == read

    def test_a_block_is_a_read_only_c_ordered_copy(self):
        source = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        block = read_block(source, (2, 3), DataError, "F")
        source[0, 0] = 9.0
        assert block[0, 0] == 0.0 and block.flags.c_contiguous and not block.flags.writeable
        assert block.dtype == np.float64

    @pytest.mark.parametrize("values", [{"t1": [[1.0]]}, np.ones((1, 1, 1)), "[[1]]", None])
    def test_task_blocks_must_be_a_list_or_tuple(self, values):
        with pytest.raises(LabelError, match=r"^B must be a list of blocks, one per task$"):
            read_task_blocks(values, [(1, 1)], LabelError, "B")

    def test_task_blocks_need_one_block_per_task(self):
        with pytest.raises(ShapeError, match=r"^B must have 2 blocks, one per task, got 1$"):
            read_task_blocks([[[1.0]]], [(1, 1), (1, 1)], DataError, "B")

    def test_task_blocks_are_named_by_task(self):
        with pytest.raises(ShapeError, match=r"^B t2 must have shape \(1,\), got \(2,\)$"):
            read_task_blocks(([1.0], [1.0, 2.0]), [(1,), (1,)], DataError, "B")
        blocks = read_task_blocks(([1.0], []), [(1,), (0, 0)], DataError, "B")
        assert [block.shape for block in blocks] == [(1,), (0, 0)]

    def test_task_keys_are_all_required_without_a_default(self):
        assert read_task_keyed({"t2": 2, "t1": 1}, 2, "B") == [1, 2]
        with pytest.raises(DataError, match=r"^B missing key 't2'$"):
            read_task_keyed({"t1": 1}, 2, "B")

    def test_a_default_makes_task_keys_optional(self):
        assert read_task_keyed({"t2": 2}, 3, "noise y", 0.0) == [0.0, 2, 0.0]

    @pytest.mark.parametrize("default", [None, 0.0])
    def test_unknown_task_keys_are_refused(self, default):
        with pytest.raises(DataError, match=r"^unknown B keys: \['t3', 'x'\]$"):
            read_task_keyed({"t1": 1, "t3": 3, "x": 0}, 2, "B", default)
        with pytest.raises(DataError, match=r"^B must be a JSON object$"):
            read_task_keyed([1, 2], 2, "B", default)


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
