"""Command-line surface.

Exit codes are a stable contract:

* 0 — success (identifiable, where a verdict applies)
* 1 — not identifiable
* 2 — input error (missing file, malformed JSON, schema violation, a request
  past a work or size limit or too large to allocate)
* 3 — numeric failure (singular model, failed gradcheck or self-test)
* 4 — internal inconsistency (the two deciders disagreed; indicates a bug)

All randomness flows from ``--seed``; machine-readable output
(``--format json`` and generated CSV) is byte-identical across runs of
the same invocation.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from ._rng import GRADCHECK, stream
from .dgp import DgpSpec, export_dataset, generate_dataset, load_dataset
from .errors import ConfigError, DataError, ScmIdentError, SingularModelError, check_keys
from .errors import read_task_keyed
from .ident import (
    DifferenceOrigin,
    SeedOrigin,
    closure_generate,
    closure_identifiable,
    equivalence_audit,
    uic_violations,
)
from .losses import (
    LossConfig,
    constraint_loss,
    dis_loss,
    dis_loss_grad,
    uic_loss,
    uic_loss_grad,
)
from .recovery import (
    MAX_FIT_LATENTS,
    FitConfig,
    UnmixModel,
    fit,
    identifiability_experiment,
    match_permutation,
    recover_latents,
)
from .selection import (
    gumbel_softmax_mask,
    mask_statistics_self_test,
    sample_hard_mask,
    soft_mask,
)
from .topology import ScmTopology

EXIT_OK = 0
EXIT_NOT_IDENTIFIABLE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


def _json_int(literal: str) -> int:
    try:
        value = int(literal)  # refuses only literals past Python's digit limit
        float(value)
    except (ValueError, OverflowError):
        digits = len(literal.lstrip("-"))
        raise DataError(f"integer with {digits} digits, beyond the float range") from None
    return value


def _load_json(path):
    """The document in the UTF-8 JSON file ``path``; one that does not decode is a ``DataError``."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle, parse_int=_json_int)
        except RecursionError:
            # the decoder recurses once per level of nesting
            raise DataError(f"JSON in {path} is nested too deeply to read") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"JSON in {path} does not decode: {exc}") from None
        except DataError as exc:
            raise DataError(f"JSON in {path} holds an {exc}") from None


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        rendered = (
            json.dumps(payload, sort_keys=True, indent=2, default=lambda value: value.tolist())
            + "\n"
        )
    else:
        rendered = "\n".join(text_lines) + "\n"
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)


def _labels(topology: ScmTopology, mask: int) -> list[str]:
    labels = []
    while mask:
        low = mask & -mask
        labels.append(topology.latent_label(low.bit_length() - 1))
        mask ^= low
    return labels


def _set_label(topology: ScmTopology, mask: int) -> str:
    return "{" + ",".join(_labels(topology, mask)) + "}"


def _chain_lines(topology: ScmTopology, chain) -> list[str]:
    # each operand comes earlier in the chain, with its origin; no
    # singleton's derivation holds the empty set
    origins = dict(chain)

    def operand(mask: int) -> str:
        origin = origins[mask]
        if isinstance(origin, DifferenceOrigin):
            return _set_label(topology, mask)
        return "U" if origin.kind == "universal" else f"Pa({topology.task_label(origin.task)})"

    lines = []
    for mask, origin in chain:
        if isinstance(origin, DifferenceOrigin):
            rhs = f"{operand(origin.left)} - {operand(origin.right)}"
        else:
            rhs = ("U (all latents)" if origin.kind == "universal" else operand(mask)) + "  [seed]"
        lines.append(f"  {_set_label(topology, mask)} = {rhs}")
    return lines


def _chain_payload(topology: ScmTopology, chain) -> list[dict]:
    steps = []
    for mask, origin in chain:
        entry: dict = {"set": _labels(topology, mask)}
        if isinstance(origin, SeedOrigin):
            entry["op"] = "seed"
            entry["seed"] = origin.kind
            if origin.task is not None:
                entry["task"] = topology.task_label(origin.task)
        else:
            entry["op"] = "difference"
            entry["left"] = _labels(topology, origin.left)
            entry["right"] = _labels(topology, origin.right)
        steps.append(entry)
    return steps


def _load_topology(path) -> ScmTopology:
    return ScmTopology.from_json_dict(_load_json(path))


def _load_spec(path) -> DgpSpec:
    try:
        document = _load_json(path)
    except DataError as exc:
        raise DataError(f"malformed generator spec: {exc}") from exc
    return DgpSpec.from_json_dict(document)


def cmd_check(args) -> int:
    topology = _load_topology(args.topology)
    verdict = closure_identifiable(topology)
    pairs = uic_violations(topology)
    agreement_ok = not pairs
    payload = {
        "identifiable": verdict.identifiable,
        "closure_identifiable": verdict.identifiable,
        "agreement_identifiable": agreement_ok,
        "violating_pairs": [
            [topology.latent_label(a), topology.latent_label(b)] for a, b in pairs
        ],
        "missing_singletons": [
            topology.latent_label(j)
            for j, chain in enumerate(verdict.per_latent)
            if chain is None
        ],
    }
    lines = [
        f"closure decider:   {'identifiable' if verdict.identifiable else 'not identifiable'}",
        f"agreement decider: {'identifiable' if agreement_ok else 'not identifiable'}",
    ]
    if pairs:
        rendered = ", ".join(
            f"({topology.latent_label(a)}, {topology.latent_label(b)})" for a, b in pairs
        )
        lines.append(f"colliding latent pairs: {rendered}")
    if payload["missing_singletons"]:
        lines.append("unreachable singletons: " + ", ".join(payload["missing_singletons"]))
    if verdict.identifiable != agreement_ok:
        sys.stderr.write(
            "internal error: the closure and agreement deciders disagree on this input\n"
        )
        return EXIT_INTERNAL
    _emit(args, payload, lines)
    return EXIT_OK if verdict.identifiable else EXIT_NOT_IDENTIFIABLE


def cmd_closure(args) -> int:
    topology = _load_topology(args.topology)
    members = closure_generate(topology)  # also refuses a family above the listing bound
    verdict = closure_identifiable(topology)
    payload: dict = {
        "family_size": len(members),
        "identifiable": verdict.identifiable,
        # text output never prints the members
        "members": (
            [_labels(topology, mask) for mask in members] if args.format == "json" else []
        ),
        "missing_singletons": [
            topology.latent_label(j) for j, chain in enumerate(verdict.per_latent) if chain is None
        ],
    }
    lines = [
        f"family size: {len(members)} (bound 2^n = {1 << topology.num_latents})",
        f"identifiable: {'yes' if verdict.identifiable else 'no'}",
    ]
    if payload["missing_singletons"]:
        lines.append("missing singletons: " + ", ".join(payload["missing_singletons"]))
    if args.trace:
        traces = {}
        for j, chain in enumerate(verdict.per_latent):
            if chain is None:
                continue
            label = topology.latent_label(j)
            traces[label] = _chain_payload(topology, chain)
            lines.append(f"derivation of {{{label}}}:")
            lines.extend(_chain_lines(topology, chain))
        payload["traces"] = traces
    _emit(args, payload, lines)
    return EXIT_OK if verdict.identifiable else EXIT_NOT_IDENTIFIABLE


def cmd_enumerate(args) -> int:
    report = equivalence_audit(args.m, args.n)
    max_per_m = report.max_identifiable_latents()
    payload = {
        "max_tasks": report.max_tasks,
        "max_latents": report.max_latents,
        "total_matrices": report.total_matrices,
        "agreements": report.agreements,
        "mismatches": [t.adjacency.astype(int).tolist() for t in report.mismatches],
        "agreement_vs_distinct": [
            t.adjacency.astype(int).tolist() for t in report.agreement_vs_distinct
        ],
        "shapes": [
            {
                "num_tasks": s.num_tasks,
                "num_latents": s.num_latents,
                "total": s.total,
                "identifiable": s.identifiable,
            }
            for s in report.shapes
        ],
        "capacity": {
            str(m): {
                "max_identifiable_latents_measured": value,
                "nonempty_child_bound": (1 << m) - 1,
                "child_pattern_bound": 1 << m,
            }
            for m, value in sorted(max_per_m.items())
        },
    }
    lines = [
        f"audited {report.total_matrices} matrices up to {report.max_tasks}x{report.max_latents}",
        f"decider agreements: {report.agreements}/{report.total_matrices} "
        f"(mismatches: {len(report.mismatches)})",
    ]
    for shape in report.shapes:
        lines.append(
            f"  shape {shape.num_tasks}x{shape.num_latents}: "
            f"{shape.identifiable}/{shape.total} identifiable"
        )
    for m, value in sorted(max_per_m.items()):
        measured = "none" if value is None else str(value)
        lines.append(
            f"m={m}: max identifiable n (measured, within audited range) = {measured}; "
            f"distinct nonempty child-set bound 2^m-1 = {(1 << m) - 1}; "
            f"distinct child-pattern bound 2^m = {1 << m}"
        )
    _emit(args, payload, lines)
    if report.mismatches or report.agreement_vs_distinct:
        sys.stderr.write("internal error: deciders disagreed during enumeration\n")
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_loss(args) -> int:
    matrix = _load_json(args.matrix)
    config = LossConfig(alpha=args.alpha, lambda_uic=args.lambda_uic, lambda_dis=args.lambda_dis)
    uic_value = uic_loss(matrix, config.alpha)
    dis_value = dis_loss(matrix, config.alpha)
    combined = constraint_loss(matrix, config)
    payload = {
        "alpha": config.alpha,
        "lambda_uic": config.lambda_uic,
        "lambda_dis": config.lambda_dis,
        "uic_loss": uic_value,
        "dis_loss": dis_value,
        "constraint_loss": combined,
    }
    lines = [
        f"uic_loss (alpha={config.alpha}): {uic_value!r}",
        f"dis_loss (alpha={config.alpha}): {dis_value!r}",
        f"constraint_loss: {combined!r}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _central_difference(loss_fn, matrix: np.ndarray, step: float) -> np.ndarray:
    grad = np.zeros_like(matrix)
    for index in np.ndindex(*matrix.shape):
        bumped = matrix.copy()
        bumped[index] += step
        upper = loss_fn(bumped)
        bumped[index] -= 2 * step
        lower = loss_fn(bumped)
        grad[index] = (upper - lower) / (2 * step)
    return grad


def _relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.abs(analytic).max()), float(np.abs(numeric).max()), 1e-300)
    return float(np.abs(analytic - numeric).max() / scale)


# Largest gradcheck request, in work units of _gradcheck_work. A unit took
# at most 1.8 ns when measured from 1x1 to 64x64 and from alpha 2 to 2**201
# (Python 3.11, numpy 2.4, 2 x86-64 cores), so the largest request takes
# about 18 s there.
GRADCHECK_WORK_LIMIT = 10**10
# gradcheck draws each entry from [margin, 1 - margin), so a step of at most
# the margin keeps every bumped entry in [0, 1], where the losses are defined
GRADCHECK_MARGIN = 0.05


def _gradcheck_work(trials: int, rows: int, cols: int, alpha: int) -> int:
    """A bound on gradcheck's time: each trial makes 4 * rows * cols loss
    evaluations, each about 1.5 matrix products per bit of alpha on
    rows**2 + cols**2 entries, plus a fixed cost per call (the 24 and the
    1000)."""
    return trials * 4 * rows * cols * (24 + alpha.bit_length()) * (1000 + rows**2 + cols**2)


def cmd_gradcheck(args) -> int:
    for flag, value in (("--trials", args.trials), ("--rows", args.rows), ("--cols", args.cols)):
        if value < 1:
            raise ConfigError(f"{flag} must be positive, got {value}")
    LossConfig(alpha=args.alpha)  # refuses an alpha the losses refuse, before any work
    if _gradcheck_work(args.trials, args.rows, args.cols, args.alpha) > GRADCHECK_WORK_LIMIT:
        raise ConfigError(
            f"gradcheck of {args.trials} trials at {args.rows}x{args.cols}, "
            f"alpha={args.alpha} exceeds the work limit; lower --trials, --rows, --cols or --alpha"
        )
    if not np.isfinite(args.step) or args.step == 0:
        raise ConfigError(f"--step must be a non-zero finite real, got {args.step}")
    if abs(args.step) > GRADCHECK_MARGIN:
        raise ConfigError(
            f"--step must be at most {GRADCHECK_MARGIN} in magnitude, the distance of the"
            f" sampled entries from 0 and 1, got {args.step}"
        )
    if args.tol is not None and not args.tol >= 0:
        raise ConfigError(f"--tol must be a non-negative real, got {args.tol}")
    tolerance = args.tol if args.tol is not None else (1e-6 if args.alpha <= 4 else 1e-4)
    rng = stream(GRADCHECK, args.seed)
    worst = 0.0
    for _ in range(args.trials):
        matrix = rng.uniform(GRADCHECK_MARGIN, 1 - GRADCHECK_MARGIN, size=(args.rows, args.cols))
        for value_fn, grad_fn in (
            (lambda m: uic_loss(m, args.alpha), lambda m: uic_loss_grad(m, args.alpha)),
            (lambda m: dis_loss(m, args.alpha), lambda m: dis_loss_grad(m, args.alpha)),
        ):
            numeric = _central_difference(value_fn, matrix, args.step)
            worst = max(worst, _relative_gradient_error(grad_fn(matrix), numeric))
    payload = {
        "alpha": args.alpha,
        "trials": args.trials,
        "rows": args.rows,
        "cols": args.cols,
        "step": args.step,
        "tolerance": tolerance,
        "max_relative_error": worst,
        "ok": worst <= tolerance,
    }
    lines = [
        f"max relative error over {args.trials} trials "
        f"({args.rows}x{args.cols}, alpha={args.alpha}): {worst:.3e}",
        f"tolerance: {tolerance:.1e} -> {'ok' if worst <= tolerance else 'FAIL'}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if worst <= tolerance else EXIT_NUMERIC


def cmd_mask(args) -> int:
    if not args.self_test and args.scores is None:
        raise ConfigError("mask: provide --scores or --self-test")
    payload: dict = {}
    lines: list[str] = []
    status = EXIT_OK
    if args.scores is not None:
        soft = soft_mask(_load_json(args.scores), scale=args.scale)
        hard = sample_hard_mask(soft, seed=args.seed)
        gumbel = gumbel_softmax_mask(soft, temperature=args.temperature, seed=args.seed)
        payload.update(
            {
                "scale": args.scale,
                "temperature": args.temperature,
                "seed": args.seed,
                "soft": soft.tolist(),
                "bernoulli_hard": hard.tolist(),
                "gumbel_relaxed": gumbel.relaxed.tolist(),
                "gumbel_hard": gumbel.hard.tolist(),
            }
        )
        lines += [
            f"soft:           {np.array2string(soft, precision=6)}",
            f"bernoulli hard: {hard.tolist()}",
            f"gumbel relaxed: {np.array2string(gumbel.relaxed, precision=6)}",
            f"gumbel hard:    {gumbel.hard.tolist()}",
        ]
    if args.self_test:
        result = mask_statistics_self_test(seed=args.seed, draws=args.draws)
        payload["self_test"] = result
        lines.append(f"self-test ({args.draws} draws): {'ok' if result['ok'] else 'FAIL'}")
        for p, freq, bound, ok in zip(
            result["probabilities"],
            result["bernoulli_frequencies"],
            result["bernoulli_bounds"],
            result["bernoulli_ok"],
        ):
            lines.append(
                f"  bernoulli p={p}: freq={freq:.5f} |err|<= {bound:.5f} "
                f"{'ok' if ok else 'FAIL'}"
            )
        for p, gf, bf, ok in zip(
            result["probabilities"],
            result["gumbel_frequencies"],
            result["bernoulli_frequencies"],
            result["gumbel_ok"],
        ):
            lines.append(
                f"  gumbel p={p}: freq={gf:.5f} vs bernoulli {bf:.5f} "
                f"{'ok' if ok else 'FAIL'}"
            )
        if not result["ok"]:
            status = EXIT_NUMERIC
    _emit(args, payload, lines)
    return status


# Largest dataset dgp-gen writes, and experiment generates per seed, in float
# cells (_dataset_cells). dgp-gen peaked at 17 to 33 bytes a cell above the
# interpreter's 40 MiB when measured from 2 to 640 cells a row and 1 to 1,000
# environments (Python 3.11, numpy 2.4, 2 x86-64 cores), so the largest
# dataset peaks near 355 MiB and is written in about 4 s there.
DATASET_CELL_LIMIT = 10**7


def _dataset_cells(spec: DgpSpec, samples: int) -> int:
    """Float cells of ``samples`` rows per environment: latents, x and every task's columns."""
    topology = spec.topology
    width = 2 * topology.num_latents + sum(len(parents) for parents in topology.parent_indices())
    return samples * spec.prior.num_environments * width


def _check_dataset_cells(spec: DgpSpec, samples: int, name: str) -> None:
    cells = _dataset_cells(spec, samples)
    if cells > DATASET_CELL_LIMIT:
        raise ConfigError(
            f"{samples} samples in each of {spec.prior.num_environments} environments of the"
            f" {name} make {cells} float cells, beyond the limit of {DATASET_CELL_LIMIT};"
            " lower --samples"
        )


def cmd_dgp_gen(args) -> int:
    spec = _load_spec(args.spec)
    _check_dataset_cells(spec, args.samples, "generator spec")
    dataset = generate_dataset(spec, args.samples, args.seed)
    export_dataset(dataset, args.csv)
    payload = {
        "out": args.csv,
        "rows": int(dataset.env_ids.shape[0]),
        "environments": dataset.num_environments,
        "num_latents": dataset.num_latents,
        "seed": args.seed,
    }
    _emit(
        args,
        payload,
        [f"wrote {payload['rows']} rows ({payload['environments']} environments) to {args.csv}"],
    )
    return EXIT_OK


def _fit_config_from_json(data: dict, topology: ScmTopology, seed_override):
    check_keys(data, "fit config", {f.name for f in dataclasses.fields(FitConfig)} | {"init"})
    data = dict(data)
    init = None
    if "init" in data:
        init_doc = data.pop("init")
        names = ("F", "means", "variances", "B")
        check_keys(init_doc, "fit config init", names, names)
        task_maps = read_task_keyed(init_doc["B"], topology.num_tasks, "fit config init B")
        init = UnmixModel(*(init_doc[name] for name in names[:3]), tuple(task_maps))
    if seed_override is not None:
        data["seed"] = seed_override
    config = FitConfig(**data)
    return config, init


# Largest recover request, in work units of _recover_work. A unit took at
# most 0.15 us when measured from 1 to 8 latents, 3 to 1,500 environments,
# 1 to 1,000 restarts and 1 to 328 joint columns (Python 3.11, numpy 2.4,
# 2 x86-64 cores), so the largest request takes about 15 s there; the
# largest accepted batches peaked under 280 MB.
RECOVER_WORK_LIMIT = 10**8


def _recover_work(config: FitConfig, environments: int, topology: ScmTopology) -> int:
    """A bound on recover's fit: restarts * max_iters steps, each about
    environments * (10 + q**2 + n*p) + p**2 operations, with q the joint
    columns (x and every task's), n the latents and p the free map entries;
    the 10 is a fixed cost per environment. The 20 added steps stand for
    the arrays a batch holds whatever its step count, so the bound covers
    its memory too."""
    n = topology.num_latents
    widths = [len(parents) for parents in topology.parent_indices()]
    q, p = n + sum(widths), n * n + sum(width * width for width in widths)
    per_step = environments * (10 + q * q + n * p) + p * p
    return config.restarts * (config.max_iters + 20) * per_step


def cmd_recover(args) -> int:
    dataset = load_dataset(args.data)
    topology = _load_topology(args.topology)
    config_doc = _load_json(args.config) if args.config else {}
    config, init = _fit_config_from_json(config_doc, topology, args.seed)
    # the fit refuses more latents than it supports, and more environments
    # than half the rows (each needs 2), with its own messages
    environments = min(dataset.num_environments, dataset.env_ids.size // 2)
    too_large = _recover_work(config, environments, topology) > RECOVER_WORK_LIMIT
    if topology.num_latents <= MAX_FIT_LATENTS and too_large:
        raise ConfigError(
            f"recover of {config.restarts} restarts x {config.max_iters} iterations on"
            f" {environments} environments exceeds the work limit; lower restarts,"
            " max_iters or the environment count"
        )
    result = fit(dataset, topology, config, init=init)
    estimated = recover_latents(result.model, dataset.x)
    match = match_permutation(dataset.latents, estimated)
    payload = {
        "mcc": match.mcc,
        "per_latent_abs_corr": {
            topology.latent_label(j): match.per_latent_abs_corr[j]
            for j in range(topology.num_latents)
        },
        "permutation": list(match.permutation),
        "objective": result.objective,
        "restart_objectives": [r.objective for r in result.restarts],
    }
    lines = [
        f"mcc: {match.mcc:.6f}",
        "matched |corr|: "
        + ", ".join(
            f"{topology.latent_label(j)}={match.per_latent_abs_corr[j]:.4f}"
            for j in range(topology.num_latents)
        ),
        f"best objective: {result.objective:.6e}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


# Largest experiment request, in work units of _experiment_work. An arm ran
# at most 0.13 us a unit when measured from 2 to 8 latents, 3 to 10,000
# environments, 1 to 1,000 restarts and 2 to 555,555 samples (Python 3.11,
# numpy 2.4, 2 x86-64 cores), so the largest request takes about 26 s of CPU.
EXPERIMENT_WORK_LIMIT = 2 * 10**8


def _experiment_work(config: FitConfig, seeds: int, samples: int, *specs: DgpSpec) -> int:
    """A bound on experiment's work: for each seed and each arm, the fit's
    ``_recover_work``, one unit per float cell generated (the moments, the
    recovery and the matching read it again), 100 per permutation the
    matching scores and 10**4 for the rest of the seed's calls."""
    return seeds * sum(
        _recover_work(config, spec.prior.num_environments, spec.topology)
        + _dataset_cells(spec, samples)
        + 100 * math.factorial(spec.topology.num_latents)
        + 10**4
        for spec in specs
    )


def cmd_experiment(args) -> int:
    spec_ident = _load_spec(args.spec_ident)
    spec_collide = _load_spec(args.spec_collide)
    config_doc = _load_json(args.config) if args.config else {}
    if isinstance(config_doc, dict) and "init" in config_doc:
        # one init cannot match both arms' topologies
        raise ConfigError("fit config key 'init' is for recover only, not experiment")
    config, _ = _fit_config_from_json(config_doc, spec_ident.topology, args.seed)
    _check_dataset_cells(spec_ident, args.samples, "identifiable spec")
    _check_dataset_cells(spec_collide, args.samples, "colliding spec")
    work = _experiment_work(config, args.seeds, args.samples, spec_ident, spec_collide)
    # a topology the fit does not support gets the fit's own CapacityError
    latents = max(spec_ident.topology.num_latents, spec_collide.topology.num_latents)
    if latents <= MAX_FIT_LATENTS and work > EXPERIMENT_WORK_LIMIT:
        raise ConfigError(
            f"experiment of {args.seeds} seeds x {config.restarts} restarts x"
            f" {config.max_iters} iterations exceeds the work limit; lower --seeds,"
            " --samples, restarts or max_iters"
        )
    report = identifiability_experiment(
        spec_ident,
        spec_collide,
        config,
        seeds=args.seeds,
        samples_per_env=args.samples,
    )
    collide_topology = spec_collide.topology

    def arm_payload(arm):
        return {
            "per_seed": [
                {
                    "seed": o.seed,
                    "mcc": o.mcc,
                    "per_latent_abs_corr": list(o.per_latent_abs_corr),
                    "objective": o.objective,
                }
                for o in arm.per_seed
            ],
            "summary": {"median_mcc": arm.median_mcc},
        }

    payload = {
        "identifiable": arm_payload(report.identifiable),
        "colliding": arm_payload(report.colliding),
        "colliding_pair": [
            collide_topology.latent_label(report.colliding_pair[0]),
            collide_topology.latent_label(report.colliding_pair[1]),
        ],
        "colliding_pair_corr_per_seed": list(report.colliding_pair_corr_per_seed),
        "summary": {
            "median_mcc_identifiable": report.identifiable.median_mcc,
            "median_mcc_colliding": report.colliding.median_mcc,
            "median_mcc_gap": report.mcc_gap,
            "dispersion_range": report.dispersion_range,
            "dispersion_std": report.dispersion_std,
        },
    }
    lines = [
        f"identifiable median MCC: {report.identifiable.median_mcc:.4f}",
        f"colliding median MCC:    {report.colliding.median_mcc:.4f}",
        f"median MCC gap:          {report.mcc_gap:.4f}",
        f"colliding-pair cross-seed dispersion: range={report.dispersion_range:.4f} "
        f"std={report.dispersion_std:.4f}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scm-ident",
        description=(
            "Identifiability analysis for bipartite latent-factor topologies: "
            "exact deciders, structure losses, mask sampling, synthetic data "
            "and latent-recovery experiments."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed_default=0, **out):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", **(out or {"help": "write output to this file instead of stdout"}))
        p.add_argument("--seed", type=int, default=seed_default)

    p = sub.add_parser("check", help="decide identifiability of a topology file")
    p.add_argument("topology")
    add_common(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("closure", help="print the subtraction-closure family")
    p.add_argument("topology")
    p.add_argument("--trace", action="store_true", help="print singleton derivations")
    add_common(p)
    p.set_defaults(handler=cmd_closure)

    p = sub.add_parser("enumerate", help="exhaustive decider cross-audit up to a shape")
    p.add_argument("--m", type=int, required=True, help="largest task count")
    p.add_argument("--n", type=int, required=True, help="largest latent count")
    add_common(p)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("loss", help="evaluate the structure losses on a matrix file")
    p.add_argument("matrix", help="JSON file holding a 2-d array with entries in [0,1]")
    p.add_argument("--alpha", type=int, default=50)
    p.add_argument("--lambda-uic", dest="lambda_uic", type=float, default=1.0)
    p.add_argument("--lambda-dis", dest="lambda_dis", type=float, default=1.0)
    add_common(p)
    p.set_defaults(handler=cmd_loss)

    p = sub.add_parser("gradcheck", help="finite-difference check of the loss gradients")
    p.add_argument("--alpha", type=int, default=4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=4)
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=None, help="default 1e-6 (alpha<=4) or 1e-4")
    add_common(p)
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("mask", help="evaluate mask sampling, optionally self-test")
    p.add_argument("--scores", help="JSON file holding a score vector")
    p.add_argument("--scale", type=float, default=100.0)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--self-test", dest="self_test", action="store_true")
    p.add_argument("--draws", type=int, default=100_000)
    add_common(p)
    p.set_defaults(handler=cmd_mask)

    p = sub.add_parser("dgp-gen", help="generate a synthetic dataset CSV")
    p.add_argument("spec", help="generator spec JSON file")
    p.add_argument("--samples", type=int, default=1000, help="samples per environment")
    # --out names the CSV, so the summary goes to stdout
    add_common(p, dest="csv", required=True, help="dataset CSV to write")
    p.set_defaults(handler=cmd_dgp_gen)

    p = sub.add_parser("recover", help="fit a dataset and score latent recovery")
    p.add_argument("data", help="dataset CSV produced by dgp-gen")
    p.add_argument("topology", help="topology JSON file")
    p.add_argument("--config", help="fit configuration JSON file")
    add_common(p, seed_default=None)
    p.set_defaults(handler=cmd_recover)

    p = sub.add_parser("experiment", help="identifiable-vs-colliding recovery contrast")
    p.add_argument("spec_ident", help="generator spec JSON (distinct columns)")
    p.add_argument("spec_collide", help="generator spec JSON (colliding columns)")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--samples", type=int, default=20000, help="samples per environment")
    p.add_argument("--config", help="fit configuration JSON file")
    add_common(p, seed_default=None)
    p.set_defaults(handler=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SingularModelError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except ScmIdentError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    # a request too large to allocate is bad input, not a verdict
    except (OSError, KeyError, TypeError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
