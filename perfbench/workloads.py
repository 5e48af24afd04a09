"""The four workloads: inputs from a seed, one operation, its output check.

Every workload is a closed loop with one client. ``tail_percentile`` is
the highest percentile a run puts at least ten operations beyond: 90 on
decide, which runs several hundred operations, and the median on the
others, which run a few dozen at most. ``concurrency`` is how many
processes the operation keeps busy most of the time. ``op`` is the timed
operation; ``check`` runs outside the timed region and returns failure
messages. ``trace_extra`` runs only in a traced run, after a traced
operation: it replays through the public functions whatever the
operation did where spans cannot reach (worker processes, the CLI), and
returns failures plus the counts that operation contributes.
"""

import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

import gen
from scm_ident import (
    DgpSpec,
    FitConfig,
    ScmTopology,
    _kernels,
    build_task_latent_matrix,
    cli,
    closure_identifiable,
    constraint_loss,
    constraint_loss_grad,
    equivalence_audit,
    export_dataset,
    fit,
    generate_dataset,
    identifiability_experiment,
    load_dataset,
    match_permutation,
    recover_latents,
    sample_hard_mask,
    soft_mask,
    uic_check,
    uic_violations,
)
from scm_ident._parallel import worker_count

SEED_POOL = 1024
MASK_SCALE = 100.0
SAMPLES_PER_ENV = 20000
CONTRAST_SEEDS = 2
CONTRAST_RESTARTS = 2
PIPELINE_MIN_MCC = 0.999
CONTRAST_MIN_MCC = 0.99
AUDIT_M, AUDIT_N = 3, 5


def _seeds(seed: int) -> list[int]:
    return np.random.default_rng(seed).integers(0, 2**32, size=SEED_POOL).tolist()


@dataclass
class DecideResult:
    loaded: ScmTopology
    identifiable: bool
    missing: frozenset[int]
    agreement: bool
    pairs: list
    loss: float
    grad: np.ndarray


class Decide:
    """Soft masks -> penalties -> hard masks -> topology file -> `check`."""

    tail_percentile = 90
    concurrency = 1
    round_size = 2 * len(gen.DECIDE_DISTINCT)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.targets = [t for _ in range(SEED_POOL // self.round_size) for t in gen.decide_round(rng)]

    def op(self, i: int, tracer) -> DecideResult:
        target = self.targets[i % len(self.targets)]
        with tracer.span("selection.soft_mask"):
            soft = [soft_mask(scores, scale=MASK_SCALE) for scores in target.scores]
        with tracer.span("selection.build_task_latent_matrix"):
            matrix = build_task_latent_matrix(soft)
        with tracer.span("losses.constraint_loss"):
            loss = constraint_loss(matrix)
        with tracer.span("losses.constraint_loss_grad"):
            grad = constraint_loss_grad(matrix)
        with tracer.span("selection.sample_hard_mask"):
            hard = [sample_hard_mask(p, seed=target.mask_seed + k) for k, p in enumerate(soft)]
        with tracer.span("topology.from_rows"):
            learned = ScmTopology.from_rows(hard)
        with tracer.span("topology.to_json_dict"):
            document = json.dumps(learned.to_json_dict())
        with tracer.span("topology.from_json_dict"):
            loaded = ScmTopology.from_json_dict(json.loads(document))
        with tracer.span("ident.closure_identifiable"):
            verdict = closure_identifiable(loaded)
        with tracer.span("ident.uic_check"):
            agreement = uic_check(loaded)
        with tracer.span("ident.uic_violations"):
            pairs = uic_violations(loaded)
        missing = frozenset(j for j, chain in enumerate(verdict.per_latent) if chain is None)
        return DecideResult(loaded, verdict.identifiable, missing, agreement, pairs, loss, grad)

    def check(self, i: int, result: DecideResult) -> list[str]:
        target = self.targets[i % len(self.targets)]
        failures = []
        if not np.array_equal(result.loaded.adjacency, target.rows):
            failures.append("hard masks differ from the target rows")
        if result.identifiable != result.agreement:
            failures.append("closure and agreement deciders disagree")
        if result.identifiable != target.identifiable:
            failures.append(f"verdict {result.identifiable} but constructed {target.identifiable}")
        if result.missing != target.duplicated:
            failures.append("missing singletons differ from the duplicated latents")
        if bool(result.pairs) == target.identifiable:
            failures.append("violating pairs contradict the construction")
        if not (np.isfinite(result.loss) and np.all(np.isfinite(result.grad))):
            failures.append("constraint loss or gradient is not finite")
        return failures

    def trace_extra(self, i: int, result: DecideResult, tracer):
        members, subtractions = gen.closure_counts(self.targets[i % len(self.targets)].distinct)
        return [], {"family_members": members, "subtractions": subtractions}


class Audit:
    """`equivalence_audit(3, 5)`: every binary matrix up to 3x5.

    The input is the fixed range, so the seed changes nothing here.
    """

    tail_percentile = 50
    concurrency = 1  # the 3x5 shape is nearly all the work
    round_size = 1

    def __init__(self, seed: int, workdir: str):
        self.shapes = [(m, n) for m in range(1, AUDIT_M + 1) for n in range(1, AUDIT_N + 1)]
        self.total = sum(1 << (m * n) for m, n in self.shapes)
        self.workers = min(worker_count(), len(self.shapes))

    def op(self, i: int, tracer):
        with tracer.span("ident.equivalence_audit"):
            return equivalence_audit(AUDIT_M, AUDIT_N)

    def check(self, i: int, report) -> list[str]:
        failures = []
        if report.mismatches or report.agreement_vs_distinct:
            failures.append("deciders disagreed during the audit")
        if report.total_matrices != self.total or report.agreements != self.total:
            failures.append(f"audited {report.total_matrices} matrices, expected {self.total}")
        for shape in report.shapes:
            expected = gen.falling_factorial(shape.num_tasks, shape.num_latents)
            if shape.identifiable != expected:
                failures.append(
                    f"{shape.num_tasks}x{shape.num_latents}: {shape.identifiable} "
                    f"identifiable, expected {expected}"
                )
        if i == 0:
            failures += backend_cross_check(self.shapes)
        return failures

    def trace_extra(self, i: int, report, tracer):
        failures = []
        with tracer.span("replay"):
            for (m, n), shape in zip(self.shapes, report.shapes):
                with tracer.span(f"kernels.audit_shape.{m}x{n}"):
                    total, identifiable, *_ = _kernels.audit_shape(m, n)
                if (total, identifiable) != (shape.total, shape.identifiable):
                    failures.append(f"serial audit of {m}x{n} differs from the pooled one")
        return failures, {"matrices": self.total, "workers": self.workers}


def backend_cross_check(shapes) -> list[str]:
    """Both kernel backends must give identical `audit_shape` results."""
    found = _kernels.backends()
    if "fast" not in found:
        return []
    return [
        f"pure and fast audit_shape differ on {m}x{n}"
        for m, n in shapes
        if found["pure"].audit_shape(m, n) != found["fast"].audit_shape(m, n)
    ]


class Pipeline:
    """`scm-ident dgp-gen` then `scm-ident recover`, through `cli.main`."""

    tail_percentile = 50
    concurrency = 1
    round_size = 1

    def __init__(self, seed: int, workdir: str):
        self.seeds = _seeds(seed)
        self.spec = DgpSpec.from_json_dict(gen.SPEC_IDENT)
        self.spec_path = os.path.join(workdir, "spec_ident.json")
        self.topology_path = os.path.join(workdir, "topology.json")
        self.csv_path = os.path.join(workdir, "data.csv")
        self.replay_csv_path = os.path.join(workdir, "replay.csv")
        self.out_path = os.path.join(workdir, "recover.json")
        with open(self.spec_path, "w") as handle:
            json.dump(gen.SPEC_IDENT, handle)
        with open(self.topology_path, "w") as handle:
            json.dump(gen.SPEC_IDENT["topology"], handle)

    def op(self, i: int, tracer):
        seed = str(self.seeds[i % SEED_POOL])
        summary = io.StringIO()
        with redirect_stdout(summary):
            with tracer.span("cli.main"):
                generated = cli.main(
                    ["dgp-gen", self.spec_path, "--samples", str(SAMPLES_PER_ENV),
                     "--out", self.csv_path, "--format", "json", "--seed", seed]
                )
            with tracer.span("cli.main"):
                recovered = cli.main(
                    ["recover", self.csv_path, self.topology_path, "--format", "json",
                     "--out", self.out_path, "--seed", seed]
                )
        return generated, recovered, summary.getvalue()

    def check(self, i: int, result) -> list[str]:
        generated, recovered, summary = result
        if (generated, recovered) != (0, 0):
            return [f"exit codes {generated}, {recovered}"]
        failures = []
        dataset = generate_dataset(self.spec, SAMPLES_PER_ENV, self.seeds[i % SEED_POOL])
        if json.loads(summary)["rows"] != dataset.env_ids.shape[0]:
            failures.append("dgp-gen reported the wrong row count")
        with open(self.csv_path, "rb") as handle:
            written = handle.read()
        if written != gen.render_csv(dataset.env_ids, dataset.latents, dataset.x, dataset.y):
            failures.append("CSV bytes differ from the %.17g rendering")
        if not _same_arrays(load_dataset(self.csv_path), dataset):
            failures.append("loading the CSV does not reproduce the arrays")
        with open(self.out_path) as handle:
            mcc = json.load(handle)["mcc"]
        if not mcc >= PIPELINE_MIN_MCC:
            failures.append(f"recover mcc {mcc} < {PIPELINE_MIN_MCC}")
        return failures

    def trace_extra(self, i: int, result, tracer):
        """The layer calls `cmd_dgp_gen` and `cmd_recover` make."""
        seed = self.seeds[i % SEED_POOL]
        with tracer.span("replay"):
            with tracer.span("dgp.from_json_dict"):
                with open(self.spec_path) as handle:
                    spec = DgpSpec.from_json_dict(json.load(handle))
            with tracer.span("dgp.generate_dataset"):
                dataset = generate_dataset(spec, SAMPLES_PER_ENV, seed)
            with tracer.span("dgp.export_dataset"):
                export_dataset(dataset, self.replay_csv_path)
            with tracer.span("dgp.load_dataset"):
                loaded = load_dataset(self.replay_csv_path)
            with tracer.span("topology.from_json_dict"):
                with open(self.topology_path) as handle:
                    topology = ScmTopology.from_json_dict(json.load(handle))
            config = FitConfig(seed=seed)
            with tracer.span("recovery.fit"):
                fitted = fit(loaded, topology, config)
            with tracer.span("recovery.recover_latents"):
                estimated = recover_latents(fitted.model, loaded.x)
            with tracer.span("recovery.match_permutation"):
                match = match_permutation(loaded.latents, estimated)
        with open(self.out_path) as handle:
            cli_mcc = json.load(handle)["mcc"]
        failures = [] if match.mcc == cli_mcc else ["replayed mcc differs from the CLI's"]
        counts = _fit_counts([fitted], config)
        counts.update(csv_bytes=os.path.getsize(self.replay_csv_path), mcc=match.mcc)
        return failures, counts


class Contrast:
    """`identifiability_experiment` on both specs, in memory."""

    tail_percentile = 50
    round_size = 1

    def __init__(self, seed: int, workdir: str):
        self.seeds = _seeds(seed)
        self.specs = (DgpSpec.from_json_dict(gen.SPEC_IDENT), DgpSpec.from_json_dict(gen.SPEC_COLLIDE))
        self.workers = min(worker_count(), 2 * CONTRAST_SEEDS)
        # the colliding fits, one per seed, run side by side most of the time
        self.concurrency = min(self.workers, CONTRAST_SEEDS)

    def op(self, i: int, tracer):
        config = FitConfig(restarts=CONTRAST_RESTARTS, seed=self.seeds[i % SEED_POOL])
        with tracer.span("recovery.identifiability_experiment"):
            return identifiability_experiment(
                *self.specs, config, seeds=CONTRAST_SEEDS, samples_per_env=SAMPLES_PER_ENV
            )

    def check(self, i: int, report) -> list[str]:
        median = report.identifiable.median_mcc
        return [] if median >= CONTRAST_MIN_MCC else [f"identifiable median mcc {median}"]

    def trace_extra(self, i: int, report, tracer):
        """The jobs `_run_experiment_seed` runs, one after another."""
        base = self.seeds[i % SEED_POOL]
        fits, failures = [], []
        with tracer.span("replay"):
            for spec, arm in zip(self.specs, (report.identifiable, report.colliding)):
                for s, outcome in enumerate(arm.per_seed):
                    config = FitConfig(restarts=CONTRAST_RESTARTS, seed=base + s)
                    with tracer.span("dgp.generate_dataset"):
                        dataset = generate_dataset(spec, SAMPLES_PER_ENV, base + s)
                    with tracer.span("recovery.fit"):
                        fits.append(fit(dataset, spec.topology, config))
                    with tracer.span("recovery.recover_latents"):
                        estimated = recover_latents(fits[-1].model, dataset.x)
                    with tracer.span("recovery.match_permutation"):
                        match = match_permutation(dataset.latents, estimated)
                    if match.mcc != outcome.mcc:
                        failures.append(f"serial replay of seed {base + s} differs from the pool")
        counts = _fit_counts(fits, FitConfig())
        counts.update(mcc=report.identifiable.median_mcc, workers=self.workers)
        return failures, counts


def _fit_counts(fits, config: FitConfig) -> dict:
    restarts = [r for fitted in fits for r in fitted.restarts]
    return {
        "fit_iters": sum(r.iterations for r in restarts),
        "restarts_at_max_iters": sum(r.iterations >= config.max_iters for r in restarts),
    }


def _same_arrays(loaded, dataset) -> bool:
    pairs = [(loaded.env_ids, dataset.env_ids), (loaded.latents, dataset.latents), (loaded.x, dataset.x)]
    pairs += list(zip(loaded.y, dataset.y))
    return len(loaded.y) == len(dataset.y) and all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in pairs
    )


WORKLOADS = {"decide": Decide, "audit": Audit, "pipeline": Pipeline, "contrast": Contrast}
