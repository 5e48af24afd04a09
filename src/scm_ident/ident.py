"""Identifiability deciders for latent-factor topologies.

Two independently implemented criteria decide whether every latent factor
of a topology can be told apart from the data it generates:

* the *closure decider* seeds a family of latent-index sets with the empty
  set, the universal set and each task's parent set, closes the family
  under pairwise set subtraction, and accepts iff every singleton appears;
* the *column-agreement decider* counts, for each pair of latents, on how
  many tasks their adjacency columns agree (both present or both absent)
  and accepts iff no pair agrees on all ``m`` tasks.

The two criteria are provably equivalent; :func:`equivalence_audit`
re-establishes that fact by brute force over every binary matrix up to a
requested shape. The audit kernel decides each matrix by its own
vectorised closure, agreement and distinctness checks; the tests tie its
closure verdict back to :func:`closure_identifiable`.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._parallel import parallel_map
from .errors import CapacityError
from .topology import MAX_LATENTS, FactorSet, ScmTopology

AUDIT_CELL_LIMIT = 20
MIN_TASKS_LATENT_LIMIT = 16


@dataclass(frozen=True)
class SeedOrigin:
    """A family member present from the start: ``empty``, ``universal``,
    or the parent set of one task."""

    kind: str
    task: int | None = None


@dataclass(frozen=True)
class DifferenceOrigin:
    """A family member derived as ``left - right`` (set subtraction) from
    two earlier members, stored by their masks."""

    left: int
    right: int


Origin = SeedOrigin | DifferenceOrigin


@dataclass(frozen=True)
class ClosureFamily:
    """Subtraction-closed family of latent sets with derivation records.

    ``members`` lists each set's mask exactly once in discovery order;
    ``origins`` maps every member to the first derivation that produced
    it. The fixpoint is unique, so any processing order yields the same
    member set (only the recorded derivations may differ).
    """

    width: int
    members: tuple[int, ...]
    origins: dict[int, Origin]

    def __contains__(self, item) -> bool:
        mask = item.mask if isinstance(item, FactorSet) else int(item)
        return mask in self.origins

    def __len__(self) -> int:
        return len(self.members)

    def missing_singletons(self) -> tuple[int, ...]:
        """Latent indices whose singleton never entered the family."""
        return tuple(j for j in range(self.width) if (1 << j) not in self.origins)

    def derivation_chain(self, mask: int) -> tuple[tuple[int, Origin], ...]:
        """Steps producing ``mask``, dependencies first, seeds unrolled.

        Every referenced mask appears earlier in the chain, so replaying
        the subtractions in order reproduces the target set exactly.
        """
        if mask not in self.origins:
            raise KeyError(f"mask {mask:#x} is not a family member")
        chain: list[tuple[int, Origin]] = []
        emitted: set[int] = set()

        def visit(target: int) -> None:
            if target in emitted:
                return
            origin = self.origins[target]
            if isinstance(origin, DifferenceOrigin):
                visit(origin.left)
                visit(origin.right)
            emitted.add(target)
            chain.append((target, origin))

        visit(mask)
        return tuple(chain)


@dataclass(frozen=True)
class IdentVerdict:
    """Outcome of the closure decider for one topology.

    ``per_latent[j]`` holds the derivation chain ending in latent ``j``'s
    singleton, or ``None`` when the singleton is unreachable;
    ``violating_pairs`` lists latent pairs with identical adjacency
    columns. A topology is identifiable iff every chain exists iff no
    pair collides.
    """

    identifiable: bool
    per_latent: tuple[tuple[tuple[int, Origin], ...] | None, ...]
    violating_pairs: tuple[tuple[int, int], ...]


def closure_generate(topology: ScmTopology) -> ClosureFamily:
    """Generate the subtraction closure of the topology's parent sets.

    Every new member is paired against all earlier members in discovery
    order and both subtraction directions are kept, so the family is the
    least one containing the seeds and closed under pairwise subtraction.
    """
    n = topology.num_latents
    if n > MAX_LATENTS:
        raise CapacityError(f"closure supports at most {MAX_LATENTS} latents, got {n}")
    universal = (1 << n) - 1
    members: list[int] = []
    origins: dict[int, Origin] = {}

    def add(mask: int, origin: Origin) -> None:
        if mask not in origins:
            origins[mask] = origin
            members.append(mask)

    add(0, SeedOrigin("empty"))
    add(universal, SeedOrigin("universal"))
    for k in range(topology.num_tasks):
        add(topology.row_masks()[k], SeedOrigin("task", k))
    i = 0
    while i < len(members):
        x = members[i]
        for j in range(i):
            y = members[j]
            add(x & ~y, DifferenceOrigin(x, y))
            add(y & ~x, DifferenceOrigin(y, x))
        i += 1
    return ClosureFamily(n, tuple(members), origins)


def closure_identifiable(topology: ScmTopology) -> IdentVerdict:
    """Run the closure decider and package per-latent certificates."""
    family = closure_generate(topology)
    chains = tuple(
        family.derivation_chain(1 << j) if (1 << j) in family.origins else None
        for j in range(topology.num_latents)
    )
    return IdentVerdict(
        identifiable=all(chain is not None for chain in chains),
        per_latent=chains,
        violating_pairs=tuple(topology.collision_pairs()),
    )


def pair_agreement_counts(topology: ScmTopology) -> dict[tuple[int, int], int]:
    """Exact per-pair agreement counts over tasks, in integer arithmetic.

    For latents ``j`` and ``j'`` the count is the number of tasks ``k``
    with ``a[k,j] * a[k,j'] + (1 - a[k,j]) * (1 - a[k,j']) == 1``.
    """
    adj = topology.adjacency.astype(np.int64)
    comp = 1 - adj
    agree = adj.T @ adj + comp.T @ comp
    n = topology.num_latents
    return {
        (j, jp): int(agree[j, jp]) for j in range(n) for jp in range(j + 1, n)
    }


def uic_violations(topology: ScmTopology) -> list[tuple[int, int]]:
    """Latent pairs whose agreement count reaches the task count."""
    m = topology.num_tasks
    return sorted(pair for pair, count in pair_agreement_counts(topology).items() if count == m)


def uic_check(topology: ScmTopology) -> bool:
    """Column-agreement decider: identifiable iff no pair fully agrees."""
    return not uic_violations(topology)


def decode_matrix(encoding: int, num_tasks: int, num_latents: int) -> ScmTopology:
    """Inverse of the audit encoding (bit ``k * n + j`` is entry ``k, j``)."""
    rows = [
        [(encoding >> (k * num_latents + j)) & 1 for j in range(num_latents)]
        for k in range(num_tasks)
    ]
    return ScmTopology.from_rows(rows)


@dataclass(frozen=True)
class ShapeAudit:
    num_tasks: int
    num_latents: int
    total: int
    identifiable: int


@dataclass(frozen=True)
class AuditReport:
    """Exhaustive cross-check of the two deciders over all small matrices.

    ``mismatches`` holds every matrix on which the closure and agreement
    deciders disagreed, and ``agreement_vs_distinct`` every matrix on
    which the agreement decider disagreed with direct column
    distinctness; both must be empty.
    """

    max_tasks: int
    max_latents: int
    total_matrices: int
    agreements: int
    mismatches: tuple[ScmTopology, ...]
    agreement_vs_distinct: tuple[ScmTopology, ...]
    shapes: tuple[ShapeAudit, ...]

    def max_identifiable_latents(self) -> dict[int, int | None]:
        """Per task count, the largest latent count with any identifiable
        topology (None when no audited shape qualifies)."""
        best: dict[int, int | None] = {}
        for shape in self.shapes:
            if shape.identifiable > 0:
                prev = best.get(shape.num_tasks)
                best[shape.num_tasks] = max(prev or 0, shape.num_latents)
            else:
                best.setdefault(shape.num_tasks, None)
        return best


def _audit_one_shape(shape: tuple[int, int]):
    m, n = shape
    return _kernels.audit_shape(m, n)


def equivalence_audit(max_m: int, max_n: int, workers: int | None = None) -> AuditReport:
    """Run both deciders on every binary matrix up to ``max_m x max_n``.

    Shapes may be audited in parallel worker processes (capped by
    ``SCM_IDENT_THREADS``); results are merged in shape order, so the
    report is identical however the work is split.
    """
    if max_m < 1 or max_n < 1:
        raise CapacityError("audit bounds must be positive")
    if max_m * max_n > AUDIT_CELL_LIMIT:
        raise CapacityError(
            f"audit covers at most {AUDIT_CELL_LIMIT} adjacency cells, "
            f"got {max_m}x{max_n}"
        )
    shapes = [(m, n) for m in range(1, max_m + 1) for n in range(1, max_n + 1)]
    results = parallel_map(_audit_one_shape, shapes, workers)
    total = 0
    agreements = 0
    mismatches: list[ScmTopology] = []
    distinct_mismatches: list[ScmTopology] = []
    shape_reports: list[ShapeAudit] = []
    for (m, n), (shape_total, identifiable, closure_vs_agree, agree_vs_distinct) in zip(
        shapes, results
    ):
        total += shape_total
        agreements += shape_total - len(closure_vs_agree)
        mismatches.extend(decode_matrix(enc, m, n) for enc in closure_vs_agree)
        distinct_mismatches.extend(decode_matrix(enc, m, n) for enc in agree_vs_distinct)
        shape_reports.append(ShapeAudit(m, n, shape_total, identifiable))
    return AuditReport(
        max_tasks=max_m,
        max_latents=max_n,
        total_matrices=total,
        agreements=agreements,
        mismatches=tuple(mismatches),
        agreement_vs_distinct=tuple(distinct_mismatches),
        shapes=tuple(shape_reports),
    )


@dataclass(frozen=True)
class MinTasksResult:
    num_tasks: int
    witness: ScmTopology


def min_tasks_for(n_latents: int, allow_zero_column: bool = True) -> MinTasksResult:
    """Smallest task count admitting an identifiable ``n_latents`` topology.

    Searches over column assignments: an identifiable topology needs
    ``n_latents`` pairwise-distinct columns in ``{0,1}**m``, optionally
    excluding the all-zero column. The returned witness uses the lowest
    such column patterns and is verified against the agreement decider.
    """
    if n_latents < 1:
        raise CapacityError("latent count must be positive")
    if n_latents > MIN_TASKS_LATENT_LIMIT:
        raise CapacityError(
            f"witness search supports at most {MIN_TASKS_LATENT_LIMIT} latents, got {n_latents}"
        )
    for m in itertools.count(1):
        capacity = (1 << m) if allow_zero_column else (1 << m) - 1
        if capacity < n_latents:
            continue
        start = 0 if allow_zero_column else 1
        patterns = range(start, start + n_latents)
        rows = [[(pattern >> k) & 1 for pattern in patterns] for k in range(m)]
        witness = ScmTopology.from_rows(rows)
        if not uic_check(witness):
            raise AssertionError("witness construction produced a non-identifiable topology")
        return MinTasksResult(m, witness)
    raise AssertionError("unreachable")
