"""Identifiability deciders for latent-factor topologies.

Two independently implemented criteria decide whether every latent factor
of a topology can be told apart from the data it generates:

* the *closure decider* works in the family of latent-index sets that
  holds the empty set, the universal set U and each task's parent set
  Pa_k and is closed under pairwise set subtraction. That family is the
  Boolean algebra the parent sets generate, so latent ``j``'s singleton
  is a member iff ``j``'s *atom* is ``{j}``. The decider builds the atom
  by at most ``2m`` subtractions of members: from a seed holding ``j``
  it subtracts, greedily, Pa_k when ``j`` is not in Pa_k and U - Pa_k
  otherwise (:func:`_atom_chain`). The chain of those subtractions is
  the certificate for ``{j}`` that ``closure --trace`` prints;
* the *column-agreement decider* counts, for each pair of latents, on how
  many tasks their adjacency columns agree (both present or both absent)
  and accepts iff no pair agrees on all ``m`` tasks.

The family's members are the unions of atoms (:meth:`ScmTopology.atoms`),
which :func:`closure_generate` lists for ``closure``.

The two criteria are provably equivalent; :func:`equivalence_audit`
re-establishes that fact by brute force over every binary matrix up to a
requested shape, in one process and one kernel pass per latent count. The
audit kernel (:mod:`scm_ident._kernels`, which also holds the matrix
encoding and its inverse) decides each matrix by its own vectorised closure,
agreement and distinctness checks; the tests tie its closure and
agreement verdicts back to :func:`closure_identifiable` and
:func:`uic_check`, matrix by matrix.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import audit_latents, decode_matrix
from .errors import CapacityError, read_int
from .topology import MAX_LATENTS, ScmTopology

AUDIT_CELL_LIMIT = 20
# Largest family ``closure`` lists. Listing 2^16 unions of atoms is fast;
# printing them is what it bounds: ``closure --format json`` writes about
# 28 MB for 16 atoms of 64 latents.
CLOSURE_MEMBER_LIMIT = 1 << 16


@dataclass(frozen=True)
class SeedOrigin:
    """A family member present from the start: ``universal`` (the set of
    all latents), or ``task``, the parent set of task ``task``."""

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
class IdentVerdict:
    """Outcome of the closure decider for one topology.

    ``per_latent[j]`` holds latent ``j``'s certificate, a chain of
    ``(mask, origin)`` steps ending in its singleton, or ``None`` when the
    singleton is unreachable. A topology is identifiable iff every chain
    exists iff no two adjacency columns are identical
    (:meth:`ScmTopology.collision_pairs` lists those pairs).
    """

    identifiable: bool
    per_latent: tuple[tuple[tuple[int, Origin], ...] | None, ...]


def _check_width(topology: ScmTopology) -> None:
    n = topology.num_latents
    if n > MAX_LATENTS:
        raise CapacityError(f"closure supports at most {MAX_LATENTS} latents, got {n}")


def closure_generate(topology: ScmTopology) -> tuple[int, ...]:
    """Members of the subtraction closure, ascending: every union of atoms.

    Raises :class:`CapacityError` unless the family's 2^(atoms) members fit
    :data:`CLOSURE_MEMBER_LIMIT`.
    """
    _check_width(topology)
    atoms = topology.atoms()
    if 1 << len(atoms) > CLOSURE_MEMBER_LIMIT:
        raise CapacityError(
            f"closure listing supports at most {CLOSURE_MEMBER_LIMIT} members, "
            f"this topology's family has {1 << len(atoms)}"
        )
    unions = [0]
    for atom in atoms:
        unions += [union | atom for union in unions]
    return tuple(sorted(unions))


def _atom_chain(topology: ScmTopology, j: int) -> tuple[tuple[int, Origin], ...] | None:
    """Certificate for latent ``j``'s singleton, or ``None`` unless ``j``'s
    atom is ``{j}``.

    The atom is the intersection of the Pa_k holding ``j`` minus the
    union of the others. When it is ``{j}``, the chain starts from the
    seed, U or a Pa_k holding ``j``, with the fewest latents that no
    ``j``-free Pa_k contains; ties go to the fewest latents, then the
    lowest task, U last. It then repeatedly takes the subtraction that
    removes the most latents per step: Pa_k with ``j`` not in Pa_k is one
    step, U - Pa_k with ``j`` in Pa_k two. Ties go to the cheaper step,
    then the lower task. Every subtracted set misses ``j``'s atom, and a
    latent other than ``j`` is left only while some subtraction removes
    it, so every step removes something and the chain ends at ``{j}``.
    Every mask is emitted once, after its operands.
    """
    universal = (1 << topology.num_latents) - 1
    bit = 1 << j
    rows = topology.row_masks()
    outside = 0
    inside = universal
    for parents in rows:
        if parents & bit:
            inside &= parents
        else:
            outside |= parents
    if inside & ~outside != bit:  # j's atom
        return None
    seeds = [(parents, k) for k, parents in enumerate(rows) if parents & bit]
    seeds.append((universal, None))
    # min keeps the first of equal keys: the lowest task, U last
    atom, task = min(seeds, key=lambda seed: ((seed[0] & ~outside).bit_count(), seed[0].bit_count()))
    # insertion order is emission order; setdefault keeps a mask's first origin
    chain: dict[int, Origin] = {
        atom: SeedOrigin("universal") if task is None else SeedOrigin("task", task)
    }
    # each task's subtraction as (set removed, weight, task): the weight is 2
    # for one step and 1 for U - Pa_k's two, so latents removed times weight
    # is the removal per two steps; one-step subtractions come first, so the
    # first best score also holds both tie-breaks
    steps = [(parents, 2, k) for k, parents in enumerate(rows) if not parents & bit]
    steps += [(universal & ~parents, 1, k) for k, parents in enumerate(rows) if parents & bit]
    while atom != bit:
        scores = [(atom & right).bit_count() * weight for right, weight, _ in steps]
        right, weight, k = steps[scores.index(max(scores))]
        if weight == 2:
            chain.setdefault(right, SeedOrigin("task", k))
        elif right not in chain:
            chain.setdefault(universal, SeedOrigin("universal"))
            chain.setdefault(rows[k], SeedOrigin("task", k))
            chain[right] = DifferenceOrigin(universal, rows[k])
        chain.setdefault(atom & ~right, DifferenceOrigin(atom, right))
        atom &= ~right
    return tuple(chain.items())


def closure_identifiable(topology: ScmTopology) -> IdentVerdict:
    """Run the closure decider and package per-latent certificates.

    ``per_latent[j]`` is latent ``j``'s atom chain (see the module
    docstring and :func:`_atom_chain`): a replayable derivation of
    ``{j}``, at most ``2m`` subtractions long, or ``None`` when the atom
    is larger than ``{j}``. The verdict is pure set algebra; no closure
    family is built.
    """
    _check_width(topology)
    chains = tuple([_atom_chain(topology, j) for j in range(topology.num_latents)])
    return IdentVerdict(
        identifiable=all(chain is not None for chain in chains),
        per_latent=chains,
    )


def _agreement_counts(topology: ScmTopology) -> np.ndarray:
    """The n x n matrix of per-pair agreement counts over tasks."""
    adj = topology.adjacency.astype(np.int64)
    comp = 1 - adj
    return adj.T @ adj + comp.T @ comp


def uic_violations(topology: ScmTopology) -> list[tuple[int, int]]:
    """Latent pairs whose agreement count reaches the task count, ascending."""
    # every latent agrees with itself on all tasks; nonzero lists the
    # cells in row-major order, so the pairs above the diagonal ascend
    rows, cols = np.nonzero(_agreement_counts(topology) == topology.num_tasks)
    return [(j, jp) for j, jp in zip(rows.tolist(), cols.tolist()) if j < jp]


def uic_check(topology: ScmTopology) -> bool:
    """Column-agreement decider: identifiable iff no pair fully agrees."""
    return not uic_violations(topology)


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


def equivalence_audit(max_m: int, max_n: int) -> AuditReport:
    """Run both deciders on every binary matrix up to ``max_m x max_n``.

    The audit runs in this process, one kernel pass per latent count n
    (:func:`~scm_ident._kernels.audit_latents`): the pass decides the
    ``max_m x n`` encodings, and each m x n shape is read off its first
    2^(mn) of them, since an m x n matrix is the ``max_m x n`` one whose
    rows m and above are zero and a zero row changes no verdict. The
    report still lists the shapes in shape order, m before n. It starts
    no worker processes: the largest shape holds at least half of the
    matrices, so a pool could not finish sooner than that shape alone.
    """
    max_m, max_n = read_int(max_m, CapacityError, "max_m"), read_int(max_n, CapacityError, "max_n")
    if max_m < 1 or max_n < 1:
        raise CapacityError("audit bounds must be positive")
    if max_m * max_n > AUDIT_CELL_LIMIT:
        raise CapacityError(
            f"audit covers at most {AUDIT_CELL_LIMIT} adjacency cells, "
            f"got {max_m}x{max_n}"
        )
    passes = [audit_latents(max_m, n) for n in range(1, max_n + 1)]
    shapes = [(m, n) for m in range(1, max_m + 1) for n in range(1, max_n + 1)]
    total = 0
    agreements = 0
    mismatches: list[ScmTopology] = []
    distinct_mismatches: list[ScmTopology] = []
    shape_reports: list[ShapeAudit] = []
    for m, n in shapes:
        shape_total, identifiable, closure_vs_agree, agree_vs_distinct = passes[n - 1][m - 1]
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


def min_tasks_for(n_latents: int) -> MinTasksResult:
    """Smallest task count admitting an identifiable ``n_latents`` topology.

    An identifiable topology needs ``n_latents`` pairwise-distinct columns
    in ``{0,1}**m``, so the answer is the smallest m with 2**m at least
    ``n_latents``. The returned witness uses the lowest column patterns
    (the all-zero column included) and is verified against the agreement
    decider. ``n_latents`` is at most ``MAX_LATENTS``, the deciders' own
    limit.
    """
    n_latents = read_int(n_latents, CapacityError, "latent count")
    if n_latents < 1:
        raise CapacityError("latent count must be positive")
    if n_latents > MAX_LATENTS:
        raise CapacityError(f"witness supports at most {MAX_LATENTS} latents, got {n_latents}")
    m = max(1, (n_latents - 1).bit_length())
    rows = [[(pattern >> k) & 1 for pattern in range(n_latents)] for k in range(m)]
    witness = ScmTopology.from_rows(rows)
    if not uic_check(witness):
        raise AssertionError("witness construction produced a non-identifiable topology")
    return MinTasksResult(m, witness)
