"""Identifiability deciders for latent-factor topologies.

Two independently implemented criteria decide whether every latent factor
of a topology can be told apart from the data it generates:

* the *closure decider* works in the family of latent-index sets that
  holds the empty set, the universal set U and each task's parent set
  Pa_k and is closed under pairwise set subtraction. That family is the
  Boolean algebra the parent sets generate, so latent ``j``'s singleton
  is a member iff ``j``'s *atom* is ``{j}``. The decider builds the atom
  by at most ``2m`` subtractions of members: start from U and, per task,
  subtract Pa_k when ``j`` is not in Pa_k and U - Pa_k otherwise. The
  chain of those subtractions is the certificate for ``{j}``;
* the *column-agreement decider* counts, for each pair of latents, on how
  many tasks their adjacency columns agree (both present or both absent)
  and accepts iff no pair agrees on all ``m`` tasks.

The family's members are the unions of atoms (:meth:`ScmTopology.atoms`),
which :func:`closure_members` lists for ``closure``. The subtraction
fixpoint (:func:`closure_generate`) only records the first-found
derivations that ``closure --trace`` prints.

The two criteria are provably equivalent; :func:`equivalence_audit`
re-establishes that fact by brute force over every binary matrix up to a
requested shape, in one process and one shape at a time. The audit
kernel (:mod:`scm_ident._kernels`, which also holds the matrix encoding
and its inverse) decides each matrix by its own vectorised closure,
agreement and distinctness checks; the tests tie its closure and
agreement verdicts back to :func:`closure_identifiable` and
:func:`uic_check`, matrix by matrix.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import audit_shape, decode_matrix
from .errors import CapacityError
from .topology import MAX_LATENTS, ScmTopology

AUDIT_CELL_LIMIT = 20
# Largest family ``closure`` accepts, with or without ``--trace``, so both
# accept the same topologies. It guards the trace's fixpoint, which pairs
# members with members: 2.2-2.8 s for ``closure --trace`` at 2^11 on a
# two-core host, where listing the unions of atoms takes under 1 ms.
CLOSURE_MEMBER_LIMIT = 1 << 11
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


def derivation_chain(origins: dict[int, Origin], mask: int) -> tuple[tuple[int, Origin], ...]:
    """Steps producing ``mask`` from :func:`closure_generate`'s origins,
    dependencies first and seeds unrolled, so replaying them in order
    reproduces the target set exactly."""
    if mask not in origins:
        raise KeyError(f"mask {mask:#x} is not a family member")
    chain: list[tuple[int, Origin]] = []
    emitted: set[int] = set()

    def visit(target: int) -> None:
        if target in emitted:
            return
        origin = origins[target]
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
    singleton, or ``None`` when the singleton is unreachable. A topology
    is identifiable iff every chain exists iff no two adjacency columns
    are identical (:meth:`ScmTopology.collision_pairs` lists those pairs).
    """

    identifiable: bool
    per_latent: tuple[tuple[tuple[int, Origin], ...] | None, ...]


def _check_width(topology: ScmTopology) -> None:
    n = topology.num_latents
    if n > MAX_LATENTS:
        raise CapacityError(f"closure supports at most {MAX_LATENTS} latents, got {n}")


def _family_atoms(topology: ScmTopology) -> tuple[int, ...]:
    """The topology's atoms; :class:`CapacityError` unless its family of
    2^(atoms) members fits :data:`CLOSURE_MEMBER_LIMIT`."""
    _check_width(topology)
    atoms = topology.atoms()
    if 1 << len(atoms) > CLOSURE_MEMBER_LIMIT:
        raise CapacityError(
            f"closure listing supports at most {CLOSURE_MEMBER_LIMIT} members, "
            f"this topology's family has {1 << len(atoms)}"
        )
    return atoms


def closure_members(topology: ScmTopology) -> tuple[int, ...]:
    """Members of the subtraction closure, ascending: every union of atoms."""
    unions = [0]
    for atom in _family_atoms(topology):
        unions += [union | atom for union in unions]
    return tuple(sorted(unions))


def closure_generate(topology: ScmTopology) -> dict[int, Origin]:
    """Each member of the subtraction closure mapped to its first
    derivation, in discovery order.

    Every new member is paired against all earlier members, both
    subtraction directions, until all 2^(atoms) members are found; no
    recorded derivation can change after that.
    """
    size = 1 << len(_family_atoms(topology))
    universal = (1 << topology.num_latents) - 1
    members: list[int] = []
    origins: dict[int, Origin] = {}

    def add(mask: int, origin: Origin) -> None:
        if mask not in origins:
            origins[mask] = origin
            members.append(mask)

    add(0, SeedOrigin("empty"))
    add(universal, SeedOrigin("universal"))
    for k, parents in enumerate(topology.row_masks()):
        add(parents, SeedOrigin("task", k))
    i = 0
    while i < len(members) < size:
        x = members[i]
        for y in members[:i]:
            add(x & ~y, DifferenceOrigin(x, y))
            add(y & ~x, DifferenceOrigin(y, x))
        i += 1
    return origins


def _atom_chain(topology: ScmTopology, j: int) -> tuple[tuple[int, Origin], ...] | None:
    """Derivation of latent ``j``'s atom, or ``None`` unless it is ``{j}``.

    The atom starts as U and loses, per task, Pa_k (``j`` not in Pa_k) or
    U - Pa_k (``j`` in Pa_k); subtractions that remove nothing are
    skipped. Every mask is emitted once, after its operands, and the
    chain is cut just after ``{j}``'s first emission.
    """
    universal = (1 << topology.num_latents) - 1
    chain: list[tuple[int, Origin]] = []
    position: dict[int, int] = {}

    def emit(mask: int, origin: Origin) -> None:
        if mask not in position:
            position[mask] = len(chain)
            chain.append((mask, origin))

    emit(universal, SeedOrigin("universal"))
    atom = universal
    for k, parents in enumerate(topology.row_masks()):
        inside = (parents >> j) & 1
        right = universal & ~parents if inside else parents
        if not atom & right:
            continue
        emit(parents, SeedOrigin("task", k))
        if inside:
            emit(right, DifferenceOrigin(universal, parents))
        emit(atom & ~right, DifferenceOrigin(atom, right))
        atom &= ~right
    if atom != 1 << j:
        return None
    return tuple(chain[: position[atom] + 1])


def closure_identifiable(topology: ScmTopology) -> IdentVerdict:
    """Run the closure decider and package per-latent certificates.

    ``per_latent[j]`` is latent ``j``'s atom chain (see the module
    docstring): a replayable derivation of ``{j}`` in the
    :func:`derivation_chain` format, at most ``2m``
    subtractions long, or ``None`` when the atom is larger than ``{j}``.
    The verdict is pure set algebra; the full fixpoint is never built.
    """
    _check_width(topology)
    chains = tuple([_atom_chain(topology, j) for j in range(topology.num_latents)])
    return IdentVerdict(
        identifiable=all(chain is not None for chain in chains),
        per_latent=chains,
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

    The audit runs in this process, one shape after another in shape
    order. It starts no worker processes: the largest shape holds at
    least half of the matrices, so a pool could not finish sooner than
    that shape alone.
    """
    if max_m < 1 or max_n < 1:
        raise CapacityError("audit bounds must be positive")
    if max_m * max_n > AUDIT_CELL_LIMIT:
        raise CapacityError(
            f"audit covers at most {AUDIT_CELL_LIMIT} adjacency cells, "
            f"got {max_m}x{max_n}"
        )
    shapes = [(m, n) for m in range(1, max_m + 1) for n in range(1, max_n + 1)]
    total = 0
    agreements = 0
    mismatches: list[ScmTopology] = []
    distinct_mismatches: list[ScmTopology] = []
    shape_reports: list[ShapeAudit] = []
    for m, n in shapes:
        shape_total, identifiable, closure_vs_agree, agree_vs_distinct = audit_shape(m, n)
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
    decider.
    """
    if n_latents < 1:
        raise CapacityError("latent count must be positive")
    if n_latents > MIN_TASKS_LATENT_LIMIT:
        raise CapacityError(
            f"witness search supports at most {MIN_TASKS_LATENT_LIMIT} latents, got {n_latents}"
        )
    m = max(1, (n_latents - 1).bit_length())
    rows = [[(pattern >> k) & 1 for pattern in range(n_latents)] for k in range(m)]
    witness = ScmTopology.from_rows(rows)
    if not uic_check(witness):
        raise AssertionError("witness construction produced a non-identifiable topology")
    return MinTasksResult(m, witness)
