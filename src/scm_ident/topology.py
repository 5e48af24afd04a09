"""Data model for bipartite latent-factor causal topologies.

A topology records which of ``n`` latent factors feeds which of ``m`` task
targets as a binary m x n adjacency matrix (rows = tasks, columns =
latents). Every latent additionally feeds every task's source observable;
those edges are present in all topologies of this family, carry no
discriminating structure, and are therefore left implicit.

Indices are 0-based throughout the Python API. Human-readable output uses
the latent/task names, which default to ``L1..Ln`` and ``Y1..Ym``. A set
of latents (or of tasks) is a plain ``int`` bit mask: bit ``j`` is set iff
index ``j`` is a member, so set algebra is exact integer arithmetic.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError, LabelError, ShapeError, check_keys
from .errors import read_array, read_int, read_names

# Largest latent count the closure decider and the generator accept.
MAX_LATENTS = 64


def _normalize_names(names, expected: int, what: str) -> tuple[str, ...] | None:
    if names is None:
        return None
    names = read_names(names, DataError, f"{what}_names")
    if len(names) != expected:
        raise LabelError(f"expected {expected} {what} names, got {len(names)}")
    if len(set(names)) != len(names):
        raise LabelError(f"duplicate {what} names: {sorted(names)}")
    return names


def _bit_masks(bits: np.ndarray) -> tuple[int, ...]:
    """Per row of a 0/1 matrix, the int with bit ``j`` set iff entry ``j`` is 1."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    # a tuple of known length: one built from a generator is resized as it
    # grows, and those fragments pile up across many topology shapes
    return tuple(
        [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    )


@dataclass(frozen=True)
class ScmTopology:
    """Binary task-by-latent adjacency with optional display names.

    Immutable after construction; the adjacency array is stored read-only,
    so instances are safe to share across threads.
    """

    num_tasks: int
    num_latents: int
    adjacency: np.ndarray = field(compare=False)  # compared through _row_masks
    latent_names: tuple[str, ...] | None = None
    task_names: tuple[str, ...] | None = None
    _row_masks: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = read_int(self.num_tasks, ShapeError, "num_tasks")
        n = read_int(self.num_latents, ShapeError, "num_latents")
        if m < 1 or n < 1:
            raise ShapeError(f"need at least one task and one latent, got m={m}, n={n}")
        values = read_array(self.adjacency, DomainError, "adjacency")
        if values.ndim != 2:
            raise ShapeError(f"adjacency must be 2-dimensional, got ndim={values.ndim}")
        if values.shape != (m, n):
            raise ShapeError(f"adjacency shape {values.shape} does not match (m, n)=({m}, {n})")
        if not ((values == 0.0) | (values == 1.0)).all():
            bad = values[(values != 0.0) & (values != 1.0)].flat[0]
            raise DomainError(f"adjacency entries must be exactly 0 or 1, found {bad!r}")
        adjacency = values.astype(np.int8)
        adjacency.setflags(write=False)
        object.__setattr__(self, "num_tasks", m)
        object.__setattr__(self, "num_latents", n)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "latent_names", _normalize_names(self.latent_names, n, "latent"))
        object.__setattr__(self, "task_names", _normalize_names(self.task_names, m, "task"))
        object.__setattr__(self, "_row_masks", _bit_masks(adjacency))

    @classmethod
    def from_rows(cls, rows, latent_names=None, task_names=None) -> "ScmTopology":
        arr = read_array(rows, DomainError, "adjacency rows")
        if arr.ndim != 2:
            raise ShapeError("adjacency rows must form a 2-dimensional array")
        return cls(arr.shape[0], arr.shape[1], arr, latent_names, task_names)

    def latent_label(self, j: int) -> str:
        return self.latent_names[j] if self.latent_names else f"L{j + 1}"

    def task_label(self, k: int) -> str:
        return self.task_names[k] if self.task_names else f"Y{k + 1}"

    def column_masks(self) -> tuple[int, ...]:
        """Per-latent child pattern: bit k set iff the latent feeds task k."""
        return _bit_masks(self.adjacency.T)

    def row_masks(self) -> tuple[int, ...]:
        """Per-task parent pattern: bit j set iff latent j feeds the task."""
        return self._row_masks

    def atoms(self) -> tuple[int, ...]:
        """Latent masks of the groups of equal columns, ordered by lowest latent."""
        groups: dict[int, int] = {}
        for j, column in enumerate(self.column_masks()):
            groups[column] = groups.get(column, 0) | (1 << j)
        return tuple(groups.values())

    def parent_indices(self) -> tuple[tuple[int, ...], ...]:
        """Per task, the indices of the latents feeding it, ascending."""
        n = self.num_latents
        return tuple(tuple(j for j in range(n) if (mask >> j) & 1) for mask in self._row_masks)

    def collision_pairs(self) -> list[tuple[int, int]]:
        """All unordered latent pairs whose child patterns are identical."""
        cols = self.column_masks()
        return [
            (j, jp)
            for j in range(self.num_latents)
            for jp in range(j + 1, self.num_latents)
            if cols[j] == cols[jp]
        ]

    def to_json_dict(self) -> dict:
        out: dict = {
            "num_tasks": self.num_tasks,
            "num_latents": self.num_latents,
            "adjacency": self.adjacency.astype(int).tolist(),
        }
        if self.latent_names is not None:
            out["latent_names"] = list(self.latent_names)
        if self.task_names is not None:
            out["task_names"] = list(self.task_names)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScmTopology":
        required = ("num_tasks", "num_latents", "adjacency")
        check_keys(data, "topology document", {*required, "latent_names", "task_names"}, required)
        for key in ("num_tasks", "num_latents"):
            count = data[key]
            whole = isinstance(count, numbers.Integral) or (
                isinstance(count, float) and count.is_integer()
            )
            if isinstance(count, bool) or not whole:
                raise DataError(f"{key} must be a whole number, got {count!r}")
        counts = [int(data[key]) for key in ("num_tasks", "num_latents")]
        return cls(*counts, data["adjacency"], data.get("latent_names"), data.get("task_names"))
