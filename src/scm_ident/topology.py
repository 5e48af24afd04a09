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

# Largest latent count the closure decider and the generator accept.
MAX_LATENTS = 64


def _normalize_names(names, expected: int, what: str) -> tuple[str, ...] | None:
    if names is None:
        return None
    names = tuple(str(s) for s in names)
    if len(names) != expected:
        raise LabelError(f"expected {expected} {what} names, got {len(names)}")
    if len(set(names)) != len(names):
        raise LabelError(f"duplicate {what} names: {sorted(names)}")
    return names


@dataclass(frozen=True)
class ScmTopology:
    """Binary task-by-latent adjacency with optional display names.

    Immutable after construction; the adjacency array is stored read-only,
    so instances are safe to share across threads.
    """

    num_tasks: int
    num_latents: int
    adjacency: np.ndarray
    latent_names: tuple[str, ...] | None = None
    task_names: tuple[str, ...] | None = None
    _column_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _row_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_tasks < 1 or self.num_latents < 1:
            raise ShapeError(
                f"need at least one task and one latent, got m={self.num_tasks}, n={self.num_latents}"
            )
        raw = np.asarray(self.adjacency)
        if raw.ndim != 2:
            raise ShapeError(f"adjacency must be 2-dimensional, got ndim={raw.ndim}")
        if raw.shape != (self.num_tasks, self.num_latents):
            raise ShapeError(
                f"adjacency shape {raw.shape} does not match (m, n)=({self.num_tasks}, {self.num_latents})"
            )
        if raw.dtype.kind not in "biuf":
            # np.asarray(..., float64) would parse strings such as "1"
            raise DomainError(f"adjacency entries must be numbers, got dtype {raw.dtype}")
        values = np.asarray(raw, dtype=np.float64)
        if not np.all((values == 0.0) | (values == 1.0)):
            bad = values[(values != 0.0) & (values != 1.0)].flat[0]
            raise DomainError(f"adjacency entries must be exactly 0 or 1, found {bad!r}")
        adjacency = values.astype(np.int8)
        adjacency.setflags(write=False)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(
            self, "latent_names", _normalize_names(self.latent_names, self.num_latents, "latent")
        )
        object.__setattr__(
            self, "task_names", _normalize_names(self.task_names, self.num_tasks, "task")
        )
        # tuples of known length: one built from a generator is resized as
        # it grows, and those fragments pile up across many topology shapes
        cells = adjacency.tolist()
        cols = tuple(
            [sum(cells[k][j] << k for k in range(self.num_tasks)) for j in range(self.num_latents)]
        )
        rows = tuple(
            [sum(cells[k][j] << j for j in range(self.num_latents)) for k in range(self.num_tasks)]
        )
        object.__setattr__(self, "_column_masks", cols)
        object.__setattr__(self, "_row_masks", rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScmTopology):
            return NotImplemented
        return (
            self.num_tasks == other.num_tasks
            and self.num_latents == other.num_latents
            and self._row_masks == other._row_masks
            and self.latent_names == other.latent_names
            and self.task_names == other.task_names
        )

    def __hash__(self) -> int:
        return hash((self.num_tasks, self.num_latents, self._row_masks))

    @classmethod
    def from_rows(cls, rows, latent_names=None, task_names=None) -> "ScmTopology":
        arr = np.asarray(rows)
        if arr.ndim != 2:
            raise ShapeError("adjacency rows must form a 2-dimensional array")
        return cls(arr.shape[0], arr.shape[1], arr, latent_names, task_names)

    def latent_label(self, j: int) -> str:
        return self.latent_names[j] if self.latent_names else f"L{j + 1}"

    def task_label(self, k: int) -> str:
        return self.task_names[k] if self.task_names else f"Y{k + 1}"

    def column_masks(self) -> tuple[int, ...]:
        """Per-latent child pattern: bit k set iff the latent feeds task k."""
        return self._column_masks

    def row_masks(self) -> tuple[int, ...]:
        """Per-task parent pattern: bit j set iff latent j feeds the task."""
        return self._row_masks

    def atoms(self) -> tuple[int, ...]:
        """Latent masks of the groups of equal columns, ordered by lowest latent."""
        groups: dict[int, int] = {}
        for j, column in enumerate(self._column_masks):
            groups[column] = groups.get(column, 0) | (1 << j)
        return tuple(groups.values())

    def parent_indices(self) -> tuple[tuple[int, ...], ...]:
        """Per task, the indices of the latents feeding it, ascending."""
        n = self.num_latents
        return tuple(tuple(j for j in range(n) if (mask >> j) & 1) for mask in self._row_masks)

    def collision_pairs(self) -> list[tuple[int, int]]:
        """All unordered latent pairs whose child patterns are identical."""
        cols = self._column_masks
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
        for key in ("latent_names", "task_names"):
            # the constructor takes any sequence, so "xy" would name two latents
            names = data.get(key)
            if names is not None and not (
                isinstance(names, list) and all(isinstance(name, str) for name in names)
            ):
                raise DataError(f"{key} must be an array of strings")
        try:
            return cls(
                int(data["num_tasks"]),
                int(data["num_latents"]),
                np.asarray(data["adjacency"]),
                data.get("latent_names"),
                data.get("task_names"),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, (ShapeError, DomainError, LabelError)):
                raise
            raise DataError(f"malformed topology document: {exc}") from exc
