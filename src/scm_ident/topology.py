"""Data model for bipartite latent-factor causal topologies.

A topology records which of ``n`` latent factors feeds which of ``m`` task
targets as a binary m x n adjacency matrix (rows = tasks, columns =
latents). Every latent additionally feeds every task's source observable;
those edges are present in all topologies of this family, carry no
discriminating structure, and are therefore left implicit.

Indices are 0-based throughout the Python API. Human-readable output uses
the latent/task names, which default to ``L1..Ln`` and ``Y1..Ym``.
"""

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityError, DataError, DomainError, LabelError, ShapeError

MAX_LATENTS = 64


@dataclass(frozen=True)
class FactorSet:
    """Exact subset of ``{0, .., width-1}`` stored as a bit mask.

    Set algebra on masks is integer arithmetic, so membership, union,
    intersection and subtraction are exact; two sets are equal iff their
    masks and widths are bit-identical.
    """

    mask: int
    width: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_LATENTS:
            raise CapacityError(f"width must be in 1..{MAX_LATENTS}, got {self.width}")
        if not 0 <= self.mask < (1 << self.width):
            raise DomainError(f"mask {self.mask:#x} does not fit in width {self.width}")

    @classmethod
    def from_indices(cls, indices: Iterable[int], width: int) -> "FactorSet":
        mask = 0
        for i in indices:
            if not 0 <= i < width:
                raise IndexError(f"index {i} out of range for width {width}")
            mask |= 1 << i
        return cls(mask, width)

    def _check_width(self, other: "FactorSet") -> None:
        if self.width != other.width:
            raise ShapeError(f"width mismatch: {self.width} != {other.width}")

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.width and bool((self.mask >> index) & 1)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __or__(self, other: "FactorSet") -> "FactorSet":
        self._check_width(other)
        return FactorSet(self.mask | other.mask, self.width)

    def __and__(self, other: "FactorSet") -> "FactorSet":
        self._check_width(other)
        return FactorSet(self.mask & other.mask, self.width)

    def __sub__(self, other: "FactorSet") -> "FactorSet":
        self._check_width(other)
        return FactorSet(self.mask & ~other.mask, self.width)

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"FactorSet({{{', '.join(map(str, self))}}}, width={self.width})"


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
        cols = tuple(
            int(sum(int(adjacency[k, j]) << k for k in range(self.num_tasks)))
            for j in range(self.num_latents)
        )
        rows = tuple(
            int(sum(int(adjacency[k, j]) << j for j in range(self.num_latents)))
            for k in range(self.num_tasks)
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

    def parent_latents(self, task_index: int) -> FactorSet:
        """Latents feeding the given task (one adjacency row)."""
        if not 0 <= task_index < self.num_tasks:
            raise IndexError(f"task index {task_index} out of range 0..{self.num_tasks - 1}")
        return FactorSet(self._row_masks[task_index], self.num_latents)

    def parent_indices(self) -> tuple[tuple[int, ...], ...]:
        """Per task, the indices of the latents feeding it, ascending."""
        return tuple(FactorSet(mask, self.num_latents).indices() for mask in self._row_masks)

    def child_tasks(self, latent_index: int) -> FactorSet:
        """Tasks fed by the given latent (one adjacency column).

        Only the task-side children are stored: the source observables are
        children of every latent by construction, so they never
        distinguish two latents and are omitted from comparisons.
        """
        if not 0 <= latent_index < self.num_latents:
            raise IndexError(f"latent index {latent_index} out of range 0..{self.num_latents - 1}")
        return FactorSet(self._column_masks[latent_index], self.num_tasks)

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
        if not isinstance(data, dict):
            raise DataError("topology document must be a JSON object")
        allowed = {"num_tasks", "num_latents", "adjacency", "latent_names", "task_names"}
        unknown = set(data) - allowed
        if unknown:
            raise DataError(f"unknown topology keys: {sorted(unknown)}")
        for key in ("num_tasks", "num_latents", "adjacency"):
            if key not in data:
                raise DataError(f"topology document missing key {key!r}")
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
