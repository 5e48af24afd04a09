"""Synthetic multi-environment data generator.

Latents are scalar Gaussians drawn independently per environment (the
canonical member of the exponential family, with sufficient statistics
``(l, l**2)`` and natural parameters ``(mean/var, -1/(2*var))``). The
source observable is a square invertible linear map of all latents with an
optional leaky-rectifier nonlinearity; each task target is a square
invertible linear map of that task's parent latents. Additive Gaussian
observation noise is optional and zero by default so moment identities
hold exactly.

Generation is pure given a seed: per-environment streams are derived by
the XOR splitting rule in :mod:`scm_ident._rng`, making datasets
bit-for-bit reproducible and environments independently generable.
"""

import csv
from dataclasses import dataclass

import numpy as np

from ._rng import LATENT_DRAWS, OBSERVATION_NOISE, env_seed, stream
from .errors import ConfigError, DataError, DomainError, ShapeError
from .topology import ScmTopology

RANK_TOLERANCE = 1e-8
SUFFICIENT_STAT_DIM = 2  # (l, l**2) per scalar Gaussian latent
REQUIRED_ENVIRONMENTS = SUFFICIENT_STAT_DIM + 1

_FLOAT_FORMAT = "%.17g"  # lossless float64 round trip
_EXPORT_CHUNK_ROWS = 4096  # rows formatted per write; bounds the text held in memory


def singular_ratio(matrix: np.ndarray) -> float:
    """Smallest over largest singular value; 0 for the zero matrix."""
    singular = np.linalg.svd(matrix, compute_uv=False)
    if singular[0] == 0.0:
        return 0.0
    return float(singular[-1] / singular[0])


@dataclass(frozen=True)
class ExpFamilyPrior:
    """Per-environment Gaussian latent priors.

    ``means`` and ``variances`` are (environments x latents) arrays. The
    base measure and partition function of the exponential-family form are
    implied by Gaussian normalization and never enter any computation
    here; only the natural parameters do (see :func:`check_variety`).
    """

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        variances = np.atleast_2d(np.asarray(self.variances, dtype=np.float64))
        if means.shape != variances.shape or means.ndim != 2 or means.size == 0:
            raise ShapeError(
                f"means and variances must be matching (environments x latents) "
                f"arrays, got {means.shape} and {variances.shape}"
            )
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))):
            raise DomainError("prior parameters must be finite")
        if np.any(variances <= 0):
            raise DomainError("all prior variances must be positive")
        means = means.copy()
        variances = variances.copy()
        means.setflags(write=False)
        variances.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @property
    def num_environments(self) -> int:
        return self.means.shape[0]

    @property
    def num_latents(self) -> int:
        return self.means.shape[1]

    def natural_parameters(self, env_index: int) -> np.ndarray:
        """Natural-parameter vector of one environment, latent-major.

        Entries ``(2j, 2j + 1)`` are ``(mean/var, -1/(2*var))`` for
        latent ``j``.
        """
        if not 0 <= env_index < self.num_environments:
            raise ConfigError(f"environment {env_index} is not configured")
        mu = self.means[env_index]
        var = self.variances[env_index]
        out = np.empty(2 * self.num_latents)
        out[0::2] = mu / var
        out[1::2] = -0.5 / var
        return out


@dataclass(frozen=True)
class MixingSpec:
    """Invertible maps from latents to observables.

    ``matrix`` is the square map behind the source observable;
    ``task_maps[t]`` acts on task ``t``'s parent latents in ascending
    index order. ``slope`` enables a leaky rectifier after the source map
    (None keeps the map linear so covariance identities stay exact).
    """

    matrix: np.ndarray
    task_maps: tuple[np.ndarray, ...]
    parent_indices: tuple[tuple[int, ...], ...]
    slope: float | None = None

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ShapeError(f"source map must be square, got shape {matrix.shape}")
        if singular_ratio(matrix) <= RANK_TOLERANCE:
            raise DomainError("source map is numerically singular")
        task_maps = []
        if len(self.task_maps) != len(self.parent_indices):
            raise ShapeError("need exactly one task map per parent tuple")
        for t, (b, parents) in enumerate(zip(self.task_maps, self.parent_indices)):
            b = np.asarray(b, dtype=np.float64)
            expected = len(parents)
            if b.ndim != 2 or b.shape != (expected, expected):
                raise ShapeError(
                    f"task map {t} must be {expected}x{expected} for parents "
                    f"{parents}, got shape {b.shape}"
                )
            if expected and singular_ratio(b) <= RANK_TOLERANCE:
                raise DomainError(f"task map {t} is numerically singular")
            if tuple(sorted(parents)) != tuple(parents):
                raise ShapeError(f"parent indices of task {t} must be ascending")
            b = b.copy()
            b.setflags(write=False)
            task_maps.append(b)
        if self.slope is not None and not 0.0 < self.slope < 1.0:
            raise DomainError(f"leaky slope must lie in (0, 1), got {self.slope}")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "task_maps", tuple(task_maps))
        object.__setattr__(
            self, "parent_indices", tuple(tuple(int(i) for i in p) for p in self.parent_indices)
        )

    @classmethod
    def for_topology(cls, topology: ScmTopology, matrix, task_maps, slope=None) -> "MixingSpec":
        return cls(matrix, tuple(task_maps), topology.parent_indices(), slope)

    @property
    def num_latents(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class NoiseSpec:
    """Per-coordinate additive Gaussian noise levels (0 = noiseless)."""

    x_std: np.ndarray
    y_std: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        x_std = np.asarray(self.x_std, dtype=np.float64)
        if x_std.ndim != 1:
            raise ShapeError("source noise levels must be a vector")
        y_std = tuple(np.asarray(s, dtype=np.float64) for s in self.y_std)
        if any(s.ndim != 1 for s in y_std):
            raise ShapeError("task noise levels must be vectors")
        all_values = np.concatenate([x_std, *y_std]) if y_std else x_std
        if not np.all(np.isfinite(all_values)) or np.any(all_values < 0):
            raise DomainError("noise standard deviations must be finite and non-negative")
        x_std = x_std.copy()
        x_std.setflags(write=False)
        object.__setattr__(self, "x_std", x_std)
        object.__setattr__(self, "y_std", tuple(y_std))

    @classmethod
    def zero(cls, num_latents: int, parent_counts) -> "NoiseSpec":
        return cls(np.zeros(num_latents), tuple(np.zeros(p) for p in parent_counts))


@dataclass(frozen=True)
class DgpSpec:
    """Complete recipe for one synthetic dataset."""

    topology: ScmTopology
    prior: ExpFamilyPrior
    mixing: MixingSpec
    noise: NoiseSpec

    def __post_init__(self) -> None:
        n = self.topology.num_latents
        if self.prior.num_latents != n:
            raise ShapeError(
                f"prior covers {self.prior.num_latents} latents, topology has {n}"
            )
        if self.mixing.num_latents != n:
            raise ShapeError(
                f"mixing covers {self.mixing.num_latents} latents, topology has {n}"
            )
        expected_parents = self.topology.parent_indices()
        if self.mixing.parent_indices != expected_parents:
            raise ShapeError("mixing parent indices do not match the topology")
        if self.noise.x_std.shape[0] != n or len(self.noise.y_std) != self.topology.num_tasks:
            raise ShapeError("noise levels do not match the topology dimensions")
        for k, std in enumerate(self.noise.y_std):
            if std.shape[0] != len(expected_parents[k]):
                raise ShapeError(f"noise level for task {k} has the wrong width")

    def to_json_dict(self) -> dict:
        out: dict = {
            "topology": self.topology.to_json_dict(),
            "environments": [
                {
                    "means": self.prior.means[e].tolist(),
                    "variances": self.prior.variances[e].tolist(),
                }
                for e in range(self.prior.num_environments)
            ],
            "F": self.mixing.matrix.tolist(),
            "B": {
                f"t{k + 1}": self.mixing.task_maps[k].tolist()
                for k in range(self.topology.num_tasks)
            },
            "noise": {
                "x": self.noise.x_std.tolist(),
                "y": {f"t{k + 1}": s.tolist() for k, s in enumerate(self.noise.y_std)},
            },
            "nonlinearity": (
                {"type": "none"}
                if self.mixing.slope is None
                else {"type": "leaky", "slope": self.mixing.slope}
            ),
        }
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "DgpSpec":
        if not isinstance(data, dict):
            raise DataError("generator spec must be a JSON object")
        allowed = {"topology", "environments", "F", "B", "noise", "nonlinearity"}
        unknown = set(data) - allowed
        if unknown:
            raise DataError(f"unknown generator spec keys: {sorted(unknown)}")
        for key in ("topology", "environments", "F", "B"):
            if key not in data:
                raise DataError(f"generator spec missing key {key!r}")
        topology = ScmTopology.from_json_dict(data["topology"])
        m, n = topology.num_tasks, topology.num_latents
        envs = data["environments"]
        if not isinstance(envs, list) or not envs:
            raise DataError("environments must be a non-empty list")
        means, variances = [], []
        for e, env in enumerate(envs):
            if not isinstance(env, dict) or set(env) != {"means", "variances"}:
                raise DataError(f"environment {e} must have exactly 'means' and 'variances'")
            means.append(env["means"])
            variances.append(env["variances"])
        prior = ExpFamilyPrior(np.asarray(means), np.asarray(variances))
        nonlinearity = data.get("nonlinearity", {"type": "none"})
        if not isinstance(nonlinearity, dict) or "type" not in nonlinearity:
            raise DataError("nonlinearity must be an object with a 'type'")
        if nonlinearity["type"] == "none":
            slope = None
            if set(nonlinearity) - {"type"}:
                raise DataError("nonlinearity 'none' takes no extra keys")
        elif nonlinearity["type"] == "leaky":
            if set(nonlinearity) != {"type", "slope"}:
                raise DataError("nonlinearity 'leaky' takes exactly a 'slope'")
            slope = float(nonlinearity["slope"])
        else:
            raise DataError(f"unknown nonlinearity type {nonlinearity['type']!r}")
        b_maps = data["B"]
        if not isinstance(b_maps, dict):
            raise DataError("B must map task labels to matrices")
        expected_keys = {f"t{k + 1}" for k in range(m)}
        if set(b_maps) != expected_keys:
            raise DataError(f"B must have exactly the keys {sorted(expected_keys)}")
        parents = topology.parent_indices()
        task_maps = []
        for k, task_parents in enumerate(parents):
            b = np.asarray(b_maps[f"t{k + 1}"], dtype=np.float64)
            # JSON writes a 0x0 map as [], which reads back with shape (0,)
            task_maps.append(b.reshape(0, 0) if not task_parents and b.shape == (0,) else b)
        noise = _noise_from_json(data.get("noise"), n, [len(p) for p in parents])
        try:
            mixing = MixingSpec.for_topology(topology, np.asarray(data["F"]), task_maps, slope)
            return cls(topology, prior, mixing, noise)
        except (ShapeError, DomainError):
            raise
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed generator spec: {exc}") from exc


def _noise_from_json(noise, num_latents: int, parent_counts) -> NoiseSpec:
    if noise is None:
        return NoiseSpec.zero(num_latents, parent_counts)
    if not isinstance(noise, dict) or set(noise) - {"x", "y"}:
        raise DataError("noise must be an object with optional 'x' and 'y'")

    def broadcast(value, width: int):
        arr = np.asarray(value, dtype=np.float64)
        return np.full(width, float(arr)) if arr.ndim == 0 else arr

    x_std = broadcast(noise.get("x", 0.0), num_latents)
    y_value = noise.get("y", 0.0)
    if isinstance(y_value, dict):
        y_std = tuple(
            broadcast(y_value.get(f"t{k + 1}", 0.0), parent_counts[k])
            for k in range(len(parent_counts))
        )
    else:
        y_std = tuple(broadcast(y_value, p) for p in parent_counts)
    return NoiseSpec(x_std, y_std)


@dataclass(frozen=True)
class SyntheticDataset:
    """Generated samples with ground-truth latents retained.

    ``y[t]`` holds task ``t``'s targets with one column per parent latent.
    Rows are grouped by environment in generation order.
    """

    num_environments: int
    env_ids: np.ndarray
    latents: np.ndarray
    x: np.ndarray
    y: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        env_ids = np.asarray(self.env_ids, dtype=np.int64)
        if env_ids.ndim != 1:
            raise ShapeError("environment ids must be a vector")
        rows = env_ids.shape[0]
        if self.latents.shape[0] != rows or self.x.shape[0] != rows:
            raise ShapeError("all sample arrays must have one row per sample")
        if any(block.shape[0] != rows for block in self.y):
            raise ShapeError("all task arrays must have one row per sample")
        if rows and (env_ids.min() < 0 or env_ids.max() >= self.num_environments):
            raise DataError("sample environment id outside the configured range")
        object.__setattr__(self, "env_ids", env_ids)

    @property
    def num_latents(self) -> int:
        return self.latents.shape[1]

    def env_rows(self, env_index: int) -> np.ndarray:
        return np.flatnonzero(self.env_ids == env_index)


def sample_latents(prior: ExpFamilyPrior, env_index: int, count: int, seed: int) -> np.ndarray:
    """Independent Gaussian latent draws for one environment.

    Stream key: (latent-draw purpose, seed XOR environment index), so
    environments can be generated independently and in any order.
    """
    if not 0 <= env_index < prior.num_environments:
        raise ConfigError(f"environment {env_index} is not configured")
    if count < 1:
        raise ConfigError(f"sample count must be positive, got {count}")
    rng = stream(LATENT_DRAWS, env_seed(seed, env_index))
    std = np.sqrt(prior.variances[env_index])
    return prior.means[env_index] + rng.standard_normal((count, prior.num_latents)) * std


def _leaky(values: np.ndarray, slope: float) -> np.ndarray:
    return np.where(values >= 0, values, slope * values)


def generate_observed(
    mixing: MixingSpec,
    noise: NoiseSpec,
    latents: np.ndarray,
    seed: int = 0,
    env_index: int = 0,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Observables from latent rows: source map plus per-task parent maps.

    Observation noise uses its own stream keyed by (noise purpose, seed
    XOR environment index); with all-zero noise levels the output is a
    deterministic function of the latents.
    """
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 2 or latents.shape[1] != mixing.num_latents:
        raise ShapeError(
            f"latents must be (samples x {mixing.num_latents}), got shape {latents.shape}"
        )
    rng = stream(OBSERVATION_NOISE, env_seed(seed, env_index))
    x = latents @ mixing.matrix.T
    if mixing.slope is not None:
        x = _leaky(x, mixing.slope)
    x = x + rng.standard_normal(x.shape) * noise.x_std
    y_blocks = []
    for b, parents, y_std in zip(mixing.task_maps, mixing.parent_indices, noise.y_std):
        block = latents[:, list(parents)] @ b.T
        block = block + rng.standard_normal(block.shape) * y_std
        y_blocks.append(block)
    return x, tuple(y_blocks)


def generate_dataset(spec: DgpSpec, samples_per_env: int, seed: int) -> SyntheticDataset:
    """Full dataset: every configured environment, rows grouped by env."""
    env_blocks = []
    for e in range(spec.prior.num_environments):
        latents = sample_latents(spec.prior, e, samples_per_env, seed)
        x, y = generate_observed(spec.mixing, spec.noise, latents, seed=seed, env_index=e)
        env_blocks.append((np.full(samples_per_env, e, dtype=np.int64), latents, x, y))
    env_ids = np.concatenate([b[0] for b in env_blocks])
    latents = np.vstack([b[1] for b in env_blocks])
    x = np.vstack([b[2] for b in env_blocks])
    y = tuple(
        np.vstack([b[3][t] for b in env_blocks]) for t in range(spec.topology.num_tasks)
    )
    return SyntheticDataset(spec.prior.num_environments, env_ids, latents, x, y)


@dataclass(frozen=True)
class VarietyReport:
    """Environment-diversity check on the natural parameters.

    ``matrix`` stacks the differences ``lambda(env_k) - lambda(env_0)``
    column-wise; the priors are diverse enough when at least the required
    number of environments is configured and the difference matrix reaches
    the rank of one latent's sufficient statistics.
    """

    ok: bool
    num_environments: int
    required_environments: int
    rank: int
    required_rank: int
    matrix: np.ndarray


def check_variety(prior: ExpFamilyPrior) -> VarietyReport:
    """Report (never raise) whether the environments are diverse enough."""
    k = prior.num_environments
    base = prior.natural_parameters(0)
    if k > 1:
        columns = np.column_stack(
            [prior.natural_parameters(e) - base for e in range(1, k)]
        )
        singular = np.linalg.svd(columns, compute_uv=False)
        rank = int(np.sum(singular > RANK_TOLERANCE * singular[0])) if singular[0] > 0 else 0
    else:
        columns = np.zeros((2 * prior.num_latents, 0))
        rank = 0
    required_rank = SUFFICIENT_STAT_DIM
    return VarietyReport(
        ok=k >= REQUIRED_ENVIRONMENTS and rank >= required_rank,
        num_environments=k,
        required_environments=REQUIRED_ENVIRONMENTS,
        rank=rank,
        required_rank=required_rank,
        matrix=columns,
    )


def _header(num_latents: int, task_widths) -> list[str]:
    cols = ["env", "sample"]
    cols += [f"l_{j + 1}" for j in range(num_latents)]
    cols += [f"x_{j + 1}" for j in range(num_latents)]
    for t, width in enumerate(task_widths):
        cols += [f"y{t + 1}_{i + 1}" for i in range(width)]
    return cols


def export_dataset(dataset: SyntheticDataset, path) -> None:
    """Write the CSV form; floats carry 17 significant digits so a
    load/export round trip is lossless."""
    task_widths = [block.shape[1] for block in dataset.y]
    values = np.hstack([dataset.latents, dataset.x, *dataset.y])
    row_format = ",".join(["%d", "%d"] + [_FLOAT_FORMAT] * values.shape[1]) + "\n"
    env_ids = dataset.env_ids
    within_env = np.empty_like(env_ids)
    for env in np.unique(env_ids):
        rows = env_ids == env
        within_env[rows] = np.arange(np.count_nonzero(rows))
    with open(path, "w", newline="") as handle:
        handle.write(",".join(_header(dataset.num_latents, task_widths)) + "\n")
        for start in range(0, env_ids.shape[0], _EXPORT_CHUNK_ROWS):
            chunk = slice(start, start + _EXPORT_CHUNK_ROWS)
            handle.write(
                "".join(
                    row_format % (env, index, *row)
                    for env, index, row in zip(
                        env_ids[chunk].tolist(),
                        within_env[chunk].tolist(),
                        values[chunk].tolist(),
                    )
                )
            )


def load_dataset(path) -> SyntheticDataset:
    """Read a dataset CSV back into arrays.

    The env and sample cells must be integers and every other cell a
    float that numpy parses; blank lines, rows whose width differs from
    the header, and task indices above the header's column count are
    rejected with :class:`DataError`.
    """
    with open(path) as handle:
        header_line = handle.readline()
        body = handle.read()
    if not header_line:
        raise DataError("dataset file is empty")
    header = next(csv.reader([header_line]))
    num_latents = sum(1 for c in header if c.startswith("l_"))
    task_widths: list[int] = []
    for column in header:
        if column.startswith("y") and "_" in column:
            label = column[1:].split("_", 1)[0]
            # the padding below grows with the index, so bound it by the
            # header length; an unbounded index could exhaust memory, and
            # int() refuses strings of more than 4300 digits
            if (
                not label.isdecimal()
                or len(label) > len(str(len(header)))
                or not 1 <= int(label) <= len(header)
            ):
                raise DataError(f"unexpected dataset header {header!r}")
            task = int(label)
            while len(task_widths) < task:
                task_widths.append(0)
            task_widths[task - 1] += 1
    expected = _header(num_latents, task_widths)
    if header != expected:
        raise DataError(f"unexpected dataset header {header!r}")
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataError("dataset contains no samples")
    # loadtxt skips blank lines, which would silently drop rows
    if "" in lines:
        raise DataError(f"blank line in dataset body at line {lines.index('') + 2}")
    width = len(expected) - 2
    row_type = np.dtype(
        [("env", np.int64), ("sample", np.int64), ("values", np.float64, (width,))]
    )
    try:
        table = np.loadtxt(
            lines, dtype=row_type, delimiter=",", comments=None, quotechar='"', ndmin=1
        )
    except ValueError as exc:
        raise DataError(f"malformed dataset row: {exc}") from exc
    env_ids = np.ascontiguousarray(table["env"])
    values = np.ascontiguousarray(table["values"])
    latents = values[:, :num_latents]
    x = values[:, num_latents : 2 * num_latents]
    y_blocks = []
    offset = 2 * num_latents
    for width in task_widths:
        y_blocks.append(values[:, offset : offset + width])
        offset += width
    return SyntheticDataset(
        int(env_ids.max()) + 1 if env_ids.size else 0,
        env_ids,
        latents,
        x,
        tuple(y_blocks),
    )
