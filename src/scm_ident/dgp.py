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

from ._csvrows import render_rows
from ._rng import LATENT_DRAWS, OBSERVATION_NOISE, env_seed, stream
from .errors import CapacityError, ConfigError, DataError, DomainError, ShapeError, check_keys
from .errors import read_array, read_int, read_real
from .topology import MAX_LATENTS, ScmTopology

RANK_TOLERANCE = 1e-8
SUFFICIENT_STAT_DIM = 2  # (l, l**2) per scalar Gaussian latent
REQUIRED_ENVIRONMENTS = SUFFICIENT_STAT_DIM + 1

_EXPORT_CHUNK_ROWS = 4096  # rows rendered per write; bounds the text and scratch arrays held


def singular_ratios(stack: np.ndarray) -> np.ndarray:
    """Smallest over largest singular value of each matrix of a stack; 0 for a zero matrix."""
    singular = np.linalg.svd(stack, compute_uv=False)
    largest = singular[..., 0]
    return np.divide(
        singular[..., -1], largest, out=np.zeros_like(largest), where=largest != 0.0
    )


def singular_ratio(matrix: np.ndarray) -> float:
    """Smallest over largest singular value; 0 for the zero matrix."""
    return float(singular_ratios(np.asarray(matrix)[None])[0])


def _frozen(value, name: str) -> np.ndarray:
    """A read-only C-ordered float64 copy of a generator spec's array."""
    array = np.array(read_array(value, DataError, f"malformed generator spec: {name}"), order="C")
    array.setflags(write=False)
    return array


def _task_map(b: np.ndarray, num_parents: int) -> np.ndarray:
    """A task's read map; JSON writes the 0x0 map of a task without parents as ``[]``."""
    return b.reshape(0, 0) if num_parents == 0 and b.shape == (0,) else b


def _frozen_blocks(blocks, name: str) -> tuple[np.ndarray, ...]:
    """Task ``t``'s array of a list or tuple as :func:`_frozen` reads it, named ``{name} t<t>``."""
    if not isinstance(blocks, (list, tuple)):
        raise DataError(f"malformed generator spec: {name} must be a list of arrays")
    return tuple(_frozen(block, f"{name} t{t + 1}") for t, block in enumerate(blocks))


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
        means = np.atleast_2d(_frozen(self.means, "means"))
        variances = np.atleast_2d(_frozen(self.variances, "variances"))
        if means.shape != variances.shape or means.ndim != 2 or means.size == 0:
            raise ShapeError(
                f"means and variances must be matching (environments x latents) "
                f"arrays, got {means.shape} and {variances.shape}"
            )
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))):
            raise DomainError("prior parameters must be finite")
        if np.any(variances <= 0):
            raise DomainError("all prior variances must be positive")
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
class DgpSpec:
    """Complete recipe for one synthetic dataset.

    ``source_map`` is the square invertible map behind the source
    observable; ``task_maps[t]`` acts on the parents of task ``t`` that
    ``topology`` lists, in ascending index order. ``slope`` enables a
    leaky rectifier after the source map (None keeps the map linear so
    covariance identities stay exact). ``noise_x`` and ``noise_y[t]`` are
    per-coordinate Gaussian noise levels of the source and of task ``t``;
    None means noiseless. Every array is stored as a read-only copy.
    """

    topology: ScmTopology
    prior: ExpFamilyPrior
    source_map: np.ndarray
    task_maps: tuple[np.ndarray, ...]
    slope: float | None = None
    noise_x: np.ndarray | None = None
    noise_y: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        n = self.topology.num_latents
        parents = self.topology.parent_indices()
        noise_x = _frozen(np.zeros(n) if self.noise_x is None else self.noise_x, "noise")
        if noise_x.ndim != 1:
            raise ShapeError("source noise levels must be a vector")
        zero_y = [np.zeros(len(p)) for p in parents]
        noise_y = _frozen_blocks(zero_y if self.noise_y is None else self.noise_y, "noise")
        if any(s.ndim != 1 for s in noise_y):
            raise ShapeError("task noise levels must be vectors")
        all_values = np.concatenate([noise_x, *noise_y])
        if not np.all(np.isfinite(all_values)) or np.any(all_values < 0):
            raise DomainError("noise standard deviations must be finite and non-negative")
        source_map = _frozen(self.source_map, "F")
        task_maps = _frozen_blocks(self.task_maps, "B")
        if len(task_maps) != len(parents):
            raise ShapeError("need exactly one task map per task")
        task_maps = tuple(_task_map(b, len(p)) for b, p in zip(task_maps, parents))
        named = [("F", source_map), *((f"B t{t + 1}", b) for t, b in enumerate(task_maps))]
        for name, block in named:
            if not np.all(np.isfinite(block)):
                raise DataError(f"malformed generator spec: {name} entries must be finite")
        if source_map.ndim != 2 or source_map.shape[0] != source_map.shape[1]:
            raise ShapeError(f"source map must be square, got shape {source_map.shape}")
        if singular_ratio(source_map) <= RANK_TOLERANCE:
            raise DomainError("source map is numerically singular")
        if self.slope is not None:
            slope = read_real(self.slope, DataError, "malformed generator spec: slope")
            if not 0.0 < slope < 1.0:
                raise DomainError(f"leaky slope must lie in (0, 1), got {slope}")
        if n > MAX_LATENTS:
            raise CapacityError(f"generator supports at most {MAX_LATENTS} latents, got {n}")
        if self.prior.num_latents != n:
            raise ShapeError(
                f"prior covers {self.prior.num_latents} latents, topology has {n}"
            )
        if source_map.shape[0] != n:
            raise ShapeError(f"mixing covers {source_map.shape[0]} latents, topology has {n}")
        for t, (b, task_parents) in enumerate(zip(task_maps, parents)):
            expected = len(task_parents)
            if b.ndim != 2 or b.shape != (expected, expected):
                raise ShapeError(
                    f"task map {t} must be {expected}x{expected} for parents "
                    f"{task_parents}, got shape {b.shape}"
                )
            if expected and singular_ratio(b) <= RANK_TOLERANCE:
                raise DomainError(f"task map {t} is numerically singular")
        if noise_x.shape[0] != n or len(noise_y) != len(parents):
            raise ShapeError("noise levels do not match the topology dimensions")
        for k, std in enumerate(noise_y):
            if std.shape[0] != len(parents[k]):
                raise ShapeError(f"noise level for task {k} has the wrong width")
        object.__setattr__(self, "source_map", source_map)
        object.__setattr__(self, "task_maps", task_maps)
        object.__setattr__(self, "noise_x", noise_x)
        object.__setattr__(self, "noise_y", noise_y)

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
            "F": self.source_map.tolist(),
            "B": {f"t{k + 1}": b.tolist() for k, b in enumerate(self.task_maps)},
            "noise": {
                "x": self.noise_x.tolist(),
                "y": {f"t{k + 1}": s.tolist() for k, s in enumerate(self.noise_y)},
            },
            "nonlinearity": (
                {"type": "none"} if self.slope is None else {"type": "leaky", "slope": self.slope}
            ),
        }
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "DgpSpec":
        required = ("topology", "environments", "F", "B")
        check_keys(data, "generator spec", {*required, "noise", "nonlinearity"}, required)
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
        prior = ExpFamilyPrior(means, variances)
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
            slope = nonlinearity["slope"]
        else:
            raise DataError(f"unknown nonlinearity type {nonlinearity['type']!r}")
        b_maps = data["B"]
        if not isinstance(b_maps, dict):
            raise DataError("B must map task labels to matrices")
        expected_keys = {f"t{k + 1}" for k in range(m)}
        if set(b_maps) != expected_keys:
            raise DataError(f"B must have exactly the keys {sorted(expected_keys)}")
        task_maps = [b_maps[f"t{k + 1}"] for k in range(m)]
        parent_counts = [len(p) for p in topology.parent_indices()]
        noise_x, noise_y = _noise_from_json(data.get("noise"), n, parent_counts)
        return cls(topology, prior, data["F"], task_maps, slope, noise_x, noise_y)


def _noise_from_json(noise, num_latents: int, parent_counts):
    """Source and per-task noise levels; scalars broadcast, absent entries are 0."""
    if noise is None:
        return None, None
    if not isinstance(noise, dict) or set(noise) - {"x", "y"}:
        raise DataError("noise must be an object with optional 'x' and 'y'")

    def broadcast(value, width: int):
        arr = read_array(value, DataError, "malformed generator spec: noise")
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
    return x_std, y_std


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
        blocks = {"l": self.latents, "x": self.x} | {f"y{t + 1}": b for t, b in enumerate(self.y)}
        for prefix, block in blocks.items():
            if not np.isfinite(block).all():
                raise DataError(f"non-finite cell in dataset columns {prefix}_*")
        object.__setattr__(self, "env_ids", env_ids)

    @property
    def num_latents(self) -> int:
        return self.latents.shape[1]

    def env_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One stable sort of the ids: the row order, each present id and its row count.

        The order lists the rows environment by environment, ascending
        within each; the present ids ascend, and nothing is sized by the
        environment count.
        """
        order = np.argsort(self.env_ids, kind="stable")
        ids = self.env_ids[order]
        starts = np.flatnonzero(np.concatenate(([ids.size > 0], ids[1:] != ids[:-1])))
        return order, ids[starts], np.diff(np.append(starts, ids.size))


def sample_latents(prior: ExpFamilyPrior, env_index: int, count: int, seed: int) -> np.ndarray:
    """Independent Gaussian latent draws for one environment.

    Stream key: (latent-draw purpose, seed XOR environment index), so
    environments can be generated independently and in any order.
    """
    env_index = read_int(env_index, ConfigError, "environment index")
    count = read_int(count, ConfigError, "sample count")
    if not 0 <= env_index < prior.num_environments:
        raise ConfigError(f"environment {env_index} is not configured")
    if count < 1:
        raise ConfigError(f"sample count must be positive, got {count}")
    rng = stream(LATENT_DRAWS, env_seed(seed, env_index))
    std = np.sqrt(prior.variances[env_index])
    try:
        draws = rng.standard_normal((count, prior.num_latents))
    except ValueError as exc:  # numpy cannot size the array
        raise CapacityError(f"sample count {count} is too large: {exc}") from exc
    return prior.means[env_index] + draws * std


def _leaky(values: np.ndarray, slope: float) -> np.ndarray:
    return np.where(values >= 0, values, slope * values)


def generate_observed(
    spec: DgpSpec,
    latents: np.ndarray,
    seed: int = 0,
    env_index: int = 0,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Observables from latent rows: the spec's source map plus per-task maps.

    Task ``t``'s map acts on the latents that ``spec.topology`` lists as
    its parents.

    Observation noise uses its own stream keyed by (noise purpose, seed
    XOR environment index). When every noise level is zero nothing is
    drawn from it, and the output is a deterministic function of the
    latents; a spec with any nonzero level draws noise for every block.
    """
    n = spec.topology.num_latents
    latents = read_array(latents, DataError, "latents")
    if latents.ndim != 2 or latents.shape[1] != n:
        raise ShapeError(f"latents must be (samples x {n}), got shape {latents.shape}")
    rng = stream(OBSERVATION_NOISE, env_seed(seed, env_index))
    noisy = spec.noise_x.any() or any(std.any() for std in spec.noise_y)
    # a product beyond the float range leaves an inf or nan cell, which
    # SyntheticDataset rejects with one typed error instead of a warning
    with np.errstate(over="ignore", invalid="ignore"):
        x = latents @ spec.source_map.T
        if spec.slope is not None:
            x = _leaky(x, spec.slope)
        if noisy:
            x = x + rng.standard_normal(x.shape) * spec.noise_x
        y_blocks = []
        for b, parents, y_std in zip(spec.task_maps, spec.topology.parent_indices(), spec.noise_y):
            block = latents[:, list(parents)] @ b.T
            if noisy:
                block = block + rng.standard_normal(block.shape) * y_std
            y_blocks.append(block)
    return x, tuple(y_blocks)


def generate_dataset(spec: DgpSpec, samples_per_env: int, seed: int) -> SyntheticDataset:
    """Full dataset: every configured environment, rows grouped by env."""
    env_blocks = []
    for e in range(spec.prior.num_environments):
        latents = sample_latents(spec.prior, e, samples_per_env, seed)
        x, y = generate_observed(spec, latents, seed=seed, env_index=e)
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
    load/export round trip is lossless.

    The bytes are those of ``%d`` and ``%.17g``. A float with
    1e-4 <= |v| < 1e16 gets its 17 correctly rounded digits from exact
    integer arithmetic on its bits, across whole numpy arrays; every other
    cell (zero, subnormal, smaller or larger) goes through ``%.17g`` (see
    :mod:`scm_ident._csvrows`). The format, and :func:`load_dataset`, are
    those of per-cell ``%.17g`` formatting.
    """
    task_widths = [block.shape[1] for block in dataset.y]
    values = np.hstack([dataset.latents, dataset.x, *dataset.y])
    env_ids = dataset.env_ids
    order, _, sizes = dataset.env_runs()
    within_env = np.empty_like(env_ids)
    # position in the sorted order less the start of the row's run
    within_env[order] = np.arange(env_ids.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    with open(path, "wb") as handle:
        handle.write((",".join(_header(dataset.num_latents, task_widths)) + "\n").encode())
        for start in range(0, env_ids.shape[0], _EXPORT_CHUNK_ROWS):
            chunk = slice(start, start + _EXPORT_CHUNK_ROWS)
            handle.write(render_rows(env_ids[chunk], within_env[chunk], values[chunk]))


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
