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

from ._csvrows import parse_rows, render_rows
from ._rng import LATENT_DRAWS, OBSERVATION_NOISE, env_seed, stream
from .errors import CapacityError, ConfigError, DataError, DomainError, ShapeError, check_keys
from .errors import read_array, read_block, read_int, read_ints, read_path, read_real
from .errors import read_task_blocks, read_task_keyed
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
        latent ``j``. An entry beyond the float range (a tiny variance, or
        a mean/variance ratio past it) raises ``DomainError`` naming the
        environment.
        """
        if not 0 <= env_index < self.num_environments:
            raise ConfigError(f"environment {env_index} is not configured")
        mu = self.means[env_index]
        var = self.variances[env_index]
        out = np.empty(2 * self.num_latents)
        with np.errstate(over="ignore"):  # checked below
            out[0::2] = mu / var
            out[1::2] = -0.5 / var
        if not np.isfinite(out).all():
            raise DomainError(
                f"environment {env_index}'s natural parameters are beyond the float range"
            )
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
        if n > MAX_LATENTS:
            raise CapacityError(f"generator supports at most {MAX_LATENTS} latents, got {n}")
        if self.prior.num_latents != n:
            raise ShapeError(f"prior covers {self.prior.num_latents} latents, topology has {n}")
        widths = [len(p) for p in self.topology.parent_indices()]
        what = "malformed generator spec: "
        source_map = read_block(self.source_map, (n, n), DataError, what + "F")
        task_maps = read_task_blocks(
            self.task_maps, [(p, p) for p in widths], DataError, what + "B"
        )
        noise_x = np.zeros(n) if self.noise_x is None else self.noise_x
        noise_x = read_block(noise_x, (n,), DataError, what + "noise x")
        noise_y = [np.zeros(p) for p in widths] if self.noise_y is None else self.noise_y
        noise_y = read_task_blocks(noise_y, [(p,) for p in widths], DataError, what + "noise y")
        if any((std < 0).any() for std in (noise_x, *noise_y)):
            raise DomainError("noise standard deviations must be non-negative")
        if singular_ratio(source_map) <= RANK_TOLERANCE:
            raise DomainError("source map is numerically singular")
        for t, b in enumerate(task_maps):
            if b.size and singular_ratio(b) <= RANK_TOLERANCE:
                raise DomainError(f"task map {t} is numerically singular")
        if self.slope is not None:
            slope = read_real(self.slope, DataError, what + "slope")
            if not 0.0 < slope < 1.0:
                raise DomainError(f"leaky slope must lie in (0, 1), got {slope}")
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
        for e, env in enumerate(envs):
            check_keys(env, f"environment {e}", ("means", "variances"), ("means", "variances"))
        prior = ExpFamilyPrior([env["means"] for env in envs], [env["variances"] for env in envs])
        nonlinearity = data.get("nonlinearity", {"type": "none"})
        check_keys(nonlinearity, "nonlinearity", ("type", "slope"), ("type",))
        kind, slope = nonlinearity["type"], nonlinearity.get("slope")
        if kind not in ("none", "leaky") or (kind == "leaky") != (slope is not None):
            raise DataError("nonlinearity must be type 'none', or type 'leaky' with a 'slope'")
        task_maps = read_task_keyed(data["B"], m, "generator spec B")
        parent_counts = [len(p) for p in topology.parent_indices()]
        noise_x, noise_y = _noise_from_json(data.get("noise"), n, parent_counts)
        return cls(topology, prior, data["F"], task_maps, slope, noise_x, noise_y)


def _noise_from_json(noise, num_latents: int, parent_counts):
    """Source and per-task noise levels; scalars broadcast, absent entries are 0."""
    if noise is None:
        return None, None
    check_keys(noise, "generator spec noise", {"x", "y"})

    def broadcast(value, width: int):
        arr = read_array(value, DataError, "malformed generator spec: noise")
        return np.full(width, float(arr)) if arr.ndim == 0 else arr

    x_std = broadcast(noise.get("x", 0.0), num_latents)
    y_std = noise.get("y", 0.0)
    if isinstance(y_std, dict):
        y_std = read_task_keyed(y_std, len(parent_counts), "generator spec noise y", 0.0)
    elif isinstance(y_std, list):  # tasks differ in width, so one list cannot fit them all
        raise DataError(
            'malformed generator spec: noise y must be one level or a "t1".."tm" object, got a list'
        )
    else:
        y_std = [y_std] * len(parent_counts)
    return x_std, tuple(broadcast(value, p) for value, p in zip(y_std, parent_counts))


@dataclass(frozen=True)
class SyntheticDataset:
    """Generated samples with ground-truth latents retained.

    ``y[t]`` holds task ``t``'s targets with one column per parent latent.
    Rows are grouped by environment in generation order. The environment
    count is read as an int and the ids as an int64 vector (a float or a
    bool id raises ``DataError``); ``latents``, ``x`` and each task block
    are read as 2-d float64 arrays with one row per id, and ``x`` is as
    wide as ``latents`` (else ``ShapeError``). A float64 array is kept,
    not copied.
    """

    num_environments: int
    env_ids: np.ndarray
    latents: np.ndarray
    x: np.ndarray
    y: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        num_environments = read_int(self.num_environments, DataError, "environment count")
        env_ids = read_ints(self.env_ids, DataError, "environment ids")
        if env_ids.ndim != 1:
            raise ShapeError("environment ids must be a vector")
        if not isinstance(self.y, (list, tuple)):
            raise DataError("task blocks must be a list or tuple of arrays")
        latents = read_array(self.latents, DataError, "latents")
        x = read_array(self.x, DataError, "x")
        y = tuple(read_array(b, DataError, f"task block y{t + 1}") for t, b in enumerate(self.y))
        rows = env_ids.shape[0]
        if any(block.ndim != 2 for block in (latents, x, *y)):
            raise ShapeError("latents, x and every task block must be 2-d arrays")
        if latents.shape[0] != rows or x.shape[0] != rows:
            raise ShapeError("all sample arrays must have one row per sample")
        if any(block.shape[0] != rows for block in y):
            raise ShapeError("all task arrays must have one row per sample")
        if x.shape[1] != latents.shape[1]:
            raise ShapeError(
                f"x must be as wide as latents, got {x.shape[1]} and {latents.shape[1]} columns"
            )
        # Python ints: the count may pass the int64 range
        if rows and (int(env_ids.min()) < 0 or int(env_ids.max()) >= num_environments):
            raise DataError("sample environment id outside the configured range")
        blocks = {"l": latents, "x": x} | {f"y{t + 1}": b for t, b in enumerate(y)}
        for prefix, block in blocks.items():
            if not np.isfinite(block).all():
                raise DataError(f"non-finite cell in dataset columns {prefix}_*")
        read = dict(num_environments=num_environments, env_ids=env_ids, latents=latents, x=x, y=y)
        for name, value in read.items():
            object.__setattr__(self, name, value)

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
    """Report whether the environments are diverse enough.

    A shortfall is reported, not raised. An environment whose natural
    parameters, or their difference from environment 0's, are beyond the
    float range raises ``DomainError`` naming it.
    """
    k = prior.num_environments
    base = prior.natural_parameters(0)
    if k > 1:
        columns = np.empty((base.size, k - 1))
        for e in range(1, k):
            with np.errstate(over="ignore"):  # checked below
                columns[:, e - 1] = prior.natural_parameters(e) - base
            if not np.isfinite(columns[:, e - 1]).all():
                raise DomainError(
                    f"environment {e}'s natural parameters differ from environment 0's"
                    " beyond the float range"
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
    with open(read_path(path, DataError, "dataset"), "wb") as handle:
        handle.write((",".join(_header(dataset.num_latents, task_widths)) + "\n").encode())
        for start in range(0, env_ids.shape[0], _EXPORT_CHUNK_ROWS):
            chunk = slice(start, start + _EXPORT_CHUNK_ROWS)
            handle.write(render_rows(env_ids[chunk], within_env[chunk], values[chunk]))


def load_dataset(path) -> SyntheticDataset:
    """Read a dataset CSV back into arrays.

    The file must be UTF-8 text. The env and sample cells must be
    integers and every other cell a float that numpy parses; blank lines,
    rows whose width differs from the header, task indices above the
    header's column count, a byte that is not UTF-8 and a ``path`` that
    is not a str or os.PathLike are rejected with :class:`DataError`.

    Where the host has x87 extended precision, a body in the writer's
    canonical form (see :func:`scm_ident._csvrows.parse_rows`: only
    digits, ``, . - + e E`` and newlines, a final newline, every line of
    the header's width, env and sample cells of digits below 10**18) is
    parsed by ``strtold`` on one thread per CPU, and each cell whose
    rounding through the 64-bit significand could differ (a midpoint
    between two doubles, or outside the normal double range) is read
    again with ``float``. Any other file goes through ``np.loadtxt``;
    both give the same arrays and the same errors.
    """
    with open(read_path(path, DataError, "dataset"), "rb") as handle:
        data = handle.read()
    dataset = _canonical_dataset(data)
    if dataset is not None:
        return dataset
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"dataset is not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None
    del data  # the text holds the file now
    return _text_dataset(text)


def _read_header(header_line: str) -> tuple[list[str], int, list[int]]:
    """The expected columns, the latent count and each task's width, from the header line."""
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
    return expected, num_latents, task_widths


def _canonical_dataset(data: bytes):
    """The dataset in ``data`` when its header is valid and its body canonical, else None.

    None leaves every error to :func:`_text_dataset`, so messages do not
    depend on which reader ran.
    """
    body = data.find(b"\n") + 1
    header_line = data[:body]
    if not body or not header_line.isascii() or b"\r" in header_line:
        return None
    try:
        expected, num_latents, task_widths = _read_header(header_line.decode())
    except DataError:
        return None
    rows = parse_rows(data, body, len(expected))
    return None if rows is None else _dataset(*rows, num_latents, task_widths)


def _text_dataset(text: str) -> SyntheticDataset:
    """Parse the file's text with ``np.loadtxt``, reading newlines as a text-mode ``open`` does."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    header_line = lines.pop(0) + ("\n" if lines else "")
    if not header_line:
        raise DataError("dataset file is empty")
    expected, num_latents, task_widths = _read_header(header_line)
    if lines and lines[-1] == "":
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
    # copies, not ascontiguousarray: a one-row field view counts as contiguous
    # and would keep the record array's strides
    return _dataset(table["env"].copy(), table["values"].copy(), num_latents, task_widths)


def _dataset(env_ids, values, num_latents: int, task_widths) -> SyntheticDataset:
    """The dataset whose latents, x and task blocks are column views of ``values``."""
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
