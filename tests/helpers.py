"""Independent oracles for the test suite.

Everything here is deliberately written from the definitions with plain
loops and stdlib/naive numpy, sharing no code paths with the package
implementations it checks.
"""

import csv
import io
import itertools
import math

import numpy as np


def naive_uic_loss(matrix, alpha: int) -> float:
    """Column-agreement penalty by direct triple summation."""
    matrix = np.asarray(matrix, dtype=np.float64)
    m, n = matrix.shape
    terms = []
    for i in range(n):
        for j in range(n):
            inner = math.fsum(
                matrix[k, i] * matrix[k, j] + (1.0 - matrix[k, i]) * (1.0 - matrix[k, j])
                for k in range(m)
            )
            if i == j:
                inner -= m
            terms.append((inner / m) ** alpha)
    return math.fsum(terms)


def naive_dis_loss(matrix, alpha: int) -> float:
    """Row-agreement penalty by direct triple summation."""
    matrix = np.asarray(matrix, dtype=np.float64)
    m, n = matrix.shape
    terms = []
    for k in range(m):
        for kp in range(m):
            inner = math.fsum(
                matrix[k, i] * matrix[kp, i] + (1.0 - matrix[k, i]) * (1.0 - matrix[kp, i])
                for i in range(n)
            )
            if k == kp:
                inner -= n
            terms.append((inner / n) ** alpha)
    return math.fsum(terms)


def central_difference(fn, matrix: np.ndarray, step: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(matrix)
    for index in np.ndindex(*matrix.shape):
        bumped = matrix.copy()
        bumped[index] += step
        upper = fn(bumped)
        bumped[index] -= 2.0 * step
        lower = fn(bumped)
        grad[index] = (upper - lower) / (2.0 * step)
    return grad


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max-norm difference over the max-norm of either gradient.

    Entrywise ratios are meaningless once entries underflow (large
    exponents push most of the gradient toward zero), so errors are
    normalized by the dominant magnitude.
    """
    scale = max(float(np.abs(analytic).max()), float(np.abs(numeric).max()), 1e-300)
    return float(np.abs(analytic - numeric).max() / scale)


def column_collisions(adjacency) -> list[tuple[int, int]]:
    """Unordered pairs of identical columns, by direct tuple comparison."""
    arr = np.asarray(adjacency)
    cols = [tuple(int(v) for v in arr[:, j]) for j in range(arr.shape[1])]
    return [
        (a, b)
        for a in range(len(cols))
        for b in range(a + 1, len(cols))
        if cols[a] == cols[b]
    ]


def shuffled_closure(parent_sets, n: int, rng) -> set[frozenset]:
    """Subtraction-closure fixpoint over frozensets with a shuffled worklist.

    Independent of the package's bitmask implementation; the oracle for
    the member listing, which it must equal whatever the processing order.
    """
    universe = frozenset(range(n))
    family = {frozenset(), universe} | {frozenset(p) for p in parent_sets}
    while True:
        pairs = list(itertools.combinations(sorted(family, key=sorted), 2))
        rng.shuffle(pairs)
        new = set()
        for a, b in pairs:
            for d in (a - b, b - a):
                if d not in family:
                    new.add(d)
        if not new:
            return family
        family |= new


def reference_closure_origins(topology) -> dict:
    """Subtraction-closure fixpoint with each member's first derivation.

    Pairs every new member with every earlier one, both directions, until
    no member is left unpaired; the dict keeps the discovery order. Seeds
    come from the adjacency cells directly. The certificates are checked
    against its derivations (:func:`reference_derivation`).
    """
    from scm_ident.ident import DifferenceOrigin, SeedOrigin

    origins = {0: SeedOrigin("empty")}
    origins.setdefault((1 << topology.num_latents) - 1, SeedOrigin("universal"))
    for k, row in enumerate(topology.adjacency.tolist()):
        origins.setdefault(sum(cell << j for j, cell in enumerate(row)), SeedOrigin("task", k))
    members = list(origins)
    for i, x in enumerate(members):  # members grows while it is walked
        for y in members[:i]:
            for left, right in ((x, y), (y, x)):
                if left & ~right not in origins:
                    origins[left & ~right] = DifferenceOrigin(left, right)
                    members.append(left & ~right)
    return origins


def reference_derivation(origins, mask) -> list:
    """``mask``'s first-found derivation from :func:`reference_closure_origins`,
    unrolled depth first: operands before results, each mask listed once."""
    from scm_ident.ident import DifferenceOrigin

    chain = []
    pending = [(mask, False)]
    while pending:
        target, expanded = pending.pop()
        if any(target == done for done, _ in chain):
            continue
        origin = origins[target]
        if expanded or not isinstance(origin, DifferenceOrigin):
            chain.append((target, origin))
        else:
            pending += [(target, True), (origin.right, False), (origin.left, False)]
    return chain


def replay_chain(topology, chain) -> int:
    """Replay a derivation chain step by step and return its last set.

    Seeds are read from the topology and each difference from sets the
    chain produced earlier; every step must reproduce its recorded mask.
    """
    from scm_ident.ident import SeedOrigin

    replayed: dict[int, int] = {}
    for step_mask, origin in chain:
        if isinstance(origin, SeedOrigin):
            if origin.kind == "empty":
                value = 0
            elif origin.kind == "universal":
                value = (1 << topology.num_latents) - 1
            else:
                value = topology.row_masks()[origin.task]
        else:
            assert origin.left in replayed and origin.right in replayed, "operand not emitted earlier"
            value = replayed[origin.left] & ~replayed[origin.right]
        assert value == step_mask
        replayed[step_mask] = value
    return chain[-1][0]


def brute_force_best_matching(true_latents, est_latents):
    """Best permutation by mean |Pearson| using numpy's corrcoef."""
    true_arr = np.asarray(true_latents, dtype=np.float64)
    est_arr = np.asarray(est_latents, dtype=np.float64)
    n = true_arr.shape[1]
    corr = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            corr[i, j] = abs(np.corrcoef(true_arr[:, i], est_arr[:, j])[0, 1])
    best_perm, best_mean = None, -1.0
    for perm in itertools.permutations(range(n)):
        mean = float(np.mean([corr[i, perm[i]] for i in range(n)]))
        if mean > best_mean:
            best_perm, best_mean = perm, mean
    return best_perm, best_mean


def unscaled_standardised(latents: np.ndarray):
    """Columns centred and scaled to unit norm, with no power-of-two rescaling first.

    ``match_permutation``'s formula without its rescaling, so its squares
    overflow near 1e155 and underflow near 1e-155; ``None`` where it finds
    a column of zero variance.
    """
    rows = np.array(latents.T, order="C")
    scales = np.abs(rows).max(axis=1, initial=0.0)
    rows -= rows.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms <= rows.shape[1] * np.finfo(np.float64).eps * scales):
        return None
    rows /= norms[:, None]
    return rows


def enumerate_matrices(m: int, n: int):
    """All binary m x n matrices as row-tuples, in encoding order."""
    for enc in range(1 << (m * n)):
        yield tuple(
            tuple((enc >> (k * n + j)) & 1 for j in range(n)) for k in range(m)
        )


def reference_export_csv(dataset, path) -> None:
    """Dataset CSV written one row at a time through ``csv.writer``.

    The header names ``env,sample,l_1..l_n,x_1..x_n`` and then
    ``y<t>_<i>`` for each column of each task block; floats use ``%.17g``.
    """
    header = ["env", "sample"]
    header += [f"l_{j + 1}" for j in range(dataset.num_latents)]
    header += [f"x_{j + 1}" for j in range(dataset.num_latents)]
    for t, block in enumerate(dataset.y):
        header += [f"y{t + 1}_{i + 1}" for i in range(block.shape[1])]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    within_env = {}
    for row in range(dataset.env_ids.shape[0]):
        env = int(dataset.env_ids[row])
        index = within_env.get(env, 0)
        within_env[env] = index + 1
        values = [
            *dataset.latents[row],
            *dataset.x[row],
            *(v for block in dataset.y for v in block[row]),
        ]
        writer.writerow([env, index] + ["%.17g" % v for v in values])
    with open(path, "w", newline="") as handle:
        handle.write(buffer.getvalue())


def reference_moments(dataset):
    """Per-environment means and covariances of ``[x, *y]``, one id scan per environment."""
    joint = np.hstack([dataset.x, *dataset.y])
    means, covariances = [], []
    for e in range(dataset.num_environments):
        block = joint[np.flatnonzero(dataset.env_ids == e)]
        mean = block.mean(axis=0)
        centered = block - mean
        means.append(mean)
        covariances.append(centered.T @ centered / block.shape[0])
    return np.array(means), np.array(covariances)


def reference_data_driven_start(dataset, topology):
    """The fit's whitening-style start computed from the rows.

    With L the Cholesky factor of the averaged per-environment source
    covariance (plus the fit's jitter), the rows are whitened to L⁻¹x; the
    start holds L, each environment's mean and variance of the whitened
    rows, and per task the transposed ``lstsq`` map from its parents'
    whitened columns to its observed block over all rows.
    """
    n = topology.num_latents
    envs = range(dataset.num_environments)
    source_covariances = [np.cov(dataset.x[dataset.env_ids == e].T, bias=True) for e in envs]
    avg_cov = np.mean(source_covariances, axis=0).reshape(n, n)
    jitter = 1e-10 * max(float(np.trace(avg_cov)) / n, 1.0)
    mixing = np.linalg.cholesky(avg_cov + jitter * np.eye(n))
    whitened = np.linalg.solve(mixing, dataset.x.T).T
    means = np.array([whitened[dataset.env_ids == e].mean(axis=0) for e in envs])
    variances = np.array([whitened[dataset.env_ids == e].var(axis=0) for e in envs])
    task_maps = []
    for k, parents in enumerate(topology.parent_indices()):
        if parents:
            design = whitened[:, list(parents)]
            task_maps.append(np.linalg.lstsq(design, dataset.y[k], rcond=None)[0].T)
        else:
            task_maps.append(np.zeros((0, 0)))
    return mixing, means, variances, task_maps


# The mask samplers and topology masks as first written: one masked numpy
# branch per sign, a freshly built Philox generator per draw, and one shift
# per adjacency cell. The package must match them bit for bit.

OPEN_LOW = np.nextafter(0.0, 1.0)
OPEN_HIGH = np.nextafter(1.0, 0.0)


def two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def fresh_uniforms(purpose: int, seed: int, shape) -> np.ndarray:
    key = np.array([purpose, seed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(shape)


def fresh_stream_bernoulli(probs, seed: int) -> np.ndarray:
    """Bernoulli hard mask of valid probabilities (purpose 1)."""
    probs = np.asarray(probs, dtype=np.float64)
    return (fresh_uniforms(1, seed, probs.shape[0]) < probs).astype(np.int64)


def fresh_stream_gumbel(probs, temperature: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Relaxed and hard two-class Gumbel-softmax mask (purpose 2)."""
    probs = np.clip(np.asarray(probs, dtype=np.float64), OPEN_LOW, OPEN_HIGH)
    uniforms = np.clip(fresh_uniforms(2, seed, (2, probs.shape[0])), OPEN_LOW, OPEN_HIGH)
    gumbel_sel, gumbel_not = -np.log(-np.log(uniforms))
    logits = (np.log(probs) + gumbel_sel) - (np.log1p(-probs) + gumbel_not)
    relaxed = np.clip(two_branch_sigmoid(logits / temperature), OPEN_LOW, OPEN_HIGH)
    return relaxed, (logits > 0).astype(np.int64)


def shifted_masks(adjacency) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Column masks (bit k = task k) and row masks (bit j = latent j)."""
    cells = np.asarray(adjacency).tolist()
    m, n = len(cells), len(cells[0])
    cols = tuple(sum(cells[k][j] << k for k in range(m)) for j in range(n))
    rows = tuple(sum(cells[k][j] << j for j in range(n)) for k in range(m))
    return cols, rows
