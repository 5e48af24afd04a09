"""Benchmark inputs built from a seed, and the independent references the
output checks compare against.

Nothing here calls into ``scm_ident``: the references must not share
code with the program they check.
"""

import math
from dataclasses import dataclass

import numpy as np

DECIDE_DISTINCT = range(3, 10)  # distinct columns d of a decide target
DECIDE_MAX_TASKS = 8
DECIDE_MAX_LATENTS = 16

# Generator specs equal to identifiable_spec() and colliding_spec() in
# tests/conftest.py, written as the JSON documents `dgp-gen` reads.
SPEC_IDENT = {
    "topology": {"num_tasks": 2, "num_latents": 2, "adjacency": [[1, 0], [0, 1]]},
    "environments": [
        {"means": [0.0, 1.0], "variances": [1.0, 0.7]},
        {"means": [1.5, -0.5], "variances": [2.5, 1.2]},
        {"means": [-1.0, 0.5], "variances": [0.6, 3.0]},
    ],
    "F": [[1.0, 0.6], [-0.4, 1.1]],
    "B": {"t1": [[1.3]], "t2": [[-0.8]]},
}
SPEC_COLLIDE = {
    "topology": {"num_tasks": 1, "num_latents": 2, "adjacency": [[1, 1]]},
    "environments": [
        {"means": [0.0, 0.0], "variances": [1.0, 1.0]},
        {"means": [1.0, 1.0], "variances": [2.0, 2.0]},
        {"means": [-0.8, -0.8], "variances": [0.5, 0.5]},
    ],
    "F": [[1.0, 0.6], [-0.4, 1.1]],
    "B": {"t1": [[0.9, 0.3], [-0.2, 1.4]]},
}


@dataclass(frozen=True)
class DecideTarget:
    """One structure-learning target with its constructed answer.

    ``duplicated`` holds the latents whose column another latent shares:
    exactly the latents whose singleton the closure cannot reach.
    """

    rows: np.ndarray  # (m, n) of 0/1
    scores: np.ndarray  # +0.5 on parents, -0.5 elsewhere
    distinct: int
    identifiable: bool
    duplicated: frozenset[int]
    mask_seed: int


def decide_target(rng: np.random.Generator, distinct: int, identifiable: bool) -> DecideTarget:
    """A topology with exactly ``distinct`` distinct columns.

    The task count is uniform on ceil(log2 d)..8. An identifiable target
    has one latent per distinct column; a colliding one adds duplicate
    columns up to n latents, n uniform on d+1..16, each of the d columns
    used at least once.
    """
    m = int(rng.integers(math.ceil(math.log2(distinct)), DECIDE_MAX_TASKS + 1))
    patterns = rng.choice(1 << m, size=distinct, replace=False)
    if identifiable:
        columns = patterns
    else:
        n = int(rng.integers(distinct + 1, DECIDE_MAX_LATENTS + 1))
        extra = rng.choice(patterns, size=n - distinct)
        columns = rng.permutation(np.concatenate([patterns, extra]))
    rows = ((columns[None, :] >> np.arange(m)[:, None]) & 1).astype(np.int64)
    values, counts = np.unique(columns, return_counts=True)
    shared = set(values[counts > 1].tolist())
    duplicated = frozenset(j for j, c in enumerate(columns.tolist()) if c in shared)
    return DecideTarget(
        rows=rows,
        scores=np.where(rows == 1, 0.5, -0.5),
        distinct=distinct,
        identifiable=identifiable,
        duplicated=duplicated,
        mask_seed=int(rng.integers(0, 2**63)),
    )


def decide_round(rng: np.random.Generator) -> list[DecideTarget]:
    """Every distinct-column count once per verdict, in shuffled order.

    Runs measure whole rounds, so each run sees the same mix of d and
    verdict and only the concrete matrices change with the seed.
    """
    targets = [
        decide_target(rng, d, identifiable)
        for d in DECIDE_DISTINCT
        for identifiable in (True, False)
    ]
    return [targets[i] for i in rng.permutation(len(targets))]


def closure_counts(distinct: int) -> tuple[int, int]:
    """Members of the subtraction closure over d distinct columns, and the
    subtractions the closure loop performs: the closure is the Boolean
    algebra on d atoms (2^d members) and pairs each member with every
    earlier one in both directions, M(M-1) subtractions."""
    members = 1 << distinct
    return members, members * (members - 1)


def falling_factorial(m: int, n: int) -> int:
    """Number of m x n binary matrices with pairwise distinct columns:
    (2^m)! / (2^m - n)!, zero when n exceeds 2^m."""
    return math.perm(1 << m, n)


def render_csv(env_ids, latents, x, y_blocks) -> bytes:
    """The dataset CSV as documented: header, then one row per sample
    with the environment, the index within it, and every float as %.17g.
    """
    n = latents.shape[1]
    header = ["env", "sample"]
    header += [f"l_{j + 1}" for j in range(n)]
    header += [f"x_{j + 1}" for j in range(n)]
    for t, block in enumerate(y_blocks):
        header += [f"y{t + 1}_{i + 1}" for i in range(block.shape[1])]
    values = np.hstack([latents, x, *y_blocks])
    lines = [",".join(header)]
    seen: dict[int, int] = {}
    for env, row in zip(env_ids.tolist(), values.tolist()):
        index = seen.get(env, 0)
        seen[env] = index + 1
        lines.append(f"{env},{index}," + ",".join("%.17g" % v for v in row))
    return ("\n".join(lines) + "\n").encode()
