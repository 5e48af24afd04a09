"""Deterministic random streams.

Every sampling operation in the package draws from a Philox counter-based
generator keyed by ``(purpose, seed)``. Philox streams are specified by
their key alone, are stable across platforms and numpy releases, and
distinct purposes never share a stream, so a fixed user seed reproduces
every draw bit for bit. The purpose constants below are part of the
reproducibility contract and must not be renumbered.
"""

import numpy as np

from .errors import ConfigError

MASK_BERNOULLI = 1
MASK_GUMBEL = 2
LATENT_DRAWS = 3
OBSERVATION_NOISE = 4
FIT_INIT = 5
GRADCHECK = 6

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF


def check_seed(seed: int) -> int:
    """Validate and normalize a 64-bit unsigned seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"seed must be an integer, got {type(seed).__name__}")
    if seed < 0 or seed > _UINT64_MASK:
        raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return int(seed)


def stream(purpose: int, seed: int) -> np.random.Generator:
    """Fresh generator for one purpose, keyed by a 64-bit seed."""
    key = np.array([purpose, check_seed(seed)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def env_seed(seed: int, env_index: int) -> int:
    """Per-environment splitting rule: user seed XOR environment index."""
    return (check_seed(seed) ^ int(env_index)) & _UINT64_MASK
