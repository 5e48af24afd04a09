"""Deterministic random streams.

Every sampling operation in the package draws from a Philox counter-based
generator keyed by ``(purpose, seed)``. Philox streams are specified by
their key alone, are stable across platforms and numpy releases, and
distinct purposes never share a stream, so a fixed user seed reproduces
every draw bit for bit. The purpose constants below are part of the
reproducibility contract and must not be renumbered.

:func:`stream` builds a fresh generator for callers that hold one across
calls. The mask samplers draw once per call, so :func:`uniforms` instead
re-keys one Philox per thread: Philox is counter-based, so setting its key
with a zero counter and an empty buffer replays exactly the draws a
freshly built generator with that key makes, without the cost of building
one.
"""

import threading

import numpy as np

from .errors import ConfigError, read_int

MASK_BERNOULLI = 1
MASK_GUMBEL = 2
LATENT_DRAWS = 3
OBSERVATION_NOISE = 4
FIT_INIT = 5
GRADCHECK = 6

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF


def check_seed(seed: int) -> int:
    """Validate and normalize a 64-bit unsigned seed."""
    seed = read_int(seed, ConfigError, "seed")
    if seed < 0 or seed > _UINT64_MASK:
        raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def stream(purpose: int, seed: int) -> np.random.Generator:
    """Fresh generator for one purpose, keyed by a 64-bit seed."""
    key = np.array([purpose, check_seed(seed)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Rekeyed(threading.local):
    """One Philox and its generator per thread, plus the reusable state
    document that re-keys it (the state setter copies what it reads)."""

    def __init__(self) -> None:
        self.key = np.zeros(2, dtype=np.uint64)
        zeros = np.zeros(4, dtype=np.uint64)
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": self.key},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.bit_generator = np.random.Philox(key=self.key)
        self.generator = np.random.Generator(self.bit_generator)


_REKEYED = _Rekeyed()


def uniforms(purpose: int, seed: int, shape) -> np.ndarray:
    """Uniform [0, 1) draws of the given shape from the start of the
    ``(purpose, seed)`` stream: bit for bit what
    ``stream(purpose, seed).random(shape)`` returns."""
    seed = check_seed(seed)
    local = _REKEYED
    local.key[0] = purpose
    local.key[1] = seed
    local.bit_generator.state = local.state
    return local.generator.random(shape)


def env_seed(seed: int, env_index: int) -> int:
    """Per-environment splitting rule: user seed XOR environment index."""
    return (check_seed(seed) ^ read_int(env_index, ConfigError, "environment index")) & _UINT64_MASK
