"""Task-guided latent mask sampling.

A task's score vector (produced upstream, one real score per latent) is
squashed into per-latent selection probabilities, which are then
discretized either by Bernoulli sampling (inference-style, not
differentiable) or by a per-latent two-class Gumbel-softmax (the
differentiable surrogate). Stacking one soft mask per task yields the
continuous task-latent matrix consumed by the structure losses.

All draws flow through fixed Philox streams (see :mod:`scm_ident._rng`),
so results are reproducible bit for bit for a given seed. Each call
re-keys its thread's Philox rather than building a generator, which gives
the same bits as a fresh stream.
"""

from dataclasses import dataclass

import numpy as np

from ._rng import MASK_BERNOULLI, MASK_GUMBEL, check_seed, uniforms
from .errors import CapacityError, ConfigError, DomainError, ShapeError
from .errors import read_array, read_int, read_real
from .losses import as_soft_adjacency

DEFAULT_SCALE = 100.0

# Fixed design of the sampler self-test (mask_statistics_self_test).
SELF_TEST_PROBABILITIES = (0.1, 0.3, 0.5, 0.7, 0.9)
SELF_TEST_TEMPERATURE = 0.01
SELF_TEST_GUMBEL_TOLERANCE = 0.01

_OPEN_LOW = np.nextafter(0.0, 1.0)
_OPEN_HIGH = np.nextafter(1.0, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic without overflow: both branches use ``exp(-|x|)`` <= 1."""
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


def _vector(values, what: str) -> np.ndarray:
    arr = read_array(values, DomainError, what)
    if arr.ndim != 1 or arr.size < 1:
        raise ShapeError(f"{what} must be a non-empty vector, got shape {arr.shape}")
    return arr


def _as_probabilities(soft) -> np.ndarray:
    arr = _vector(soft, "probabilities")
    # min and max propagate NaN, and an infinity is outside [0, 1]
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise DomainError("probabilities must lie in [0, 1]")
    return arr


def soft_mask(scores, scale: float = DEFAULT_SCALE) -> np.ndarray:
    """Per-latent selection probabilities: logistic of the scaled scores.

    Outputs are clamped to the largest representable values strictly
    inside (0, 1), so downstream samplers never see a saturated 0 or 1
    from a finite score.
    """
    arr = _vector(scores, "scores")
    if not np.isfinite(arr).all():
        raise DomainError("scores must be finite")
    scale = read_real(scale, DomainError, "scale")
    if scale <= 0:
        raise DomainError(f"scale must be a positive real, got {scale}")
    # a product beyond the float range is +-inf, whose logistic is exactly 1 or 0
    with np.errstate(over="ignore"):
        scaled = scale * arr
    probs = _sigmoid(scaled)
    return probs.clip(_OPEN_LOW, _OPEN_HIGH, out=probs)


def sample_hard_mask(soft, seed: int = 0) -> np.ndarray:
    """Independent Bernoulli draws, one per latent.

    Entry ``j`` is 1 with probability ``soft[j]``; the degenerate
    probabilities 0 and 1 are honored exactly. Deterministic for a fixed
    seed.
    """
    probs = _as_probabilities(soft)
    return (uniforms(MASK_BERNOULLI, seed, probs.shape[0]) < probs).astype(np.int64)


@dataclass(frozen=True, eq=False)
class GumbelMaskSample:
    """Relaxed and hard outputs of one Gumbel-softmax draw.

    ``relaxed`` is the differentiable "selected" coordinate in (0, 1);
    ``hard`` is its argmax discretization. Consumers pick whichever side
    their estimator needs.
    """

    relaxed: np.ndarray
    hard: np.ndarray


def gumbel_softmax_mask(soft, temperature: float = 1.0, seed: int = 0) -> GumbelMaskSample:
    """Per-latent two-class Gumbel-softmax over {selected, not selected}.

    Each coordinate perturbs the two class log-probabilities
    ``(log p, log(1-p))`` with independent standard Gumbel noise and
    applies a temperature-scaled softmax; the relaxed output is the
    "selected" coordinate. The hard argmax is temperature-free and
    distributed Bernoulli(p), which the relaxed output approaches as the
    temperature goes to 0.
    """
    probs = _as_probabilities(soft)
    temperature = read_real(temperature, DomainError, "temperature")
    if not temperature > 0:
        raise DomainError(f"temperature must be positive, got {temperature}")
    probs = probs.clip(_OPEN_LOW, _OPEN_HIGH)
    draws = uniforms(MASK_GUMBEL, seed, (2, probs.shape[0])).clip(_OPEN_LOW, _OPEN_HIGH)
    gumbel_sel, gumbel_not = -np.log(-np.log(draws))
    logits = (np.log(probs) + gumbel_sel) - (np.log1p(-probs) + gumbel_not)
    # a quotient beyond the float range is +-inf, whose logistic is exactly 1 or 0
    with np.errstate(over="ignore"):
        scaled = logits / temperature
    relaxed = _sigmoid(scaled)
    relaxed.clip(_OPEN_LOW, _OPEN_HIGH, out=relaxed)
    hard = (logits > 0).astype(np.int64)
    return GumbelMaskSample(relaxed=relaxed, hard=hard)


def mask_statistics_self_test(seed: int = 0, draws: int = 100_000) -> dict:
    """Frequency checks of both samplers against their target laws.

    Bernoulli empirical frequencies must sit within 4-sigma binomial
    bounds of the requested probabilities; cold-temperature
    Gumbel-softmax hard frequencies must agree with the Bernoulli
    frequencies within an absolute tolerance. Deterministic per seed.
    """
    seed, draws = check_seed(seed), read_int(draws, ConfigError, "draws")
    if draws < 1:
        raise ConfigError(f"draws must be positive, got {draws}")
    probs = np.asarray(SELF_TEST_PROBABILITIES, dtype=np.float64)
    # One length-`draws` vector per probability, each on its own stream.
    bernoulli_freq = []
    gumbel_freq = []
    for offset, p in enumerate(probs):
        try:
            vector = np.full(draws, p)
        except ValueError as exc:  # numpy cannot size the array
            raise CapacityError(f"{draws} draws are too many: {exc}") from exc
        bern = sample_hard_mask(vector, seed=seed + offset)
        cold = gumbel_softmax_mask(vector, temperature=SELF_TEST_TEMPERATURE, seed=seed + offset)
        bernoulli_freq.append(float(bern.mean()))
        gumbel_freq.append(float(cold.hard.mean()))
    bounds = 4.0 * np.sqrt(probs * (1.0 - probs) / draws)
    bern_ok = [
        abs(freq - p) <= bound
        for freq, p, bound in zip(bernoulli_freq, probs, bounds)
    ]
    gumbel_ok = [
        abs(gf - bf) <= SELF_TEST_GUMBEL_TOLERANCE
        for gf, bf in zip(gumbel_freq, bernoulli_freq)
    ]
    return {
        "draws": draws,
        "probabilities": probs.tolist(),
        "bernoulli_frequencies": bernoulli_freq,
        "bernoulli_bounds": bounds.tolist(),
        "bernoulli_ok": bern_ok,
        "gumbel_temperature": SELF_TEST_TEMPERATURE,
        "gumbel_frequencies": gumbel_freq,
        "gumbel_tolerance": SELF_TEST_GUMBEL_TOLERANCE,
        "gumbel_ok": gumbel_ok,
        "ok": all(bern_ok) and all(gumbel_ok),
    }


def build_task_latent_matrix(soft_masks) -> np.ndarray:
    """Stack one soft mask per task into the m x n task-latent matrix."""
    matrix = read_array(soft_masks, ShapeError, "masks")
    if matrix.ndim != 2:
        raise ShapeError(f"masks must be equal-length vectors, got shape {matrix.shape}")
    return as_soft_adjacency(matrix)
