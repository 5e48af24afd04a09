"""Task-guided latent mask sampling.

A task's score vector (produced upstream, one real score per latent) is
squashed into per-latent selection probabilities, which are then
discretized either by Bernoulli sampling (inference-style, not
differentiable) or by a per-latent two-class Gumbel-softmax (the
differentiable surrogate). Stacking one soft mask per task yields the
continuous task-latent matrix consumed by the structure losses.

All draws flow through fixed Philox streams (see :mod:`scm_ident._rng`),
so results are reproducible bit for bit for a given seed.
"""

from dataclasses import dataclass

import numpy as np

from ._rng import MASK_BERNOULLI, MASK_GUMBEL, stream
from .errors import DomainError, ShapeError
from .losses import as_soft_adjacency

DEFAULT_SCALE = 100.0

# Fixed design of the sampler self-test (mask_statistics_self_test).
SELF_TEST_PROBABILITIES = (0.1, 0.3, 0.5, 0.7, 0.9)
SELF_TEST_TEMPERATURE = 0.01
SELF_TEST_GUMBEL_TOLERANCE = 0.01

_OPEN_LOW = np.nextafter(0.0, 1.0)
_OPEN_HIGH = np.nextafter(1.0, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _as_scores(scores) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ShapeError(f"scores must be a non-empty vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("scores must be finite")
    return arr


def _as_probabilities(soft) -> np.ndarray:
    arr = np.asarray(soft, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ShapeError(f"probabilities must be a non-empty vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
        raise DomainError("probabilities must lie in [0, 1]")
    return arr


def soft_mask(scores, scale: float = DEFAULT_SCALE) -> np.ndarray:
    """Per-latent selection probabilities: logistic of the scaled scores.

    Outputs are clamped to the largest representable values strictly
    inside (0, 1), so downstream samplers never see a saturated 0 or 1
    from a finite score.
    """
    arr = _as_scores(scores)
    if not np.isfinite(scale) or scale <= 0:
        raise DomainError(f"scale must be a positive real, got {scale}")
    return np.clip(_sigmoid(scale * arr), _OPEN_LOW, _OPEN_HIGH)


def sample_hard_mask(soft, seed: int = 0) -> np.ndarray:
    """Independent Bernoulli draws, one per latent.

    Entry ``j`` is 1 with probability ``soft[j]``; the degenerate
    probabilities 0 and 1 are honored exactly. Deterministic for a fixed
    seed.
    """
    probs = _as_probabilities(soft)
    rng = stream(MASK_BERNOULLI, seed)
    return (rng.random(probs.shape[0]) < probs).astype(np.int64)


@dataclass(frozen=True)
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
    if not temperature > 0:
        raise DomainError(f"temperature must be positive, got {temperature}")
    probs = np.clip(probs, _OPEN_LOW, _OPEN_HIGH)
    rng = stream(MASK_GUMBEL, seed)
    uniforms = np.clip(rng.random((2, probs.shape[0])), _OPEN_LOW, _OPEN_HIGH)
    gumbel_sel, gumbel_not = -np.log(-np.log(uniforms))
    logits = (np.log(probs) + gumbel_sel) - (np.log1p(-probs) + gumbel_not)
    relaxed = np.clip(_sigmoid(logits / temperature), _OPEN_LOW, _OPEN_HIGH)
    hard = (logits > 0).astype(np.int64)
    return GumbelMaskSample(relaxed=relaxed, hard=hard)


def mask_statistics_self_test(seed: int = 0, draws: int = 100_000) -> dict:
    """Frequency checks of both samplers against their target laws.

    Bernoulli empirical frequencies must sit within 4-sigma binomial
    bounds of the requested probabilities; cold-temperature
    Gumbel-softmax hard frequencies must agree with the Bernoulli
    frequencies within an absolute tolerance. Deterministic per seed.
    """
    probs = np.asarray(SELF_TEST_PROBABILITIES, dtype=np.float64)
    # One length-`draws` vector per probability, each on its own stream.
    bernoulli_freq = []
    gumbel_freq = []
    for offset, p in enumerate(probs):
        vector = np.full(draws, p)
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
    masks = [np.asarray(m, dtype=np.float64) for m in soft_masks]
    if not masks:
        raise ShapeError("need at least one mask to stack")
    if any(m.ndim != 1 for m in masks):
        raise ShapeError("each mask must be a vector")
    lengths = {m.shape[0] for m in masks}
    if len(lengths) != 1:
        raise ShapeError(f"masks must share one length, got {sorted(lengths)}")
    return as_soft_adjacency(np.vstack(masks))
