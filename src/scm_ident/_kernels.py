"""The exhaustive-audit kernel: one numpy implementation.

Matrix encoding used by :func:`audit_shape`: an m x n binary adjacency is
packed into an integer with bit ``k * n + j`` holding entry ``(k, j)``;
:func:`decode_matrix` is its inverse. Encodings are decided :data:`CHUNK`
at a time, so every temporary of :func:`decide` is an (n, CHUNK) or
(m, CHUNK) array of at most int32: 80 KB at n = 5, but growing with the
shape rather than bounded by it. ``BACKEND`` names the kernel so run
reports can say which one ran.
"""

import sys

import numpy as np

from .topology import ScmTopology

BACKEND = "pure"

CHUNK = 4096
# 2**30 matrices is already out of reach; the bound also keeps every
# encoding and latent mask inside int32.
MAX_CELLS = 30


def backends() -> dict[str, object]:
    """Every available kernel by name."""
    return {BACKEND: sys.modules[__name__]}


def decode_matrix(encoding: int, num_tasks: int, num_latents: int) -> ScmTopology:
    """Inverse of the audit encoding (bit ``k * n + j`` is entry ``k, j``)."""
    rows = [
        [(encoding >> (k * num_latents + j)) & 1 for j in range(num_latents)]
        for k in range(num_tasks)
    ]
    return ScmTopology.from_rows(rows)


def audit_shape(m: int, n: int):
    """Decide every binary m x n adjacency three independent ways.

    Returns ``(total, identifiable, closure_vs_agreement,
    agreement_vs_distinct)`` where ``identifiable`` counts the matrices
    the agreement decider accepts and the last two are lists of encodings
    on which :func:`decide` found two verdicts disagreeing (both empty in
    a correct build).
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if m * n > MAX_CELLS:
        raise ValueError(f"shape {m}x{n} exceeds the enumerable range")
    total = 1 << (m * n)
    identifiable = 0
    closure_vs_agreement: list[int] = []
    agreement_vs_distinct: list[int] = []
    for start in range(0, total, CHUNK):
        enc = np.arange(start, min(start + CHUNK, total), dtype=np.int32)
        closure_ok, agreement_ok, distinct_ok = decide(enc, m, n)
        identifiable += int(agreement_ok.sum())
        closure_vs_agreement += enc[closure_ok != agreement_ok].tolist()
        agreement_vs_distinct += enc[agreement_ok != distinct_ok].tolist()
    return total, identifiable, closure_vs_agreement, agreement_vs_distinct


def decide(enc: np.ndarray, m: int, n: int):
    """Three independent verdicts per encoded m x n matrix.

    ``enc`` is an int32 array of encodings. Returns boolean arrays
    ``(closure_ok, agreement_ok, distinct_ok)`` aligned with it:

    * closure: the subtraction closure of the empty set, the universal
      set U and the parent sets Pa_k is the Boolean algebra they
      generate, so {j} is a member iff j's atom is {j}. The atom is
      reached by subtracting family members only: start from U and, per
      task, subtract Pa_k when j is not in Pa_k and U - Pa_k otherwise;
    * agreement: no pair of columns agrees on all m tasks. Pairs are
      taken by column distance s: columns i and i + s differ on task k
      iff bit i of ``row_k ^ (row_k >> s)`` is set, so every pair at
      distance s differs somewhere iff the OR of that over the tasks
      has all of its low n - s bits set;
    * distinctness: the sorted column codes hold no equal neighbours.

    The closure and distinctness passes share one (latent, matrix) bit
    plane per task, so no temporary spans tasks, latents and matrices at
    once. The column codes are sorted along the latent axis by an
    odd-even transposition network: n passes of compare-exchange between
    neighbours, each pass a ``np.minimum``/``np.maximum`` over all
    matrices at once.
    """
    universal = np.int32((1 << n) - 1)
    latents = np.arange(n, dtype=np.int32)[:, None]
    rows = (enc >> (np.arange(m, dtype=np.int32)[:, None] * n)) & universal  # (m, C)

    atoms = np.full((n, len(enc)), universal)
    cols = np.zeros((n, len(enc)), dtype=np.int32)
    for k in range(m):
        bit = (rows[k] >> latents) & 1  # (n, C)
        # U - Pa_k is Pa_k ^ U, since Pa_k lies inside U
        atoms &= ~(rows[k] ^ universal * bit)
        cols |= bit << k
    closure_ok = (atoms == np.int32(1) << latents).all(axis=0)

    agreement_ok = np.ones(len(enc), dtype=bool)
    for s in range(1, n):
        differ = np.bitwise_or.reduce(rows ^ (rows >> s), axis=0)
        low = np.int32((1 << (n - s)) - 1)
        agreement_ok &= (differ & low) == low

    for p in range(n):
        lo, hi = cols[p % 2 : n - 1 : 2], cols[p % 2 + 1 : n : 2]
        smaller = np.minimum(lo, hi)
        np.maximum(lo, hi, out=hi)
        lo[...] = smaller
    distinct_ok = (cols[1:] != cols[:-1]).all(axis=0)
    return closure_ok, agreement_ok, distinct_ok
