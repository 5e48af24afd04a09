"""The exhaustive-audit kernel: one numpy implementation.

Matrix encoding used by :func:`audit_shape`: an m x n binary adjacency is
packed into an integer with bit ``k * n + j`` holding entry ``(k, j)``;
:func:`decode_matrix` is its inverse. Padding an m x n matrix with zero
rows keeps its encoding and every verdict, so :func:`audit_latents` decides
all task counts up to max_m for one latent count n in a single pass over
the max_m x n encodings, and :func:`audit_shape` is that pass's last shape.

:func:`decide` holds its bit planes in the narrowest integer lane with
max(m, n) bits (uint8 up to 8, uint16 up to 16, int32 beyond) and takes
the encodings a chunk at a time. The chunk is sized in bytes: the largest
power of two whose (max(m, n), chunk) planes and int32 encodings stay
under glibc's 128 KiB mmap threshold, but never below :data:`CHUNK`
encodings. That is 16,384 encodings up to 7 bits, 8192 at 8 and
:data:`CHUNK` from 9 on, where the wide planes outgrow the threshold: a
smaller chunk would keep them under it, but measured slower at 1x20 and
20x1. ``BACKEND`` names the kernel so run reports can say which one ran.
"""

import sys

import numpy as np

from .topology import ScmTopology

BACKEND = "pure"

CHUNK = 4096  # the fewest encodings per decide call
# glibc serves a request of 128 KiB or more with freshly mapped pages
MMAP_THRESHOLD = 128 * 1024
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


def audit_latents(max_m: int, n: int):
    """:func:`audit_shape`'s result for every m x n shape, m = 1..max_m, in
    one pass over the max_m x n encodings.

    An m x n encoding is the max_m x n encoding whose rows m and above are
    zero, and a zero row changes no verdict (see :func:`decide`), so each
    m x n shape is read off the pass's first 2^(mn) encodings.
    """
    if max_m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if max_m * n > MAX_CELLS:
        raise ValueError(f"shape {max_m}x{n} exceeds the enumerable range")
    totals = [1 << (m * n) for m in range(1, max_m + 1)]
    identifiable = [0] * max_m
    closure_vs_agreement: list[int] = []
    agreement_vs_distinct: list[int] = []
    chunk = _chunk(max(max_m, n))
    for start in range(0, totals[-1], chunk):
        enc = np.arange(start, min(start + chunk, totals[-1]), dtype=np.int32)
        closure_ok, agreement_ok, distinct_ok = decide(enc, max_m, n)
        for i, total in enumerate(totals):
            if total > start:
                identifiable[i] += int(agreement_ok[: total - start].sum())
        closure_vs_agreement += enc[closure_ok != agreement_ok].tolist()
        agreement_vs_distinct += enc[agreement_ok != distinct_ok].tolist()
    return [
        (
            total,
            count,
            [e for e in closure_vs_agreement if e < total],
            [e for e in agreement_vs_distinct if e < total],
        )
        for total, count in zip(totals, identifiable)
    ]


def audit_shape(m: int, n: int):
    """Decide every binary m x n adjacency three independent ways.

    Returns ``(total, identifiable, closure_vs_agreement,
    agreement_vs_distinct)`` where ``identifiable`` counts the matrices
    the agreement decider accepts and the last two are lists of encodings
    on which :func:`decide` found two verdicts disagreeing (both empty in
    a correct build). It is the last shape of :func:`audit_latents`' pass.
    """
    return audit_latents(m, n)[-1]


def _lane(width: int):
    """Narrowest integer type holding ``width`` bits."""
    return np.uint8 if width <= 8 else np.uint16 if width <= 16 else np.int32


def _chunk(width: int) -> int:
    """Encodings per :func:`decide` call: the largest power of two, at
    least :data:`CHUNK`, whose widest temporary stays under
    :data:`MMAP_THRESHOLD` (a (width, chunk) plane of :func:`_lane`, or the
    int32 encodings)."""
    per_matrix = max(width * np.dtype(_lane(width)).itemsize, 4)
    fit = (MMAP_THRESHOLD - 1) // per_matrix
    return max(CHUNK, 1 << (fit.bit_length() - 1))


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

    An all-zero task row changes none of the three: the closure
    subtracts the empty Pa_k from every atom (ANDs it with ``~0``), and
    the column codes and the agreement words OR in 0. So an m x n
    encoding gets the same verdicts when decided as an (m + 1) x n one,
    which :func:`audit_latents` relies on.

    Rows, atoms, bit planes, column codes and agreement words are held
    in the narrowest integer type with max(m, n) bits (:func:`_lane`):
    uint8 up to 8, uint16 up to 16, int32 beyond. The closure and
    distinctness passes share one (latent, matrix) bit plane per task,
    so no temporary spans tasks, latents and matrices at once. The
    column codes are sorted along the latent axis by an odd-even
    transposition network: n passes of compare-exchange between
    neighbours, each pass a ``np.minimum``/``np.maximum`` over all
    matrices at once.
    """
    lane = _lane(max(m, n))
    universal = lane((1 << n) - 1)
    latents = np.arange(n, dtype=lane)[:, None]
    shifts = np.arange(m, dtype=np.int32)[:, None] * n
    rows = np.empty((m, len(enc)), dtype=lane)
    # the int32 shift is cast into the lane as it is written, so no (m, C)
    # int32 temporary exists; the cast keeps the low bits, where the row is
    np.right_shift(enc, shifts, out=rows, casting="unsafe")
    rows &= universal

    atoms = np.full((n, len(enc)), universal)
    cols = np.zeros((n, len(enc)), dtype=lane)
    for k in range(m):
        bit = (rows[k] >> latents) & 1  # (n, C)
        # U - Pa_k is Pa_k ^ U, since Pa_k lies inside U
        atoms &= ~(rows[k] ^ universal * bit)
        cols |= bit * (1 << k)  # numpy shifts uint8 lanes left without SIMD
    closure_ok = (atoms == lane(1) << latents).all(axis=0)

    agreement_ok = np.ones(len(enc), dtype=bool)
    for s in range(1, n):
        differ = np.bitwise_or.reduce(rows ^ (rows >> s), axis=0)
        low = lane((1 << (n - s)) - 1)
        agreement_ok &= (differ & low) == low

    for p in range(n):
        lo, hi = cols[p % 2 : n - 1 : 2], cols[p % 2 + 1 : n : 2]
        smaller = np.minimum(lo, hi)
        np.maximum(lo, hi, out=hi)
        lo[...] = smaller
    distinct_ok = (cols[1:] != cols[:-1]).all(axis=0)
    return closure_ok, agreement_ok, distinct_ok
