"""The vectorised audit kernel against exact counts and the traced closure."""

import math

import numpy as np
import pytest

from scm_ident import closure_identifiable, uic_check
from scm_ident import _kernels
from scm_ident._kernels import BACKEND, audit_shape, backends, decode_matrix


AUDITED_SHAPES = [(m, n) for m in range(1, 17) for n in range(1, 17) if m * n <= 16]
SMALL_SHAPES = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]
# 13..20 cells: too many matrices to check each, so a fixed sample per
# shape; n = 1 and n = 2 (13x1, 7x2, ...) leave sorting-network passes empty
SAMPLED_SHAPES = [(m, n) for m in range(1, 21) for n in range(1, 21) if 13 <= m * n <= 20]


def distinct_columns(e: int, m: int, n: int) -> bool:
    """Plain-Python oracle: the n column tuples of encoding ``e`` are pairwise distinct."""
    return len({tuple((e >> (k * n + j)) & 1 for k in range(m)) for j in range(n)}) == n


def test_a_backend_is_selected():
    assert BACKEND == "pure"


def test_pure_backend_always_available():
    assert backends() == {"pure": _kernels}


@pytest.mark.parametrize("m,n", AUDITED_SHAPES + [(4, 5)])
def test_identifiable_count_is_falling_factorial(m, n):
    """n pairwise-distinct columns in {0,1}**m: 2^m (2^m - 1) ... (2^m - n + 1)."""
    assert audit_shape(m, n) == (1 << (m * n), math.perm(1 << m, n), [], [])


def test_kernel_closure_matches_traced_closure():
    """The vectorised closure verdict equals the fixpoint decider, matrix by matrix."""
    for m in range(1, 4):
        for n in range(1, 4):
            enc = np.arange(1 << (m * n), dtype=np.int32)
            closure_ok, _, _ = _kernels.decide(enc, m, n)
            expected = [
                closure_identifiable(decode_matrix(int(e), m, n)).identifiable for e in enc
            ]
            assert closure_ok.tolist() == expected, f"{m}x{n}"


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_kernel_agreement_and_distinctness_per_matrix(m, n):
    """Agreement equals the pairwise decider; distinctness and closure plain column tuples."""
    enc = np.arange(1 << (m * n), dtype=np.int32)
    closure_ok, agreement_ok, distinct_ok = _kernels.decide(enc, m, n)
    agreement = [uic_check(decode_matrix(e, m, n)) for e in range(len(enc))]
    distinct = [distinct_columns(e, m, n) for e in range(len(enc))]
    assert agreement_ok.tolist() == agreement
    assert distinct_ok.tolist() == distinct
    assert closure_ok.tolist() == distinct


@pytest.mark.parametrize("m,n", SAMPLED_SHAPES)
def test_kernel_verdicts_on_sampled_matrices(m, n):
    """All three verdicts equal plain column tuples on a fixed sample of each shape."""
    rng = np.random.default_rng(1000 * m + n)
    enc = rng.integers(0, 1 << (m * n), size=_kernels.CHUNK, dtype=np.int32)
    expected = [distinct_columns(int(e), m, n) for e in enc]
    for verdict in _kernels.decide(enc, m, n):
        assert verdict.tolist() == expected


@pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (-1, 2), (2, -5)])
def test_non_positive_dimensions_rejected(m, n):
    with pytest.raises(ValueError):
        audit_shape(m, n)


def test_shape_beyond_enumerable_range_rejected():
    with pytest.raises(ValueError):
        audit_shape(1, _kernels.MAX_CELLS + 1)
