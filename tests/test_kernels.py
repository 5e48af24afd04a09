"""The vectorised audit kernel against exact counts and the traced closure."""

import math

import numpy as np
import pytest

from scm_ident import closure_identifiable, uic_check
from scm_ident._kernels import BACKEND, audit_shape, backends, pure
from scm_ident.ident import decode_matrix


AUDITED_SHAPES = [(m, n) for m in range(1, 17) for n in range(1, 17) if m * n <= 16]
SMALL_SHAPES = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]


def test_a_backend_is_selected():
    assert BACKEND == "pure"


def test_pure_backend_always_available():
    assert backends() == {"pure": pure}


@pytest.mark.parametrize("m,n", AUDITED_SHAPES + [(4, 5)])
def test_identifiable_count_is_falling_factorial(m, n):
    """n pairwise-distinct columns in {0,1}**m: 2^m (2^m - 1) ... (2^m - n + 1)."""
    assert audit_shape(m, n) == (1 << (m * n), math.perm(1 << m, n), [], [])


def test_kernel_closure_matches_traced_closure():
    """The vectorised closure verdict equals the fixpoint decider, matrix by matrix."""
    for m in range(1, 4):
        for n in range(1, 4):
            enc = np.arange(1 << (m * n), dtype=np.int32)
            closure_ok, _, _ = pure.decide(enc, m, n)
            expected = [
                closure_identifiable(decode_matrix(int(e), m, n)).identifiable for e in enc
            ]
            assert closure_ok.tolist() == expected, f"{m}x{n}"


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_kernel_agreement_and_distinctness_per_matrix(m, n):
    """Agreement equals the pairwise decider, distinctness plain column tuples."""
    enc = np.arange(1 << (m * n), dtype=np.int32)
    _, agreement_ok, distinct_ok = pure.decide(enc, m, n)
    agreement = [uic_check(decode_matrix(e, m, n)) for e in range(len(enc))]
    distinct = [
        len({tuple((e >> (k * n + j)) & 1 for k in range(m)) for j in range(n)}) == n
        for e in range(len(enc))
    ]
    assert agreement_ok.tolist() == agreement
    assert distinct_ok.tolist() == distinct


@pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (-1, 2), (2, -5)])
def test_non_positive_dimensions_rejected(m, n):
    with pytest.raises(ValueError):
        audit_shape(m, n)


def test_shape_beyond_enumerable_range_rejected():
    with pytest.raises(ValueError):
        audit_shape(1, pure.MAX_CELLS + 1)
