"""The canonical GEMM's arithmetic, pinned against a scalar definition.

Exact-mode widening and ``ResumablePlan.subset`` rest on one contract
of :func:`repro.slicing.resume._cgemm`: every output element is its K
float32 products summed left to right,

    out[i, j] = fl(...fl(fl(x[i,0]*w[j,0]) + fl(x[i,1]*w[j,1])) + ...),

so an element depends only on its own input row and weight row.  The
other bitwise tests compare two outputs of the same kernel; these
compare the kernel with a scalar loop that states the definition.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slicing import resume
from repro.slicing.resume import _cgemm


def _reference(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Scalar loop: products in the operands' promoted dtype, summed in k order."""
    m, k = x.shape
    out = np.empty((m, w.shape[0]), dtype=np.float32)
    for i in range(m):
        for j in range(w.shape[0]):
            acc = x[i, 0] * w[j, 0]
            for p in range(1, k):
                acc = acc + x[i, p] * w[j, p]
            out[i, j] = acc
    return out


def _bits(a: np.ndarray) -> np.ndarray:
    assert a.dtype == np.float32
    return a.view(np.uint32)


def _operands(seed, m, k, n, log_scale, strided, wide_x):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((m, k)) * 10.0 ** log_scale).astype(np.float32)
    if wide_x:
        x = x.astype(np.float64) * (1.0 + 1e-9)
    if strided:
        # A non-contiguous view: every other row of a wider matrix,
        # offset by some columns (the shape of a sliced weight block).
        full = rng.standard_normal((2 * n + 1, k + 3)).astype(np.float32)
        w = full[1::2, 2:k + 2]
    else:
        w = rng.standard_normal((n, k)).astype(np.float32)
    return x, w


shapes = dict(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(0, 70),
    k=st.integers(1, 70),
    n=st.integers(1, 70),
    log_scale=st.floats(-3.0, 4.0),
    strided=st.booleans(),
)


@settings(max_examples=40)
@given(wide_x=st.booleans(), **shapes)
def test_matches_scalar_reference(seed, m, k, n, log_scale, strided, wide_x):
    x, w = _operands(seed, m, k, n, log_scale, strided, wide_x)
    out = _cgemm(x, w)
    assert out.shape == (m, n)
    np.testing.assert_array_equal(_bits(out), _bits(_reference(x, w)))


@settings(max_examples=25)
@given(**shapes)
def test_leading_axes_flatten_into_rows(seed, m, k, n, log_scale, strided):
    x, w = _operands(seed, 3 * m, k, n, log_scale, strided, False)
    x3 = x.reshape(3, m, k)
    out = _cgemm(x3, w)
    assert out.shape == (3, m, n)
    np.testing.assert_array_equal(
        _bits(out.reshape(3 * m, n)), _bits(_reference(x, w)))


@settings(max_examples=40)
@given(cut=st.integers(1, 70), wide_x=st.booleans(), **shapes)
def test_column_prefix_is_independent_of_n(seed, m, k, n, log_scale,
                                           strided, wide_x, cut):
    x, w = _operands(seed, m, k, n, log_scale, strided, wide_x)
    cut = min(cut, n)
    np.testing.assert_array_equal(_bits(_cgemm(x, w)[..., :cut]),
                                  _bits(_cgemm(x, w[:cut])))


@settings(max_examples=40)
@given(pick=st.lists(st.integers(0, 69), max_size=20), wide_x=st.booleans(),
       **shapes)
def test_row_subset_is_independent_of_m(seed, m, k, n, log_scale, strided,
                                        wide_x, pick):
    x, w = _operands(seed, m, k, n, log_scale, strided, wide_x)
    rows = np.array([r for r in pick if r < m], dtype=np.int64)
    np.testing.assert_array_equal(_bits(_cgemm(x[rows], w)),
                                  _bits(_cgemm(x, w)[rows]))


@settings(max_examples=25)
@given(batch=st.integers(1, 5), transposed=st.booleans(), **shapes)
def test_batched_operands_match_per_sample_calls(seed, m, k, n, log_scale,
                                                 strided, batch, transposed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((batch, m, k)) * 10.0 ** log_scale
         ).astype(np.float32)
    if transposed:
        # Attention's context product reads v^T as a swapped-axes view.
        w = np.swapaxes(rng.standard_normal((batch, k, n)).astype(np.float32),
                        -1, -2)
    else:
        w = rng.standard_normal((batch, n, k)).astype(np.float32)
    if strided:
        x = x[:, ::-1]
    out = _cgemm(x, w)
    assert out.shape == (batch, m, n)
    for b in range(batch):
        np.testing.assert_array_equal(_bits(out[b]),
                                      _bits(_cgemm(x[b], w[b])))


@pytest.mark.parametrize("chunk_bytes", [1, 4096, 1 << 20])
def test_chunk_size_does_not_change_bits(monkeypatch, chunk_bytes):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((9, 70)).astype(np.float32)
    w = rng.standard_normal((11, 70)).astype(np.float32)
    expected = _reference(x, w)
    monkeypatch.setattr(resume, "_CHUNK_BYTES", chunk_bytes)
    np.testing.assert_array_equal(_bits(_cgemm(x, w)), _bits(expected))


def test_first_product_is_not_added_to_zero():
    # (-0.0) + (-0.0) is -0.0, but a sum started from +0.0 ends at +0.0.
    x = np.array([[-1.0, -1.0]], dtype=np.float32)
    w = np.array([[0.0, 0.0]], dtype=np.float32)
    out = _cgemm(x, w)
    assert np.signbit(out[0, 0])
    np.testing.assert_array_equal(_bits(out), _bits(_reference(x, w)))
