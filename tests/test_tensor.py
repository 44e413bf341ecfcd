import math
import os
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf as scipy_erf

from sparselm.errors import ContractError
from sparselm import tensor as T


def t64(a, grad=True):
    return T.Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad, dtype="float64")


def tsum(x):
    """Full reduction to a scalar: the finite-difference checks' loss."""
    out = T.Tensor(x.data.sum())

    def bwd(g):
        T._accum(x, np.broadcast_to(g, x.data.shape).astype(x.data.dtype))

    return T._finish(out, (x,), bwd)


def _reduce_to(g, shape):
    """Sum gradient `g` back down to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def mul(a, b):
    """Broadcasting elementwise product: the finite-difference checks'
    weighting of an op's output. A raw `b` is a constant of a's dtype."""
    if not isinstance(b, T.Tensor):
        b = T.Tensor(b, dtype=a.dtype)
    out = T.Tensor(a.data * b.data)

    def bwd(g):
        T._accum(a, _reduce_to(g * b.data, a.data.shape))
        T._accum(b, _reduce_to(g * a.data, b.data.shape))

    return T._finish(out, (a, b), bwd)


# ---------------------------------------------------------------- op values


def attention_weights(logits, dtype="float64"):
    """The softmax weights `attention`'s core gives a query over keys scored
    `logits`: one head, no mask, every query e_0, the keys' first entries
    the logits and V the identity, so each output row is the weight vector."""
    n = len(logits)
    q, k = np.zeros((n, n)), np.zeros((n, n))
    q[:, 0] = 1.0
    k[:, 0] = np.asarray(logits) * math.sqrt(n)  # undoes the 1/sqrt(d_head) scale
    qkv = np.stack([q, k, np.eye(n)]).astype(dtype)
    _, out = T._softmax_attention(qkv, 1, n, 1, np.zeros((n, n), dtype=dtype))
    return out[0, 0]


def test_softmax_symmetry():
    assert np.allclose(attention_weights([0.0, 0.0]), [0.5, 0.5])


def test_softmax_hand_values():
    out = attention_weights([math.log(2.0), 0.0])
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_no_overflow():
    out = attention_weights([1000.0, 0.0], dtype="float32")
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.0, abs=1e-30)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-15, max_value=15), min_size=2, max_size=8),
)
def test_softmax_rows_sum_to_one(row):
    out = attention_weights(row)
    assert abs(out.sum() - 1.0) < 1e-6
    assert np.all(out > 0.0) and np.all(out < 1.0)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_softmax_rows_keeps_the_bits_of_the_max_form(dtype):
    # the row maximum read at its argmax against `p - p.max(...)`: ties,
    # maxima of +0.0 and -0.0 in either order, masked -1e9 entries, a
    # constant row, and rows of the attention shapes the benchmark runs
    rows = [[1.5, -2.0, 1.5, 0.25], [-0.0, 0.0, -3.0, -0.0], [0.0, -0.0, -1.0, -7.5],
            [-0.0, -1e9, -1e9, -1e9], [2.0, -1e9, 2.0, -1e9], [0.3, 0.3, 0.3, 0.3]]
    rng = np.random.default_rng(0)
    causal = np.triu(np.full((64, 64), -1e9), 1)
    for p in [np.array(rows), rng.standard_normal((2, 4, 64, 64)) * 4 + causal,
              rng.integers(-3, 4, (3, 128)).astype(float)]:
        p = p.astype(dtype)
        want = p - p.max(axis=-1, keepdims=True)
        np.exp(want, out=want)
        want /= want.sum(axis=-1, keepdims=True)
        T._softmax_rows(p)
        assert p.tobytes() == want.tobytes()


def test_layer_norm_constant_row_is_zero():
    x = T.Tensor(np.full((2, 4), 7.0))
    out = T.layer_norm(x, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_hand_values():
    out = T.layer_norm(t64([[1.0, 3.0]]), t64([1.0, 1.0]), t64([0.0, 0.0]), eps=1e-12)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_zero_gain_gives_bias():
    x = T.Tensor(np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32))
    bias = T.Tensor(np.full(5, 2.5), dtype="float32")
    out = T.layer_norm(x, T.Tensor(np.zeros(5), dtype="float32"), bias)
    assert np.allclose(out.data, 2.5)


def test_layer_norm_float32_rows_far_from_zero():
    # rows of 1e3 + N(0, 1e-2): a one-pass variance E[x^2] - E[x]^2 loses
    # every digit here (float32's ulp at 1e6 is 0.06) and is off by O(1);
    # the two-pass form is off only by float32's mean, within a few ulp of
    # 1e3 (6e-5 each) against a spread of 1e-2
    rng = np.random.default_rng(0)
    for d in (64, 256):
        x = (1e3 + 1e-2 * rng.standard_normal((32, d))).astype(np.float32)
        ref = x.astype(np.float64)
        centered = ref - ref.mean(axis=-1, keepdims=True)
        want = centered / np.sqrt((centered ** 2).mean(axis=-1, keepdims=True) + 1e-5)
        got = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(d), dtype="float32"),
                           T.Tensor(np.zeros(d), dtype="float32"), eps=1e-5).data
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_backward_rebuilds_the_forwards_xhat_bit_for_bit(dtype):
    # a backward keeps LayerNorm's row mean and inv, not xhat, and rebuilds
    # xhat from x: the bytes of the two-pass forward, also for rows far from
    # zero and for a constant row (xhat 0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 5, 64)).astype(dtype)
    x[0] = 1e3 + 1e-2 * x[0]
    x[1, 2] = 7.0
    centered = x - x.mean(axis=-1, keepdims=True)
    want = centered * (1.0 / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) / 64 + 1e-5))
    xhat, mean, inv = T._normalize(x, 1e-5)
    rebuilt = T._xhat(x, mean, inv)
    assert xhat.dtype == rebuilt.dtype == dtype
    assert rebuilt.tobytes() == xhat.tobytes()
    np.testing.assert_allclose(rebuilt, want, rtol=0, atol=1e-4 if dtype == np.float32 else 1e-12)
    assert not rebuilt[1, 2].any()


def test_gelu_values():
    # the GELU of `feed_forward`: x * Phi(x)
    x = np.array([0.0, 1.0, 10.0])
    out = x * T._gelu_cdf(x)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(0.8413447460685429, abs=1e-12)
    assert out[2] == pytest.approx(10.0, abs=1e-6)


# the float32 erf's stated maximum absolute error (README, `tensor._erf`)
ERF32_MAX_ABS_ERROR = 4.5e-7


def erf32(z):
    return T._erf(np.array(z, dtype=np.float32))


def bits(a):
    return np.asarray(a, dtype=np.float32).view(np.uint32)


def test_erf32_error_bound_on_dense_grid():
    z = np.linspace(-6.0, 6.0, 1_200_001, dtype=np.float32)
    got = erf32(z)
    assert got.dtype == np.float32
    err = np.abs(got.astype(np.float64) - scipy_erf(z.astype(np.float64)))
    assert err.max() < ERF32_MAX_ABS_ERROR


def test_erf32_is_odd_to_the_bit_and_zero_at_zero():
    z = np.linspace(0.0, 6.0, 600_001, dtype=np.float32)
    assert np.array_equal(bits(erf32(-z)), bits(-erf32(z)))
    assert bits(erf32([0.0]))[0] == bits(0.0)
    assert bits(erf32([-0.0]))[0] == bits(-0.0)


def test_erf32_range_and_special_values():
    z = np.linspace(-6.0, 6.0, 1_200_001, dtype=np.float32)
    assert np.abs(erf32(z)).max() <= 1.0
    assert erf32([np.inf, -np.inf]).tolist() == [1.0, -1.0]
    assert np.isnan(erf32([np.nan, -np.nan])).all()


def test_erf32_subnormal_and_huge_inputs():
    info = np.finfo(np.float32)
    tiny = np.array([info.smallest_subnormal, 3e-45, 1e-40, info.tiny, 1e-30], dtype=np.float32)
    for z in (tiny, -tiny):
        got = erf32(z)
        true = scipy_erf(z.astype(np.float64))
        assert np.isfinite(got).all()
        assert np.array_equal(np.signbit(got), np.signbit(z))
        # z * alpha_1 falls into the subnormal range, so a few subnormal steps are lost
        assert np.all(np.abs(got - true) <= 1e-3 * np.abs(true) + 4 * info.smallest_subnormal)
    huge = np.array([5.0, 100.0, 1e30, info.max], dtype=np.float32)
    assert erf32(huge).tolist() == [1.0] * 4
    assert erf32(-huge).tolist() == [-1.0] * 4


def test_erf64_matches_scipy():
    z = np.linspace(-6.0, 6.0, 120_001)
    got = T._erf(z)
    assert got.dtype == np.float64
    assert np.abs(got - scipy_erf(z)).max() <= 1e-15
    assert T._erf(np.array(0.5)) == scipy_erf(0.5)


def test_gelu_float32_tracks_float64():
    x = np.linspace(-8.0, 8.0, 160_001)
    g = np.random.default_rng(0).standard_normal(x.shape)
    out = {}
    for dtype in (np.float32, np.float64):
        z = x.astype(dtype)
        cdf = T._gelu_cdf(z)
        out[dtype] = z * cdf, T._gelu_grad(z, cdf, g.astype(dtype))
    (y32, g32), (y64, g64) = out[np.float32], out[np.float64]
    assert y32.dtype == g32.dtype == np.float32
    # Phi carries half the erf error; float32 rounding adds a few ulps
    assert np.all(np.abs(y32 - y64) <= 0.5 * ERF32_MAX_ABS_ERROR * np.abs(x) + 4e-7 * np.abs(y64)
                  + 1e-7)
    assert np.allclose(g32, g64, rtol=1e-5, atol=1e-6)


def test_cross_entropy_uniform_logits():
    logits = t64(np.zeros((3, 4)))
    loss = T.cross_entropy(logits, t64(np.eye(4), grad=False), [0, 1, 3])
    assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_cross_entropy_confident_correct_class():
    logits = np.zeros((1, 4))
    logits[0, 2] = 1000.0
    loss = T.cross_entropy(t64(logits), t64(np.eye(4), grad=False), [2])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_target_nll_keeps_the_digits_of_a_confident_target():
    rng = np.random.default_rng(0)
    n, v = 2000, 64
    logits = (2.0 * rng.standard_normal((n, v))).astype(np.float32)
    targets = rng.integers(0, v, size=n)
    # a larger lead would leave the float64 reference itself short of digits
    logits[np.arange(n), targets] += rng.uniform(8.0, 16.0, size=n).astype(np.float32)
    z = logits.astype(np.float64)
    m = z.max(axis=1, keepdims=True)
    reference = np.log(np.exp(z - m).sum(axis=1)) + m[:, 0] - z[np.arange(n), targets]
    buffer = logits.copy()
    np.testing.assert_allclose(T.target_nll(buffer, targets), reference, rtol=1e-5, atol=0)
    # the buffer is left holding exp(logits - row max) for the backward
    assert buffer.tobytes() == np.exp(logits - logits.max(axis=1, keepdims=True)).tobytes()


def test_cross_entropy_mask_selects_single_position():
    logits = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
    targets = [1, 0]
    loss = T.cross_entropy(t64(logits), t64(np.eye(3), grad=False), targets, ignore_mask=[1, 0])
    row = logits[0]
    expected = math.log(np.exp(row).sum()) - row[1]
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ContractError, match=r"target id outside \[0, 4\)"):
        T.cross_entropy(T.Tensor(np.zeros((2, 4))), T.Tensor(np.eye(4)), [0, 4])
    with pytest.raises(ContractError):
        T.cross_entropy(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 3))), [-1, 0],
                        transpose_w=True)


# token ids are checked by `model.forward_logits` (tests/test_model.py), a
# prompt's ids where it is made (tests/test_finetune.py, tests/test_inputs.py)


def test_embedding_prompt_is_a_lookup_by_id():
    # a prompt id repeated in a row, missing from a row, or at different
    # columns in different rows reads its prompt row every time
    rng = np.random.default_rng(5)
    table, pos, prompt = f32(rng, 8, 4), f32(rng, 6, 4), f32(rng, 2, 4)
    ids = np.array([[6, 1, 6, 7, 2, 6],
                    [0, 7, 1, 2, 3, 4],
                    [1, 2, 3, 4, 5, 0],
                    [7, 3, 0, 0, 2, 6]])
    out = T.embedding(T.Tensor(table), T.Tensor(pos), ids, T.Tensor(prompt), (6, 7))
    for b, row in enumerate(ids):
        for i, token in enumerate(row):
            want = prompt[token - 6] if token >= 6 else table[token]
            assert out.data[b, i].tobytes() == (want + pos[i]).tobytes()


def sublayer_arrays(rng, d=8, width=12, d_ff=16, seq=5):
    """float64 x (2, seq, d), the operands of `attention` on it (heads of
    total width `width`) and those of `feed_forward` (hidden width d_ff),
    LayerNorm gains near 1."""
    x = rng.normal(size=(2, seq, d))
    att = [1.0 + 0.1 * rng.normal(size=d), rng.normal(size=d)]
    att += [rng.normal(size=s) for s in ((d, width), (width,)) * 3 + ((width, d), (d,))]
    ff = [1.0 + 0.1 * rng.normal(size=d), rng.normal(size=d)]
    ff += [rng.normal(size=s) for s in ((d, d_ff), (d_ff,), (d_ff, d), (d,))]
    return x, att, ff


def test_attention_contracts():
    # parameter shapes and dtypes are checked where a store enters (tests/test_inputs.py)
    rng = np.random.default_rng(0)
    w, b = T.Tensor(f32(rng, 4, 6)), T.Tensor(np.zeros(6, dtype=np.float32))
    ones, zeros = T.Tensor(np.ones(4, dtype=np.float32)), T.Tensor(np.zeros(4, dtype=np.float32))
    out = T.attention(T.Tensor(f32(rng, 2, 3, 4)), ones, zeros, w, b, w, b, w, b,
                      T.Tensor(f32(rng, 6, 4)), zeros, 2, np.zeros((3, 3)))
    assert out.shape == (2, 3, 4)


def test_feed_forward_contracts():
    rng = np.random.default_rng(0)
    ones, zeros = T.Tensor(np.ones(4, dtype=np.float32)), T.Tensor(np.zeros(4, dtype=np.float32))

    def call(x=T.Tensor(f32(rng, 2, 3, 4))):
        return T.feed_forward(x, ones, zeros, T.Tensor(f32(rng, 4, 8)),
                              T.Tensor(np.zeros(8, dtype=np.float32)), T.Tensor(f32(rng, 8, 4)),
                              zeros)

    assert call().shape == (2, 3, 4)
    assert call(x=T.Tensor(f32(rng, 6, 4))).shape == (6, 4)  # any leading shape


def test_attention_is_three_linears_and_reference_attention():
    """float64: the sublayer op equals x plus `linear`'s output projection
    of a per-head numpy softmax attention over q, k and v from three
    `linear`s of `layer_norm(x)`."""
    rng = np.random.default_rng(3)
    bsz, seq, d_in, d, h = 2, 5, 6, 8, 2
    dh = d // h
    x, att, _ = sublayer_arrays(rng, d=d_in, width=d, seq=seq)
    x, (gain, bias, *wb, wo, bo) = t64(x, grad=False), [t64(a, grad=False) for a in att]
    causal = np.triu(np.full((seq, seq), -1e9), k=1)
    a = T.layer_norm(x, gain, bias)
    q, k, v = (linear(a, wb[i], wb[i + 1]).data for i in (0, 2, 4))
    heads = np.zeros((bsz, seq, d))
    for b in range(bsz):
        for head in range(h):
            sl = slice(head * dh, (head + 1) * dh)
            s = q[b, :, sl] @ k[b, :, sl].T / math.sqrt(dh) + causal
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            heads[b, :, sl] = e / e.sum(axis=-1, keepdims=True) @ v[b, :, sl]
    want = x.data + linear(t64(heads, grad=False), wo, bo).data
    got = T.attention(x, gain, bias, *wb, wo, bo, h, causal).data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# fused ops keep the bits of the unfused float32 arithmetic, values and gradients

def f32(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


def fused_grads(out, upstream, leaves):
    """Gradients of sum(out * upstream): `out` receives `upstream` exactly."""
    T.backward(tsum(mul(out, upstream)))
    return [leaf.grad for leaf in leaves]


# A pre-norm block as separate tape ops: `layer_norm`, and these four for
# the matrix products, the residual add, GELU and the softmax attention core.

def linear(x, w, b):
    """x @ w + b over the last axis of x as a tape op: the GEMM on x's rows
    that the sublayer ops run on theirs, and their weight gradients."""
    rows = x.data.reshape(-1, w.data.shape[0])
    y = rows @ w.data
    y += b.data

    def bwd(g):
        gy = g.reshape(-1, w.data.shape[1])
        T._accum(x, (gy @ w.data.T).reshape(x.data.shape))
        T._weight_grads(rows, w, b, gy)

    return T._finish(T.Tensor(y.reshape(x.data.shape[:-1] + y.shape[-1:])), (x, w, b), bwd)


def residual_add(x, y):
    def bwd(g):
        T._accum(x, g.copy())
        T._accum(y, g)

    return T._finish(T.Tensor(x.data + y.data), (x, y), bwd)


def gelu(x):
    cdf = T._gelu_cdf(x.data)

    def bwd(g):
        T._accum(x, T._gelu_grad(x.data, cdf, g))

    return T._finish(T.Tensor(x.data * cdf), (x,), bwd)


def softmax_attention(q, k, v, n_heads, logit_bias):
    bsz, seq, d = q.shape
    qkv = np.stack([t.data.reshape(-1, d) for t in (q, k, v)])
    p, out = T._softmax_attention(qkv, bsz, seq, n_heads, logit_bias)

    def bwd(g):
        grads = T._softmax_attention_grads(qkv, p, g, n_heads)
        for t, gt in zip((q, k, v), grads):
            T._accum(t, gt.reshape(t.data.shape))

    return T._finish(T.Tensor(out), (q, k, v), bwd)


def unfused_attention(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, n_heads, logit_bias):
    a = T.layer_norm(x, gain, bias)
    q, k, v = (linear(a, w, b) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    return residual_add(x, linear(softmax_attention(q, k, v, n_heads, logit_bias), wo, bo))


def unfused_feed_forward(x, gain, bias, w_in, b_in, w_out, b_out):
    a = T.layer_norm(x, gain, bias)
    return residual_add(x, linear(gelu(linear(a, w_in, b_in)), w_out, b_out))


def assert_same_bits(fused_op, unfused_op, arrays, upstream):
    """fused_op(*leaves) and unfused_op(*leaves) give the same output bytes
    and the same gradient bytes at every leaf, with x a leaf or a constant."""
    for x_grad in (True, False):
        results = []
        for op in (fused_op, unfused_op):
            leaves = [T.Tensor(a, requires_grad=x_grad or i > 0) for i, a in enumerate(arrays)]
            out = op(*leaves)
            grads = fused_grads(out, upstream, leaves)
            assert (grads[0] is None) != x_grad
            results.append([out.data] + grads)
        for i, (a, b) in enumerate(zip(*results)):
            assert a is b is None or a.tobytes() == b.tobytes(), (x_grad, i)


def test_attention_keeps_unfused_bits():
    rng = np.random.default_rng(0)
    x, att, _ = sublayer_arrays(rng)
    arrays = [a.astype(np.float32) for a in [x] + att]
    causal = np.triu(np.full((5, 5), -1e9, dtype=np.float32), k=1)
    assert_same_bits(lambda *t: T.attention(*t, 3, causal),
                     lambda *t: unfused_attention(*t, 3, causal), arrays, f32(rng, *x.shape))


def test_feed_forward_keeps_unfused_bits():
    rng = np.random.default_rng(1)
    x, _, ff = sublayer_arrays(rng)
    arrays = [a.astype(np.float32) for a in [x] + ff]
    assert_same_bits(T.feed_forward, unfused_feed_forward, arrays, f32(rng, *x.shape))


def test_embedding_with_prompt_keeps_unfused_bits():
    # ids 0-6 are tokens, 7-9 the prompt's, placed at `positions`
    rng = np.random.default_rng(2)
    table, pos, prompt = f32(rng, 10, 4), f32(rng, 9, 4), f32(rng, 3, 4)
    ids = rng.integers(0, 7, size=(2, 6))
    positions = np.array([[0, 2, 5], [4, 1, 3]])
    bidx = np.arange(2)[:, None]
    ids[bidx, positions] = (7, 8, 9)
    up = f32(rng, 2, 6, 4)
    leaves = [T.Tensor(a, requires_grad=True) for a in (table, pos, prompt)]
    out = T.embedding(leaves[0], leaves[1], ids, leaves[2], (7, 8, 9))
    gathered = table[ids]
    gathered[bidx, positions] = prompt
    assert out.data.tobytes() == (gathered + pos[:6]).tobytes()
    gtable, gpos, gprompt = fused_grads(out, up, leaves)
    want_pos = np.zeros_like(pos)
    want_pos[:6] = up.sum(axis=0)
    assert gpos.tobytes() == want_pos.tobytes()
    assert gprompt.tobytes() == up[bidx, positions].sum(axis=0).tobytes()
    token_up = up.copy()
    token_up[bidx, positions] = 0.0
    want_table = np.zeros_like(table)
    np.add.at(want_table, ids.reshape(-1), token_up.reshape(-1, 4))
    assert gtable.tobytes() == want_table.tobytes()


def test_embedding_scatter_matches_row_add_at():
    # the backward scatters on flat element indices; it must give the bits of
    # np.add.at over rows, with repeated ids and with a tied head's gradient
    # already in table.grad
    rng = np.random.default_rng(4)
    table, pos = f32(rng, 6, 8), f32(rng, 16, 8)
    ids = rng.integers(0, 6, size=(3, 16))
    up, head_grad = f32(rng, 3, 16, 8), f32(rng, 6, 8)
    leaf = T.Tensor(table, requires_grad=True)
    leaf.grad = head_grad.copy()
    (gtable,) = fused_grads(T.embedding(leaf, T.Tensor(pos), ids), up, [leaf])
    want = head_grad.copy()
    np.add.at(want, ids.reshape(-1), up.reshape(-1, 8))
    assert gtable.tobytes() == want.tobytes()


# ---------------------------------------------------------------- backward


def test_backward_bilinear_form():
    rng = np.random.default_rng(0)
    x = t64(rng.normal(size=(3, 4)))
    y = rng.normal(size=(3, 4))
    loss = tsum(mul(x, y))
    T.backward(loss)
    assert np.allclose(x.grad, y, atol=1e-12)


def test_backward_requires_scalar():
    x = t64(np.ones((2, 2)))
    out = mul(x, 2.0)
    with pytest.raises(ContractError):
        T.backward(out)
    T.reset_tape()


def test_backward_twice_is_contract_error():
    x = t64(np.ones(3))
    loss = tsum(x)
    T.backward(loss)
    with pytest.raises(ContractError):
        T.backward(loss)


def chain_grads(raising):
    """x.grad after backward through mul, mul, linear, (identity), sum: five
    nodes, the fourth's adjoint raising when asked to."""
    x = t64(np.arange(1.0, 5.0))
    h = linear(mul(mul(x, 2.0), 3.0), t64(np.eye(4), grad=False), t64(np.ones(4), grad=False))

    def bwd(g):
        if raising:
            raise RuntimeError("adjoint failed")
        T._accum(h, g)

    T.backward(tsum(T._finish(T.Tensor(h.data.copy()), (h,), bwd)))
    return x.grad


def test_backward_clears_the_tape_when_an_adjoint_raises():
    clean = chain_grads(raising=False)
    with pytest.raises(RuntimeError, match="adjoint failed"):
        chain_grads(raising=True)
    assert T.tape_size() == 0
    assert np.array_equal(chain_grads(raising=False), clean)


def test_backward_frees_a_consumed_nodes_saved_arrays():
    """An array only a later node's adjoint holds is gone before an
    earlier node's adjoint runs."""
    x = t64(np.ones(3))
    alive = []

    def probe_bwd(g):
        alive.append(saved_ref() is not None)
        T._accum(x, g)

    def dot(h, w):  # the later op: its adjoint alone keeps `w`
        return T._finish(T.Tensor(h.data @ w), (h,), lambda g: T._accum(h, g * w))

    h = T._finish(T.Tensor(x.data.copy()), (x,), probe_bwd)
    saved = np.full(3, 2.0)
    saved_ref = weakref.ref(saved)
    loss = dot(h, saved)
    del saved
    T.backward(loss)
    assert alive == [False]
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_backward_on_leaf_is_contract_error():
    x = t64(1.0)
    with pytest.raises(ContractError):
        T.backward(x)


def test_grads_accumulate_across_separate_forwards():
    x = t64(np.ones(4))
    T.backward(tsum(x))
    T.backward(tsum(mul(x, 2.0)))
    assert np.allclose(x.grad, 3.0)


def test_an_indexed_leaf_keeps_its_gradient_at_the_index_only():
    # the first gather becomes .grad and a later one is added into it, in the
    # index's order; an entry off the index, NaN or inf here, never enters
    x = t64(np.ones((2, 3)))
    x.grad_index = np.array([1, 4, 5], dtype=np.int32)
    w = np.array([[np.nan, 2.0, np.inf], [-np.inf, 3.0, 5.0]])
    T.backward(tsum(mul(x, w)))
    assert x.grad.tolist() == [2.0, 3.0, 5.0]
    T.backward(tsum(mul(x, w)))
    assert x.grad.tolist() == [4.0, 6.0, 10.0]


BLOCK_PROBE = textwrap.dedent("""
    import numpy as np
    from sparselm import tensor as T

    rng = np.random.default_rng(0)
    same = []
    # (dtype, rows and width of the weight gradient, tied head): float32
    # outputs above GRAD_BLOCK in 2 to 8 blocks, the last one wider when
    # the row count is not a multiple of the block's; float64 forms the
    # whole product
    for dtype, m, n, tied in [(np.float32, 1024, 256, False), (np.float32, 256, 1024, False),
                              (np.float32, 600, 300, False), (np.float32, 2048, 256, True),
                              (np.float32, 3000, 100, True), (np.float64, 600, 300, False),
                              (np.float64, 2048, 256, True)]:
        for k in (7, 127, 504, 512):
            rows = rng.standard_normal((k, n if tied else m), dtype=dtype)
            gy = rng.standard_normal((k, m if tied else n), dtype=dtype)
            first = rng.standard_normal((m, n), dtype=dtype)
            assert first.nbytes > T.GRAD_BLOCK
            want = first.copy()
            want += gy.T @ rows if tied else rows.T @ gy
            w = T.Tensor(np.zeros((n, m) if tied else (m, n), dtype=dtype), requires_grad=True)
            w.grad = first.copy()
            T._weight_grads(rows, w, None, gy, transpose_w=tied)
            same.append(w.grad.tobytes() == want.tobytes())
    print(len(same), sum(same))
""")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_blocked_weight_gradient_keeps_the_bits_of_the_whole_product(threads):
    # `grad += rows.T @ gy`, and `grad += gy.T @ rows` for a tied head, added
    # a block of rows at a time into a gradient above GRAD_BLOCK, at 7 to 512
    # rows of contraction, and at one and two BLAS threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(T.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", BLOCK_PROBE], capture_output=True, text=True,
                         timeout=120, check=True,
                         env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads))
    assert out.stdout.split() == ["28", "28"]


def test_no_grad_suppresses_recording():
    x = t64(np.ones(4))
    with T.no_grad():
        out = tsum(x)
    assert not out.requires_grad
    assert T.tape_size() == 0


def test_first_gradients_have_one_owner():
    # each leaf owns its adopted first gradient; a second backward pass
    # accumulates into it without reaching any other leaf, also where a
    # sublayer op hands its output gradient on to its input as is, and
    # where attention's q, k and v gradients share one buffer inside the op
    rng = np.random.default_rng(0)
    x, att, ff = sublayer_arrays(rng, d=4, width=4, d_ff=8, seq=3)
    x, att, ff = t64(x), [t64(a) for a in att], [t64(a) for a in ff]
    causal = np.triu(np.full((3, 3), -1e9), k=1)
    w = rng.normal(size=x.shape)
    leaves = [x] + att + ff
    T.backward(weighted(T.feed_forward(T.attention(x, *att, 2, causal), *ff), w))
    once = [leaf.grad.copy() for leaf in leaves]
    T.backward(weighted(T.feed_forward(T.attention(x, *att, 2, causal), *ff), w))
    for leaf, first_pass in zip(leaves, once):
        assert np.allclose(leaf.grad, 2.0 * first_pass, rtol=0.0, atol=1e-12)
    for i, first in enumerate(leaves):
        for second in leaves[i + 1:]:
            assert not np.shares_memory(first.grad, second.grad)


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(7)
        x, att, ff = sublayer_arrays(rng, seq=4)
        x, att, ff = [[T.Tensor(a.astype(np.float32), requires_grad=True) for a in arrays]
                      for arrays in ([x], att, ff)]
        causal = np.triu(np.full((4, 4), -1e9, dtype=np.float32), k=1)
        out = T.feed_forward(T.attention(x[0], *att, 2, causal), *ff)
        T.backward(tsum(mul(out, f32(rng, 2, 4, 8))))
        return [out.data] + [t.grad for t in x + att + ff]

    assert all(a.tobytes() == b.tobytes() for a, b in zip(run(), run()))


# ------------------------------------------------- finite-difference oracle

FD_STEP = 1e-5
FD_TOL = 1e-5


def numeric_grad(f, x):
    """Central differences, independent of the tape."""
    g = np.zeros_like(x)
    flat_x, flat_g = x.ravel(), g.ravel()
    for i in range(x.size):
        orig = flat_x[i]
        flat_x[i] = orig + FD_STEP
        fp = f()
        flat_x[i] = orig - FD_STEP
        fm = f()
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * FD_STEP)
    return g


def fd_check(make_loss, arrays, wrt):
    """Compare tape gradients of arrays[wrt] against central differences."""
    tensors = [t64(a) for a in arrays]
    loss = make_loss(tensors)
    T.backward(loss)
    analytic = tensors[wrt].grad

    def f():
        with T.no_grad():
            fresh = [T.Tensor(a, dtype="float64") for a in arrays]
            return make_loss(fresh).item()

    numeric = numeric_grad(f, arrays[wrt])
    denom = np.abs(numeric).max() + 1e-12
    rel = np.abs(analytic - numeric).max() / denom
    assert rel <= FD_TOL, f"rel err {rel:.3g}"


def weighted(out, w):
    return tsum(mul(out, w))


def op_cases(rng):
    a34 = rng.normal(size=(3, 4))
    bias = rng.normal(size=4)
    w_ln = rng.normal(size=(3, 4))
    # ids 0-3 are tokens and 4, 5 the prompt's: once per row, and then
    # repeated in row 0 and missing from row 1
    ids = rng.integers(0, 4, size=(2, 5))
    ids[[0, 0, 1, 1], [1, 3, 0, 4]] = (4, 5, 4, 5)
    repeated = ids.copy()
    repeated[0, 2], repeated[1] = 4, ids[1] % 4
    table = rng.normal(size=(6, 3))
    pos_table = rng.normal(size=(6, 3))  # one row longer than the sequence
    prompt = rng.normal(size=(2, 3))
    w_emb = rng.normal(size=(2, 5, 3))
    targets = rng.integers(0, 4, size=3)
    mask = np.array([1.0, 0.0, 1.0])
    x234 = rng.normal(size=(2, 3, 4))
    w45 = rng.normal(size=(4, 5))
    rng.normal(size=35)  # the draws of the retired linear rows: later arrays keep theirs
    # x (batch 2, seq 4, width 5) into 2 heads of width 3, and a hidden width of 7
    x, att, ff = sublayer_arrays(rng, d=5, width=6, d_ff=7, seq=4)
    att, ff = [x] + att, [x] + ff
    w_sub = rng.normal(size=(2, 4, 5))
    causal = np.triu(np.full((4, 4), -1e9), k=1)
    w54 = rng.normal(size=(5, 4))  # a tied (vocab, d) table
    head_targets = rng.integers(0, 5, size=(2, 3))
    head_mask = np.array([[1, 0, 1], [1, 1, 0]])
    emb_ids = rng.integers(0, 5, size=(2, 3))

    def embedding(t, ids=ids):
        return weighted(T.embedding(t[0], t[1], ids, t[2], (4, 5)), w_emb)

    def attention(t):
        return weighted(T.attention(*t, 2, causal), w_sub)

    def attention_key_bias(t):
        # a key bias shifts all of a query's logits alike, so softmax ignores
        # it: its true gradient is 0, which a relative check cannot see. The
        # same tensor also serves as the value bias, whose gradient is not 0,
        # so a nonzero key-bias gradient shows against it.
        x, gain, bias, wq, bq, wk, bk, wv, _, wo, bo = t
        return weighted(T.attention(x, gain, bias, wq, bq, wk, bk, wv, bk, wo, bo, 2, causal),
                        w_sub)

    def feed_forward(t):
        return weighted(T.feed_forward(*t), w_sub)

    def head_loss(t):
        return T.cross_entropy(t[0], t[1], head_targets, head_mask)

    def tied_head_loss(t):
        return T.cross_entropy(t[0], t[1], head_targets, head_mask, transpose_w=True)

    def embedding_and_tied_head(t):
        return T.cross_entropy(T.embedding(t[0], t64(np.zeros((3, 4)), grad=False), emb_ids),
                               t[0], head_targets, head_mask, transpose_w=True)

    return [
        ("layer_norm_x", [a34, 1.0 + 0.1 * bias, bias], 0,
         lambda t: weighted(T.layer_norm(t[0], t[1], t[2]), w_ln)),
        ("layer_norm_gain", [a34, 1.0 + 0.1 * bias, bias], 1,
         lambda t: weighted(T.layer_norm(t[0], t[1], t[2]), w_ln)),
        ("layer_norm_bias", [a34, 1.0 + 0.1 * bias, bias], 2,
         lambda t: weighted(T.layer_norm(t[0], t[1], t[2]), w_ln)),
        ("cross_entropy", [a34], 0,
         lambda t: T.cross_entropy(t[0], t64(np.eye(4), grad=False), targets, mask)),
        ("embedding", [table], 0,
         lambda t: weighted(T.embedding(t[0], t64(pos_table, grad=False), ids), w_emb)),
        ("embedding_table", [table, pos_table, prompt], 0, embedding),
        ("embedding_pos", [table, pos_table, prompt], 1, embedding),
        ("embedding_prompt", [table, pos_table, prompt], 2, embedding),
        ("embedding_prompt_repeated_id", [table, pos_table, prompt], 2,
         lambda t: embedding(t, repeated)),
        ("tsum", [a34], 0, lambda t: tsum(mul(t[0], t[0]))),
        *((f"attention_{name}", att, i, attention_key_bias if name == "bk" else attention)
          for i, name in enumerate(("x", "gain", "bias", "wq", "bq", "wk", "bk", "wv", "bv",
                                    "wo", "bo"))),
        *((f"feed_forward_{name}", ff, i, feed_forward)
          for i, name in enumerate(("x", "gain", "bias", "w_in", "b_in", "w_out", "b_out"))),
        ("head_loss_x", [x234, w45], 0, head_loss),
        ("head_loss_w", [x234, w45], 1, head_loss),
        ("tied_head_loss_x", [x234, w54], 0, tied_head_loss),
        ("tied_head_loss_w", [x234, w54], 1, tied_head_loss),
        ("embedding_and_tied_head", [w54], 0, embedding_and_tied_head),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for name, arrays, wrt, make_loss in op_cases(rng):
        try:
            fd_check(make_loss, arrays, wrt)
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from exc
