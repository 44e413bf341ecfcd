import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselm.errors import ContractError
from sparselm import tensor as T


def t64(a, grad=True):
    return T.Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad, dtype="float64")


# ---------------------------------------------------------------- op values


# `linear` carries every matrix product and `causal_attention` the softmax


def test_matmul_identity():
    m = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.linear(m, np.eye(2))
    assert np.array_equal(out.data, m.data)


def test_matmul_hand_product():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = T.linear(a, b)
    assert np.array_equal(out.data, np.array([[19.0, 22.0], [43.0, 50.0]], dtype=np.float32))


def test_matmul_shape_mismatch_names_both_shapes():
    a = T.Tensor(np.zeros((2, 3)))
    b = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractError, match=r"\(2, 3\).*\(2, 3\)"):
        T.linear(a, b)


def attention_weights(logits, dtype="float64"):
    """The softmax weights `causal_attention` gives a query over keys scored
    `logits`: one head, no mask, and v the identity, so each output row is
    the weight vector."""
    n = len(logits)
    q, k = np.zeros((1, n, n)), np.zeros((1, n, n))
    q[..., 0] = 1.0
    k[0, :, 0] = np.asarray(logits) * math.sqrt(n)  # undoes the 1/sqrt(d_head) scale
    qkv = [T.Tensor(a, dtype=dtype) for a in (q, k, np.eye(n)[None])]
    return T.causal_attention(*qkv, 1, np.zeros((n, n))).data[0, 0]


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


def test_layer_norm_constant_row_is_zero():
    x = T.Tensor(np.full((2, 4), 7.0))
    out = T.layer_norm(x, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_hand_values():
    out = T.layer_norm(t64([[1.0, 3.0]]), t64([1.0, 1.0]), t64([0.0, 0.0]), eps=1e-12)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_zero_gain_gives_bias():
    x = T.Tensor(np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32))
    bias = T.Tensor(np.full(5, 2.5))
    out = T.layer_norm(x, T.Tensor(np.zeros(5)), bias)
    assert np.allclose(out.data, 2.5)


def test_layer_norm_shape_contract():
    with pytest.raises(ContractError):
        T.layer_norm(T.Tensor(np.zeros((2, 4))), T.Tensor(np.ones(3)), T.Tensor(np.zeros(4)))


def test_gelu_values():
    out = T.gelu(t64([0.0, 1.0, 10.0]))
    assert out.data[0] == 0.0
    assert out.data[1] == pytest.approx(0.8413447460685429, abs=1e-12)
    assert out.data[2] == pytest.approx(10.0, abs=1e-6)


def test_cross_entropy_uniform_logits():
    logits = t64(np.zeros((3, 4)))
    loss = T.cross_entropy(logits, np.eye(4), [0, 1, 3])
    assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_cross_entropy_confident_correct_class():
    logits = np.zeros((1, 4))
    logits[0, 2] = 1000.0
    loss = T.cross_entropy(t64(logits), np.eye(4), [2])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_mask_selects_single_position():
    logits = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
    targets = [1, 0]
    loss = T.cross_entropy(t64(logits), np.eye(3), targets, ignore_mask=[1, 0])
    row = logits[0]
    expected = math.log(np.exp(row).sum()) - row[1]
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ContractError, match=r"target id outside \[0, 4\)"):
        T.cross_entropy(T.Tensor(np.zeros((2, 4))), np.eye(4), [0, 4])
    with pytest.raises(ContractError):
        T.cross_entropy(T.Tensor(np.zeros((2, 3))), np.zeros((4, 3)), [-1, 0], transpose_w=True)


def test_embedding_out_of_range():
    with pytest.raises(ContractError, match=r"id outside \[0, 4\)"):
        T.embedding(T.Tensor(np.zeros((4, 2))), [[0, 5]])
    with pytest.raises(ContractError):
        T.embedding(T.Tensor(np.zeros((4, 2))), [[-1, 0]])


def test_inject_rows_duplicate_position():
    x = T.Tensor(np.zeros((1, 4, 2)))
    rows = T.Tensor(np.ones((2, 2)))
    with pytest.raises(ContractError):
        T.inject_rows(x, rows, [[1, 1]])


# ---------------------------------------------------------------- backward


def test_backward_bilinear_form():
    rng = np.random.default_rng(0)
    x = t64(rng.normal(size=(3, 4)))
    y = rng.normal(size=(3, 4))
    loss = T.tsum(T.mul(x, y))
    T.backward(loss)
    assert np.allclose(x.grad, y, atol=1e-12)


def test_backward_requires_scalar():
    x = t64(np.ones((2, 2)))
    out = T.mul(x, 2.0)
    with pytest.raises(ContractError):
        T.backward(out)
    T.reset_tape()


def test_backward_twice_is_contract_error():
    x = t64(np.ones(3))
    loss = T.tsum(x)
    T.backward(loss)
    with pytest.raises(ContractError):
        T.backward(loss)


def test_backward_on_leaf_is_contract_error():
    x = t64(1.0)
    with pytest.raises(ContractError):
        T.backward(x)


def test_grads_accumulate_across_separate_forwards():
    x = t64(np.ones(4))
    T.backward(T.tsum(x))
    T.backward(T.tsum(T.mul(x, 2.0)))
    assert np.allclose(x.grad, 3.0)


def test_no_grad_suppresses_recording():
    x = t64(np.ones(4))
    with T.no_grad():
        out = T.tsum(x)
    assert not out.requires_grad
    assert T.tape_size() == 0


def test_mixed_dtypes_rejected():
    a = T.Tensor(np.zeros(3), dtype="float32")
    b = T.Tensor(np.zeros(3), dtype="float64")
    with pytest.raises(ContractError):
        T.add(a, b)


def test_first_gradients_have_one_owner():
    # each leaf owns its adopted first gradient; a second backward pass
    # accumulates into it without reaching any other leaf
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 4))
    a, b, x = (t64(rng.normal(size=(3, 4))) for _ in range(3))
    graphs = [
        (lambda: T.add(a, b), [(a, w), (b, w)]),
        (lambda: T.add(x, x), [(x, 2.0 * w)]),
    ]
    for make_out, want in graphs:
        for _ in range(2):
            T.backward(weighted(make_out(), w))
        for leaf, once in want:
            assert np.allclose(leaf.grad, 2.0 * once, rtol=0.0, atol=1e-12)
    leaves = [a, b, x]
    for i, first in enumerate(leaves):
        for second in leaves[i + 1:]:
            assert not np.shares_memory(first.grad, second.grad)


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.normal(size=(2, 4, 8)).astype(np.float32))
        h = T.linear(x, rng.normal(size=(8, 8)).astype(np.float32))
        causal = np.triu(np.full((4, 4), -1e9, dtype=np.float32), k=1)
        return T.causal_attention(h, h, h, 2, causal).data

    assert np.array_equal(run(), run())


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
    return T.tsum(T.mul(out, w))


def op_cases(rng):
    a34 = rng.normal(size=(3, 4))
    b34 = rng.normal(size=(3, 4))
    bias = rng.normal(size=4)
    w34 = rng.normal(size=(3, 4))
    w_ln = rng.normal(size=(3, 4))
    ids = rng.integers(0, 3, size=(2, 3))
    table = rng.normal(size=(3, 4))
    w_emb = rng.normal(size=(2, 3, 4))
    base = rng.normal(size=(2, 5, 3))
    rows = rng.normal(size=(2, 3))
    pos = np.array([[1, 3], [0, 4]])
    w_inj = rng.normal(size=(2, 5, 3))
    targets = rng.integers(0, 4, size=3)
    mask = np.array([1.0, 0.0, 1.0])
    x234 = rng.normal(size=(2, 3, 4))
    w45 = rng.normal(size=(4, 5))
    b5 = rng.normal(size=5)
    w_lin = rng.normal(size=(2, 3, 5))
    qkv = [rng.normal(size=(2, 4, 6)) for _ in range(3)]  # 2 heads of width 3, seq 4
    w_att = rng.normal(size=(2, 4, 6))
    causal = np.triu(np.full((4, 4), -1e9), k=1)
    w54 = rng.normal(size=(5, 4))  # a tied (vocab, d) table
    head_targets = rng.integers(0, 5, size=(2, 3))
    head_mask = np.array([[1, 0, 1], [1, 1, 0]])
    emb_ids = rng.integers(0, 5, size=(2, 3))

    def linear(t):
        return weighted(T.linear(t[0], t[1], t[2]), w_lin)

    def attention(t):
        return weighted(T.causal_attention(t[0], t[1], t[2], 2, causal), w_att)

    def head_loss(t):
        return T.cross_entropy(t[0], t[1], head_targets, head_mask)

    def tied_head_loss(t):
        return T.cross_entropy(t[0], t[1], head_targets, head_mask, transpose_w=True)

    def embedding_and_tied_head(t):
        return T.cross_entropy(T.embedding(t[0], emb_ids), t[0], head_targets, head_mask,
                               transpose_w=True)

    return [
        ("add_a", [a34, b34], 0, lambda t: weighted(T.add(t[0], t[1]), w34)),
        ("add_b", [a34, b34], 1, lambda t: weighted(T.add(t[0], t[1]), w34)),
        ("add_broadcast_bias", [a34, bias], 1, lambda t: weighted(T.add(t[0], t[1]), w34)),
        ("mul_a", [a34, b34], 0, lambda t: weighted(T.mul(t[0], t[1]), w34)),
        ("mul_broadcast", [a34, bias], 1, lambda t: weighted(T.mul(t[0], t[1]), w34)),
        ("layer_norm_x", [a34, 1.0 + 0.1 * bias, bias], 0,
         lambda t: weighted(T.layer_norm(t[0], t[1], t[2]), w_ln)),
        ("layer_norm_gain", [a34, 1.0 + 0.1 * bias, bias], 1,
         lambda t: weighted(T.layer_norm(t[0], t[1], t[2]), w_ln)),
        ("layer_norm_bias", [a34, 1.0 + 0.1 * bias, bias], 2,
         lambda t: weighted(T.layer_norm(t[0], t[1], t[2]), w_ln)),
        ("gelu", [a34], 0, lambda t: weighted(T.gelu(t[0]), w34)),
        ("cross_entropy", [a34], 0, lambda t: T.cross_entropy(t[0], np.eye(4), targets, mask)),
        ("embedding", [table], 0, lambda t: weighted(T.embedding(t[0], ids), w_emb)),
        ("inject_rows_base", [base, rows], 0,
         lambda t: weighted(T.inject_rows(t[0], t[1], pos), w_inj)),
        ("inject_rows_rows", [base, rows], 1,
         lambda t: weighted(T.inject_rows(t[0], t[1], pos), w_inj)),
        ("narrow", [a34], 0, lambda t: weighted(T.narrow(t[0], 1, 1, 2), w34[:, 1:3])),
        ("tsum", [a34], 0, lambda t: T.tsum(T.mul(t[0], t[0]))),
        ("linear_x", [x234, w45, b5], 0, linear),
        ("linear_w", [x234, w45, b5], 1, linear),
        ("linear_b", [x234, w45, b5], 2, linear),
        ("causal_attention_q", qkv, 0, attention),
        ("causal_attention_k", qkv, 1, attention),
        ("causal_attention_v", qkv, 2, attention),
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
