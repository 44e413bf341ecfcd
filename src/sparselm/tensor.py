"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: every differentiable op records its adjoint closure on a
global tape that is rebuilt each forward pass and consumed by `backward`.
float32 is the training dtype; float64 exists so gradient checks can run
at tight tolerance. A tensor may be read from many threads, but mutation
and tape recording assume a single writer.

`backward` pops each node off the tape before running its adjoint, so the
arrays a node's closure saved and its output tensor are freed before the
next adjoint runs, unless the caller still holds them: the saved
activations of a layer are gone before the layer below runs its adjoint.
A non-leaf keeps its `.grad` only while the caller holds the tensor; one
the caller dropped is freed, gradient included, once its node is consumed.

Gradient buffers have one owner. The first gradient a tensor receives
becomes its `.grad` as is, and later ones are added into it in place (a
large weight's a block of rows at a time: `_weight_grads`): an adjoint
hands on a buffer of its tensor's dtype and shape. So a buffer an adjoint
hands to `_accum` must not go to a second tensor, nor be read after it is
handed on. The two sublayer ops, `attention` and
`feed_forward`, pass their output gradient `g` on to their input x (the
skip connection) as is, and only after the output projection's GEMMs and
bias sum have read it; LayerNorm's input gradient is then added into it,
so x.grad is formed in the order of separate residual-add and LayerNorm
ops. `attention` keeps its q, k and v gradients in one scratch buffer and
hands on only products and sums of it. No two leaves' `.grad` share
memory, so an in-place update of one gradient never reaches another.

A leaf with a `grad_index` (a masked weight while `training._step` runs:
its mask set's int32 flat index of the active entries, the optimizer's own
array) keeps only its gradient's entries at that index, in its order, as a
1-D `.grad`: `_accum` gathers them from each buffer it is handed, so the
dense gradient an adjoint forms is freed once gathered. `embedding`, which
scatters into `table.grad` itself, is never handed an indexed table:
masks are refused outside the block matrices (`sparsity.check_masks`).

What an op keeps for its backward is what that backward cannot cheaply
recompute. `attention` keeps LayerNorm's row mean and inv, Q, K and V in
one buffer, the softmax and the attention output; `feed_forward` keeps
the row mean and inv and GELU's pre-activation and CDF; `layer_norm`
keeps the row mean and inv. Their backwards rebuild LayerNorm's xhat from
the input x, which the tape holds anyway, then the LayerNorm outputs
(xhat * gain + bias) and the GELU output (pre * cdf), each with the
forward's own expressions, so the bits are those of separate ops that had
kept them.

Ops take Tensors of one dtype and do not re-check a parameter's shape or
dtype: every store is checked where it enters (`model.init_params` builds
it from `model.param_specs`, a checkpoint load compares it with them and
with tok_emb's dtype). Token ids are checked by `model.forward_logits`, and
a prompt's ids where the prompt is made. Ops check the targets from
outside (`target_nll`), and `cross_entropy` the width by which it reshapes
its input.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError

_DTYPES = {"float32": np.float32, "float64": np.float64}
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# float32 erf on [-4, 4] as an odd minimax numerator over an even
# denominator, both in z^2 and highest power first (the coefficients of
# Eigen's and XLA's float32 erf). Beyond |z| = 4, erf is 1 in float32.
_ERF32_NUM = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF32_DEN = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))
_erf64 = np.frompyfunc(math.erf, 1, 1)

# A float32 weight gradient added into a dense .grad of more than
# GRAD_BLOCK bytes is formed in blocks of whole rows (`_weight_grads`): as
# many multiples of GRAD_BLOCK_ROWS rows as fit in GRAD_BLOCK bytes, and
# at least GRAD_BLOCK_ROWS rows. On OpenBLAS such blocks keep the bits of
# the whole product, where some blocks of 16 rows did not, nor float64
# blocks of an output whose width is not a multiple of 8.
GRAD_BLOCK = 256 * 1024
GRAD_BLOCK_ROWS = 128


class Tensor:
    """Row-major n-d float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "grad_index")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            if dtype not in _DTYPES:
                raise ContractError(f"unsupported dtype {dtype!r}; use float32 or float64")
            arr = np.ascontiguousarray(arr, dtype=_DTYPES[dtype])
        elif arr.dtype == np.float64:
            arr = np.ascontiguousarray(arr)
        else:
            arr = np.ascontiguousarray(arr, dtype=np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.grad_index = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return "float64" if self.data.dtype == np.float64 else "float32"

    def item(self):
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


# (output, adjoint) pairs in execution order, which is already topological
# (inputs precede users): one reversed pass visits each node exactly once
_tape = []
_grad_enabled = True


class no_grad:
    """Context manager that suspends tape recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def reset_tape():
    _tape.clear()


def tape_size():
    return len(_tape)


def backward(loss, scale=1.0):
    """Populate .grad on every requires_grad tensor reachable from `loss`,
    seeding the loss's own gradient with `scale` (a micro-batch's share of
    the batch mean, say) instead of 1.

    The tape is consumed node by node, and cleared even when an adjoint
    raises: a second call without a fresh forward pass is a contract
    error. Gradients accumulate into existing buffers, which is what
    gradient accumulation over micro-batches relies on.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not any(out is loss for out, _ in _tape):
        raise ContractError(
            "loss was not produced on the current tape "
            "(backward already consumed it, or no input required grad)"
        )
    loss.grad = np.full_like(loss.data, scale)
    try:
        while _tape:
            # popped first, so the previous node's closure and output are
            # already released when this adjoint runs
            out, bwd = _tape.pop()
            if out.grad is not None:
                bwd(out.grad)
    finally:
        _tape.clear()


def _accum(t, g):
    """Add gradient `g` into t.grad, adopting `g` as the buffer when it is
    the first (see the module docstring for who may own it); with a
    `t.grad_index`, only g's entries at that flat index."""
    if not t.requires_grad:
        return
    if t.grad_index is not None:
        g = np.take(g.reshape(-1), t.grad_index)
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _finish(out, inputs, bwd):
    if _grad_enabled and any(t is not None and t.requires_grad for t in inputs):
        out.requires_grad = True
        _tape.append((out, bwd))
    return out


def _normalize(x, eps):
    """(xhat, mean, inv) of the last axis of array x: mean is the row mean,
    inv = 1/sqrt(variance + eps) and xhat = (x - mean) * inv, the variance
    in two passes, as the mean square of the centered rows (never E[x^2] -
    E[x]^2). A backward keeps mean and inv, not xhat, and rebuilds xhat
    with `_xhat`."""
    mean = x.mean(axis=-1, keepdims=True)
    xhat = x - mean
    inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", xhat, xhat)[..., None] / x.shape[-1] + eps)
    xhat *= inv
    return xhat, mean, inv


def _xhat(x, mean, inv):
    """`_normalize`'s xhat of x from its mean and inv, by the forward's own
    two expressions, so bit for bit."""
    xhat = x - mean
    xhat *= inv
    return xhat


def _normalize_grads(x, gain, bias, xhat, inv, g):
    """Accumulate the gain, bias and x gradients of `xhat * gain + bias`
    (`_normalize` of x) from its gradient `g`, of x's shape, in that order."""
    d = xhat.shape[-1]
    if gain.requires_grad:
        _accum(gain, np.einsum("ij,ij->j", g.reshape(-1, d), xhat.reshape(-1, d)))
    if bias.requires_grad:
        _accum(bias, g.reshape(-1, d).sum(axis=0))
    if x.requires_grad:
        gg = g * gain.data
        # inv * (gg - mean(gg) - xhat * mean(gg * xhat)), row by row
        dx = xhat * (np.einsum("...i,...i->...", gg, xhat)[..., None] / d)
        dx += gg.mean(axis=-1, keepdims=True)
        np.subtract(gg, dx, out=dx)
        dx *= inv
        _accum(x, dx)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    xhat, mean, inv = _normalize(x.data, eps)
    out = Tensor(xhat * gain.data + bias.data)

    def bwd(g):
        _normalize_grads(x, gain, bias, _xhat(x.data, mean, inv), inv, g)

    return _finish(out, (x, gain, bias), bwd)


def _even_poly(coeffs, z2, out):
    """sum of coeffs[i] * z2**(n - i), evaluated by Horner's rule in `out`."""
    np.multiply(z2, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= z2
    out += coeffs[-1]
    return out


def _erf(z):
    """erf of a float array. float64, the dtype of the gradient checks,
    applies math.erf per element (double precision). float32 evaluates the
    rational above within 4.5e-7 of the true erf, odd to the bit, in two
    scratch buffers; it overwrites `z`."""
    if z.dtype == np.float64:
        return np.asarray(_erf64(z), dtype=np.float64)
    np.clip(z, -4.0, 4.0, out=z)
    z2 = z * z
    p = _even_poly(_ERF32_NUM, z2, np.empty_like(z))
    p *= z
    p /= _even_poly(_ERF32_DEN, z2, z)
    # the rational overshoots 1 by up to 4e-7 for z in (3.6, 4]
    np.clip(p, -1.0, 1.0, out=p)
    return p


def _gelu_cdf(x):
    """Phi(x), the normal CDF, by the erf form: GELU(x) is x * Phi(x)."""
    cdf = _erf(x * _INV_SQRT2)
    cdf *= 0.5
    cdf += 0.5
    return cdf


def _gelu_grad(x, cdf, g):
    """g * (Phi(x) + x * phi(x)) in one buffer, phi the normal density:
    the gradient of x * Phi(x) given Phi(x) = `cdf`."""
    d = x * x
    d *= -0.5
    np.exp(d, out=d)
    d *= _INV_SQRT_2PI
    d *= x
    d += cdf
    d *= g
    return d


def _weight_grads(rows, w, b, gy, transpose_w=False):
    """Accumulate the w and b gradients of `rows @ w + b` (w read as its
    transpose with transpose_w) from the output gradient `gy`, in that
    order. `rows` is read only when w needs its gradient.

    w's gradient is `a.T @ c`, with (a, c) = (rows, gy), or (gy, rows)
    with transpose_w. A first gradient becomes w.grad as the GEMM forms it,
    and a masked weight's is gathered at its `grad_index` (`_accum`). One
    added into a dense float32 w.grad of more than GRAD_BLOCK bytes (the
    tied head's on every micro-batch after the first, say) is formed and
    added a block of whole rows at a time, `w.grad[i:j] += a[:, i:j].T @ c`,
    so no second gradient of w's size is held; each block's entries have
    the bits of the whole product's."""
    if w.requires_grad:
        a, c = (gy, rows) if transpose_w else (rows, gy)
        grad = w.grad
        if (grad is None or w.grad_index is not None or grad.dtype != np.float32
                or grad.nbytes <= GRAD_BLOCK):
            _accum(w, a.T @ c)
        else:
            m = len(grad)
            step = GRAD_BLOCK_ROWS * max(1, GRAD_BLOCK // (GRAD_BLOCK_ROWS * grad[0].nbytes))
            n_blocks = max(1, m // step)
            for k in range(n_blocks):
                i, j = k * step, (k + 1) * step if k + 1 < n_blocks else m
                grad[i:j] += a[:, i:j].T @ c
    if b is not None and b.requires_grad:
        _accum(b, gy.sum(axis=0))


def _heads(a, bsz, seq, n_heads):
    """(n, b*t, d) or (b, t, d) -> (n, b, h, t, d/h) view, heads side by side along d."""
    return a.reshape(-1, bsz, seq, n_heads, a.shape[-1] // n_heads).transpose(0, 1, 3, 2, 4)


def _softmax_rows(p):
    """Softmax over p's last axis, in place. The row maximum is read at its
    argmax: the value `p.max` gives, which numpy reduces slowly over short
    float rows. Where +0.0 and -0.0 tie for it, either sign only changes the
    sign of zeros that `exp` maps to 1."""
    p -= np.take_along_axis(p, p.argmax(axis=-1)[..., None], axis=-1)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)


def _softmax_attention(qkv, bsz, seq, n_heads, logit_bias):
    """(p, out): p = softmax(Q Kᵀ / sqrt(d_head) + logit_bias) per head and
    out = p V, (batch, seq, d), from the (3, batch*seq, d) buffer of Q, K and V.
    out is written through a per-head view: no merge copy."""
    qh, kh, vh = _heads(qkv, bsz, seq, n_heads)
    p = qh @ kh.swapaxes(-1, -2)
    p *= 1.0 / math.sqrt(qkv.shape[-1] // n_heads)
    p += logit_bias
    _softmax_rows(p)
    out = np.empty((bsz, seq, qkv.shape[-1]), dtype=qkv.dtype)
    np.matmul(p, vh, out=_heads(out, bsz, seq, n_heads)[0])
    return p, out


def _softmax_attention_grads(qkv, p, g, n_heads):
    """The gradients of Q, K and V, in one buffer shaped as `qkv`, from the
    gradient `g` of `_softmax_attention`'s output and its softmax `p`."""
    bsz, _, seq, _ = p.shape
    grads = np.empty_like(qkv)
    gq, gk, gv = _heads(grads, bsz, seq, n_heads)
    qh, kh, vh = _heads(qkv, bsz, seq, n_heads)
    gh = _heads(g, bsz, seq, n_heads)[0]
    np.matmul(p.swapaxes(-1, -2), gh, out=gv)
    ds = gh @ vh.swapaxes(-1, -2)
    ds -= (ds * p).sum(axis=-1, keepdims=True)
    ds *= p
    ds *= 1.0 / math.sqrt(qkv.shape[-1] // n_heads)
    np.matmul(ds, kh, out=gq)
    np.matmul(ds.swapaxes(-1, -2), qh, out=gk)
    return grads


def attention(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, n_heads, logit_bias, eps=1e-5):
    """A pre-norm attention sublayer as one op: x + A @ wo + bo, where A is
    multi-head softmax(Q Kᵀ / sqrt(d_head) + logit_bias) V over a = LN(x) =
    layer_norm(x, gain, bias, eps), with Q = a @ wq + bq and K and V alike.

    x: (batch, seq, d_in); gain, bias, bo: (d_in,); wq, wk, wv: (d_in, d)
    with the heads side by side along d, as in A; bq, bk, bv: (d,); wo:
    (d, d_in). logit_bias: (seq, seq) additive pre-softmax mask, e.g. a
    large negative value above the diagonal. Q, K and V are GEMMs into one
    buffer, read per head through views.
    """
    ws, bs = (wq, wk, wv), (bq, bk, bv)
    d = wq.data.shape[-1]
    bsz, seq, d_in = x.data.shape
    xhat, mean, inv = _normalize(x.data, eps)
    rows = (xhat * gain.data + bias.data).reshape(-1, d_in)
    del xhat
    qkv = np.empty((3, len(rows), d), dtype=rows.dtype)
    for w, b, y in zip(ws, bs, qkv):
        np.matmul(rows, w.data, out=y)
        y += b.data
    del rows
    p, att = _softmax_attention(qkv, bsz, seq, n_heads, logit_bias)
    att = att.reshape(-1, d)
    y = att @ wo.data
    y += bo.data
    y += x.data.reshape(-1, d_in)
    out = Tensor(y.reshape(x.data.shape))

    def bwd(g):
        gy = g.reshape(-1, d_in)
        gatt = gy @ wo.data.T
        _weight_grads(att, wo, bo, gy)
        # x's first gradient is g itself, from the skip connection: `g` is
        # not read after this, so it may become x.grad and be added into
        _accum(x, g)
        grads = _softmax_attention_grads(qkv, p, gatt, n_heads)
        del gatt
        xhat = _xhat(x.data, mean, inv)
        rows = None
        if any(w.requires_grad for w in ws):
            rows = (xhat * gain.data + bias.data).reshape(-1, d_in)
        for w, b, gy in zip(ws, bs, grads):
            _weight_grads(rows, w, b, gy)
        del rows
        # v, k, q: the order in which separate projections added into a's gradient
        ga = grads[2] @ ws[2].data.T
        ga += grads[1] @ ws[1].data.T
        ga += grads[0] @ ws[0].data.T
        del grads
        _normalize_grads(x, gain, bias, xhat, inv, ga.reshape(x.data.shape))

    return _finish(out, (x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo), bwd)


def feed_forward(x, gain, bias, w_in, b_in, w_out, b_out, eps=1e-5):
    """A pre-norm feed-forward sublayer as one op:
    x + GELU(LN(x) @ w_in + b_in) @ w_out + b_out, LN(x) =
    layer_norm(x, gain, bias, eps) and GELU(z) = z * Phi(z) with the erf
    form of the normal CDF, no tanh approximation (erf as in `_erf`: double
    precision in float64, within 4.5e-7 in float32).

    x: (..., d); gain, bias, b_out: (d,); w_in: (d, d_ff); b_in: (d_ff,);
    w_out: (d_ff, d).
    """
    d = x.data.shape[-1]
    xhat, mean, inv = _normalize(x.data, eps)
    pre = (xhat * gain.data + bias.data).reshape(-1, d) @ w_in.data
    del xhat
    pre += b_in.data
    cdf = _gelu_cdf(pre)
    y = (pre * cdf) @ w_out.data
    y += b_out.data
    y += x.data.reshape(-1, d)
    out = Tensor(y.reshape(x.data.shape))

    def bwd(g):
        gy = g.reshape(-1, d)
        gh = gy @ w_out.data.T
        _weight_grads(pre * cdf if w_out.requires_grad else None, w_out, b_out, gy)
        # as in `attention`: `g` becomes x's first gradient, and is not read after
        _accum(x, g)
        gpre = _gelu_grad(pre, cdf, gh)
        del gh
        xhat = _xhat(x.data, mean, inv)
        rows = (xhat * gain.data + bias.data).reshape(-1, d) if w_in.requires_grad else None
        ga = gpre @ w_in.data.T
        _weight_grads(rows, w_in, b_in, gpre)
        del rows, gpre
        _normalize_grads(x, gain, bias, xhat, inv, ga.reshape(x.data.shape))

    return _finish(out, (x, gain, bias, w_in, b_in, w_out, b_out), bwd)


def cross_entropy(x, w, targets, ignore_mask=None, transpose_w=False):
    """Mean negative log-probability of `targets` under softmax(x @ w): the
    output head fused with the loss.

    x: (..., d) rows. w: (d, vocab), or with transpose_w a (vocab, d) table
    read in place. targets: int ids of shape x.shape[:-1]. ignore_mask, of
    the same shape, marks positions with 0 to leave out: their logits are
    never computed and their rows get zero gradient.
    """
    if w.data.ndim != 2:
        raise ContractError(f"cross_entropy: weight must be 2-d, got {w.shape}")
    wm = w.data.T if transpose_w else w.data
    d, v = wm.shape
    if x.data.ndim < 2 or x.data.shape[-1] != d:
        raise ContractError(f"cross_entropy shape mismatch: {x.shape} x {wm.shape}")
    lead = x.data.shape[:-1]
    targets = np.asarray(targets)
    if targets.shape != lead:
        raise ContractError(f"cross_entropy: targets shape {targets.shape} != {lead}")
    active = np.ones(lead, dtype=bool) if ignore_mask is None else np.asarray(ignore_mask)
    if active.shape != lead:
        raise ContractError(f"cross_entropy: ignore_mask shape {active.shape} != {lead}")
    scored = np.flatnonzero(active)
    flat = x.data.reshape(-1, d)
    rows, picked = flat[scored], targets.reshape(-1)[scored]
    n = rows.shape[0]
    if n == 0:
        raise ContractError("cross_entropy: no active positions")

    ez = rows @ wm
    out = Tensor(target_nll(ez, picked).sum() / x.data.dtype.type(n))

    def bwd(g):
        p = ez
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), picked] -= 1.0
        p *= g / x.data.dtype.type(n)
        if x.requires_grad:
            gx = np.zeros_like(flat)
            gx[scored] = p @ wm.T
            _accum(x, gx.reshape(x.data.shape))
        _weight_grads(rows, w, None, p, transpose_w)

    return _finish(out, (x, w), bwd)


def target_nll(logits, targets):
    """-log softmax(logits[i])[targets[i]] for each row i of a (n, vocab)
    array, by a max-shifted logsumexp: log1p(sum of exp(z - max) over the
    entries but the max) + (max - target). A confident target keeps its
    digits, since neither the max's 1.0 nor a rounding to the ulp of the
    max enters a near-zero result. No tape. It overwrites `logits` with
    exp(logits - row max), which `cross_entropy`'s backward normalizes
    into the softmax."""
    n, v = logits.shape
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ContractError(f"target id outside [0, {v})")
    rows = np.arange(n)
    target_logits = logits[rows, targets]
    top = logits.argmax(axis=1)
    m = logits[rows, top]
    logits -= m[:, None]
    np.exp(logits, out=logits)
    logits[rows, top] = 0.0
    rest = logits.sum(axis=1)
    logits[rows, top] = 1.0  # exp(0), as the backward expects
    return np.log1p(rest) + (m - target_logits)


def embedding(table, pos, ids, prompt=None, prompt_ids=()):
    """Token and position embeddings of a (batch, seq) id array.

    out[b, i] = table[ids[b, i]] + pos[i], except that with a prompt every
    occurrence of prompt_ids[j] reads prompt[j] instead of its table row:
    trainable virtual-token embeddings, looked up by id wherever they sit.
    ids is an int array of table ids (`model.forward_logits` checks it);
    prompt is (len(prompt_ids), d) and prompt_ids are distinct table ids.
    """
    n_ids, d = table.data.shape
    t = ids.shape[1]
    data = table.data[ids]
    if prompt is not None:
        # the prompt row of each token id, -1 for an id that is not a prompt id
        slot = np.full(n_ids, -1)
        slot[list(prompt_ids)] = np.arange(len(prompt_ids))
        rows = slot[ids]
        hits = rows >= 0
        data[hits] = prompt.data[rows[hits]]
    data += pos.data[:t]
    out = Tensor(data)

    def bwd(g):
        if pos.requires_grad:
            gpos = np.zeros_like(pos.data)
            gpos[:t] = g.sum(axis=0)
            _accum(pos, gpos)
        if prompt is not None:
            if prompt.requires_grad:
                gprompt = np.zeros_like(prompt.data)
                np.add.at(gprompt, rows[hits], g[hits])
                _accum(prompt, gprompt)
            g[hits] = 0.0  # g is this op's own buffer
        # scatter straight into the table's gradient; with a tied output
        # head, the head's gradient is already there
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            # np.add.at's bits over rows, on flat indices to skip its slow row path
            flat_grad = table.grad.reshape(-1)
            np.add.at(flat_grad, (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1), g.reshape(-1))
            table.grad = flat_grad.reshape(n_ids, d)

    return _finish(out, (table, pos, prompt), bwd)
