"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: every differentiable op records its adjoint closure on a
global tape that is rebuilt each forward pass and consumed by `backward`.
float32 is the training dtype; float64 exists so gradient checks can run
at tight tolerance. A tensor may be read from many threads, but mutation
and tape recording assume a single writer.

Gradient buffers have one owner. The first gradient a tensor receives
becomes its `.grad` as is (copied only when its dtype or shape differs
from the tensor's), and later ones are added into it in place. So a
buffer an adjoint hands to `_accum` must not go to a second tensor: when
both parents of `add` need the same pass-through gradient, the second
gets a copy, and a view made by an identity `_unbroadcast` goes to a
single parent. No two tensors' `.grad` share memory, and in-place updates
of one gradient (masking, clipping) never reach another.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import ContractError

_DTYPES = {"float32": np.float32, "float64": np.float64}
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """Row-major n-d float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

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

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)


class Tape:
    """Execution-ordered op record; reverse traversal replays adjoints.

    Construction order is already topological (inputs precede users), so
    one reversed pass visits each node exactly once.
    """

    def __init__(self):
        self.nodes = []
        self._output_ids = set()

    def record(self, out, inputs, backward):
        self.nodes.append((out, inputs, backward))
        self._output_ids.add(id(out))

    def clear(self):
        self.nodes.clear()
        self._output_ids.clear()

    def __len__(self):
        return len(self.nodes)


_tape = Tape()
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


def backward(loss):
    """Populate .grad on every requires_grad tensor reachable from `loss`.

    The tape is consumed: a second call without a fresh forward pass is a
    contract error. Gradients accumulate into existing buffers, which is
    what gradient accumulation over micro-batches relies on.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if id(loss) not in _tape._output_ids:
        raise ContractError(
            "loss was not produced on the current tape "
            "(backward already consumed it, or no input required grad)"
        )
    loss.grad = np.ones_like(loss.data)
    for out, _inputs, bwd in reversed(_tape.nodes):
        if out.grad is not None:
            bwd(out.grad)
    _tape.clear()


def _as_tensor(x, ref_dtype=None):
    if isinstance(x, Tensor):
        return x
    dtype = None
    if ref_dtype is not None:
        dtype = "float64" if ref_dtype == np.float64 else "float32"
    return Tensor(x, dtype=dtype)


def _check_dtypes(a, b, op):
    if a.data.dtype != b.data.dtype:
        raise ContractError(
            f"{op}: mixed dtypes {a.dtype} vs {b.dtype}; a computation graph must use one dtype"
        )


def _pair(a, b, op):
    """Wrap raw operands as constants, adopting the tensor operand's dtype."""
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        _check_dtypes(a, b, op)
        return a, b
    if isinstance(a, Tensor):
        return a, Tensor(b, dtype=a.dtype)
    if isinstance(b, Tensor):
        return Tensor(a, dtype=b.dtype), b
    return Tensor(a), Tensor(b)


def _accum(t, g):
    """Add gradient `g` into t.grad, adopting `g` as the buffer when it is
    the first (see the module docstring for who may own it)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if g.dtype != t.data.dtype or g.shape != t.data.shape:
            g = np.array(g, dtype=t.data.dtype).reshape(t.data.shape)
        t.grad = g
    else:
        t.grad += g


def _finish(out, inputs, bwd):
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _tape.record(out, inputs, bwd)
    return out


def _unbroadcast(g, shape):
    """Reduce gradient `g` back down to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b):
    a, b = _pair(a, b, "add")
    out = Tensor(a.data + b.data)

    def bwd(g):
        ga = _unbroadcast(g, a.data.shape)
        gb = _unbroadcast(g, b.data.shape)
        if gb is g and ga is g and a.requires_grad:
            gb = g.copy()
        _accum(a, ga)
        _accum(b, gb)

    return _finish(out, (a, b), bwd)


def mul(a, b):
    a, b = _pair(a, b, "mul")
    out = Tensor(a.data * b.data)

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _finish(out, (a, b), bwd)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ContractError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} must match last axis ({d},)"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gain.data + bias.data)

    def bwd(g):
        if gain.requires_grad:
            _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gg = g * gain.data
            dx = inv * (
                gg
                - gg.mean(axis=-1, keepdims=True)
                - xhat * (gg * xhat).mean(axis=-1, keepdims=True)
            )
            _accum(x, dx)

    return _finish(out, (x, gain, bias), bwd)


def gelu(x):
    """x * Phi(x), exact erf form (no tanh approximation)."""
    x = _as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = Tensor(x.data * cdf)

    def bwd(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        _accum(x, g * (cdf + x.data * pdf))

    return _finish(out, (x,), bwd)


def linear(x, w, b=None, transpose_w=False):
    """x @ w + b over the last axis of x, whatever its leading shape.

    w is (d_in, d_out), or with transpose_w a (d_out, d_in) matrix read as
    its transpose in place (a tied embedding table). One tape node.
    """
    x, w = _pair(x, w, "linear")
    if w.data.ndim != 2:
        raise ContractError(f"linear: weight must be 2-d, got {w.shape}")
    wm = w.data.T if transpose_w else w.data
    d_in, d_out = wm.shape
    if x.data.shape[-1] != d_in:
        raise ContractError(f"linear shape mismatch: {x.shape} x {wm.shape}")
    inputs = (x, w)
    if b is not None:
        b = _as_tensor(b, w.data.dtype)
        _check_dtypes(w, b, "linear")
        if b.data.shape != (d_out,):
            raise ContractError(f"linear: bias {b.shape} != ({d_out},)")
        inputs += (b,)
    rows = x.data.reshape(-1, d_in)
    y = rows @ wm
    if b is not None:
        y += b.data
    out = Tensor(y.reshape(x.data.shape[:-1] + (d_out,)))

    def bwd(g):
        g = g.reshape(-1, d_out)
        if x.requires_grad:
            _accum(x, (g @ wm.T).reshape(x.data.shape))
        if w.requires_grad:
            _accum(w, g.T @ rows if transpose_w else rows.T @ g)
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=0))

    return _finish(out, inputs, bwd)


def causal_attention(q, k, v, n_heads, bias):
    """Multi-head softmax(Q Kᵀ / sqrt(d_head) + bias) V as one op.

    q, k, v: (batch, seq, d) with the heads side by side along d, which is
    also the layout of the output. bias: (seq, seq) additive pre-softmax
    mask, e.g. a large negative value above the diagonal. The backward is
    written by hand and keeps only Q, K, V and the softmax output.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    _check_dtypes(q, k, "causal_attention")
    _check_dtypes(q, v, "causal_attention")
    bsz, seq, d = q.data.shape
    if k.data.shape != q.data.shape or v.data.shape != q.data.shape:
        raise ContractError(f"causal_attention: q {q.shape}, k {k.shape}, v {v.shape} differ")
    if n_heads < 1 or d % n_heads:
        raise ContractError(f"causal_attention: {n_heads} heads do not divide width {d}")
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)

    def split(a):  # (b, t, d) -> (b, h, t, dh) view
        return a.reshape(bsz, seq, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(a):  # (b, h, t, dh) -> (b, t, d) copy
        return a.transpose(0, 2, 1, 3).reshape(bsz, seq, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    p += bias
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = Tensor(merge(p @ vh))

    def bwd(g):
        gh = split(g)
        if v.requires_grad:
            _accum(v, merge(p.swapaxes(-1, -2) @ gh))
        if q.requires_grad or k.requires_grad:
            ds = gh @ vh.swapaxes(-1, -2)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            if q.requires_grad:
                _accum(q, merge(ds @ kh))
            if k.requires_grad:
                _accum(k, merge(ds.swapaxes(-1, -2) @ qh))

    return _finish(out, (q, k, v), bwd)


def cross_entropy(x, w, targets, ignore_mask=None, transpose_w=False):
    """Mean negative log-probability of `targets` under softmax(x @ w): the
    output head fused with the loss.

    x: (..., d) rows. w: (d, vocab), or with transpose_w a (vocab, d) table
    read in place. targets: int ids of shape x.shape[:-1]. ignore_mask, of
    the same shape, marks positions with 0 to leave out: their logits are
    never computed and their rows get zero gradient.
    """
    x, w = _pair(x, w, "cross_entropy")
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
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ContractError(f"cross_entropy: target id outside [0, {v})")
    active = np.ones(lead, dtype=bool) if ignore_mask is None else np.asarray(ignore_mask)
    if active.shape != lead:
        raise ContractError(f"cross_entropy: ignore_mask shape {active.shape} != {lead}")
    scored = np.flatnonzero(active)
    flat = x.data.reshape(-1, d)
    rows, picked = flat[scored], targets.reshape(-1)[scored]
    n = rows.shape[0]
    if n == 0:
        raise ContractError("cross_entropy: no active positions")

    logits = rows @ wm
    at = (np.arange(n), picked)
    target_logits = logits[at]
    m = logits.max(axis=1, keepdims=True)
    ez = logits
    ez -= m
    np.exp(ez, out=ez)
    lse = np.log(ez.sum(axis=1)) + m[:, 0]
    out = Tensor((lse - target_logits).sum() / x.data.dtype.type(n))

    def bwd(g):
        p = ez
        p /= p.sum(axis=1, keepdims=True)
        p[at] -= 1.0
        p *= g / x.data.dtype.type(n)
        if x.requires_grad:
            gx = np.zeros_like(flat)
            gx[scored] = p @ wm.T
            _accum(x, gx.reshape(x.data.shape))
        if w.requires_grad:
            _accum(w, p.T @ rows if transpose_w else rows.T @ p)

    return _finish(out, (x, w), bwd)


def embedding(table, ids):
    """Row gather: out[..., :] = table[ids[...], :]."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if table.data.ndim != 2:
        raise ContractError(f"embedding table must be 2-d, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ContractError(f"embedding: id outside [0, {table.data.shape[0]})")
    out = Tensor(table.data[ids])

    def bwd(g):
        # scatter straight into the table's gradient; with a tied output
        # head, the head's gradient is already there
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))

    return _finish(out, (table,), bwd)


def inject_rows(x, rows, positions):
    """Overwrite x[b, positions[b, i], :] with rows[i, :] for every batch row b.

    Used to splice trainable virtual-token embeddings into an embedded
    sequence; gradient flows to both `rows` and the untouched part of `x`.
    Positions must be unique within each batch row.
    """
    x, rows = _pair(x, rows, "inject_rows")
    positions = np.asarray(positions)
    if x.data.ndim != 3 or rows.data.ndim != 2:
        raise ContractError(f"inject_rows expects x (b,t,d) and rows (n,d), got {x.shape}, {rows.shape}")
    b, t, d = x.data.shape
    n = rows.data.shape[0]
    if rows.data.shape[1] != d:
        raise ContractError(f"inject_rows: row width {rows.data.shape[1]} != {d}")
    if positions.shape != (b, n):
        raise ContractError(f"inject_rows: positions shape {positions.shape} != ({b}, {n})")
    if n and any(len(set(row.tolist())) != n for row in positions):
        raise ContractError("inject_rows: duplicate position within a batch row")
    bidx = np.arange(b)[:, None]
    data = x.data.copy()
    data[bidx, positions] = rows.data
    out = Tensor(data)

    def bwd(g):
        if rows.requires_grad:
            _accum(rows, g[bidx, positions].sum(axis=0))
        if x.requires_grad:
            g[bidx, positions] = 0.0  # g is this op's own buffer, handed on to x alone
            _accum(x, g)

    return _finish(out, (x, rows), bwd)


def narrow(x, axis, start, length):
    """Contiguous slice [start, start+length) along `axis`."""
    x = _as_tensor(x)
    extent = x.data.shape[axis]
    if start < 0 or length < 0 or start + length > extent:
        raise ContractError(f"narrow: [{start}, {start + length}) outside axis extent {extent}")
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = Tensor(x.data[index].copy())

    def bwd(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[index] = g
            _accum(x, gx)

    return _finish(out, (x,), bwd)


def tsum(x):
    """Full reduction to a scalar."""
    x = _as_tensor(x)
    out = Tensor(x.data.sum())

    def bwd(g):
        _accum(x, np.broadcast_to(g, x.data.shape).astype(x.data.dtype))

    return _finish(out, (x,), bwd)
