"""GPT-style decoder-only transformer over the kit's tensor library.

Pre-LN blocks, learned absolute position embeddings, attention logits
scaled by 1/sqrt(d_head), output projection tied to the token embedding
by default. A block is two tape ops, one per pre-norm sublayer:
`tensor.attention` (LayerNorm, the q/k/v projections, softmax attention,
the output projection and the residual add) and `tensor.feed_forward`
(LayerNorm, the feed-forward input with GELU, its output and the residual
add). The final LayerNorm and the head, a (vocab, d_model) table read
transposed (`lm_head` when untied), are one op with the loss. The six
weight matrices per block (wq, wk, wv, wo, w_ff_in, w_ff_out) are the
sparsifiable set; embeddings, LayerNorm parameters and biases stay dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, check_ranges, record_shape
from .tensor import Tensor

SPARSIFIABLE_ROLES = ("wq", "wk", "wv", "wo", "w_ff_in", "w_ff_out")
# a block's parameters in the operand order of its two sublayer ops
ATTENTION_ROLES = ("ln1.gain", "ln1.bias", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
FEED_FORWARD_ROLES = ("ln2.gain", "ln2.bias", "w_ff_in", "b_ff_in", "w_ff_out", "b_ff_out")

INIT_STD = 0.02
NEG_INF_BIAS = -1e9  # additive pre-softmax mask; underflows to exactly 0 attention
LN_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    d_model: int
    n_heads: int
    d_head: int
    vocab_size: int
    context_window: int
    d_ff: int | None = None
    tie_embeddings: bool = True

    def __post_init__(self):
        if not isinstance(self.tie_embeddings, bool):
            raise ContractError(f"tie_embeddings must be a bool, got {self.tie_embeddings!r}")
        for field in ("n_layers", "d_model", "n_heads", "d_head", "vocab_size",
                      "context_window", "d_ff"):
            if field == "d_ff" and self.d_ff is None:
                object.__setattr__(self, "d_ff", 4 * self.d_model)
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ContractError(f"{field} must be a positive int, got {value!r}")
        if self.n_heads * self.d_head != self.d_model:
            raise ContractError(
                f"n_heads*d_head = {self.n_heads * self.d_head} != d_model = {self.d_model}"
            )


# a pretrain config's `model`, a `flops --model-config` file, a checkpoint's config
CONFIG_SHAPE = record_shape(ModelConfig)

# Architecture rows for the med / large / xl presets; vocab and context
# window follow the full-scale defaults (42,384 learned vocab, 1024 window).
PRESETS = {
    "med": ModelConfig(n_layers=24, d_model=1024, n_heads=16, d_head=64,
                       vocab_size=42384, context_window=1024),
    "large": ModelConfig(n_layers=18, d_model=1536, n_heads=12, d_head=128,
                         vocab_size=42384, context_window=1024),
    "xl": ModelConfig(n_layers=24, d_model=2048, n_heads=16, d_head=128,
                      vocab_size=42384, context_window=1024),
}


class ParamStore(dict):
    """Named map: parameter path -> Tensor."""

    def sparsifiable_paths(self):
        return [p for p in self if is_sparsifiable(p)]


def is_sparsifiable(path: str) -> bool:
    return path.rsplit(".", 1)[-1] in SPARSIFIABLE_ROLES


def param_specs(config: ModelConfig):
    """Ordered (path, shape, init_kind) triples for every parameter."""
    d, f = config.d_model, config.d_ff
    specs = [
        ("tok_emb", (config.vocab_size, d), "normal"),
        ("pos_emb", (config.context_window, d), "normal"),
    ]
    for i in range(config.n_layers):
        p = f"layers.{i}"
        specs += [
            (f"{p}.ln1.gain", (d,), "ones"),
            (f"{p}.ln1.bias", (d,), "zeros"),
            (f"{p}.wq", (d, d), "normal"),
            (f"{p}.bq", (d,), "zeros"),
            (f"{p}.wk", (d, d), "normal"),
            (f"{p}.bk", (d,), "zeros"),
            (f"{p}.wv", (d, d), "normal"),
            (f"{p}.bv", (d,), "zeros"),
            (f"{p}.wo", (d, d), "residual"),
            (f"{p}.bo", (d,), "zeros"),
            (f"{p}.ln2.gain", (d,), "ones"),
            (f"{p}.ln2.bias", (d,), "zeros"),
            (f"{p}.w_ff_in", (d, f), "normal"),
            (f"{p}.b_ff_in", (f,), "zeros"),
            (f"{p}.w_ff_out", (f, d), "residual"),
            (f"{p}.b_ff_out", (d,), "zeros"),
        ]
    specs += [
        ("ln_f.gain", (d,), "ones"),
        ("ln_f.bias", (d,), "zeros"),
    ]
    if not config.tie_embeddings:
        specs.append(("lm_head", (config.vocab_size, d), "normal"))
    return specs


def init_params(config: ModelConfig, seed: int, dtype: str = "float32") -> ParamStore:
    """Seeded init: normal(0, 0.02), residual projections scaled by
    1/sqrt(2*n_layers), biases zero, LN gains one."""
    rng = np.random.default_rng(seed)
    resid_std = INIT_STD / math.sqrt(2.0 * config.n_layers)
    store = ParamStore()
    for path, shape, kind in param_specs(config):
        if kind == "normal":
            data = rng.normal(0.0, INIT_STD, size=shape)
        elif kind == "residual":
            data = rng.normal(0.0, resid_std, size=shape)
        elif kind == "ones":
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        store[path] = Tensor(data, requires_grad=True, dtype=dtype)
    return store


def count_params(config: ModelConfig) -> int:
    """Exact parameter count, embedding tables included."""
    return sum(math.prod(shape) for _, shape, _ in param_specs(config))


def count_matrix_params(config: ModelConfig) -> int:
    """Size of the sparsifiable set: the six block matrices, 12*L*d^2 when
    d_ff = 4*d_model. This is the headline 'model size' convention."""
    return sparse_matrix_params(config, 0.0)


def zero_count(level: float, size: int) -> int:
    """Pruned entries of a `size`-entry matrix at sparsity `level`: round(s*N),
    half away from zero, the one rounding rule of the masks and of the counts."""
    return int(math.floor(level * size + 0.5))


def sparse_matrix_params(config: ModelConfig, sparsity: float) -> int:
    """Active matrix parameters at uniform sparsity s, rounded per matrix as
    the masks are: the sum of N - round(s*N) over the sparsifiable set."""
    sizes = [math.prod(shape) for path, shape, _ in param_specs(config) if is_sparsifiable(path)]
    return sum(n - zero_count(sparsity, n) for n in sizes)


def _head(params: ParamStore, config: ModelConfig) -> Tensor:
    """The output head's (vocab, d_model) table, read transposed: the token
    table itself when tied, else `lm_head`, which has its layout."""
    return params["tok_emb" if config.tie_embeddings else "lm_head"]


@dataclass
class SoftPrompt:
    """n trainable continuous embeddings bound to reserved virtual ids."""

    embeddings: Tensor            # (n, d_model)
    virtual_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.virtual_ids) != self.embeddings.data.shape[0]:
            raise ContractError(
                f"{len(self.virtual_ids)} virtual ids for {self.embeddings.data.shape[0]} rows"
            )
        if len(set(self.virtual_ids)) != len(self.virtual_ids):
            raise ContractError("virtual ids must be distinct")


def check_virtual_ids(config: ModelConfig, virtual_ids):
    """ContractError unless each virtual id is in the vocab; run where a prompt is made or read."""
    bad = [i for i in virtual_ids if not 0 <= i < config.vocab_size]
    if bad:
        raise ContractError(f"virtual id {bad[0]} outside [0, {config.vocab_size})")


def init_soft_prompt(config: ModelConfig, n: int, virtual_ids, seed: int = 0,
                     dtype: str = "float32") -> SoftPrompt:
    """Rows drawn from the token-embedding init distribution (std 0.02)."""
    check_ranges({"prompt_length": n})
    virtual_ids = tuple(virtual_ids)[:n]
    check_virtual_ids(config, virtual_ids)
    rng = np.random.default_rng(seed)
    emb = rng.normal(0.0, INIT_STD, size=(n, config.d_model))
    return SoftPrompt(embeddings=Tensor(emb, requires_grad=True, dtype=dtype),
                      virtual_ids=virtual_ids)


def forward_logits(params: ParamStore, config: ModelConfig, tokens,
                   prompt: SoftPrompt | None = None) -> Tensor:
    """Causal decoder forward pass; returns the last block's output
    (batch, seq, d_model), to which `lm_loss` and `head_logprobs` apply
    the final LayerNorm and the output head. The name stays while
    perfbench times its span (ROADMAP item 1 retires it).

    With a soft prompt, row j of its embeddings replaces the token-embedding
    lookup of every occurrence of its j-th virtual id before position
    embeddings are added (`tensor.embedding`).
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ContractError(f"tokens must be (batch, seq), got shape {tokens.shape}")
    seq = tokens.shape[1]
    if seq > config.context_window:
        raise ContractError(f"sequence length {seq} exceeds context window {config.context_window}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= config.vocab_size):
        raise ContractError(f"token id outside [0, {config.vocab_size})")
    if prompt is not None:
        check_virtual_ids(config, prompt.virtual_ids)

    dtype = params["tok_emb"].data.dtype
    rows = () if prompt is None else (prompt.embeddings, prompt.virtual_ids)
    x = T.embedding(params["tok_emb"], params["pos_emb"], tokens, *rows)

    causal_bias = np.triu(np.full((seq, seq), NEG_INF_BIAS, dtype=dtype), k=1)
    for i in range(config.n_layers):
        p = f"layers.{i}"
        x = T.attention(x, *(params[f"{p}.{role}"] for role in ATTENTION_ROLES),
                        config.n_heads, causal_bias, LN_EPS)
        x = T.feed_forward(x, *(params[f"{p}.{role}"] for role in FEED_FORWARD_ROLES), LN_EPS)
    return x


def head_logprobs(params: ParamStore, config: ModelConfig, rows, targets) -> np.ndarray:
    """log p(targets[i] | rows[i]) through the final LayerNorm and the
    output head, without a tape: rows are last-block outputs (n, d_model)
    of `forward_logits`, targets (n,) token ids. Only these rows are
    normalized and their logits computed, by the expressions and the
    logsumexp of the training loss (`tensor.cross_entropy`)."""
    xhat = T._normalize(np.asarray(rows), LN_EPS)[0]
    rows = xhat * params["ln_f.gain"].data + params["ln_f.bias"].data
    return -T.target_nll(rows @ _head(params, config).data.T, np.asarray(targets))


def lm_loss(params: ParamStore, config: ModelConfig, tokens, loss_mask=None,
            prompt: SoftPrompt | None = None) -> Tensor:
    """Mean cross-entropy of each position's prediction of the token after
    it: the forward (`prompt` as in `forward_logits`), then the final
    LayerNorm and the output head fused with the loss (`tensor.cross_entropy`).
    With `loss_mask`, of the tokens' shape, only the predictions of tokens
    whose mask is 1 count, and only their rows are normalized and their
    logits computed."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] < 2:
        raise ContractError(f"lm_loss needs (batch, seq>=2) tokens, got shape {tokens.shape}")
    if loss_mask is not None and np.shape(loss_mask) != tokens.shape:
        raise ContractError(f"loss_mask {np.shape(loss_mask)} != tokens {tokens.shape}")
    targets = np.zeros_like(tokens)
    targets[:, :-1] = tokens[:, 1:]
    scored = np.zeros(tokens.shape, dtype=bool)
    scored[:, :-1] = True if loss_mask is None else np.asarray(loss_mask)[:, 1:] != 0
    return T.cross_entropy(forward_logits(params, config, tokens, prompt), params["ln_f.gain"],
                           params["ln_f.bias"], _head(params, config), targets, scored, LN_EPS)


def clone_params(store: ParamStore) -> ParamStore:
    """Independent deep copy (fresh buffers, no grads)."""
    out = ParamStore()
    for path, t in store.items():
        out[path] = Tensor(t.data.copy(), requires_grad=t.requires_grad, dtype=t.dtype)
    return out
