"""Plain-numpy decoder forward used as an independent oracle in tests.

Deliberately written without the package's tensor library: explicit
per-head loops, no tape, math derived straight from the architecture
definition (pre-LN blocks, causal softmax attention, erf GELU, a (vocab, d)
head table, tied or not).
"""

import numpy as np
from scipy.special import erf


def ref_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def ref_softmax(x):
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def ref_gelu(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def ref_forward(params, config, tokens):
    """Logits (batch, seq, vocab) from a dict of plain numpy parameters."""
    tokens = np.asarray(tokens)
    bsz, seq = tokens.shape
    d, h, dh = config.d_model, config.n_heads, config.d_head

    x = params["tok_emb"][tokens] + params["pos_emb"][:seq]
    for i in range(config.n_layers):
        p = f"layers.{i}"
        a = ref_layer_norm(x, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        q = a @ params[f"{p}.wq"] + params[f"{p}.bq"]
        k = a @ params[f"{p}.wk"] + params[f"{p}.bk"]
        v = a @ params[f"{p}.wv"] + params[f"{p}.bv"]
        ctx = np.zeros_like(x)
        for b in range(bsz):
            for head in range(h):
                sl = slice(head * dh, (head + 1) * dh)
                scores = q[b, :, sl] @ k[b, :, sl].T / np.sqrt(dh)
                scores = scores + np.triu(np.full((seq, seq), -1e9), k=1)
                ctx[b, :, sl] = ref_softmax(scores) @ v[b, :, sl]
        x = x + ctx @ params[f"{p}.wo"] + params[f"{p}.bo"]
        a = ref_layer_norm(x, params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
        hidden = ref_gelu(a @ params[f"{p}.w_ff_in"] + params[f"{p}.b_ff_in"])
        x = x + hidden @ params[f"{p}.w_ff_out"] + params[f"{p}.b_ff_out"]

    x = ref_layer_norm(x, params["ln_f.gain"], params["ln_f.bias"])
    head_w = params["tok_emb"] if config.tie_embeddings else params["lm_head"]  # (vocab, d)
    return x @ head_w.T


def ref_next_token_probs(params, config, tokens):
    """p(token at t+1 | tokens up to t) for every position, via ref_forward."""
    logits = ref_forward(params, config, tokens)
    return ref_softmax(logits)
