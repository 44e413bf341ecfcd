"""Full-vocab logits for tests that compare logits.

The model's forward ends at the last block's output, and the final
LayerNorm and the output head are applied only to scored rows, so a test
that compares logits forms them here: the final LayerNorm of every row,
then the (vocab, d_model) head table read transposed, as one GEMM.
"""

from sparselm import model as M
from sparselm import tensor as T


def full_logits(params, config, tokens, prompt=None):
    """(batch, seq, vocab) logits of `tokens`, without a tape."""
    with T.no_grad():
        hidden = M.forward_logits(params, config, tokens, prompt).data
    normed = T._normalize(hidden, M.LN_EPS)[0] * params["ln_f.gain"].data + params["ln_f.bias"].data
    head = M._head(params, config).data
    return (normed.reshape(-1, config.d_model) @ head.T).reshape(hidden.shape[:-1] + (-1,))
