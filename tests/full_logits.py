"""Full-vocab logits for tests that compare logits.

The model's forward ends at the final hidden state and applies the output
head only to scored rows, so a test that compares logits forms them here:
the hidden state times the head weight, as one (rows, d_model) GEMM.
"""

import numpy as np

from sparselm import model as M
from sparselm import tensor as T


def full_logits(params, config, tokens, prompt=None) -> np.ndarray:
    """(batch, seq, vocab) logits of `tokens`, without a tape."""
    with T.no_grad():
        hidden = M.forward_logits(params, config, tokens, prompt).data
    head = params["tok_emb"].data.T if config.tie_embeddings else params["lm_head"].data
    return (hidden.reshape(-1, config.d_model) @ head).reshape(hidden.shape[:-1] + (-1,))
