"""Whole-loss gradients against central differences, in float64.

The op tests check each tape op alone; these check the composed model:
the embedding with its prompt lookup, both sublayer ops of every block
(their residual and GELU folds), the final norm and the fused head loss.
Every tensor is redrawn at unit-ish scale so that no gradient is small
enough to pass an absolute tolerance by being near zero.
"""

import numpy as np
import pytest

from sparselm import finetune as FT
from sparselm import model as M
from sparselm import tensor as T

EPS = 1e-6
TOL = 1e-8
SAMPLES = 3  # coordinates per tensor
VIRTUAL_IDS = (2, 3)


def config(tie):
    return M.ModelConfig(n_layers=2, d_model=8, n_heads=2, d_head=4, vocab_size=16,
                         context_window=8, tie_embeddings=tie)


def redrawn_params(cfg, rng):
    params = M.init_params(cfg, seed=0, dtype="float64")
    for path, t in params.items():
        centre = 1.0 if path.endswith("gain") else 0.0
        t.data[...] = centre + rng.normal(0.0, 0.4, size=t.data.shape)
    return params


def check_gradients(tensors, loss_of, rng, whole=()):
    """Tape gradient of every tensor in `tensors` against central differences
    of `loss_of()` on SAMPLES drawn coordinates of each, and on every
    coordinate of the tensors named in `whole`."""
    T.backward(loss_of())
    for name, t in tensors.items():
        count = t.data.size if name in whole else min(SAMPLES, t.data.size)
        for flat in rng.choice(t.data.size, size=count, replace=False):
            index = np.unravel_index(flat, t.data.shape)
            held = t.data[index]
            values = []
            for shift in (EPS, -EPS):
                t.data[index] = held + shift
                with T.no_grad():
                    values.append(loss_of().item())
            t.data[index] = held
            numeric = (values[0] - values[1]) / (2 * EPS)
            assert abs(numeric - t.grad[index]) <= TOL, \
                f"{name}{index}: tape {t.grad[index]!r}, numeric {numeric!r}"


@pytest.mark.parametrize("tie", [True, False], ids=["tied", "untied"])
def test_lm_loss_gradients_match_central_differences(tie):
    cfg = config(tie)
    rng = np.random.default_rng(0)
    params = redrawn_params(cfg, rng)
    tokens = rng.integers(0, cfg.vocab_size, size=(2, cfg.context_window))
    check_gradients(params, lambda: M.lm_loss(params, cfg, tokens), rng)


@pytest.mark.parametrize("tie", [True, False], ids=["tied", "untied"])
def test_prompted_sequence_loss_gradients_match_central_differences(tie):
    # row 0 holds virtual id 2 twice, row 1 lacks it; the mask scores a
    # different span of each row
    cfg = config(tie)
    rng = np.random.default_rng(1)
    params = redrawn_params(cfg, rng)
    prompt = M.init_soft_prompt(cfg, len(VIRTUAL_IDS), VIRTUAL_IDS, dtype="float64")
    prompt.embeddings.data[...] = rng.normal(0.0, 0.4, size=prompt.embeddings.data.shape)
    ids = np.array([[5, 2, 6, 2, 3, 7, 8, 9],
                    [5, 6, 3, 7, 8, 9, 10, 11]])
    mask = np.array([[0, 0, 0, 0, 0, 1, 1, 1],
                     [0, 0, 0, 1, 1, 0, 1, 0]])
    tensors = dict(params, soft_prompt=prompt.embeddings)
    check_gradients(tensors, lambda: FT.sequence_loss(params, cfg, ids, mask, prompt), rng,
                    whole=("soft_prompt",))
