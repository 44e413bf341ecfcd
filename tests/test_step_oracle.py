"""One whole float64 `training._step` against computations that share none
of its code: the loss from the tape-free `reference_forward`, the gradient
from central differences of that loss, and the update from the unfused
AdamW of `test_training.reference_adamw_step`.

The step runs as `train_steps` runs it: masks, whose paths get gradients
and moments at their active coordinates only, two micro-batches of unequal
size (shares 2/3 and 1/3), each forward after the previous backward, and
clipping that fires. The moments start nonzero at step 3, so the clip
scale does not cancel out of the update as it would from zero moments.
The oracles work on dense arrays, 0.0 at pruned coordinates.
"""

import numpy as np

from reference_forward import ref_forward
from sparselm import model as M
from sparselm import sparsity as S
from sparselm import training as TR
from test_training import reference_adamw_step
from toytask import mask_by_hand

EPS = 1e-6
TOL = 1e-8
LR = 1e-2


def config():
    return M.ModelConfig(n_layers=1, d_model=8, n_heads=2, d_head=4, vocab_size=16,
                         context_window=6)


def ref_loss(arrays, cfg, tokens):
    """Mean next-token negative log-likelihood over every row, no tape."""
    logits = ref_forward(arrays, cfg, tokens)[:, :-1]
    top = logits.max(axis=-1, keepdims=True)
    logp = logits - top - np.log(np.exp(logits - top).sum(axis=-1, keepdims=True))
    rows, cols = np.indices(tokens[:, 1:].shape)
    return -logp[rows, cols, tokens[:, 1:]].mean()


def ref_gradient(arrays, cfg, tokens, masks):
    """Central differences of `ref_loss` at every active coordinate; 0 at pruned ones."""
    grads = {}
    for path, a in arrays.items():
        g = np.zeros_like(a)
        active = masks[path] if path in masks else np.ones(a.shape, dtype=bool)
        for index in zip(*np.nonzero(active)):
            held = a[index]
            a[index] = held + EPS
            up = ref_loss(arrays, cfg, tokens)
            a[index] = held - EPS
            down = ref_loss(arrays, cfg, tokens)
            a[index] = held
            g[index] = (up - down) / (2 * EPS)
        grads[path] = g
    return grads


def test_one_training_step_matches_the_float64_oracles(monkeypatch):
    cfg = config()
    rng = np.random.default_rng(0)
    params = M.init_params(cfg, seed=0, dtype="float64")
    for path, t in params.items():  # unit scale, so no gradient is near 0
        t.data[...] = (1.0 if path.endswith("gain") else 0.0) + rng.normal(0.0, 0.4, t.shape)
    masks = S.build_masks(params, S.SparsityPlan(level=0.5, seed=1))
    mask_by_hand({p: t.data for p, t in params.items()}, masks)
    ref_m, ref_v = {}, {}
    for p, t in params.items():
        ref_m[p] = rng.normal(0.0, 0.1, t.shape)
        ref_v[p] = rng.uniform(0.01, 0.1, t.shape)
    mask_by_hand(ref_m, masks)
    mask_by_hand(ref_v, masks)
    opt = TR.OptimizerState.for_params(params, masks)
    opt.step = 3

    def active(p, a):
        """`a`, dense, at the coordinates `opt` holds for path p."""
        return a.reshape(-1)[opt.index[p]] if p in opt.index else a

    for p in params:
        opt.m[p][...] = active(p, ref_m[p])
        opt.v[p][...] = active(p, ref_v[p])
    ref_params = M.clone_params(params)
    ref_opt = TR.OptimizerState(m=ref_m, v=ref_v, step=opt.step)
    tokens = rng.integers(0, cfg.vocab_size, size=(3, cfg.context_window))

    arrays = {p: t.data.copy() for p, t in params.items()}
    want_loss = ref_loss(arrays, cfg, tokens)
    want_grads = ref_gradient(arrays, cfg, tokens, masks)
    norm = np.sqrt(sum((g * g).sum() for g in want_grads.values()))
    grad_clip = 0.5 * norm

    seen = {}

    def recording_adamw_step(params, grads, opt, lr, clip_scale=1.0):
        seen.update(grads={p: g.copy() for p, g in grads.items()}, clip_scale=clip_scale)
        return adamw_step(params, grads, opt, lr, clip_scale)

    adamw_step = TR.adamw_step
    monkeypatch.setattr(TR, "adamw_step", recording_adamw_step)
    chunks = (tokens[:2], tokens[2:])
    loss = TR._step(params, opt, LR, "step 4",
                    ((M.lm_loss(params, cfg, chunk), len(chunk) / len(tokens))
                     for chunk in chunks), grad_clip)

    assert abs(loss - want_loss) <= TOL
    assert set(seen["grads"]) == set(want_grads)
    for p, g in seen["grads"].items():
        want = active(p, want_grads[p])
        assert g.shape == want.shape, p
        assert np.abs(g - want).max() <= TOL, p
    assert abs(seen["clip_scale"] - grad_clip / norm) <= TOL

    assert reference_adamw_step(ref_params, want_grads, ref_opt, LR, grad_clip)  # clipping fired
    for p, t in params.items():
        assert np.abs(t.data - ref_params[p].data).max() <= TOL, p
        assert np.abs(opt.m[p] - active(p, ref_opt.m[p])).max() <= TOL, p
        assert np.abs(opt.v[p] - active(p, ref_opt.v[p])).max() <= TOL, p
        assert t.grad is None and t.grad_index is None, p
    for p in masks.paths():
        pruned = ~masks[p]
        assert pruned.any()
        assert opt.m[p].size == opt.v[p].size == np.count_nonzero(~pruned), p
        for a in (params[p].data, ref_opt.m[p], ref_opt.v[p]):
            assert np.all(a[pruned] == 0.0), p
