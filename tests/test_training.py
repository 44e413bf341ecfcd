import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toytask
from toytask import assert_stored_as_held, mask_by_hand, pretrain, stored_moments
from sparselm.errors import ContractError
from sparselm import checkpoint as C
from sparselm import cli
from sparselm import finetune as FT
from sparselm import model as M
from sparselm import sparsity as S
from sparselm import tensor as T
from sparselm import training as TR
from sparselm.data import PackedDataset
from sparselm.tensor import Tensor


def tiny_config(**kw):
    base = dict(n_layers=1, d_model=16, n_heads=2, d_head=8, vocab_size=32, context_window=8)
    base.update(kw)
    return M.ModelConfig(**base)


def toy_dataset(vocab=32, n_rows=64, msl=8, seed=0):
    rng = np.random.default_rng(seed)
    seq = rng.integers(0, vocab, size=(n_rows, msl)).astype(np.uint32)
    return PackedDataset(sequences=seq, offsets=np.arange(n_rows, dtype=np.uint64) * msl, msl=msl)


# --------------------------------------------------------------- schedule


def test_schedule_endpoints_exact():
    sched = TR.Schedule(peak_lr=2e-4, total_steps=200_000)
    assert sched.warmup_steps == 20_000
    assert TR.lr_at(sched, 20_000) == 2e-4
    assert TR.lr_at(sched, 200_000) == 2e-5
    assert TR.lr_at(sched, 10_000) == 1e-4
    assert TR.lr_at(sched, 0) == 0.0


def test_schedule_continuous_and_monotone_after_warmup():
    sched = TR.Schedule(peak_lr=1e-3, total_steps=1000)
    values = [TR.lr_at(sched, s) for s in range(1001)]
    assert max(values) == pytest.approx(1e-3)
    post = values[sched.warmup_steps:]
    assert all(a >= b for a, b in zip(post, post[1:]))
    deltas = [abs(a - b) for a, b in zip(values, values[1:])]
    assert max(deltas) < 1e-3 / 50  # no jumps


def test_schedule_step_bounds():
    sched = TR.Schedule(peak_lr=1e-3, total_steps=100)
    with pytest.raises(ContractError):
        TR.lr_at(sched, 101)
    with pytest.raises(ContractError):
        TR.lr_at(sched, -1)


# ------------------------------------------------------------------ adamw


def scalar_store(value):
    store = M.ParamStore()
    store["w"] = Tensor(np.array([value], dtype=np.float64), requires_grad=True, dtype="float64")
    return store


def test_adamw_hand_checked_first_step():
    store = scalar_store(1.0)
    opt = TR.OptimizerState.for_params(store, weight_decay=0.1)
    grads = {"w": np.array([1.0])}
    TR.adamw_step(store, grads, opt, lr=0.1)
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8)) - 0.1 * 0.1 * 1.0
    assert store["w"].data[0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.89, abs=1e-7)


def test_adamw_zero_grads_no_decay_is_identity():
    store = scalar_store(3.0)
    opt = TR.OptimizerState.for_params(store, weight_decay=0.0)
    TR.adamw_step(store, {"w": np.array([0.0])}, opt, lr=0.5)
    assert store["w"].data[0] == 3.0


def test_adamw_masked_coordinate_stays_zero():
    mask = np.array([0.0, 1.0], dtype=np.float32)
    store = M.ParamStore()
    store["layers.0.wq"] = Tensor(np.array([3.0, 1.0], dtype=np.float32) * mask,
                                  requires_grad=True)
    masks = S.MaskSet({"layers.0.wq": S.mask_index(mask)})
    opt = TR.OptimizerState.for_params(store, weight_decay=0.1)
    for _ in range(5):
        grads = mask_by_hand({"layers.0.wq": np.array([1.0, 1.0], dtype=np.float32)}, masks)
        TR.adamw_step(store, grads, opt, lr=0.1)
    assert store["layers.0.wq"].data[0] == 0.0
    assert opt.m["layers.0.wq"][0] == 0.0 and opt.v["layers.0.wq"][0] == 0.0
    assert store["layers.0.wq"].data[1] != 1.0


def reference_adamw_step(params, grads, opt, lr, grad_clip=None):
    """The unfused update: clipping rescales the gradients in place by
    grad_clip / norm, then the textbook bias-corrected AdamW step with
    decoupled decay. Returns whether clipping fired."""
    clipped = False
    if grad_clip is not None:
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if norm > grad_clip:
            for g in grads.values():
                g *= grad_clip / norm
            clipped = True
    opt.step += 1
    bc1 = 1.0 - TR.ADAMW_BETA1 ** opt.step
    bc2 = 1.0 - TR.ADAMW_BETA2 ** opt.step
    for path, tensor in params.items():
        g = grads[path]
        m, v = opt.m[path], opt.v[path]
        m *= TR.ADAMW_BETA1
        m += (1.0 - TR.ADAMW_BETA1) * g
        v *= TR.ADAMW_BETA2
        v += (1.0 - TR.ADAMW_BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + TR.ADAMW_EPS)
        tensor.data -= lr * update + lr * opt.weight_decay * tensor.data
    return clipped


def test_fused_adamw_matches_reference_in_float64():
    rng = np.random.default_rng(5)
    shapes = {"layers.0.wq": (6, 5), "layers.0.w_ff_in": (5, 7), "tok_emb": (9, 5),
              "ln_f.gain": (5,)}
    masks = S.MaskSet({"layers.0.wq": S.mask_index((rng.random((6, 5)) > 0.5).astype(np.float64)),
                       "layers.0.w_ff_in": S.mask_index((rng.random((5, 7)) > 0.75)
                                                        .astype(np.float64))})
    # weights of magnitude 0.5-1.5 and gradients of one sign per coordinate,
    # so no value passes near zero and a relative tolerance is meaningful
    init = {p: rng.choice([-1.0, 1.0], size=s) * rng.uniform(0.5, 1.5, size=s)
            for p, s in shapes.items()}
    signs = {p: rng.choice([-1.0, 1.0], size=s) for p, s in shapes.items()}
    stores = []
    for _ in range(2):
        store = M.ParamStore()
        for p, arr in init.items():
            data = arr * masks[p] if p in masks else arr.copy()
            store[p] = Tensor(data, requires_grad=True, dtype="float64")
        stores.append(store)
    fused, reference = stores
    opt = TR.OptimizerState.for_params(fused, weight_decay=0.1)
    ref_opt = TR.OptimizerState.for_params(reference, weight_decay=0.1)
    grad_clip, fired = 1.0, []
    for step in range(20):
        scale = 3.0 if step % 3 == 0 else 0.05
        raw = {p: signs[p] * rng.uniform(0.5, 1.5, size=s) * scale for p, s in shapes.items()}
        grads = mask_by_hand({p: g.copy() for p, g in raw.items()}, masks)
        before = {p: g.copy() for p, g in grads.items()}
        norm = TR._global_grad_norm(grads)
        TR.adamw_step(fused, grads, opt, lr=1e-2,
                      clip_scale=grad_clip / norm if norm > grad_clip else 1.0)
        for p in grads:  # the fused step leaves the gradients as they were
            assert np.array_equal(grads[p], before[p]), p
        ref_grads = mask_by_hand({p: g.copy() for p, g in raw.items()}, masks)
        fired.append(reference_adamw_step(reference, ref_grads, ref_opt, 1e-2, grad_clip))
    assert any(fired) and not all(fired)
    assert opt.step == ref_opt.step == 20
    for p in shapes:
        np.testing.assert_allclose(fused[p].data, reference[p].data, rtol=1e-12, atol=0)
        np.testing.assert_allclose(opt.m[p], ref_opt.m[p], rtol=1e-12, atol=0)
        np.testing.assert_allclose(opt.v[p], ref_opt.v[p], rtol=1e-12, atol=0)
    for p in masks.paths():
        pruned = masks[p] == 0
        assert np.all(fused[p].data[pruned] == 0.0)
        assert np.all(opt.m[p][pruned] == 0.0) and np.all(opt.v[p][pruned] == 0.0)


def adamw_held_and_peak(store, grads, opt):
    """(bytes one `adamw_step` leaves allocated, its peak over what was
    allocated before it), by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        TR.adamw_step(store, grads, opt, lr=0.1)
        now, peak = tracemalloc.get_traced_memory()
        return now - before, peak - before
    finally:
        tracemalloc.stop()


# the Python objects of one update (block views, scalars, generators), and
# the freed buffers under 1 KB that numpy caches for reuse, which
# tracemalloc counts as held
ADAMW_OVERHEAD = 4096


def test_adamw_scratch_is_one_block_and_lasts_one_update():
    # one block of the largest dtype, or the largest parameter when that is
    # smaller, allocated by each update and freed when it returns
    block = TR.ADAMW_BLOCK
    for large, want in ((np.ones((4, 5)), 20 * 8),
                        (np.ones(2 * block + 5, dtype=np.float32), block * 4)):
        store = M.ParamStore()
        store["small"] = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        store["large"] = Tensor(large, requires_grad=True)
        opt = TR.OptimizerState.for_params(store)
        grads = {p: np.ones_like(t.data) for p, t in store.items()}
        for _ in range(2):
            held, peak = adamw_held_and_peak(store, grads, opt)
            assert held <= ADAMW_OVERHEAD and want <= peak <= want + ADAMW_OVERHEAD, \
                (held, peak, want)
        assert store["small"].data.dtype == np.float32


def test_masked_adamw_scratch_is_an_index_block_and_two_blocks_for_one_update():
    # a masked path's block gathers its weights beside the work block, at an
    # intp copy of the block's index, and reads its compact gradient in
    # place; the blocks count moment entries, which are the active
    # coordinates. A dense gradient for a masked path is refused.
    block = TR.ADAMW_BLOCK
    for active, entries in ((block + 3, block), (5, 5)):
        store = M.ParamStore()
        store["layers.0.wq"] = Tensor(np.ones(2 * active, dtype=np.float32), requires_grad=True)
        masks = S.MaskSet({"layers.0.wq": S.mask_index(np.arange(2 * active) % 2)})
        opt = TR.OptimizerState.for_params(store, masks)
        with pytest.raises(ContractError, match=f"'layers.0.wq': a gradient of {2 * active} "
                                                f"entries for {active} moments"):
            TR.adamw_step(store, {"layers.0.wq": np.ones(2 * active, dtype=np.float32)}, opt,
                          lr=0.1)
        assert np.all(store["layers.0.wq"].data == 1.0)
        held, peak = adamw_held_and_peak(store, {"layers.0.wq": np.ones(active, dtype=np.float32)},
                                         opt)
        want = entries * (2 * 4 + np.dtype(np.intp).itemsize)
        assert held <= ADAMW_OVERHEAD and want <= peak <= want + ADAMW_OVERHEAD, \
            (held, peak, want)
        assert np.array_equal(store["layers.0.wq"].data == 1.0, np.arange(2 * active) % 2 == 0)


def unblocked_adamw_step(params, grads, opt, lr, clip_scale):
    """`adamw_step`'s 13 in-place passes over each whole parameter at once,
    through a temporary as large as the parameter."""
    opt.step += 1
    bc1 = 1.0 - TR.ADAMW_BETA1 ** opt.step
    bc2 = 1.0 - TR.ADAMW_BETA2 ** opt.step
    m_coef = (1.0 - TR.ADAMW_BETA1) * clip_scale
    v_coef = (1.0 - TR.ADAMW_BETA2) * clip_scale * clip_scale
    step_size = lr * math.sqrt(bc2) / bc1
    eps = TR.ADAMW_EPS * math.sqrt(bc2)
    decay = 1.0 - lr * opt.weight_decay
    for path, tensor in params.items():
        g, p, m, v = grads[path], tensor.data, opt.m[path], opt.v[path]
        tmp = np.empty_like(p)
        np.multiply(g, m_coef, out=tmp)
        m *= TR.ADAMW_BETA1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= v_coef
        v *= TR.ADAMW_BETA2
        v += tmp
        np.sqrt(v, out=tmp)
        tmp += eps
        np.divide(m, tmp, out=tmp)
        tmp *= step_size
        p *= decay
        p -= tmp


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_blocked_adamw_matches_unblocked_reference_bitwise(dtype):
    # a (3, n) weight whose size is no multiple of the block, a bias, and a
    # pruned quarter of the weight; the third store's optimizer holds the
    # weight's moments at its active coordinates only, which are more than
    # one block and no multiple of it, and is given the weight's gradient
    # at those coordinates only, as `_step` forms it
    rng = np.random.default_rng(6)
    n = (2 * TR.ADAMW_BLOCK + 1234) // 3
    init = {"layers.0.wq": rng.normal(size=(3, n)), "layers.0.bq": rng.normal(size=n)}
    masks = S.MaskSet({"layers.0.wq": S.mask_index(rng.random((3, n)) > 0.25)})
    active = np.flatnonzero(masks["layers.0.wq"])
    assert (3 * n) % TR.ADAMW_BLOCK
    assert active.size > TR.ADAMW_BLOCK and active.size % TR.ADAMW_BLOCK
    stores, opts = [], []
    for opt_masks in (None, None, masks):
        store = M.ParamStore((p, Tensor(a, requires_grad=True, dtype=dtype))
                             for p, a in init.items())
        mask_by_hand({p: t.data for p, t in store.items()}, masks)
        stores.append(store)
        opts.append(TR.OptimizerState.for_params(store, opt_masks, weight_decay=0.1))
    assert opts[2].m["layers.0.wq"].shape == opts[2].v["layers.0.wq"].shape == active.shape
    for step in range(4):
        raw = {p: rng.normal(size=a.shape).astype(stores[0][p].data.dtype)
               for p, a in init.items()}
        grads = mask_by_hand({p: g.copy() for p, g in raw.items()}, masks)
        clip_scale = 0.3 if step % 2 else 1.0
        TR.adamw_step(stores[0], {p: g.copy() for p, g in grads.items()}, opts[0], 1e-2,
                      clip_scale=clip_scale)
        unblocked_adamw_step(stores[1], grads, opts[1], 1e-2, clip_scale)
        compact = dict(raw, **{"layers.0.wq": raw["layers.0.wq"].reshape(-1)[active]})
        TR.adamw_step(stores[2], compact, opts[2], 1e-2, clip_scale=clip_scale)
    expanded = {}  # the compact moments, +0.0 at pruned coordinates
    for name in ("m", "v"):
        dense = np.zeros_like(stores[2]["layers.0.wq"].data)
        dense.reshape(-1)[active] = getattr(opts[2], name)["layers.0.wq"]
        expanded[name] = dict(getattr(opts[2], name), **{"layers.0.wq": dense})
    for p in init:
        assert stores[0][p].data.dtype == stores[2][p].data.dtype == np.dtype(dtype)
        assert stores[0][p].data.tobytes() == stores[1][p].data.tobytes(), p
        assert opts[0].m[p].tobytes() == opts[1].m[p].tobytes(), p
        assert opts[0].v[p].tobytes() == opts[1].v[p].tobytes(), p
        assert stores[2][p].data.tobytes() == stores[1][p].data.tobytes(), p
        assert expanded["m"][p].tobytes() == opts[1].m[p].tobytes(), p
        assert expanded["v"][p].tobytes() == opts[1].v[p].tobytes(), p
    assert not stores[0]["layers.0.wq"].data[~masks["layers.0.wq"]].any()


# ------------------------------------------------------------------- loop


def test_pretrain_zero_steps_leaves_params():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    before = {p: t.data.copy() for p, t in params.items()}
    state = pretrain(params, cfg, toy_dataset(), TR.Schedule(1e-3, 10), 4, seed=0, n_steps=0)
    for p in before:
        assert np.array_equal(state.params[p].data, before[p])


def test_pretrain_same_seed_identical_loss():
    cfg = tiny_config()
    sched = TR.Schedule(1e-3, 5)

    def run():
        params = M.init_params(cfg, seed=1)
        return pretrain(params, cfg, toy_dataset(), sched, 4, seed=7)

    a, b = run(), run()
    assert [r.loss for r in a.trace] == [r.loss for r in b.trace]
    for p in a.params:
        assert np.array_equal(a.params[p].data, b.params[p].data)


def test_pretrain_empty_dataset_rejected():
    cfg = tiny_config()
    empty = PackedDataset(sequences=np.zeros((0, 8), dtype=np.uint32),
                          offsets=np.zeros(0, dtype=np.uint64), msl=8)
    with pytest.raises(ContractError):
        pretrain(M.init_params(cfg, seed=0), cfg, empty, TR.Schedule(1e-3, 5), 4, seed=0)


def test_mask_stationarity_through_loop(tmp_path):
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    masks = S.build_masks(params, S.SparsityPlan(level=0.5, seed=2))
    state = pretrain(params, cfg, toy_dataset(), TR.Schedule(1e-3, 30), 4, seed=0, masks=masks)
    opt_m, opt_v = stored_moments(state, tmp_path / "state.ckpt")
    for path in masks.paths():
        pruned = masks[path] == 0
        assert np.all(state.params[path].data[pruned] == 0.0)
        assert state.opt.m[path].size == state.opt.v[path].size == np.count_nonzero(~pruned)
        assert np.any(state.params[path].data[~pruned] != 0.0)
    assert_stored_as_held(opt_m, state.opt.m, masks)
    assert_stored_as_held(opt_v, state.opt.v, masks)


def test_gradient_accumulation_matches_full_batch():
    cfg = tiny_config()
    sched = TR.Schedule(1e-3, 3)
    full = pretrain(M.init_params(cfg, seed=0), cfg, toy_dataset(), sched, 8, seed=3)
    micro = pretrain(M.init_params(cfg, seed=0), cfg, toy_dataset(), sched, 8, seed=3,
                        micro_batch_size=2)
    for rec_a, rec_b in zip(full.trace, micro.trace):
        assert rec_a.loss == pytest.approx(rec_b.loss, rel=1e-5)
    for p in full.params:
        assert np.allclose(full.params[p].data, micro.params[p].data, atol=1e-6)


def test_smoothed_loss_is_ema():
    cfg = tiny_config()
    state = pretrain(M.init_params(cfg, seed=0), cfg, toy_dataset(),
                        TR.Schedule(1e-3, 4), 4, seed=0)
    ema = state.trace[0].loss
    for rec in state.trace[1:]:
        ema = 0.99 * ema + 0.01 * rec.loss
    assert state.trace[-1].smoothed == pytest.approx(ema, rel=1e-12)


def test_grad_clip_runs():
    cfg = tiny_config()

    def run(grad_clip):
        return pretrain(M.init_params(cfg, seed=0), cfg, toy_dataset(),
                           TR.Schedule(1e-2, 3), 4, seed=0, grad_clip=grad_clip)

    unclipped, clipped, loose = run(None), run(1e-3), run(1e9)
    assert clipped.step == 3
    # a clip far below the norm changes the run
    assert any(not np.array_equal(clipped.params[p].data, unclipped.params[p].data)
               for p in unclipped.params)
    # a clip above the norm never fires: the same bits as no clipping
    for p in unclipped.params:
        assert np.array_equal(loose.params[p].data, unclipped.params[p].data), p
        assert np.array_equal(loose.opt.m[p], unclipped.opt.m[p]), p
        assert np.array_equal(loose.opt.v[p], unclipped.opt.v[p]), p


def test_clipped_sparse_float32_training_keeps_pruned_coordinates_zero(monkeypatch, tmp_path):
    norms, sizes = [], []

    def recording_norm(grads, norm=TR._global_grad_norm):
        sizes.append({p: g.size for p, g in grads.items()})
        norms.append(norm(grads))
        return norms[-1]

    monkeypatch.setattr(TR, "_global_grad_norm", recording_norm)
    cfg = tiny_config(n_layers=2)
    params = M.init_params(cfg, seed=0)
    masks = S.build_masks(params, S.SparsityPlan(level=0.75, seed=3))
    state = pretrain(params, cfg, toy_dataset(), TR.Schedule(3e-3, 20), 4, seed=0,
                        masks=masks, grad_clip=0.5, micro_batch_size=2)
    assert len(norms) == 20 and any(n > 0.5 for n in norms)
    # a masked path's gradient holds its active coordinates only
    assert all(seen == {p: state.opt.m[p].size for p in state.params} for seen in sizes)
    opt_m, opt_v = stored_moments(state, tmp_path / "state.ckpt")
    for path in masks.paths():
        assert state.params[path].data.dtype == np.float32
        pruned = masks[path] == 0
        assert np.all(state.params[path].data[pruned] == 0.0), path
        assert state.opt.m[path].size == state.opt.v[path].size == np.count_nonzero(~pruned)
        assert np.any(state.params[path].data[~pruned] != 0.0), path
    assert_stored_as_held(opt_m, state.opt.m, masks)
    assert_stored_as_held(opt_v, state.opt.v, masks)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_compact_gradient_keeps_the_masked_dense_bits_and_the_norm_sums_it_as_held(
        monkeypatch, dtype):
    # one clipped step of two micro-batches: a masked path's gradient is the
    # masked dense gradient at its active coordinates, byte for byte, and
    # the clipping norm is np.dot over the gradients as the step holds them,
    # which differs from the masked dense norm only by rounding
    cfg = tiny_config(n_layers=2)
    masks = S.build_masks(M.init_params(cfg, seed=0), S.SparsityPlan(level=0.75, seed=3))
    state = TR.init_train_state(M.init_params(cfg, seed=0, dtype=dtype), cfg,
                                TR.Schedule(3e-3, 4), 4, seed=0, masks=masks, micro_batch_size=2)
    tokens = toy_dataset().sequences[:4].astype(np.int64)
    chunks = (tokens[:2], tokens[2:])
    dense = M.clone_params(state.params)
    for chunk in chunks:
        T.backward(M.lm_loss(dense, cfg, chunk), scale=0.5)
    want = mask_by_hand({p: t.grad for p, t in dense.items()}, masks)
    want_norm = math.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in want.values()))
    seen = {}

    def recording_norm(grads, norm=TR._global_grad_norm):
        seen["norm"] = norm(grads)
        return seen["norm"]

    def recording_adamw_step(params, grads, opt, lr, clip_scale=1.0, step=TR.adamw_step):
        seen.update(grads={p: g.copy() for p, g in grads.items()}, clip_scale=clip_scale)
        return step(params, grads, opt, lr, clip_scale)

    monkeypatch.setattr(TR, "_global_grad_norm", recording_norm)
    monkeypatch.setattr(TR, "adamw_step", recording_adamw_step)
    grad_clip = 0.5 * want_norm
    TR._step(state.params, state.opt, 1e-3, "step 1",
             ((M.lm_loss(state.params, cfg, chunk), 0.5) for chunk in chunks), grad_clip)
    held = math.sqrt(sum(float(np.dot(g.reshape(-1), g.reshape(-1)))
                         for g in seen["grads"].values()))
    assert seen["norm"] == held
    assert math.isclose(seen["norm"], want_norm, rel_tol=1e-6 if dtype == "float32" else 1e-12)
    assert seen["clip_scale"] == grad_clip / seen["norm"]
    assert list(seen["grads"]) == list(want)
    for p, g in want.items():
        expected = g.reshape(-1)[state.opt.index[p]] if p in masks else g
        assert seen["grads"][p].dtype == np.dtype(dtype), p
        assert seen["grads"][p].tobytes() == expected.tobytes(), p


# the clipping norm of pretrain-wide's float32 gradients (perfbench: d=256,
# 4 layers, vocab 2048), compact at s=0.75 and dense, in a fresh interpreter
# whose BLAS pool is sized before numpy loads; float32 is what every CLI run
# trains in
NORM_PROBE = textwrap.dedent("""
    import math
    import numpy as np
    from sparselm import model as M, training as TR

    cfg = M.ModelConfig(n_layers=4, d_model=256, n_heads=4, d_head=64, vocab_size=2048,
                        context_window=128)
    rng = np.random.default_rng(0)
    dense = {p: rng.standard_normal(math.prod(s), dtype=np.float32)
             for p, s, _ in M.param_specs(cfg)}
    compact = {p: g[:g.size - M.zero_count(0.75, g.size)] if M.is_sparsifiable(p) else g
               for p, g in dense.items()}
    print(max(g.size for g in dense.values()), len(dense),
          TR._global_grad_norm(compact).hex(), TR._global_grad_norm(dense).hex())
""")


def test_the_clipping_norm_keeps_its_bits_at_one_and_two_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(TR.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [subprocess.run([sys.executable, "-c", NORM_PROBE], capture_output=True, text=True,
                           timeout=120, check=True,
                           env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=n)).stdout
            for n in ("1", "2")]
    assert runs[0].split()[:2] == ["524288", "68"]
    assert runs[0] == runs[1]


def test_nonfinite_loss_stops_training_at_its_step():
    cfg = tiny_config()
    state = TR.init_train_state(M.init_params(cfg, seed=0), cfg, TR.Schedule(1e6, 20), 4, seed=0)
    with np.errstate(all="ignore"), pytest.raises(ContractError) as info:
        TR.train_steps(state, toy_dataset())
    # the failing step is named and not applied
    assert f"step {state.step + 1}:" in str(info.value)
    assert state.step < 20 and len(state.trace) == state.step


def test_nonfinite_gradient_norm_stops_clipped_training(monkeypatch):
    cfg = tiny_config()
    state = TR.init_train_state(M.init_params(cfg, seed=0), cfg, TR.Schedule(1e-3, 4), 4, seed=0)
    TR.train_steps(state, toy_dataset(), n_steps=1, grad_clip=1.0)
    monkeypatch.setattr(TR, "_global_grad_norm", lambda grads: math.inf)
    before = {p: t.data.copy() for p, t in state.params.items()}
    with pytest.raises(ContractError, match=r"step 2: gradient norm is inf"):
        TR.train_steps(state, toy_dataset(), n_steps=1, grad_clip=1.0)
    assert state.step == 1
    for p in before:
        assert np.array_equal(state.params[p].data, before[p]), p
    TR.train_steps(state, toy_dataset(), n_steps=1)  # without clipping the norm is not taken
    assert state.step == 2


def test_nonfinite_micro_batch_loss_names_the_step_and_applies_nothing(monkeypatch):
    cfg = tiny_config()
    state = TR.init_train_state(M.init_params(cfg, seed=0), cfg, TR.Schedule(1e-3, 4), 4,
                                seed=0, micro_batch_size=2)
    TR.train_steps(state, toy_dataset(), n_steps=1)
    real_loss, rows = TR.lm_loss, []

    def second_micro_batch_is_inf(params, config, tokens):
        loss = real_loss(params, config, tokens)
        rows.append(tokens.shape[0])
        if len(rows) == 2:
            loss.data[...] = np.inf
        return loss

    monkeypatch.setattr(TR, "lm_loss", second_micro_batch_is_inf)
    before = {p: t.data.tobytes() for p, t in state.params.items()}
    with pytest.raises(ContractError, match=r"^step 2: training loss is inf; training diverged$"):
        TR.train_steps(state, toy_dataset(), n_steps=1)
    assert rows == [2, 2]
    assert state.step == state.opt.step == 1 and len(state.trace) == 1
    assert {p: t.data.tobytes() for p, t in state.params.items()} == before


def test_a_train_state_has_one_step_counter():
    # the schedule position is the optimizer's update count: it is not set on
    # its own
    cfg = tiny_config()
    state = TR.init_train_state(M.init_params(cfg, seed=0), cfg, TR.Schedule(1e-3, 4), 2, seed=0)
    TR.train_steps(state, toy_dataset(), n_steps=2)
    assert state.step == state.opt.step == 2
    with pytest.raises(AttributeError):
        state.step = 7


def test_a_train_checkpoint_stores_the_update_count_once(tmp_path):
    # the step section is the count's one home: opt_meta holds only the weight
    # decay, and a load takes the optimizer's count from the step section
    cfg = tiny_config()
    state = TR.init_train_state(M.init_params(cfg, seed=0), cfg, TR.Schedule(1e-3, 4), 2, seed=0)
    TR.train_steps(state, toy_dataset(), n_steps=2)
    path = tmp_path / "t.ckpt"
    TR.save_train_state(path, state)
    sections = C.load_container(path)
    assert json.loads(sections["opt_meta"]) == {"weight_decay": state.opt.weight_decay}
    assert "seed" not in json.loads(sections["trainer"])
    assert C.decode_u64(sections["step"]) == 2
    C.save_container(path, dict(sections, step=C.encode_u64(5)))
    loaded = TR.load_train_state(path)
    assert loaded.step == loaded.opt.step == 5


# ----------------------------------------------------------------- memory


def test_init_train_state_masks_the_given_tensors_in_place():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    tensors = dict(params)
    masks = S.build_masks(params, S.SparsityPlan(level=0.5, seed=1))
    expected = S.apply_masks(masks, params)
    state = TR.init_train_state(params, cfg, TR.Schedule(1e-3, 5), 2, seed=0, masks=masks)
    assert state.params is params
    for p, t in state.params.items():
        assert t is tensors[p], p
        assert t.data.tobytes() == expected[p].data.tobytes(), p


@pytest.mark.parametrize("mask_path,shape,error", [
    ("layers.0.wq", (1, 16), r"'layers\.0\.wq' has shape \(1, 16\)"),
    ("layers.3.wq", (16, 16), r"unknown parameter 'layers\.3\.wq'"),
    ("tok_emb", (32, 16), r"mask for 'tok_emb', which is not one of the block matrices"),
])
def test_init_train_state_rejects_a_mask_that_fits_no_parameter(mask_path, shape, error):
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    before = {p: t.data.copy() for p, t in params.items()}
    masks = S.MaskSet({"layers.0.wk": S.mask_index(np.zeros((16, 16), dtype=bool)),
                       mask_path: S.mask_index(np.zeros(shape, dtype=bool))})
    with pytest.raises(ContractError, match=error):
        TR.init_train_state(params, cfg, TR.Schedule(1e-3, 5), 2, seed=0, masks=masks)
    for p in before:  # every mask is checked before any weight is touched
        assert np.array_equal(params[p].data, before[p]), p


def test_init_train_state_rejects_a_negative_seed():
    cfg = tiny_config()
    with pytest.raises(ContractError, match="seed must be >= 0, got -1"):
        TR.init_train_state(M.init_params(cfg, seed=0), cfg, TR.Schedule(1e-3, 5), 2, seed=-1)


@pytest.mark.parametrize("micro", [0, -1])
def test_init_train_state_rejects_a_micro_batch_size_below_1(tmp_path, micro):
    # 0 once meant the whole batch, and -1 ran steps of no micro-batch at all;
    # a train checkpoint that says so is refused too, naming the file
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    masks = S.build_masks(params, S.SparsityPlan(level=0.5, seed=1))
    before = {p: t.data.copy() for p, t in params.items()}
    with pytest.raises(ContractError, match=f"micro_batch_size must be >= 1.*got {micro}"):
        TR.init_train_state(params, cfg, TR.Schedule(1e-3, 5), 2, seed=0, masks=masks,
                            micro_batch_size=micro)
    for p in before:  # no weight is masked before the state is valid
        assert np.array_equal(params[p].data, before[p]), p
    path = tmp_path / "t.ckpt"
    TR.save_train_state(path, TR.init_train_state(params, cfg, TR.Schedule(1e-3, 5), 2, seed=0))
    sections = C.load_container(path)
    sections["trainer"] = C.encode_json(dict(json.loads(sections["trainer"]),
                                             micro_batch_size=micro))
    C.save_container(path, sections)
    with pytest.raises(ContractError,
                       match=f"{path}: trainer section: micro_batch_size must be >= 1"):
        TR.load_train_state(path)


def test_train_steps_leaves_no_parameter_grad():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    masks = S.build_masks(params, S.SparsityPlan(level=0.5, seed=1))
    state = TR.init_train_state(params, cfg, TR.Schedule(1e-3, 4), 4, seed=0, masks=masks,
                                micro_batch_size=2)
    TR.train_steps(state, toy_dataset(), n_steps=2, grad_clip=1.0)
    assert [p for p, t in state.params.items() if t.grad is not None] == []


def test_a_step_traces_a_bounded_peak_over_the_state():
    """One toy-config step (batch 8, s=0.5) allocates at its peak 5.7 times
    the bytes of the parameters and moments, with the tape consumed as
    backward walks it and no gradient held between steps; 8.9 times when
    the tape lives until backward returns and gradients until the next
    step."""
    cfg = toytask.toy_model_config()
    params = M.init_params(cfg, seed=0)
    masks = S.build_masks(params, S.SparsityPlan(level=0.5, seed=1))
    state = TR.init_train_state(params, cfg, TR.Schedule(1e-3, 10), 8, seed=0, masks=masks)
    data = toytask.toy_dataset(n_tokens=20_000)
    TR.train_steps(state, data, n_steps=1)  # builds the optimizer's scratch buffer
    resident = sum(a.nbytes for a in [t.data for t in state.params.values()]
                   + list(state.opt.m.values()) + list(state.opt.v.values()))
    tracemalloc.start()
    try:
        TR.train_steps(state, data, n_steps=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.0 * resident, peak / resident


# ------------------------------------------------------------ checkpoints


def test_checkpoint_resume_is_bitwise_identical(tmp_path):
    cfg = tiny_config()
    sched = TR.Schedule(1e-3, 8)
    masks = S.build_masks(M.init_params(cfg, seed=0), S.SparsityPlan(level=0.5, seed=4))

    uninterrupted = pretrain(M.init_params(cfg, seed=0), cfg, toy_dataset(), sched, 4,
                                seed=9, masks=masks)

    state = TR.init_train_state(M.init_params(cfg, seed=0), cfg, sched, 4, seed=9, masks=masks)
    TR.train_steps(state, toy_dataset(), n_steps=4)
    path = tmp_path / "mid.ckpt"
    TR.save_train_state(path, state)
    resumed = TR.load_train_state(path)
    assert resumed.step == 4
    TR.train_steps(resumed, toy_dataset(), n_steps=4)

    for p in uninterrupted.params:
        assert np.array_equal(uninterrupted.params[p].data, resumed.params[p].data), p
        assert np.array_equal(uninterrupted.opt.m[p], resumed.opt.m[p]), p
        assert np.array_equal(uninterrupted.opt.v[p], resumed.opt.v[p]), p
    assert uninterrupted.trace[-1].loss == resumed.trace[-1].loss


TRAIN_SECTIONS = ["config", "params", "step", "masks", "schedule", "opt_m", "opt_v",
                  "opt_meta", "trainer", "rng"]


def test_clipped_micro_batched_resume_is_bitwise_identical(tmp_path):
    cfg = tiny_config(n_layers=2)
    sched = TR.Schedule(3e-3, 8)
    masks = S.build_masks(M.init_params(cfg, seed=0), S.SparsityPlan(level=0.75, seed=4))
    run = dict(masks=masks, micro_batch_size=2)

    uninterrupted = pretrain(M.init_params(cfg, seed=0), cfg, toy_dataset(), sched, 4,
                                seed=9, grad_clip=0.5, **run)

    state = TR.init_train_state(M.init_params(cfg, seed=0), cfg, sched, 4, seed=9, **run)
    TR.train_steps(state, toy_dataset(), n_steps=4, grad_clip=0.5)
    path = tmp_path / "mid.ckpt"
    TR.save_train_state(path, state)
    assert list(C.load_container(path)) == TRAIN_SECTIONS
    resumed = TR.load_train_state(path)
    assert resumed.step == 4 and resumed.micro_batch_size == 2
    # the loaded optimizer trains through the loaded mask set's own index arrays
    assert resumed.opt.index.keys() == resumed.masks.index.keys()
    assert all(resumed.opt.index[p] is resumed.masks.index[p] for p in resumed.masks.paths())
    TR.train_steps(resumed, toy_dataset(), n_steps=4, grad_clip=0.5)

    for p in uninterrupted.params:
        assert np.array_equal(uninterrupted.params[p].data, resumed.params[p].data), p
        assert np.array_equal(uninterrupted.opt.m[p], resumed.opt.m[p]), p
        assert np.array_equal(uninterrupted.opt.v[p], resumed.opt.v[p]), p
    assert uninterrupted.trace[-1].loss == resumed.trace[-1].loss


def test_checkpoint_preserves_masks(tmp_path):
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    masks = S.build_masks(params, S.SparsityPlan(level=0.75, seed=1))
    state = TR.init_train_state(params, cfg, TR.Schedule(1e-3, 5), 2, seed=0, masks=masks)
    path = tmp_path / "m.ckpt"
    TR.save_train_state(path, state)
    loaded = TR.load_train_state(path)
    for p in masks.paths():
        assert np.array_equal(loaded.masks[p], masks[p])


def test_model_checkpoint_roundtrip(tmp_path):
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    path = tmp_path / "model.ckpt"
    TR.save_model_checkpoint(path, cfg, params, step=17)
    config, loaded, step, masks, _ = TR.load_model_checkpoint(path)
    assert config == cfg and step == 17 and masks is None
    for p in params:
        assert np.array_equal(loaded[p].data, params[p].data)


def test_model_checkpoint_prompt_roundtrip(tmp_path):
    cfg = tiny_config()
    prompt = FT.init_soft_prompt(cfg, 3, virtual_ids=(2, 3, 4), seed=5)
    path = tmp_path / "model.ckpt"
    TR.save_model_checkpoint(path, cfg, M.init_params(cfg, seed=0), prompt=prompt)
    *_, masks, loaded = TR.load_model_checkpoint(path)
    assert masks is None
    assert loaded.embeddings.data.dtype == prompt.embeddings.data.dtype
    assert np.array_equal(loaded.embeddings.data, prompt.embeddings.data)
    assert loaded.virtual_ids == prompt.virtual_ids


def sparse_state(steps=2):
    cfg = tiny_config()
    masks = S.build_masks(M.init_params(cfg, seed=0), S.SparsityPlan(level=0.5, seed=4))
    state = TR.init_train_state(M.init_params(cfg, seed=0), cfg, TR.Schedule(1e-3, 8), 4,
                                seed=9, masks=masks)
    return TR.train_steps(state, toy_dataset(), n_steps=steps)


def test_train_checkpoint_reads_as_model_checkpoint(tmp_path):
    state = sparse_state()
    path = tmp_path / "train.ckpt"
    TR.save_train_state(path, state)
    config, params, step, masks, prompt = TR.load_model_checkpoint(path)
    assert config == state.config and step == 2 and prompt is None
    for p in state.params:
        assert np.array_equal(params[p].data, state.params[p].data), p
    assert masks.paths() == state.masks.paths()
    for p in masks.paths():
        assert np.array_equal(masks[p], state.masks[p]), p


def test_train_checkpoint_masks_load_as_bool(tmp_path):
    state = sparse_state()
    path = tmp_path / "train.ckpt"
    TR.save_train_state(path, state)
    loaded = TR.load_train_state(path).masks
    for p in state.masks.paths():
        assert state.masks[p].dtype == loaded[p].dtype == np.bool_, p
        assert np.array_equal(loaded[p], state.masks[p]), p


@pytest.mark.parametrize("mask_path,shape,error", [
    ("layers.0.wq", (1, 16), r"'layers\.0\.wq' has shape \(1, 16\)"),
    ("layers.3.wq", (16, 16), r"unknown parameter 'layers\.3\.wq'"),
])
def test_checkpoint_mask_must_match_a_parameter(tmp_path, mask_path, shape, error):
    # the CRCs are valid: only the load's own check can catch these
    cfg = tiny_config()
    masks = S.MaskSet({mask_path: S.mask_index(np.ones(shape, dtype=bool))})
    path = tmp_path / "m.ckpt"
    TR.save_model_checkpoint(path, cfg, M.init_params(cfg, seed=0), masks=masks)
    with pytest.raises(ContractError, match=error):
        TR.load_model_checkpoint(path)


def test_sparse_checkpoints_keep_their_bytes(tmp_path):
    # fixed weights and masks of 36 and 42 entries, so each mask's last byte
    # has unused bits; the digests pin the files' bytes, whose tensor sections
    # are those from before masks were held packed, but for the train file's
    # opt_m and opt_v, which hold a masked path's moments compact, and a load,
    # which holds each mask as its int32 index, saves the same bytes
    cfg = M.ModelConfig(n_layers=1, d_model=6, n_heads=2, d_head=3, vocab_size=11,
                        context_window=5, d_ff=7)
    params = M.ParamStore(
        (path, Tensor(np.arange(math.prod(shape), dtype=np.float32).reshape(shape) / 7,
                      requires_grad=True)) for path, shape, _ in M.param_specs(cfg))
    masks = S.MaskSet({p: S.mask_index(np.arange(params[p].data.size)
                                       .reshape(params[p].data.shape) % 3 != 1)
                       for p in params.sparsifiable_paths()})
    model, train = tmp_path / "m.ckpt", tmp_path / "t.ckpt"
    TR.save_model_checkpoint(model, cfg, params, step=3, masks=masks)
    TR.save_train_state(train, TR.init_train_state(params, cfg, TR.Schedule(1e-3, 4), 2, seed=1,
                                                   masks=masks, micro_batch_size=1))
    digests = {path: hashlib.sha256(path.read_bytes()).hexdigest() for path in (model, train)}
    assert digests == {
        model: "bf4cd7d1733e61573663ab76bbf11bc4ef04f79885e21f778835b67ad390ceea",
        train: "571e4444c6cfad332c6e486235069d087f60f188dc85d7c52d787c34e7fd7e00"}
    again = tmp_path / "again.ckpt"
    TR.save_train_state(again, TR.load_train_state(train))
    assert again.read_bytes() == train.read_bytes()
    # set the unused bits of the first mask's last byte (a valid CRC): they
    # load as 0, so a re-save writes the clean file's bytes
    sections = C.load_container(model)
    header = len(b"layers.0.wq") + 2 + 1 + 2 * 4
    raw = bytearray(sections["masks"])
    raw[header + 4] |= 0xF0
    sections["masks"] = bytes(raw)
    dirty = tmp_path / "dirty.ckpt"
    C.save_container(dirty, sections)
    assert dirty.read_bytes() != model.read_bytes()
    config, loaded, step, loaded_masks, _ = TR.load_model_checkpoint(dirty)
    TR.save_model_checkpoint(again, config, loaded, step=step, masks=loaded_masks)
    assert again.read_bytes() == model.read_bytes()


def write_container(path, sections, version):
    """`save_container`'s layout at any `version`, each name encoded with
    surrogateescape so that a test can store one that is not UTF-8. Version
    1, which the kit wrote before CRCs, has neither the CRCs nor the end
    marker: its sections run to the end of the file."""
    with open(path, "wb") as fh:
        fh.write(C.MAGIC + struct.pack("<I", version))
        for name, payload in sections.items():
            chunks = [payload] if isinstance(payload, bytes) else payload
            payload = b"".join(memoryview(c).tobytes() for c in chunks)
            raw = name.encode("utf-8", "surrogateescape")
            section = struct.pack("<H", len(raw)) + raw + struct.pack("<Q", len(payload)) + payload
            fh.write(section)
            if version > 1:
                fh.write(struct.pack("<I", zlib.crc32(section)))
        if version > 1:
            fh.write(struct.pack("<HI", 0, len(sections)))


def assert_same_train_state(loaded, state):
    assert (loaded.config, loaded.schedule, loaded.step) == (state.config, state.schedule,
                                                            state.step)
    assert (loaded.batch_size, loaded.micro_batch_size, loaded.smoothed) == \
        (state.batch_size, state.micro_batch_size, state.smoothed)
    assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
    assert dataclasses.replace(loaded.opt, m=None, v=None) == \
        dataclasses.replace(state.opt, m=None, v=None)
    assert list(loaded.params) == list(state.params)
    for p in state.params:
        assert np.array_equal(loaded.params[p].data, state.params[p].data), p
        assert np.array_equal(loaded.opt.m[p], state.opt.m[p]), p
        assert np.array_equal(loaded.opt.v[p], state.opt.v[p]), p
    assert loaded.masks.paths() == state.masks.paths()
    for p in state.masks.paths():
        assert np.array_equal(loaded.masks[p], state.masks[p]), p


def test_version_1_container_is_refused(tmp_path, capsys):
    # a version-1 file of today's sections: with no CRC, a flipped byte in it
    # would load silently, so the kit reads version 2 only
    path, out = tmp_path / "v1.ckpt", tmp_path / "dense.ckpt"
    TR.save_train_state(path, sparse_state())
    write_container(path, C.load_container(path), 1)
    message = f"{path}: unsupported container version 1"
    for load in (TR.load_train_state, TR.load_model_checkpoint):
        with pytest.raises(ContractError, match=re.escape(message)):
            load(path)
    assert cli.main(["densify", "--checkpoint", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_checkpoint_with_bad_utf8_raises(tmp_path):
    # valid CRCs, so a name or path that is not UTF-8 reaches the decoder
    cfg = tiny_config()
    path, saved = tmp_path / "bad.ckpt", tmp_path / "saved.ckpt"
    sections = TR._encode_model(cfg, M.init_params(cfg, seed=0), 0)
    C.save_container(saved, sections)
    write_container(path, sections, C.FORMAT_VERSION)
    assert path.read_bytes() == saved.read_bytes()
    bad_path = C.encode_tensor_map({"abcd": np.zeros(2)})
    bad_path[0] = bad_path[0].replace(b"abcd", b"ab\xff\xfe")
    for broken, what in (({**sections, "\udcff": b""}, "section name"),
                         ({**sections, "params": bad_path}, "tensor path")):
        write_container(path, broken, C.FORMAT_VERSION)
        with pytest.raises(ContractError, match=f"checkpoint {what} is not UTF-8"):
            TR.load_model_checkpoint(path)


@functools.lru_cache(maxsize=None)
def sparse_checkpoint_bytes():
    """A real sparse train checkpoint, the offsets at which its sections end
    (the last one where the end marker ends) and the offsets of every
    header and CRC byte."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.ckpt")
        TR.save_train_state(path, sparse_state())
        with open(path, "rb") as fh:
            blob = fh.read()
    ends, framing, off = {}, list(range(12)), 12
    while True:
        (name_len,) = struct.unpack_from("<H", blob, off)
        if name_len == 0:
            framing += range(off, off + 6)
            ends["end marker"] = off + 6
            break
        name = blob[off + 2:off + 2 + name_len].decode()
        (payload_len,) = struct.unpack_from("<Q", blob, off + 2 + name_len)
        payload_at = off + 2 + name_len + 8
        framing += range(off, payload_at)
        off = payload_at + payload_len + 4
        framing += range(off - 4, off)
        ends[name] = off
    assert ends["end marker"] == len(blob)
    return blob, ends, tuple(framing)


def load_both(blob):
    """Load `blob` as a train and as a model checkpoint: the results, or the
    ContractError each raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.ckpt")
        with open(path, "wb") as fh:
            fh.write(blob)
        results = []
        for loader in (TR.load_train_state, TR.load_model_checkpoint):
            try:
                results.append(loader(path))
            except ContractError as exc:
                results.append(exc)
        return results


def test_cut_after_step_section_raises():
    # without an end marker this cut read as a dense model checkpoint
    blob, ends, _ = sparse_checkpoint_bytes()
    train, model = load_both(blob[:ends["step"]])
    assert isinstance(train, ContractError)
    assert isinstance(model, ContractError)


def test_checkpoint_without_a_whole_section_raises():
    # every remaining section keeps a valid CRC; the end marker's count is short
    blob, ends, _ = sparse_checkpoint_bytes()
    names = list(ends)
    start = ends[names[names.index("masks") - 1]]
    train, model = load_both(blob[:start] + blob[ends["masks"]:])
    assert isinstance(train, ContractError)
    assert isinstance(model, ContractError)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_truncated_checkpoint_raises_contract_error(data):
    blob, ends, _ = sparse_checkpoint_bytes()
    cut = data.draw(st.one_of(st.sampled_from(sorted(ends.values())[:-1]),
                              st.integers(0, len(blob) - 1)))
    assert all(isinstance(r, ContractError) for r in load_both(blob[:cut]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flipped_checkpoint_bytes_raise_or_load_identically(data):
    blob, _, framing = sparse_checkpoint_bytes()
    position = st.one_of(st.sampled_from(framing), st.integers(0, len(blob) - 1))
    flips = data.draw(st.lists(st.tuples(position, st.integers(1, 255)), min_size=1, max_size=3))
    bad = bytearray(blob)
    for at, mask in flips:
        bad[at] ^= mask
    train, model = load_both(bytes(bad))
    if bytes(bad) == blob:  # flips that cancel
        return
    # nothing but ContractError escapes (load_both lets any other exception
    # through); a file that does load must decode to the original arrays
    reference_train, reference_model = load_both(blob)
    if not isinstance(train, ContractError):
        assert_same_train_state(train, reference_train)
    if not isinstance(model, ContractError):
        config, params, step, masks, prompt = model
        ref_config, ref_params, ref_step, ref_masks, _ = reference_model
        assert (config, step, prompt) == (ref_config, ref_step, None)
        assert list(params) == list(ref_params)
        for p in params:
            assert np.array_equal(params[p].data, ref_params[p].data), p
        assert masks.paths() == ref_masks.paths()
        for p in masks.paths():
            assert np.array_equal(masks[p], ref_masks[p]), p


def test_save_container_failure_keeps_the_previous_file(tmp_path):
    path = tmp_path / "model.ckpt"
    cfg = tiny_config()
    TR.save_model_checkpoint(path, cfg, M.init_params(cfg, seed=0))
    before = path.read_bytes()
    # the second section's chunk is not bytes-like: the write stops after
    # the first section
    with pytest.raises(TypeError):
        C.save_container(path, {"config": C.encode_json({}), "params": [b"ok", object()]})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_corrupt_checkpoint_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ContractError):
        TR.load_model_checkpoint(path)


# ------------------------------------------------------------ loss curves


def test_loss_curve_roundtrip_exact():
    curves = {
        "dense": [(1, 4.135289573669434), (2, 3.9000001)],
        "sparse": [(1, 1 / 3)],
    }
    csv_text = TR.emit_loss_curves(curves)
    assert csv_text.splitlines()[0] == "run,step,loss"
    assert len(csv_text.strip().splitlines()) == 4
    parsed = TR.parse_loss_curves(csv_text)
    for run, points in curves.items():
        assert parsed[run] == points


def test_loss_curve_csv_golden_bytes():
    assert TR.emit_loss_curves({"dense": [(1, 4.25), (2, 0.1)], "s": [(10, 1 / 3)]}) == (
        "run,step,loss\ndense,1,4.25\ndense,2,0.1\ns,10,0.3333333333333333\n")


def test_loss_curve_two_runs_row_count():
    points = [(s, float(s)) for s in range(1, 11)]
    csv_text = TR.emit_loss_curves({"a": points, "b": points})
    assert len(csv_text.strip().splitlines()) == 21
