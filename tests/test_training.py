import dataclasses
import functools
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselm.errors import ContractError
from sparselm import checkpoint as C
from sparselm import finetune as FT
from sparselm import model as M
from sparselm import sparsity as S
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
    masks = S.MaskSet(masks={"layers.0.wq": mask}, plan=S.SparsityPlan(level=0.5))
    opt = TR.OptimizerState.for_params(store, weight_decay=0.1)
    for _ in range(5):
        grads = S.mask_gradients({"layers.0.wq": np.array([1.0, 1.0], dtype=np.float32)}, masks)
        TR.adamw_step(store, grads, opt, lr=0.1)
    assert store["layers.0.wq"].data[0] == 0.0
    assert opt.m["layers.0.wq"][0] == 0.0 and opt.v["layers.0.wq"][0] == 0.0
    assert store["layers.0.wq"].data[1] != 1.0


# ------------------------------------------------------------------- loop


def test_pretrain_zero_steps_leaves_params():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    before = {p: t.data.copy() for p, t in params.items()}
    state = TR.pretrain(params, cfg, toy_dataset(), TR.Schedule(1e-3, 10), 4, seed=0, n_steps=0)
    for p in before:
        assert np.array_equal(state.params[p].data, before[p])


def test_pretrain_same_seed_identical_loss():
    cfg = tiny_config()
    sched = TR.Schedule(1e-3, 5)

    def run():
        params = M.init_params(cfg, seed=1)
        return TR.pretrain(params, cfg, toy_dataset(), sched, 4, seed=7)

    a, b = run(), run()
    assert [r.loss for r in a.trace] == [r.loss for r in b.trace]
    for p in a.params:
        assert np.array_equal(a.params[p].data, b.params[p].data)


def test_pretrain_empty_dataset_rejected():
    cfg = tiny_config()
    empty = PackedDataset(sequences=np.zeros((0, 8), dtype=np.uint32),
                          offsets=np.zeros(0, dtype=np.uint64), msl=8)
    with pytest.raises(ContractError):
        TR.pretrain(M.init_params(cfg, seed=0), cfg, empty, TR.Schedule(1e-3, 5), 4, seed=0)


def test_mask_stationarity_through_loop():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    masks = S.build_masks(params, S.SparsityPlan(level=0.5, seed=2))
    state = TR.pretrain(params, cfg, toy_dataset(), TR.Schedule(1e-3, 30), 4, seed=0, masks=masks)
    for path in masks.paths():
        pruned = masks[path] == 0
        assert np.all(state.params[path].data[pruned] == 0.0)
        assert np.all(state.opt.m[path][pruned] == 0.0)
        assert np.all(state.opt.v[path][pruned] == 0.0)
        assert np.any(state.params[path].data[~pruned] != 0.0)


def test_gradient_accumulation_matches_full_batch():
    cfg = tiny_config()
    sched = TR.Schedule(1e-3, 3)
    full = TR.pretrain(M.init_params(cfg, seed=0), cfg, toy_dataset(), sched, 8, seed=3)
    micro = TR.pretrain(M.init_params(cfg, seed=0), cfg, toy_dataset(), sched, 8, seed=3,
                        micro_batch_size=2)
    for rec_a, rec_b in zip(full.trace, micro.trace):
        assert rec_a.loss == pytest.approx(rec_b.loss, rel=1e-5)
    for p in full.params:
        assert np.allclose(full.params[p].data, micro.params[p].data, atol=1e-6)


def test_smoothed_loss_is_ema():
    cfg = tiny_config()
    state = TR.pretrain(M.init_params(cfg, seed=0), cfg, toy_dataset(),
                        TR.Schedule(1e-3, 4), 4, seed=0)
    ema = state.trace[0].loss
    for rec in state.trace[1:]:
        ema = 0.99 * ema + 0.01 * rec.loss
    assert state.trace[-1].smoothed == pytest.approx(ema, rel=1e-12)


def test_grad_clip_runs():
    cfg = tiny_config()
    state = TR.pretrain(M.init_params(cfg, seed=0), cfg, toy_dataset(),
                        TR.Schedule(1e-2, 3), 4, seed=0, grad_clip=0.1)
    assert state.step == 3


# ------------------------------------------------------------ checkpoints


def test_checkpoint_resume_is_bitwise_identical(tmp_path):
    cfg = tiny_config()
    sched = TR.Schedule(1e-3, 8)
    masks = S.build_masks(M.init_params(cfg, seed=0), S.SparsityPlan(level=0.5, seed=4))

    uninterrupted = TR.pretrain(M.init_params(cfg, seed=0), cfg, toy_dataset(), sched, 4,
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
    assert loaded.masks.plan.level == 0.75


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


def test_train_checkpoint_in_older_layout_loads(tmp_path):
    # the earlier layout: train sections first, the step both in `trainer`
    # and in a `step` section after `rng`, masks and plan last
    state = sparse_state()
    opt, plan = state.opt, state.masks.plan
    path = tmp_path / "old.ckpt"
    C.save_container(path, {
        "config": C.encode_json(dataclasses.asdict(state.config)),
        "schedule": C.encode_json(dataclasses.asdict(state.schedule)),
        "params": C.encode_tensor_map({p: t.data for p, t in state.params.items()}),
        "opt_m": C.encode_tensor_map(opt.m),
        "opt_v": C.encode_tensor_map(opt.v),
        "opt_meta": C.encode_json({"step": opt.step, "beta1": opt.beta1, "beta2": opt.beta2,
                                   "eps": opt.eps, "weight_decay": opt.weight_decay}),
        "trainer": C.encode_json({"step": state.step, "batch_size": state.batch_size,
                                  "micro_batch_size": state.micro_batch_size,
                                  "seed": state.seed, "smoothed": state.smoothed}),
        "rng": C.encode_json(state.rng.bit_generator.state),
        "step": C.encode_u64(state.step),
        "masks": C.encode_bitset_map(state.masks.masks),
        "plan": C.encode_json({"level": plan.level, "levels": plan.levels, "seed": plan.seed,
                               "resolved": state.masks.levels}),
    })
    loaded = TR.load_train_state(path)
    assert (loaded.config, loaded.schedule, loaded.step) == (state.config, state.schedule, 2)
    assert (loaded.batch_size, loaded.micro_batch_size, loaded.seed, loaded.smoothed) == \
        (state.batch_size, state.micro_batch_size, state.seed, state.smoothed)
    assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
    assert dataclasses.replace(loaded.opt, m=None, v=None) == \
        dataclasses.replace(state.opt, m=None, v=None)
    for p in state.params:
        assert np.array_equal(loaded.params[p].data, state.params[p].data), p
        assert np.array_equal(loaded.opt.m[p], state.opt.m[p]), p
        assert np.array_equal(loaded.opt.v[p], state.opt.v[p]), p
    assert loaded.masks.plan == plan and loaded.masks.levels == state.masks.levels
    for p in state.masks.paths():
        assert np.array_equal(loaded.masks[p], state.masks[p]), p


@functools.lru_cache(maxsize=None)
def sparse_checkpoint_bytes():
    """A real sparse train checkpoint and the offsets at which its sections end."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.ckpt")
        TR.save_train_state(path, sparse_state())
        with open(path, "rb") as fh:
            blob = fh.read()
    ends, off = [], 12
    while off < len(blob):
        (name_len,) = struct.unpack_from("<H", blob, off)
        (payload_len,) = struct.unpack_from("<Q", blob, off + 2 + name_len)
        off += 2 + name_len + 8 + payload_len
        ends.append(off)
    return blob, tuple(ends)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_truncated_checkpoint_raises_contract_error(data):
    blob, ends = sparse_checkpoint_bytes()
    cut = data.draw(st.one_of(st.sampled_from(ends[:-1]), st.integers(0, len(blob) - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cut.ckpt")
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        # the train sections come last, so every cut loses part of them
        with pytest.raises(ContractError):
            TR.load_train_state(path)
        try:
            TR.load_model_checkpoint(path)
        except ContractError:
            pass


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


def test_loss_curve_two_runs_row_count():
    points = [(s, float(s)) for s in range(1, 11)]
    csv_text = TR.emit_loss_curves({"a": points, "b": points})
    assert len(csv_text.strip().splitlines()) == 21
