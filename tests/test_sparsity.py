import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselm.errors import ContractError
from sparselm import model as M
from sparselm import sparsity as S
from sparselm import training as TR
from sparselm.tensor import Tensor

from full_logits import full_logits


def tiny_config(**kw):
    base = dict(n_layers=2, d_model=8, n_heads=2, d_head=4, vocab_size=16, context_window=8)
    base.update(kw)
    return M.ModelConfig(**base)


def single_path_store(n=8):
    store = M.ParamStore()
    store["layers.0.wq"] = Tensor(np.arange(1.0, n + 1.0).reshape(1, n), requires_grad=True)
    return store


def zeros_in(masks, path):
    """The pruned entries of one path's mask, counted on its bool array."""
    return masks[path].size - np.count_nonzero(masks[path])


def test_build_masks_exact_zero_count():
    store = single_path_store(8)
    masks = S.build_masks(store, S.SparsityPlan(level=0.5, seed=0))
    assert zeros_in(masks, "layers.0.wq") == 4
    repeat = S.build_masks(store, S.SparsityPlan(level=0.5, seed=0))
    assert np.array_equal(masks["layers.0.wq"], repeat["layers.0.wq"])


def test_build_masks_seed_changes_positions():
    store = M.init_params(tiny_config(), seed=0)
    a = S.build_masks(store, S.SparsityPlan(level=0.5, seed=0))
    b = S.build_masks(store, S.SparsityPlan(level=0.5, seed=1))
    assert any(not np.array_equal(a[p], b[p]) for p in a.paths())


def test_zero_sparsity_is_all_ones():
    store = M.init_params(tiny_config(), seed=0)
    masks = S.build_masks(store, S.SparsityPlan(level=0.0, seed=0))
    for path in masks.paths():
        assert np.all(masks[path] == 1.0)


def test_plan_level_bounds():
    with pytest.raises(ContractError):
        S.SparsityPlan(level=1.0)
    with pytest.raises(ContractError):
        S.SparsityPlan(level=-0.1)
    with pytest.raises(ContractError, match="one level"):
        S.SparsityPlan(level=None)


def test_plan_seed_must_not_be_negative():
    with pytest.raises(ContractError, match="seed must be >= 0, got -1"):
        S.SparsityPlan(0.5, seed=-1)


def test_masks_cover_every_sparsifiable_path():
    store = M.init_params(tiny_config(), seed=0)
    masks = S.build_masks(store, S.SparsityPlan(level=0.25, seed=0))
    assert sorted(masks.paths()) == sorted(store.sparsifiable_paths())
    for path in masks.paths():
        assert zeros_in(masks, path) == S.zero_count(0.25, store[path].data.size)


def test_global_sparsity_hand_example():
    # round(0.75 * 8) = 6 and round(0.75 * 2) = 2 zeros (half away from
    # zero); the dense-only bias gets no mask
    store = M.ParamStore()
    store["layers.0.wq"] = Tensor(np.ones((2, 4)), requires_grad=True)
    store["layers.1.wq"] = Tensor(np.ones((1, 2)), requires_grad=True)
    store["layers.1.bq"] = Tensor(np.ones(2), requires_grad=True)
    masks = S.build_masks(store, S.SparsityPlan(level=0.75, seed=0))
    assert masks.paths() == ["layers.0.wq", "layers.1.wq"]
    assert S.global_sparsity(masks) == pytest.approx((6 + 2) / 10)


def test_global_sparsity_zero_for_all_ones():
    store = M.init_params(tiny_config(), seed=0)
    masks = S.build_masks(store, S.SparsityPlan(level=0.0, seed=0))
    assert S.global_sparsity(masks) == 0.0


def test_xl_preset_remaining_params_at_75():
    # headline size at s=0.75 is a quarter of the matrix total
    cfg = M.PRESETS["xl"]
    assert M.sparse_matrix_params(cfg, 0.75) == 301_989_888
    assert M.sparse_matrix_params(cfg, 0.75) == M.count_matrix_params(M.PRESETS["med"])


def test_remaining_params_are_the_masks_active_count():
    # one rounding rule: a count rounded over the total would say 389 for
    # the first config at s=0.1, where the masks leave 388
    for cfg in (tiny_config(n_layers=1, d_model=6, n_heads=2, d_head=3), tiny_config(),
                tiny_config(n_layers=3, d_model=10, n_heads=2, d_head=5, d_ff=7)):
        for level in (0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9):
            masks = S.build_masks(M.init_params(cfg, seed=0), S.SparsityPlan(level=level))
            assert M.sparse_matrix_params(cfg, level) == \
                sum(np.count_nonzero(masks[p]) for p in masks.paths()), (cfg, level)


def test_apply_elementwise_product():
    store = M.ParamStore()
    store["layers.0.wq"] = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]), requires_grad=True)
    masks = S.MaskSet({"layers.0.wq": S.mask_index(np.array([[1.0, 0.0, 1.0, 0.0]],
                                                            dtype=np.float32))})
    out = S.apply_masks(masks, store)
    assert np.array_equal(out["layers.0.wq"].data, [[1.0, 0.0, 3.0, 0.0]])


def test_apply_all_ones_identity():
    store = M.init_params(tiny_config(), seed=0)
    masks = S.build_masks(store, S.SparsityPlan(level=0.0, seed=0))
    out = S.apply_masks(masks, store)
    for path in store:
        assert np.array_equal(out[path].data, store[path].data)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.floats(min_value=0.0, max_value=0.99))
def test_apply_idempotent(n, level):
    store = M.ParamStore()
    store["layers.0.wq"] = Tensor(
        np.random.default_rng(n).normal(size=(1, n)), requires_grad=True
    )
    masks = S.build_masks(store, S.SparsityPlan(level=level, seed=n))
    once = S.apply_masks(masks, store)
    twice = S.apply_masks(masks, once)
    assert np.array_equal(once["layers.0.wq"].data, twice["layers.0.wq"].data)
    assert zeros_in(masks, "layers.0.wq") == S.zero_count(level, n)


def test_masks_are_held_as_their_int32_index_and_read_as_bool():
    # held as the int32 flat index of the active entries, read one path at a time as bool
    masks = S.build_masks(M.init_params(tiny_config(), seed=0), S.SparsityPlan(level=0.5, seed=1))
    assert all(masks[p].dtype == np.bool_ for p in masks.paths())
    for p in masks.paths():
        assert masks.index[p].dtype == np.int32
        assert np.array_equal(masks.index[p], np.flatnonzero(masks[p]))
    given_float = S.MaskSet({"layers.0.wq": S.mask_index(np.array([[1.0, 0.0]],
                                                                  dtype=np.float32))})
    assert given_float["layers.0.wq"].dtype == np.bool_
    assert given_float["layers.0.wq"].tolist() == [[True, False]]
    assert given_float["layers.0.wq"] is not given_float["layers.0.wq"]  # a fresh array


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bool_mask_gives_the_bits_of_a_float_mask(dtype):
    w = np.array([-1.5, -0.0, np.nan, -np.inf, 2.0, -0.0, np.nan, np.inf], dtype=dtype)
    mask = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=bool)
    g_bool, g_float = w.copy(), w.copy()
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN either way
        assert (w * mask).tobytes() == (w * mask.astype(dtype)).tobytes()
        g_bool *= mask
        g_float *= mask.astype(dtype)
    assert g_bool.dtype == dtype and g_bool.tobytes() == g_float.tobytes()


def test_densify_rejects_a_mask_of_another_shape():
    masks = S.MaskSet({"layers.0.wq": S.mask_index(np.zeros((1, 1), dtype=bool))})
    with pytest.raises(ContractError, match="mask shape"):
        S.densify(single_path_store(8), masks)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masking_through_the_index_keeps_the_bits_of_w_times_mask(dtype):
    # NaN, +-inf, +0.0 and -0.0 at pruned coordinates (and among the active
    # ones), through every way the library masks weights: apply_masks,
    # densify and init_train_state, which masks the store it is given
    cfg = tiny_config(n_layers=1)
    store = M.init_params(cfg, seed=0)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, -1.5, 2.0, -np.nan], dtype=dtype)
    for t in store.values():
        t.data = t.data.astype(dtype)
    for i, path in enumerate(sorted(store.sparsifiable_paths())):
        flat = store[path].data.reshape(-1)
        flat[:3 * len(specials)] = np.roll(np.tile(specials, 3), i)
    masks = S.build_masks(store, S.SparsityPlan(level=0.5, seed=3))
    for path in masks.paths():
        mask = masks[path].reshape(-1)
        assert not mask[:3 * len(specials)].all() and mask[:3 * len(specials)].any(), path
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN either way
        want = {p: (t.data * masks[p].astype(dtype) if p in masks else t.data).tobytes()
                for p, t in store.items()}
        applied = S.apply_masks(masks, store)
        dense = S.densify(store, masks)
        trained = TR.init_train_state(M.clone_params(store), cfg, TR.Schedule(1e-3, 4), 2,
                                      seed=0, masks=masks).params
    for got in (applied, dense, trained):
        assert {p: t.data.tobytes() for p, t in got.items()} == want
        assert all(t.data.dtype == dtype for t in got.values())


def masked_by_hand(store, masks):
    """numpy w * mask for every masked path, built without the library."""
    out = M.ParamStore()
    for path, t in store.items():
        data = t.data * masks[path] if path in masks else t.data.copy()
        out[path] = Tensor(data, requires_grad=True, dtype=t.dtype)
    return out


def test_mask_transparency_bitwise():
    # the library's materialized store == numpy w * mask, and so are its logits
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    masks = S.build_masks(store, S.SparsityPlan(level=0.5, seed=1))
    tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(2, 5))
    by_hand = masked_by_hand(store, masks)
    applied = S.apply_masks(masks, store)
    for path in store:
        assert np.array_equal(applied[path].data, by_hand[path].data)
    assert np.array_equal(full_logits(by_hand, cfg, tokens), full_logits(applied, cfg, tokens))


def test_densify_preserves_logits_and_zeros():
    cfg = tiny_config()
    store = S.apply_masks(
        S.build_masks(M.init_params(cfg, seed=0), S.SparsityPlan(level=0.5, seed=1)),
        M.init_params(cfg, seed=0),
    )
    masks = S.build_masks(store, S.SparsityPlan(level=0.5, seed=1))
    dense = S.densify(store, masks)
    tokens = np.random.default_rng(2).integers(0, cfg.vocab_size, size=(3, 6))
    before = full_logits(masked_by_hand(store, masks), cfg, tokens)
    after = full_logits(dense, cfg, tokens)
    assert np.max(np.abs(before - after)) == 0.0
    for path in masks.paths():
        pruned = masks[path] == 0
        assert np.all(dense[path].data[pruned] == 0.0)
        assert dense[path].requires_grad
