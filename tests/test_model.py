import math

import numpy as np
import pytest

from sparselm.errors import ContractError
from sparselm import model as M
from sparselm import tensor as T

from reference_forward import ref_forward
from toytask import toy_model_config


def tiny_config(**kw):
    base = dict(n_layers=1, d_model=8, n_heads=2, d_head=4, vocab_size=11, context_window=6)
    base.update(kw)
    return M.ModelConfig(**base)


def zero_store(config, dtype="float32"):
    store = M.init_params(config, seed=0, dtype=dtype)
    for t in store.values():
        t.data[...] = 0.0
    return store


# ------------------------------------------------------------------- init


def test_init_is_deterministic_per_seed():
    cfg = tiny_config()
    a = M.init_params(cfg, seed=3)
    b = M.init_params(cfg, seed=3)
    assert a.keys() == b.keys()
    for path in a:
        assert np.array_equal(a[path].data, b[path].data)


def test_init_shapes():
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    assert store["layers.0.wq"].shape == (8, 8)
    assert store["layers.0.w_ff_in"].shape == (8, 32)
    assert store["pos_emb"].shape == (6, 8)


def test_init_weight_std_near_002():
    cfg = M.ModelConfig(n_layers=1, d_model=256, n_heads=4, d_head=64,
                        vocab_size=64, context_window=8)
    store = M.init_params(cfg, seed=0)
    std = store["layers.0.wq"].data.std()
    assert abs(std - 0.02) / 0.02 < 0.10


def test_init_residual_projections_scaled():
    cfg = M.ModelConfig(n_layers=8, d_model=128, n_heads=4, d_head=32,
                        vocab_size=32, context_window=8)
    store = M.init_params(cfg, seed=0)
    expected = 0.02 / math.sqrt(2 * 8)
    std = store["layers.0.wo"].data.std()
    assert abs(std - expected) / expected < 0.10


def test_sparsifiable_path_set():
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    got = {p.rsplit(".", 1)[-1] for p in store.sparsifiable_paths()}
    assert got == set(M.SPARSIFIABLE_ROLES)
    assert not M.is_sparsifiable("tok_emb")
    assert not M.is_sparsifiable("layers.0.bq")
    assert not M.is_sparsifiable("layers.0.ln1.gain")


# ----------------------------------------------------------------- counts


@pytest.mark.parametrize(
    "preset,expected",
    [("med", 301_989_888), ("large", 509_607_936), ("xl", 1_207_959_552)],
)
def test_matrix_param_counts_match_presets(preset, expected):
    cfg = M.PRESETS[preset]
    assert M.count_matrix_params(cfg) == expected
    assert expected == 12 * cfg.n_layers * cfg.d_model**2


@pytest.mark.parametrize(
    "preset,arch",
    [("med", (24, 1024, 16, 64)), ("large", (18, 1536, 12, 128)), ("xl", (24, 2048, 16, 128))],
)
def test_preset_architecture_rows(preset, arch):
    cfg = M.PRESETS[preset]
    assert (cfg.n_layers, cfg.d_model, cfg.n_heads, cfg.d_head) == arch
    assert cfg.d_ff == 4 * cfg.d_model
    assert cfg.context_window == 1024
    assert cfg.vocab_size == 42384


def test_count_params_matches_store_sum():
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    assert M.count_params(cfg) == sum(t.data.size for t in store.values())


@pytest.mark.parametrize("s,expected", [(0.5, 603_979_776), (0.75, 301_989_888)])
def test_sparse_matrix_params_xl(s, expected):
    assert M.sparse_matrix_params(M.PRESETS["xl"], s) == expected


def test_config_contracts():
    with pytest.raises(ContractError):
        M.ModelConfig(n_layers=1, d_model=8, n_heads=3, d_head=4,
                      vocab_size=4, context_window=4)
    with pytest.raises(ContractError):
        M.ModelConfig(n_layers=1, d_model=8, n_heads=2, d_head=4,
                      vocab_size=4, context_window=0)


@pytest.mark.parametrize("field", ["n_layers", "d_model", "vocab_size", "context_window",
                                   "d_ff"])
@pytest.mark.parametrize("value", [True, 1.5, "2"])
def test_config_rejects_a_bool_a_float_and_a_str_in_an_int_field(field, value):
    fields = dict(n_layers=1, d_model=8, n_heads=2, d_head=4, vocab_size=4, context_window=4)
    with pytest.raises(ContractError, match=f"{field} must be a positive int"):
        M.ModelConfig(**dict(fields, **{field: value}))


@pytest.mark.parametrize("value", [1, "no", None])
def test_config_rejects_a_tie_embeddings_that_is_not_a_bool(value):
    with pytest.raises(ContractError, match="tie_embeddings must be a bool"):
        M.ModelConfig(n_layers=1, d_model=8, n_heads=2, d_head=4, vocab_size=4,
                      context_window=4, tie_embeddings=value)


def test_d_ff_defaults_to_4x():
    assert tiny_config().d_ff == 32
    assert M.ModelConfig(n_layers=1, d_model=8, n_heads=2, d_head=4, vocab_size=4,
                         context_window=4, d_ff=16).d_ff == 16


# ---------------------------------------------------------------- forward


def test_forward_output_shape():
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    logits = M.forward_logits(store, cfg, [[1, 2, 3], [4, 5, 6]])
    assert logits.shape == (2, 3, cfg.vocab_size)


def test_forward_zero_head_gives_zero_logits():
    cfg = tiny_config(tie_embeddings=False)
    store = M.init_params(cfg, seed=0)
    store["lm_head"].data[...] = 0.0
    logits = M.forward_logits(store, cfg, [[1, 2, 3]])
    assert np.all(logits.data == 0.0)


def test_forward_rejects_long_sequences_and_bad_ids():
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    with pytest.raises(ContractError):
        M.forward_logits(store, cfg, [list(range(7))])
    with pytest.raises(ContractError):
        M.forward_logits(store, cfg, [[0, cfg.vocab_size]])


def test_forward_is_the_one_gate_for_a_token_batch():
    # `tensor.embedding` takes the ids as they are
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    for bad in ([[0, 11]], [[-1, 0]]):
        with pytest.raises(ContractError, match=r"^token id outside \[0, 11\)$"):
            M.forward_logits(store, cfg, bad)
    with pytest.raises(ContractError, match=r"^tokens must be \(batch, seq\), got shape \(2,\)$"):
        M.forward_logits(store, cfg, [0, 1])


def test_causality_perturbation():
    cfg = tiny_config(n_layers=2, context_window=8)
    store = M.init_params(cfg, seed=1)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, cfg.vocab_size, size=(2, 8))
    with T.no_grad():
        base = M.forward_logits(store, cfg, tokens).data
    for t in range(7):
        perturbed = tokens.copy()
        perturbed[:, t + 1:] = rng.integers(0, cfg.vocab_size, size=perturbed[:, t + 1:].shape)
        with T.no_grad():
            got = M.forward_logits(store, cfg, perturbed).data
        assert np.array_equal(base[:, : t + 1], got[:, : t + 1])


def test_forward_matches_reference_implementation():
    cfg = M.ModelConfig(n_layers=2, d_model=16, n_heads=2, d_head=8,
                        vocab_size=13, context_window=10)
    store = M.init_params(cfg, seed=5, dtype="float64")
    raw = {p: t.data for p, t in store.items()}
    tokens = np.random.default_rng(2).integers(0, 13, size=(3, 7))
    with T.no_grad():
        got = M.forward_logits(store, cfg, tokens).data
    want = ref_forward(raw, cfg, tokens)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------- lm loss


def test_lm_loss_uniform_for_zero_params():
    cfg = tiny_config(vocab_size=4)
    store = zero_store(cfg)
    loss = M.lm_loss(store, cfg, [[0, 1, 2], [3, 2, 1]])
    assert loss.item() == pytest.approx(math.log(4.0), abs=1e-6)


def test_lm_loss_batch_permutation_invariant():
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0, dtype="float64")
    rng = np.random.default_rng(1)
    batch = rng.integers(0, cfg.vocab_size, size=(4, 5))
    with T.no_grad():
        a = M.lm_loss(store, cfg, batch).item()
        b = M.lm_loss(store, cfg, batch[::-1].copy()).item()
    assert a == pytest.approx(b, abs=1e-12)


def test_lm_loss_matches_bruteforce_two_token_sequence():
    # 1-layer, d=2, V=3: p(u2 | u1) computed from the reference forward pass.
    cfg = M.ModelConfig(n_layers=1, d_model=2, n_heads=1, d_head=2,
                        vocab_size=3, context_window=4)
    store = M.init_params(cfg, seed=9, dtype="float64")
    raw = {p: t.data for p, t in store.items()}
    tokens = np.array([[1, 2]])
    logits = ref_forward(raw, cfg, tokens)[0, 0]
    z = logits - logits.max()
    probs = np.exp(z) / np.exp(z).sum()
    expected = -math.log(probs[2])
    with T.no_grad():
        got = M.lm_loss(store, cfg, tokens).item()
    assert got == pytest.approx(expected, rel=1e-10)


def test_lm_loss_tape_stays_small():
    # one embedding node (positions and prompt folded in), two per layer
    # (the attention and the feed-forward sublayer, each with its LayerNorm
    # and residual add), the final norm and the fused head loss
    cfg = toy_model_config()
    store = M.init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, cfg.vocab_size, size=(8, cfg.context_window))
    prompt = T.Tensor(rng.normal(size=(3, cfg.d_model)).astype(np.float32), requires_grad=True)
    prompted = tokens.copy()
    prompted[:, :3] = (2, 3, 4)
    forwards = [
        lambda: M.lm_loss(store, cfg, tokens),
        lambda: M.next_token_loss(store, cfg, M.forward_logits(
            store, cfg, prompted, M.SoftPrompt(prompt, (2, 3, 4)), head=False), prompted),
    ]
    for forward in forwards:
        T.reset_tape()
        forward()
        nodes = T.tape_size()
        T.reset_tape()
        assert nodes == 7
    wide = M.ModelConfig(n_layers=4, d_model=256, n_heads=4, d_head=64, vocab_size=2048,
                         context_window=128)
    T.reset_tape()
    M.lm_loss(M.init_params(wide, seed=0), wide, rng.integers(0, 2048, size=(1, 128)))
    nodes = T.tape_size()
    T.reset_tape()
    assert nodes == 11


def test_lm_loss_needs_two_tokens():
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    with pytest.raises(ContractError):
        M.lm_loss(store, cfg, [[1]])


def test_clone_params_is_independent():
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    copy = M.clone_params(store)
    copy["tok_emb"].data[...] = 0.0
    assert not np.array_equal(store["tok_emb"].data, copy["tok_emb"].data)
