"""What a training forward, a mask set, a train state, a sparse step and a
fine-tune's epoch selection hold, measured with tracemalloc."""

import tracemalloc
from array import array

import numpy as np

from sparselm import checkpoint as C
from sparselm import data as D
from sparselm import finetune as FT
from sparselm import model as M
from sparselm import sparsity as S
from sparselm import tensor as T
from sparselm import training as TR
from sparselm.data import PackedDataset

CFG = M.ModelConfig(n_layers=2, d_model=32, n_heads=4, d_head=8, vocab_size=64,
                    context_window=32, d_ff=128)
BATCH = 4
# Python objects per tape node: tensors, closures and array headers, about
# 1.5 KB on CPython 3.11; a block's LayerNorm and GELU outputs are 98 KB here
NODE_OVERHEAD = 4096
# Python objects per parameter of a train state: its Tensor, the headers of its
# weight and two moment arrays, dict entries and the RNG's share; about 620 bytes
PARAM_OVERHEAD = 1024
# Python objects per path of a mask set: its shape tuple, the header of its
# index array and dict entries; about 300 bytes
MASK_OVERHEAD = 512
# one StepRecord with its float fields, and its slot in the trace list; about 300 bytes
TRACE_RECORD_BYTES = 512
# what a fine-tune allocates between an epoch's metric and the next batch's
# forward besides a copy of the weights: the epoch's record and the next
# epoch's padded batches; about 2 KB here
EPOCH_TURN_BYTES = 65536
# numpy keeps freed buffers under 1 KB in per-size caches for reuse, and
# tracemalloc counts them as held: 1.5-6.5 KB over one step here, twice
# that allowed; a kept AdamW buffer would be 256 KiB
NUMPY_CACHE_BYTES = 16384
# Python objects per encoded document: the array('I') object and its list
# slot; 88 bytes on CPython 3.11
DOC_OVERHEAD = 128


def held_bytes(make):
    """(result of make(), bytes still allocated after it returns that were not before)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = make()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def needed_bytes(cfg, batch):
    """What the backward of the grad-mode `lm_loss` forward reads: per block
    the two sublayer ops' saved arrays and outputs, plus the embedding's
    output and the head op with its logits. No LayerNorm keeps its xhat,
    which the backward rebuilds from its input, and the final LayerNorm's
    output exists only as the head's rows."""
    n, t, d, f = batch * cfg.context_window, cfg.context_window, cfg.d_model, cfg.d_ff
    attention = (2 * n                # LayerNorm's row mean and inv
                 + 3 * n * d          # Q, K and V
                 + batch * cfg.n_heads * t * t  # the softmax
                 + n * d              # the attention output
                 + n * d)             # the op's output
    feed_forward = (2 * n             # LayerNorm's row mean and inv
                    + 2 * n * f       # GELU's pre-activation and CDF
                    + n * d)          # the op's output
    scored = batch * (t - 1)
    head = (n * d                     # the embedding's output
            + 2 * scored              # the final LayerNorm's row mean and inv, scored rows only
            + scored * cfg.vocab_size + scored * d)  # the head's logits and rows
    floats = cfg.n_layers * (attention + feed_forward) + head
    return 4 * floats + 8 * 2 * scored  # float32, and the head's int64 row and target ids


def test_a_training_forward_holds_what_its_backward_needs():
    params = M.init_params(CFG, seed=0)
    tokens = np.random.default_rng(0).integers(0, CFG.vocab_size, size=(BATCH, CFG.context_window))
    T.backward(M.lm_loss(params, CFG, tokens))  # first-call caches
    for t in params.values():
        t.grad = None
    loss, held = held_bytes(lambda: M.lm_loss(params, CFG, tokens))
    nodes = T.tape_size()
    assert nodes == 2 * CFG.n_layers + 2
    # one op per LayerNorm: neither LayerNorm output nor the GELU output of a
    # block is held, which would add 2*n*d + n*f floats per block, nor the
    # final LayerNorm's output beside the head's rows, nor any LayerNorm's
    # xhat, n*d floats each
    assert held <= needed_bytes(CFG, BATCH) + NODE_OVERHEAD * nodes, held
    T.backward(loss)


def active_entries(masks):
    return sum(np.count_nonzero(masks[p]) for p in masks.paths())


def test_a_mask_set_holds_one_int32_per_active_entry():
    params = M.init_params(CFG, seed=0)
    masks, held = held_bytes(lambda: S.build_masks(params, S.SparsityPlan(level=0.5, seed=1)))
    active = active_entries(masks)
    assert held <= 4 * active + MASK_OVERHEAD * len(masks.paths()), (held, active)
    for p in masks.paths():
        assert masks[p].dtype == np.bool_ and masks[p].shape == params[p].data.shape
        assert masks[p].size - np.count_nonzero(masks[p]) == S.zero_count(0.5, params[p].data.size)


def test_a_sparse_train_state_holds_moments_of_the_active_coordinates_only():
    # at s=0.75 a masked path's moments and its int32 index of active
    # coordinates take 2*4 + 4 bytes per active entry, against 2*4 per entry
    # for moments of the parameter's shape
    masks = S.build_masks(M.init_params(CFG, seed=0), S.SparsityPlan(level=0.75, seed=1))
    state, held = held_bytes(lambda: TR.init_train_state(
        M.init_params(CFG, seed=0), CFG, TR.Schedule(1e-3, 4), BATCH, seed=0, masks=masks))
    entries = sum(t.data.size for t in state.params.values())
    active = active_entries(masks)
    unmasked = sum(t.data.size for p, t in state.params.items() if p not in masks)
    for p, t in state.params.items():
        size = np.count_nonzero(masks[p]) if p in masks else t.data.size
        assert state.opt.m[p].size == state.opt.v[p].size == size, p
    # the optimizer's index arrays are the mask set's: the state holds each once
    assert all(state.opt.index[p] is masks.index[p] for p in masks.paths())
    bound = 4 * entries + 2 * 4 * (active + unmasked) + 4 * active  # weights, moments, index
    assert held <= bound + PARAM_OVERHEAD * len(state.params), (held, bound)


def test_a_clipped_micro_batched_sparse_step_forms_only_compact_weight_gradients(monkeypatch):
    # at s=0.75 a masked matrix's gradient is gathered at its active
    # coordinates as each weight-gradient GEMM forms it, so over the state a
    # step holds at its peak the gradients (compact for a masked path), one
    # micro-batch's activations and one dense weight gradient with its
    # gather (an intp copy of the index and the gathered entries: 0.75 of
    # the dense bytes at s=0.75), under twice the largest masked matrix.
    # Dense gradients of the masked matrices would add 3x their compact bytes.
    cfg = M.ModelConfig(n_layers=1, d_model=256, n_heads=4, d_head=64, vocab_size=32,
                        context_window=8)
    batch, micro = 2, 1
    params = M.init_params(cfg, seed=0)
    masks = S.build_masks(params, S.SparsityPlan(level=0.75, seed=1))
    state = TR.init_train_state(params, cfg, TR.Schedule(1e-3, 4), batch, seed=0, masks=masks,
                                micro_batch_size=micro)
    rows = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(8, cfg.context_window))
    data = PackedDataset(sequences=rows.astype(np.uint32), msl=cfg.context_window,
                         offsets=np.arange(len(rows), dtype=np.uint64) * cfg.context_window)
    scales = []

    def recording_adamw_step(params, grads, opt, lr, clip_scale=1.0, step=TR.adamw_step):
        scales.append(clip_scale)
        return step(params, grads, opt, lr, clip_scale)

    monkeypatch.setattr(TR, "adamw_step", recording_adamw_step)
    TR.train_steps(state, data, n_steps=1, grad_clip=1e-3)  # first-call allocations
    tracemalloc.start()
    try:
        TR.train_steps(state, data, n_steps=1, grad_clip=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scales) == 2 and scales[-1] < 1.0  # clipping fired
    active = active_entries(masks)
    unmasked = sum(t.data.size for p, t in params.items() if p not in masks)
    largest = max(params[p].data.nbytes for p in masks.paths())
    activations = needed_bytes(cfg, micro) + NODE_OVERHEAD * (2 * cfg.n_layers + 2)
    bound = 4 * (unmasked + active) + 2 * largest + activations
    assert peak <= bound, (peak, bound)


def test_a_micro_batched_step_adds_the_tied_heads_gradient_a_block_at_a_time():
    # the second micro-batch's head gradient, `gy.T @ rows` of the tied
    # (vocab, d) table, is added into tok_emb.grad a block of rows at a
    # time, so over the state a step holds at its peak the dense gradients,
    # one micro-batch's activations and one block of GRAD_BLOCK bytes (with
    # the head's input gradient, 2*n*d floats). A whole second head
    # gradient, 1 MiB here, does not fit under the bound.
    cfg = M.ModelConfig(n_layers=1, d_model=128, n_heads=2, d_head=64, vocab_size=2048,
                        context_window=16)
    batch, micro = 2, 1
    params = M.init_params(cfg, seed=0)
    state = TR.init_train_state(params, cfg, TR.Schedule(1e-3, 4), batch, seed=0,
                                micro_batch_size=micro)
    rows = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(8, cfg.context_window))
    data = PackedDataset(sequences=rows.astype(np.uint32), msl=cfg.context_window,
                         offsets=np.arange(len(rows), dtype=np.uint64) * cfg.context_window)
    TR.train_steps(state, data, n_steps=1)  # first-call allocations
    tracemalloc.start()
    try:
        TR.train_steps(state, data, n_steps=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    head = params["tok_emb"].data.nbytes
    n = micro * cfg.context_window
    step_slack = T.GRAD_BLOCK + 4 * 2 * n * cfg.d_model
    assert head > T.GRAD_BLOCK and step_slack < head
    grads = 4 * sum(t.data.size for t in params.values())
    activations = needed_bytes(cfg, micro) + NODE_OVERHEAD * (2 * cfg.n_layers + 2)
    bound = grads + activations + step_slack
    assert peak <= bound, (peak, bound)


def test_a_sparse_train_state_holds_nothing_new_after_a_clipped_micro_batched_step():
    # the step's gradients are dropped and AdamW's work buffer (256 KiB
    # here) lasts one update, so what a step leaves allocated is its trace
    # record, one StepRecord with its floats and the trace list's slot,
    # beside what numpy caches
    cfg = M.ModelConfig(n_layers=1, d_model=256, n_heads=4, d_head=64, vocab_size=32,
                        context_window=8)
    params = M.init_params(cfg, seed=0)
    masks = S.build_masks(params, S.SparsityPlan(level=0.75, seed=1))
    state = TR.init_train_state(params, cfg, TR.Schedule(1e-3, 4), 2, seed=0, masks=masks,
                                micro_batch_size=1)
    assert state.opt.index.keys() == masks.index.keys()
    assert all(state.opt.index[p] is masks.index[p] for p in masks.paths())
    rows = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(8, cfg.context_window))
    data = PackedDataset(sequences=rows.astype(np.uint32), msl=cfg.context_window,
                         offsets=np.arange(len(rows), dtype=np.uint64) * cfg.context_window)
    for step in range(2):
        _, held = held_bytes(lambda: TR.train_steps(state, data, n_steps=1, grad_clip=1e-3))
        assert held <= TRACE_RECORD_BYTES + NUMPY_CACHE_BYTES, (step, held)
    assert all(t.grad is None and t.grad_index is None for t in state.params.values())
    assert all(state.opt.index[p] is masks.index[p] for p in masks.paths())


def test_a_sparse_train_checkpoint_loads_within_its_state_and_largest_section(tmp_path):
    # a load reads every section's payload, then decodes the tensor sections
    # one at a time, dropping each payload once its arrays exist: its peak,
    # while params decodes, is the state it builds plus the params payload,
    # since each moment section is no larger than the moments it holds
    # (compact for a masked path) and the masks' bits are smaller than their
    # int32 index. Dense moments on disk would add a dense copy of each
    # masked moment, here 3x its compact bytes.
    masks = S.build_masks(M.init_params(CFG, seed=0), S.SparsityPlan(level=0.75, seed=1))
    path = tmp_path / "state.ckpt"
    TR.save_train_state(path, TR.init_train_state(M.init_params(CFG, seed=0), CFG,
                                                  TR.Schedule(1e-3, 4), BATCH, seed=0,
                                                  masks=masks))
    largest = max(len(payload) for payload in C.load_container(path).values())
    TR.load_train_state(path)  # first-call allocations
    tracemalloc.start()
    try:
        state = TR.load_train_state(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in [t.data for t in state.params.values()]
               + list(state.opt.m.values()) + list(state.opt.v.values())
               + list(state.masks.index.values()))
    slack = PARAM_OVERHEAD * len(state.params) + MASK_OVERHEAD * len(state.masks.paths())
    assert peak <= held + largest + slack, (peak, held, largest, slack)


def encoded_corpus():
    """A vocab whose encode cache holds every piece, and 40 documents of about
    1,700 tokens each."""
    rng = np.random.default_rng(0)
    words = ["".join(rng.choice(list("abcdefgh"), size=rng.integers(2, 9))) for _ in range(300)]
    texts = [" ".join(rng.choice(words, size=400)) + "." for _ in range(40)]
    vocab = D.learn_bpe(texts[:10], 2 + D.DEFAULT_PROMPT_SLOTS + D.N_BYTE_TOKENS + 40)
    for text in texts:
        vocab.encode(text)
    return vocab, texts


def test_a_token_id_is_a_4_byte_integer_from_encode_to_the_dataset():
    assert np.dtype(np.uintc) == np.uint32 and array("I").itemsize == 4
    vocab, texts = encoded_corpus()
    ids = vocab.encode(texts[0])
    assert isinstance(ids, array) and ids.typecode == "I"
    assert D.pack_sequences([ids], 16, vocab.eod_id).sequences.dtype == np.uint32


def test_encoded_ids_hold_4_bytes_a_token():
    # a list held an 8-byte pointer per id, and more as it grew
    vocab, texts = encoded_corpus()
    encoded, held = held_bytes(lambda: [vocab.encode(text) for text in texts])
    tokens = sum(map(len, encoded))
    assert held <= 4 * tokens + DOC_OVERHEAD * len(texts), (held, tokens)


def test_packing_peaks_at_its_stream():
    # the stream is one array('I') of every id and end-of-document marker,
    # which grows 1/16 over its length, and the rows are a view of it; only
    # the row offsets, 8 bytes a row, are new
    vocab, texts = encoded_corpus()
    encoded = [vocab.encode(text) for text in texts]
    stream = 4 * (sum(map(len, encoded)) + len(encoded))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = D.pack_sequences(encoded, 64, vocab.eod_id)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= stream + stream // 16 + 8 * len(data) + 4096, (peak, stream)


def test_selecting_a_fine_tune_epoch_copies_the_weights_into_one_buffer(monkeypatch):
    # each improving epoch's weights are copied into one buffer per trainable
    # tensor, allocated before the first epoch, so from an epoch's metric to
    # the next batch's forward (or the job's end), where the epoch is
    # selected, nothing of the weights' size is allocated. A fresh copy per
    # selection, with the previous one alive while it is made, would add the
    # trainable bytes, 0.8 MB here, at every selection.
    cfg = M.ModelConfig(n_layers=1, d_model=128, n_heads=2, d_head=64, vocab_size=16,
                        context_window=16)
    params = M.init_params(cfg, seed=0)
    trainable = sum(t.data.nbytes for t in params.values())
    rng = np.random.default_rng(0)
    task = [FT.TaskExample(source=rng.integers(11, 16, size=5).tolist() + [signal],
                           target=[signal + 3])
            for signal in rng.integers(5, 8, size=12).tolist()]
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("task", task[:8], task[8:])], epochs=3,
                         batch_size=4, peak_lr=1e-3)
    turns, start = [], []

    def metric(params, prompt, examples):
        tracemalloc.reset_peak()
        start.append(tracemalloc.get_traced_memory()[0])
        return 0.0

    def close_turn():
        if len(turns) < len(start):
            turns.append(tracemalloc.get_traced_memory()[1] - start[-1])

    def sequence_loss(*args, loss=FT.sequence_loss):
        close_turn()
        return loss(*args)

    monkeypatch.setattr(FT, "sequence_loss", sequence_loss)
    tracemalloc.start()
    try:
        result = FT.finetune_dense(params, cfg, job, metric)
        close_turn()
    finally:
        tracemalloc.stop()
    val = [r.val_loss for r in result.report]
    assert len(turns) == 3 and val == sorted(val, reverse=True), val  # each epoch selected
    assert result.selected.epoch == 3
    assert trainable > 10 * EPOCH_TURN_BYTES
    assert max(turns) <= EPOCH_TURN_BYTES, turns
