import dataclasses
import math

import numpy as np
import pytest

from sparselm.errors import ContractError
from sparselm import cli
from sparselm import finetune as FT
from sparselm import model as M
from sparselm import tensor as T
from sparselm import training as TR

from full_logits import full_logits


def tiny_config(**kw):
    base = dict(n_layers=1, d_model=16, n_heads=2, d_head=8, vocab_size=16, context_window=24)
    base.update(kw)
    return M.ModelConfig(**base)


def make_prompt(cfg, n, seed=0):
    return FT.init_soft_prompt(cfg, n, virtual_ids=tuple(range(2, 2 + n)), seed=seed)


def signal_task(n_examples, seed=0):
    """Separable toy task: a signal token in {5,6,7} anywhere in the source
    determines the single target token (signal + 3)."""
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n_examples):
        filler = rng.integers(11, 16, size=4).tolist()
        signal = int(rng.integers(5, 8))
        slot = int(rng.integers(0, 5))
        source = filler[:slot] + [signal] + filler[slot:]
        examples.append(FT.TaskExample(source=source, target=[signal + 3]))
    return examples


# ----------------------------------------------------------------- layout


def test_build_sequence_layout_contract():
    cfg = tiny_config()
    prompt = make_prompt(cfg, 2)
    ids, mask = FT.build_sequence(FT.TaskExample(source=[10, 11], target=[12]), prompt)
    assert ids.tolist() == [10, 11, 2, 3, 12]
    assert mask.tolist() == [0, 0, 0, 0, 1]


def test_build_sequence_without_prompt():
    ids, mask = FT.build_sequence(FT.TaskExample(source=[10, 11], target=[12, 13]))
    assert ids.tolist() == [10, 11, 12, 13]
    assert mask.tolist() == [0, 0, 1, 1]


def test_build_sequence_appends_eos_when_asked():
    ids, mask = FT.build_sequence(FT.TaskExample(source=[10], target=[12]), eos_id=0)
    assert ids.tolist() == [10, 12, 0]
    assert mask.tolist() == [0, 1, 1]


def test_build_sequence_pubmedqa_preset_slot_count():
    cfg = tiny_config(vocab_size=32)
    prompt = FT.init_soft_prompt(cfg, cli.TASK_PRESETS["pubmedqa"]["prompt_length"],
                                 virtual_ids=tuple(range(2, 11)))
    ids, mask = FT.build_sequence(FT.TaskExample(source=[20, 21], target=[22]), prompt)
    virtual = [i for i in ids.tolist() if 2 <= i <= 10]
    assert len(virtual) == 9
    assert ids.tolist()[2:11] == list(range(2, 11))


def test_build_sequence_overflow_reports_lengths():
    cfg = tiny_config(context_window=4)
    prompt = make_prompt(cfg, 2)
    with pytest.raises(ContractError, match="exceeds context window 4"):
        FT.build_sequence(FT.TaskExample(source=[10, 11], target=[12]), prompt,
                          context_window=4)


def test_task_example_rejects_empty_sides():
    with pytest.raises(ContractError):
        FT.TaskExample(source=[], target=[1])
    with pytest.raises(ContractError):
        FT.TaskExample(source=[1], target=[])


# --------------------------------------------------------- prompt forward


def test_prompt_forward_without_prompt_is_plain_forward():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    ids = np.array([[10, 11, 12]])
    with T.no_grad():
        a = FT.prompt_forward(params, cfg, None, ids).data
        b = M.forward_logits(params, cfg, ids).data
        empty = FT.prompt_forward(params, cfg, make_prompt(cfg, 0), ids).data
    assert np.array_equal(a, b)
    assert np.array_equal(a, empty)


def test_prompt_gradient_is_nonzero():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    prompt = make_prompt(cfg, 2)
    ids, mask = FT.build_sequence(FT.TaskExample(source=[10, 11], target=[12]), prompt)
    loss = FT.sequence_loss(params, cfg, ids[None, :], mask[None, :], prompt)
    T.backward(loss)
    assert prompt.embeddings.grad is not None
    assert np.any(prompt.embeddings.grad != 0.0)


def test_prompt_rows_are_position_bound():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    prompt = make_prompt(cfg, 2, seed=1)
    permuted = FT.SoftPrompt(
        embeddings=T.Tensor(prompt.embeddings.data[::-1].copy(), requires_grad=True),
        virtual_ids=prompt.virtual_ids,
    )
    ids = FT.build_sequence(FT.TaskExample(source=[10, 11], target=[12]), prompt)[0][None, :]
    with T.no_grad():
        a = FT.prompt_forward(params, cfg, prompt, ids).data
        b = FT.prompt_forward(params, cfg, permuted, ids).data
    assert not np.array_equal(a, b)


def test_prompt_with_duplicate_or_out_of_range_virtual_ids_rejected():
    cfg = tiny_config()
    with pytest.raises(ContractError, match="distinct"):
        FT.SoftPrompt(T.Tensor(np.zeros((2, cfg.d_model))), (2, 2))
    with pytest.raises(ContractError, match="distinct"):
        FT.init_soft_prompt(cfg, 2, virtual_ids=(2, 2))
    assert FT.init_soft_prompt(cfg, 2, virtual_ids=(0, cfg.vocab_size - 1)).virtual_ids == (
        0, cfg.vocab_size - 1)
    for bad in (-1, cfg.vocab_size):
        with pytest.raises(ContractError,
                           match=rf"^virtual id {bad} outside \[0, {cfg.vocab_size}\)$"):
            FT.init_soft_prompt(cfg, 2, virtual_ids=(2, bad))


@pytest.mark.parametrize("bad", [-1, 16])
def test_a_forward_refuses_a_built_prompt_with_an_id_outside_the_vocab(bad):
    # a SoftPrompt has no vocab to check against; the forward that reads it does
    cfg = tiny_config()
    prompt = FT.SoftPrompt(T.Tensor(np.zeros((1, cfg.d_model), dtype=np.float32)), (bad,))
    with pytest.raises(ContractError, match=rf"^virtual id {bad} outside \[0, 16\)$"):
        M.forward_logits(M.init_params(cfg, seed=0), cfg, np.array([[10, 15]]), prompt)


def test_prompt_forward_reads_each_virtual_id_wherever_it_sits():
    # rows place the virtual ids at different columns, repeat one, or leave
    # one out: each occurrence reads its prompt row, as if the prompt rows
    # were the virtual ids' rows of the token table
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    prompt = make_prompt(cfg, 2, seed=1)
    ids = np.array([[10, 2, 3, 12], [2, 11, 3, 13], [2, 2, 12, 3], [10, 11, 12, 3]])
    swapped = M.clone_params(params)
    swapped["tok_emb"].data[[2, 3]] = prompt.embeddings.data
    with T.no_grad():
        got = FT.prompt_forward(params, cfg, prompt, ids).data
        want = FT.prompt_forward(swapped, cfg, None, ids).data
    assert got.tobytes() == want.tobytes()


def test_loss_mask_exactness_via_logit_grads():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    prompt = make_prompt(cfg, 2)
    ids, mask = FT.build_sequence(FT.TaskExample(source=[10, 11], target=[12, 13]), prompt)
    ids, mask = ids[None, :], mask[None, :]
    logits = T.Tensor(full_logits(params, cfg, ids, prompt), requires_grad=True)
    seq = ids.shape[1]
    # position i predicts token i + 1; the last position predicts nothing
    targets = np.roll(ids, -1, axis=1)
    scored = np.concatenate([mask[:, 1:], np.zeros((1, 1), dtype=mask.dtype)], axis=1)
    # the logits through a head of unit LayerNorm and identity table
    unit = [T.Tensor(f(cfg.vocab_size), dtype=logits.dtype) for f in (np.ones, np.zeros, np.eye)]
    loss = T.cross_entropy(logits, *unit, targets, scored)
    T.backward(loss)
    active = mask[0, 1:].astype(bool)
    grads = logits.grad[0, : seq - 1]
    assert np.all(grads[~active] == 0.0)
    assert np.all(np.any(grads[active] != 0.0, axis=1))
    assert np.all(logits.grad[0, seq - 1] == 0.0)


# ----------------------------------------------------------- fine-tuning


def test_finetune_zero_epochs_is_identity():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    before = {p: t.data.copy() for p, t in params.items()}
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(8))], epochs=0)
    FT.finetune_dense(params, cfg, job)
    for p in before:
        assert np.array_equal(params[p].data, before[p])


def test_finetune_learns_signal_task():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    train, val = signal_task(32, seed=0), signal_task(8, seed=1)
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", train, val)],
                         epochs=4, batch_size=8, peak_lr=5e-3, seed=0)
    result = FT.finetune_dense(params, cfg, job)
    first, last = result.report[0], result.report[-1]
    assert last.val_loss < first.val_loss
    assert result.selected.val_loss is not None


def test_float64_finetuning_with_a_prompt_makes_a_float64_prompt():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0, dtype="float64")
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(8))], epochs=1,
                         batch_size=4, prompt_length=2, virtual_ids=(2, 3), seed=0)
    result = FT.finetune_dense(params, cfg, job)
    assert result.prompt.embeddings.dtype == "float64"
    assert all(t.dtype == "float64" for t in result.params.values())
    assert math.isfinite(result.report[-1].train_loss)


def test_finetune_divergence_names_stage_and_epoch():
    cfg = tiny_config()
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("warm", signal_task(32))],
                         epochs=4, batch_size=8, peak_lr=1e6, seed=0)
    with np.errstate(all="ignore"), \
            pytest.raises(ContractError, match=r"stage 'warm', epoch 1: training loss is nan"):
        FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job)


def test_finetune_nonfinite_validation_loss_raises(monkeypatch):
    cfg = tiny_config()
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(8), signal_task(4, 1))],
                         epochs=2, batch_size=8, seed=0)
    monkeypatch.setattr(FT, "_mean_loss", lambda *args: float("inf"))
    with pytest.raises(ContractError, match=r"stage 'a', epoch 1: validation loss is inf"):
        FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job)


def test_prompt_only_tuning_decreases_loss_and_freezes_base():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    before = {p: t.data.copy() for p, t in params.items()}
    rng = np.random.default_rng(0)
    train = [FT.TaskExample(source=rng.integers(11, 16, size=4).tolist(), target=[9])
             for _ in range(16)]
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", train)],
                         epochs=4, batch_size=8, peak_lr=0.05,
                         prompt_length=3, virtual_ids=(2, 3, 4),
                         freeze_base=True, seed=0)
    result = FT.finetune_dense(params, cfg, job)
    losses = [r.train_loss for r in result.report]
    assert losses[-1] < losses[0]
    for p in before:
        assert np.array_equal(params[p].data, before[p]), p


def prompt_only_job():
    train = [FT.TaskExample(source=[11, 12, 13], target=[9]) for _ in range(4)]
    return FT.FinetuneJob(stages=[FT.FinetuneStage("a", train, val=train[:2])], epochs=1,
                          batch_size=2, prompt_length=2, virtual_ids=(2, 3),
                          freeze_base=True)


def test_prompt_only_tuning_leaves_no_base_gradients():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    result = FT.finetune_dense(params, cfg, prompt_only_job())
    # the prompt trained, and its gradient was dropped after each update
    assert not np.array_equal(result.prompt.embeddings.data, make_prompt(cfg, 2).embeddings.data)
    assert result.prompt.embeddings.grad is None
    assert [p for p, t in params.items() if t.grad is not None] == []
    assert all(t.requires_grad for t in params.values())


def test_dense_finetuning_holds_no_gradient_and_ignores_a_stale_one():
    # each update drops every .grad, as pre-training's does, and a gradient
    # the caller left on a weight does not enter the first update
    cfg = tiny_config()
    job = dataclasses.replace(prompt_only_job(), freeze_base=False)
    clean = FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job)
    assert [p for p, t in clean.params.items() if t.grad is not None] == []
    assert clean.prompt.embeddings.grad is None
    params = M.init_params(cfg, seed=0)
    params["tok_emb"].grad = np.full_like(params["tok_emb"].data, 1e6)
    stale = FT.finetune_dense(params, cfg, job)
    assert np.array_equal(stale.prompt.embeddings.data, clean.prompt.embeddings.data)
    for p, t in clean.params.items():
        assert np.array_equal(stale.params[p].data, t.data), p


def test_frozen_base_flags_restored_when_tuning_raises():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)

    def failing_metric(params, prompt, examples):
        assert not any(t.requires_grad for t in params.values())
        raise RuntimeError("metric failed")

    with pytest.raises(RuntimeError, match="metric failed"):
        FT.finetune_dense(params, cfg, prompt_only_job(), metric_fn=failing_metric)
    assert all(t.requires_grad for t in params.values())


def test_freeze_base_without_prompt_rejected():
    cfg = tiny_config()
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(4))], freeze_base=True)
    with pytest.raises(ContractError):
        FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job)


def test_early_stopping_requires_validation():
    cfg = tiny_config()
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(4))], patience=1)
    with pytest.raises(ContractError):
        FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job)


def counting(monkeypatch, module, name):
    """Calls of `module.name` from here on, counted in the returned list."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("stage_b,patience,message", [
    (FT.FinetuneStage("b", [], signal_task(2, 2)), None, r"stage 'b' has no training examples"),
    (FT.FinetuneStage("b", signal_task(4, 2)), 1,
     r"stage 'b': early stopping needs a validation split"),
    (FT.FinetuneStage("b", signal_task(2, 2) + [FT.TaskExample(source=[11] * 30, target=[9])],
                      signal_task(2, 3)), None,
     r"stage 'b', train\[2\]: sequence length 31 \(source 30 \+ prompt 0 \+ target 1\) "
     r"exceeds context window 24"),
    (FT.FinetuneStage("b", signal_task(2, 2) + [FT.TaskExample(source=[11], target=[16])]), None,
     r"stage 'b', train\[2\]: token id outside \[0, 16\)"),
    (FT.FinetuneStage("b", signal_task(2, 2), []), None,
     r"stage 'b' has an empty validation split"),
], ids=["empty-train", "patience-without-val", "too-long", "outside-the-vocab", "empty-val"])
def test_a_fault_in_a_later_stage_is_raised_before_the_first_update(monkeypatch, stage_b,
                                                                    patience, message):
    cfg = tiny_config()
    updates = counting(monkeypatch, TR, "adamw_step")
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(8), signal_task(4, 1)),
                                 stage_b], epochs=1, batch_size=3, patience=patience, seed=0)
    with pytest.raises(ContractError, match=message):
        FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job)
    assert updates == []


@pytest.mark.parametrize("fields,message", [
    (dict(stages=[]), "job has no stages"),
    (dict(batch_size=0), "batch_size must be >= 1, got 0"),
    (dict(pad_id=-1), "pad id -1 outside vocab 16"),
    (dict(pad_id=16), "pad id 16 outside vocab 16"),
    (dict(prompt_length=3, virtual_ids=(2, 3)), "3 prompt slots need 3 virtual ids, got 2"),
], ids=["no-stages", "batch-size-0", "pad-below", "pad-above", "too-few-virtual-ids"])
def test_a_job_fault_is_raised_before_the_first_update(monkeypatch, fields, message):
    cfg = tiny_config()
    updates = counting(monkeypatch, TR, "adamw_step")
    job = FT.FinetuneJob(**{"stages": [FT.FinetuneStage("a", signal_task(8))], **fields})
    with pytest.raises(ContractError, match=message):
        FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job)
    assert updates == []


def test_ablation_of_a_frozen_base_is_refused_before_the_first_update(monkeypatch):
    cfg = tiny_config()
    updates = counting(monkeypatch, TR, "adamw_step")
    with pytest.raises(ContractError, match="arm without a prompt nothing to train"):
        FT.run_prompt_ablation(M.init_params(cfg, seed=0), cfg, prompt_only_job())
    assert updates == []


def test_each_sequence_is_built_once_per_job(monkeypatch):
    cfg = tiny_config()
    train, val = signal_task(8), signal_task(4, 1)
    built = counting(monkeypatch, FT, "build_sequence")
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", train, val)], epochs=3, batch_size=3,
                         prompt_length=2, virtual_ids=(2, 3), seed=0)
    result = FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job)
    assert len(result.report) == 3
    assert len(built) == len(train) + len(val)


def test_early_stopping_halts_on_plateau():
    # lr 0 freezes the loss, so epoch 1 sets best and later epochs stall;
    # patience = number of stalled epochs tolerated before stopping
    cfg = tiny_config()
    stages = lambda: [FT.FinetuneStage("a", signal_task(8), signal_task(4, 1))]
    impatient = FT.FinetuneJob(stages=stages(), epochs=6, peak_lr=0.0, patience=0, seed=0)
    result = FT.finetune_dense(M.init_params(cfg, seed=0), cfg, impatient)
    assert len(result.report) == 2
    tolerant = FT.FinetuneJob(stages=stages(), epochs=6, peak_lr=0.0, patience=1, seed=0)
    result = FT.finetune_dense(M.init_params(cfg, seed=0), cfg, tolerant)
    assert len(result.report) == 3


def recording_metric(snapshots):
    """A metric_fn that keeps a copy of the weights it scores and returns 0.5."""
    def metric(params, prompt, examples):
        snapshots.append({p: t.data.copy() for p, t in params.items()})
        return 0.5
    return metric


@pytest.mark.parametrize("peak_lr,patience,epochs_run", [(5e-3, None, 3), (0.0, 0, 2)],
                         ids=["plain", "patience-stopped"])
def test_the_metric_runs_once_per_epoch_and_not_after_the_last(peak_lr, patience, epochs_run):
    cfg = tiny_config()
    snapshots = []
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(8), signal_task(4, 1))],
                         epochs=3, batch_size=4, peak_lr=peak_lr, patience=patience, seed=0)
    result = FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job, recording_metric(snapshots))
    assert len(result.report) == len(snapshots) == epochs_run
    assert result.selected.metric == 0.5


def test_the_outcome_is_the_selected_epoch_and_its_weights():
    # lr 0.1 overshoots after epoch 2 on this seed: the selected epoch is not the last
    cfg = tiny_config()
    snapshots = []
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(8), signal_task(4, 1))],
                         epochs=6, batch_size=4, peak_lr=0.1, seed=1)
    result = FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job, recording_metric(snapshots))
    losses = [r.val_loss for r in result.report]
    first_lowest = losses.index(min(losses))
    assert first_lowest < len(losses) - 1
    assert result.selected is result.report[first_lowest]
    for p, data in snapshots[first_lowest].items():
        assert np.array_equal(result.params[p].data, data), p


def test_a_last_stage_without_val_is_selected_by_its_own_train_loss():
    # stage a's val loss is not the outcome of weights that went on to train in b
    cfg = tiny_config()
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(8), signal_task(4, 1)),
                                 FT.FinetuneStage("b", signal_task(8, 2))],
                         epochs=3, batch_size=4, peak_lr=0.1, seed=1)
    result = FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job)
    stage_b = [r for r in result.report if r.stage == "b"]
    assert result.selected is min(stage_b, key=lambda r: r.train_loss)
    assert result.selected.val_loss is None and result.selected.metric is None


def test_multi_stage_carryover_exact():
    # a job [a, b] ends on the weights of a job [a] followed by a job [b] on
    # its weights: each stage starts its own schedule and moments, and b's
    # one example leaves its batch order nothing to draw
    cfg = tiny_config()
    stage_a = FT.FinetuneStage("a", signal_task(8), signal_task(4, 1))
    stage_b = FT.FinetuneStage("b", signal_task(1, 2))
    job = lambda *stages: FT.FinetuneJob(stages=list(stages), epochs=2, batch_size=4,
                                         peak_lr=5e-3, seed=3)
    params_ab = M.init_params(cfg, seed=0)
    FT.finetune_dense(params_ab, cfg, job(stage_a, stage_b))

    params_then = M.init_params(cfg, seed=0)
    FT.finetune_dense(params_then, cfg, job(stage_a))
    after_a = M.clone_params(params_then)
    FT.finetune_dense(params_then, cfg, job(stage_b))

    for p in params_ab:
        assert np.array_equal(params_ab[p].data, params_then[p].data), p
    assert not np.array_equal(params_then["tok_emb"].data, after_a["tok_emb"].data)


def test_report_csv_shape():
    cfg = tiny_config()
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(8), signal_task(4, 1))],
                         epochs=2, seed=0)
    result = FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job)
    csv_text = FT.report_to_csv(result.report)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "stage,epoch,train_loss,val_loss,metric"
    assert len(lines) == 3


def test_report_and_grid_csv_golden_bytes():
    report = [FT.EpochRecord("a", 1, 0.5, None, None), FT.EpochRecord("a", 2, 0.25, 1 / 3, 0.75)]
    assert FT.report_to_csv(report) == ("stage,epoch,train_loss,val_loss,metric\n"
                                        "a,1,0.5,,\na,2,0.25,0.3333333333333333,0.75\n")
    grid = FT.GridResult(best_batch_size=4, best_lr=1e-3, best=None, table=[
        FT.GridPoint(4, 1e-3, -0.5, 0.5, None), FT.GridPoint(8, 5e-4, 0.75, None, 0.75)])
    assert FT.grid_to_csv(grid) == ("batch_size,lr,score,val_loss,metric\n"
                                    "4,0.001,-0.5,0.5,\n8,0.0005,0.75,,0.75\n")


# ------------------------------------------------------------ grid search


def test_grid_singleton_space():
    cfg = tiny_config()
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(8), signal_task(4, 1))],
                         epochs=1, seed=0)
    result = FT.grid_search(M.init_params(cfg, seed=0), cfg, job, (4,), (1e-3,))
    assert result.best_batch_size == 4 and result.best_lr == 1e-3
    assert len(result.table) == 1


def test_grid_tie_break_first_declared():
    cfg = tiny_config()
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(8), signal_task(4, 1))],
                         epochs=1, seed=0)

    def constant_metric(params, prompt, examples):
        return 0.5

    result = FT.grid_search(M.init_params(cfg, seed=0), cfg, job, (4, 8), (1e-3, 1e-4),
                            metric_fn=constant_metric)
    assert result.best_batch_size == 4 and result.best_lr == 1e-3
    assert len(result.table) == 4


def test_grid_pubmedqa_preset_runs_sixteen_points():
    cfg = tiny_config()
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(6), signal_task(3, 1))],
                         epochs=1, seed=0)
    bs, lrs = (cli.TASK_PRESETS["pubmedqa"][axis] for axis in ("grid_batch_sizes", "grid_lrs"))
    result = FT.grid_search(M.init_params(cfg, seed=0), cfg, job, bs, lrs)
    assert len(result.table) == 16
    assert {(p.batch_size, p.lr) for p in result.table} == {(b, l) for b in bs for l in lrs}


def test_grid_of_zero_epochs_is_refused_before_the_first_update(monkeypatch):
    # every point would be the same untrained model
    cfg = tiny_config()
    updates = counting(monkeypatch, TR, "adamw_step")
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(4), signal_task(2, 1))],
                         epochs=0)
    with pytest.raises(ContractError, match="comparing fine-tunes needs epochs >= 1, got 0"):
        FT.grid_search(M.init_params(cfg, seed=0), cfg, job, (4,), (1e-3,))
    assert updates == []


def test_ablation_of_zero_epochs_is_refused_before_the_first_update(monkeypatch):
    # both arms would be the same untrained model
    cfg = tiny_config()
    updates = counting(monkeypatch, TR, "adamw_step")
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(4), signal_task(2, 1))],
                         epochs=0, prompt_length=2, virtual_ids=(2, 3))
    with pytest.raises(ContractError, match="comparing fine-tunes needs epochs >= 1, got 0"):
        FT.run_prompt_ablation(M.init_params(cfg, seed=0), cfg, job)
    assert updates == []


def test_grid_empty_space_rejected():
    cfg = tiny_config()
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(4))])
    with pytest.raises(ContractError):
        FT.grid_search(M.init_params(cfg, seed=0), cfg, job, (), (1e-4,))


# -------------------------------------------------------------- ablation


def test_ablation_runs_both_arms():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    before = {p: t.data.copy() for p, t in params.items()}
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(8))],
                         epochs=1, prompt_length=2, virtual_ids=(2, 3), seed=0)
    arms = FT.run_prompt_ablation(params, cfg, job)
    assert set(arms) == {"with_prompt", "without_prompt"}
    assert arms["with_prompt"].prompt is not None
    assert arms["without_prompt"].prompt is None
    for p in before:  # both arms trained copies
        assert np.array_equal(params[p].data, before[p])
