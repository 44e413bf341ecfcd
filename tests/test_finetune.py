import numpy as np
import pytest

from sparselm.errors import ContractError
from sparselm import finetune as FT
from sparselm import model as M
from sparselm import tensor as T


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
    prompt = FT.init_soft_prompt(cfg, FT.PUBMEDQA_PROMPT_LENGTH,
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


def test_prompt_forward_slot_count_mismatch():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    prompt = make_prompt(cfg, 2)
    with pytest.raises(ContractError):
        FT.prompt_forward(params, cfg, prompt, np.array([[10, 2, 12]]))  # slot 3 missing
    with pytest.raises(ContractError):
        FT.prompt_forward(params, cfg, prompt, np.array([[2, 2, 3]]))  # slot 2 duplicated


def test_loss_mask_exactness_via_logit_grads():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    prompt = make_prompt(cfg, 2)
    ids, mask = FT.build_sequence(FT.TaskExample(source=[10, 11], target=[12, 13]), prompt)
    ids, mask = ids[None, :], mask[None, :]
    logits = FT.prompt_forward(params, cfg, prompt, ids)
    seq = ids.shape[1]
    pred = T.narrow(logits, 1, 0, seq - 1)
    loss = T.cross_entropy(pred, np.eye(cfg.vocab_size), ids[:, 1:], mask[:, 1:])
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
    assert result.best_val_loss is not None


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


def test_multi_stage_carryover_exact():
    cfg = tiny_config()
    job_a = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(8), signal_task(4, 1))],
                           epochs=2, batch_size=4, peak_lr=5e-3, seed=3)
    params_a = M.init_params(cfg, seed=0)
    FT.finetune_dense(params_a, cfg, job_a)

    job_ab = FT.FinetuneJob(
        stages=[FT.FinetuneStage("a", signal_task(8), signal_task(4, 1)),
                FT.FinetuneStage("b", signal_task(4, 2), epochs=0)],
        epochs=2, batch_size=4, peak_lr=5e-3, seed=3)
    params_ab = M.init_params(cfg, seed=0)
    FT.finetune_dense(params_ab, cfg, job_ab)

    for p in params_a:
        assert np.array_equal(params_a[p].data, params_ab[p].data), p


def test_report_csv_shape():
    cfg = tiny_config()
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", signal_task(8), signal_task(4, 1))],
                         epochs=2, seed=0)
    result = FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job)
    csv_text = FT.report_to_csv(result.report)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "stage,epoch,train_loss,val_loss,metric"
    assert len(lines) == 3


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
    bs, lrs = FT.PUBMEDQA_GRID
    result = FT.grid_search(M.init_params(cfg, seed=0), cfg, job, bs, lrs)
    assert len(result.table) == 16
    assert {(p.batch_size, p.lr) for p in result.table} == {(b, l) for b in bs for l in lrs}


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
