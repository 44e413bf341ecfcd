"""Dense task fine-tuning with soft prompts.

Sequences are laid out [source; prompt; target]: the n virtual slots sit
between source and target. A soft prompt (`model.SoftPrompt`) is a lookup
by id: wherever virtual id j occurs, its token-embedding lookup reads row j
of n trainable continuous embeddings instead (position embeddings apply
normally). The prompt takes the dtype of the model's token table. The loss
covers target positions only; an optional end-of-sequence token can be
appended after the target for generation termination. The whole job is
checked, and each stage's sequences built, once before the first update;
an epoch only reorders them into batches. Stages run in order, each ending
on the weights of its selected epoch, the first of lowest val loss (train
loss without a val split); the last stage's is the job's outcome.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import csv_text
from .errors import LIBRARY_RULES, ContractError, check_ranges, naming
from .model import (ModelConfig, ParamStore, SoftPrompt, clone_params, forward_logits,
                    init_soft_prompt, lm_loss)
from .tensor import Tensor
from .training import OptimizerState, Schedule, _drop_grads, _step, lr_at


@dataclass
class TaskExample:
    source: Sequence[int]  # e.g. a `Vocab.encode` array
    target: Sequence[int]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.source or not self.target:
            raise ContractError("TaskExample needs non-empty source and target")


def build_sequence(example: TaskExample, prompt: SoftPrompt | None = None,
                   context_window: int | None = None, eos_id: int | None = None):
    """[source ids][n virtual slots][target ids][eos?] plus a loss mask that
    is 1 exactly on target (and eos) positions."""
    virtual = list(prompt.virtual_ids) if prompt is not None else []
    ids = list(example.source) + virtual + list(example.target)
    mask = [0] * (len(example.source) + len(virtual)) + [1] * len(example.target)
    if eos_id is not None:
        ids.append(eos_id)
        mask.append(1)
    if context_window is not None and len(ids) > context_window:
        raise ContractError(
            f"sequence length {len(ids)} (source {len(example.source)} + prompt "
            f"{len(virtual)} + target {len(example.target)}) "
            f"exceeds context window {context_window}"
        )
    return np.asarray(ids, dtype=np.int64), np.asarray(mask, dtype=np.int8)


def prompt_forward(params: ParamStore, config: ModelConfig, prompt: SoftPrompt | None,
                   ids) -> Tensor:
    """`model.forward_logits`; kept for perfbench's span (ROADMAP item 1 retires it)."""
    return forward_logits(params, config, ids, prompt)


def sequence_loss(params, config, ids, loss_mask, prompt=None) -> Tensor:
    """`model.lm_loss`; kept for perfbench's span (ROADMAP item 1 retires it)."""
    return lm_loss(params, config, ids, loss_mask, prompt)


def pad_batch(sequences, pad_id: int):
    """Right-pad (ids, mask) pairs to a rectangle; padding never enters the loss."""
    width = max(len(ids) for ids, _ in sequences)
    ids = np.full((len(sequences), width), pad_id, dtype=np.int64)
    mask = np.zeros((len(sequences), width), dtype=np.int8)
    for row, (seq_ids, seq_mask) in enumerate(sequences):
        ids[row, : len(seq_ids)] = seq_ids
        mask[row, : len(seq_mask)] = seq_mask
    return ids, mask


@dataclass
class FinetuneStage:
    name: str
    train: list[TaskExample]
    val: list[TaskExample] | None = None


@dataclass
class FinetuneJob:
    stages: list[FinetuneStage]
    epochs: int = 5
    batch_size: int = 8
    peak_lr: float = 1e-4
    patience: int | None = None          # early stopping off when None
    prompt_length: int = 0
    virtual_ids: tuple[int, ...] = ()
    freeze_base: bool = False            # prompt-only tuning
    pad_id: int = 1
    eos_id: int | None = None
    seed: int = 0
    prompt_seed: int = 0


@dataclass
class EpochRecord:
    stage: str
    epoch: int
    train_loss: float
    val_loss: float | None
    metric: float | None


@dataclass
class FinetuneResult:
    params: ParamStore
    prompt: SoftPrompt | None
    report: list[EpochRecord]
    selected: EpochRecord | None   # the last stage's selected epoch; None when none ran


def _selection(record: EpochRecord) -> float:
    """An epoch's val loss, or its train loss without a val split; the lowest is selected."""
    return record.train_loss if record.val_loss is None else record.val_loss


def _mean_loss(params, config, batches, prompt):
    total, rows = 0.0, 0
    with T.no_grad():
        for ids, mask in batches:
            loss = sequence_loss(params, config, ids, mask, prompt)
            total += loss.item() * ids.shape[0]
            rows += ids.shape[0]
    return total / rows


def _batches(sequences, order, job):
    """`order`'s consecutive chunks of `job.batch_size` sequences, each padded into a batch."""
    return [pad_batch([sequences[i] for i in order[k:k + job.batch_size]], job.pad_id)
            for k in range(0, len(order), job.batch_size)]


def finetune_dense(params: ParamStore, config: ModelConfig, job: FinetuneJob,
                   metric_fn=None) -> FinetuneResult:
    """Run the job's stages in order on `params` (mutated in place).

    All weights train (the dense increment has the full dimensionality of
    the model) unless freeze_base, in which case only the prompt moves.
    metric_fn(params, prompt, examples) -> float scores a stage's validation
    set once per epoch.
    A fault of the job or of any stage raises ContractError before the
    first update; a non-finite training or validation loss raises it
    naming the stage and epoch.
    """
    prompt, trainable, sequences = _lay_out(params, config, job)
    # a frozen base collects no gradients: no backward work, no .grad kept
    frozen = [t for t in params.values() if t.requires_grad] if job.freeze_base else []
    for t in frozen:
        t.requires_grad = False
    try:
        return _run_stages(params, config, job, prompt, trainable, sequences, metric_fn)
    finally:
        for t in frozen:
            t.requires_grad = True


def _lay_out(params, config, job):
    """Check the whole job and lay it out once: (prompt, the tensors that
    train, each stage's train and val (ids, loss mask) sequences). A fault
    names its stage, and a sequence's fault its split and index."""
    if not job.stages:
        raise ContractError("job has no stages")
    check_ranges(vars(job), rules=LIBRARY_RULES)
    if not 0 <= job.pad_id < config.vocab_size:
        raise ContractError(f"pad id {job.pad_id} outside vocab {config.vocab_size}")
    if len(job.virtual_ids) < job.prompt_length:
        raise ContractError(f"{job.prompt_length} prompt slots need {job.prompt_length} "
                            f"virtual ids, got {len(job.virtual_ids)}")
    prompt = (init_soft_prompt(config, job.prompt_length, job.virtual_ids, job.prompt_seed,
                               params["tok_emb"].dtype) if job.prompt_length > 0 else None)
    trainable = {} if job.freeze_base else dict(params)
    if prompt is not None:
        trainable["soft_prompt"] = prompt.embeddings
    if not trainable:
        raise ContractError("freeze_base without a prompt leaves nothing to train")

    sequences = []
    for stage in job.stages:
        if job.patience is not None and stage.val is None:
            raise ContractError(f"stage {stage.name!r}: early stopping needs a validation split")
        if not stage.train:
            raise ContractError(f"stage {stage.name!r} has no training examples")
        if stage.val == []:
            raise ContractError(f"stage {stage.name!r} has an empty validation split")
        where = f"stage {stage.name!r}"
        sequences.append((_sequences(stage.train, prompt, config, job, f"{where}, train"),
                          _sequences(stage.val or [], prompt, config, job, f"{where}, val")))
    return prompt, trainable, sequences


def _sequences(examples, prompt, config, job, where):
    """Each example's (ids, loss mask); a fault names `where[index]`."""
    built = []
    for i, example in enumerate(examples):
        with naming(f"{where}[{i}]"):
            ids, mask = build_sequence(example, prompt, config.context_window, job.eos_id)
            if ids.min() < 0 or ids.max() >= config.vocab_size:
                raise ContractError(f"token id outside [0, {config.vocab_size})")
        built.append((ids, mask))
    return built


def _run_stages(params, config, job, prompt, trainable, sequences, metric_fn) -> FinetuneResult:
    """The body of `finetune_dense`: each stage in order, `trainable` updated by
    `_step` and left at the stage's selected epoch, the first of lowest `_selection`."""
    _drop_grads(trainable)
    rng = np.random.default_rng(job.seed)
    report: list[EpochRecord] = []

    for stage, (train, val) in zip(job.stages, sequences):
        schedule = Schedule(job.peak_lr, job.epochs * math.ceil(len(train) / job.batch_size))
        opt = OptimizerState.for_params(trainable)
        val_batches = _batches(val, range(len(val)), job)  # [] without a val split

        selected = weights = None
        stalled = step = 0
        for epoch in range(1, job.epochs + 1):
            epoch_loss, rows = 0.0, 0
            for ids, mask in _batches(train, rng.permutation(len(train)), job):
                step += 1
                value = _step(trainable, opt, lr_at(schedule, step),
                              f"stage {stage.name!r}, epoch {epoch}",
                              [(sequence_loss(params, config, ids, mask, prompt), 1.0)])
                epoch_loss += value * ids.shape[0]
                rows += ids.shape[0]
            val_loss = _mean_loss(params, config, val_batches, prompt) if val_batches else None
            if val_loss is not None and not math.isfinite(val_loss):
                raise ContractError(f"stage {stage.name!r}, epoch {epoch}: validation loss "
                                    f"is {val_loss}; fine-tuning diverged")
            metric = (metric_fn(params, prompt, stage.val)
                      if metric_fn is not None and val_batches else None)
            report.append(EpochRecord(stage.name, epoch, epoch_loss / rows, val_loss, metric))

            if selected is None or _selection(report[-1]) < _selection(selected):
                selected, weights = report[-1], {p: t.data.copy() for p, t in trainable.items()}
                stalled = 0
            else:
                stalled += 1
                if job.patience is not None and stalled > job.patience:
                    break

        for path, data in (weights or {}).items():
            trainable[path].data[...] = data
    return FinetuneResult(params=params, prompt=prompt, report=report, selected=selected)


def report_to_csv(report: list[EpochRecord]) -> str:
    return csv_text(("stage", "epoch", "train_loss", "val_loss", "metric"),
                    [(r.stage, r.epoch, r.train_loss, r.val_loss, r.metric) for r in report])


@dataclass
class GridPoint:
    batch_size: int
    lr: float
    score: float
    val_loss: float | None
    metric: float | None


@dataclass
class GridResult:
    best_batch_size: int
    best_lr: float
    best: FinetuneResult
    table: list[GridPoint]


def _finetune_each(params: ParamStore, config: ModelConfig, jobs, metric_fn):
    """`finetune_dense` of each job on its own copy of `params`, lazily: one at a
    time. Untrained variants would all compare equal, so every job needs an epoch."""
    for job in jobs:
        if job.epochs < 1:
            raise ContractError(f"comparing fine-tunes needs epochs >= 1, got {job.epochs}")
    return (finetune_dense(clone_params(params), config, job, metric_fn) for job in jobs)


def grid_search(params: ParamStore, config: ModelConfig, job: FinetuneJob,
                batch_sizes, lrs, metric_fn=None) -> GridResult:
    """Exhaustive sweep, each point scored on its job's selected epoch: its
    metric when there is one, else minus its `_selection`. Ties keep the
    first point in declared order."""
    if not batch_sizes or not lrs:
        raise ContractError("grid space is empty")
    trials = [dataclasses.replace(job, batch_size=bs, peak_lr=lr)
              for bs in batch_sizes for lr in lrs]
    table, best = [], None
    for trial, result in zip(trials, _finetune_each(params, config, trials, metric_fn)):
        selected = result.selected
        score = selected.metric if selected.metric is not None else -_selection(selected)
        table.append(GridPoint(trial.batch_size, trial.peak_lr, score, selected.val_loss,
                               selected.metric))
        if best is None or score > best[0].score:
            best = table[-1], result
    return GridResult(best[0].batch_size, best[0].lr, best[1], table)


def grid_to_csv(result: GridResult) -> str:
    return csv_text(("batch_size", "lr", "score", "val_loss", "metric"),
                    [(p.batch_size, p.lr, p.score, p.val_loss, p.metric) for p in result.table])


def run_prompt_ablation(params: ParamStore, config: ModelConfig, job: FinetuneJob,
                        metric_fn=None) -> dict[str, FinetuneResult]:
    """Fine-tune twice from the same starting weights, with and without the
    soft prompt, so the two arms are directly comparable."""
    if job.prompt_length <= 0:
        raise ContractError("ablation needs a prompt_length > 0")
    if job.freeze_base:
        raise ContractError("freeze_base leaves the arm without a prompt nothing to train")
    arms = {"with_prompt": job, "without_prompt": dataclasses.replace(job, prompt_length=0)}
    return dict(zip(arms, _finetune_each(params, config, arms.values(), metric_fn)))
