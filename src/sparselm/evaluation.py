"""Classification evaluation by label-word scoring and constrained generation.

Single-label tasks are scored over the closed candidate set: each
candidate's token sequence is appended after [source; prompt] and its
summed conditional log-probability ranks it (deterministic; ties keep the
first declared label, `LabelSpace.best`). Multi-label tasks use constrained
greedy decoding over the label vocabulary plus a stop token, since
label-set sizes vary. Both score continuations of a non-empty context in
`_continuation_logprobs` (the stop token is a one-token one): one
right-padded no-grad forward per call to the last block's output, then
the final LayerNorm and the head on the scored rows only, by the training
loss's expressions (`model.head_logprobs`). The prompt is read by virtual
id in the forward, so the padding may be any id. `evaluate` scores a
dataset for `eval` and for fine-tuning's metric; every gold label must be
a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError
from .finetune import prompt_forward
from .model import ModelConfig, ParamStore, SoftPrompt, head_logprobs


@dataclass(frozen=True)
class LabelSpace:
    """Ordered candidate labels; order is the tie-break."""

    labels: tuple[str, ...]
    token_ids: tuple[tuple[int, ...], ...]
    multi_label: bool = False
    separator_ids: tuple[int, ...] = ()
    stop_id: int | None = None

    def __post_init__(self):
        if not self.labels:
            raise ContractError("label space is empty")
        if len(self.labels) != len(set(self.labels)):
            raise ContractError("duplicate candidate labels")
        if len(self.token_ids) != len(self.labels):
            raise ContractError("labels and token sequences must align")
        if any(not seq for seq in self.token_ids):
            raise ContractError("candidate token sequences must be non-empty")

    def best(self, scores) -> str:
        """The label of the highest score; a tie goes to the first declared."""
        return self.labels[int(np.argmax(scores))]  # argmax keeps the first tie


def label_space_from_vocab(vocab, labels, multi_label=False, separator=" ") -> LabelSpace:
    return LabelSpace(
        labels=tuple(labels),
        token_ids=tuple(tuple(vocab.encode(label)) for label in labels),
        multi_label=multi_label,
        separator_ids=tuple(vocab.encode(separator)) if multi_label else (),
        stop_id=vocab.eod_id,
    )


def _context(source_ids, prompt: SoftPrompt | None) -> list[int]:
    """[source; prompt]: the source ids, then the prompt's virtual ids."""
    virtual = list(prompt.virtual_ids) if prompt is not None else []
    return [int(i) for i in source_ids] + virtual


def _continuation_logprobs(params, config, prompt, context, continuations) -> np.ndarray:
    """Summed log-probability of each continuation's tokens after `context`,
    from one forward. A row is the context, then a continuation without its
    last token, right-padded with id 0; attention is causal, so the padding,
    whatever its id, never reaches a row that is read. Rows that feed the
    same tokens run once. A continuation of length L is read off the L rows
    from the context's last one on."""
    if not context:
        raise ContractError("scoring needs a non-empty context; got an empty source and no prompt")
    start = len(context)
    ids = np.zeros((len(continuations), start - 1 + max(map(len, continuations))), dtype=int)
    ids[:, :start] = context
    scored = np.zeros(ids.shape, dtype=bool)
    for c, cont in enumerate(continuations):
        ids[c, start:start + len(cont) - 1] = cont[:-1]
        scored[c, start - 1:start - 1 + len(cont)] = True
    fed, inverse = np.unique(ids, axis=0, return_inverse=True)
    with T.no_grad():
        hidden = prompt_forward(params, config, prompt, fed).data[inverse]
    logprobs = np.zeros(ids.shape)  # row-major, the scored rows are the tokens in turn
    logprobs[scored] = head_logprobs(params, config, hidden[scored], np.concatenate(continuations))
    return logprobs.sum(axis=1)


def score_labels(params: ParamStore, config: ModelConfig, prompt: SoftPrompt | None,
                 source_ids, space: LabelSpace) -> np.ndarray:
    """Per-candidate summed log-probability of the candidate's tokens
    appended after [source; prompt]."""
    context = _context(source_ids, prompt)
    check_candidates_fit(config, len(context), space)
    return _continuation_logprobs(params, config, prompt, context, space.token_ids)


def check_candidates_fit(config: ModelConfig, context_length: int, space: LabelSpace):
    """ContractError unless `context_length` ids and then each candidate fit the context window."""
    for label, cand in zip(space.labels, space.token_ids):
        if context_length + len(cand) > config.context_window:
            raise ContractError(f"candidate {label!r}: sequence {context_length + len(cand)} "
                                f"exceeds context window {config.context_window}")


def predict_label(params, config, prompt, source_ids, space: LabelSpace) -> str:
    return space.best(score_labels(params, config, prompt, source_ids, space))


def accuracy(preds, golds) -> float:
    preds, golds = list(preds), list(golds)
    if len(preds) != len(golds):
        raise ContractError(f"{len(preds)} predictions vs {len(golds)} golds")
    if not preds:
        raise ContractError("accuracy of an empty list is undefined")
    return sum(p == g for p, g in zip(preds, golds)) / len(preds)


def micro_f1(pred_sets, gold_sets) -> float:
    """F1 over TP/FP/FN pooled across documents and labels; 0 when the
    pooled precision + recall denominator is empty."""
    pred_sets, gold_sets = list(pred_sets), list(gold_sets)
    if len(pred_sets) != len(gold_sets):
        raise ContractError(f"{len(pred_sets)} predictions vs {len(gold_sets)} golds")
    tp = fp = fn = 0
    for pred, gold in zip(pred_sets, gold_sets):
        pred, gold = set(pred), set(gold)
        tp += len(pred & gold)
        fp += len(pred - gold)
        fn += len(gold - pred)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


@dataclass
class GenerationOutcome:
    labels: tuple[str, ...]
    truncated: bool


def generate_labels(params, config, prompt, source_ids, space: LabelSpace,
                    max_steps: int = 8) -> GenerationOutcome:
    """Greedy constrained decoding: at each step the highest-scoring
    continuation among the candidate labels and the stop token is taken;
    emitted labels are deduplicated. Hitting max_steps without a stop sets
    the truncated flag."""
    if not space.multi_label:
        raise ContractError("generate_labels needs a multi_label space")
    if space.stop_id is None:
        raise ContractError("label space has no stop token")
    context = _context(source_ids, prompt)
    emitted: list[str] = []
    for _ in range(max_steps):
        fits = [c for c, cand in enumerate(space.token_ids)
                if len(context) + len(cand) <= config.context_window]
        if fits:
            scores = _continuation_logprobs(params, config, prompt, context,
                                            [(space.stop_id,)] + [space.token_ids[c] for c in fits])
        if not fits or scores[0] >= scores[1:].max():
            return GenerationOutcome(labels=tuple(emitted), truncated=False)
        best = fits[int(np.argmax(scores[1:]))]  # argmax keeps the first tie
        label = space.labels[best]
        if label not in emitted:
            emitted.append(label)
        context += list(space.token_ids[best]) + list(space.separator_ids)
    return GenerationOutcome(labels=tuple(emitted), truncated=True)


def gold_label(label, where, space: LabelSpace) -> str:
    if label not in space.labels:
        raise ContractError(f"{where}: gold label {label!r} is not one of {list(space.labels)}")
    return label


def evaluate(params, config, prompt, examples, space: LabelSpace, max_steps: int = 8):
    """(metric name, value, CSV header, rows) of a dataset: the accuracy of
    `score_labels`' best candidates, a row per example with every score, or
    the micro-F1 of `generate_labels`' sets, a row with the `|`-joined sets."""
    if space.multi_label:
        golds = [{gold_label(g, f"example {i}", space) for g in ex.labels}
                 for i, ex in enumerate(examples)]
        outs = [generate_labels(params, config, prompt, ex.source, space, max_steps)
                for ex in examples]
        rows = [(i, "|".join(sorted(gold)), "|".join(sorted(out.labels)),
                 "truncated" if out.truncated else None)
                for i, (gold, out) in enumerate(zip(golds, outs))]
        return ("micro_f1", micro_f1([out.labels for out in outs], golds),
                ("id", "gold", "pred", "flags"), rows)
    golds = [gold_label(ex.labels[0] if ex.labels else None, f"example {i}", space)
             for i, ex in enumerate(examples)]
    scores = [score_labels(params, config, prompt, ex.source, space) for ex in examples]
    preds = [space.best(s) for s in scores]
    rows = [(i, gold, pred, *s) for i, (gold, pred, s) in enumerate(zip(golds, preds, scores))]
    header = ("id", "gold", "pred", *(f"score_{label}" for label in space.labels))
    return "accuracy", accuracy(preds, golds), header, rows


def bind_accuracy_metric(config: ModelConfig, space: LabelSpace):
    """metric_fn for fine-tuning/grid selection: the accuracy of `evaluate`."""
    return lambda params, prompt, examples: evaluate(params, config, prompt, examples, space)[1]
