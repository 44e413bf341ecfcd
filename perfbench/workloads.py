"""The benchmark workloads: pretrain-small and pretrain-wide.

Every workload is a closed loop with one caller. `setup` builds the inputs
from the seed and prepares the program; `measure` runs units of work until
the requested seconds have passed and enough samples exist for the
reported percentiles, or, when given a plan, repeats exactly the work of an
earlier run (the traced replay). `checks` verifies the outputs of the
untraced run. All library calls go through module attributes so that the
traced run sees them.

Per-layer metrics that need more than span timings (exact counts taken
with a probe, the GEMM peak) come from `layer_metrics`.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from sparselm import data as D
from sparselm import evaluation as E
from sparselm import finetune as FT
from sparselm import flops as F
from sparselm import model as M
from sparselm import sparsity as S
from sparselm import tensor as T
from sparselm import training as TR

# benchmark spans that scope the per-layer metrics: the traced set-up, each
# optimizer step, the downstream stages, and each eval example inside them
SETUP, STEP = "bench.setup", "bench.step"
DOWNSTREAM, EVAL = "bench.downstream", "bench.eval_example"

# p90 is reported only with at least ten samples beyond it
MIN_STEPS = 100
# The host's speed drifts by up to a third over seconds to minutes (other
# tenants share its cores), and whole runs fall in slow or fast stretches, so
# wall-time figures of runs minutes apart differ by as much. Each step is
# therefore followed by a fixed reference kernel, and the gated step figure
# is the median over steps of step time / reference time: a slower host
# stretches both, a slower program only the step.
_REF = np.random.default_rng(0)
REF_W = (_REF.standard_normal((64, 64)) / 8).astype(np.float32)
REF_X = _REF.standard_normal((512, 64)).astype(np.float32)


def reference_kernel():
    """Fixed work that calls no sparselm code: a plain Python loop and small
    float32 numpy ops, the mix a toy-config step is made of."""
    total = 0
    for i in range(20_000):
        total += i * i
    y = REF_X
    for _ in range(60):
        y = np.tanh(y @ REF_W) + REF_X * 0.5
    return total, y


@dataclass
class Measured:
    step_ms: list[float]        # one sample per optimizer step
    ref_ms: list[float]         # the reference kernel run right after each step
    fingerprint: object         # outputs that the traced replay must reproduce
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)


def step_ref_ratio(measured):
    """Median over steps of step time / time of the reference kernel after it."""
    return statistics.median(s / r for s, r in zip(measured.step_ms, measured.ref_ms))


def metric(value, unit, n=None):
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def latency_detail(prefix, unit, samples):
    p50, p90 = np.percentile(samples, [50, 90])
    n = len(samples)
    return {f"{prefix}_p50": metric(float(p50), unit, n),
            f"{prefix}_p90": metric(float(p90), unit, n)}


def keep_going(done, plan, started, seconds, minimum):
    """True while a measuring loop should run another unit."""
    if plan is not None:
        return done < plan
    return done < minimum or time.perf_counter() - started < seconds


def report_failure(errors):
    """Count a failed unit; the first traceback goes to stderr."""
    if not errors:
        print(traceback.format_exc(), file=sys.stderr, end="")
    errors.append(1)


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def matmul_peak_gflops(m, k, n, seconds=0.3):
    """Plain np.matmul at one GEMM shape, float32, median of repeats."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    times, started = [], time.perf_counter()
    while len(times) < 10 or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * m * k * n / statistics.median(times) / 1e9


def tape_nodes(forward, repeats=3):
    """Tape nodes recorded by `forward()` (a grad-mode forward pass), once
    per repeat; the tape is left empty."""
    counts = []
    for _ in range(repeats):
        before = T.tape_size()
        forward()
        counts.append(T.tape_size() - before)
        T.reset_tape()
    return counts


# ---------------------------------------------------------------- pretrain

# Hidden-state automaton as in the test suite's toy task: each of 64 states
# emits one of four tokens with these probabilities and moves on by branch.
EMISSION_PROBS = np.array([0.55, 0.25, 0.15, 0.05])
SCHEDULE_STEPS = 4000
FINAL_LOSS_STEPS = (MIN_STEPS - 10, MIN_STEPS)


def automaton_data(n_tokens, seed, cfg, tmp, tracer, n_states=64):
    """Token stream of a seeded hidden-state automaton, packed into rows."""
    rng = np.random.default_rng(seed)
    branching = len(EMISSION_PROBS)
    emit = rng.integers(0, cfg.vocab_size, size=(n_states, branching)).tolist()
    trans = rng.integers(0, n_states, size=(n_states, branching)).tolist()
    stream, state = [], 0
    for b in rng.choice(branching, size=n_tokens, p=EMISSION_PROBS).tolist():
        stream.append(emit[state][b])
        state = trans[state][b]
    msl = cfg.context_window
    rows = n_tokens // msl
    dataset = D.PackedDataset(
        sequences=np.asarray(stream[:rows * msl], dtype=np.uint32).reshape(rows, msl),
        offsets=np.arange(rows, dtype=np.uint64) * np.uint64(msl),
        msl=msl,
    )
    return dataset, None


def text_data(n_docs, doc_words, merges, seed, cfg, tmp, tracer):
    """The tokenizer stage and what `pretrain` pays each run: learn BPE on a
    Zipfian corpus, save and reload the vocab, encode every document with the
    reloaded (cold-cache) vocab, pack the ids into rows."""
    docs = zipf_corpus(seed, n_docs, doc_words)
    texts = [D.document_text(d) for d in docs]
    vocab = D.learn_bpe(docs, 2 + D.DEFAULT_PROMPT_SLOTS + D.N_BYTE_TOKENS + merges)
    path = os.path.join(tmp, "vocab.txt")
    D.save_vocab(path, vocab)
    loaded = D.load_vocab(path)
    with tracer.span("data.Vocab.encode"):
        encoded = [loaded.encode(text) for text in texts]
    dataset = D.pack_sequences(encoded, cfg.context_window, loaded.eod_id)
    return dataset, SimpleNamespace(texts=texts, vocab=vocab, loaded=loaded, encoded=encoded)


class Pretrain:
    """Weight-sparse pre-training steps through `training.train_steps`; the
    latency unit is one optimizer step, the throughput item a train token."""

    def __init__(self, config, data, batch, micro, sparsity, peak_lr,
                 grad_clip=None, checkpoint_every=None, downstream=None):
        self.config = config
        self.data = data    # (seed, config, tmp, tracer) -> (dataset, text stage or None)
        self.downstream = downstream
        self.batch = batch
        self.micro = micro
        self.sparsity = sparsity
        self.peak_lr = peak_lr
        self.grad_clip = grad_clip
        self.checkpoint_every = checkpoint_every

    def setup(self, seed, tmp, tracer):
        cfg = self.config
        dataset, text = self.data(seed, cfg, tmp, tracer)
        params = M.init_params(cfg, seed)
        masks = S.build_masks(params, S.SparsityPlan(level=self.sparsity, seed=seed + 1))
        state = TR.init_train_state(params, cfg, TR.Schedule(self.peak_lr, SCHEDULE_STEPS),
                                    self.batch, seed, masks=masks, micro_batch_size=self.micro)
        TR.train_steps(state, dataset, 1, grad_clip=self.grad_clip)  # warm-up step
        return SimpleNamespace(state=state, dataset=dataset, text=text, seed=seed, tmp=tmp,
                               checkpoint_bytes=0, down=None)

    def measure(self, ctx, seconds, plan, tracer):
        state, tokens_per_step = ctx.state, self.batch * self.config.context_window
        save_dir = os.path.join(ctx.tmp, "steps")
        os.makedirs(save_dir, exist_ok=True)
        first_loss = len(state.trace)
        times, refs, errors = [], [], []
        started = time.perf_counter()
        while keep_going(len(times), plan, started, seconds, MIN_STEPS):
            t0 = time.perf_counter()
            try:
                with tracer.span(STEP):
                    TR.train_steps(state, ctx.dataset, 1, grad_clip=self.grad_clip,
                                   out_dir=save_dir if self.checkpoint_every else None,
                                   checkpoint_every=self.checkpoint_every)
            except Exception:  # a step that raises ends the run and counts as failed
                report_failure(errors)
                break
            t1 = time.perf_counter()
            reference_kernel()
            times.append(t1 - t0)
            refs.append(time.perf_counter() - t1)
            # periodic saves stay in the timed steps; keep only the first one's size
            for name in os.listdir(save_dir):
                path = os.path.join(save_dir, name)
                ctx.checkpoint_bytes = ctx.checkpoint_bytes or os.path.getsize(path)
                os.remove(path)
        if self.downstream:
            with tracer.span(DOWNSTREAM):
                ctx.down = self.downstream.run(ctx.seed, ctx.tmp, tracer)
        losses = [rec.loss for rec in state.trace[first_loss:]]
        nonfinite = sum(not math.isfinite(x) for x in losses)
        start, stop = FINAL_LOSS_STEPS
        window = losses[start:stop]
        detail = {
            "train_tokens_per_s": metric(tokens_per_step * len(times) / sum(times), "tokens/s"),
            **latency_detail("step_ms", "ms", [1000.0 * t for t in times]),
            **latency_detail("ref_ms", "ms", [1000.0 * t for t in refs]),
            "final_loss": metric(sum(window) / len(window) if window else math.nan, "nats",
                                 len(window)),
        }
        if ctx.down:
            detail["eval_accuracy"] = metric(ctx.down.accuracy, "fraction", self.downstream.n_test)
        return Measured(step_ms=[1000.0 * t for t in times], ref_ms=[1000.0 * t for t in refs],
                        fingerprint=([rec.loss for rec in state.trace], ctx.checkpoint_bytes,
                                     ctx.text and ctx.text.vocab.merges,
                                     ctx.down and ctx.down.outputs),
                        attempted=len(times) + len(errors),
                        failed=len(errors) + nonfinite, detail=detail)

    def checks(self, ctx, measured):
        state = ctx.state
        pruned_zero = all(not state.params[p].data[state.masks[p] == 0].any()
                          for p in state.masks.paths())
        path = os.path.join(ctx.tmp, "roundtrip.ckpt")
        TR.save_train_state(path, state)
        back = TR.load_train_state(path)
        arrays = [(state.params[p].data, back.params[p].data) for p in state.params]
        arrays += [(state.opt.m[p], back.opt.m[p]) for p in state.opt.m]
        arrays += [(state.opt.v[p], back.opt.v[p]) for p in state.opt.v]
        arrays += [(state.masks[p], back.masks[p]) for p in state.masks.paths()]
        roundtrip = (list(back.params) == list(state.params)
                     and list(back.opt.m) == list(state.opt.m)
                     and list(back.opt.v) == list(state.opt.v)
                     and back.masks.paths() == state.masks.paths()
                     and all(bitwise_equal(a, b) for a, b in arrays)
                     and (back.step, back.opt.step) == (state.step, state.opt.step)
                     and back.rng.bit_generator.state == state.rng.bit_generator.state)
        checks = {"pruned_coordinates_zero": pruned_zero, "train_state_roundtrip": roundtrip}
        if ctx.text:
            text = ctx.text
            checks["decode_encode_identity"] = all(
                text.loaded.decode(ids) == t for ids, t in zip(text.encoded, text.texts))
            checks["vocab_file_roundtrip"] = text.loaded.merges == text.vocab.merges
        if ctx.down:
            checks.update(self.downstream.checks(ctx.down))
        return checks

    def layer_metrics(self, ctx, measured, index):
        cfg = self.config
        rows = (self.micro or self.batch) * cfg.context_window
        gemms = [(cfg.d_model, cfg.d_model), (cfg.d_model, cfg.d_ff),
                 (cfg.d_ff, cfg.d_model), (cfg.d_model, cfg.vocab_size)]
        k, n = max(gemms, key=lambda kn: kn[0] * kn[1])
        batch = ctx.dataset.sequences[:self.micro or self.batch].astype(np.int64)
        flops_per_token = 3.0 * F.forward_flops_per_token(cfg).forward_per_token
        tokens_per_s = measured.detail["train_tokens_per_s"]["value"]
        counts = {"tensor.tape_nodes_per_forward": tape_nodes(
            lambda: M.forward_logits(ctx.state.params, cfg, batch))}
        values = {
            "model.achieved_gflops": flops_per_token * tokens_per_s / 1e9,
            "model.matmul_peak_gflops": matmul_peak_gflops(rows, k, n),
            "checkpoint.bytes": float(ctx.checkpoint_bytes),
        }
        if ctx.text:
            counts["data.merges"] = [len(ctx.text.vocab.merges)]
            values["data.distinct_words"] = float(len(
                {piece for text in ctx.text.texts for piece in D.pre_tokenize(text)}))
        if ctx.down:
            down_counts, down_values = self.downstream.layer_metrics(index)
            counts.update(down_counts)
            values.update(down_values)
        return counts, values


# ------------------------------------------------------- downstream stages

LABELS = ("yes", "no", "maybe")


def label_words(vocab):
    """Label words of 1, 2 and 3 tokens; each starts with its class keyword."""
    return {"yes": (400,), "no": (401, vocab - 2), "maybe": (402, vocab - 5, vocab - 4)}


def separable_task(rng, n, vocab):
    """3-class task with sources of 16 to 96 tokens, evenly spread so that
    every seed has the same lengths. Every source token belongs to its
    class: half are the class keyword, the rest come from a band of 100
    tokens of that class, so the classes are separable by token counts."""
    words = label_words(vocab)
    examples = []
    for length in rng.permutation(np.linspace(16, 96, n).round().astype(int)).tolist():
        c = int(rng.integers(0, 3))
        band = 20 + 100 * c + rng.integers(0, 100, size=length)
        source = np.where(rng.random(length) < 0.5, 400 + c, band).tolist()
        examples.append(FT.TaskExample(source=source, target=list(words[LABELS[c]]),
                                       labels=(LABELS[c],)))
    return examples


class Downstream:
    """The stages after pre-training, run once after the measured steps and
    not timed: an s=0.75 toy model is saved, reloaded with
    `load_model_checkpoint` and densified; `finetune_dense` trains it with a
    9-slot soft prompt (`bind_accuracy_metric` on a validation split each
    epoch); `predict_label` scores each test example one at a time, under
    `no_grad`, one forward per candidate; `generate_labels` decodes a
    multi-label slice."""

    config = M.ModelConfig(n_layers=2, d_model=64, n_heads=4, d_head=16,
                           vocab_size=512, context_window=128)
    sparsity = 0.75
    n_train, n_val, n_test, n_multi = 64, 24, 96, 8
    epochs = 10
    prompt_length = 9
    # chance is 1/3; seeds 0-29 and 100-129 all read 1.0. At 6 epochs, seed 102
    # never left chance, so the fine-tune runs 10.
    accuracy_floor = 0.5

    def run(self, seed, tmp, tracer):
        cfg, vocab = self.config, self.config.vocab_size
        rng = np.random.default_rng(seed)
        train = separable_task(rng, self.n_train, vocab)
        val = separable_task(rng, self.n_val, vocab)
        test = separable_task(rng, self.n_test, vocab)
        words = label_words(vocab)
        space = E.LabelSpace(labels=LABELS, token_ids=tuple(words[x] for x in LABELS))
        multi = E.LabelSpace(labels=LABELS, token_ids=space.token_ids, multi_label=True,
                             separator_ids=(vocab - 7,), stop_id=0)
        params = M.init_params(cfg, seed)
        masks = S.build_masks(params, S.SparsityPlan(level=self.sparsity, seed=seed + 1))
        sparse = S.apply_masks(masks, params)
        path = os.path.join(tmp, "sparse.ckpt")
        TR.save_model_checkpoint(path, cfg, sparse, masks=masks)
        _, loaded, _, loaded_masks, _ = TR.load_model_checkpoint(path)
        dense = S.densify(loaded, loaded_masks)
        job = FT.FinetuneJob(stages=[FT.FinetuneStage("task", train, val)],
                             epochs=self.epochs, batch_size=2, peak_lr=5e-3,
                             prompt_length=self.prompt_length,
                             virtual_ids=tuple(range(2, 2 + self.prompt_length)),
                             pad_id=1, seed=seed)
        tuned = FT.finetune_dense(M.clone_params(dense), cfg, job,
                                  tracer.wrap("evaluation.metric",
                                              E.bind_accuracy_metric(cfg, space)))
        preds = []
        for example in test:
            with tracer.span(EVAL):
                preds.append(E.predict_label(tuned.params, cfg, tuned.prompt, example.source,
                                             space))
        generated = []
        for example in test[:self.n_multi]:
            out = E.generate_labels(tuned.params, cfg, tuned.prompt, example.source, multi,
                                    max_steps=4)
            generated.append((out.labels, out.truncated))
        report = [(r.train_loss, r.val_loss, r.metric) for r in tuned.report]
        accuracy = E.accuracy(preds, [ex.labels[0] for ex in test])
        return SimpleNamespace(sparse=sparse, masks=masks, loaded=loaded,
                               loaded_masks=loaded_masks, dense=dense, accuracy=accuracy,
                               outputs=(report, tuned.prompt.embeddings.data.tobytes(), preds,
                                        generated))

    def checks(self, ctx):
        roundtrip = (list(ctx.loaded) == list(ctx.sparse)
                     and all(bitwise_equal(ctx.loaded[p].data, ctx.sparse[p].data)
                             for p in ctx.sparse)
                     and ctx.loaded_masks.paths() == ctx.masks.paths()
                     and all(bitwise_equal(ctx.loaded_masks[p], ctx.masks[p])
                             for p in ctx.masks.paths()))
        densified = all(
            bitwise_equal(t.data, ctx.loaded[p].data * ctx.loaded_masks[p]
                          if p in ctx.loaded_masks else ctx.loaded[p].data)
            for p, t in ctx.dense.items())
        return {"model_checkpoint_roundtrip": roundtrip,
                "densify_equals_mask_times_weights": densified,
                "eval_accuracy_floor": ctx.accuracy >= self.accuracy_floor}

    def layer_metrics(self, index):
        counts = {"evaluation.forwards_per_example": [
            sum(index.spans[c][1] == "finetune.prompt_forward" for c in index.children[i])
            for i in index.named("evaluation.score_labels")]}
        # a batch runs from its sequence_loss to the end of its adamw_step
        batches = []
        runs = index.named("finetune.finetune_dense")
        for run in runs:
            batch_start = None
            for child in index.children[run]:
                _, name, start, end, _ = index.spans[child]
                if name == "finetune.sequence_loss":
                    batch_start = start
                elif name == "training.adamw_step" and batch_start is not None:
                    batches.append(end - batch_start)
        return counts, {
            "finetune.epoch_s": (sum(index.duration(i) for i in runs)
                                 / (len(runs) * self.epochs)),
            "finetune.batch_ms": 1000.0 * statistics.fmean(batches),
        }


# ------------------------------------------------------------ text corpus

LETTERS = np.array(list("etaoinshrdlcumwfgypbvkjxqz"))
LETTER_FREQ = np.array([12.7, 9.1, 8.2, 7.5, 7.0, 6.7, 6.3, 6.1, 6.0, 4.3, 4.0, 2.8, 2.8,
                        2.4, 2.4, 2.2, 2.0, 2.0, 1.9, 1.5, 1.0, 0.8, 0.2, 0.2, 0.1, 0.1])


def zipf_corpus(seed, n_docs, doc_words, n_words=30000, exponent=1.05):
    """Documents of `doc_words` words each, drawn by `seed` from a fixed
    vocabulary of random words whose use follows a Zipf law; titles, commas
    and full stops included. The vocabulary does not depend on the seed, so
    seeds differ in the text but not in the language, and the work per run
    stays comparable across seeds."""
    vocab_rng = np.random.default_rng(0)
    lengths = vocab_rng.integers(2, 11, size=n_words)
    chars = LETTERS[vocab_rng.choice(len(LETTERS), size=int(lengths.sum()),
                                     p=LETTER_FREQ / LETTER_FREQ.sum())]
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    words = ["".join(chars[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    weights = 1.0 / np.arange(1, n_words + 1) ** exponent
    rng = np.random.default_rng(seed)
    picks = rng.choice(n_words, size=n_docs * doc_words, p=weights / weights.sum()).tolist()
    docs = []
    for at in range(0, len(picks), doc_words):
        chunk = [words[i] for i in picks[at:at + doc_words]]
        for i in range(7, len(chunk), int(rng.integers(8, 20))):
            chunk[i] += ","
        docs.append(D.Document(id=str(len(docs)), title=chunk[0].capitalize(),
                               abstract=" ".join(chunk) + "."))
    return docs


WORKLOADS = {
    "pretrain-small": Pretrain(
        M.ModelConfig(n_layers=2, d_model=64, n_heads=4, d_head=16,
                      vocab_size=512, context_window=64),
        functools.partial(text_data, 200, 150, 30),
        batch=8, micro=None, sparsity=0.5, peak_lr=3e-3, downstream=Downstream()),
    "pretrain-wide": Pretrain(
        M.ModelConfig(n_layers=4, d_model=256, n_heads=4, d_head=64,
                      vocab_size=2048, context_window=128),
        functools.partial(automaton_data, 200_000),
        batch=2, micro=1, sparsity=0.75, peak_lr=1e-3, grad_clip=1.0, checkpoint_every=5),
}
