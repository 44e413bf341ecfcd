import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselm.errors import ContractError
from sparselm import evaluation as E
from sparselm import finetune as FT
from sparselm import model as M
from sparselm import tensor as T

from full_logits import full_logits


def tiny_config(**kw):
    base = dict(n_layers=1, d_model=16, n_heads=2, d_head=8, vocab_size=16,
                context_window=24, tie_embeddings=False)
    base.update(kw)
    return M.ModelConfig(**base)


def fixed_logit_model(cfg, logit_row):
    """All-zero model except final-LN bias e0 and lm_head column 0, so every
    position emits exactly `logit_row`."""
    store = M.init_params(cfg, seed=0)
    for t in store.values():
        t.data[...] = 0.0
    store["ln_f.bias"].data[0] = 1.0
    store["lm_head"].data[:, 0] = np.asarray(logit_row, dtype=np.float32)
    return store


def space(labels, ids, **kw):
    return E.LabelSpace(labels=tuple(labels), token_ids=tuple(tuple(i) for i in ids), **kw)


# ------------------------------------------------------------ label space


def test_label_space_rejects_duplicates_and_empties():
    with pytest.raises(ContractError):
        space(["yes", "yes"], [[1], [2]])
    with pytest.raises(ContractError):
        space(["yes", "no"], [[1], []])
    with pytest.raises(ContractError):
        space([], [])


# ---------------------------------------------------------------- scoring


def test_uniform_model_ties_break_to_first_label():
    cfg = tiny_config()
    store = fixed_logit_model(cfg, np.zeros(16))
    sp = space(["yes", "no", "maybe"], [[5], [6], [7]])
    assert E.predict_label(store, cfg, None, [10, 11], sp) == "yes"


def test_scores_equal_hand_computed_log_softmax():
    cfg = tiny_config(vocab_size=4, n_heads=2, d_head=8)
    row = np.array([0.3, -1.2, 2.0, 0.5])
    store = fixed_logit_model(cfg, row)
    sp = space(["b", "c"], [[1], [2]])
    scores = E.score_labels(store, cfg, None, [0, 3], sp)
    hand = row - np.log(np.exp(row).sum())  # independent log-softmax
    assert scores[0] == pytest.approx(hand[1], abs=1e-5)
    assert scores[1] == pytest.approx(hand[2], abs=1e-5)


def test_two_token_candidate_is_chain_of_conditionals():
    cfg = tiny_config()
    store = M.init_params(cfg, seed=3)
    source = [10, 11, 12]
    sp2 = space(["ab"], [[5, 6]])
    total = E.score_labels(store, cfg, None, source, sp2)[0]

    first = E.score_labels(store, cfg, None, source, space(["a"], [[5]]))[0]
    second = E.score_labels(store, cfg, None, source + [5], space(["b"], [[6]]))[0]
    assert total == pytest.approx(first + second, abs=1e-5)


def test_argmax_invariant_to_constant_shift():
    cfg = tiny_config(vocab_size=4)
    row = np.array([0.3, -1.2, 2.0, 0.5])
    sp = space(["a", "b", "c"], [[0], [1], [2]])
    base = E.predict_label(fixed_logit_model(cfg, row), cfg, None, [3], sp)
    shifted = E.predict_label(fixed_logit_model(cfg, row + 5.0), cfg, None, [3], sp)
    assert base == shifted == "c"


def test_single_candidate_always_predicted():
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    sp = space(["only"], [[5]])
    assert E.predict_label(store, cfg, None, [10], sp) == "only"


def test_score_labels_context_overflow():
    cfg = tiny_config(context_window=3)
    store = M.init_params(cfg, seed=0)
    sp = space(["a"], [[5, 6]])
    with pytest.raises(ContractError):
        E.score_labels(store, cfg, None, [10, 11], sp)


def test_score_labels_with_prompt_uses_virtual_slots():
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    prompt = FT.init_soft_prompt(cfg, 2, virtual_ids=(2, 3), seed=1)
    sp = space(["a", "b"], [[5], [6]])
    with_prompt = E.score_labels(store, cfg, prompt, [10, 11], sp)
    without = E.score_labels(store, cfg, None, [10, 11], sp)
    assert not np.allclose(with_prompt, without)


# ---------------------------------------------------------------- metrics


def test_accuracy_trivials():
    assert E.accuracy(["a", "b"], ["a", "b"]) == 1.0
    assert E.accuracy(["a", "b"], ["b", "a"]) == 0.0
    assert E.accuracy(["a", "b", "c", "d"], ["a", "b", "c", "x"]) == 0.75
    with pytest.raises(ContractError):
        E.accuracy(["a"], ["a", "b"])


def test_micro_f1_hand_confusion_counts():
    gold = [{"A", "B"}, {"C"}]
    pred = [{"A"}, {"B", "C"}]
    # TP=2 (A, C), FP=1 (B in doc 1), FN=1 (B in doc 0)
    assert E.micro_f1(pred, gold) == pytest.approx(2 / 3)


def test_micro_f1_trivials():
    gold = [{"A"}, {"B", "C"}]
    assert E.micro_f1(gold, gold) == 1.0
    assert E.micro_f1([set(), set()], gold) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(6))))
def test_metrics_permutation_invariant(order):
    golds = ["a", "b", "c", "a", "b", "c"]
    preds = ["a", "b", "a", "a", "c", "c"]
    gold_sets = [{"x"}, {"y"}, {"x", "y"}, set(), {"z"}, {"x", "z"}]
    pred_sets = [{"x"}, set(), {"y"}, {"z"}, {"z"}, {"x"}]
    assert E.accuracy([preds[i] for i in order], [golds[i] for i in order]) == \
        E.accuracy(preds, golds)
    assert E.micro_f1([pred_sets[i] for i in order], [gold_sets[i] for i in order]) == \
        pytest.approx(E.micro_f1(pred_sets, gold_sets))


# ------------------------------------------------------------- generation


def multi_space(**kw):
    defaults = dict(multi_label=True, separator_ids=(), stop_id=0)
    defaults.update(kw)
    return space(["A", "B"], [[9], [10]], **defaults)


def test_generate_stop_first_gives_empty_set():
    cfg = tiny_config()
    row = np.zeros(16)
    row[0] = 10.0  # stop token dominates
    store = fixed_logit_model(cfg, row)
    out = E.generate_labels(store, cfg, None, [11, 12], multi_space())
    assert out.labels == () and not out.truncated


def test_generate_dedups_and_flags_truncation():
    cfg = tiny_config()
    row = np.zeros(16)
    row[9] = 10.0  # label A dominates forever, stop never wins
    store = fixed_logit_model(cfg, row)
    out = E.generate_labels(store, cfg, None, [11, 12], multi_space(), max_steps=3)
    assert out.labels == ("A",)
    assert out.truncated


def test_generate_after_finetuning_emits_label_then_stop():
    cfg = tiny_config(tie_embeddings=True)
    rng = np.random.default_rng(0)
    train = [FT.TaskExample(source=rng.integers(11, 16, size=4).tolist(),
                            target=[9], labels=("A",)) for _ in range(24)]
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("a", train)],
                         epochs=5, batch_size=8, peak_lr=5e-3, eos_id=0, seed=0)
    params = M.init_params(cfg, seed=0)
    FT.finetune_dense(params, cfg, job)
    out = E.generate_labels(params, cfg, None, [11, 12, 13, 14], multi_space())
    assert out.labels == ("A",)
    assert not out.truncated


def test_generate_requires_multilabel_space_and_stop():
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    with pytest.raises(ContractError):
        E.generate_labels(store, cfg, None, [1], space(["A"], [[9]], multi_label=False))
    with pytest.raises(ContractError):
        E.generate_labels(store, cfg, None, [1],
                          space(["A"], [[9]], multi_label=True, stop_id=None))


def test_bound_accuracy_metric():
    cfg = tiny_config()
    store = fixed_logit_model(cfg, np.eye(16)[9] * 8.0)  # always predicts token 9
    sp = space(["A", "B"], [[9], [10]])
    metric = E.bind_accuracy_metric(cfg, sp)
    examples = [FT.TaskExample(source=[11], target=[9], labels=("A",)),
                FT.TaskExample(source=[12], target=[10], labels=("B",))]
    assert metric(store, None, examples) == 0.5
    for bad in [FT.TaskExample(source=[12], target=[10], labels=("C",)),
                FT.TaskExample(source=[12], target=[10])]:
        with pytest.raises(ContractError, match="example 1: gold label"):
            metric(store, None, [examples[0], bad])


# ------------------------------------------- reference scorer and decoder


def reference_logprobs(params, cfg, prompt, context, cand):
    """One full forward of [context; cand] and a float64 log-softmax over
    every logit of each scored row."""
    logits = full_logits(params, cfg, np.asarray([list(context) + list(cand)]), prompt)[0]
    total = 0.0
    for t, tok in enumerate(cand):
        row = logits[len(context) + t - 1].astype(np.float64)
        total += row[tok] - row.max() - np.log(np.exp(row - row.max()).sum())
    return total


def reference_context(source, prompt):
    return list(source) + (list(prompt.virtual_ids) if prompt is not None else [])


MIXED = space(["a", "b", "ac", "ad", "bce", "ace", "b2"],
              [[5], [6], [5, 7], [5, 8], [6, 7, 9], [5, 7, 9], [6]])


@pytest.mark.parametrize("dtype,tolerance", [("float64", dict(rel=0, abs=1e-12)),
                                             ("float32", dict(rel=1e-6))])
@pytest.mark.parametrize("with_prompt", [False, True])
def test_scores_match_full_logit_reference(dtype, tolerance, with_prompt):
    cfg = tiny_config()
    store = M.init_params(cfg, seed=4, dtype=dtype)
    prompt = (FT.init_soft_prompt(cfg, 2, virtual_ids=(2, 3), seed=1, dtype=dtype)
              if with_prompt else None)
    source = [10, 11, 12, 4]
    scores = E.score_labels(store, cfg, prompt, source, MIXED)
    context = reference_context(source, prompt)
    for c, cand in enumerate(MIXED.token_ids):
        assert scores[c] == pytest.approx(
            reference_logprobs(store, cfg, prompt, context, cand), **tolerance), MIXED.labels[c]


def reference_generate(params, cfg, prompt, source, sp, max_steps):
    """Greedy decoding, each candidate and the stop token scored by its own
    full forward; the stop token wins a tie, then the first label."""
    context = reference_context(source, prompt)
    emitted = []
    for _ in range(max_steps):
        stop = reference_logprobs(params, cfg, prompt, context, [sp.stop_id])
        best, best_score = None, -np.inf
        for c, cand in enumerate(sp.token_ids):
            if len(context) + len(cand) <= cfg.context_window:
                score = reference_logprobs(params, cfg, prompt, context, cand)
                if score > best_score:
                    best, best_score = c, score
        if best is None or stop >= best_score:
            return tuple(emitted), False
        if sp.labels[best] not in emitted:
            emitted.append(sp.labels[best])
        context += list(sp.token_ids[best]) + list(sp.separator_ids)
    return tuple(emitted), True


def test_generate_matches_reference_decoder():
    cfg = tiny_config()
    sp = space(["A", "B", "CD", "EFG"], [[9], [10], [12, 13], [11, 15, 4]],
               multi_label=True, separator_ids=(14,), stop_id=0)
    outcomes = []
    for seed in range(12):
        store = M.init_params(cfg, seed=seed, dtype="float64")
        store["lm_head"].data *= 30.0  # sharpen the next-token distributions
        store["ln_f.bias"].data[0] = 1.0  # and favour tokens 12 and 13 everywhere
        store["lm_head"].data[[12, 13], 0] += 2.0
        source = np.random.default_rng(seed).integers(4, 16, size=3).tolist()
        out = E.generate_labels(store, cfg, None, source, sp, max_steps=3)
        assert (out.labels, out.truncated) == reference_generate(store, cfg, None, source,
                                                                 sp, max_steps=3), seed
        outcomes.append(out)
    # the seeds cover a stop first, one-token labels, a two-token label and truncation
    emitted = {label for out in outcomes for label in out.labels}
    assert any(out.labels == () for out in outcomes) and {"A", "B", "CD"} <= emitted
    assert any(out.truncated for out in outcomes)


# ------------------------------------------------------ forwards per call


def count_forwards(monkeypatch):
    """The (batch, seq) shape of each forward from here on: a forward makes one embedding."""
    calls, real = [], T.embedding

    def counted(table, pos, ids, *prompt):
        calls.append(ids.shape)
        return real(table, pos, ids, *prompt)

    monkeypatch.setattr(T, "embedding", counted)
    return calls


def test_one_forward_per_scoring_call(monkeypatch):
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    calls = count_forwards(monkeypatch)
    E.score_labels(store, cfg, None, [10, 11], space(["a", "b", "c"], [[5], [6], [7]]))
    assert calls == [(1, 2)]  # the three one-token labels read the context's last row
    calls.clear()
    E.score_labels(store, cfg, None, [10, 11], MIXED)
    # lengths 1, 2 and 3 in one right-padded batch of the distinct fed rows
    # [], [5], [6, 7] and [5, 7]
    assert calls == [(4, 4)]


def test_one_forward_per_generation_step(monkeypatch):
    cfg = tiny_config()
    row = np.zeros(16)
    row[9] = 10.0  # label A wins every step
    store = fixed_logit_model(cfg, row)
    sp = space(["A", "BC"], [[9], [10, 11]], multi_label=True, separator_ids=(14,), stop_id=0)
    calls = count_forwards(monkeypatch)
    out = E.generate_labels(store, cfg, None, [12, 13], sp, max_steps=3)
    assert (out.labels, out.truncated) == (("A",), True)
    # the stop token and A feed the context alone, BC feeds one more token;
    # each step appends A and the separator
    assert calls == [(2, 3), (2, 5), (2, 7)]


def test_generate_makes_no_forward_when_no_candidate_fits(monkeypatch):
    cfg = tiny_config(context_window=3)
    store = M.init_params(cfg, seed=0)
    calls = count_forwards(monkeypatch)
    out = E.generate_labels(store, cfg, None, [11, 12, 13], multi_space())
    assert (out.labels, out.truncated, calls) == ((), False, [])


@pytest.mark.parametrize("with_prompt", [False, True])
def test_each_candidate_scores_the_same_alone_as_among_the_others(with_prompt):
    # alone, a candidate runs unpadded, so padding never reaches a read row
    cfg = tiny_config()
    store = M.init_params(cfg, seed=4, dtype="float64")
    prompt = (FT.init_soft_prompt(cfg, 2, virtual_ids=(2, 3), seed=1, dtype="float64")
              if with_prompt else None)
    source = [10, 11, 12, 4]
    together = E.score_labels(store, cfg, prompt, source, MIXED)
    for c, (label, cand) in enumerate(zip(MIXED.labels, MIXED.token_ids)):
        alone = E.score_labels(store, cfg, prompt, source, space([label], [cand]))[0]
        assert together[c] == pytest.approx(alone, rel=0, abs=1e-12), label


def test_padding_is_never_a_virtual_id():
    # the shorter row is padded with id 0, here a virtual id: the padding
    # reads a prompt row, but causal rows never read the padding
    cfg = tiny_config()
    store = M.init_params(cfg, seed=2, dtype="float64")
    prompt = FT.init_soft_prompt(cfg, 2, virtual_ids=(0, 1), seed=1, dtype="float64")
    sp = space(["a", "bcd"], [[5], [6, 7, 8]])
    scores = E.score_labels(store, cfg, prompt, [], sp)
    for c, cand in enumerate(sp.token_ids):
        assert scores[c] == pytest.approx(
            reference_logprobs(store, cfg, prompt, [0, 1], cand), rel=0, abs=1e-12), sp.labels[c]


def test_scoring_needs_a_non_empty_context():
    cfg = tiny_config()
    store = M.init_params(cfg, seed=0)
    with pytest.raises(ContractError, match="non-empty context"):
        E.score_labels(store, cfg, None, [], space(["a", "b"], [[5], [6, 7]]))
    with pytest.raises(ContractError, match="non-empty context"):
        E.generate_labels(store, cfg, None, [], multi_space())
    prompt = FT.init_soft_prompt(cfg, 2, virtual_ids=(2, 3), seed=1)
    assert E.score_labels(store, cfg, prompt, [], space(["a"], [[5]])).shape == (1,)
