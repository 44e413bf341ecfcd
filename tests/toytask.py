"""Synthetic tasks shared by the heavier end-to-end tests.

The pre-training corpus is a regular language: a seeded random automaton
over a handful of hidden states, each emitting from its own small token
set with fixed non-uniform probabilities and transitioning on the emitted
branch. Tokens are drawn from the full vocabulary, so the same surface
token can appear in several states and the model has to track context to
predict well; capacity differences between dense and sparse models show
up as a loss gap at a fixed step budget.
"""

import json

import numpy as np

from sparselm import checkpoint as C
from sparselm import data as D
from sparselm import finetune as FT
from sparselm import model as M
from sparselm import training as TR

TOY_VOCAB = 512
EMISSION_PROBS = np.array([0.55, 0.25, 0.15, 0.05])


def toy_model_config(vocab=TOY_VOCAB, context=64):
    return M.ModelConfig(n_layers=2, d_model=64, n_heads=4, d_head=16,
                         vocab_size=vocab, context_window=context)


def pretrain(params, config, dataset, schedule, batch_size, seed, masks=None,
             micro_batch_size=None, weight_decay=0.1, **train_kwargs):
    """Start a run on `params` (`init_train_state`) and train it to the end of
    its schedule, or for `n_steps` (`train_steps`, which takes the rest of
    the keyword arguments)."""
    state = TR.init_train_state(params, config, schedule, batch_size, seed, masks=masks,
                                micro_batch_size=micro_batch_size, weight_decay=weight_decay)
    return TR.train_steps(state, dataset, **train_kwargs)


def stored_moments(state, path):
    """The opt_m and opt_v tensor maps of `state`'s train checkpoint, saved
    at `path`, as the file stores them."""
    TR.save_train_state(path, state)
    sections = C.load_container(path)
    return C.decode_tensor_map(sections["opt_m"]), C.decode_tensor_map(sections["opt_v"])


def assert_stored_as_held(stored, held, masks):
    """Each stored moment has the bits of the optimizer's own, and a masked
    path's holds one entry per active coordinate of its mask."""
    assert list(stored) == list(held)
    for path, moment in held.items():
        assert stored[path].dtype == moment.dtype and stored[path].shape == moment.shape, path
        assert stored[path].tobytes() == moment.tobytes(), path
    for path in masks.paths():
        assert stored[path].shape == (masks.index[path].size,), path


def mask_by_hand(arrays, masks):
    """`arrays` with each masked path multiplied in place by its bool mask."""
    for path, a in arrays.items():
        if path in masks:
            a *= masks[path]
    return arrays


def automaton_stream(n_tokens, vocab=TOY_VOCAB, n_states=64, seed=0):
    rng = np.random.default_rng(seed)
    branching = len(EMISSION_PROBS)
    emit = rng.integers(0, vocab, size=(n_states, branching))
    trans = rng.integers(0, n_states, size=(n_states, branching))
    branches = rng.choice(branching, size=n_tokens, p=EMISSION_PROBS)
    out = np.empty(n_tokens, dtype=np.uint32)
    state = 0
    for i in range(n_tokens):
        b = branches[i]
        out[i] = emit[state, b]
        state = trans[state, b]
    return out


def toy_dataset(n_tokens=200_000, msl=64, seed=0):
    stream = automaton_stream(n_tokens, seed=seed)
    n = len(stream) // msl
    return D.PackedDataset(
        sequences=stream[: n * msl].reshape(n, msl),
        offsets=np.arange(n, dtype=np.uint64) * msl,
        msl=msl,
    )


def write_corpus(path, docs):
    """The inverse of `data.read_corpus`: one JSON object per document."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            rec = {"id": d.id, "title": d.title, "abstract": d.abstract}
            if d.body is not None:
                rec["body"] = d.body
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def yes_no_maybe_task(n_examples, vocab_size, seed=0, source_len=8):
    """Linearly separable 3-class task: the final source token is one of
    three signal tokens and alone determines the label word."""
    rng = np.random.default_rng(seed)
    names = ("yes", "no", "maybe")
    label_tokens = {name: vocab_size - 3 + i for i, name in enumerate(names)}
    signal_tokens = {name: vocab_size - 6 + i for i, name in enumerate(names)}
    examples = []
    for _ in range(n_examples):
        label = names[int(rng.integers(0, 3))]
        filler = rng.integers(20, vocab_size - 6, size=source_len - 1).tolist()
        source = filler + [signal_tokens[label]]
        examples.append(FT.TaskExample(source=source, target=[label_tokens[label]],
                                       labels=(label,)))
    return examples, label_tokens
