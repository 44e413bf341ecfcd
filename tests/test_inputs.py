"""Every kind of file the CLI reads, damaged at random, through the command
that reads it: the corpus, vocab, task dataset, label space, both JSON
configs, `loss.csv`, and model and train checkpoints.

A damaged input exits 0, or exits 2 with one `error:` line and nothing on
stdout; never 1 and never an exception. When the damaged file no longer
parses, the error names it. The JSON inputs are parsed here to tell; the
vocab, `loss.csv` and checkpoints have no other reader, so each of their
errors must name the file.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselm import cli
from sparselm import data as D
from sparselm import finetune as FT
from sparselm import model as M
from sparselm import sparsity as S
from sparselm import training as TR
from toytask import write_corpus

WORDS = ["alpha", "beta", "gamma", "delta", "yes", "no", "cue"]
MODEL = {"n_layers": 1, "d_model": 16, "n_heads": 2, "d_head": 8,
         "vocab_size": 300, "context_window": 32}
RUN = {"model": MODEL, "steps": 2, "batch_size": 2, "msl": 16, "log_every": 0,
       "val_fraction": 0.1, "checkpoint_every": 1}

# kind -> (the file's name, the command that reads it); {path} is the damaged
# file, {dir} its directory, {base} the undamaged inputs, {out} the outputs
EVAL = ["eval", "--checkpoint", "{base}/model.ckpt", "--vocab", "{base}/vocab.txt",
        "--dataset", "{base}/data.jsonl", "--labels", "{base}/labels.json", "--max-steps", "2"]
KINDS = {
    "corpus": ("corpus.jsonl", ["tokenizer", "--corpus", "{path}", "--vocab-size", "300",
                                "--out", "{out}/vocab.txt"]),
    "vocab": ("vocab.txt", ["pretrain", "--config", "{base}/run.json", "--vocab", "{path}",
                            "--dry-run"]),
    "dataset": ("data.jsonl", [a.replace("{base}/data.jsonl", "{path}") for a in EVAL]),
    "labels": ("labels.json", [a.replace("{base}/labels.json", "{path}") for a in EVAL]),
    "pretrain_config": ("run.json", ["pretrain", "--config", "{path}", "--dry-run"]),
    "model_config": ("model.json", ["flops", "--model-config", "{path}"]),
    "loss_csv": ("loss.csv", ["report", "--runs", "{dir}", "--out", "{out}/merged.csv"]),
    "model_ckpt": ("model.ckpt", ["densify", "--checkpoint", "{path}",
                                  "--out", "{out}/dense.ckpt"]),
    "train_ckpt": ("final.ckpt", ["densify", "--checkpoint", "{path}",
                                  "--out", "{out}/dense.ckpt"]),
}
JSON_KINDS = {"labels", "pretrain_config", "model_config"}
JSONL_KINDS = {"corpus", "dataset"}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The undamaged inputs, each accepted by its command."""
    base = tmp_path_factory.mktemp("base")
    rng = np.random.default_rng(0)
    write_corpus(base / "corpus.jsonl",
                 [D.Document(id=str(i), title=f"doc {i}", abstract=" ".join(rng.choice(WORDS, 10)))
                  for i in range(20)])
    (base / "run.json").write_text(json.dumps(RUN))
    (base / "model.json").write_text(json.dumps(dict(MODEL, d_ff=8, tie_embeddings=False)))
    (base / "labels.json").write_text(json.dumps({"labels": ["yes", "no"]}))
    with open(base / "data.jsonl", "w", encoding="utf-8") as fh:
        for cue, label in [("alpha", "yes"), ("beta", "no"), ("alpha", "yes")]:
            fh.write(json.dumps({"source": f"{cue} cue", "target": label, "labels": [label]})
                     + "\n")
    commands = [["tokenizer", "--corpus", f"{base}/corpus.jsonl", "--vocab-size", "300",
                 "--out", f"{base}/vocab.txt"],
                ["pretrain", "--config", f"{base}/run.json", "--corpus", f"{base}/corpus.jsonl",
                 "--vocab", f"{base}/vocab.txt", "--out", str(base), "--sparsity", "0.5"]]
    for argv in commands:
        assert run_cli(argv)[0] == 0
    # a sparse model with a soft prompt: every section a model checkpoint can hold
    cfg = M.ModelConfig(**dict(MODEL, context_window=64))
    params = M.init_params(cfg, seed=0)
    masks = S.build_masks(params, S.SparsityPlan(level=0.5, seed=1))
    TR.save_model_checkpoint(base / "model.ckpt", cfg, S.apply_masks(masks, params),
                             masks=masks, prompt=FT.init_soft_prompt(cfg, 2, (2, 3)))
    return base


def mutate(data: bytes, how: str, at: int, bit: int) -> bytes:
    if how == "truncate":
        return data[:at % len(data)]
    if how == "flip":
        i = at % len(data)
        return data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1:]
    if how == "insert":
        i = at % (len(data) + 1)
        return data[:i] + b"\xff" + data[i:]
    return how.encode()  # JSON of the wrong type


def parses(kind, data: bytes) -> bool:
    """Whether the JSON inputs still parse to objects; False for the others,
    whose every error is a parse error."""
    def is_object(text):
        try:
            return isinstance(json.loads(text), dict)
        except ValueError:
            return False

    if kind in JSON_KINDS:
        return is_object(data)
    if kind in JSONL_KINDS:
        return all(is_object(line) for line in data.split(b"\n") if line.strip())
    return False


def test_every_undamaged_input_is_accepted(base, tmp_path):
    for kind, (name, argv) in KINDS.items():
        path = base / name
        code, _, err = run_cli([a.format(path=path, dir=base, base=base, out=tmp_path)
                                for a in argv])
        assert code == 0, (kind, err)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(how=st.sampled_from(["truncate", "flip", "insert", '"x"', "[1, 2]", "null"]),
       at=st.integers(min_value=0, max_value=2**20), bit=st.integers(0, 7))
def test_a_damaged_input_exits_0_or_2_naming_the_file(base, tmp_path_factory, kind, how, at,
                                                      bit):
    name, argv = KINDS[kind]
    damaged = tmp_path_factory.mktemp(kind)
    path = damaged / name
    data = mutate((base / name).read_bytes(), how, at, bit)
    path.write_bytes(data)
    code, out, err = run_cli([a.format(path=path, dir=damaged, base=base, out=damaged)
                              for a in argv])
    assert code in (0, 2), err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if not parses(kind, data):
            assert str(path) in err, err
