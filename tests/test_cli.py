import argparse
import ast
import errno
import json
import os
import pathlib
import re
import subprocess
import sys
import types
import typing

import numpy as np
import pytest

import sparselm
from sparselm import checkpoint as C
from sparselm import cli
from sparselm import data as D
from sparselm import evaluation as E
from sparselm import finetune as FT
from sparselm import flops as F
from sparselm import model as M
from sparselm import training as TR
from sparselm.errors import LIBRARY_RULES, SETTING_RANGES, ContractError, record_shape
from test_finetune import counting, signal_task, tiny_config
from toytask import write_corpus


WORDS = ["alpha", "beta", "gamma", "delta", "omega", "yes", "no", "maybe", "cue"]


@pytest.fixture()
def corpus_path(tmp_path):
    rng = np.random.default_rng(0)
    docs = []
    for i in range(30):
        text = " ".join(rng.choice(WORDS, size=12))
        docs.append(D.Document(id=str(i), title=f"doc {i}", abstract=text))
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, docs)
    return path


@pytest.fixture()
def vocab_path(tmp_path, corpus_path):
    path = tmp_path / "vocab.txt"
    assert cli.main(["tokenizer", "--corpus", str(corpus_path),
                     "--vocab-size", "300", "--out", str(path)]) == 0
    return path


def write_task_file(path, examples):
    with open(path, "w", encoding="utf-8") as fh:
        for source, target, labels in examples:
            fh.write(json.dumps({"source": source, "target": target, "labels": labels}) + "\n")


def model_ckpt(tmp_path, vocab_path, seed=0):
    vocab = D.load_vocab(vocab_path)
    cfg = M.ModelConfig(n_layers=1, d_model=16, n_heads=2, d_head=8,
                        vocab_size=len(vocab), context_window=64)
    path = tmp_path / "model.ckpt"
    TR.save_model_checkpoint(path, cfg, M.init_params(cfg, seed=seed))
    return path


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy is only the tests' oracle
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparselm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, sparselm.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


# -------------------------------------------------------------- tokenizer


def test_tokenizer_is_idempotent(tmp_path, corpus_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert cli.main(["tokenizer", "--corpus", str(corpus_path), "--vocab-size", "300",
                     "--out", str(a)]) == 0
    assert cli.main(["tokenizer", "--corpus", str(corpus_path), "--vocab-size", "300",
                     "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tokenizer_vocab_below_alphabet_exits_2(tmp_path, corpus_path):
    code = cli.main(["tokenizer", "--corpus", str(corpus_path), "--vocab-size", "10",
                     "--out", str(tmp_path / "v.txt")])
    assert code == 2


def test_tokenizer_negative_prompt_slots_exits_2(tmp_path, corpus_path):
    code = cli.main(["tokenizer", "--corpus", str(corpus_path), "--prompt-slots", "-3",
                     "--out", str(tmp_path / "v.txt")])
    assert code == 2


@pytest.mark.parametrize("bad_line", ['[1, 2]', '{"title": "t", "abstract": 5}',
                                      '{"abstract": "a", "body": ["b"]}'])
def test_tokenizer_malformed_corpus_exits_2_naming_the_line(tmp_path, corpus_path, capsys,
                                                             bad_line):
    with open(corpus_path, "a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    code = cli.main(["tokenizer", "--corpus", str(corpus_path), "--out", str(tmp_path / "v.txt")])
    assert code == 2
    assert f"{corpus_path}:31:" in capsys.readouterr().err


def test_unknown_flag_exits_1(corpus_path):
    assert cli.main(["tokenizer", "--corpus", str(corpus_path), "--bogus", "x"]) == 1


# --------------------------------------------------------------- pretrain


def test_pretrain_dry_run_prints_sparse_plan(tmp_path, capsys):
    code = cli.main(["pretrain", "--preset", "xl", "--sparsity", "0.75", "--dry-run"])
    assert code == 0
    out = capsys.readouterr().out
    assert "301,989,888" in out
    assert "1,207,959,552" in out
    assert list(tmp_path.iterdir()) == []  # nothing written


def run_config(tmp_path):
    cfg = {
        "model": {"n_layers": 1, "d_model": 16, "n_heads": 2, "d_head": 8,
                  "vocab_size": 300, "context_window": 32},
        "steps": 5, "batch_size": 4, "msl": 16, "peak_lr": 1e-3,
        "log_every": 0, "val_fraction": 0.1,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def test_pretrain_writes_reproducible_artifacts(tmp_path, corpus_path, vocab_path):
    cfg = run_config(tmp_path)
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli.main(["pretrain", "--config", str(cfg), "--corpus", str(corpus_path),
                         "--vocab", str(vocab_path), "--out", str(out),
                         "--run-name", "toy"])
        assert code == 0
        assert (out / "final.ckpt").exists()
        assert (out / "loss.csv").exists()
        assert json.loads((out / "config.json").read_text())["steps"] == 5
        outs.append(out)
    assert (outs[0] / "loss.csv").read_bytes() == (outs[1] / "loss.csv").read_bytes()
    assert (outs[0] / "final.ckpt").read_bytes() == (outs[1] / "final.ckpt").read_bytes()


def test_failed_text_write_keeps_the_previous_file(tmp_path, monkeypatch):
    # loss.csv, config.json, the reports and the eval CSV all go through
    # _write_text; here the disk fills halfway through the new text
    path = tmp_path / "loss.csv"
    path.write_text("run,step,loss\nold,1,2.5\n", encoding="utf-8")
    before = path.read_bytes()

    class HalfWrite:
        """A file that takes the first half of a write, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    real_open = open
    monkeypatch.setattr(C, "open", lambda *a, **kw: HalfWrite(real_open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        cli._write_text(path, "run,step,loss\n" + "new,1,1.0\n" * 500)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["loss.csv"]


def test_pretrain_missing_corpus_exits_1(tmp_path, vocab_path):
    code = cli.main(["pretrain", "--config", str(run_config(tmp_path)),
                     "--corpus", str(tmp_path / "missing.jsonl"),
                     "--vocab", str(vocab_path), "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("corpus_line,message", [
    ('{"abstract": 5}', "c.jsonl:1: 'abstract' must be str"),
    ('{"abstract": "alpha"}', "c.jsonl: the training split packs into no row of 16 tokens"),
], ids=["refused", "no-rows"])
def test_pretrain_on_a_corpus_it_cannot_train_on_creates_no_run_directory(
        tmp_path, vocab_path, capsys, corpus_line, message):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(corpus_line + "\n")
    code = cli.main(["pretrain", "--config", str(run_config(tmp_path)), "--corpus", str(corpus),
                     "--vocab", str(vocab_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_pretrain_divergence_exits_2(tmp_path, corpus_path, vocab_path, capsys):
    cfg = json.loads(run_config(tmp_path).read_text())
    cfg.update(peak_lr=1e6, steps=20)
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        code = cli.main(["pretrain", "--config", str(path), "--corpus", str(corpus_path),
                         "--vocab", str(vocab_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "training diverged" in capsys.readouterr().err
    assert not (tmp_path / "o" / "final.ckpt").exists()


def test_pretrain_sparsity_out_of_range_exits_2(tmp_path, corpus_path, vocab_path):
    code = cli.main(["pretrain", "--config", str(run_config(tmp_path)),
                     "--corpus", str(corpus_path), "--vocab", str(vocab_path),
                     "--out", str(tmp_path / "o"), "--sparsity", "1.5"])
    assert code == 2


def test_pretrain_dry_run_on_a_runs_config_prints_that_config(tmp_path, corpus_path,
                                                             vocab_path, capsys):
    # a run's config.json is a valid --config: its nulls keep the defaults;
    # every scalar setting, the schedule's fractions included, is also a flag
    out = tmp_path / "run"
    assert cli.main(["pretrain", "--config", str(run_config(tmp_path)),
                     "--corpus", str(corpus_path), "--vocab", str(vocab_path),
                     "--out", str(out), "--sparsity", "0.5", "--micro-batch-size", "2",
                     "--warmup-fraction", "0.2", "--min-lr-fraction", "0.05"]) == 0
    capsys.readouterr()
    resolved = json.loads((out / "config.json").read_text())
    assert (resolved["warmup_fraction"], resolved["min_lr_fraction"]) == (0.2, 0.05)
    assert cli.main(["pretrain", "--config", str(out / "config.json"), "--dry-run"]) == 0
    assert capsys.readouterr().out.startswith((out / "config.json").read_text())


# ---------------------------------------------------------------- densify


def test_densify_pipeline(tmp_path, corpus_path, vocab_path):
    out = tmp_path / "sparse_run"
    assert cli.main(["pretrain", "--config", str(run_config(tmp_path)),
                     "--corpus", str(corpus_path), "--vocab", str(vocab_path),
                     "--out", str(out), "--sparsity", "0.5"]) == 0
    dense_path = tmp_path / "dense.ckpt"
    assert cli.main(["densify", "--checkpoint", str(out / "final.ckpt"),
                     "--out", str(dense_path)]) == 0
    config, params, _step, masks, _ = TR.load_model_checkpoint(dense_path)
    assert masks is None
    sparse_state = TR.load_train_state(out / "final.ckpt")
    for path in sparse_state.masks.paths():
        pruned = sparse_state.masks[path] == 0
        assert np.all(params[path].data[pruned] == 0.0)


def test_densify_truncated_checkpoint_exits_2(tmp_path, vocab_path, capsys):
    ckpt = model_ckpt(tmp_path, vocab_path)
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[: len(blob) // 2])
    assert cli.main(["densify", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "dense.ckpt")]) == 2
    assert f"error: {ckpt}: checkpoint truncated" in capsys.readouterr().err


def test_eval_truncated_vocab_exits_2(tmp_path, vocab_path):
    ckpt = model_ckpt(tmp_path, vocab_path)
    lines = vocab_path.read_text().splitlines(keepends=True)
    vocab_path.write_text("".join(lines[: len(lines) // 2]))
    dataset = tmp_path / "d.jsonl"
    write_task_file(dataset, [("alpha", "yes", ["yes"])])
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": ["yes", "no"]}))
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--dataset", str(dataset), "--labels", str(labels)]) == 2


def test_eval_non_ascii_vocab_header_exits_2(tmp_path, vocab_path, capsys):
    ckpt = model_ckpt(tmp_path, vocab_path)
    blob = vocab_path.read_bytes()
    vocab_path.write_bytes(blob.replace(b"sparselm-vocab", "sparselm-vocäb".encode("utf-8"), 1))
    dataset = tmp_path / "d.jsonl"
    write_task_file(dataset, [("alpha", "yes", ["yes"])])
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": ["yes", "no"]}))
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--dataset", str(dataset), "--labels", str(labels)]) == 2
    assert "not a sparselm vocab file" in capsys.readouterr().err


# ------------------------------------------------------------------ flops


def test_flops_paper_table(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    assert cli.main(["flops", "--paper-table", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "1.00x" in out
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 10  # header + nine rows
    xl75 = [l.split(",") for l in lines[1:] if l.startswith("xl,") and ",0.75," in l]
    assert len(xl75) == 1
    assert abs(float(xl75[0][4]) - 0.38) <= 0.05
    assert abs(float(xl75[0][3]) / 1e20 - 3.448) / 3.448 <= 0.10


def test_flops_custom_tiny_config(tmp_path, capsys):
    cfg = {"n_layers": 1, "d_model": 2, "n_heads": 1, "d_head": 2,
           "vocab_size": 4, "context_window": 2, "d_ff": 8}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["flops", "--model-config", str(path), "--tokens", "2"]) == 0
    out = capsys.readouterr().out
    assert "forward/token" in out and "150.0" in out
    assert "1.00x of dense" in out


def test_flops_csv_writes_its_configs_cost_table_row(tmp_path, capsys):
    # the row `flops.table_row` builds, as for each of the paper table's nine
    cfg = {"n_layers": 1, "d_model": 2, "n_heads": 1, "d_head": 2,
           "vocab_size": 4, "context_window": 2, "d_ff": 8}
    path, out = tmp_path / "tiny.json", tmp_path / "row.csv"
    path.write_text(json.dumps(cfg))
    assert cli.main(["flops", "--model-config", str(path), "--sparsity", "0.5",
                     "--tokens", "2", "--csv", str(out)]) == 0
    assert out.read_text() == "model,size,sparsity,flops,ratio\ncustom,24,0.5,612.0,0.68\n"
    assert out.read_text() == F.table_to_csv([F.table_row("custom", M.ModelConfig(**cfg), 0.5, 2)])


# --------------------------------------------------------- finetune + eval


def finetune_fixtures(tmp_path):
    train = tmp_path / "train.jsonl"
    val = tmp_path / "val.jsonl"
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(12):
        cue = rng.choice(["alpha", "beta"])
        rows.append((f"{cue} cue", "yes" if cue == "alpha" else "no",
                     ["yes" if cue == "alpha" else "no"]))
    write_task_file(train, rows)
    write_task_file(val, rows[:4])
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": ["yes", "no"], "multi_label": False}))
    return train, val, labels


def test_finetune_and_eval_pipeline(tmp_path, vocab_path):
    train, val, labels = finetune_fixtures(tmp_path)
    ckpt = model_ckpt(tmp_path, vocab_path)
    out = tmp_path / "ft"
    code = cli.main(["finetune", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--train", str(train), "--val", str(val), "--out", str(out),
                     "--epochs", "1", "--prompt-length", "2", "--labels", str(labels),
                     "--lr", "1e-3"])
    assert code == 0
    assert (out / "model.ckpt").exists()
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "stage,epoch,train_loss,val_loss,metric"
    assert len(report) == 2

    eval_out = tmp_path / "metrics.csv"
    code = cli.main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--vocab", str(vocab_path), "--dataset", str(val),
                     "--labels", str(labels), "--out", str(eval_out)])
    assert code == 0
    lines = eval_out.read_text().splitlines()
    assert lines[0].startswith("id,gold,pred,score_yes,score_no")
    assert len(lines) == 5


def test_eval_out_csv_bytes(tmp_path, vocab_path):
    # single-label rows carry each candidate's score; multi-label rows the
    # generated set and an empty or `truncated` flag
    _, val, labels = finetune_fixtures(tmp_path)
    multi = tmp_path / "multi.json"
    multi.write_text(json.dumps({"labels": ["yes", "no"], "multi_label": True}))
    ckpt = model_ckpt(tmp_path, vocab_path)
    config, params, _, _, prompt = TR.load_model_checkpoint(ckpt)
    vocab = D.load_vocab(vocab_path)
    examples = cli._read_task_examples(val, vocab)
    space = E.label_space_from_vocab(vocab, ["yes", "no"])
    multi_space = E.label_space_from_vocab(vocab, ["yes", "no"], multi_label=True)
    expected = {labels: "id,gold,pred,score_yes,score_no\n", multi: "id,gold,pred,flags\n"}
    for i, ex in enumerate(examples):
        scores = E.score_labels(params, config, prompt, ex.source, space)
        expected[labels] += (f"{i},{ex.labels[0]},{space.best(scores)},"
                             f"{float(scores[0])!r},{float(scores[1])!r}\n")
        out = E.generate_labels(params, config, prompt, ex.source, multi_space, max_steps=2)
        expected[multi] += (f"{i},{ex.labels[0]},{'|'.join(sorted(out.labels))},"
                            f"{'truncated' if out.truncated else ''}\n")
    for space_path, text in expected.items():
        eval_out = tmp_path / "eval.csv"
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                         "--dataset", str(val), "--labels", str(space_path),
                         "--max-steps", "2", "--out", str(eval_out)]) == 0
        assert eval_out.read_text() == text


def test_finetune_grid_flag(tmp_path, vocab_path):
    train, val, labels = finetune_fixtures(tmp_path)
    ckpt = model_ckpt(tmp_path, vocab_path)
    out = tmp_path / "grid"
    code = cli.main(["finetune", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--train", str(train), "--val", str(val), "--out", str(out),
                     "--epochs", "1", "--grid", "--grid-batch-sizes", "4",
                     "--grid-lrs", "0.001"])
    assert code == 0
    assert (out / "grid.csv").read_text().startswith("batch_size,lr,score")


def test_finetune_grid_list_replaces_its_own_axis_of_the_preset_grid(tmp_path, vocab_path):
    train, _, _ = finetune_fixtures(tmp_path)
    ckpt = model_ckpt(tmp_path, vocab_path)
    out = tmp_path / "grid"
    code = cli.main(["finetune", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--train", str(train), "--out", str(out), "--epochs", "1",
                     "--task-preset", "hoc", "--grid", "--grid-lrs", "0.01"])
    assert code == 0
    rows = [line.split(",")[:2] for line in (out / "grid.csv").read_text().splitlines()[1:]]
    assert rows == [[str(bs), "0.01"] for bs in cli.TASK_PRESETS["hoc"]["grid_batch_sizes"]]


@pytest.mark.parametrize("flags", [[], ["--val", "{val}"],
                                   ["--val", "{val}", "--labels", "{labels}"]],
                         ids=["train-only", "val", "val-labels"])
def test_finetune_grid_of_zero_epochs_exits_2_before_the_first_update(
        tmp_path, vocab_path, capsys, monkeypatch, flags):
    train, val, labels = finetune_fixtures(tmp_path)
    updates = counting(monkeypatch, TR, "adamw_step")
    code = cli.main(["finetune", "--checkpoint", str(model_ckpt(tmp_path, vocab_path)),
                     "--vocab", str(vocab_path), "--train", str(train),
                     "--out", str(tmp_path / "ft"), "--epochs", "0", "--grid",
                     "--grid-batch-sizes", "4", "--grid-lrs", "0.001",
                     *(f.format(val=val, labels=labels) for f in flags)])
    assert (code, updates) == (2, [])
    assert capsys.readouterr() == ("", "error: comparing fine-tunes needs epochs >= 1, got 0\n")
    assert not (tmp_path / "ft").exists()


def test_finetune_ablation_of_zero_epochs_exits_2_before_the_first_update(tmp_path, vocab_path,
                                                                          capsys, monkeypatch):
    train, val, labels = finetune_fixtures(tmp_path)
    updates = counting(monkeypatch, TR, "adamw_step")
    code = cli.main(["finetune", "--checkpoint", str(model_ckpt(tmp_path, vocab_path)),
                     "--vocab", str(vocab_path), "--train", str(train), "--val", str(val),
                     "--labels", str(labels), "--out", str(tmp_path / "ft"), "--epochs", "0",
                     "--ablation", "--prompt-length", "2"])
    assert (code, updates) == (2, [])
    assert capsys.readouterr() == ("", "error: comparing fine-tunes needs epochs >= 1, got 0\n")
    assert not (tmp_path / "ft").exists()


@pytest.mark.parametrize("flags,message", [
    (["--grid-lrs", "0.01"], "--grid-batch-sizes and --grid-lrs need --grid"),
    (["--grid", "--ablation", "--grid-batch-sizes", "4", "--grid-lrs", "0.01"],
     "--grid and --ablation cannot be combined"),
    (["--val", "{val}", "{val}"], "2 --val files for 1 --train files"),
    (["--grid", "--grid-batch-sizes", "--grid-lrs", "0.01"],
     "--grid needs a --task-preset or both non-empty --grid-batch-sizes and --grid-lrs"),
], ids=["grid-list-without-grid", "ablation-with-grid", "more-val-than-train", "empty-grid-list"])
def test_finetune_flag_that_would_be_ignored_exits_2(tmp_path, vocab_path, capsys, flags,
                                                     message):
    train, val, _ = finetune_fixtures(tmp_path)
    ckpt = model_ckpt(tmp_path, vocab_path)
    code = cli.main(["finetune", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--train", str(train), "--out", str(tmp_path / "ft"), "--epochs", "1",
                     "--prompt-length", "2", *(f.format(val=val) for f in flags)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ft").exists()


@pytest.mark.parametrize("flags,source,message", [
    (["--patience", "1"], "alpha cue",
     "stage 'train.jsonl': early stopping needs a validation split"),
    ([], " ".join(["alpha beta"] * 40),
     "stage 'train.jsonl', train[1]: sequence length"),
], ids=["patience-without-val", "longer-than-the-context"])
def test_finetune_job_the_library_refuses_leaves_no_run_directory(tmp_path, vocab_path, capsys,
                                                                  flags, source, message):
    train = tmp_path / "train.jsonl"
    write_task_file(train, [("alpha cue", "yes", ["yes"]), (source, "no", ["no"])])
    code = cli.main(["finetune", "--checkpoint", str(model_ckpt(tmp_path, vocab_path)),
                     "--vocab", str(vocab_path), "--train", str(train),
                     "--out", str(tmp_path / "ft"), "--epochs", "1", *flags])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert not (tmp_path / "ft").exists()


@pytest.mark.parametrize("command", ["eval", "finetune"])
def test_a_vocab_that_is_not_the_models_exits_2_naming_the_vocab(tmp_path, vocab_path, capsys,
                                                                 command):
    train, val, labels = finetune_fixtures(tmp_path)
    n = len(D.load_vocab(vocab_path))
    cfg = M.ModelConfig(n_layers=1, d_model=16, n_heads=2, d_head=8, vocab_size=n + 200,
                        context_window=64)
    ckpt = tmp_path / "model.ckpt"
    TR.save_model_checkpoint(ckpt, cfg, M.init_params(cfg, seed=0))
    args = {"eval": ["--dataset", str(val)],
            "finetune": ["--train", str(train), "--epochs", "1", "--out", str(tmp_path / "ft")]}
    code = cli.main([command, "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--labels", str(labels), *args[command]])
    assert (code, *capsys.readouterr()) == (
        2, "", f"error: {vocab_path}: vocab size {n} != model vocab {n + 200}\n")
    assert not (tmp_path / "ft").exists()


def test_finetune_candidate_past_the_context_exits_2_before_the_first_update(
        tmp_path, vocab_path, capsys, monkeypatch):
    # [source; prompt; candidate] is checked per val line as the file is read,
    # by the rule `evaluation.score_labels` applies, not at the first scoring
    vocab = D.load_vocab(vocab_path)
    long_label = " ".join(["omega"] * 6)
    sources = ["cue", "alpha beta gamma cue"]
    window = len(vocab.encode(sources[0])) + 2 + len(vocab.encode(long_label))
    need = len(vocab.encode(sources[1])) + 2 + len(vocab.encode(long_label))
    assert need > window
    cfg = M.ModelConfig(n_layers=1, d_model=16, n_heads=2, d_head=8, vocab_size=len(vocab),
                        context_window=window)
    ckpt = tmp_path / "model.ckpt"
    TR.save_model_checkpoint(ckpt, cfg, M.init_params(cfg, seed=0))
    train, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    write_task_file(train, [("alpha cue", "yes", ["yes"]), ("beta cue", "no", ["no"])])
    write_task_file(val, [(source, "yes", ["yes"]) for source in sources])
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": ["yes", long_label]}))
    updates = counting(monkeypatch, TR, "adamw_step")
    code = cli.main(["finetune", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--train", str(train), "--val", str(val), "--labels", str(labels),
                     "--prompt-length", "2", "--epochs", "1", "--out", str(tmp_path / "ft")])
    assert (code, updates) == (2, [])
    assert capsys.readouterr() == ("", f"error: {val}:2: candidate {long_label!r}: sequence "
                                       f"{need} exceeds context window {window}\n")
    assert not (tmp_path / "ft").exists()


@pytest.mark.parametrize("multi_label", [False, True])
def test_eval_candidate_past_the_context_names_the_line(tmp_path, vocab_path, capsys,
                                                        multi_label):
    # [source; the checkpoint's prompt; candidate] is checked as the dataset is
    # read; generation skips a candidate that does not fit
    vocab = D.load_vocab(vocab_path)
    long_label = " ".join(["omega"] * 6)
    sources = ["cue", "alpha beta gamma cue"]
    window = len(vocab.encode(sources[0])) + 2 + len(vocab.encode(long_label))
    need = len(vocab.encode(sources[1])) + 2 + len(vocab.encode(long_label))
    assert need > window
    cfg = M.ModelConfig(n_layers=1, d_model=16, n_heads=2, d_head=8, vocab_size=len(vocab),
                        context_window=window)
    ckpt = tmp_path / "model.ckpt"
    TR.save_model_checkpoint(ckpt, cfg, M.init_params(cfg, seed=0),
                             prompt=M.init_soft_prompt(cfg, 2, vocab.prompt_ids))
    dataset = tmp_path / "d.jsonl"
    write_task_file(dataset, [(source, "yes", ["yes"]) for source in sources])
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": ["yes", long_label], "multi_label": multi_label}))
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--dataset", str(dataset), "--labels", str(labels), "--max-steps", "2"])
    out, err = capsys.readouterr()
    if multi_label:
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (2, "", f"error: {dataset}:2: candidate {long_label!r}: "
                                           f"sequence {need} exceeds context window {window}\n")


def test_finetune_ablation_writes_both_arms(tmp_path, vocab_path):
    train, val, labels = finetune_fixtures(tmp_path)
    ckpt = model_ckpt(tmp_path, vocab_path)
    out = tmp_path / "abl"
    code = cli.main(["finetune", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--train", str(train), "--out", str(out),
                     "--epochs", "1", "--prompt-length", "2", "--ablation"])
    assert code == 0
    assert (out / "with_prompt_report.csv").exists()
    assert (out / "without_prompt_report.csv").exists()


def test_finetune_no_prompt_is_prompt_length_zero(tmp_path, vocab_path):
    # no prompt is the default, and a flag beats its preset's value
    train, val, labels = finetune_fixtures(tmp_path)
    ckpt = model_ckpt(tmp_path, vocab_path)
    runs = {"default": [], "overridden": ["--task-preset", "hoc", "--prompt-length", "0"],
            "zero": ["--prompt-length", "0"]}
    written = {}
    for name, flags in runs.items():
        out = tmp_path / name
        code = cli.main(["finetune", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                         "--train", str(train), "--val", str(val), "--out", str(out),
                         "--epochs", "1", "--labels", str(labels), "--lr", "1e-3"] + flags)
        assert code == 0
        written[name] = [(out / f).read_bytes()
                         for f in ("model.ckpt", "report.csv", "config.json")]
    assert written["default"] == written["overridden"] == written["zero"]
    assert json.loads(written["zero"][2])["prompt_length"] == 0


def test_eval_single_candidate_is_always_right(tmp_path, vocab_path):
    ckpt = model_ckpt(tmp_path, vocab_path)
    dataset = tmp_path / "d.jsonl"
    write_task_file(dataset, [("alpha cue", "yes", ["yes"]), ("beta cue", "yes", ["yes"])])
    labels = tmp_path / "single.json"
    labels.write_text(json.dumps({"labels": ["yes"]}))
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--dataset", str(dataset), "--labels", str(labels),
                     "--metric-floor", "0.99"])
    assert code == 0


def test_eval_metric_floor_failure_exits_3(tmp_path, vocab_path):
    ckpt = model_ckpt(tmp_path, vocab_path)
    dataset = tmp_path / "d.jsonl"
    # identical sources with conflicting golds: accuracy can be at most 0.5
    write_task_file(dataset, [("alpha cue", "yes", ["yes"]), ("alpha cue", "no", ["no"])])
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": ["yes", "no"]}))
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--dataset", str(dataset), "--labels", str(labels),
                     "--metric-floor", "0.99"])
    assert code == 3


def test_eval_duplicate_labels_exit_2(tmp_path, vocab_path):
    ckpt = model_ckpt(tmp_path, vocab_path)
    dataset = tmp_path / "d.jsonl"
    write_task_file(dataset, [("alpha", "yes", ["yes"])])
    labels = tmp_path / "dup.json"
    labels.write_text(json.dumps({"labels": ["yes", "yes"]}))
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--dataset", str(dataset), "--labels", str(labels)])
    assert code == 2


@pytest.mark.parametrize("command", ["eval", "finetune"])
@pytest.mark.parametrize("bad_line", ['{"source": "alpha", "target"', '{"source": "alpha"}',
                                      '["alpha", "yes"]',
                                      '{"source": "alpha", "target": "yes", "labels": "yes"}',
                                      '{"source": "", "target": "yes"}'])
def test_malformed_task_dataset_exits_2_naming_the_line(tmp_path, vocab_path, capsys,
                                                         command, bad_line):
    ckpt = model_ckpt(tmp_path, vocab_path)
    dataset = tmp_path / "d.jsonl"
    write_task_file(dataset, [("alpha", "yes", ["yes"])])
    with open(dataset, "a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": ["yes", "no"]}))
    args = {"eval": ["--dataset", str(dataset), "--labels", str(labels)],
            "finetune": ["--train", str(dataset), "--out", str(tmp_path / "ft")]}[command]
    code = cli.main([command, "--checkpoint", str(ckpt), "--vocab", str(vocab_path), *args])
    assert code == 2
    assert f"{dataset}:2:" in capsys.readouterr().err


# ----------------------------------------------------------------- report


def test_report_merges_runs(tmp_path, corpus_path, vocab_path):
    cfg = run_config(tmp_path)
    for name in ("r1", "r2"):
        assert cli.main(["pretrain", "--config", str(cfg), "--corpus", str(corpus_path),
                         "--vocab", str(vocab_path), "--out", str(tmp_path / name),
                         "--run-name", name]) == 0
    merged = tmp_path / "curves.csv"
    assert cli.main(["report", "--runs", str(tmp_path / "r1"), str(tmp_path / "r2"),
                     "--out", str(merged)]) == 0
    parsed = TR.parse_loss_curves(merged.read_text())
    assert set(parsed) == {"r1", "r2"}
    assert len(parsed["r1"]) == 5


def test_report_reads_a_run_whose_name_holds_a_comma(tmp_path, corpus_path, vocab_path):
    # the run name is the --out directory's name, written as one quoted CSV cell
    out = tmp_path / "run,a"
    assert cli.main(["pretrain", "--config", str(run_config(tmp_path)), "--corpus",
                     str(corpus_path), "--vocab", str(vocab_path), "--out", str(out)]) == 0
    merged = tmp_path / "curves.csv"
    assert cli.main(["report", "--runs", str(out), "--out", str(merged)]) == 0
    curves = TR.parse_loss_curves(merged.read_text())
    assert list(curves) == ["run,a"] and len(curves["run,a"]) == 5
    assert merged.read_bytes() == (out / "loss.csv").read_bytes()


def write_runs(tmp_path, names):
    """A run directory at tmp_path/<name> for each name, each with one curve `x`."""
    dirs = []
    for i, name in enumerate(names):
        (tmp_path / name).mkdir(parents=True)
        (tmp_path / name / "loss.csv").write_text(f"run,step,loss\nx,1,{i}.5\n")
        dirs.append(str(tmp_path / name))
    return dirs


def test_report_labels_a_clashing_run_by_its_directory(tmp_path):
    merged = tmp_path / "m.csv"
    assert cli.main(["report", "--runs", *write_runs(tmp_path, ["a", "b", "c"]),
                     "--out", str(merged)]) == 0
    assert TR.parse_loss_curves(merged.read_text()) == {"x": [(1, 0.5)], "b/x": [(1, 1.5)],
                                                        "c/x": [(1, 2.5)]}


def test_report_exits_2_when_a_label_is_still_taken(tmp_path, capsys):
    # a/x gives `x`, b/x `x/x`, and c/x would take `x/x` again: no curve is dropped
    dirs = write_runs(tmp_path, ["a/x", "b/x", "c/x"])
    assert cli.main(["report", "--runs", *dirs, "--out", str(tmp_path / "m.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1, captured
    assert dirs[1] in captured.err and dirs[2] in captured.err and "'x/x'" in captured.err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("text,line", [
    ("run,step,loss\nr1,1,2.5\nr1,2\n", 3),
    ("run,step,loss\nr1,1,2.", 2),
    ("run,step,loss\nr1,1.5,2.5\n", 2),
    ("run,step,loss\nr1,1,2.5,7\n", 2),
    ("run,step\nr1,1\n", 1),
    ("", 1),
], ids=["short-row", "cut-mid-number", "float-step", "long-row", "wrong-header", "empty"])
def test_report_on_a_malformed_loss_csv_exits_2_naming_the_line(tmp_path, capsys, text, line):
    run = tmp_path / "r1"
    run.mkdir()
    (run / "loss.csv").write_bytes(text.encode())
    assert cli.main(["report", "--runs", str(run), "--out", str(tmp_path / "m.csv")]) == 2
    assert f"{run / 'loss.csv'}:{line}: " in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


# each malformed label space -> what its error says after the file's name
LABEL_SPACE_ERRORS = {
    '{"labels": "yes"}': "'labels' must be list[str], got 'yes'",
    '{"labels": [1, 2]}': "'labels' must be list[str], got [1, 2]",
    '{}': "missing key 'labels'",
    '{"labels": []}': "label space is empty",
    '["yes", "no"]': "not a JSON object of label-space fields",
    '{"labels": ["yes"], "multi_label": "no"}': "'multi_label' must be bool, got 'no'",
    '{"labels": ["yes"], "separator": 3}': "'separator' must be str, got 3",
}


@pytest.mark.parametrize("command", ["eval", "finetune"])
@pytest.mark.parametrize("spec", [{"labels": "yes"}, {"labels": [1, 2]}, {}, {"labels": []},
                                  ["yes", "no"], {"labels": ["yes"], "multi_label": "no"},
                                  {"labels": ["yes"], "separator": 3}])
def test_malformed_label_space_exits_2_naming_the_file(tmp_path, vocab_path, capsys,
                                                       command, spec):
    train, val, _ = finetune_fixtures(tmp_path)
    ckpt = model_ckpt(tmp_path, vocab_path)
    labels = tmp_path / "bad_labels.json"
    labels.write_text(json.dumps(spec))
    args = {"eval": ["--dataset", str(val)],
            "finetune": ["--train", str(train), "--out", str(tmp_path / "ft")]}[command]
    code = cli.main([command, "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--labels", str(labels), *args])
    assert code == 2
    assert capsys.readouterr().err == f"error: {labels}: {LABEL_SPACE_ERRORS[json.dumps(spec)]}\n"


@pytest.mark.parametrize("command", ["eval", "finetune"])
@pytest.mark.parametrize("gold", [["maybe"], []])
def test_gold_label_outside_the_label_space_exits_2(tmp_path, vocab_path, capsys, command,
                                                    gold):
    ckpt = model_ckpt(tmp_path, vocab_path)
    dataset = tmp_path / "d.jsonl"
    write_task_file(dataset, [("alpha cue", "yes", ["yes"]), ("beta cue", "maybe", gold)])
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": ["yes", "no"]}))
    args = {"eval": ["--dataset", str(dataset)],
            "finetune": ["--train", str(dataset), "--val", str(dataset), "--epochs", "1",
                         "--out", str(tmp_path / "ft")]}[command]
    code = cli.main([command, "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--labels", str(labels), *args])
    assert code == 2
    # both check a gold label as they read its line: finetune before any epoch
    assert f"{dataset}:2: gold label {gold[0] if gold else None!r}" in capsys.readouterr().err
    assert not (tmp_path / "ft").exists()


@pytest.mark.parametrize("golds,code", [(["yes", "zzz"], 2), ([], 0)])
def test_multi_label_gold_outside_the_label_space_exits_2(tmp_path, vocab_path, capsys,
                                                          golds, code):
    # every gold label of a multi-label example must be a candidate; an
    # empty gold set is valid
    ckpt = model_ckpt(tmp_path, vocab_path)
    dataset = tmp_path / "d.jsonl"
    write_task_file(dataset, [("alpha cue", "yes", ["yes", "no"]), ("beta cue", "no", golds)])
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": ["yes", "no"], "multi_label": True}))
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--dataset", str(dataset), "--labels", str(labels),
                     "--max-steps", "2"]) == code
    if code:
        assert f"{dataset}:2: gold label 'zzz'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "finetune", "pretrain", "flops"])
def test_label_space_that_is_not_json_exits_2_naming_the_file(tmp_path, vocab_path, capsys,
                                                              command):
    # the label space, and the JSON inputs of pretrain and flops
    train, val, _ = finetune_fixtures(tmp_path)
    ckpt = model_ckpt(tmp_path, vocab_path)
    labels = tmp_path / "truncated.json"
    labels.write_text('{"labels": ["yes" "no"]')
    model_args = ["--checkpoint", str(ckpt), "--vocab", str(vocab_path), "--labels", str(labels)]
    args = {"eval": [*model_args, "--dataset", str(val)],
            "finetune": [*model_args, "--train", str(train), "--out", str(tmp_path / "ft")],
            "pretrain": ["--config", str(labels), "--dry-run"],
            "flops": ["--model-config", str(labels)]}[command]
    code = cli.main([command, *args])
    assert code == 2
    assert f"{labels}: invalid JSON" in capsys.readouterr().err


def test_finetune_with_a_multi_label_space_exits_2_naming_the_file(tmp_path, vocab_path,
                                                                   capsys):
    train, val, _ = finetune_fixtures(tmp_path)
    ckpt = model_ckpt(tmp_path, vocab_path)
    labels = tmp_path / "multi.json"
    labels.write_text(json.dumps({"labels": ["yes", "no"], "multi_label": True}))
    code = cli.main(["finetune", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                     "--train", str(train), "--val", str(val), "--labels", str(labels),
                     "--out", str(tmp_path / "ft")])
    assert code == 2
    assert f"{labels}: metric tracking needs a single-label space" in capsys.readouterr().err
    assert not (tmp_path / "ft").exists()


# ------------------------------------------------------------- bad inputs

TINY_MODEL = {"n_layers": 1, "d_model": 2, "n_heads": 1, "d_head": 2,
              "vocab_size": 4, "context_window": 2, "d_ff": 8}
FLOPS = ["flops", "--model-config", "{path}"]
DRY_RUN = ["pretrain", "--config", "{path}", "--dry-run"]

# each input as (command, file name, bytes, what the message names besides the file)
BAD_INPUTS = {
    "flops-model-not-an-object": (FLOPS, "m.json", '"x"', "ModelConfig fields"),
    "flops-float-n_layers": (FLOPS, "m.json", json.dumps(dict(TINY_MODEL, n_layers=1.5)),
                             "n_layers"),
    "flops-str-tie_embeddings": (FLOPS, "m.json",
                                 json.dumps(dict(TINY_MODEL, tie_embeddings="no")),
                                 "tie_embeddings"),
    "pretrain-null": (DRY_RUN, "c.json", "null", "not a JSON object"),
    "pretrain-str-sparsity": (DRY_RUN, "c.json", '{"sparsity": "0.5"}', "'sparsity'"),
    "pretrain-str-peak_lr": (DRY_RUN, "c.json", '{"peak_lr": "a"}', "'peak_lr'"),
    "pretrain-str-steps": (DRY_RUN, "c.json", '{"steps": "x", "preset": "xl"}', "'steps'"),
    "pretrain-bool-steps": (DRY_RUN, "c.json", '{"steps": true, "preset": "xl"}', "'steps'"),
    "pretrain-unknown-key": (DRY_RUN, "c.json", '{"stepz": 3}', "'stepz'"),
    "pretrain-model-not-an-object": (DRY_RUN, "c.json", '{"model": [1, 2]}', "'model'"),
    "pretrain-model-missing-fields": (DRY_RUN, "c.json",
                                      '{"model": {"n_layers": 1, "d_model": 16}}', "'n_heads'"),
    "pretrain-model-unknown-field": (DRY_RUN, "c.json",
                                     json.dumps({"model": dict(TINY_MODEL, depth=3)}), "'depth'"),
    "pretrain-negative-seed": (DRY_RUN, "c.json", '{"seed": -1}', "seed must be >= 0"),
    "pretrain-negative-mask_seed": (DRY_RUN, "c.json", '{"sparsity": 0.5, "mask_seed": -1}',
                                    "mask_seed must be >= 0"),
    "pretrain-negative-steps": (DRY_RUN, "c.json", '{"steps": -3}', "steps must be >= 1, got -3"),
    "pretrain-zero-micro_batch_size": (DRY_RUN, "c.json", '{"micro_batch_size": 0}',
                                       "micro_batch_size must be >= 1, got 0"),
    "pretrain-negative-micro_batch_size": (DRY_RUN, "c.json", '{"micro_batch_size": -1}',
                                           "micro_batch_size must be >= 1, got -1"),
    "report-non-utf8-loss-csv": (["report", "--runs", "{dir}", "--out", "{dir}/merged.csv"],
                                 "loss.csv", b"run,step,loss\nr1,1,2.5\xff\n", ":2: not UTF-8"),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_exits_2_naming_the_file_with_nothing_on_stdout(tmp_path, capsys, name):
    argv, file_name, content, fragment = BAD_INPUTS[name]
    path = tmp_path / "in" / file_name
    path.parent.mkdir()
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code = cli.main([a.format(path=path, dir=path.parent) for a in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}") and err.count("\n") == 1, err
    assert fragment in err


@pytest.mark.parametrize("flag,value", [("--micro-batch-size", "0"), ("--micro-batch-size", "-1"),
                                        ("--seed", "-1"), ("--mask-seed", "-1")])
def test_out_of_range_flag_exits_2_naming_the_flag(tmp_path, capsys, flag, value):
    # a valid value from the file does not hide the flag's; the flag's wins over a bad file value
    config = tmp_path / "c.json"
    config.write_text(json.dumps({flag[2:].replace("-", "_"): 1, "preset": "xl"}))
    code = cli.main(["pretrain", "--config", str(config), "--dry-run", flag, value])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be >= {0 if 'seed' in flag else 1}, got {value}\n"
    config.write_text(json.dumps({flag[2:].replace("-", "_"): int(value), "preset": "xl"}))
    assert cli.main(["pretrain", "--config", str(config), "--dry-run", flag, "1"]) == 0


# ----------------------------------------------------------------- ranges

# a numeric option or field that its own range rule does not check, and why
UNRANGED_ALLOWED = {
    "metric_floor": "the floor is any number a metric may be held to",
    "peak_lr": "the library checks it by `library_peak_lr` (>= 0: lr 0 freezes a run); "
               "> 0 is the command line's rule",
    "smoothed": "a measured value, not a setting",
    "pad_id": "checked against the vocab",
    "eos_id": "checked against the vocab",
}

# the fields of each object the library builds from settings: the train
# checkpoint sections that hold them, and a fine-tune job
LIBRARY_SHAPES = {name: TR.SECTION_SHAPES[name] for name in ("schedule", "opt_meta", "trainer")}
LIBRARY_SHAPES["job"] = record_shape(FT.FinetuneJob)


def numeric_kind(kind):
    """The number type of a kind such as `int` or `float | None`; None for any other kind."""
    kinds = typing.get_args(kind) if isinstance(kind, types.UnionType) else (kind,)
    return next((k for k in kinds if k in (int, float)), None)


def numeric_options(parser):
    """(command, dest, type) of every int or float option of `parser`'s subcommands."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.dest, action.type) for command, sub in commands.choices.items()
            for action in sub._actions if action.type in (int, float)]


def unranged(parser, settings, ranges):
    """The int and float options of `parser` and the keys of `settings`
    whose value is an int or float (or None) that have no entry in `ranges`."""
    names = {dest for _, dest, _ in numeric_options(parser)}
    names |= {key for key, (kind, _) in settings.items() if numeric_kind(kind)}
    return sorted(names - set(ranges))


def test_unranged_option_is_found():
    parser = argparse.ArgumentParser()
    p = parser.add_subparsers().add_parser("x")
    p.add_argument("--depth", type=int)
    p.add_argument("--rates", type=float, nargs="*")
    p.add_argument("--name")
    assert unranged(parser, {"width": (int, 1), "tag": (str, None), "cap": (float | None, None),
                             "ids": (tuple[int, ...], ())}, {"rates": "> 0"}) == \
        ["cap", "depth", "width"]


def test_every_numeric_flag_and_setting_has_a_range():
    for settings in [cli.PRETRAIN_SETTINGS, cli.FINETUNE_SETTINGS, *LIBRARY_SHAPES.values()]:
        found = unranged(cli.build_parser(), settings, SETTING_RANGES)
        assert [name for name in found if name not in UNRANGED_ALLOWED] == []


def literal_range_keys():
    """The keys of every dict literal the package passes to `check_ranges`."""
    keys = set()
    for path in pathlib.Path(sparselm.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_ranges"
                    and isinstance(node.args[0], ast.Dict)):
                keys |= {key.value for key in node.args[0].keys if isinstance(key, ast.Constant)}
    return keys


def test_every_range_rule_and_exemption_names_a_flag_setting_or_field():
    # the reverse of the test above: a rule no flag, setting, library field or
    # literal check uses any more is found, and so is a stale exemption
    literal = literal_range_keys()
    assert {"seed", "sparsity", "msl", "tokens"} <= literal
    names = {dest for _, dest, _ in numeric_options(cli.build_parser())} | literal
    names |= {key for settings in [cli.PRETRAIN_SETTINGS, cli.FINETUNE_SETTINGS,
                                   *LIBRARY_SHAPES.values()] for key in settings}
    names |= set(LIBRARY_RULES.values())
    assert sorted(set(SETTING_RANGES) - names) == []
    assert sorted(set(UNRANGED_ALLOWED) - names) == []


def nearest_values(rule, kind):
    """(the nearest value outside, the nearest inside) at each end of `rule`."""
    step = 1 if kind is int else 0.001
    for op, bound in (term.split() for term in rule.split(" and ")):
        bound = kind(bound)
        yield {">=": (bound - step, bound), ">": (bound, bound + step),
               "<=": (bound + step, bound), "<": (bound, bound - step)}[op]


RANGE_CASES = [(command, dest, outside, inside)
               for command, dest, kind in numeric_options(cli.build_parser())
               if dest in SETTING_RANGES
               for outside, inside in nearest_values(SETTING_RANGES[dest], kind)]
# values that failed or passed unchecked before the range table, beyond the nearest ones
RANGE_CASES += [("pretrain", "grad_clip", -1.0, None), ("pretrain", "warmup_fraction", 2.0, None),
                ("finetune", "prompt_length", -2, None), ("flops", "tokens", -1.0, None)]

# each command's required flags; no file is read before the range check
REQUIRED_FLAGS = {
    "tokenizer": ["--corpus", "{dir}/c.jsonl", "--out", "{out}"],
    "pretrain": ["--preset", "xl", "--corpus", "{dir}/c.jsonl", "--vocab", "{dir}/v.txt",
                 "--out", "{out}"],
    "finetune": ["--checkpoint", "{dir}/m.ckpt", "--vocab", "{dir}/v.txt",
                 "--train", "{dir}/t.jsonl", "--out", "{out}"],
    "eval": ["--checkpoint", "{dir}/m.ckpt", "--vocab", "{dir}/v.txt",
             "--dataset", "{dir}/d.jsonl", "--labels", "{dir}/l.json", "--out", "{out}"],
    "flops": ["--preset", "xl", "--csv", "{out}"],
}


@pytest.mark.parametrize("command,key,outside,inside", RANGE_CASES,
                         ids=[f"{c}-{k}-{o}" for c, k, o, _ in RANGE_CASES])
def test_a_value_outside_its_range_exits_2_before_anything_is_written(tmp_path, capsys, command,
                                                                     key, outside, inside):
    rule, flag, out = SETTING_RANGES[key], f"--{key.replace('_', '-')}", tmp_path / "out"
    argv = [a.format(dir=tmp_path, out=out) for a in REQUIRED_FLAGS[command]]
    assert cli.main([command, *argv, flag, str(outside)]) == 2
    assert capsys.readouterr() == ("", f"error: {flag} must be {rule}, got {outside}\n")
    assert not out.exists()
    if command != "pretrain":
        return
    # the same value from --config names the file; the nearest value inside passes
    config = tmp_path / "c.json"
    config.write_text(json.dumps({key: outside, "preset": "xl"}))
    assert cli.main(["pretrain", "--config", str(config), *argv[2:]]) == 2
    assert capsys.readouterr() == ("", f"error: {config}: {key} must be {rule}, got {outside}\n")
    assert not out.exists()
    if inside is not None:
        assert cli.main(["pretrain", "--preset", "xl", "--dry-run", flag, str(inside)]) == 0
        config.write_text(json.dumps({key: inside, "preset": "xl"}))
        assert cli.main(["pretrain", "--config", str(config), "--dry-run"]) == 0


# each ranged field of a library object at the nearest value outside its rule
LIBRARY_CASES = [(owner, key, outside)
                 for owner, shape in LIBRARY_SHAPES.items()
                 for key, (kind, _) in shape.items()
                 if numeric_kind(kind) and key not in UNRANGED_ALLOWED
                 for outside, _ in nearest_values(SETTING_RANGES[key], numeric_kind(kind))]
SECTION_CASES = [case for case in LIBRARY_CASES if case[0] != "job"]
JOB_CASES = [case[1:] for case in LIBRARY_CASES if case[0] == "job"]


@pytest.mark.parametrize("section,key,outside", SECTION_CASES,
                         ids=[f"{s}-{k}-{o}" for s, k, o in SECTION_CASES])
def test_a_train_checkpoint_value_outside_its_range_is_refused_naming_the_section(
        tmp_path, section, key, outside):
    cfg = tiny_config()
    path = tmp_path / "t.ckpt"
    TR.save_train_state(path, TR.init_train_state(M.init_params(cfg, seed=0), cfg,
                                                  TR.Schedule(1e-3, 5), 2, seed=0))
    sections = C.load_container(path)
    sections[section] = C.encode_json(dict(json.loads(sections[section]), **{key: outside}))
    C.save_container(path, sections)
    message = f"{path}: {section} section: {key} must be {SETTING_RANGES[key]}, got {outside}"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        TR.load_train_state(path)


@pytest.mark.parametrize("key,outside", JOB_CASES, ids=[f"{k}-{o}" for k, o in JOB_CASES])
def test_a_job_value_outside_its_range_is_refused_before_the_first_update(monkeypatch, key,
                                                                          outside):
    cfg = tiny_config()
    updates = counting(monkeypatch, TR, "adamw_step")
    job = FT.FinetuneJob(**{"stages": [FT.FinetuneStage("a", signal_task(4), signal_task(2, 1))],
                            "prompt_length": 2, "virtual_ids": (2, 3), key: outside})
    message = f"{key} must be {SETTING_RANGES[key]}, got {outside}"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job)
    assert updates == []


def test_a_negative_lr_is_refused_by_a_schedule_and_a_train_checkpoint(tmp_path):
    assert SETTING_RANGES[LIBRARY_RULES["peak_lr"]] == ">= 0"
    with pytest.raises(ContractError, match=r"^peak_lr must be >= 0, got -1\.0$"):
        TR.Schedule(-1.0, 10)
    assert TR.lr_at(TR.Schedule(0.0, 10), 5) == 0.0  # lr 0 freezes a run and stays legal
    cfg = tiny_config()
    path = tmp_path / "t.ckpt"
    TR.save_train_state(path, TR.init_train_state(M.init_params(cfg, seed=0), cfg,
                                                  TR.Schedule(1e-3, 5), 2, seed=0))
    sections = C.load_container(path)
    sections["schedule"] = C.encode_json(dict(json.loads(sections["schedule"]), peak_lr=-1.0))
    C.save_container(path, sections)  # a valid CRC: the value is what is refused
    message = f"{path}: schedule section: peak_lr must be >= 0, got -1.0"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        TR.load_train_state(path)


def test_a_negative_lr_job_is_refused_before_the_first_update(monkeypatch):
    cfg = tiny_config()
    updates = counting(monkeypatch, TR, "adamw_step")
    job = FT.FinetuneJob([FT.FinetuneStage("a", signal_task(4), signal_task(2, 1))],
                         epochs=3, peak_lr=-1e-2)
    with pytest.raises(ContractError, match=r"^peak_lr must be >= 0, got -0\.01$"):
        FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job)
    assert updates == []
