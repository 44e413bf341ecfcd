import json

import numpy as np
import pytest

from sparselm import cli
from sparselm import data as D
from sparselm import model as M
from sparselm import training as TR


WORDS = ["alpha", "beta", "gamma", "delta", "omega", "yes", "no", "maybe", "cue"]


@pytest.fixture()
def corpus_path(tmp_path):
    rng = np.random.default_rng(0)
    docs = []
    for i in range(30):
        text = " ".join(rng.choice(WORDS, size=12))
        docs.append(D.Document(id=str(i), title=f"doc {i}", abstract=text))
    path = tmp_path / "corpus.jsonl"
    D.write_corpus(path, docs)
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


def test_pretrain_missing_corpus_exits_1(tmp_path, vocab_path):
    code = cli.main(["pretrain", "--config", str(run_config(tmp_path)),
                     "--corpus", str(tmp_path / "missing.jsonl"),
                     "--vocab", str(vocab_path), "--out", str(tmp_path / "o")])
    assert code == 1


def test_pretrain_sparsity_out_of_range_exits_2(tmp_path, corpus_path, vocab_path):
    code = cli.main(["pretrain", "--config", str(run_config(tmp_path)),
                     "--corpus", str(corpus_path), "--vocab", str(vocab_path),
                     "--out", str(tmp_path / "o"), "--sparsity", "1.5"])
    assert code == 2


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
    assert "truncated" in capsys.readouterr().err


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
