"""The desk pipeline keeps its bytes: one gate for every file it writes.

The pipeline runs in-process at `test_cli.py`'s fixture size: `tokenizer`;
a sparse `pretrain` at s=0.5 with micro-batches of 2, `grad_clip` 0.05
firing on every step and step saves; `densify`; `finetune` plain,
`--ablation` and `--grid`; `eval --out` of a single- and a multi-label
space; `flops --paper-table --csv`; and `report`. Each file's sha256 must
equal the one in `desk_pipeline_manifest.json`.

The manifest records the environment it was made in: the numpy version, the
BLAS numpy was built with and the CPU architecture. In another environment
the test fails, naming both, since float32 bits may differ there. A change
that moves bytes on purpose, or a new environment, regenerates the manifest
with

    PYTHONPATH=src python tests/test_desk_pipeline.py

and says in CHANGES.md which files moved and why.

Every micro-batch has 2 x 16 rows, far below the 461-row contraction from which
OpenBLAS's float32 GEMMs start to depend on the thread count, so this gate
holds at any `SPARSELM_THREADS`. Checking the bytes across thread counts is
ROADMAP item 2's gate, not this one.
"""

import hashlib
import json
import pathlib
import platform
import tempfile

import numpy as np

from sparselm import cli
from sparselm import training as TR
from test_cli import finetune_fixtures, run_config, write_desk_corpus

MANIFEST = pathlib.Path(__file__).with_name("desk_pipeline_manifest.json")
REGENERATE = "PYTHONPATH=src python tests/test_desk_pipeline.py"
GRAD_CLIP = 0.05


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def run_pipeline(root: pathlib.Path) -> dict:
    """Run the pipeline with its inputs under `root/inputs` and its outputs
    under `root/out`; {path under `out`: sha256} of every file it wrote."""
    inputs, out = root / "inputs", root / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    corpus = write_desk_corpus(inputs / "corpus.jsonl")
    train, val, labels = finetune_fixtures(inputs)
    multi = inputs / "multi.json"
    multi.write_text(json.dumps({"labels": ["yes", "no"], "multi_label": True}))
    vocab, sparse, dense = out / "vocab.json", out / "sparse", out / "dense.ckpt"
    task = ["--vocab", vocab, "--train", train, "--val", val, "--labels", labels,
            "--prompt-length", "2", "--lr", "1e-3"]
    commands = [
        ["tokenizer", "--corpus", corpus, "--vocab-size", "300", "--out", vocab],
        ["pretrain", "--config", run_config(inputs), "--corpus", corpus, "--vocab", vocab,
         "--out", sparse, "--sparsity", "0.5", "--micro-batch-size", "2",
         "--grad-clip", str(GRAD_CLIP), "--checkpoint-every", "2"],
        ["densify", "--checkpoint", sparse / "final.ckpt", "--out", dense],
        ["finetune", "--checkpoint", dense, *task, "--epochs", "2", "--out", out / "ft"],
        ["finetune", "--checkpoint", dense, *task, "--epochs", "1", "--ablation",
         "--out", out / "ablation"],
        ["finetune", "--checkpoint", dense, *task, "--epochs", "1", "--grid",
         "--grid-batch-sizes", "2", "4", "--grid-lrs", "0.001", "0.003", "--out", out / "grid"],
        ["eval", "--checkpoint", out / "ft" / "model.ckpt", "--vocab", vocab, "--dataset", val,
         "--labels", labels, "--out", out / "eval.csv"],
        ["eval", "--checkpoint", out / "ft" / "model.ckpt", "--vocab", vocab, "--dataset", val,
         "--labels", multi, "--max-steps", "2", "--out", out / "eval_multi.csv"],
        ["flops", "--paper-table", "--csv", out / "paper_table.csv"],
        ["report", "--runs", sparse, "--out", out / "curves.csv"],
    ]
    for argv in commands:
        assert cli.main([str(a) for a in argv]) == 0, argv
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_the_desk_pipeline_keeps_its_bytes(tmp_path, monkeypatch):
    manifest = json.loads(MANIFEST.read_text())
    here = environment()
    assert manifest["environment"] == here, (
        f"the manifest was made with {manifest['environment']}, this is {here}; "
        f"if the bytes are right here, regenerate it with `{REGENERATE}`")
    norm, norms = TR._global_grad_norm, []

    def recording_norm(grads):
        norms.append(norm(grads))
        return norms[-1]

    monkeypatch.setattr(TR, "_global_grad_norm", recording_norm)
    got = run_pipeline(tmp_path)
    assert len(norms) == 5 and min(norms) > GRAD_CLIP, norms  # clipping fires on every step
    want = manifest["sha256"]
    moved = sorted(p for p in want.keys() | got.keys() if got.get(p) != want.get(p))
    assert not moved, (
        f"moved, new or missing: {moved}; if that is meant, regenerate the manifest with "
        f"`{REGENERATE}` and say in CHANGES.md which files moved and why")
    assert {"sparse/step_00000002.ckpt", "sparse/step_00000004.ckpt", "grid/grid.csv",
            "ablation/without_prompt_report.csv"} <= got.keys()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_pipeline(pathlib.Path(tmp))
    MANIFEST.write_text(json.dumps({"environment": environment(), "sha256": digests},
                                   indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {MANIFEST}")
