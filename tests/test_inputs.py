"""Every kind of file the CLI reads, damaged at random, through the command
that reads it: the corpus, vocab, task dataset, label space, both JSON
configs, `loss.csv`, and model and train checkpoints.

A damaged input exits 0, or exits 2 with one `error:` line and nothing on
stdout; never 1 and never an exception. When the damaged file no longer
parses, the error names it. The JSON inputs are parsed here to tell; the
vocab, `loss.csv` and checkpoints have no other reader, so each of their
errors must name the file.

Every JSON record, in a file or in a checkpoint section, is also mutated one
field at a time: a value of another type, the field dropped, an unknown key
added. A checkpoint keeps a valid CRC, so only the record check can refuse it.

Every tensor section of a checkpoint (params, prompt, opt_m, opt_v) is
damaged one tensor at a time, CRC still valid: a tensor dropped, an unknown
one added, one axis of one changed, one re-saved in the other float dtype.
A prompt's virtual ids are set outside the vocab. Each loader that reads the
section, and `densify`, `eval` and `finetune` for a model section, refuse it
naming the file and the path.
"""

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselm import checkpoint as C
from sparselm import cli
from sparselm import data as D
from sparselm import finetune as FT
from sparselm import model as M
from sparselm import sparsity as S
from sparselm import training as TR
from sparselm.errors import REQUIRED, ContractError, check_record
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
    cfg = M.ModelConfig(**dict(MODEL, context_window=64,
                               vocab_size=len(D.load_vocab(base / "vocab.txt"))))
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


# ------------------------------------------------------------ JSON records


def mutations(record):
    """(how, key, mutated record): each field set to a value of another JSON
    type, each field dropped, and an unknown key added."""
    for key, value in record.items():
        yield "wrong", key, dict(record, **{key: 1 if isinstance(value, str) else "x"})
        yield "drop", key, {k: v for k, v in record.items() if k != key}
    yield "extra", "zzz", dict(record, zzz=1)


@pytest.mark.parametrize("kind", ["corpus", "dataset", "labels", "pretrain_config",
                                  "model_config"])
def test_a_json_record_with_a_mutated_field_exits_0_or_2_naming_the_file(base, tmp_path,
                                                                         kind):
    # a JSON-lines file has its first line mutated; a corpus or task line may
    # hold keys the kit does not read, and a corpus id may be any value
    name, argv = KINDS[kind]
    path = tmp_path / name
    first, *rest = (base / name).read_text(encoding="utf-8").splitlines(keepends=True)
    for how, key, mutated in mutations(json.loads(first)):
        path.write_text(json.dumps(mutated) + "\n" + "".join(rest), encoding="utf-8")
        code, out, err = run_cli([a.format(path=path, base=base, out=tmp_path) for a in argv])
        allowed = (how == "drop" or (how == "extra" and kind in JSONL_KINDS)
                   or (kind, key) == ("corpus", "id"))
        assert code in ((0, 2) if allowed else (2,)), (how, key, err)
        if code == 2:
            assert out == "" and err.startswith(f"error: {path}"), (how, key, err)
            assert err.count("\n") == 1, (how, key, err)
            if how != "drop":  # the record check names the line of a JSON-lines file
                line = ":1" if kind in JSONL_KINDS else ""
                assert err.startswith(f"error: {path}{line}: ") and repr(key) in err, err


MODEL_SECTIONS = ["config", "prompt_meta"]
TRAIN_SECTIONS = ["schedule", "opt_meta", "trainer", "rng"]


def load_outcome(section, path, out):
    """(exit code, stderr) of reading `path`: a model section through
    `densify`, a train-only section through `load_train_state`, since no
    command reads those."""
    if section in MODEL_SECTIONS:
        code, stdout, err = run_cli(["densify", "--checkpoint", str(path), "--out", str(out)])
        assert code != 2 or stdout == "", stdout
        return code, err
    try:
        TR.load_train_state(path)
    except ContractError as exc:
        return 2, f"error: {exc}\n"
    return 0, ""


@pytest.mark.parametrize("section", MODEL_SECTIONS + TRAIN_SECTIONS)
def test_a_checkpoint_json_section_with_a_mutated_field_is_refused_naming_the_section(
        base, tmp_path, section):
    name = "model.ckpt" if section in MODEL_SECTIONS else "final.ckpt"
    sections = C.load_container(base / name)
    path = tmp_path / name
    for how, key, mutated in mutations(json.loads(sections[section])):
        C.save_container(path, dict(sections, **{section: C.encode_json(mutated)}))
        code, err = load_outcome(section, path, tmp_path / "dense.ckpt")
        assert code in ((0, 2) if how == "drop" else (2,)), (how, key, err)
        if code == 2:
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, (how, key, err)
            assert f"{section} section: " in err and repr(key) in err, (how, key, err)


# section -> how its record is rewritten, and what the error says after the file's name
BAD_SECTIONS = {
    "trainer-empty": ("trainer", lambda rec: {}, "trainer section: missing key 'batch_size'"),
    "trainer-older-step": ("trainer", lambda rec: dict(rec, step=2),
                           "trainer section: unknown key 'step'"),
    "trainer-older-seed": ("trainer", lambda rec: dict(rec, seed=0),
                           "trainer section: unknown key 'seed'"),
    "trainer-not-an-object": ("trainer", lambda rec: [1], "trainer section: not a JSON object"),
    "opt_meta-older-step": ("opt_meta", lambda rec: dict(rec, step=2),
                            "opt_meta section: unknown key 'step'"),
    "opt_meta-older-beta1": ("opt_meta", lambda rec: dict(rec, beta1=0.9),
                             "opt_meta section: unknown key 'beta1'"),
    "opt_meta-older-beta2": ("opt_meta", lambda rec: dict(rec, beta2=0.95),
                             "opt_meta section: unknown key 'beta2'"),
    "opt_meta-older-eps": ("opt_meta", lambda rec: dict(rec, eps=1e-8),
                           "opt_meta section: unknown key 'eps'"),
    "opt_meta-str-weight_decay": ("opt_meta", lambda rec: dict(rec, weight_decay="a"),
                                  "opt_meta section: 'weight_decay' must be float, got 'a'"),
    "opt_meta-not-an-object": ("opt_meta", lambda rec: [1],
                               "opt_meta section: not a JSON object"),
    "opt_meta-unknown-key": ("opt_meta", lambda rec: dict(rec, momentum=0.9),
                             "opt_meta section: unknown key 'momentum'"),
    "schedule-str-peak_lr": ("schedule", lambda rec: dict(rec, peak_lr="a"),
                             "schedule section: 'peak_lr' must be float, got 'a'"),
    "schedule-warmup-above-1": ("schedule", lambda rec: dict(rec, warmup_fraction=3.0),
                                "schedule section: warmup_fraction must be >= 0 and <= 1, got 3.0"),
    "rng-another-generator": ("rng", lambda rec: dict(rec, bit_generator="MT19937"),
                              "rng section: state must be for a PCG64 RNG"),
    "rng-negative-state": ("rng", lambda rec: dict(rec, state={"state": -1, "inc": 3}),
                           "rng section: "),
    "rng-state-without-inc": ("rng", lambda rec: dict(rec, state={"state": 1}),
                              "rng section: 'state': missing key 'inc'"),
}


@pytest.mark.parametrize("case", BAD_SECTIONS)
def test_a_bad_checkpoint_section_exits_2_naming_the_file_and_the_section(base, tmp_path,
                                                                          case):
    section, rewrite, message = BAD_SECTIONS[case]
    name = "model.ckpt" if section in MODEL_SECTIONS else "final.ckpt"
    sections = C.load_container(base / name)
    path = tmp_path / name
    C.save_container(path, dict(sections, **{
        section: C.encode_json(rewrite(json.loads(sections[section])))}))
    code, err = load_outcome(section, path, tmp_path / "dense.ckpt")
    assert (code, err.count("\n")) == (2, 1), err
    assert err.startswith(f"error: {path}: {message}"), err


# plan sections an older writer made, or a damaged copy of one: each was
# refused or read before, and none is read now
OLDER_PLANS = {
    "uniform-level": {"level": 0.5, "seed": 0},
    "no-uniform-level": {"level": None, "seed": 0},
    "not-an-object": [1],
    "without-seed": {"level": 0.5},
    "str-level": {"level": "0.5", "seed": 0},
    "negative-seed": {"level": 0.5, "seed": -1},
    "older-levels": {"level": 0.5, "seed": 0, "levels": {"layers.0.wq": 0.5}},
}


@pytest.mark.parametrize("case", OLDER_PLANS)
def test_a_plan_section_is_not_read(base, tmp_path, case):
    # the masks section holds the sparsity: densify prints and writes the same
    # with or without a plan section beside it
    sections = C.load_container(base / "final.ckpt")
    assert "plan" not in sections and "masks" in sections
    older = tmp_path / "older.ckpt"
    C.save_container(older, dict(sections, plan=C.encode_json(OLDER_PLANS[case])))
    outcomes, dense = [], []
    for ckpt in (base / "final.ckpt", older):
        dense.append(tmp_path / f"{ckpt.stem}-dense.ckpt")
        outcomes.append(run_cli(["densify", "--checkpoint", str(ckpt), "--out", str(dense[-1])]))
    assert outcomes[0][0] == 0 and outcomes[0] == outcomes[1], outcomes
    assert dense[0].read_bytes() == dense[1].read_bytes()


def test_an_older_sparse_train_checkpoint_densifies_but_does_not_resume(base, tmp_path):
    # the format before each value was stored once: a plan section, the AdamW
    # constants and a second step counter in opt_meta, and the trainer's seed
    sections = C.load_container(base / "final.ckpt")
    opt_meta = dict(json.loads(sections["opt_meta"]), beta1=0.9, beta2=0.95, eps=1e-8,
                    step=C.decode_u64(sections["step"]))
    older = tmp_path / "older.ckpt"
    C.save_container(older, dict(sections, plan=C.encode_json({"level": 0.5, "seed": 0}),
                                 opt_meta=C.encode_json(opt_meta),
                                 trainer=C.encode_json(dict(json.loads(sections["trainer"]),
                                                            seed=0))))
    dense = []
    for ckpt in (base / "final.ckpt", older):
        dense.append(tmp_path / f"{ckpt.stem}-dense.ckpt")
        assert run_cli(["densify", "--checkpoint", str(ckpt), "--out", str(dense[-1])])[0] == 0
    assert dense[0].read_bytes() == dense[1].read_bytes()
    with pytest.raises(ContractError) as exc:
        TR.load_train_state(older)
    assert str(exc.value).endswith("opt_meta section: unknown key 'beta1'"), exc.value


def test_check_record_type_rules():
    shape = {"n": (int, REQUIRED), "x": (float, 0.5), "flag": (bool, True),
             "names": (list[str], ())}
    assert check_record({"n": 3, "x": 2}, shape, "f") == {"n": 3, "x": 2, "flag": True,
                                                          "names": ()}
    assert check_record({"n": 3, "x": None, "flag": None}, shape, "f")["x"] == 0.5
    for bad, fragment in [({"n": True}, "'n' must be int, got True"),
                          ({"n": 1.0}, "'n' must be int"),
                          ({"n": None}, "'n' must be int, got None"),
                          ({"n": 1, "x": False}, "'x' must be float"),
                          ({"n": 1, "flag": 0}, "'flag' must be bool"),
                          ({"n": 1, "names": ["a", 2]}, "'names' must be list[str]"),
                          ({}, "missing key 'n'"), ({"n": 1, "m": 2}, "unknown key 'm'"),
                          ([], "not a JSON object of fields")]:
        with pytest.raises(ContractError, match=f"^f: {re.escape(fragment)}"):
            check_record(bad, shape, "f")
    assert check_record({"n": 1, "m": 2}, shape, "f", extra_keys=True)["m"] == 2


def test_a_null_field_of_a_model_config_takes_its_default(tmp_path):
    # null is the same as leaving the key out: d_ff 4*d_model, tied embeddings
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dict(MODEL, d_ff=None, tie_embeddings=None)))
    code, out, _ = run_cli(["flops", "--model-config", str(path)])
    path.write_text(json.dumps(MODEL))
    assert (code, out) == (0, run_cli(["flops", "--model-config", str(path)])[1])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(version=st.integers(0, 2**32 - 1).filter(lambda v: v != C.FORMAT_VERSION))
@example(version=0)
@example(version=1)
@example(version=3)
@example(version=2**32 - 1)
def test_a_container_of_another_version_is_refused_naming_the_version(base, tmp_path_factory,
                                                                     version):
    data = bytearray((base / "final.ckpt").read_bytes())
    data[8:12] = version.to_bytes(4, "little")
    path = tmp_path_factory.mktemp("version") / "final.ckpt"
    path.write_bytes(data)
    for load in (TR.load_model_checkpoint, TR.load_train_state):
        with pytest.raises(ContractError) as caught:
            load(path)
        assert str(caught.value) == f"{path}: unsupported container version {version}"


# ------------------------------------------------------------ tensor sections


# the commands that read a model's tensors; {ckpt} is the damaged checkpoint
READERS = {
    "densify": ["densify", "--checkpoint", "{ckpt}", "--out", "{out}/dense.ckpt"],
    "eval": [a.replace("{base}/model.ckpt", "{ckpt}") for a in EVAL],
    "finetune": ["finetune", "--checkpoint", "{ckpt}", "--vocab", "{base}/vocab.txt",
                 "--train", "{base}/data.jsonl", "--out", "{out}/ft"],
}
TENSOR_SECTIONS = ["params", "prompt", "opt_m", "opt_v"]


@pytest.fixture(scope="module")
def full_ckpt(base):
    """The sections of the pretrain run's train checkpoint (d_model 16, context
    window 32, tied, sparse) plus model.ckpt's soft prompt: one file that
    holds every tensor section, and both loaders and every reader accept."""
    sections = C.load_container(base / "final.ckpt")
    prompted = C.load_container(base / "model.ckpt")
    return dict(sections, prompt=prompted["prompt"], prompt_meta=prompted["prompt_meta"])


def with_tensor(sections, section, path, shape):
    """`sections` with `path` of the tensor section `section` dropped (shape
    None), re-saved in the other float dtype (shape "retype"), else set to an
    array of `shape`, its values repeated from the old array's; and the error
    the loaders must give after the file's name. A re-typed tensor's error
    names the section's first tensor whose dtype is not tok_emb's."""
    arrays = C.decode_tensor_map(sections[section])
    if shape == "retype":
        other = np.float32 if arrays[path].dtype == np.float64 else np.float64
        arrays[path] = arrays[path].astype(other)
        dtype = arrays["tok_emb"].dtype if section == "params" else np.dtype(np.float32)
        bad = next(p for p, a in arrays.items() if a.dtype != dtype)
        message = f"{section} section: {bad!r} has dtype {arrays[bad].dtype}, expected {dtype}"
        return dict(sections, **{section: C.encode_tensor_map(arrays)}), message
    old = arrays.pop(path, None)
    if shape is None:
        message = f"{section} section: missing tensor {path!r} of shape {old.shape}"
    else:
        arrays[path] = np.resize(np.zeros(1, np.float32) if old is None else old, shape)
        message = (f"{section} section: unknown tensor {path!r}" if old is None else
                   f"{section} section: {path!r} has shape {shape}, expected {old.shape}")
    return dict(sections, **{section: C.encode_tensor_map(arrays)}), message


def loaders_of(section):
    """The loaders that read `section`; a model load does not read the moments."""
    if section in ("opt_m", "opt_v"):
        return (TR.load_train_state,)
    return (TR.load_model_checkpoint, TR.load_train_state)


# every tensor of every tensor section of the pretrain run's float32 checkpoint
PARAM_PATHS = [path for path, _, _ in M.param_specs(M.ModelConfig(**MODEL))]
RETYPED = [("prompt", "embeddings")] + [(section, path) for section in ("params", "opt_m", "opt_v")
                                        for path in PARAM_PATHS]

# case -> (section, tensor path, the new shape; None drops it, "retype" re-saves
# it in the other float dtype). The model is d_model 16, d_ff 64 and context
# window 32, with two prompt rows.
TENSOR_CASES = {
    "params-missing-wq": ("params", "layers.0.wq", None),
    "params-tied-lm_head": ("params", "lm_head", (16, 8)),
    "params-ln1.gain": ("params", "layers.0.ln1.gain", (4,)),
    "params-short-pos_emb": ("params", "pos_emb", (4, 16)),
    "params-narrow-pos_emb": ("params", "pos_emb", (32, 8)),
    "params-wv": ("params", "layers.0.wv", (16, 8)),
    "params-bk": ("params", "layers.0.bk", (8,)),
    "params-wo": ("params", "layers.0.wo", (16, 12)),
    "params-bo": ("params", "layers.0.bo", (12,)),
    "params-ln2.gain": ("params", "layers.0.ln2.gain", (12,)),
    "params-w_ff_in": ("params", "layers.0.w_ff_in", (16, 60)),
    "params-w_ff_out": ("params", "layers.0.w_ff_out", (64, 12)),
    "params-b_ff_out": ("params", "layers.0.b_ff_out", (8,)),
    "prompt-missing": ("prompt", "embeddings", None),
    "prompt-unknown": ("prompt", "rows", (2, 16)),
    "prompt-narrow": ("prompt", "embeddings", (2, 8)),
    "prompt-extra-row": ("prompt", "embeddings", (3, 16)),
    "opt_m-missing-wq": ("opt_m", "layers.0.wq", None),
    "opt_m-unknown": ("opt_m", "lm_head", (16, 8)),
    "opt_m-tok_emb": ("opt_m", "tok_emb", (8, 16)),
    "opt_v-wq-(1,)": ("opt_v", "layers.0.wq", (1,)),
    "opt_v-missing-ln_f.bias": ("opt_v", "ln_f.bias", None),
    "opt_v-unknown": ("opt_v", "soft_prompt", (2, 16)),
    **{f"{section}-{path}-retyped": (section, path, "retype") for section, path in RETYPED},
}


def test_the_checkpoint_with_every_tensor_section_is_accepted(base, full_ckpt, tmp_path):
    path = tmp_path / "full.ckpt"
    C.save_container(path, full_ckpt)
    assert TR.load_model_checkpoint(path)[4].virtual_ids == (2, 3)
    assert TR.load_train_state(path).config.d_model == 16
    for command in ("densify", "eval"):
        code, _, err = run_cli([a.format(ckpt=path, base=base, out=tmp_path)
                                for a in READERS[command]])
        assert code == 0, err


def assert_refused(base, path, section, message, out):
    """Each loader of `section` raises `path: message`; for a model section,
    `densify`, `eval` and `finetune` exit 2 with it as their one stderr line."""
    for load in loaders_of(section):
        with pytest.raises(ContractError) as caught:
            load(path)
        assert str(caught.value) == f"{path}: {message}", load
    if section not in ("opt_m", "opt_v"):
        for command, argv in READERS.items():
            code, stdout, err = run_cli([a.format(ckpt=path, base=base, out=out) for a in argv])
            # eval names the checkpoint, not the dataset it would have scored
            assert (code, stdout, err) == (2, "", f"error: {path}: {message}\n"), command


@pytest.mark.parametrize("case", TENSOR_CASES)
def test_a_tensor_that_does_not_fit_the_config_is_refused_naming_the_file_and_the_path(
        base, full_ckpt, tmp_path, case):
    section, tensor, shape = TENSOR_CASES[case]
    sections, message = with_tensor(full_ckpt, section, tensor, shape)
    path = tmp_path / "damaged.ckpt"
    C.save_container(path, sections)
    assert_refused(base, path, section, message, tmp_path)


def test_a_train_checkpoint_with_a_nonzero_at_a_pruned_coordinate_is_refused(full_ckpt, tmp_path):
    # training never changes a pruned weight, so a file where one is not 0.0
    # was not written by a run; -0.0 is 0.0 and loads
    masks = S.MaskSet(C.decode_bitset_map(full_ckpt["masks"]))
    tensor = masks.paths()[-1]
    pruned = np.flatnonzero(~masks[tensor])[-1]
    arrays = C.decode_tensor_map(full_ckpt["params"])
    path = tmp_path / "damaged.ckpt"
    for value in (-0.0, 1e-30):
        arrays[tensor].reshape(-1)[pruned] = value
        C.save_container(path, dict(full_ckpt, params=C.encode_tensor_map(arrays)))
        if value == 0.0:
            assert TR.load_train_state(path).step == RUN["steps"]
    with pytest.raises(ContractError) as caught:
        TR.load_train_state(path)
    assert str(caught.value) == \
        f"{path}: params section: {tensor!r} has a nonzero at a pruned coordinate"
    # a model load keeps the weight, and densify re-applies the mask
    _, params, _, loaded_masks, _ = TR.load_model_checkpoint(path)
    assert params[tensor].data.reshape(-1)[pruned] == np.float32(1e-30)
    assert S.densify(params, loaded_masks)[tensor].data.reshape(-1)[pruned] == 0.0


@pytest.mark.parametrize("section", ["opt_m", "opt_v"])
def test_a_train_checkpoint_with_dense_masked_moments_is_refused(base, full_ckpt, tmp_path,
                                                                  section):
    # each masked path's moment at its parameter's shape, +0.0 at pruned
    # coordinates, the layout written before moments were stored compact: a
    # train load refuses it naming the first masked path, while a model load
    # and densify, which do not read the moments, still read the file
    masks = S.MaskSet(C.decode_bitset_map(full_ckpt["masks"]))
    arrays = C.decode_tensor_map(full_ckpt[section])
    for tensor in masks.paths():
        dense = np.zeros(masks[tensor].shape, arrays[tensor].dtype)
        dense[masks[tensor]] = arrays[tensor]
        arrays[tensor] = dense
    first = next(p for p in arrays if p in masks.index)
    path = tmp_path / "dense-moments.ckpt"
    C.save_container(path, dict(full_ckpt, **{section: C.encode_tensor_map(arrays)}))
    with pytest.raises(ContractError) as caught:
        TR.load_train_state(path)
    assert str(caught.value) == (f"{path}: {section} section: {first!r} has shape "
                                 f"{masks[first].shape}, expected ({masks.index[first].size},)")
    assert TR.load_model_checkpoint(path)[2] == RUN["steps"]
    code, _, err = run_cli([a.format(ckpt=path, base=base, out=tmp_path)
                            for a in READERS["densify"]])
    assert code == 0, err


@pytest.mark.parametrize("tensor", ["tok_emb", "layers.0.bq"])
def test_a_mask_outside_the_block_matrices_is_refused_naming_the_path(base, full_ckpt, tmp_path,
                                                                       tensor):
    # only the six block matrices are sparsified: a mask on any other
    # parameter, of its shape, is refused by every loader and reader
    params = TR.load_model_checkpoint(base / "final.ckpt")[1]
    entries = C.decode_bitset_map(full_ckpt["masks"])
    entries[tensor] = S.mask_index(np.ones(params[tensor].data.shape))
    path = tmp_path / "damaged.ckpt"
    C.save_container(path, dict(full_ckpt, masks=C.encode_bitset_map(entries)))
    assert_refused(base, path, "masks", f"mask for {tensor!r}, which is not one of the block "
                   f"matrices wq, wk, wv, wo, w_ff_in, w_ff_out", tmp_path)


# case -> the prompt's virtual ids in a vocab of `vocab_size`, and the one outside it
VIRTUAL_ID_CASES = {
    "far-past-the-vocab": lambda vocab_size: ([2, 100000], 100000),
    "the-vocab-size": lambda vocab_size: ([vocab_size, 3], vocab_size),
    "negative": lambda vocab_size: ([2, -1], -1),
}


@pytest.mark.parametrize("case", VIRTUAL_ID_CASES)
def test_a_virtual_id_outside_the_vocab_is_refused_naming_the_file_and_the_section(
        base, full_ckpt, tmp_path, case):
    vocab_size = json.loads(full_ckpt["config"])["vocab_size"]
    ids, bad = VIRTUAL_ID_CASES[case](vocab_size)
    path = tmp_path / "damaged.ckpt"
    C.save_container(path, dict(full_ckpt, prompt_meta=C.encode_json({"virtual_ids": ids})))
    assert_refused(base, path, "prompt_meta",
                   f"prompt_meta section: virtual id {bad} outside [0, {vocab_size})", tmp_path)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_tensor_dropped_added_or_reshaped_is_refused_by_its_loaders(base, full_ckpt,
                                                                        tmp_path_factory, data):
    # or re-saved in the other float dtype
    section = data.draw(st.sampled_from(TENSOR_SECTIONS))
    arrays = C.decode_tensor_map(full_ckpt[section])
    how = data.draw(st.sampled_from(["drop", "add", "axis", "retype"]))
    if how == "add":
        tensor, shape = "zzz." + data.draw(st.sampled_from(sorted(arrays))), (3,)
    else:
        tensor = data.draw(st.sampled_from(sorted(arrays)))
        shape = "retype" if how == "retype" else None
        if how == "axis":
            shape = list(arrays[tensor].shape)
            axis = data.draw(st.integers(0, len(shape) - 1))
            shape[axis] = data.draw(st.integers(1, 2 * shape[axis]).filter(
                lambda n: n != arrays[tensor].shape[axis]))
            shape = tuple(shape)
    sections, message = with_tensor(full_ckpt, section, tensor, shape)
    path = tmp_path_factory.mktemp("tensor") / "damaged.ckpt"
    C.save_container(path, sections)
    for load in loaders_of(section):
        with pytest.raises(ContractError) as caught:
            load(path)
        assert str(caught.value) == f"{path}: {message}"
