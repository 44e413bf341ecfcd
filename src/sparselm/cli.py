"""Command-line front end: tokenizer -> pretrain -> densify -> finetune ->
eval -> flops -> report, wired for reproducible runs.

Exit codes: 0 success, 1 argparse usage error or a file that cannot be opened,
2 malformed input or other contract violation, 3 metric floor not met.
`data.read_json`/`read_jsonl` read every JSON input, each record checked
against its shape (`errors.check_record`); `data.csv_text` writes every CSV.
A run's resolved `config.json` is a valid `pretrain --config`, and reruns
with identical config + seed give byte-identical artifacts.
"""

import os

# Thread pins must land before numpy loads its BLAS.
_threads = os.environ.get("SPARSELM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import dataclasses
import json
import sys
import typing

from . import checkpoint as C
from . import data as D
from . import evaluation as E
from . import finetune as FT
from . import flops as F
from . import model as M
from . import sparsity as S
from . import training as TR
from .errors import REQUIRED, ContractError, check_ranges, check_record, naming

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRACT = 2
EXIT_METRIC_FLOOR = 3

# key -> (type, default) of each pretrain setting, the shape of `--config`
# (`errors.check_record`); all but `model` are flags too, and no flag keeps the value.
PRETRAIN_SETTINGS = {
    "run_name": (str, None), "preset": (str, None),
    "model": (dict, None),            # explicit ModelConfig fields
    "sparsity": (float, 0.0), "mask_seed": (int, 0), "seed": (int, 0),
    "steps": (int, 1000), "batch_size": (int, 8), "micro_batch_size": (int, None),
    "msl": (int, 128), "peak_lr": (float, 2e-4), "warmup_fraction": (float, 0.10),
    "min_lr_fraction": (float, 0.10), "weight_decay": (float, 0.1), "grad_clip": (float, None),
    "val_fraction": (float, 0.03), "checkpoint_every": (int, None), "log_every": (int, 100),
}

# the same for finetune, whose settings are all flags; a flag beats its
# --task-preset's value, so each grid list replaces its own axis of the preset's grid
FINETUNE_SETTINGS = {
    "task_preset": (str, None), "epochs": (int, 5), "batch_size": (int, 8), "lr": (float, 1e-4),
    "patience": (int, None), "prompt_length": (int, 0), "seed": (int, 0),
    "grid_batch_sizes": (list[int], None), "grid_lrs": (list[float], None),
}

# the finetune settings of each --task-preset: the soft prompt, epochs and grid of the recipe
TASK_PRESETS = {
    "pubmedqa": {"prompt_length": 9, "epochs": 5, "grid_batch_sizes": [8, 16, 32, 64],
                 "grid_lrs": [2e-4, 1e-4, 5e-5, 2.5e-5]},
    "hoc": {"prompt_length": 1, "epochs": 100, "grid_batch_sizes": [16, 32, 64],
            "grid_lrs": [8e-5, 4e-5, 2e-5, 1e-5]},
}

def _with_flags(cfg, args) -> dict:
    """`cfg` with the value of each of its settings that was given as a flag."""
    return cfg | {key: value for key, value in vars(args).items()
                  if key in cfg and value is not None}


def _resolve_model_config(cfg, where, vocab_size=None):
    """The ModelConfig of a preset or of the `model` object read from `where`, with
    the actual vocab size and a wider msl when known; every ContractError names `where`."""
    with naming(where):
        if cfg.get("preset"):
            if cfg["preset"] not in M.PRESETS:
                raise ContractError(f"unknown preset {cfg['preset']!r}; "
                                    f"choose from {sorted(M.PRESETS)}")
            fields = dataclasses.asdict(M.PRESETS[cfg["preset"]])
        elif cfg.get("model") is not None:
            fields = dict(cfg["model"])
        else:
            raise ContractError("no model given: use --preset or an object of ModelConfig fields")
        if vocab_size is not None:
            fields["vocab_size"] = vocab_size
        config = M.ModelConfig(**check_record(fields, M.CONFIG_SHAPE, "model"))
        if cfg.get("msl", 0) > config.context_window:
            config = dataclasses.replace(config, context_window=cfg["msl"])
        return config


def _resolved_pretrain_config(args):
    """PRETRAIN_SETTINGS' defaults, then --config's values, then the flags', which
    `main` has checked; a file value out of range names the file and the key."""
    cfg = (D.read_json(args.config, PRETRAIN_SETTINGS, "pretrain settings") if args.config
           else check_record({}, PRETRAIN_SETTINGS, "pretrain"))
    with naming(args.config or "pretrain"):
        check_ranges({k: v for k, v in cfg.items() if getattr(args, k, None) is None})
    return _with_flags(cfg, args)


def _write_text(path, text):
    """Write atomically: a failed write leaves `path` with its old bytes."""
    with C.atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------- commands


def cmd_tokenizer(args):
    docs = D.filter_corpus(D.read_corpus(args.corpus))
    vocab = D.learn_bpe(docs, args.vocab_size, n_prompt_slots=args.prompt_slots)
    D.save_vocab(args.out, vocab)
    print(f"learned {len(vocab.merges)} merges over {len(docs)} documents "
          f"-> vocab size {len(vocab)} ({args.out})")
    return EXIT_OK


def cmd_pretrain(args):
    cfg = _resolved_pretrain_config(args)
    vocab = D.load_vocab(args.vocab) if args.vocab else None
    model_cfg = _resolve_model_config(cfg, args.config or "pretrain",
                                      vocab_size=len(vocab) if vocab else None)

    if args.dry_run:
        token_budget = cfg["steps"] * cfg["batch_size"] * cfg["msl"]
        report = F.forward_flops_per_token(model_cfg, cfg["sparsity"])
        print(json.dumps(dict(cfg, model=dataclasses.asdict(model_cfg)), indent=2, sort_keys=True))
        print(f"total parameters (with embeddings): {M.count_params(model_cfg):,}")
        print(f"matrix parameters: {M.count_matrix_params(model_cfg):,}")
        print(f"sparsity {cfg['sparsity'] * 100:.0f}% -> remaining matrix parameters: "
              f"{M.sparse_matrix_params(model_cfg, cfg['sparsity']):,}")
        print(f"token budget: {token_budget:,}")
        print(f"estimated training FLOPs: {report.train_total(token_budget):.4g} "
              f"({report.ratio_vs_dense:.2f}x of dense)")
        return EXIT_OK

    if not (args.corpus and args.vocab and args.out):
        raise ContractError("pretrain needs --corpus, --vocab and --out (or --dry-run)")

    docs = D.filter_corpus(D.read_corpus(args.corpus))
    train_docs, _val_docs = D.split_train_val(docs, cfg["val_fraction"], cfg["seed"])
    encoded = [vocab.encode(D.document_text(d)) for d in train_docs]
    dataset = D.pack_sequences(encoded, cfg["msl"], vocab.eod_id)
    if not len(dataset):
        raise ContractError(f"{args.corpus}: the training split packs into no row of "
                            f"{cfg['msl']} tokens")
    os.makedirs(args.out, exist_ok=True)

    params = M.init_params(model_cfg, cfg["seed"])
    masks = None
    if cfg["sparsity"] > 0.0:
        masks = S.build_masks(params, S.SparsityPlan(level=cfg["sparsity"],
                                                     seed=cfg["mask_seed"]))
    schedule = TR.Schedule(cfg["peak_lr"], cfg["steps"],
                           cfg["warmup_fraction"], cfg["min_lr_fraction"])
    state = TR.init_train_state(params, model_cfg, schedule, cfg["batch_size"], cfg["seed"],
                                masks=masks, micro_batch_size=cfg["micro_batch_size"],
                                weight_decay=cfg["weight_decay"])
    TR.train_steps(state, dataset, grad_clip=cfg["grad_clip"], out_dir=args.out,
                   checkpoint_every=cfg["checkpoint_every"], log_every=cfg["log_every"])

    run_name = cfg["run_name"] or os.path.basename(os.path.normpath(args.out))
    TR.save_train_state(os.path.join(args.out, "final.ckpt"), state)
    _write_text(os.path.join(args.out, "loss.csv"),
                TR.emit_loss_curves({run_name: [(r.step, r.loss) for r in state.trace]}))
    resolved = dict(cfg, run_name=run_name, model=dataclasses.asdict(model_cfg))
    _write_text(os.path.join(args.out, "config.json"),
                json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    final = state.trace[-1] if state.trace else None
    if final:
        print(f"finished step {final.step}: loss {final.loss:.4f} (ema {final.smoothed:.4f})")
    return EXIT_OK


def cmd_densify(args):
    config, params, step, masks, _ = TR.load_model_checkpoint(args.checkpoint)
    if masks is None:
        print("checkpoint carries no masks; writing weights unchanged", file=sys.stderr)
        dense = params
    else:
        dense = S.densify(params, masks)
        pruned = sum(params[p].data.size - at.size for p, at in masks.index.items())
        print(f"reactivated {pruned:,} weights at exactly 0.0")
    TR.save_model_checkpoint(args.out, config, dense, step=step)
    return EXIT_OK


# a task dataset line and a label space
TASK_LINE = {"source": (str, REQUIRED), "target": (str, REQUIRED), "labels": (list[str], ())}
LABEL_SPACE = {"labels": (list[str], REQUIRED), "multi_label": (bool, False),
               "separator": (str, " ")}


def _read_task_examples(path, vocab, space=None, config=None, prompt_length=0):
    """A task dataset's examples; with a `space`, a fault names `path:line`: a gold
    label that is not a candidate (any of a multi-label example's, else the first)
    or, for a single-label space, a candidate that does not fit `config`'s context
    window after [source; `prompt_length` virtual ids] (generation skips those)."""
    examples = []
    for line_no, rec in D.read_jsonl(path, TASK_LINE, "task example fields"):
        if space is not None:
            golds = rec["labels"] if space.multi_label else (rec["labels"] or [None])[:1]
            for gold in golds:
                E.gold_label(gold, f"{path}:{line_no}", space)
        with naming(f"{path}:{line_no}"):
            examples.append(FT.TaskExample(source=vocab.encode(rec["source"]),
                                           target=vocab.encode(rec["target"]),
                                           labels=tuple(rec["labels"])))
            if space is not None and not space.multi_label:
                E.check_candidates_fit(config, len(examples[-1].source) + prompt_length, space)
    if not examples:
        raise ContractError(f"{path}: no examples")
    return examples


def _load_model_vocab(path, config):
    """The vocab file at `path`, which must have the model's vocab size."""
    vocab = D.load_vocab(path)
    if len(vocab) != config.vocab_size:
        raise ContractError(f"{path}: vocab size {len(vocab)} != model vocab {config.vocab_size}")
    return vocab


def _load_label_space(path, vocab):
    spec = D.read_json(path, LABEL_SPACE, "label-space fields")
    with naming(path):
        return E.label_space_from_vocab(vocab, spec["labels"], multi_label=spec["multi_label"],
                                        separator=spec["separator"])


def cmd_finetune(args):
    if not args.grid and (args.grid_batch_sizes is not None or args.grid_lrs is not None):
        raise ContractError("--grid-batch-sizes and --grid-lrs need --grid")
    if args.grid and args.ablation:
        raise ContractError("--grid and --ablation cannot be combined")
    if len(args.val or []) > len(args.train):
        raise ContractError(f"{len(args.val)} --val files for {len(args.train)} --train files")
    cfg = _with_flags(check_record(TASK_PRESETS.get(args.task_preset, {}), FINETUNE_SETTINGS,
                                   "finetune"), args)
    if args.grid and not (cfg["grid_batch_sizes"] and cfg["grid_lrs"]):
        raise ContractError("--grid needs a --task-preset or both non-empty "
                            "--grid-batch-sizes and --grid-lrs")
    config, params, _step, masks, _ = TR.load_model_checkpoint(args.checkpoint)
    if masks is not None:
        raise ContractError("checkpoint still carries masks; run `sparselm densify` first")
    vocab = _load_model_vocab(args.vocab, config)
    if cfg["prompt_length"] > len(vocab.prompt_ids):
        raise ContractError(f"prompt length {cfg['prompt_length']} exceeds the vocab's "
                            f"{len(vocab.prompt_ids)} reserved slots")
    space = _load_label_space(args.labels, vocab) if args.labels else None
    if space is not None and space.multi_label:
        raise ContractError(f"{args.labels}: metric tracking needs a single-label space")

    vals = [_read_task_examples(path, vocab, space, config, cfg["prompt_length"])
            for path in args.val or []]
    stages = [FT.FinetuneStage(name=os.path.basename(path), train=_read_task_examples(path, vocab),
                               val=vals[i] if i < len(vals) else None)
              for i, path in enumerate(args.train)]

    job = FT.FinetuneJob(
        stages=stages, epochs=cfg["epochs"], batch_size=cfg["batch_size"], peak_lr=cfg["lr"],
        patience=cfg["patience"], prompt_length=cfg["prompt_length"],
        virtual_ids=vocab.prompt_ids[:cfg["prompt_length"]], freeze_base=args.freeze_base,
        pad_id=vocab.pad_id, eos_id=None if args.no_eos else vocab.eod_id,
        seed=cfg["seed"], prompt_seed=cfg["seed"],
    )
    metric_fn = E.bind_accuracy_metric(config, space) if space is not None else None
    files = {}  # written, and the run directory made, only once the run has finished
    if args.ablation:
        arms = FT.run_prompt_ablation(params, config, job, metric_fn)
        for label, result in arms.items():
            files[f"{label}_report.csv"] = FT.report_to_csv(result.report)
            sel = result.selected
            val_loss = "n/a" if sel is None or sel.val_loss is None else sel.val_loss
            metric = "" if sel is None or sel.metric is None else f" metric {sel.metric:.4f}"
            print(f"{label}: best val loss {val_loss}{metric}")
        result = arms["with_prompt"]
    elif args.grid:
        search = FT.grid_search(params, config, job, cfg["grid_batch_sizes"], cfg["grid_lrs"],
                                metric_fn)
        files["grid.csv"] = FT.grid_to_csv(search)
        print(f"grid best: batch_size {search.best_batch_size} lr {search.best_lr}")
        result = search.best
    else:
        result = FT.finetune_dense(params, config, job, metric_fn)

    os.makedirs(args.out, exist_ok=True)
    TR.save_model_checkpoint(os.path.join(args.out, "model.ckpt"), config, result.params,
                             prompt=result.prompt)
    files["report.csv"] = FT.report_to_csv(result.report)
    resolved = dataclasses.asdict(dataclasses.replace(job, stages=[]))
    resolved["stages"] = [s.name for s in job.stages]
    files["config.json"] = json.dumps(resolved, indent=2, sort_keys=True) + "\n"
    for name, text in files.items():
        _write_text(os.path.join(args.out, name), text)
    if result.report:
        last = result.report[-1]
        val = "n/a" if last.val_loss is None else f"{last.val_loss:.4f}"
        print(f"final epoch train loss {last.train_loss:.4f}, val loss {val}")
    return EXIT_OK


def cmd_eval(args):
    config, params, _step, _masks, prompt = TR.load_model_checkpoint(args.checkpoint)
    vocab = _load_model_vocab(args.vocab, config)
    space = _load_label_space(args.labels, vocab)
    examples = _read_task_examples(args.dataset, vocab, space, config,
                                   len(prompt.virtual_ids) if prompt is not None else 0)

    with naming(args.dataset):
        metric_name, metric, header, rows = E.evaluate(params, config, prompt, examples, space,
                                                       args.max_steps)
    if args.out:
        _write_text(args.out, D.csv_text(header, rows))
    print(f"{metric_name} {metric:.4f} over {len(examples)} examples")
    if args.metric_floor is not None and metric < args.metric_floor:
        print(f"metric {metric:.4f} below floor {args.metric_floor}", file=sys.stderr)
        return EXIT_METRIC_FLOOR
    return EXIT_OK


def cmd_flops(args):
    if args.paper_table:
        rows = F.ratio_table()
        print(F.format_table(rows))
        if args.csv:
            _write_text(args.csv, F.table_to_csv(rows))
        return EXIT_OK
    model = (D.read_json(args.model_config, M.CONFIG_SHAPE, "ModelConfig fields")
             if args.model_config else None)
    model_cfg = _resolve_model_config({"preset": args.preset, "model": model},
                                      args.model_config or "flops")
    report = F.forward_flops_per_token(model_cfg, args.sparsity)
    for name in F.COMPONENT_ORDER:
        print(f"{name:<20}{report.components[name]:>16.1f}")
    print(f"{'forward/token':<20}{report.forward_per_token:>16.1f}")
    print(f"sparsifiable subtotal (dense): {report.sparsifiable_subtotal:.1f}")
    print(f"train FLOPs for {args.tokens:,} tokens: {report.train_total(args.tokens):.6g} "
          f"({report.ratio_vs_dense:.2f}x of dense)")
    if args.csv:
        _write_text(args.csv, F.table_to_csv([F.TableRow(
            model=args.preset or "custom", size=M.sparse_matrix_params(model_cfg, args.sparsity),
            sparsity=args.sparsity, train_flops=report.train_total(args.tokens),
            ratio=report.ratio_vs_dense)]))
    return EXIT_OK


def cmd_report(args):
    merged, source = {}, {}
    for run_dir in args.runs:
        path = os.path.join(run_dir, "loss.csv")
        parsed = TR.parse_loss_curves(D.read_text(path), path)
        for run, records in parsed.items():
            label = run if run not in merged else f"{os.path.basename(os.path.normpath(run_dir))}/{run}"
            if label in merged:
                raise ContractError(f"runs of {source[label]} and {run_dir} both take the "
                                    f"label {label!r}")
            merged[label], source[label] = records, run_dir
    _write_text(args.out, TR.emit_loss_curves(merged))
    print(f"wrote {sum(map(len, merged.values()))} rows for {len(merged)} runs to {args.out}")
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_setting_flags(p, settings):
    """A flag for each setting but the file-only `model`, None when not given;
    a list setting's flag takes any number of values."""
    for key, (kind, _) in settings.items():
        if key != "model":
            listed = typing.get_origin(kind) is list
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           type=typing.get_args(kind)[0] if listed else kind,
                           nargs="*" if listed else None,
                           choices={"preset": sorted(M.PRESETS),
                                    "task_preset": sorted(TASK_PRESETS)}.get(key))


def build_parser():
    parser = argparse.ArgumentParser(prog="sparselm",
                                     description="Sparse-to-dense decoder LM training kit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenizer", help="learn a BPE vocab from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab-size", type=int, default=D.DESK_SCALE_VOCAB_SIZE,
                   help=f"target size incl. specials and byte alphabet "
                        f"(desk default {D.DESK_SCALE_VOCAB_SIZE}, "
                        f"full-scale preset {D.FULL_SCALE_VOCAB_SIZE})")
    p.add_argument("--prompt-slots", type=int, default=D.DEFAULT_PROMPT_SLOTS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tokenizer)

    p = sub.add_parser("pretrain", help="weight-sparse (or dense) pre-training")
    p.add_argument("--config", help="JSON run config; flags override its keys")
    p.add_argument("--corpus")
    p.add_argument("--vocab")
    p.add_argument("--out")
    _add_setting_flags(p, PRETRAIN_SETTINGS)
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("densify", help="retire masks; reactivated weights start at 0")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_densify)

    p = sub.add_parser("finetune", help="dense fine-tuning with soft prompts")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--train", nargs="+", required=True, help="stage datasets, in order")
    p.add_argument("--val", nargs="*", help="validation datasets, paired by stage index")
    p.add_argument("--out", required=True)
    p.add_argument("--labels", help="label-space JSON for metric tracking")
    _add_setting_flags(p, FINETUNE_SETTINGS)
    p.add_argument("--ablation", action="store_true",
                   help="run both prompt arms from the same starting weights")
    p.add_argument("--freeze-base", action="store_true")
    p.add_argument("--grid", action="store_true", help="grid-search batch size and lr")
    p.add_argument("--no-eos", action="store_true",
                   help="do not append the end-of-document token after targets")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="label scoring / constrained generation metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out")
    p.add_argument("--metric-floor", type=float)
    p.add_argument("--max-steps", type=int, default=8)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("flops", help="analytic training-cost accounting")
    p.add_argument("--paper-table", action="store_true",
                   help="emit the nine-row reference cost table")
    p.add_argument("--preset", choices=sorted(M.PRESETS))
    p.add_argument("--model-config", help="JSON file of ModelConfig fields")
    p.add_argument("--sparsity", type=float, default=0.0)
    p.add_argument("--tokens", type=float, default=F.FULL_SCALE_TOKEN_BUDGET)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("report", help="merge run loss curves into one CSV")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        check_ranges(vars(args), lambda key: f"--{key.replace('_', '-')}")
        return args.func(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except OSError as exc:  # a file that cannot be opened
        print(f"cannot open: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
