"""Command-line front end: tokenizer -> pretrain -> densify -> finetune ->
eval -> flops -> report, wired for reproducible runs.

Exit codes: 0 success, 1 usage/config error, 2 contract violation,
3 metric floor not met. Every training run writes its fully resolved
configuration next to its outputs; reruns with identical config + seed
produce byte-identical artifacts (no timestamps anywhere).
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

import numpy as np

from . import data as D
from . import evaluation as E
from . import finetune as FT
from . import flops as F
from . import model as M
from . import sparsity as S
from . import training as TR
from .errors import ContractError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRACT = 2
EXIT_METRIC_FLOOR = 3

PRETRAIN_DEFAULTS = {
    "run_name": None,
    "preset": None,
    "model": None,            # explicit ModelConfig fields
    "sparsity": 0.0,
    "mask_seed": 0,
    "seed": 0,
    "steps": 1000,
    "batch_size": 8,
    "micro_batch_size": None,
    "msl": 128,
    "peak_lr": 2e-4,
    "warmup_fraction": 0.10,
    "min_lr_fraction": 0.10,
    "weight_decay": 0.1,
    "grad_clip": None,
    "val_fraction": 0.03,
    "checkpoint_every": None,
    "log_every": 100,
}

TASK_PRESETS = {
    "pubmedqa": {"prompt_length": FT.PUBMEDQA_PROMPT_LENGTH, "grid": FT.PUBMEDQA_GRID,
                 "epochs": 5},
    "hoc": {"prompt_length": FT.HOC_PROMPT_LENGTH, "grid": FT.HOC_GRID, "epochs": 100},
}


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _resolve_model_config(cfg, vocab_size=None):
    """Preset or explicit model dict; the actual vocab size, when known,
    overrides the preset's full-scale one."""
    if cfg.get("preset"):
        if cfg["preset"] not in M.PRESETS:
            raise ContractError(f"unknown preset {cfg['preset']!r}; choose from {sorted(M.PRESETS)}")
        fields = dataclasses.asdict(M.PRESETS[cfg["preset"]])
    elif cfg.get("model"):
        fields = dict(cfg["model"])
    else:
        raise ContractError("no model given: use --preset or a config with a 'model' section")
    if vocab_size is not None:
        fields["vocab_size"] = vocab_size
    if cfg.get("msl"):
        fields["context_window"] = max(fields.get("context_window", 0), cfg["msl"])
    return M.ModelConfig(**fields)


def _resolved_pretrain_config(args):
    cfg = dict(PRETRAIN_DEFAULTS)
    if args.config:
        file_cfg = _load_json(args.config)
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ContractError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in PRETRAIN_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if not (0.0 <= cfg["sparsity"] < 1.0):
        raise ContractError(f"sparsity {cfg['sparsity']} outside [0, 1)")
    return cfg


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
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
    vocab = None
    if args.vocab:
        vocab = D.load_vocab(args.vocab)
    model_cfg = _resolve_model_config(cfg, vocab_size=len(vocab) if vocab else None)
    matrix = M.count_matrix_params(model_cfg)
    remaining = M.sparse_matrix_params(model_cfg, cfg["sparsity"])
    token_budget = cfg["steps"] * cfg["batch_size"] * cfg["msl"]
    report = F.forward_flops_per_token(model_cfg, cfg["sparsity"])

    if args.dry_run:
        resolved = dict(cfg, model=dataclasses.asdict(model_cfg))
        print(json.dumps(resolved, indent=2, sort_keys=True))
        print(f"total parameters (with embeddings): {M.count_params(model_cfg, True):,}")
        print(f"matrix parameters: {matrix:,}")
        print(f"sparsity {cfg['sparsity'] * 100:.0f}% -> "
              f"remaining matrix parameters: {remaining:,}")
        print(f"token budget: {token_budget:,}")
        print(f"estimated training FLOPs: {report.train_total(token_budget):.4g} "
              f"({report.ratio_vs_dense:.2f}x of dense)")
        return EXIT_OK

    if not args.corpus or not args.vocab:
        raise ContractError("pretrain needs --corpus and --vocab (or --dry-run)")
    if not args.out:
        raise ContractError("pretrain needs --out")
    os.makedirs(args.out, exist_ok=True)

    docs = D.filter_corpus(D.read_corpus(args.corpus))
    train_docs, _val_docs = D.split_train_val(docs, cfg["val_fraction"], cfg["seed"])
    encoded = [vocab.encode(D.document_text(d)) for d in train_docs]
    dataset = D.pack_sequences(encoded, cfg["msl"], vocab.eod_id)

    params = M.init_params(model_cfg, cfg["seed"])
    masks = None
    if cfg["sparsity"] > 0.0:
        masks = S.build_masks(params, S.SparsityPlan(level=cfg["sparsity"],
                                                     seed=cfg["mask_seed"]))
    schedule = TR.Schedule(cfg["peak_lr"], cfg["steps"],
                           cfg["warmup_fraction"], cfg["min_lr_fraction"])
    state = TR.pretrain(params, model_cfg, dataset, schedule,
                        cfg["batch_size"], cfg["seed"], masks=masks,
                        micro_batch_size=cfg["micro_batch_size"],
                        weight_decay=cfg["weight_decay"],
                        grad_clip=cfg["grad_clip"], out_dir=args.out,
                        checkpoint_every=cfg["checkpoint_every"],
                        log_every=cfg["log_every"])

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
        zeros = masks.total_zeros()
        print(f"reactivated {zeros:,} weights at exactly 0.0")
    TR.save_model_checkpoint(args.out, config, dense, step=step)
    return EXIT_OK


def _read_task_examples(path, vocab):
    examples = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            examples.append(FT.TaskExample(
                source=vocab.encode(rec["source"]),
                target=vocab.encode(rec["target"]),
                labels=tuple(rec.get("labels", ())),
            ))
    if not examples:
        raise ContractError(f"{path}: no examples")
    return examples


def _load_label_space(path, vocab):
    spec = _load_json(path)
    return E.label_space_from_vocab(vocab, spec["labels"],
                                    multi_label=bool(spec.get("multi_label", False)),
                                    separator=spec.get("separator", " "))


def cmd_finetune(args):
    config, params, _step, masks, _ = TR.load_model_checkpoint(args.checkpoint)
    if masks is not None:
        raise ContractError("checkpoint still carries masks; run `sparselm densify` first")
    vocab = D.load_vocab(args.vocab)
    if len(vocab) != config.vocab_size:
        raise ContractError(f"vocab size {len(vocab)} != model vocab {config.vocab_size}")

    preset = TASK_PRESETS.get(args.task_preset, {})
    prompt_length = args.prompt_length if args.prompt_length is not None \
        else preset.get("prompt_length", 0)
    epochs = args.epochs if args.epochs is not None else preset.get("epochs", 5)
    if prompt_length > len(vocab.prompt_ids):
        raise ContractError(f"prompt length {prompt_length} exceeds the vocab's "
                            f"{len(vocab.prompt_ids)} reserved slots")

    stages = []
    val_paths = args.val or []
    for i, train_path in enumerate(args.train):
        val = _read_task_examples(val_paths[i], vocab) if i < len(val_paths) else None
        stages.append(FT.FinetuneStage(name=os.path.basename(train_path),
                                       train=_read_task_examples(train_path, vocab),
                                       val=val))

    job = FT.FinetuneJob(
        stages=stages, epochs=epochs, batch_size=args.batch_size, peak_lr=args.lr,
        patience=args.patience, prompt_length=prompt_length,
        virtual_ids=vocab.prompt_ids[:prompt_length],
        use_prompt=not args.no_prompt, freeze_base=args.freeze_base,
        pad_id=vocab.pad_id, eos_id=None if args.no_eos else vocab.eod_id,
        seed=args.seed, prompt_seed=args.seed,
    )

    metric_fn = None
    space = None
    if args.labels:
        space = _load_label_space(args.labels, vocab)
        if not space.multi_label:
            metric_fn = E.bind_accuracy_metric(config, space)

    os.makedirs(args.out, exist_ok=True)

    if args.ablation:
        arms = FT.run_prompt_ablation(params, config, job, metric_fn)
        for label, result in arms.items():
            _write_text(os.path.join(args.out, f"{label}_report.csv"),
                        FT.report_to_csv(result.report))
            metric = "" if result.final_metric is None else f" metric {result.final_metric:.4f}"
            print(f"{label}: best val loss "
                  f"{result.best_val_loss if result.best_val_loss is not None else 'n/a'}{metric}")
        result = arms["with_prompt"]
    elif args.grid:
        grid = preset.get("grid")
        if args.grid_batch_sizes and args.grid_lrs:
            grid = (tuple(args.grid_batch_sizes), tuple(args.grid_lrs))
        if grid is None:
            raise ContractError("--grid needs a --task-preset or explicit "
                                "--grid-batch-sizes/--grid-lrs")
        search = FT.grid_search(params, config, job, grid[0], grid[1], metric_fn)
        _write_text(os.path.join(args.out, "grid.csv"), FT.grid_to_csv(search))
        print(f"grid best: batch_size {search.best_batch_size} lr {search.best_lr}")
        result = search.best
        params = result.params
    else:
        result = FT.finetune_dense(params, config, job, metric_fn)

    TR.save_model_checkpoint(os.path.join(args.out, "model.ckpt"), config, result.params,
                             prompt=result.prompt)
    _write_text(os.path.join(args.out, "report.csv"), FT.report_to_csv(result.report))
    resolved = dataclasses.asdict(dataclasses.replace(job, stages=[]))
    resolved["stages"] = [s.name for s in job.stages]
    _write_text(os.path.join(args.out, "config.json"),
                json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    if result.report:
        last = result.report[-1]
        val = "n/a" if last.val_loss is None else f"{last.val_loss:.4f}"
        print(f"final epoch train loss {last.train_loss:.4f}, val loss {val}")
    return EXIT_OK


def cmd_eval(args):
    config, params, _step, _masks, prompt = TR.load_model_checkpoint(args.checkpoint)
    vocab = D.load_vocab(args.vocab)
    space = _load_label_space(args.labels, vocab)
    examples = _read_task_examples(args.dataset, vocab)

    rows = []
    if space.multi_label:
        preds, golds = [], []
        for i, ex in enumerate(examples):
            out = E.generate_labels(params, config, prompt, ex.source, space,
                                    max_steps=args.max_steps)
            preds.append(set(out.labels))
            golds.append(set(ex.labels))
            flag = " truncated" if out.truncated else ""
            rows.append(f"{i},{'|'.join(sorted(golds[-1]))},{'|'.join(sorted(out.labels))},{flag.strip()}")
        metric_name, metric = "micro_f1", E.micro_f1(preds, golds)
        header = "id,gold,pred,flags"
    else:
        preds, golds = [], []
        for i, ex in enumerate(examples):
            if not ex.labels:
                raise ContractError(f"example {i} has no gold label")
            scores = E.score_labels(params, config, prompt, ex.source, space)
            pred = space.labels[int(np.argmax(scores))]
            preds.append(pred)
            golds.append(ex.labels[0])
            score_cols = ",".join(repr(float(s)) for s in scores)
            rows.append(f"{i},{golds[-1]},{pred},{score_cols}")
        metric_name, metric = "accuracy", E.accuracy(preds, golds)
        header = "id,gold,pred," + ",".join(f"score_{label}" for label in space.labels)

    if args.out:
        _write_text(args.out, "\n".join([header] + rows) + "\n")
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
    cfg = {"preset": args.preset, "model": _load_json(args.model_config) if args.model_config else None}
    model_cfg = _resolve_model_config(cfg)
    report = F.forward_flops_per_token(model_cfg, args.sparsity)
    tokens = args.tokens if args.tokens is not None else F.FULL_SCALE_TOKEN_BUDGET
    for name in F.COMPONENT_ORDER:
        print(f"{name:<20}{report.components[name]:>16.1f}")
    print(f"{'forward/token':<20}{report.forward_per_token:>16.1f}")
    print(f"sparsifiable subtotal (dense): {report.sparsifiable_subtotal:.1f}")
    print(f"train FLOPs for {tokens:,} tokens: {report.train_total(tokens):.6g} "
          f"({report.ratio_vs_dense:.2f}x of dense)")
    if args.csv:
        _write_text(args.csv, F.table_to_csv([F.TableRow(
            model=args.preset or "custom", size=M.sparse_matrix_params(model_cfg, args.sparsity),
            sparsity=args.sparsity, train_flops=report.train_total(tokens),
            ratio=report.ratio_vs_dense)]))
    return EXIT_OK


def cmd_report(args):
    merged = {}
    for run_dir in args.runs:
        path = os.path.join(run_dir, "loss.csv")
        with open(path, encoding="utf-8") as fh:
            parsed = TR.parse_loss_curves(fh.read())
        for run, records in parsed.items():
            label = run if run not in merged else f"{os.path.basename(os.path.normpath(run_dir))}/{run}"
            merged[label] = records
    _write_text(args.out, TR.emit_loss_curves(merged))
    total = sum(len(v) for v in merged.values())
    print(f"wrote {total} rows for {len(merged)} runs to {args.out}")
    return EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparselm",
        description="Sparse-to-dense decoder LM training kit",
    )
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
    p.add_argument("--preset", choices=sorted(M.PRESETS))
    p.add_argument("--sparsity", type=float)
    p.add_argument("--mask-seed", type=int, dest="mask_seed")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--micro-batch-size", type=int, dest="micro_batch_size")
    p.add_argument("--msl", type=int)
    p.add_argument("--peak-lr", type=float, dest="peak_lr")
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--grad-clip", type=float, dest="grad_clip")
    p.add_argument("--val-fraction", type=float, dest="val_fraction")
    p.add_argument("--checkpoint-every", type=int, dest="checkpoint_every")
    p.add_argument("--log-every", type=int, dest="log_every")
    p.add_argument("--run-name", dest="run_name")
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("densify", help="retire masks; reactivated weights start at 0")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_densify)

    p = sub.add_parser("finetune", help="dense fine-tuning with soft prompts")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--train", nargs="+", required=True,
                   help="stage datasets, in order")
    p.add_argument("--val", nargs="*", help="validation datasets, paired by stage index")
    p.add_argument("--out", required=True)
    p.add_argument("--task-preset", choices=sorted(TASK_PRESETS), default=None)
    p.add_argument("--labels", help="label-space JSON for metric tracking")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size", default=8)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--patience", type=int)
    p.add_argument("--prompt-length", type=int, dest="prompt_length")
    p.add_argument("--no-prompt", action="store_true", help="drop the soft-prompt arm")
    p.add_argument("--ablation", action="store_true",
                   help="run both prompt arms from the same starting weights")
    p.add_argument("--freeze-base", action="store_true", dest="freeze_base")
    p.add_argument("--grid", action="store_true", help="grid-search batch size and lr")
    p.add_argument("--grid-batch-sizes", nargs="*", type=int, dest="grid_batch_sizes")
    p.add_argument("--grid-lrs", nargs="*", type=float, dest="grid_lrs")
    p.add_argument("--no-eos", action="store_true",
                   help="do not append the end-of-document token after targets")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="label scoring / constrained generation metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out")
    p.add_argument("--metric-floor", type=float, dest="metric_floor")
    p.add_argument("--max-steps", type=int, dest="max_steps", default=8)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("flops", help="analytic training-cost accounting")
    p.add_argument("--paper-table", action="store_true", dest="paper_table",
                   help="emit the nine-row reference cost table")
    p.add_argument("--preset", choices=sorted(M.PRESETS))
    p.add_argument("--model-config", dest="model_config",
                   help="JSON file of ModelConfig fields")
    p.add_argument("--sparsity", type=float, default=0.0)
    p.add_argument("--tokens", type=float)
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
        return args.func(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
