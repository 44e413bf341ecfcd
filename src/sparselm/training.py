"""Pre-training loop: AdamW, linear warmup + cosine decay, masked updates,
checkpointing and loss tracing.

Masks are materialized into the weights once at state construction;
thereafter gradients are filtered every step. With zero-initialized
moments, decoupled decay and zero gradients, pruned coordinates stay at
exactly 0.0 for the whole run.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint as C
from . import tensor as T
from .data import PackedDataset
from .errors import ContractError
from .model import ModelConfig, ParamStore, lm_loss
from .sparsity import MaskSet, SparsityPlan, apply_masks, mask_gradients
from .tensor import Tensor

# exponential moving average coefficient for the reported smoothed loss
LOSS_SMOOTHING = 0.99


@dataclass(frozen=True)
class Schedule:
    """Linear warmup to peak over warmup_fraction of the run, then cosine
    decay to min_lr_fraction of peak at total_steps."""

    peak_lr: float
    total_steps: int
    warmup_fraction: float = 0.10
    min_lr_fraction: float = 0.10

    @property
    def warmup_steps(self) -> int:
        return int(round(self.warmup_fraction * self.total_steps))


def lr_at(schedule: Schedule, step: int) -> float:
    if not (0 <= step <= schedule.total_steps):
        raise ContractError(f"step {step} outside [0, {schedule.total_steps}]")
    warmup = schedule.warmup_steps
    if warmup and step <= warmup:
        return schedule.peak_lr * (step / warmup)
    min_lr = schedule.peak_lr * schedule.min_lr_fraction
    span = schedule.total_steps - warmup
    if span <= 0:
        return schedule.peak_lr
    progress = (step - warmup) / span
    return min_lr + (schedule.peak_lr - min_lr) * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptimizerState:
    """AdamW moments and constants. Moment buffers of pruned coordinates
    stay exactly zero throughout sparse pre-training."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1

    @classmethod
    def for_params(cls, params, **hyper):
        m = {p: np.zeros_like(t.data) for p, t in params.items()}
        v = {p: np.zeros_like(t.data) for p, t in params.items()}
        return cls(m=m, v=v, **hyper)


def adamw_step(params, grads, opt: OptimizerState, lr: float):
    """One bias-corrected AdamW update with decoupled weight decay
    (theta -= lr*lambda*theta separately from the adaptive step). Grads of
    sparse weights must be mask-filtered already (`mask_gradients`)."""
    opt.step += 1
    bc1 = 1.0 - opt.beta1 ** opt.step
    bc2 = 1.0 - opt.beta2 ** opt.step
    for path, tensor in params.items():
        g = grads.get(path)
        if g is None:
            continue
        if g.shape != tensor.data.shape:
            raise ContractError(f"grad shape {g.shape} != param shape {tensor.data.shape} at {path!r}")
        m, v = opt.m[path], opt.v[path]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        tensor.data -= lr * update + lr * opt.weight_decay * tensor.data
    return params


@dataclass
class StepRecord:
    step: int
    loss: float
    smoothed: float
    lr: float


@dataclass
class TrainState:
    """Everything a run needs to continue: parameters, masks, optimizer
    moments, schedule position, and the batch-sampling RNG."""

    params: ParamStore
    config: ModelConfig
    schedule: Schedule
    opt: OptimizerState
    rng: np.random.Generator
    batch_size: int
    seed: int
    step: int = 0
    masks: MaskSet | None = None
    micro_batch_size: int | None = None
    smoothed: float | None = None
    trace: list[StepRecord] = field(default_factory=list)


def init_train_state(params, config, schedule, batch_size, seed,
                     masks=None, micro_batch_size=None, weight_decay=0.1) -> TrainState:
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    if masks is not None:
        params = apply_masks(masks, params)
    opt = OptimizerState.for_params(params, weight_decay=weight_decay)
    return TrainState(
        params=params, config=config, schedule=schedule, opt=opt,
        rng=np.random.default_rng(seed), batch_size=batch_size, seed=seed,
        masks=masks, micro_batch_size=micro_batch_size,
    )


def _global_grad_norm(grads):
    return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))


def train_steps(state: TrainState, dataset: PackedDataset, n_steps=None,
                grad_clip=None, out_dir=None, checkpoint_every=None,
                log_every=0) -> TrainState:
    """Run `n_steps` updates (default: to the end of the schedule)."""
    if len(dataset) == 0:
        raise ContractError("dataset is empty")
    total = state.schedule.total_steps
    if n_steps is None:
        n_steps = total - state.step
    micro = state.micro_batch_size or state.batch_size
    for _ in range(n_steps):
        step = state.step + 1
        lr = lr_at(state.schedule, min(step, total))
        idx = state.rng.integers(0, len(dataset), size=state.batch_size)
        batch = dataset.sequences[idx].astype(np.int64)

        for t in state.params.values():
            t.grad = None
        loss_value = 0.0
        for start in range(0, state.batch_size, micro):
            chunk = batch[start:start + micro]
            frac = chunk.shape[0] / state.batch_size
            loss = lm_loss(state.params, state.config, chunk)
            loss_value += loss.item() * frac
            T.backward(T.mul(loss, frac))

        grads = {p: t.grad for p, t in state.params.items() if t.grad is not None}
        if state.masks is not None:
            mask_gradients(grads, state.masks)
        if grad_clip is not None:
            norm = _global_grad_norm(grads)
            if norm > grad_clip:
                scale = grad_clip / norm
                for g in grads.values():
                    g *= scale
        adamw_step(state.params, grads, state.opt, lr)

        state.step = step
        state.smoothed = (loss_value if state.smoothed is None
                          else LOSS_SMOOTHING * state.smoothed + (1 - LOSS_SMOOTHING) * loss_value)
        state.trace.append(StepRecord(step=step, loss=loss_value, smoothed=state.smoothed, lr=lr))
        if log_every and step % log_every == 0:
            print(f"step {step} lr {lr:.3e} loss {loss_value:.4f} (ema {state.smoothed:.4f})",
                  file=sys.stderr)
        if out_dir and checkpoint_every and step % checkpoint_every == 0:
            save_train_state(os.path.join(out_dir, f"step_{step:08d}.ckpt"), state)
    return state


def pretrain(params, config, dataset, schedule, batch_size, seed,
             masks=None, **kwargs) -> TrainState:
    """Initialize a state and run the whole schedule."""
    state = init_train_state(params, config, schedule, batch_size, seed,
                             masks=masks,
                             micro_batch_size=kwargs.pop("micro_batch_size", None),
                             weight_decay=kwargs.pop("weight_decay", 0.1))
    return train_steps(state, dataset, **kwargs)


# ------------------------------------------------------------- loss curves


def emit_loss_curves(curves: dict[str, list[tuple[int, float]]]) -> str:
    """CSV with columns run,step,loss from {run: [(step, loss), ...]}, the
    shape `parse_loss_curves` returns; float text round-trips exactly."""
    lines = ["run,step,loss"]
    for run, points in curves.items():
        for step, loss in points:
            lines.append(f"{run},{step},{loss!r}")
    return "\n".join(lines) + "\n"


def parse_loss_curves(text: str) -> dict[str, list[tuple[int, float]]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "run,step,loss":
        raise ContractError("not a loss-curve CSV")
    out: dict[str, list[tuple[int, float]]] = {}
    for line in lines[1:]:
        run, step, loss = line.split(",")
        out.setdefault(run, []).append((int(step), float(loss)))
    return out


# ------------------------------------------------------------ checkpoints


# A model checkpoint is the sections config, params and step, plus masks and
# plan when sparse and prompt and prompt_meta with a soft prompt. A train
# checkpoint is a model checkpoint plus schedule, opt_m, opt_v, opt_meta,
# trainer and rng. Sections are read by name, so their order does not matter.


def _require(path, sections, names):
    for name in names:
        if name not in sections:
            raise ContractError(f"{path}: missing checkpoint section {name!r}")


def _encode_model(config, params, step, masks=None, prompt=None) -> dict[str, bytes]:
    sections = {
        "config": C.encode_json(dataclasses.asdict(config)),
        "params": C.encode_tensor_map({p: t.data for p, t in params.items()}),
        "step": C.encode_u64(step),
    }
    if masks is not None:
        sections["masks"] = C.encode_bitset_map(masks.masks)
        sections["plan"] = C.encode_json({
            "level": masks.plan.level, "levels": masks.plan.levels,
            "seed": masks.plan.seed, "resolved": masks.levels,
        })
    if prompt is not None:
        sections["prompt"] = C.encode_tensor_map({"embeddings": prompt.embeddings.data})
        sections["prompt_meta"] = C.encode_json({"virtual_ids": list(prompt.virtual_ids)})
    return sections


def _decode_model(path, sections):
    """(config, params, step, masks or None, prompt or None)."""
    _require(path, sections, ("config", "params", "step"))
    config = ModelConfig(**C.decode_json(sections["config"]))
    params = ParamStore((p, Tensor(arr, requires_grad=True))
                        for p, arr in C.decode_tensor_map(sections["params"]).items())
    masks = prompt = None
    if "masks" in sections:
        _require(path, sections, ("plan",))
        meta = C.decode_json(sections["plan"])
        plan = SparsityPlan(level=meta["level"], levels=meta["levels"], seed=meta["seed"])
        raw = C.decode_bitset_map(sections["masks"], params["tok_emb"].data.dtype)
        masks = MaskSet(masks=raw, plan=plan, levels=meta.get("resolved", {}))
    if "prompt" in sections:
        from .finetune import SoftPrompt  # finetune imports this module
        _require(path, sections, ("prompt_meta",))
        emb = C.decode_tensor_map(sections["prompt"])["embeddings"]
        ids = tuple(C.decode_json(sections["prompt_meta"])["virtual_ids"])
        prompt = SoftPrompt(embeddings=Tensor(emb, requires_grad=True), virtual_ids=ids)
    return config, params, C.decode_u64(sections["step"]), masks, prompt


def save_train_state(path, state: TrainState):
    opt = state.opt
    C.save_container(path, _encode_model(state.config, state.params, state.step, state.masks) | {
        "schedule": C.encode_json(dataclasses.asdict(state.schedule)),
        "opt_m": C.encode_tensor_map(opt.m),
        "opt_v": C.encode_tensor_map(opt.v),
        "opt_meta": C.encode_json({"step": opt.step, "beta1": opt.beta1, "beta2": opt.beta2,
                                   "eps": opt.eps, "weight_decay": opt.weight_decay}),
        "trainer": C.encode_json({"batch_size": state.batch_size, "seed": state.seed,
                                  "micro_batch_size": state.micro_batch_size,
                                  "smoothed": state.smoothed}),
        "rng": C.encode_json(state.rng.bit_generator.state),
    })


def load_train_state(path) -> TrainState:
    sections = C.load_container(path)
    _require(path, sections, ("schedule", "opt_m", "opt_v", "opt_meta", "trainer", "rng"))
    config, params, step, masks, _ = _decode_model(path, sections)
    opt = OptimizerState(m=C.decode_tensor_map(sections["opt_m"]),
                         v=C.decode_tensor_map(sections["opt_v"]),
                         **C.decode_json(sections["opt_meta"]))
    trainer = C.decode_json(sections["trainer"])
    rng = np.random.default_rng()
    rng.bit_generator.state = C.decode_json(sections["rng"])
    return TrainState(
        params=params, config=config, schedule=Schedule(**C.decode_json(sections["schedule"])),
        opt=opt, rng=rng, batch_size=trainer["batch_size"], seed=trainer["seed"], step=step,
        masks=masks, micro_batch_size=trainer["micro_batch_size"], smoothed=trainer["smoothed"],
    )


def save_model_checkpoint(path, config: ModelConfig, params: ParamStore, step: int = 0,
                          masks: MaskSet | None = None, prompt=None):
    """Config and weights, plus masks when sparse and a fine-tuned soft prompt."""
    C.save_container(path, _encode_model(config, params, step, masks, prompt))


def load_model_checkpoint(path):
    """(config, params, step, masks or None, prompt or None); reads train checkpoints too."""
    return _decode_model(path, C.load_container(path))
