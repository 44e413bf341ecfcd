"""Pre-training loop: AdamW, linear warmup + cosine decay, masked updates,
checkpointing and loss tracing.

`init_train_state` starts a run that `train_steps` continues. It trains
the tensors it is given, in place, masked or not: the masks are multiplied
into those weights once (no copy of the store is made), and thereafter
gradients are filtered every step. With zero-initialized moments,
decoupled decay and zero gradients, pruned coordinates stay at exactly 0.0
for the whole run. `_step` ends every pre-training and fine-tuning step:
backward on each micro-batch loss, then the gradient mask and, with
clipping on, the global norm of the masked gradients, passed as
grad_clip / norm to `adamw_step` as `clip_scale`, which folds it into the
moment coefficients instead of rescaling the gradients. A non-finite loss
or norm stops the run before any update. `_step` drops every `.grad` right
after `adamw_step`, so none is held between steps.
`adamw_step` updates every parameter in place, one block of `ADAMW_BLOCK`
entries at a time, through one reused scratch buffer of one block.
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
from .data import PackedDataset, csv_text
from .errors import (LIBRARY_RULES, REQUIRED, ContractError, check_ranges, check_shapes, naming,
                     record_shape)
from .model import (CONFIG_SHAPE, ModelConfig, ParamStore, SoftPrompt, check_virtual_ids,
                    lm_loss, param_specs)
from .sparsity import MaskSet, SparsityPlan, check_masks, mask_gradients
from .tensor import Tensor

# exponential moving average coefficient for the reported smoothed loss
LOSS_SMOOTHING = 0.99
# entries per block of `adamw_step`'s passes: 256 KB of float32, which stays
# in cache with the block's parameter, gradient and moments
ADAMW_BLOCK = 1 << 16


@dataclass(frozen=True)
class Schedule:
    """Linear warmup to peak over warmup_fraction of the run, then cosine
    decay to min_lr_fraction of peak at total_steps."""

    peak_lr: float
    total_steps: int
    warmup_fraction: float = 0.10
    min_lr_fraction: float = 0.10

    def __post_init__(self):
        check_ranges(vars(self), rules=LIBRARY_RULES)

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
    stay exactly zero throughout sparse pre-training. `scratch` is the one
    work buffer every update reuses: raw bytes of one block of the update
    (`ADAMW_BLOCK` entries, or the largest parameter when that is smaller),
    built on the first step and never checkpointed."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        check_ranges(vars(self))

    @classmethod
    def for_params(cls, params, **hyper):
        m = {p: np.zeros_like(t.data) for p, t in params.items()}
        v = {p: np.zeros_like(t.data) for p, t in params.items()}
        return cls(m=m, v=v, **hyper)


def adamw_step(params, grads, opt: OptimizerState, lr: float, clip_scale: float = 1.0):
    """One bias-corrected AdamW update with decoupled weight decay, in place.

    The moments see the gradient times `clip_scale` (global-norm clipping;
    the gradients themselves are left as they are). With t = opt.step,
    bc1 = 1 - beta1^t and bc2 = 1 - beta2^t:

        m = beta1*m + (1 - beta1)*clip_scale*g
        v = beta2*v + (1 - beta2)*clip_scale^2*g^2
        p = p*(1 - lr*lambda) - (lr*sqrt(bc2)/bc1) * m / (sqrt(v) + eps*sqrt(bc2))

    which is p -= lr*(m/bc1)/(sqrt(v/bc2) + eps) + lr*lambda*p with the
    bias corrections folded into scalars, so each block of `ADAMW_BLOCK`
    entries of a parameter takes 13 in-place passes through `opt.scratch`
    and nothing is allocated. Every entry is updated alone, so blocking does
    not change a bit. Grads of sparse weights must be mask-filtered already
    (`mask_gradients`): a zero gradient keeps zero moments and a zero weight
    at exactly 0.0."""
    opt.step += 1
    bc1 = 1.0 - opt.beta1 ** opt.step
    bc2 = 1.0 - opt.beta2 ** opt.step
    m_coef = (1.0 - opt.beta1) * clip_scale
    v_coef = (1.0 - opt.beta2) * clip_scale * clip_scale
    step_size = lr * math.sqrt(bc2) / bc1
    eps = opt.eps * math.sqrt(bc2)
    decay = 1.0 - lr * opt.weight_decay
    need = max((min(t.data.size, ADAMW_BLOCK) * t.data.itemsize for t in params.values()),
               default=0)
    if opt.scratch is None or opt.scratch.nbytes < need:
        opt.scratch = np.empty(need, dtype=np.uint8)
    for path, tensor in params.items():
        grad = grads.get(path)
        if grad is None:
            continue
        flat = [a.reshape(-1) for a in (tensor.data, grad, opt.m[path], opt.v[path])]
        for start in range(0, flat[0].size, ADAMW_BLOCK):
            p, g, m, v = (a[start:start + ADAMW_BLOCK] for a in flat)
            tmp = opt.scratch[:p.nbytes].view(p.dtype)
            np.multiply(g, m_coef, out=tmp)
            m *= opt.beta1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= v_coef
            v *= opt.beta2
            v += tmp
            np.sqrt(v, out=tmp)
            tmp += eps
            np.divide(m, tmp, out=tmp)
            tmp *= step_size
            p *= decay
            p -= tmp
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
    moments and update count, and the batch-sampling RNG. A batch runs in
    micro-batches of micro_batch_size, None: one micro-batch."""

    params: ParamStore
    config: ModelConfig
    schedule: Schedule
    opt: OptimizerState
    rng: np.random.Generator
    batch_size: int
    seed: int
    masks: MaskSet | None = None
    micro_batch_size: int | None = None
    smoothed: float | None = None
    trace: list[StepRecord] = field(default_factory=list)

    def __post_init__(self):
        check_ranges(vars(self))

    @property
    def step(self) -> int:
        """The schedule position, which is the optimizer's update count."""
        return self.opt.step


def init_train_state(params, config, schedule, batch_size, seed,
                     masks=None, micro_batch_size=None, weight_decay=0.1) -> TrainState:
    """A state that trains `params` itself; with `masks`, the weights are
    masked in place once every check has passed."""
    if masks is not None:
        check_masks(masks, params)
    state = TrainState(
        params=params, config=config, schedule=schedule,
        opt=OptimizerState.for_params(params, weight_decay=weight_decay),
        rng=None, batch_size=batch_size, seed=seed,
        masks=masks, micro_batch_size=micro_batch_size,
    )
    state.rng = np.random.default_rng(seed)  # once the seed is checked
    if masks is not None:
        mask_gradients({p: t.data for p, t in params.items()}, masks)
    return state


def _drop_grads(params):
    for t in params.values():
        t.grad = None


def _global_grad_norm(grads):
    return math.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads.values()))


def _step(params, opt, lr, where, losses, masks=None, grad_clip=None) -> float:
    """End a pre-training or fine-tuning step and return its loss: backward on
    each (loss, batch share) pair of `losses`, a generator when each forward
    must wait for the previous backward; then, if the share-weighted loss is
    finite, mask, clip, apply AdamW and drop every `.grad`."""
    value = 0.0
    for loss, share in losses:
        value += loss.item() * share
        T.backward(loss, scale=share)
    if not math.isfinite(value):
        raise ContractError(f"{where}: training loss is {value}; training diverged")
    grads = {p: t.grad for p, t in params.items() if t.grad is not None}
    if masks is not None:
        mask_gradients(grads, masks)
    clip_scale = 1.0
    if grad_clip is not None:
        norm = _global_grad_norm(grads)
        if not math.isfinite(norm):
            raise ContractError(f"{where}: gradient norm is {norm}; training diverged")
        if norm > grad_clip:
            clip_scale = grad_clip / norm
    adamw_step(params, grads, opt, lr, clip_scale=clip_scale)
    _drop_grads(params)
    return value


def train_steps(state: TrainState, dataset: PackedDataset, n_steps=None,
                grad_clip=None, out_dir=None, checkpoint_every=None,
                log_every=0) -> TrainState:
    """Run `n_steps` updates (default: to the end of the schedule).

    A non-finite loss, or with clipping a non-finite gradient norm, raises
    ContractError naming the step, before that step's update."""
    if len(dataset) == 0:
        raise ContractError("dataset is empty")
    total = state.schedule.total_steps
    if n_steps is None:
        n_steps = total - state.step
    micro = state.micro_batch_size or state.batch_size
    _drop_grads(state.params)
    for _ in range(n_steps):
        step = state.step + 1
        lr = lr_at(state.schedule, min(step, total))
        idx = state.rng.integers(0, len(dataset), size=state.batch_size)
        batch = dataset.sequences[idx].astype(np.int64)
        chunks = (batch[start:start + micro] for start in range(0, state.batch_size, micro))
        loss_value = _step(state.params, state.opt, lr, f"step {step}",
                           ((lm_loss(state.params, state.config, chunk),
                             chunk.shape[0] / state.batch_size) for chunk in chunks),
                           state.masks, grad_clip)

        state.smoothed = (loss_value if state.smoothed is None
                          else LOSS_SMOOTHING * state.smoothed + (1 - LOSS_SMOOTHING) * loss_value)
        state.trace.append(StepRecord(step=step, loss=loss_value, smoothed=state.smoothed, lr=lr))
        if log_every and step % log_every == 0:
            print(f"step {step} lr {lr:.3e} loss {loss_value:.4f} (ema {state.smoothed:.4f})",
                  file=sys.stderr)
        if out_dir and checkpoint_every and step % checkpoint_every == 0:
            save_train_state(os.path.join(out_dir, f"step_{step:08d}.ckpt"), state)
    return state


# ------------------------------------------------------------- loss curves


def emit_loss_curves(curves: dict[str, list[tuple[int, float]]]) -> str:
    """CSV with columns run,step,loss from {run: [(step, loss), ...]}, the
    shape `parse_loss_curves` returns; float text round-trips exactly."""
    return csv_text(("run", "step", "loss"), [(run, step, loss) for run, points in curves.items()
                                              for step, loss in points])


def parse_loss_curves(text: str, path="loss curves") -> dict[str, list[tuple[int, float]]]:
    """The inverse of `emit_loss_curves`. A wrong header, a row that is not
    run,int,float and text without the final newline every emitted file has
    raise ContractError naming `path:line`."""
    lines = text.splitlines()
    if not text.endswith("\n"):
        raise ContractError(f"{path}:{max(len(lines), 1)}: truncated: no final newline")
    if lines[0] != "run,step,loss":
        raise ContractError(f"{path}:1: not a loss-curve CSV (header {lines[0]!r})")
    out = {}
    for line_no, line in enumerate(lines[1:], 2):
        try:
            run, step, loss = line.split(",")
            out.setdefault(run, []).append((int(step), float(loss)))
        except ValueError:
            raise ContractError(f"{path}:{line_no}: not a run,step,loss row: {line!r}") from None
    return out


# ------------------------------------------------------------ checkpoints


# A model checkpoint is the sections config, params and step, plus masks and
# plan when sparse and prompt and prompt_meta with a soft prompt. A train
# checkpoint is a model checkpoint plus schedule, opt_m, opt_v, opt_meta,
# trainer and rng. Sections are read by name, so their order does not matter.
# Every JSON section is read against its shape in `SECTION_SHAPES`; the
# loaders name the file in every ContractError (`errors.naming`).

# A plan section must name its seed and leaves a null level to SparsityPlan's
# own check. The step is its own section and the optimizer's update count
# (`opt_meta`), and the two must agree.
SECTION_SHAPES = {
    "config": CONFIG_SHAPE,
    "plan": {"level": (float, None), "seed": (int, REQUIRED)},
    "prompt_meta": {"virtual_ids": (list[int], REQUIRED)},
    "schedule": record_shape(Schedule),
    "opt_meta": record_shape(OptimizerState, skip=("m", "v", "scratch")),
    "trainer": record_shape(TrainState, skip=("params", "config", "schedule", "opt", "rng",
                                              "masks", "trace")),
    "rng": {"bit_generator": (str, REQUIRED), "has_uint32": (int, REQUIRED),
            "uinteger": (int, REQUIRED),
            "state": ({"state": (int, REQUIRED), "inc": (int, REQUIRED)}, REQUIRED)},
}


def _require(sections, names):
    for name in names:
        if name not in sections:
            raise ContractError(f"missing checkpoint section {name!r}")


def _json(sections, name, build=dict, **fields):
    """`build` of the JSON section `name`'s record and `fields`; a fault names the section."""
    _require(sections, (name,))
    record = C.decode_json(sections[name], SECTION_SHAPES[name], name)
    with naming(f"{name} section"):
        return build(**fields, **record)


def _encode_model(config, params, step, masks=None, prompt=None) -> dict[str, bytes]:
    sections = {
        "config": C.encode_json(dataclasses.asdict(config)),
        "params": C.encode_tensor_map({p: t.data for p, t in params.items()}),
        "step": C.encode_u64(step),
    }
    if masks is not None:
        sections["masks"] = C.encode_bitset_map(masks.bitsets)
        sections["plan"] = C.encode_json({"level": masks.plan.level, "seed": masks.plan.seed})
    if prompt is not None:
        sections["prompt"] = C.encode_tensor_map({"embeddings": prompt.embeddings.data})
        sections["prompt_meta"] = C.encode_json({"virtual_ids": list(prompt.virtual_ids)})
    return sections


def _decode_model(sections):
    """(config, params, step, masks or None, prompt or None). Tensor sections
    are popped as they are decoded, so each payload is freed once its arrays
    exist and a load never holds all payloads and all arrays at once. Their
    shapes are the config's `param_specs` and (len(virtual_ids), d_model),
    their dtype is tok_emb's, and the prompt's ids lie in the vocab."""
    _require(sections, ("config", "params", "step"))
    config = ModelConfig(**_json(sections, "config"))
    arrays = C.decode_tensor_map(sections.pop("params"))
    dtype = getattr(arrays.get("tok_emb"), "dtype", None)  # None: reported missing first
    check_shapes(arrays, {path: shape for path, shape, _ in param_specs(config)}, dtype,
                 "params section")
    params = ParamStore((p, Tensor(arr, requires_grad=True)) for p, arr in arrays.items())
    masks = prompt = None
    if "masks" in sections:
        meta = _json(sections, "plan")
        plan = SparsityPlan(level=meta["level"], seed=meta["seed"])
        masks = MaskSet(C.decode_bitset_map(sections.pop("masks")), plan)
        check_masks(masks, params)
    if "prompt" in sections:
        ids = tuple(_json(sections, "prompt_meta")["virtual_ids"])
        emb = check_shapes(C.decode_tensor_map(sections.pop("prompt")),
                           {"embeddings": (len(ids), config.d_model)}, dtype,
                           "prompt section")["embeddings"]
        with naming("prompt_meta section"):
            check_virtual_ids(config, ids)
            prompt = SoftPrompt(embeddings=Tensor(emb, requires_grad=True), virtual_ids=ids)
    return config, params, C.decode_u64(sections["step"]), masks, prompt


def save_train_state(path, state: TrainState):
    opt = state.opt
    C.save_container(path, _encode_model(state.config, state.params, state.step, state.masks) | {
        "schedule": C.encode_json(dataclasses.asdict(state.schedule)),
        "opt_m": C.encode_tensor_map(opt.m),
        "opt_v": C.encode_tensor_map(opt.v),
        "opt_meta": C.encode_json({key: getattr(opt, key) for key in SECTION_SHAPES["opt_meta"]}),
        "trainer": C.encode_json({"batch_size": state.batch_size, "seed": state.seed,
                                  "micro_batch_size": state.micro_batch_size,
                                  "smoothed": state.smoothed}),
        "rng": C.encode_json(state.rng.bit_generator.state),
    })


def load_train_state(path) -> TrainState:
    sections = C.load_container(path)
    with naming(path):
        _require(sections, ("schedule", "opt_m", "opt_v", "opt_meta", "trainer", "rng"))
        config, params, step, masks, _ = _decode_model(sections)
        shapes = {p: t.data.shape for p, t in params.items()}
        m, v = (check_shapes(C.decode_tensor_map(sections.pop(name)), shapes,
                             params["tok_emb"].data.dtype, f"{name} section")
                for name in ("opt_m", "opt_v"))
        opt = _json(sections, "opt_meta", OptimizerState, m=m, v=v)
        if opt.step != step:
            raise ContractError(f"opt_meta section: 'step' {opt.step} != the step section's {step}")
        rng_state = _json(sections, "rng")
        rng = np.random.default_rng()
        try:
            rng.bit_generator.state = rng_state
        except (ValueError, OverflowError) as exc:  # another generator, or out of range
            raise ContractError(f"rng section: {exc}") from None
        return _json(sections, "trainer", TrainState, params=params, config=config, opt=opt,
                     rng=rng, masks=masks, schedule=_json(sections, "schedule", Schedule))


def save_model_checkpoint(path, config: ModelConfig, params: ParamStore, step: int = 0,
                          masks: MaskSet | None = None, prompt=None):
    """Config and weights, plus masks when sparse and a fine-tuned soft prompt."""
    C.save_container(path, _encode_model(config, params, step, masks, prompt))


def load_model_checkpoint(path):
    """(config, params, step, masks or None, prompt or None); reads train checkpoints too."""
    sections = C.load_container(path)
    with naming(path):
        return _decode_model(sections)
