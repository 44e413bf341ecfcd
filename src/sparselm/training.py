"""Pre-training loop: AdamW, linear warmup + cosine decay, masked updates,
checkpointing and loss tracing.

`init_train_state` starts a run that `train_steps` continues. It trains
the tensors it is given, in place, masked or not: the masks are applied to
those weights once (no copy of the store is made). A masked path's AdamW
moments and gradient hold only its active coordinates, at the mask set's
own int32 index (`MaskSet.index`, the one record of what trains, shared by
`OptimizerState.index`), and the update reads and writes only those, so
pruned weights stay exactly as masked (0.0) for the whole run. `_step`
ends every pre-training and fine-tuning step: backward on each
micro-batch loss, each masked weight's gradient gathered at its index as
it is formed; then, with clipping on, the global norm of the gradients as
they are held (compact or not), passed as grad_clip / norm to
`adamw_step` as `clip_scale`, which folds it into the moment coefficients
instead of rescaling the gradients. A
non-finite loss or norm stops the run before any update. `_step` drops
every `.grad` right after `adamw_step`, so none is held between steps.
`adamw_step` updates every parameter in place, one block of `ADAMW_BLOCK`
moment entries at a time, through one work buffer that lasts the call, so
a train state holds nothing between steps beyond its weights, moments,
masks and RNG. A train checkpoint stores the moments as they are held,
compact for a masked path, so neither a save nor a load expands or
compacts one.
"""

from __future__ import annotations

import csv
import dataclasses
import io
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
from .sparsity import MaskSet, _zero_pruned, check_masks
from .tensor import Tensor

# exponential moving average coefficient for the reported smoothed loss
LOSS_SMOOTHING = 0.99
# entries per block of `adamw_step`'s passes: 256 KB of float32, which stays
# in cache with the block's parameter, gradient and moments
ADAMW_BLOCK = 1 << 16
# AdamW's moment decay rates and denominator epsilon
ADAMW_BETA1 = 0.9
ADAMW_BETA2 = 0.95
ADAMW_EPS = 1e-8


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
    """AdamW moments, update count and weight decay. A path in `index` is
    masked: `index[path]` is its `MaskSet`'s int32 flat index of the active
    entries, the same array, and its m and v, like the gradient `_step`
    forms for it, are 1-D, the entries at those coordinates in row-major
    order, and a train checkpoint stores them so. Every other path's moments
    have its shape. `index` is not checkpointed: the masks section is."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    weight_decay: float = 0.1
    index: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        check_ranges(vars(self))

    @classmethod
    def for_params(cls, params, masks=None, **hyper):
        index = {} if masks is None else dict(masks.index)
        m = {p: np.zeros(index[p].size if p in index else t.data.shape, t.data.dtype)
             for p, t in params.items()}
        v = {p: np.zeros_like(a) for p, a in m.items()}
        return cls(m=m, v=v, index=index, **hyper)


def adamw_step(params, grads, opt: OptimizerState, lr: float, clip_scale: float = 1.0):
    """One bias-corrected AdamW update with decoupled weight decay, in place.

    The moments see the gradient times `clip_scale` (global-norm clipping;
    the gradients themselves are left as they are). With t = opt.step and
    the `ADAMW_*` constants, bc1 = 1 - beta1^t and bc2 = 1 - beta2^t:

        m = beta1*m + (1 - beta1)*clip_scale*g
        v = beta2*v + (1 - beta2)*clip_scale^2*g^2
        p = p*(1 - lr*lambda) - (lr*sqrt(bc2)/bc1) * m / (sqrt(v) + eps*sqrt(bc2))

    which is p -= lr*(m/bc1)/(sqrt(v/bc2) + eps) + lr*lambda*p with the
    bias corrections folded into scalars, so each block of `ADAMW_BLOCK`
    moment entries takes 13 in-place passes through one work buffer,
    allocated once per call and freed when it returns: one block (or fewer
    entries when no parameter has that many), and for a masked path two
    blocks and an intp copy of the block's index. A masked path's gradient
    is compact, as its moments are, and its blocks run over both: the
    block's p entries at `opt.index` are gathered into the buffer and
    scattered back, so a pruned weight is never touched. A gradient of
    another size than its moments is refused. Every entry is updated alone,
    so neither blocking nor gathering changes a bit."""
    opt.step += 1
    bc1 = 1.0 - ADAMW_BETA1 ** opt.step
    bc2 = 1.0 - ADAMW_BETA2 ** opt.step
    m_coef = (1.0 - ADAMW_BETA1) * clip_scale
    v_coef = (1.0 - ADAMW_BETA2) * clip_scale * clip_scale
    step_size = lr * math.sqrt(bc2) / bc1
    eps = ADAMW_EPS * math.sqrt(bc2)
    decay = 1.0 - lr * opt.weight_decay
    intp = np.dtype(np.intp).itemsize
    need = max((min(opt.m[p].size, ADAMW_BLOCK)
                * (2 * t.data.itemsize + intp if p in opt.index else t.data.itemsize)
                for p, t in params.items()), default=0)
    scratch = np.empty(need, dtype=np.uint8)
    for path, tensor in params.items():
        grad = grads.get(path)
        if grad is None:
            continue
        index = opt.index.get(path)
        p_all, g_all, m_all, v_all = (a.reshape(-1) for a in (tensor.data, grad, opt.m[path],
                                                               opt.v[path]))
        if g_all.size != m_all.size:
            raise ContractError(f"{path!r}: a gradient of {g_all.size} entries for "
                                f"{m_all.size} moments")
        for start in range(0, m_all.size, ADAMW_BLOCK):
            block = slice(start, start + ADAMW_BLOCK)
            m, v, g = m_all[block], v_all[block], g_all[block]
            if index is None:
                p = p_all[block]
                tmp = scratch[:m.nbytes].view(m.dtype)
            else:
                at = scratch[:m.size * intp].view(np.intp)
                at[...] = index[block]
                tmp, p = scratch[at.nbytes:][:2 * m.nbytes].view(m.dtype).reshape(2, -1)
                # `at` lies inside the tensor: clipping never acts, and skips a buffered copy
                np.take(p_all, at, out=p, mode="clip")
            np.multiply(g, m_coef, out=tmp)
            m *= ADAMW_BETA1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= v_coef
            v *= ADAMW_BETA2
            v += tmp
            np.sqrt(v, out=tmp)
            tmp += eps
            np.divide(m, tmp, out=tmp)
            tmp *= step_size
            p *= decay
            p -= tmp
            if index is not None:
                p_all[at] = p
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
    check_ranges({"seed": seed})
    state = TrainState(
        params=params, config=config, schedule=schedule,
        opt=OptimizerState.for_params(params, masks, weight_decay=weight_decay),
        rng=np.random.default_rng(seed), batch_size=batch_size,
        masks=masks, micro_batch_size=micro_batch_size,
    )
    if masks is not None:
        _zero_pruned(params, masks)
    return state


def _drop_grads(params):
    for t in params.values():
        t.grad = None


def _global_grad_norm(grads):
    """The L2 norm of `grads`: np.dot of each gradient with itself, as it
    is held (a masked path's compact, its active coordinates only)."""
    return math.sqrt(sum(float(np.dot(g.reshape(-1), g.reshape(-1))) for g in grads.values()))


def _step(params, opt, lr, where, losses, grad_clip=None) -> float:
    """End a pre-training or fine-tuning step and return its loss: backward on
    each (loss, batch share) pair of `losses`, a generator when each forward
    must wait for the previous backward, each path of `opt.index` getting
    its gradient at that index only (`Tensor.grad_index`); then, if the
    share-weighted loss is finite, clip by the norm of the gradients as
    formed, apply AdamW and drop every `.grad`. A pruned coordinate's
    gradient is never formed: it reaches neither the clipping norm nor
    AdamW."""
    for path, t in params.items():
        t.grad_index = opt.index.get(path)
    value = 0.0
    try:
        for loss, share in losses:
            value += loss.item() * share
            T.backward(loss, scale=share)
    finally:
        for t in params.values():
            t.grad_index = None
    if not math.isfinite(value):
        raise ContractError(f"{where}: training loss is {value}; training diverged")
    grads = {p: t.grad for p, t in params.items() if t.grad is not None}
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
                           grad_clip)

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
    """The inverse of `emit_loss_curves`, read as CSV records. A wrong header,
    a record that is not run,int,float and text without the final newline
    every emitted file has raise ContractError naming `path:line`."""
    lines = text.splitlines()
    if not text.endswith("\n"):
        raise ContractError(f"{path}:{max(len(lines), 1)}: truncated: no final newline")
    if lines[0] != "run,step,loss":
        raise ContractError(f"{path}:1: not a loss-curve CSV (header {lines[0]!r})")
    records = csv.reader(io.StringIO(text))
    next(records)  # the header, checked above
    out = {}
    try:
        for run, step, loss in records:
            out.setdefault(run, []).append((int(step), float(loss)))
    except (ValueError, csv.Error):  # name the last line the reader took, as written
        line = text.split("\n")[records.line_num - 1]
        raise ContractError(f"{path}:{records.line_num}: not a run,step,loss row: "
                            f"{line!r}") from None
    return out


# ------------------------------------------------------------ checkpoints


# A model checkpoint is the sections config, params and step, plus masks when
# sparse and prompt and prompt_meta with a soft prompt. A train checkpoint is
# a model checkpoint plus schedule, opt_m, opt_v, opt_meta, trainer and rng;
# opt_m and opt_v hold the moments as `OptimizerState` does, so a masked
# path's are 1-D, one entry per active coordinate. Sections are read by name,
# so their order does not matter, and each value is stored once: the step
# section is the optimizer's update count, so opt_meta holds only the weight
# decay. Every JSON section is read against its shape in `SECTION_SHAPES`,
# which the writers share; the loaders name the file in every ContractError
# (`errors.naming`).
SECTION_SHAPES = {
    "config": CONFIG_SHAPE,
    "prompt_meta": {"virtual_ids": (list[int], REQUIRED)},
    "schedule": record_shape(Schedule),
    "opt_meta": record_shape(OptimizerState, skip=("m", "v", "step", "index")),
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
        sections["masks"] = C.encode_bitset_map({p: (masks.shapes[p], at)
                                                 for p, at in masks.index.items()})
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
        masks = MaskSet(C.decode_bitset_map(sections.pop("masks")))
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
    """The moments are written as the optimizer holds them: a masked path's
    1-D at its mask's index, every other path's at its parameter's shape."""
    opt = state.opt
    C.save_container(path, _encode_model(state.config, state.params, state.step, state.masks) | {
        "schedule": C.encode_json(dataclasses.asdict(state.schedule)),
        "opt_m": C.encode_tensor_map(opt.m),
        "opt_v": C.encode_tensor_map(opt.v),
        "opt_meta": C.encode_json({key: getattr(opt, key) for key in SECTION_SHAPES["opt_meta"]}),
        "trainer": C.encode_json({key: getattr(state, key) for key in SECTION_SHAPES["trainer"]}),
        "rng": C.encode_json(state.rng.bit_generator.state),
    })


def load_train_state(path) -> TrainState:
    """The state `save_train_state` wrote. A weight that is nonzero at a
    pruned coordinate is refused (-0.0 passes, NaN does not), and so is a
    masked path's moment of any shape but (active entries,): a dense one is
    the layout written before moments were stored compact."""
    sections = C.load_container(path)
    with naming(path):
        _require(sections, ("schedule", "opt_m", "opt_v", "opt_meta", "trainer", "rng"))
        config, params, step, masks, _ = _decode_model(sections)
        index = {} if masks is None else dict(masks.index)
        for p, at in index.items():
            flat = params[p].data.reshape(-1)
            if np.count_nonzero(np.take(flat, at)) != np.count_nonzero(flat):
                raise ContractError(f"params section: {p!r} has a nonzero at a pruned coordinate")
        shapes = {p: (index[p].size,) if p in index else t.data.shape for p, t in params.items()}
        m, v = (check_shapes(C.decode_tensor_map(sections.pop(name)), shapes,
                             params["tok_emb"].data.dtype, f"{name} section")
                for name in ("opt_m", "opt_v"))
        opt = _json(sections, "opt_meta", OptimizerState, m=m, v=v, step=step, index=index)
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
