"""Static unstructured weight masks: build, apply, retire.

Masks are bool (True = active), drawn once at initialization by seeded
random pruning, and never change during pre-training. `w * mask` and
`g *= mask` give the bits of a 0/1 mask of the weights' dtype, -0.0 and NaN
included. The training loop applies them to the weights up front and
filters gradients each step; with zero-initialized optimizer moments this
keeps masked coordinates exactly zero, which is numerically identical to
multiplying mask*weights in every forward pass. Densification retires the
mask, leaving the previously inactive weights at exactly 0.0 and trainable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .model import ParamStore, zero_count
from .tensor import Tensor


@dataclass(frozen=True)
class SparsityPlan:
    """One uniform sparsity level for every sparsifiable path, and the seed
    of the random pruning."""

    level: float
    seed: int = 0

    def __post_init__(self):
        if self.level is None or not (0.0 <= self.level < 1.0):
            raise ContractError(f"a sparsity plan needs one level in [0, 1), got {self.level!r}")


@dataclass
class MaskSet:
    """Bool masks keyed by parameter path (True = active, False = pruned).
    A 0/1 array of another dtype is held as bool."""

    masks: dict[str, np.ndarray]
    plan: SparsityPlan

    def __post_init__(self):
        self.masks = {path: np.asarray(m, dtype=bool) for path, m in self.masks.items()}

    def __contains__(self, path):
        return path in self.masks

    def __getitem__(self, path):
        return self.masks[path]

    def paths(self):
        return list(self.masks)

    def zeros_in(self, path) -> int:
        return int((self.masks[path] == 0).sum())

    def total_zeros(self) -> int:
        return sum(self.zeros_in(p) for p in self.masks)

    def total_entries(self) -> int:
        return sum(m.size for m in self.masks.values())


def build_masks(params: ParamStore, plan: SparsityPlan) -> MaskSet:
    """Seeded random pruning: in each sparsifiable path, in sorted order,
    exactly round(s*N) zeros at uniformly chosen positions. Deterministic
    per plan."""
    rng = np.random.default_rng(plan.seed)
    masks = {}
    for path in sorted(params.sparsifiable_paths()):
        tensor = params[path]
        n = tensor.data.size
        z = zero_count(plan.level, n)
        flat = np.ones(n, dtype=bool)
        if z:
            flat[rng.permutation(n)[:z]] = False
        masks[path] = flat.reshape(tensor.data.shape)
    return MaskSet(masks=masks, plan=plan)


def global_sparsity(masks: MaskSet, total_params: int | None = None) -> float:
    """Ratio of inactive entries. Denominator is the sparsifiable-path total
    by default; pass the model's full parameter count to use the all-params
    denominator instead (callers should label which one they report)."""
    denom = total_params if total_params is not None else masks.total_entries()
    if denom == 0:
        return 0.0
    return masks.total_zeros() / denom


def check_masks(masks: MaskSet, params: ParamStore):
    """ContractError unless every mask names a parameter of `params` and
    has its shape."""
    for path, mask in masks.masks.items():
        if path not in params:
            raise ContractError(f"mask for unknown parameter {path!r}")
        if mask.shape != params[path].data.shape:
            raise ContractError(f"mask shape mismatch: mask {path!r} has shape {mask.shape}, "
                                f"the parameter {params[path].data.shape}")


def apply_masks(masks: MaskSet, params: ParamStore) -> ParamStore:
    """Materialize mask*weights into a new store; unmasked paths pass
    through as copies. Training masks its own tensors in place instead
    (`mask_gradients` on the weights)."""
    check_masks(masks, params)
    out = ParamStore()
    for path, t in params.items():
        data = t.data * masks[path] if path in masks else t.data.copy()
        out[path] = Tensor(data, requires_grad=t.requires_grad, dtype=t.dtype)
    return out


def mask_gradients(grads, masks: MaskSet):
    """Zero entries wherever the mask is False, in place: each step's
    gradients, before any optimizer-state update so moments of pruned
    coordinates stay 0, and the weights once when a train state is built.
    Shapes are checked by `check_masks` up front, not here."""
    for path, g in grads.items():
        if path in masks:
            g *= masks[path]
    return grads


def densify(params: ParamStore, masks: MaskSet) -> ParamStore:
    """Retire the mask: `apply_masks`, with its shape check, and every
    tensor trainable, so previously pruned positions come back as exact
    0.0 and train from then on."""
    out = apply_masks(masks, params)
    for t in out.values():
        t.requires_grad = True
    return out
