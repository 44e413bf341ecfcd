"""Static unstructured weight masks: build, apply, retire.

Masks are drawn once at initialization by seeded random pruning and never
change during pre-training. A `MaskSet` holds each as its shape and the
int32 flat index of its active entries, row-major: the one record of what
trains, which `training.OptimizerState.index` shares, array for array.
Packed bits exist only in a checkpoint's bitset section, packed from the
index when the section is encoded and unpacked to it as it is read. Only
the six block matrices of `model.SPARSIFIABLE_ROLES` are masked. A weight
is masked through its index (`_zero_pruned`), which gives the bits of
`w * mask`, -0.0 and NaN included. The training loop masks the weights
once, up front; after that only the active coordinates get a gradient and
an update, which keeps masked weights exactly zero, numerically identical to
multiplying mask*weights in every forward pass. Densification retires the
mask, leaving the previously inactive weights at exactly 0.0 and trainable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, check_ranges
from .model import SPARSIFIABLE_ROLES, ParamStore, clone_params, is_sparsifiable, zero_count


@dataclass(frozen=True)
class SparsityPlan:
    """One uniform sparsity level for every sparsifiable path, and the seed
    of the random pruning."""

    level: float
    seed: int = 0

    def __post_init__(self):
        if self.level is None:
            raise ContractError("a sparsity plan needs one level in [0, 1), got None")
        check_ranges({"sparsity": self.level, "seed": self.seed}, "a sparsity plan's {}".format)


def mask_index(mask):
    """(shape, int32 flat index of its nonzero entries, row-major) of a 0/1
    array: the entry a `MaskSet` holds for one path."""
    mask = np.asarray(mask)
    return mask.shape, np.flatnonzero(mask).astype(np.int32)


class MaskSet:
    """Masks keyed by parameter path (1 = active, 0 = pruned), built from
    path -> (shape, int32 flat index of the active entries), as `mask_index`
    gives them: `shapes` and `index` hold the two halves. The index is all
    a MaskSet keeps of a mask; the optimizer trains through the same arrays."""

    def __init__(self, entries):
        self.shapes = {p: tuple(shape) for p, (shape, _) in entries.items()}
        self.index = {p: at for p, (_, at) in entries.items()}

    def __contains__(self, path):
        return path in self.index

    def __getitem__(self, path):
        """The mask of `path` as a fresh bool array of its shape."""
        mask = np.zeros(math.prod(self.shapes[path]), dtype=bool)
        mask[self.index[path]] = True
        return mask.reshape(self.shapes[path])

    def paths(self):
        return list(self.index)


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
        masks[path] = mask_index(flat.reshape(tensor.data.shape))
    return MaskSet(masks)


def global_sparsity(masks: MaskSet) -> float:
    """Ratio of inactive entries over the sparsifiable-path total; 0.0 without masks."""
    total = sum(math.prod(shape) for shape in masks.shapes.values())
    return (total - sum(at.size for at in masks.index.values())) / total if total else 0.0


def check_masks(masks: MaskSet, params: ParamStore):
    """ContractError unless every mask names a block matrix of `params`
    (a path of `SPARSIFIABLE_ROLES`) and has its shape."""
    for path, shape in masks.shapes.items():
        if path not in params:
            raise ContractError(f"mask for unknown parameter {path!r}")
        if not is_sparsifiable(path):
            raise ContractError(f"mask for {path!r}, which is not one of the block matrices "
                                f"{', '.join(SPARSIFIABLE_ROLES)}")
        if shape != params[path].data.shape:
            raise ContractError(f"mask shape mismatch: mask {path!r} has shape {shape}, "
                                f"the parameter {params[path].data.shape}")


def apply_masks(masks: MaskSet, params: ParamStore) -> ParamStore:
    """Materialize mask*weights into a new store: a copy of `params`, masked
    in place by `_zero_pruned` as training masks its own weights."""
    check_masks(masks, params)
    out = clone_params(params)
    _zero_pruned(out, masks)
    return out


def _zero_pruned(params: ParamStore, masks: MaskSet):
    """Zero each masked weight of `params` off its index, in place: the
    active entries are gathered, the whole tensor is multiplied by 0.0 and
    they are put back, which gives the bits of `w * mask` (-0.0 where w was
    negative, NaN where it was NaN or infinite). Shapes are checked by
    `check_masks` up front, not here."""
    for path, at in masks.index.items():
        w = params[path].data
        keep = np.take(w, at)
        w *= 0.0
        np.put(w, at, keep)


def densify(params: ParamStore, masks: MaskSet) -> ParamStore:
    """Retire the mask: `apply_masks`, with its shape check, and every
    tensor trainable, so previously pruned positions come back as exact
    0.0 and train from then on."""
    out = apply_masks(masks, params)
    for t in out.values():
        t.requires_grad = True
    return out
