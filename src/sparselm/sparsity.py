"""Static unstructured weight masks: build, apply, retire.

Masks are drawn once at initialization by seeded random pruning and never
change during pre-training. A `MaskSet` holds each as its shape and one bit
per entry (1 = active), packed little-endian eight to a byte: the bytes of
the checkpoint's bitset section, which are saved and loaded as they are.
Only the six block matrices of `model.SPARSIFIABLE_ROLES` are masked.
A mask is unpacked to bool one path at a time, where it is applied
(`masks[path]`). `w * mask` gives the bits of a 0/1 mask of the weights'
dtype, -0.0 and NaN included. The training loop applies the masks to the
weights once, up front; after that only the active coordinates
(`training.OptimizerState.index`) get a gradient and an update, which
keeps masked weights exactly zero, numerically identical to multiplying
mask*weights in every forward pass. Densification retires the mask,
leaving the previously inactive weights at exactly 0.0 and trainable.
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


def pack_mask(mask):
    """(shape, packed bits) of a 0/1 array: one bit per entry, 1 where it
    is nonzero, in row-major order, little-endian within each byte."""
    mask = np.asarray(mask)
    return mask.shape, np.packbits(mask.reshape(-1) != 0, bitorder="little")


class MaskSet:
    """Masks keyed by parameter path (1 = active, 0 = pruned): `bitsets` maps
    each path to its (shape, packed bits), as `pack_mask` gives them, held as
    they are. The bits are all a MaskSet keeps; `global_sparsity` reads them."""

    def __init__(self, bitsets):
        self.bitsets = dict(bitsets)

    def __contains__(self, path):
        return path in self.bitsets

    def __getitem__(self, path):
        """The mask of `path` as a fresh bool array of its shape."""
        shape, bits = self.bitsets[path]
        size = math.prod(shape)
        return np.unpackbits(bits, count=size, bitorder="little").view(bool).reshape(shape)

    def paths(self):
        return list(self.bitsets)

    def zeros_in(self, path) -> int:
        shape, bits = self.bitsets[path]
        # the bits past the last entry are 0
        return math.prod(shape) - int(np.count_nonzero(np.unpackbits(bits)))

    def total_zeros(self) -> int:
        return sum(self.zeros_in(p) for p in self.bitsets)

    def total_entries(self) -> int:
        return sum(math.prod(shape) for shape, _ in self.bitsets.values())


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
        masks[path] = pack_mask(flat.reshape(tensor.data.shape))
    return MaskSet(masks)


def global_sparsity(masks: MaskSet) -> float:
    """Ratio of inactive entries over the sparsifiable-path total; 0.0 without masks."""
    total = masks.total_entries()
    return masks.total_zeros() / total if total else 0.0


def check_masks(masks: MaskSet, params: ParamStore):
    """ContractError unless every mask names a block matrix of `params`
    (a path of `SPARSIFIABLE_ROLES`) and has its shape."""
    for path, (shape, _) in masks.bitsets.items():
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
    in place by `mask_gradients` as training masks its own weights."""
    check_masks(masks, params)
    out = clone_params(params)
    mask_gradients({path: t.data for path, t in out.items()}, masks)
    return out


def mask_gradients(grads, masks: MaskSet):
    """Zero the arrays of `grads` wherever the mask is False, in place: the
    weights, once when a train state is built, and `apply_masks`' copies
    (training forms no gradient at a pruned coordinate). Shapes are
    checked by `check_masks` up front, not here."""
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
