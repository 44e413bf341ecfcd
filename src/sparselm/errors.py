"""Shared exception types and the one check of a JSON record, a range or a tensor map."""

import contextlib
import dataclasses
import operator
import types
import typing


class ContractError(ValueError):
    """A caller violated an operation's documented contract."""


@contextlib.contextmanager
def naming(where):
    """Re-raise a ContractError of the block with `where: ` before its message."""
    try:
        yield
    except ContractError as exc:
        raise ContractError(f"{where}: {exc}") from None


REQUIRED = dataclasses.MISSING  # the default of a key that a record must hold


def record_shape(cls, skip=()) -> dict:
    """{field: (type, default)} of the dataclass `cls`, but for the fields in
    `skip`; REQUIRED where a field has no default."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls)
            if f.name not in skip}


def _fits(value, kind) -> bool:
    """A bool is not an int, an int is a float, `list[T]` is a list of T,
    `T | None` is T or null and `object` is any value."""
    if isinstance(kind, types.UnionType):
        return any(_fits(value, k) for k in typing.get_args(kind))
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(_fits(x, typing.get_args(kind)[0]) for x in value)
    if isinstance(value, bool):
        return kind in (bool, object)
    return isinstance(value, (int, float) if kind is float else kind)


def check_record(value, shape, where, what="fields", extra_keys=False) -> dict:
    """`value` as a dict holding every key of `shape`, {key: (type or nested
    shape, default)}; null or a missing key takes the default. A value that is
    not an object, a missing REQUIRED key, a value of another type and, unless
    `extra_keys`, an unknown key raise ContractError naming `where` and the key."""
    if not isinstance(value, dict):
        raise ContractError(f"{where}: not a JSON object of {what}")
    unknown = [key for key in value if key not in shape]
    if unknown and not extra_keys:
        raise ContractError(f"{where}: unknown key {unknown[0]!r}")
    record = dict(value)
    for key, (kind, default) in shape.items():
        if record.get(key) is None and default is not REQUIRED:
            record[key] = default
        elif key not in record:
            raise ContractError(f"{where}: missing key {key!r}")
        elif isinstance(kind, dict):
            record[key] = check_record(record[key], kind, f"{where}: {key!r}")
        elif not _fits(record[key], kind):
            name = kind.__name__ if isinstance(kind, type) else kind
            raise ContractError(f"{where}: {key!r} must be {name}, got {record[key]!r}")
    return record


# the range of each numeric setting (of each item of a list), one name for one meaning
# in flags, `--config` values and the objects the library builds from settings
SETTING_RANGES = {
    "seed": ">= 0", "mask_seed": ">= 0", "prompt_seed": ">= 0", "steps": ">= 1", "epochs": ">= 0",
    "total_steps": ">= 0", "batch_size": ">= 1", "micro_batch_size": ">= 1", "msl": ">= 2",
    "grid_batch_sizes": ">= 1", "peak_lr": "> 0", "lr": "> 0", "grid_lrs": "> 0", "eps": "> 0",
    "sparsity": ">= 0 and < 1", "val_fraction": ">= 0 and < 1", "beta1": ">= 0 and < 1",
    "beta2": ">= 0 and < 1", "warmup_fraction": ">= 0 and <= 1", "min_lr_fraction": ">= 0 and <= 1",
    "weight_decay": ">= 0", "grad_clip": "> 0", "checkpoint_every": ">= 0", "log_every": ">= 0",
    "patience": ">= 0", "prompt_length": ">= 0", "vocab_size": ">= 1", "prompt_slots": ">= 0",
    "max_steps": ">= 1", "tokens": ">= 0", "library_peak_lr": ">= 0",
}
# the rule of a key that a library object (`training.Schedule`, `finetune.FinetuneJob`)
# checks more widely than the command line does: lr 0 freezes a run
LIBRARY_RULES = {"peak_lr": "library_peak_lr"}
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def check_ranges(settings, name=str, rules=None):
    """ContractError for the first value of `settings` (or item of a list) outside
    its SETTING_RANGES rule, or the one `rules` names for its key, naming the key
    as `name(key)`; None passes."""
    for key, value in settings.items():
        rule = SETTING_RANGES.get((rules or {}).get(key, key), "")
        terms = [term.split() for term in rule.split(" and ") if term]
        for item in value if isinstance(value, list) else [value]:
            if item is not None and not all(_COMPARE[op](item, float(x)) for op, x in terms):
                raise ContractError(f"{name(key)} must be {rule}, got {item}")


def check_shapes(arrays, shapes, dtype, what) -> dict:
    """`arrays` if it holds each path of `shapes`, {path: shape}, at its shape and
    `dtype` and no other path; else ContractError naming `what`, the path and why."""
    missing = [path for path in shapes if path not in arrays]
    if missing:
        raise ContractError(f"{what}: missing tensor {missing[0]!r} of shape {shapes[missing[0]]}")
    for path, array in arrays.items():
        if path not in shapes:
            raise ContractError(f"{what}: unknown tensor {path!r}")
        if array.shape != shapes[path]:
            raise ContractError(f"{what}: {path!r} has shape {array.shape}, "
                                f"expected {shapes[path]}")
        if array.dtype != dtype:
            raise ContractError(f"{what}: {path!r} has dtype {array.dtype}, expected {dtype}")
    return arrays
