"""Shared exception types."""

import contextlib


class ContractError(ValueError):
    """A caller violated an operation's documented contract."""


@contextlib.contextmanager
def naming(where):
    """Re-raise a ContractError of the block with `where: ` before its message."""
    try:
        yield
    except ContractError as exc:
        raise ContractError(f"{where}: {exc}") from None
