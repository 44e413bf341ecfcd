"""Sparse-to-dense decoder LM training kit.

Static unstructured weight-sparse pre-training, densification with
zero-initialized reactivation, dense fine-tuning with soft prompts, and an
analytic training-FLOPs accountant.
"""

import ctypes
import os

__version__ = "0.1.0"

# glibc heap policy, set once at import. A training step frees its tape and
# gradients in one burst and allocates the same sizes in the next. Fixing
# both thresholds turns glibc's dynamic adjustment off: blocks up to 32 MiB
# stay on the heap instead of being mapped afresh, and the freed heap top is
# kept for the next step instead of being trimmed and faulted back in (see
# "Heap policy" in the README).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 512 << 20


def _set_heap_policy():
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return  # not glibc, or no confstr or mallopt to call
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


_set_heap_policy()
