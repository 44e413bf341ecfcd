import os
import platform
import subprocess
import sys
import textwrap

import pytest

import sparselm

# a fresh interpreter, so that no earlier allocation has moved glibc's
# thresholds: touch a 16 MB buffer, free it, and count the minor page
# faults of touching a second one
REUSE = textwrap.dedent("""
    import resource
    import numpy as np
    import sparselm

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    buf = np.empty(16 << 20, dtype=np.uint8)
    buf.fill(1)
    del buf
    before = faults()
    buf = np.empty(16 << 20, dtype=np.uint8)
    buf.fill(1)
    print(faults() - before)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set on glibc only")
def test_import_keeps_freed_heap_for_the_next_allocation():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparselm.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", REUSE], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    # glibc's default thresholds map the second buffer afresh: about 500
    # faults with transparent huge pages, 4096 without
    assert int(out.stdout) < 64
