"""Exactness on other BLAS kernels: the bitwise tests re-run in one child
pytest process per kernel, its OpenBLAS forced to that kernel.

Row products, stacked gemvs and the prefill's last layer, which attends for
its last position only while keeping every product at all rows, are exact
only if the BLAS kernel sums them the way these tests pin, and a kernel is
chosen per host. ``OPENBLAS_CORETYPE`` is read when OpenBLAS loads, so it is
set for the child only. A case skips when its child runs another kernel
than the one asked for, as on a host whose CPU lacks it.
"""
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmpd

KERNELS = ["Sandybridge", "Haswell", "Nehalem"]
# the naive-forward test, the batch-invariance, row-product and fused-q|k|v
# guards, block-causal attention and prefill against the full pass at 1, 2
# and 4 heads, rows of a block step against one-row steps, and every
# lockstep-equals-generate test
SELECTED = ["tests/test_tinylm.py", "tests/test_schedule.py", "-k", " or ".join((
    "test_forward_matches_the_naive_pass_bit_for_bit",
    "test_block_causal_attention_equals_the_full_masked_pass",
    "test_prefill_equals_the_last_row_of_forward_full_at_every_head_count",
    "test_stacked_products_and_batched_attention_are_batch_invariant",
    "test_the_fused_qkv_product_equals_three_separate_products",
    "test_the_heads_rows_depend_on_the_row_count_not_the_other_rows",
    "test_a_layers_rows_depend_on_the_row_count_not_the_other_rows",
    "test_decode_step_over_rows_equals_one_row_at_a_time",
    "lockstep"))]
# prints the child's kernel, then runs the selection only under the one asked for
CHILD = f"""
import os, sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
from test_blas_kernels import openblas_corename
core = openblas_corename()
print(core, flush=True)
if core == os.environ["OPENBLAS_CORETYPE"]:
    import pytest
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""


def openblas_corename() -> str | None:
    """The kernel the OpenBLAS loaded into this process runs, or None."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    for line in maps.read_text().splitlines():
        fields = line.split()
        if len(fields) >= 6 and "openblas" in Path(fields[-1]).name.lower():
            lib = ctypes.CDLL(fields[-1])
            for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                         "openblas_get_corename"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_char_p
                    core = fn()
                    return core.decode() if core else None
    return None


@pytest.mark.parametrize("kernel", KERNELS)
def test_exactness_tests_pass_on_a_second_blas_kernel(kernel):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in str(blas.get("name")).lower():
        pytest.skip(f"numpy's BLAS is {blas.get('name')}, not OpenBLAS")
    src = str(Path(pmpd.__file__).resolve().parents[1])  # the pmpd this process imports
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run([sys.executable, "-c", CHILD, *SELECTED], env=env,
                           cwd=Path(__file__).parents[1], capture_output=True, text=True,
                           timeout=900)
    core = child.stdout.partition("\n")[0]
    if child.returncode == 0 and core != kernel:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} ran the {core or 'unknown'} kernel")
    assert child.returncode == 0, child.stdout[-6000:] + child.stderr[-3000:]
