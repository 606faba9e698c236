"""Byte-identity tests under each OpenBLAS kernel this CPU can run.

The pinned bytes come from the OpenBLAS kernel numpy's wheel selects for
the CPU (SkylakeX on an AVX-512 machine), and the simulator's one
rotation product per substep goes through BLAS, as does the CEM variance
refit's gemv. ``OPENBLAS_CORETYPE`` selects another kernel for one
process, so each run below reruns a test file in a subprocess under that
kernel: the scalar simulator kernel must match its numpy reference byte
for byte there too, and CEM's in-place sampling and refit must match the
expressions they replaced.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import blas_kernel

ROOT = Path(__file__).resolve().parent.parent

# Kernel -> the CPU flags it needs, as /proc/cpuinfo names them.
KERNELS = {"Haswell": ("avx2", "fma"), "Sandybridge": ("avx",)}


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.partition(":")[2].split())
    except OSError:
        pass
    return set()


def _pytest_under(kernel: str, *args: str) -> None:
    """Run pytest on args in a subprocess under the named OpenBLAS kernel,
    skipping when the CPU or the BLAS cannot run that kernel."""
    missing = [f for f in KERNELS[kernel] if f not in _cpu_flags()]
    if missing:
        pytest.skip(f"CPU lacks {', '.join(missing)} for the {kernel} kernel")
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    corename = subprocess.run([sys.executable, blas_kernel.__file__], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=60).stdout.strip()
    if corename != kernel:
        pytest.skip(f"OpenBLAS reports kernel {corename or 'unknown'!r}, "
                    f"not {kernel!r}")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_env_kernel_matches_reference_under_openblas_kernel(kernel):
    _pytest_under(kernel, "tests/test_env_kernel.py")


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_cem_matches_old_expressions_under_openblas_kernel(kernel):
    _pytest_under(kernel, "tests/test_cem.py", "-k", "matches_old_expression_bytewise")
