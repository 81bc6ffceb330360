"""``run_child``: test code run by a fresh interpreter, for what one process
shows only once (the modules an import loads, the LAPACK bound on the first
solve, the memory a command leaves resident, a cap on the address space)."""

import os
import subprocess
import sys
from pathlib import Path

import gridloss

SRC = str(Path(gridloss.__file__).resolve().parents[1])


def run_child(code: str, *argv: str, address_space: int | None = None) -> subprocess.CompletedProcess:
    """The finished ``python -c code *argv``, run with this checkout's
    gridloss first on the import path and one BLAS thread, so that numpy's
    own buffers and a blocked product's bits do not depend on the host's
    core count.  Given ``address_space`` (bytes), the child caps its own
    there first, so a step that allocates by a huge count fails at once.
    The test fails unless the child exits 0; its stderr is the message."""
    if address_space is not None:
        code = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space}))\n{code}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out
