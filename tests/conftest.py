"""The environment of the fresh interpreters that tests start.  Standard
library only: ``tests/test_imports.py`` and ``tests/test_golden.py`` run on
the package's runtime dependencies and pytest alone."""

import importlib.util
import os
from pathlib import Path

# what each BLAS that numpy ships with reads for its thread count
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def child_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports the package from where
    this one finds it (src/ or the install), first on ``PYTHONPATH``, with its
    stdout buffered as in a shell and no BLAS thread setting, and ``extra`` on top."""
    src = str(Path(importlib.util.find_spec("spinbus").origin).parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", *BLAS_THREAD_VARIABLES)}
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra}
