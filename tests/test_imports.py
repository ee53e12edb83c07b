"""Each skewtrain module imports on its own, in a fresh interpreter.

The package root imports nothing, so an import cycle or a missing
import in one module shows up only when that module is the first one
loaded.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import skewtrain

MODULES = sorted(m.name for m in pkgutil.iter_modules(skewtrain.__path__))


def test_every_module_is_listed():
    assert MODULES == [
        "autodiff", "cli", "data", "diagnostics", "harness", "losses", "models", "optim",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    src = str(Path(skewtrain.__path__[0]).parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", f"import skewtrain.{module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
