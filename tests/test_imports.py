"""Every ``repro.*`` module imports on its own, in a fresh interpreter.

The test suite's own imports warm ``sys.modules`` in one fixed order, so
an import cycle between packages can stay hidden from every other test:
it only bites a program whose first import happens to enter the cycle
at the wrong module.  Each module here is imported first thing in a new
subprocess.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _module_names() -> list[str]:
    return sorted(info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."))


@pytest.mark.parametrize("module", _module_names())
def test_module_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
