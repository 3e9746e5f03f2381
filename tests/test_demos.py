"""Each demo script runs to completion in a fresh interpreter.

The demos exercise the public API end to end, so an export or signature
that they rely on cannot disappear unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rfcpca

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def demo_procs():
    """All demos started at once, so that they share the cores while they run."""
    env = dict(os.environ, PYTHONPATH=str(Path(rfcpca.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    procs = {demo: subprocess.Popen([sys.executable, str(demo)], env=env, text=True,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for demo in DEMOS}
    yield procs
    for proc in procs.values():
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, demo_procs):
    proc = demo_procs[demo]
    _, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr
    assert "Traceback" not in stderr
