"""Each demo script runs to completion in a fresh interpreter.

The demos exercise the public API end to end, so an export or signature
that they rely on cannot disappear unnoticed; and every export must be
used by the package itself or by a demo, so the surface cannot regrow.
"""

import ast
import os
import subprocess
import sys
import types
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


def _referenced_names(path):
    """Names a source file uses: read, imported, or looked up as attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_is_used_by_the_package_or_a_demo():
    # a name only tests use does not belong on the public surface; a
    # definition is no use, and neither are docstrings and comments
    package = Path(rfcpca.__file__).parent
    sources = [f for f in package.glob("*.py") if f.name != "__init__.py"] + DEMOS
    used = set().union(*(_referenced_names(f) for f in sources))
    assert rfcpca.__all__
    assert [name for name in rfcpca.__all__ if name not in used] == []
    assert not [name for name in rfcpca.__all__
                if isinstance(getattr(rfcpca, name), types.ModuleType)]
