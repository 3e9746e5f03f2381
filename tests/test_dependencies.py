"""The runtime dependencies are numpy and the standard library.

``pyproject.toml`` lists numpy alone; scipy is a test dependency, the
oracle the simulator's filters are checked against.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import rfcpca

PACKAGE = Path(rfcpca.__file__).parent


def test_every_import_of_the_package_is_stdlib_numpy_or_its_own():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in (*sys.stdlib_module_names,
                                                      "numpy", "rfcpca")]
    assert foreign == []


def test_simulating_and_a_replication_load_no_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "burst", "n_per_group": 3, "channels": 8,
                                  "length": 150, "rho": 0.34, "seed": 1}))
    script = (
        "import sys\n"
        "from rfcpca.cli import main\n"
        "from rfcpca.experiments import benchmark_replication\n"
        f"assert main(['simulate', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'data')!r}]) == 0\n"
        "benchmark_replication('burst', p=8, t_spec=128, seed=1, n_per_group=3)\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
