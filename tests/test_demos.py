"""Each demo script runs to completion in a fresh interpreter.

The demos exercise the public API end to end, so an export or signature
that they rely on cannot disappear unnoticed; and every export must be
used by the package itself or by a demo, so the surface cannot regrow.
Nor can a dead definition: every top-level name of the package must be
read by the package, a demo or the benchmark's tracer, and every name a
module imports must be read by that module.  Nor can an option
nobody sets: every defaulted parameter of the fitting modules must be
passed by some call of the package, a demo or the benchmark.
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


def _loaded_names(path):
    """Names a source file reads, as variables or as attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def _defined_names(path):
    """Top-level functions, classes and assigned names of a source file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_top_level_definition_is_read():
    # the benchmark's tracer binds some functions by name from outside the
    # package; its TARGETS are (module, "name" or "Class.method", layer)
    root = Path(__file__).parents[1]
    tracing = ast.parse((root / "perfbench" / "tracing.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tracing.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    traced = {attribute.split(".")[0] for _, attribute, _ in targets}
    package = sorted(Path(rfcpca.__file__).parent.glob("*.py"))
    loaded = set().union(*(_loaded_names(f) for f in package + DEMOS))
    dead = [f"{f.name}:{name}" for f in package for name in _defined_names(f)
            if name not in loaded | traced | {"__all__", "__version__"}]
    assert dead == []


def _imported_names(path):
    """Names a source file binds by ``import`` or ``from ... import``, apart
    from ``from __future__`` features."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_import_is_read():
    # an import the module never reads is dead; __init__.py imports to
    # re-export, so it is exempt
    package = sorted(f for f in Path(rfcpca.__file__).parent.glob("*.py")
                     if f.name != "__init__.py")
    dead = []
    for f in package:
        read = {node.id for node in ast.walk(ast.parse(f.read_text()))
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        dead += [f"{f.name}:{name}" for name in _imported_names(f) if name not in read]
    assert dead == []


def _dotted(node):
    """``a.b.c`` for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _random_uses(path):
    """``(line, name)`` of every call under ``np.random`` / ``numpy.random``
    and every import of either or of the standard library's ``random``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            names = [_dotted(node.func) or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "random" or parts[:2] in (["np", "random"], ["numpy", "random"]):
                yield node.lineno, name


def test_randomness_comes_from_rng_only():
    # every seeded stream is made in rng.py, so the same seed gives the same
    # bytes; elsewhere np.random may name a type in an annotation, but no
    # module may call into it or import it or the standard library's random
    package = Path(rfcpca.__file__).parent
    stray = [f"{f.name}:{line}:{name}" for f in sorted(package.glob("*.py"))
             if f.name != "rng.py" for line, name in _random_uses(f)]
    assert stray == []


# the makers of processes (a process pool, a multiprocessing context, a
# process) and of threads, by the last part of their names
_PROCESS_MAKERS = {"ProcessPoolExecutor", "Pool", "get_context", "Process", "fork"}
_THREAD_MAKERS = {"Thread", "ThreadPoolExecutor", "Timer", "start_new_thread"}


def _maker_uses(path, makers):
    """``(line, name)`` of every call of one of ``makers`` in a source file,
    and of every import of one under another name."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            names = [_dotted(node.func) or ""]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names if alias.asname]
        else:
            continue
        for name in names:
            if name.split(".")[-1] in makers:
                yield node.lineno, name


def test_threads_and_pools_have_one_home():
    # a pool forks only from a process that runs one thread (see
    # dataset._fork_pool_workers): only dataset.py makes processes, and only
    # it and cli.py, which ends its hash thread before it fits, start threads
    package = Path(rfcpca.__file__).parent
    files = sorted(package.glob("*.py"))
    stray = [f"{f.name}:{line}:{name}" for f in files if f.name != "dataset.py"
             for line, name in _maker_uses(f, _PROCESS_MAKERS)]
    stray += [f"{f.name}:{line}:{name}" for f in files if f.name not in ("dataset.py", "cli.py")
              for line, name in _maker_uses(f, _THREAD_MAKERS)]
    assert stray == []


def _defaulted_parameters(path):
    """``(function, parameter, position or None)`` of every parameter with a
    default of every function defined in a source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for k in range(first, len(positional)):
                yield node.name, positional[k].arg, k
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def _passed_parameters(path):
    """``(callee name, keyword)`` and ``(callee name, position)`` of every
    argument a source file's calls pass; a call that unpacks ``*args`` or
    ``**kwargs`` passes every position or keyword (``"*"``, ``"**"``)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            for k, arg in enumerate(node.args):
                yield callee, "*" if isinstance(arg, ast.Starred) else k
            for keyword in node.keywords:
                yield callee, "**" if keyword.arg is None else keyword.arg


def test_every_defaulted_parameter_is_passed():
    # a default no caller overrides is a constant, not an option; tests do
    # not count as callers.  Every module is in scope except experiments.py,
    # whose run_benchmark keeps n_per_group and workers for library callers
    root = Path(__file__).parents[1]
    package = Path(rfcpca.__file__).parent
    callers = sorted(package.glob("*.py")) + DEMOS + sorted((root / "perfbench").glob("*.py"))
    passed = set().union(*(set(_passed_parameters(f)) for f in callers))
    scope = [f for f in sorted(package.glob("*.py")) if f.name != "experiments.py"]
    unused = [f"{f.name}:{function}({name})" for f in scope
              for function, name, k in _defaulted_parameters(f)
              if not {(function, name), (function, "**")} & passed
              and (k is None or not {(function, k), (function, "*")} & passed)]
    assert unused == []
