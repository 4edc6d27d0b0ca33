"""Code outside the package that calls it: the README's examples and the
benchmark's imports must keep working."""

import ast
import importlib
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench_imports():
    """(file, module, name) for every ``import trfield...`` (name None) and
    every ``from trfield... import name`` in perfbench/*.py, top-level or
    inside a function."""
    folder = os.path.join(ROOT, "perfbench")
    for file in sorted(os.listdir(folder)):
        if not file.endswith(".py"):
            continue
        with open(os.path.join(folder, file)) as fh:
            tree = ast.parse(fh.read(), file)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "trfield":
                        yield file, alias.name, None
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "trfield":
                for alias in node.names:
                    yield file, node.module, alias.name


def _resolves(module, name):
    """Whether ``import module`` works and, given a name, ``from module
    import name`` does too (an attribute or a submodule)."""
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_perfbench_imports_resolve():
    # tier-1 does not run perfbench's own tests, which would catch these
    imports = list(_perfbench_imports())
    assert ("checks.py", "trfield.covariance", "itofbf_variance") in imports
    missing = [f"{file}: {module} {name or ''}"
               for file, module, name in imports
               if not _resolves(module, name)]
    assert not missing


def _readme_python_blocks():
    with open(os.path.join(ROOT, "README.md")) as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)


def test_readme_python_blocks_run(capsys):
    blocks = _readme_python_blocks()
    assert len(blocks) == 3
    scope = {}
    for block in blocks:            # later blocks use earlier names
        exec(compile(block, "README.md", "exec"), scope)
    assert "[[" in capsys.readouterr().out
    assert scope["draw"].values.shape == (256, 1)
    assert scope["real"].values.shape == (81, 1)
