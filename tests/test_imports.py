import ast
import os
import subprocess
import sys
from pathlib import Path

import hyperlim


def unused_imports(tree):
    """Names a module imports and never reads, in source order; __future__
    imports are compiler directives and never count."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(name, line) for name, line in sorted(bound, key=lambda b: b[1]) if name not in read]


def test_package_modules_read_every_name_they_import():
    # __init__.py imports to re-export, so it is the one module skipped
    files = sorted(p for p in Path(hyperlim.__file__).parent.glob("*.py") if p.name != "__init__.py")
    assert len(files) > 5
    found = {}
    for path in files:
        unused = unused_imports(ast.parse(path.read_text(), str(path)))
        if unused:
            found[path.name] = unused
    assert found == {}
    src = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom x import a, b as c\nnp.zeros(a)\n"
    assert unused_imports(ast.parse(src)) == [("os", 2), ("c", 4)]


def test_cli_start_up_loads_only_its_own_modules():
    # a fresh interpreter: the CLI's import pulls in exactly these package
    # modules, and logging only where a count searches or an experiment
    # reports
    code = "import sys, hyperlim.cli; print(sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = ast.literal_eval(out.stdout)
    assert [m for m in loaded if m.split(".")[0] == "hyperlim"] == [
        "hyperlim",
        "hyperlim.cli",
        "hyperlim.combinatorics",
        "hyperlim.hypergraph",
        "hyperlim.hypergraphon",
        "hyperlim.hyperpartition",
        "hyperlim.kernels",
        "hyperlim.rng",
    ]
    assert "logging" not in loaded
