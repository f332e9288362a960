"""Every imported name is used by the module that imports it.

The package re-exports its public names from __init__, so that module is
left out; every other package module and every test module is scanned.
"""

import ast
from pathlib import Path

import pytest

import oplu_net

PACKAGE = Path(oplu_net.__file__).parent
TESTS = Path(__file__).parent


def unused_imports(source: str) -> list:
    """Lines of `source` that import a name the module never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for line, name in imported if name not in used]


SCANNED = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py"))


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_unused_imports():
    source = (
        "import os\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .network import DenseNet, loss_value as lv, sgd_step\n"
        "np.zeros(1)\n"
        "sgd_step(DenseNet)\n"
    )
    assert unused_imports(source) == ["1: os", "3: os", "4: lv"]
