"""Only network knows the losses, and only linalg builds weight matrices.

No other module compares a value with a loss name ("mse", "softmax_xent"):
they score a model through network's output_delta, loss_value, loss_rows
and random_target, passing the model's `loss`. No other module calls a
weight initializer (xavier_init, random_orthogonal*): the models draw
every weight matrix through linalg.init_weights.
"""

import ast
from pathlib import Path

import pytest

import oplu_net

PACKAGE = Path(oplu_net.__file__).parent
LOSS_NAMES = {"mse", "softmax_xent"}


def loss_comparisons(source: str) -> list:
    """Lines of `source` that compare a value with a loss name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            constants = {c.value for operand in (node.left, *node.comparators)
                         for c in ast.walk(operand) if isinstance(c, ast.Constant)}
            found += [f"{node.lineno}: compares with {n!r}" for n in sorted(constants & LOSS_NAMES)]
    return found


def initializer_calls(source: str) -> list:
    """Lines of `source` that call xavier_init or a random_orthogonal function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            if name == "xavier_init" or name.startswith("random_orthogonal"):
                found.append(f"{node.lineno}: calls {name}")
    return found


def _modules_but(owner: str) -> list:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != owner)


@pytest.mark.parametrize("path", _modules_but("network.py"), ids=lambda p: p.name)
def test_module_leaves_losses_to_network(path):
    assert loss_comparisons(path.read_text()) == []


@pytest.mark.parametrize("path", _modules_but("linalg.py"), ids=lambda p: p.name)
def test_module_leaves_weights_to_linalg(path):
    assert initializer_calls(path.read_text()) == []


def test_scans_see_the_decisions_where_they_live():
    # the guards above are only as good as the scans
    in_network = loss_comparisons((PACKAGE / "network.py").read_text())
    assert any("'mse'" in line for line in in_network)
    assert any("'softmax_xent'" in line for line in in_network)
    in_linalg = initializer_calls((PACKAGE / "linalg.py").read_text())
    assert any("xavier_init" in line for line in in_linalg)
    assert any("random_orthogonal_rect" in line for line in in_linalg)
    assert loss_comparisons('if model.loss == "mse" or kind in ("softmax_xent",):\n    pass\n') == [
        "1: compares with 'mse'", "1: compares with 'softmax_xent'"]
    assert initializer_calls("w = linalg.random_orthogonal(3, rng)\n") == [
        "1: calls random_orthogonal"]
