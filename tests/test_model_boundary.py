"""Code outside the model modules handles "a model" through its interface.

DenseNet and Srn share loss, forward, gradients, delta_norms,
delta_norms_row_bytes, kink_gap and named_parameters, so no module asks
which kind of model it holds. The
exception is checkpoint, whose per-kind header is the file format. The
diagnostics certify the models through that interface alone, so they
import no private name of network or recurrent.
"""

import ast
from pathlib import Path

import pytest

import oplu_net

PACKAGE = Path(oplu_net.__file__).parent
MODEL_NAMES = {"Srn", "DenseNet"}
MODEL_MODULES = {"network", "recurrent"}
KIND_DISPATCH = {"checkpoint.py"}


def model_dispatch(source: str) -> list:
    """Lines of `source` that call isinstance with a model class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
            found += [f"{node.lineno}: isinstance with {n}" for n in sorted(names & MODEL_NAMES)]
    return found


def private_model_imports(source: str) -> list:
    """Lines of `source` that import a _-prefixed name from a model module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(".", 1)[-1] in MODEL_MODULES:
            found += [f"{node.lineno}: imports {a.name}" for a in node.names if a.name.startswith("_")]
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name not in KIND_DISPATCH),
    ids=lambda p: p.name,
)
def test_module_does_not_dispatch_on_model_kind(path):
    assert model_dispatch(path.read_text()) == []


def test_diagnostics_uses_only_the_public_model_interface():
    assert private_model_imports((PACKAGE / "diagnostics.py").read_text()) == []


def test_scans_see_the_dispatch_and_imports_they_guard():
    # the guards above are only as good as the scans
    found = model_dispatch((PACKAGE / "checkpoint.py").read_text())
    assert any("Srn" in line for line in found) and any("DenseNet" in line for line in found)
    assert model_dispatch("isinstance(m, (Srn, network.DenseNet))") == [
        "1: isinstance with DenseNet", "1: isinstance with Srn"]
    source = "from .network import DenseNet\nfrom .recurrent import Srn, _bptt_batch\n"
    assert private_model_imports(source) == ["2: imports _bptt_batch"]
