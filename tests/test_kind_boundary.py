"""Only the activations module knows the activation kinds.

Every other module under oplu_net reaches the kinds through the functions
of activations (make_activation, activate, kink_gap, ...), so none imports
PairingScheme or SCALAR_KINDS or reads a pairing's index attributes. The
package __init__ may re-export PairingScheme.
"""

import ast
from pathlib import Path

import pytest

import oplu_net

PACKAGE = Path(oplu_net.__file__).parent
KIND_NAMES = {"PairingScheme", "SCALAR_KINDS"}
PAIRING_ATTRIBUTES = {"_first", "_second", "_members"}
RE_EXPORTS = {"__init__.py": {"PairingScheme"}}


def kind_knowledge(path: Path) -> list:
    """Lines of `path` that import a kind name or read a kind attribute."""
    allowed = RE_EXPORTS.get(path.name, set())
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            found += [f"{node.lineno}: imports {n}" for n in sorted(names & KIND_NAMES - allowed)]
        elif isinstance(node, ast.Attribute) and node.attr in KIND_NAMES | PAIRING_ATTRIBUTES:
            found.append(f"{node.lineno}: reads .{node.attr}")
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "activations.py"),
    ids=lambda p: p.name,
)
def test_module_leaves_kinds_to_activations(path):
    assert kind_knowledge(path) == []


def test_scan_sees_the_kinds_in_activations():
    # the guard above is only as good as the scan: it must find activations' own uses
    found = kind_knowledge(PACKAGE / "activations.py")
    assert any("._members" in line for line in found)
