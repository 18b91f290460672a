"""The package declares its public API in one place: `mipoly.__all__`."""

import ast
import re
from pathlib import Path

import mipoly

ROOT = Path(__file__).resolve().parents[1]


def _readme_entry_points() -> list[str]:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)`:", section, re.M)


def _session_names() -> set[str]:
    """The names bench/session.py reads off the package: `api.<name>` and the
    family class names it looks up with getattr."""
    tree = ast.parse((ROOT / "bench" / "session.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "api":
            names.add(node.attr)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PARAMETER_NAMES" for t in node.targets):
            names.update(ast.literal_eval(node.value).values())
    return names


def test_all_is_the_readme_list():
    documented = _readme_entry_points()
    assert len(documented) == 8
    assert sorted(mipoly.__all__) == sorted(documented)
    for name in mipoly.__all__:
        assert hasattr(mipoly, name), name


def test_session_reads_only_exported_names():
    names = _session_names()
    assert {"system", "orthogonality_sum", "chain_verify", "Meixner"} <= names
    assert names <= set(mipoly.__all__)


def test_no_module_declares_its_own_all():
    for path in sorted((ROOT / "src" / "mipoly").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            assert "__all__" not in {getattr(t, "id", None) for t in targets}, path.name
