"""The lab package sits below the serve layer.

``repro.serve`` runs flows on lab stores; an import of ``repro.serve``
from ``repro.lab`` would tie the batch machinery to the service and
close an import cycle.  The scan reads every module's source, so an
import inside a function body counts too.
"""

import ast
from pathlib import Path

import repro.lab

LAB_DIR = Path(repro.lab.__file__).parent


def imported_modules(path: Path):
    """Absolute names of every module ``path`` imports, at any depth."""
    package = ["repro", "lab"]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            module = ".".join(base + ([node.module] if node.module
                                      else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_lab_never_imports_serve():
    offenders = sorted(
        f"{path.name}: {name}"
        for path in LAB_DIR.glob("*.py")
        for name in imported_modules(path)
        if name == "repro.serve" or name.startswith("repro.serve."))
    assert offenders == []


def test_scan_resolves_relative_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f():\n    from ..serve import protocol\n"
                     "from . import cache\n")
    names = set(imported_modules(probe))
    assert "repro.serve.protocol" in names
    assert "repro.lab.cache" in names
