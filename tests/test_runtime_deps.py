"""The package runs on the standard library alone."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "platonic"


def test_imports_are_stdlib_or_platonic():
    """Every absolute import of every module names ``platonic`` or a module
    of the standard library; numpy or scipy being installed changes nothing."""
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "platonic" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []
