"""The package runs on the standard library alone, and the benchmark's
tracer finds every function it wraps; every cache is bounded."""
import ast
import importlib
import inspect
import sys
from pathlib import Path

from platonic import market

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "platonic"


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


def test_tracer_names_resolve_to_functions():
    """Every name in ``perfbench/tracer.py``'s ``TRACED`` is a function of
    its ``platonic`` module. The table is read from the file's source, which
    is neither imported nor changed."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    )
    missing = [
        f"{module}.{name}"
        for module, names in ast.literal_eval(table).items()
        for name in names
        if not inspect.isfunction(getattr(importlib.import_module(f"platonic.{module}"), name, None))
    ]
    assert missing == []


def test_every_cache_is_bounded(model_caches):
    """Every ``lru_cache`` function of a ``platonic`` module keeps at most
    ``market.CACHE_SIZE`` entries, so a long-lived process stays bounded."""
    assert model_caches
    sizes = {f"{cache.__module__}.{cache.__name__}": cache.cache_info().maxsize for cache in model_caches}
    assert sizes == dict.fromkeys(sizes, market.CACHE_SIZE)
