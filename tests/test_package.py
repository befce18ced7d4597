"""The package API: the union of the modules' ``__all__`` lists."""

import ast
from pathlib import Path

import pwmctrl

ROOT = Path(__file__).resolve().parent.parent


def names_imported_from_package(path: Path) -> set[str]:
    """Names that ``from pwmctrl import ...`` statements in ``path`` bind, submodules left out."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "pwmctrl" and not node.level:
            names.update(alias.name for alias in node.names)
    return {name for name in names if not (ROOT / "src" / "pwmctrl" / f"{name}.py").exists()}


def test_all_holds_55_unique_attributes_of_the_package():
    assert len(pwmctrl.__all__) == len(set(pwmctrl.__all__)) == 55
    for name in pwmctrl.__all__:
        assert hasattr(pwmctrl, name), name


def test_names_the_benchmark_imports_are_in_all():
    for script in ("workloads.py", "probes.py"):
        imported = names_imported_from_package(ROOT / "perfbench" / script)
        assert imported
        assert imported <= set(pwmctrl.__all__), sorted(imported - set(pwmctrl.__all__))


def test_helpers_outside_all_stay_importable_by_name():
    from pwmctrl.costmodel import default_dims, default_orders
    from pwmctrl.propagate import frobenius_distance, unitarity_defect

    for helper in (default_dims, default_orders, frobenius_distance, unitarity_defect):
        assert helper.__name__ not in pwmctrl.__all__
