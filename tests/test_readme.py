import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "duality_lab"


def tolerance_names():
    """(module, name) of every module-level *_TOL constant and PSD_FLOOR in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and (target.id.endswith("_TOL") or target.id == "PSD_FLOOR"):
                        yield path.stem, target.id


def test_every_tolerance_is_in_the_readme_table_with_its_value():
    # a row of the README's tolerance table opens | `module.NAME` | `value` |
    table = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("| `"):
            name, value = (cell.strip().strip("`") for cell in line.split("|")[1:3])
            table.setdefault(name, value)
    names = list(tolerance_names())
    assert ("measures", "INEQUALITY_TOL") in names and ("coherence", "PSD_FLOOR") in names
    for module, name in names:
        value = getattr(importlib.import_module(f"duality_lab.{module}"), name)
        assert f"{module}.{name}" in table, name
        assert float(table[f"{module}.{name}"]) == value, name
