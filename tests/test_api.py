import ast
import re
import types
from pathlib import Path

import qcut

ROOT = Path(__file__).resolve().parents[1]


def test_top_level_names_are_the_documented_api():
    readme = (ROOT / "README.md").read_text()
    rows = [line for line in readme.splitlines() if re.match(r"\| `qcut\.\w+` \| `", line)]
    documented = {name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[2])}
    exported = {
        name
        for name, value in vars(qcut).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == documented


def test_every_public_module_name_is_used_in_the_package():
    # A public module-level def, class or assignment of src/qcut must be
    # loaded (as a name or an attribute) or imported by some other top-level
    # statement of the package; what only the tests reach belongs in
    # tests/oracles.py.
    uses, defined = {}, []
    for path in sorted((ROOT / "src" / "qcut").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            uses[stmt] = names
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt.name, stmt))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    defined += [
                        (path.stem, node.id, stmt)
                        for node in ast.walk(target)
                        if isinstance(node, ast.Name)
                    ]
    unused = [
        f"{module}.{name}"
        for module, name, own in defined
        if not name.startswith("_")
        and not any(name in names for stmt, names in uses.items() if stmt is not own)
    ]
    assert unused == []
