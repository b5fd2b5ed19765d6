import re
import types
from pathlib import Path

import qcut


def test_top_level_names_are_the_documented_api():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line for line in readme.splitlines() if re.match(r"\| `qcut\.\w+` \| `", line)]
    documented = {name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[2])}
    exported = {
        name
        for name, value in vars(qcut).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == documented
