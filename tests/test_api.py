"""The package's top-level names are exactly the API the README lists."""

import re
from pathlib import Path
from types import ModuleType

import epra_kit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_match_the_readme_list():
    text = README.read_text(encoding="utf-8")
    start = text.index("\n* ", text.index("The package exports"))
    listed = set(re.findall(r"`(\w+)`", text[start:text.index("\n\n", start)]))
    exported = {name for name in dir(epra_kit) if not name.startswith("_")
                and not isinstance(getattr(epra_kit, name), ModuleType)}
    assert exported == listed
