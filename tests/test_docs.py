"""The README names only functions the package exports."""

import re
from pathlib import Path

import homdeg

README = Path(__file__).resolve().parent.parent / "README.md"


def _key_entry_points():
    text = README.read_text()
    start = text.index("Key entry points:")
    paragraph = text[start : text.index("\n\n", start)]
    return re.findall(r"`([^`]+)`", paragraph)


def test_readme_key_entry_points_are_exported():
    names = _key_entry_points()
    assert len(names) >= 10
    missing = [name for name in names if not hasattr(homdeg, name)]
    assert not missing, f"README names functions homdeg does not export: {missing}"
