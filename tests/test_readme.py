"""The README's library example names only what the package exports."""

from __future__ import annotations

import re
from pathlib import Path

import chatpulse

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_imports_exist():
    block = re.search(r"from chatpulse import \((.*?)\)", README.read_text(), re.S)
    names = [name.strip() for name in block.group(1).split(",") if name.strip()]
    assert names
    missing = [name for name in names if not hasattr(chatpulse, name)]
    assert missing == []
