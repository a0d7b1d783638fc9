"""README's environment table lists exactly the variables the code reads.

Every ``REPRO_*`` name under ``src/`` is a setting a user can change and
a reader must be able to look up; a row for a variable no code reads
documents a setting that does nothing. Builds no world.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"REPRO_[A-Z_]+")


def _names_in_src() -> set[str]:
    return {
        name
        for path in (ROOT / "src").rglob("*.py")
        for name in NAME.findall(path.read_text())
    }


def _names_in_readme_table() -> set[str]:
    text = (ROOT / "README.md").read_text()
    table = text.split("### Environment variables", 1)[1].split("\n#", 1)[0]
    return {
        match.group(1)
        for match in re.finditer(r"^\| `(REPRO_[A-Z_]+)` \|", table, re.MULTILINE)
    }


def test_readme_environment_table_matches_src():
    in_src = _names_in_src()
    assert in_src, "no REPRO_* variable found under src/"
    assert _names_in_readme_table() == in_src
