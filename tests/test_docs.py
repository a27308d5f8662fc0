"""The documented API: every cl.<name> that README.md and the demos use."""

from __future__ import annotations

import re
from pathlib import Path

import cmslab as cl

ROOT = Path(__file__).resolve().parents[1]


def test_every_documented_name_resolves_on_cmslab():
    sources = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
    names = {name for path in sources
             for name in re.findall(r"\bcl\.([A-Za-z_]\w*)", path.read_text())}
    assert len(names) > 20
    assert sorted(n for n in names if not hasattr(cl, n)) == []
