"""The README's stated model format, architecture and layout match the code."""

import re
from pathlib import Path

from mwetag.autodiff import DROPOUT, RECURRENT_DROPOUT
from mwetag.serialize import FORMAT_VERSION
from mwetag.tagger import FILTER_WIDTHS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_format_version_matches_serialize():
    stated = re.findall(r"format\s+version\s+(\d+)", README)
    assert stated and {int(v) for v in stated} == {FORMAT_VERSION}


def test_readme_filter_widths_match_tagger():
    stated = re.findall(r"widths\s+(\d+)\s+and\s+(\d+)", README)
    assert stated and {tuple(map(int, w)) for w in stated} == {FILTER_WIDTHS}


def test_readme_dropout_rates_match_autodiff():
    stated = re.findall(r"([\d.]+)\s+on\s+its\s+input,\s+([\d.]+)\s+on\s+the\s+"
                        r"recurrent\s+state", README)
    assert stated and {tuple(map(float, r)) for r in stated} == {(DROPOUT, RECURRENT_DROPOUT)}


def test_readme_layout_names_every_module():
    layout = README.split("## Layout", 1)[1].split("```")[1]
    named = set(re.findall(r"^  (\S+\.py)\s", layout, re.M))
    modules = {path.name for path in (ROOT / "src" / "mwetag").glob("*.py")}
    assert named == modules - {"__init__.py"}
