"""The README's stated model format and architecture match the code."""

import re
from pathlib import Path

from mwetag.autodiff import DROPOUT, RECURRENT_DROPOUT
from mwetag.serialize import FORMAT_VERSION
from mwetag.tagger import FILTER_WIDTHS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


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
