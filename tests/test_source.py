"""Source checks on the package's computational modules."""

from __future__ import annotations

import pathlib
import re

import pytest

import gacount

SRC = pathlib.Path(gacount.__file__).parent
# geometry, cli and acceptance turn model names into models; these modules
# take a VarietyModel and must read everything they need from its data.
COMPUTATIONAL = ("_util", "enumeration", "fourier", "heights", "tamagawa")
NAME_LOOKUP = re.compile(r"load_model\(|\[model\.id\]|model\.id\s*[!=]=")


@pytest.mark.parametrize("module", COMPUTATIONAL)
def test_no_model_resolved_by_name(module):
    path = SRC / f"{module}.py"
    hits = [f"{path.name}:{i}: {line.strip()}"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if NAME_LOOKUP.search(line)]
    assert hits == []
