"""Shared fixtures: catalog models and seeded random point generators."""

from __future__ import annotations

import numpy as np
import pytest

from gacount import geometry
from gacount.acceptance import _random_interior as random_interior  # noqa: F401
from gacount.acceptance import _random_point as random_point  # noqa: F401

ALL_MODEL_IDS = list(geometry.MODEL_IDS)


@pytest.fixture(params=ALL_MODEL_IDS)
def model(request):
    return geometry.load_model(request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(91604)


def closed_form_point_count(model, p: int) -> int:
    """#X(F_p): (p^(n+1) - 1)/(p - 1) on P^n, p^2 + (r+1) p + 1 on BlP2-r."""
    if not model.centers:
        return (p ** (model.dim + 1) - 1) // (p - 1)
    return p * p + (len(model.centers) + 1) * p + 1
