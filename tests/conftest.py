"""Shared fixtures.

The sigma evaluator of the unit square lattice is used across files;
one session-wide instance keeps every test on the same object.
"""

import pytest

from fockpr.lattice import Lattice
from fockpr.special import SigmaEvaluator


@pytest.fixture(scope="session")
def sigma_unit() -> SigmaEvaluator:
    """Evaluator on Z + iZ."""
    return SigmaEvaluator(Lattice(1.0, 1.0j))
