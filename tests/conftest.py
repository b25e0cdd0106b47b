import random
from fractions import Fraction

import pytest


def canonical_coef(c) -> bool:
    """A term coefficient's one form: an int (not a bool) when integral, else
    a Fraction with denominator > 1; never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


@pytest.fixture(autouse=True)
def _reseed_global_random():
    """Tests drawing from the module-level random stream must not depend on
    which other tests ran before them."""
    random.seed(0xC0FFEE)
