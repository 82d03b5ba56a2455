import math

import numpy as np
import pytest

from trispec.isosceles import sweep

# One shared fine aperture sweep; both the monotonicity tests and the
# acceptance gate consume it, and the session scope builds it once.
MONO_GRID = np.linspace(math.pi / 6.0 + 0.004, 2.0 * math.pi / 3.0 - 0.004, 82)


@pytest.fixture(scope="session")
def fine_table():
    return sweep(MONO_GRID, 6)
