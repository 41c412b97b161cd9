import sys

import numpy as np
import pytest

from spgs import RadialFunction, canonical_family, make_grid, minimize_on_M


@pytest.fixture(scope="session")
def grid30():
    """Production-resolution grid shared by the slow fixtures."""
    return make_grid(30.0, 3000)


@pytest.fixture(scope="session")
def grid12():
    return make_grid(12.0, 4000)


@pytest.fixture(scope="session")
def nl_cubic():
    return canonical_family(1.0, 4.0, 0.0)


@pytest.fixture(scope="session")
def ground_cubic(nl_cubic, grid30):
    """Limit ground state for the cubic model problem; expensive, computed once."""
    return minimize_on_M(nl_cubic, grid30)


@pytest.fixture(scope="session")
def gaussian12(grid12):
    return RadialFunction(grid12, np.exp(-grid12.nodes**2 / 2.0))


@pytest.fixture
def count_calls(monkeypatch):
    """Count the calls of a function through every spgs module that binds it."""

    def install(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "spgs" or name.startswith("spgs.")):
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        monkeypatch.setattr(mod, attr, counted)
        return calls

    return install
