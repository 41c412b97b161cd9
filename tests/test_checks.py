"""Every entry of the verification registry, one test each, on the default
configuration that `spgs verify` runs."""

import pytest

from spgs import checks
from spgs.config import RunConfig


@pytest.fixture(scope="module")
def ctx():
    return checks.Context(RunConfig())


@pytest.mark.parametrize("check", checks.CHECKS, ids=lambda c: c.name)
def test_check(check, ctx):
    result = check.run(ctx)
    assert result["passed"], f"{check.name}: {result['detail']}"
