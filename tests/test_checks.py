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


def test_gradient_consistency_samples_depend_on_the_seed():
    check = next(c for c in checks.CHECKS if c.name == "functionals.gradient_consistency")
    details = [check.run(checks.Context(RunConfig(seed=seed)))["detail"] for seed in (1, 2)]
    assert details[0] != details[1]


def test_context_rng_is_fresh_and_seeded():
    ctx = checks.Context(RunConfig(seed=5))
    first = [ctx.rng().random() for _ in range(3)]
    assert first[0] == first[1] == first[2]
    assert ctx.rng().random() == checks.Context(RunConfig(seed=5)).rng().random()
    assert ctx.rng().random() != checks.Context(RunConfig(seed=6)).rng().random()
