from dataclasses import fields

import pytest

from spgs.config import (
    _SCHEMA,
    ConfigError,
    RunConfig,
    apply_env_overrides,
    parse_config,
    render_config,
)


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()


def test_render_default_config_text():
    assert render_config(RunConfig()) == (
        "[nonlinearity]\nmu = 1.0\nq = 4.0\ncritical_weight = 0.0\n\n"
        "[grid]\nR = 30.0\nn = 3000\n\n"
        "[solver]\ntol = 1e-08\n\n"
        "[schedule]\nlambdas = 0.2, 0.1, 0.05, 0.02, 0.01, 0.005\n\n"
        "[output]\ndirectory = out\nemit_profiles = False\nseed = 12345\n")


def test_full_round_trip():
    cfg = RunConfig(mu=2.5, q=3.2, critical_weight=0.4, R=25.0, n=2048,
                    tol=1e-7, lambdas=(0.3, 0.1, 0.02),
                    directory="results", emit_profiles=True, seed=7)
    assert parse_config(render_config(cfg)) == cfg


def test_schema_covers_every_field():
    assert {f.name for f in fields(RunConfig)} == {attr for attr, _ in _SCHEMA.values()}


def test_parse_sections_and_comments():
    cfg = parse_config("""
# model setup
[nonlinearity]
mu = 2.0   # coupling strength of the subcritical term
q = 3.5

[grid]
n = 500
""")
    assert cfg.mu == 2.0
    assert cfg.q == 3.5
    assert cfg.n == 500
    assert cfg.R == 30.0  # untouched default


def test_unknown_section_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[physics]\nmu = 1.0\n")
    assert "physics" in str(err.value)
    assert err.value.line == 1


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\nspacing = 0.1\n")
    assert "spacing" in str(err.value)
    assert err.value.line == 2


@pytest.mark.parametrize("key", ["max_iter = 80", "damping_floor = 1e-4", "clip_budget = 1e-8"])
def test_newton_loop_limits_are_not_settable(key):
    with pytest.raises(ConfigError, match="unknown key") as err:
        parse_config(f"[solver]\n{key}\n")
    assert err.value.line == 2


def test_key_outside_section():
    with pytest.raises(ConfigError):
        parse_config("mu = 1.0\n")


def test_bad_value_diagnostic():
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\nn = many\n")
    assert err.value.line == 2


def test_validation_q_range():
    with pytest.raises(ConfigError) as err:
        parse_config("[nonlinearity]\nq = 6.0\n")
    assert "(2, 6)" in str(err.value)


def test_validation_schedule_ordering():
    with pytest.raises(ConfigError):
        parse_config("[schedule]\nlambdas = 0.1, 0.2\n")
    with pytest.raises(ConfigError):
        parse_config("[schedule]\nlambdas = 0.1, -0.05\n")


# every float key, and each entry of the schedule, must be finite
NON_FINITE = [
    ("grid", "R", "inf"),
    ("schedule", "lambdas", "inf, 0.1"),
    ("schedule", "lambdas", "0.2, nan"),
    ("nonlinearity", "mu", "inf"),
    ("solver", "tol", "inf"),
]


@pytest.mark.parametrize("section,key,value", NON_FINITE)
def test_non_finite_value_is_rejected(section, key, value):
    with pytest.raises(ConfigError, match=f"{section}.{key}.*not a finite number") as err:
        parse_config(f"[{section}]\n{key} = {value}\n")
    assert err.value.line == 2
    name = f"SPGS_{section.upper()}_{key.upper()}"
    with pytest.raises(ConfigError, match=f"{name}.*not a finite number"):
        apply_env_overrides(RunConfig(), environ={name: value})


def test_env_overrides():
    cfg = apply_env_overrides(RunConfig(), environ={"SPGS_GRID_N": "777",
                                                    "SPGS_NONLINEARITY_MU": "3.5"})
    assert cfg.n == 777
    assert cfg.mu == 3.5


def test_env_override_bad_value():
    with pytest.raises(ConfigError):
        apply_env_overrides(RunConfig(), environ={"SPGS_GRID_N": "many"})


def test_env_override_validated():
    with pytest.raises(ConfigError):
        apply_env_overrides(RunConfig(), environ={"SPGS_NONLINEARITY_Q": "9.0"})


def test_negative_seed_is_rejected():
    # the checks' Mersenne Twister would seed from |seed| and alias -1 to 1
    with pytest.raises(ConfigError, match="output seed = -1 must be nonnegative"):
        parse_config("[output]\nseed = -1\n")
    with pytest.raises(ConfigError, match="output seed = -3"):
        apply_env_overrides(RunConfig(), environ={"SPGS_OUTPUT_SEED": "-3"})
    assert parse_config("[output]\nseed = 0\n").seed == 0


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=50, deadline=None)
    @given(
        mu=st.floats(1e-3, 1e3),
        q=st.floats(2.01, 5.99),
        cw=st.floats(0.0, 1.0),
        R=st.floats(1.0, 100.0),
        n=st.integers(16, 10000),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_round_trip_property(mu, q, cw, R, n, seed):
        cfg = RunConfig(mu=mu, q=q, critical_weight=cw, R=R, n=n, seed=seed)
        assert parse_config(render_config(cfg)) == cfg
except ImportError:  # property test is optional
    pass
