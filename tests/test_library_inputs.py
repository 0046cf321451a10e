"""Property test: the library fails as the CLI does. A panel config or an
estimator spec with one field replaced by a JSON-like value is constructed,
validated and run through a 2-replication study at N = 200. Either the study
runs, or a TobitIVError is raised; a ConfigurationError names the replaced
field, or a dotted field under it. A count of periods or regressors may
instead name the field that must agree with it. No other exception escapes,
and a panel array that validates was given as a list (of lists) of numbers.
"""

import sys
from dataclasses import fields, replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from test_variant_inputs import base_config
from tobitiv import ConfigurationError, EstimatorSpec, PanelConfig, TobitIVError, run_study
from tobitiv.simulate import ModelVariant

PANEL_FIELDS = [f.name for f in fields(PanelConfig)]
SPEC_FIELDS = [f.name for f in fields(EstimatorSpec)]

# The fields whose length a count must agree with; a bad count may be named by them.
AGREES_WITH = {"n_periods": ("error_cov", "factor_loadings", "pairs", "triple"),
               "n_regressors": ("beta",)}

# The panel's array fields, each with its depth of nesting.
ARRAYS = {"beta": 1, "error_cov": 2, "factor_loadings": 1}

SMALL_INTS = st.integers(-2, 6)
DIGITS = st.sampled_from(["1", "15", "10", "01"])
JSON_LIKE = st.one_of(
    st.none(), st.booleans(), SMALL_INTS, st.just(2**70), st.floats(), st.text(max_size=3),
    DIGITS, st.lists(SMALL_INTS, max_size=3), st.lists(st.booleans(), max_size=3),
    st.lists(DIGITS, max_size=4), st.lists(st.lists(SMALL_INTS, max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), SMALL_INTS, max_size=2),
)


def is_array(value, depth: int) -> bool:
    """True for a list (of lists, to `depth`) of numbers that are finite as floats."""
    if depth == 0:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return isinstance(value, (list, tuple)) and all(is_array(v, depth - 1) for v in value)


def assert_names(exc: ConfigurationError, name: str) -> None:
    assert exc.field is not None, exc
    assert exc.field.split(".")[0] in (name, *AGREES_WITH.get(name, ())), (exc.field, exc)


@pytest.mark.parametrize("name", PANEL_FIELDS + SPEC_FIELDS)
@given(variant=st.sampled_from(list(ModelVariant)), value=JSON_LIKE)
@example(variant=ModelVariant.INDEPENDENT_ERRORS, value=5)
@example(variant=ModelVariant.NON_STATIONARY, value=5)
@example(variant=ModelVariant.NON_STATIONARY, value=None)
# Each read as a panel of the base's shape (T = 4, K = 2): "15" as (1.0, 5.0), a
# boolean as 0.0 or 1.0, a digit string as its digits.
@example(variant=ModelVariant.FACTOR_LOADING, value="15")
@example(variant=ModelVariant.FACTOR_LOADING, value="1523")
@example(variant=ModelVariant.NON_STATIONARY, value=[True, False])
@example(variant=ModelVariant.NON_STATIONARY, value=["1", "5"])
@example(variant=ModelVariant.NON_STATIONARY, value=["1000", "0100", "0010", "0001"])
def test_one_bad_field_runs_or_names_itself(name, variant, value):
    config, spec = replace(base_config(variant), n_individuals=200), EstimatorSpec()
    try:
        if name in PANEL_FIELDS:
            config = replace(config, **{name: value})
        else:
            spec = replace(spec, **{name: value})
        config.validate()
        if name in ARRAYS and not (name == "factor_loadings" and value is None):
            assert is_array(value, ARRAYS[name]), (name, value)
        spec.validate(config)
        run_study(config, spec, 2, master_seed=1)
    except ConfigurationError as exc:
        assert_names(exc, name)
    except TobitIVError:
        pass


@pytest.mark.parametrize("name, value", [
    *((name, value) for name in ("config", "spec") for value in (None, {}, "NonStationary")),
    # run_replication, which takes only checked inputs, raises LinAlgError or a bare
    # ValueError on the first three and runs the last two.
    ("error_cov", ((1.0, 2.0, 0.0, 0.0), (2.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
                   (0.0, 0.0, 0.0, 1.0))),
    ("beta", (1.0, 0.5, 2.0)),
    ("n_individuals", 0),
    ("orders", ((9, 9),)),
    ("triple", (0, 1)),
])
def test_run_study_names_the_input_it_rejects(name, value):
    """A config or spec of another type, or a NonStationary one with one field at fault."""
    config, spec = base_config(ModelVariant.NON_STATIONARY), EstimatorSpec()
    inputs = {"config": config, "spec": spec, name: value}
    if name in PANEL_FIELDS:
        inputs["config"] = replace(config, **{name: value})
    if name in SPEC_FIELDS:
        inputs["spec"] = replace(spec, **{name: value})
    with pytest.raises(ConfigurationError) as exc:
        run_study(inputs["config"], inputs["spec"], 2, master_seed=1)
    assert exc.value.field == name
