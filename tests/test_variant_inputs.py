"""Property test: no model variant silently ignores an input. A config that
differs from a valid one in a single field either fails validation naming that
field or changes what the variant produces: the simulated y or x for a panel
field, and the built system's dependent values, parameters or instrument
blocks for an estimator field. Panels stay small (N = 40) so that the whole
grid runs in about a second.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from tobitiv import (
    ConfigurationError,
    EstimatorSpec,
    LinearIndexDist,
    LogNormalDist,
    NonlinearMomentSystem,
    NormalDist,
    PanelConfig,
    ShiftedHalfNormalDist,
    build_estimation_system,
    simulate,
)
from tobitiv.simulate import ModelVariant, Sampling

T = 4
PANEL_FIELDS = {f.name for f in fields(PanelConfig)}


def base_config(variant: ModelVariant) -> PanelConfig:
    """A valid panel of the variant: VarianceFE errors have unit variance, and a
    CrossSection panel, which draws no individual effect, keeps the default fe_dist."""
    extra = {
        ModelVariant.CROSS_SECTION: {"fe_dist": LinearIndexDist()},
        ModelVariant.FACTOR_LOADING: {"factor_loadings": (1.0, 1.5, 2.0, 2.5)},
        ModelVariant.VARIANCE_FE: {"variance_fe_dist": ShiftedHalfNormalDist(0.5, 0.5),
                                   "error_cov": np.eye(T)},
        ModelVariant.ADDITIVE_VARIANCE: {"variance_fe_dist": ShiftedHalfNormalDist(0.5, 0.5)},
        ModelVariant.SLOPE_FE: {"z_dist": LogNormalDist(0.0, 0.25)},
    }.get(variant, {})
    return PanelConfig(**{
        "variant": variant, "n_individuals": 40, "n_periods": T, "n_regressors": 2,
        "beta": (1.0, 0.5), "error_cov": np.diag([0.25, 0.375, 0.5, 0.625]), "seed": 3,
        "fe_dist": LinearIndexDist(1.0, 0.5), "x_dist": NormalDist(1.0, 1.0), **extra})


def moved(cov, i, j, delta):
    """`cov` with entries (i, j) and (j, i) moved by `delta`."""
    cov = np.array(cov)
    cov[i, j] += delta
    cov[j, i] = cov[i, j]
    return cov


# Each single-field change: the field, and the new value given the base config.
CHANGES = {
    "beta": ("beta", lambda c: (c.beta[0] + 0.5, *c.beta[1:])),
    "error_cov-diagonal": ("error_cov", lambda c: moved(c.error_cov, 1, 1, 0.25)),
    "error_cov-off_diagonal": ("error_cov", lambda c: moved(c.error_cov, 0, 1, 0.1)),
    "seed": ("seed", lambda c: c.seed + 1),
    "sampling": ("sampling", lambda c: Sampling.TRUNCATED),
    "fe_dist": ("fe_dist", lambda c: LinearIndexDist(2.0, 0.7)),
    "x_dist": ("x_dist", lambda c: NormalDist(1.5, 1.0)),
    "factor_loadings": ("factor_loadings", lambda c: (1.0, 2.0, 2.0, 2.5)),
    "z_dist": ("z_dist", lambda c: LogNormalDist(0.1, 0.25)),
    "variance_fe_dist": ("variance_fe_dist", lambda c: ShiftedHalfNormalDist(0.75, 0.5)),
    "pairs": ("pairs", lambda c: [(2, 0)]),
    "triple": ("triple", lambda c: (1, 2, 3)),
    "orders": ("orders", lambda c: ((2, 1),)),
    "instruments": ("instruments", lambda c: "levels_squares"),
    "cross_section_order": ("cross_section_order", lambda c: 2),
}


def outputs(config: PanelConfig, spec: EstimatorSpec, panel_field: bool) -> list:
    """The panel's y and x, or the built system's dependent values (a
    FactorLoading system's at r = 1), parameters and instrument blocks."""
    dataset = simulate(config)
    if panel_field:
        return [dataset.y, dataset.x]
    system = build_estimation_system(dataset, config, spec)
    if isinstance(system, NonlinearMomentSystem):
        return [system.linear_parts(1.0)[0], system.params, system.instruments]
    return [system.dependent, system.params, *system.instrument_blocks]


@pytest.mark.parametrize("change", list(CHANGES))
@pytest.mark.parametrize("variant", list(ModelVariant), ids=[v.value for v in ModelVariant])
def test_no_single_input_is_silently_ignored(variant, change):
    field, value = CHANGES[change]
    config, spec = base_config(variant), EstimatorSpec()
    config.validate()
    spec.validate(config)
    panel_field = field in PANEL_FIELDS
    new_config = replace(config, **{field: value(config)}) if panel_field else config
    new_spec = spec if panel_field else replace(spec, **{field: value(config)})
    try:
        new_config.validate()
        new_spec.validate(new_config)
    except ConfigurationError as exc:
        assert exc.field == field
        return
    before, after = outputs(config, spec, panel_field), outputs(new_config, new_spec,
                                                                panel_field)
    assert len(before) != len(after) or not all(map(np.array_equal, before, after))
