"""The benchmark's tracer rebinds program names by module and attribute, and
its annotations read fields of the systems and results; a refactor that drops
or renames one of them breaks the traced run."""

import importlib.util
from pathlib import Path

import pytest

from tobitiv import (
    EstimatorSpec,
    LinearIndexDist,
    NonlinearMomentSystem,
    NormalDist,
    PanelConfig,
    build_estimation_system,
    nonlinear_gmm,
    simulate,
    two_stage_least_squares,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
N_HOOKS = 17


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_resolves_and_unwraps():
    tracing = load_tracing()
    tracer = tracing.Tracer(enabled=False)
    try:
        tracing.instrument_program(tracer)  # getattr raises for a name that is gone
        hooks = list(tracer._originals)
        assert len(hooks) == N_HOOKS
        for module, attr, original in hooks:
            assert getattr(module, attr).__wrapped__ is original
    finally:
        tracer.unwrap_all()
    for module, attr, original in hooks:
        assert getattr(module, attr) is original


def stacked_nonstationary():
    """A T = 3 NonStationary system with two orders: six instrument blocks."""
    config = PanelConfig(
        variant="NonStationary", n_individuals=400, n_periods=3, n_regressors=1,
        beta=(1.0,), error_cov=((0.5, 0.2, 0.0), (0.2, 0.5, 0.2), (0.0, 0.2, 0.5)),
        seed=3, fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 1.0),
    )
    spec = EstimatorSpec(orders=((1, 1), (2, 1)))
    return config, spec


def factor_loading():
    config = PanelConfig(
        variant="FactorLoading", n_individuals=1000, n_periods=2, n_regressors=1,
        beta=(1.0,), error_cov=((0.25, 0.0), (0.0, 0.25)), factor_loadings=(1.0, 1.5),
        seed=4, fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 2.0),
    )
    return config, EstimatorSpec(instruments="products")


@pytest.mark.parametrize("case", [stacked_nonstationary, factor_loading])
def test_annotations_count_every_instrument_block(case):
    """The tracer reads `instruments.shape[1]`; for a stacked system that is
    the dense view, whose width is the sum of the block widths."""
    tracing = load_tracing()
    config, spec = case()
    dataset = simulate(config)
    system = build_estimation_system(dataset, config, spec)
    if isinstance(system, NonlinearMomentSystem):
        blocks, result = [system.instruments], nonlinear_gmm(system)
    else:
        blocks, result = system.instrument_blocks, two_stage_least_squares(system)
    assert len(blocks) == (6 if case is stacked_nonstationary else 1)
    width = sum(Z.shape[1] for Z in blocks)
    built = tracing._build_attrs((dataset, config, spec), system)
    solved = tracing._solve_attrs((system,), result)
    assert built["cols"] == solved["q"] == width
    assert built["rows"] == solved["n"] == system.n_rows
    assert solved["j_dof"] == result.j_dof
