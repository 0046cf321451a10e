"""The factor-loading search's screen changes no output: every fit, error and written
result is the same, bit for bit, with the screen on and with SCREEN = inf, which makes
every comparison exact and so is the search without a screen."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tobitiv import build_factor_loading, gmm, save_dataset
from tobitiv.cli import main
from tobitiv.montecarlo import run_replication

from test_acceptance import _consistency_configs
from test_gmm import factor_loading_panel


def both_ways(fit):
    """fit() with the screen on, then with every comparison exact."""
    on = fit()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gmm, "SCREEN", math.inf)
        return on, fit()


def outcome(system):
    """nonlinear_gmm's written fields, or its error's type and message."""
    try:
        return gmm.nonlinear_gmm(system).to_dict()
    except Exception as exc:  # the error is the outcome
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("n, instruments", [
    (1000, None), (4000, None), (16000, None), (4000, "levels_squares"),
])
def test_criterion_5_replications_bit_identical(n, instruments):
    cfg, spec = _consistency_configs()["FactorLoading"]
    cfg = replace(cfg, n_individuals=n)
    spec = replace(spec, instruments=instruments or spec.instruments)
    for j in range(20):
        on, off = both_ways(lambda: run_replication(cfg, spec, j, 2026))
        assert on.error == off.error
        assert on.error is not None or on.result.to_dict() == off.result.to_dict()


@given(ratio=st.floats(0.2, 5.0), n=st.integers(300, 3000), seed=st.integers(0, 2**32 - 1),
       instruments=st.sampled_from(["levels_squares", "products"]))
def test_factor_loading_panels_bit_identical(ratio, n, seed, instruments):
    dataset, _ = factor_loading_panel((1.0, ratio), seed, n)
    system = build_factor_loading(dataset, 1, 0, instruments=instruments)
    on, off = both_ways(lambda: outcome(system))
    assert on == off


def test_singular_linear_block_same_error():
    # x_t = x_s = 0 zeroes the beta column at every r: every screen solve is singular,
    # so the grid is solved exactly and the first point raises, as without the screen.
    _, system = factor_loading_panel((1.0, 1.5), seed=16, n=2000)
    zero = np.zeros_like(system.x_t)
    on, off = both_ways(lambda: outcome(replace(system, x_t=zero, x_s=zero)))
    assert on == off == (
        "IdentificationError", "the linear block's GMM matrix at r = 0.05 is singular")


@pytest.mark.parametrize("ratio, edge", [(40.0, "20"), (1 / 40, "0.05")])
def test_minimum_at_bracket_edge_same_error(ratio, edge):
    _, system = factor_loading_panel((1.0, ratio), seed=3, n=2000)
    on, off = both_ways(lambda: outcome(system))
    assert on == off == ("BracketError", f"objective is minimized at the bracket edge r = "
                         f"{edge} of the search interval {gmm.R_BRACKET}")


def test_estimate_writes_identical_result(tmp_path):
    dataset, _ = factor_loading_panel((1.0, 1.5), seed=21, n=3000)
    save_dataset(dataset, str(tmp_path / "panel"))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"estimator": {"instruments": "products"}}))

    def estimate(out):
        assert main(["estimate", "--data", str(tmp_path / "panel"), "--config", str(spec),
                     "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out / "result.json").read_bytes()

    outs = iter(["on", "off"])
    on, off = both_ways(lambda: estimate(next(outs)))
    assert on == off
    assert json.loads(on)["iterations"] > 0
