"""Property tests over the public library API: a call with an argument outside
its range raises a TobitIVError subclass, naming the argument where it is a
study count or a path, or returns a result; it never raises another exception.

Covered: the moment builders (periods negative or >= T included), `run_study`
counts, sample sizes and workers, `replication_seed`, `save_dataset` /
`load_dataset` paths, and the `truncmoments` entry points. A non-number or a
boolean where the builders or `truncmoments` take a number is a DomainError,
and so is a `truncmoments` spec, query or exponent list of the wrong kind.
Panels stay small (N <= 400) so that every example runs in milliseconds.
"""

import math
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tobitiv import (
    BivariateNormalSpec,
    ConfigurationError,
    DomainError,
    EstimatorSpec,
    LinearIndexDist,
    LogNormalDist,
    MomentQuery,
    NormalDist,
    PanelConfig,
    PanelDataset,
    TobitIVError,
    UnivariateNormalSpec,
    bivariate_truncated_moment_mc,
    bivariate_truncated_moment_quad,
    build_cross_section,
    build_factor_loading,
    build_pairwise_independent,
    build_pairwise_nonstationary,
    build_pairwise_nonstationary_orders,
    build_pairwise_slope_fe,
    build_triple_additive_variance,
    build_triple_variance_fe,
    load_dataset,
    moment_identity_residual,
    quadrant_moments,
    replication_seed,
    run_study,
    save_dataset,
    simulate,
    univariate_truncated_moment,
    univariate_truncated_moment_quad,
)


def outcome(fn, *args, **kwargs):
    """fn's result, or the TobitIVError it raised; any other exception propagates."""
    try:
        return fn(*args, **kwargs)
    except TobitIVError as exc:
        return exc


# Values outside (and at the edges of) the integer ranges the API takes.
NOT_COUNTS = st.sampled_from([None, "3", 2.5, True, [], -1, 0, 10**6, 2**70])
ODD_FLOATS = st.sampled_from([-math.inf, -1e300, -50.0, -3.5, -1.0, 0.0, 1e-300, 0.5, 1.0,
                              4.0, 1e100, 1e300, math.inf, math.nan])
# Values in place of a number, which a numeric argument rejects.
NOT_NUMBERS = [None, "1", True, [0.0]]
NUMBERS_OR_NOT = st.one_of(ODD_FLOATS, st.sampled_from(NOT_NUMBERS))
# Values in place of an integer moment order, which an order argument rejects.
NOT_ORDERS = st.sampled_from([True, "1", None, 1.0])


def is_number(v):
    return type(v) in (int, float)


def is_order(v):
    return type(v) is int and v >= 1


# ---- builders ---------------------------------------------------------------

PAIR_BUILDERS = {
    "independent": lambda ds, t, s, k, m, kind: build_pairwise_independent(ds, t, s, kind),
    "nonstationary": lambda ds, t, s, k, m, kind: build_pairwise_nonstationary(
        ds, t, s, k, m, kind),
    "orders": lambda ds, t, s, k, m, kind: build_pairwise_nonstationary_orders(
        ds, t, s, [(1, 1), (k, m)], kind),
    "factor_loading": lambda ds, t, s, k, m, kind: build_factor_loading(ds, t, s, kind),
    "slope_fe": lambda ds, t, s, k, m, kind: build_pairwise_slope_fe(ds, t, s, kind),
}
TRIPLE_BUILDERS = {
    "variance_fe": build_triple_variance_fe,
    "additive_variance": build_triple_additive_variance,
}
KINDS = ["default", "levels_squares", "products", "index_proxy", "bogus"]


@st.composite
def panels(draw):
    """A small panel with some censored cells and positive z."""
    T = draw(st.integers(3, 5))
    N = draw(st.integers(5, 40))
    K = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.uniform(0.1, 3.0, (N, T))
    y[rng.random((N, T)) < 0.2] = 0.0
    return PanelDataset(y=y, x=rng.normal(size=(N, T, K)), config=None,
                        z=rng.uniform(0.5, 2.0, (N, T)))


def in_range(periods, T):
    return len(set(periods)) == len(periods) and all(0 <= p < T for p in periods)


PERIODS = st.integers(-6, 7)
TOY = PanelDataset(y=np.ones((4, 3)), x=np.ones((4, 3, 1)), config=None)


@pytest.mark.parametrize("builder", sorted(PAIR_BUILDERS))
@given(dataset=panels(), t=PERIODS, s=PERIODS, k=st.one_of(st.integers(-1, 3), NOT_ORDERS),
       m=st.one_of(st.integers(-1, 3), NOT_ORDERS), kind=st.sampled_from(KINDS))
def test_pair_builders_reject_or_build(builder, dataset, t, s, k, m, kind):
    result = outcome(PAIR_BUILDERS[builder], dataset, t, s, k, m, kind)
    bad_order = builder in ("nonstationary", "orders") and not (is_order(k) and is_order(m))
    if bad_order:
        assert isinstance(result, DomainError)
    if not in_range((t, s), dataset.n_periods):
        assert isinstance(result, DomainError)  # a bad order may be named first
        assert "periods must be" in str(result) or bad_order


@pytest.mark.parametrize("orders", [None, 5, [5], [(1,)], [(True, 1)], [("1", 1)], [(1, 0)]])
def test_bad_orders_are_a_domain_error(orders):
    # None, 5, [5] and [("1", 1)] raised a bare TypeError; [(True, 1)] ran as order 1.
    with pytest.raises(DomainError, match="orders must be"):
        build_pairwise_nonstationary_orders(TOY, 0, 1, orders)


@pytest.mark.parametrize("builder", sorted(TRIPLE_BUILDERS))
@given(dataset=panels(), periods=st.tuples(PERIODS, PERIODS, PERIODS),
       kind=st.sampled_from(KINDS))
def test_triple_builders_reject_or_build(builder, dataset, periods, kind):
    result = outcome(TRIPLE_BUILDERS[builder], dataset, *periods, instruments=kind)
    if not in_range(periods, dataset.n_periods):
        assert isinstance(result, DomainError) and "periods must be" in str(result)


@given(dataset=panels(), k=st.one_of(st.integers(-2, 4), NOT_ORDERS),
       kind=st.sampled_from(KINDS))
def test_cross_section_rejects_or_builds(dataset, k, kind):
    result = outcome(build_cross_section, dataset, k, kind)
    if not is_order(k):
        assert isinstance(result, DomainError)


@pytest.mark.parametrize("periods", [(-1, 0), (0, 5), (3, 0), (0, 0)])
def test_pair_outside_the_panel_is_a_domain_error(periods):
    # (-1, 0) used to build the pair (2, 0) and (0, 5) to raise an IndexError.
    y = np.ones((4, 3))
    dataset = PanelDataset(y=y, x=np.ones((4, 3, 1)), config=None)
    with pytest.raises(DomainError, match=r"periods must be distinct integers in \[0, 3\)"):
        build_pairwise_independent(dataset, *periods)


# ---- study ------------------------------------------------------------------

STUDY_CONFIG = PanelConfig(
    variant="IndependentErrors", n_individuals=200, n_periods=2, n_regressors=1,
    beta=(1.0,), error_cov=((0.25, 0.0), (0.0, 0.375)), seed=0,
    fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 1.0),
)
STUDY_SPEC = EstimatorSpec(instruments="levels_squares")


def valid_count(v, low):
    return isinstance(v, int) and not isinstance(v, bool) and low <= v


@settings(max_examples=40)
@given(
    replications=st.one_of(st.integers(1, 3), NOT_COUNTS),
    master_seed=st.one_of(st.integers(0, 2**70), NOT_COUNTS),
    sizes=st.one_of(st.none(), st.sampled_from(["200", 200, [], [200, 200], [-5], [0, 200],
                                                [200.0], (200, 300)]),
                    st.lists(st.integers(-5, 400), min_size=1, max_size=2)),
    # One worker: a pool is tested in test_montecarlo.py, and would start processes here.
    workers=st.one_of(st.just(1), NOT_COUNTS),
)
def test_run_study_names_the_bad_count(replications, master_seed, sizes, workers):
    result = outcome(run_study, STUDY_CONFIG, STUDY_SPEC, replications, master_seed,
                     sample_sizes=sizes, workers=workers)
    sizes_ok = sizes is None or (
        isinstance(sizes, (list, tuple)) and len(sizes) > 0
        and all(valid_count(n, 1) for n in sizes)
        and all(b > a for a, b in zip(sizes, sizes[1:])))
    checks = [("replications", valid_count(replications, 1) and replications <= 100_000),
              ("sample_sizes", sizes_ok),
              ("master_seed", valid_count(master_seed, 0)),
              ("workers", valid_count(workers, 1))]
    bad = [name for name, ok in checks if not ok]
    if bad:
        assert isinstance(result, ConfigurationError) and result.field == bad[0]
    else:
        assert isinstance(result, list) and len(result) == (1 if sizes is None else len(sizes))


@pytest.mark.parametrize("count, field", [({"n_replications": 0}, "replications"),
                                          ({"workers": 0}, "workers")])
def test_run_study_zero_count_is_a_configuration_error(count, field):
    # Both used to end in a ZeroDivisionError.
    args = {"n_replications": 1, "master_seed": 0, **count}
    with pytest.raises(ConfigurationError) as exc:
        run_study(STUDY_CONFIG, STUDY_SPEC, **args)
    assert exc.value.field == field


@given(master_seed=st.one_of(st.integers(-2**70, 2**130), NOT_COUNTS, ODD_FLOATS),
       j=st.one_of(st.integers(-3, 2**40), NOT_COUNTS))
def test_replication_seed_names_the_bad_argument(master_seed, j):
    result = outcome(replication_seed, master_seed, j)
    if not (valid_count(master_seed, 0) and master_seed < 2**128):
        assert isinstance(result, ConfigurationError) and result.field == "master_seed"
    elif not valid_count(j, 0):
        assert isinstance(result, ConfigurationError) and result.field == "replication"
    else:
        assert isinstance(result, int) and 0 <= result < 2**64


@pytest.mark.parametrize("master_seed", [-1, 2**128, 2**130])
def test_master_seed_outside_the_seed_range_is_a_configuration_error(master_seed):
    # -1 used to raise a bare ValueError from numpy's SeedSequence; every seed
    # is an integer in [0, 2**128), the panel's Philox key range.
    with pytest.raises(ConfigurationError) as exc:
        replication_seed(master_seed, 0)
    assert exc.value.field == "master_seed"


# ---- dataset files ----------------------------------------------------------

DATASET = simulate(replace(STUDY_CONFIG, variant="SlopeFE", n_individuals=30,
                           z_dist=LogNormalDist(0.0, 0.25)))

# Output paths relative to a scratch directory that holds a file "f" and a
# directory "d"; each says whether a dataset can be saved there.
OUT_PATHS = {
    "d": True, "new": True, "new/deeper": True, "d/new": True, ".": True,
    "f": False, "f/sub": False, "f/sub/deeper": False,
}


@given(path=st.sampled_from(sorted(OUT_PATHS)), as_path=st.booleans())
def test_save_dataset_names_the_bad_output_dir(path, as_path):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "f").write_text("")
        Path(tmp, "d").mkdir()
        out = Path(tmp, path) if as_path else os.path.join(tmp, path)
        result = outcome(save_dataset, DATASET, out)
        if OUT_PATHS[path]:
            assert result is None
            back = load_dataset(out)
            assert np.array_equal(back.y, DATASET.y) and np.array_equal(back.z, DATASET.z)
        else:
            assert isinstance(result, ConfigurationError) and result.field == "output_dir"
            assert Path(tmp, "f").read_text() == ""


@pytest.mark.parametrize("out", ["", None, 5, ["d"]])
def test_save_dataset_rejects_a_non_path(out):
    with pytest.raises(ConfigurationError) as exc:
        save_dataset(DATASET, out)
    assert exc.value.field == "output_dir"


def test_save_dataset_onto_a_file_is_a_configuration_error(tmp_path):
    # Used to raise FileExistsError.
    (tmp_path / "f").write_text("keep")
    with pytest.raises(ConfigurationError) as exc:
        save_dataset(DATASET, str(tmp_path / "f"))
    assert exc.value.field == "output_dir"
    assert (tmp_path / "f").read_text() == "keep"


@pytest.mark.parametrize("where", ["missing", "file", "empty_dir", None, 5])
def test_load_dataset_names_the_bad_directory(tmp_path, where):
    (tmp_path / "file").write_text("")
    (tmp_path / "empty_dir").mkdir()
    data_dir = str(tmp_path / where) if isinstance(where, str) else where
    with pytest.raises(ConfigurationError) as exc:
        load_dataset(data_dir)
    assert exc.value.field == "data_dir"


# ---- truncmoments -----------------------------------------------------------

ORDERS = st.one_of(st.integers(-2, 10),
                   st.sampled_from([1.5, 2.0, math.inf, math.nan, "2", True, None]))


@given(mu=NUMBERS_OR_NOT, sigma2=NUMBERS_OR_NOT, k=ORDERS)
def test_univariate_moments_reject_or_return(mu, sigma2, k):
    spec = outcome(UnivariateNormalSpec, mu, sigma2)
    if not (is_number(mu) and is_number(sigma2)):
        assert isinstance(spec, DomainError)
    if isinstance(spec, TobitIVError):
        return
    for route in (univariate_truncated_moment, univariate_truncated_moment_quad):
        value = outcome(route, spec, k)
        assert isinstance(value, TobitIVError) or math.isfinite(value)


@given(coords=st.tuples(*[NUMBERS_OR_NOT] * 5), k=ORDERS, m=ORDERS,
       tol=st.sampled_from([-1.0, 0.0, 1e-300, 1e-8, 1e-3, math.nan, math.inf, *NOT_NUMBERS]))
def test_bivariate_moments_reject_or_return(coords, k, m, tol):
    spec = outcome(BivariateNormalSpec, *coords)
    query = outcome(MomentQuery, k, m)
    if not all(map(is_number, coords)):
        assert isinstance(spec, DomainError)
    if not (type(k) is int and type(m) is int):
        assert isinstance(query, DomainError)
    if isinstance(spec, TobitIVError) or isinstance(query, TobitIVError):
        return
    for value in (outcome(bivariate_truncated_moment_quad, spec, query, tol),
                  outcome(moment_identity_residual, spec, query, tol),
                  outcome(quadrant_moments, spec, [(k, m), (0, 0)], tol)):
        assert isinstance(value, (TobitIVError, float, dict))
        if not (is_number(tol) and 0 < tol < math.inf):
            assert isinstance(value, DomainError)


@settings(max_examples=10)
@given(coords=st.tuples(ODD_FLOATS, ODD_FLOATS, ODD_FLOATS, ODD_FLOATS, ODD_FLOATS),
       k=st.integers(0, 4), n_draws=st.sampled_from([-1, 0, 999, 1000, 5000, 1500.0, math.nan,
                                                10**9 + 1, 10**15]),
       seed=st.sampled_from([-1, 0, 2**70, 1.5, None, True, "1"]))
def test_monte_carlo_oracle_rejects_or_returns(coords, k, n_draws, seed):
    spec = outcome(BivariateNormalSpec, *coords)
    if isinstance(spec, TobitIVError):
        return
    value = outcome(bivariate_truncated_moment_mc, spec, MomentQuery(k, 1), n_draws, seed)
    assert isinstance(value, (TobitIVError, tuple))
    if type(seed) is not int:
        assert isinstance(value, DomainError)


@pytest.mark.parametrize("n_draws", [999, 10**9 + 1, 10**15])
def test_monte_carlo_oracle_draw_count_bounded(n_draws, monkeypatch):
    # 10**15 used to loop over 2e6-draw chunks for days; no draw is made now.
    monkeypatch.setattr(np.random, "PCG64", None)
    with pytest.raises(DomainError, match=r"\[1000, 10\*\*9\]"):
        bivariate_truncated_moment_mc(BivariateNormalSpec(0.0, 0.0, 1.0, 1.0, 0.0),
                                      MomentQuery(1, 1), n_draws, 0)


@pytest.mark.parametrize("k", [1.5, math.inf, math.nan])
def test_non_integer_moment_order_is_a_domain_error(k):
    # A bare IndexError, OverflowError or ValueError before.
    with pytest.raises(DomainError):
        bivariate_truncated_moment_quad(BivariateNormalSpec(0.0, 0.0, 1.0, 1.0, 0.0),
                                        MomentQuery(k, 1))
    with pytest.raises(DomainError):
        univariate_truncated_moment(UnivariateNormalSpec(0.0, 1.0), k)


SPEC = BivariateNormalSpec(0.0, 0.0, 1.0, 1.0, 0.0)

# Each raised a bare TypeError, or ran with True read as 1.
NON_NUMBER_CALLS = {
    "univariate_spec": lambda: UnivariateNormalSpec("1", 1.0),
    "univariate_spec_bool": lambda: UnivariateNormalSpec(True, 1.0),
    "bivariate_spec": lambda: BivariateNormalSpec(0, 0, 1, 1, [0.0]),
    "quadrant_tol": lambda: quadrant_moments(SPEC, [(1, 1)], "1e-8"),
    "identity_tol": lambda: moment_identity_residual(SPEC, MomentQuery(1, 1), None),
    "query_bool": lambda: MomentQuery(True, 1),
    "mc_seed_bool": lambda: bivariate_truncated_moment_mc(SPEC, MomentQuery(1, 1), 1000, True),
    "cross_section_str": lambda: build_cross_section(TOY, "2"),
    "cross_section_bool": lambda: build_cross_section(TOY, True),
    "nonstationary_str": lambda: build_pairwise_nonstationary(TOY, 0, 1, "1", 1),
}


@pytest.mark.parametrize("call", sorted(NON_NUMBER_CALLS))
def test_a_non_number_or_a_boolean_is_a_domain_error(call):
    with pytest.raises(DomainError):
        NON_NUMBER_CALLS[call]()


def test_identity_names_the_callers_tol():
    # It used to name tol / 10: "tol must be positive, got -0.1".
    with pytest.raises(DomainError, match=r"tol must be a positive number, got -1\.0$"):
        moment_identity_residual(SPEC, MomentQuery(1, 1), tol=-1.0)
    # tol / 10 underflowed to 0, and the error quoted that: "got 0.0".
    with pytest.raises(DomainError, match=r"^tol must be a positive number whose tenth is not 0, "
                                          r"got 5e-324$"):
        moment_identity_residual(SPEC, MomentQuery(1, 1), tol=5e-324)


# Each raised a bare AttributeError, TypeError or ValueError.
WRONG_ARGUMENT_CALLS = {
    "identity_query_tuple": (lambda: moment_identity_residual(SPEC, (1, 1)),
                             "q must be a MomentQuery, got (1, 1)"),
    "quad_query_none": (lambda: bivariate_truncated_moment_quad(SPEC, None),
                        "q must be a MomentQuery, got None"),
    "mc_query_tuple": (lambda: bivariate_truncated_moment_mc(SPEC, (1, 1), 1000, 0),
                       "q must be a MomentQuery, got (1, 1)"),
    "quadrant_pairs_none": (lambda: quadrant_moments(SPEC, None),
                            "exponent_pairs must be a non-empty list of (k, m) pairs, got None"),
    "quadrant_pairs_short": (lambda: quadrant_moments(SPEC, [(1,)]),
                             "exponent_pairs must be a non-empty list of (k, m) pairs, got [(1,)]"),
    "quadrant_pairs_empty": (lambda: quadrant_moments(SPEC, []),
                             "exponent_pairs must be a non-empty list of (k, m) pairs, got []"),
    "quadrant_spec_tuple": (lambda: quadrant_moments((1, 2), [(1, 1)]),
                            "spec must be a BivariateNormalSpec, got (1, 2)"),
    "mc_spec_none": (lambda: bivariate_truncated_moment_mc(None, MomentQuery(1, 1), 1000, 0),
                     "spec must be a BivariateNormalSpec, got None"),
    "univariate_spec_none": (lambda: univariate_truncated_moment(None, 1),
                             "spec must be a UnivariateNormalSpec, got None"),
    "univariate_quad_spec_bivariate": (lambda: univariate_truncated_moment_quad(SPEC, 1),
                                       f"spec must be a UnivariateNormalSpec, got {SPEC!r}"),
}


@pytest.mark.parametrize("call", sorted(WRONG_ARGUMENT_CALLS))
def test_a_wrong_argument_is_a_domain_error_naming_it(call):
    fn, message = WRONG_ARGUMENT_CALLS[call]
    with pytest.raises(DomainError) as exc:
        fn()
    assert str(exc.value) == message
