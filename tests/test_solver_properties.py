"""Solver invariants: row order, instrument scale, cluster labels, shared
instrument blocks, the cluster-robust moment covariance against the dense
indicator product, and the cached factor-loading objective."""

from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import block_diag

from tobitiv import (
    EstimatorSpec,
    LinearIndexDist,
    MomentSystem,
    NormalDist,
    PanelConfig,
    Param,
    build_estimation_system,
    build_pairwise_nonstationary,
    simulate,
    stack_systems,
    two_stage_least_squares,
)
from tobitiv import gmm
from tobitiv.gmm import (
    CLUSTER_CHUNK,
    _cluster_moment_covariance,
    _column_scale,
    _whiten_instruments,
    concentrated_linear_solve,
    project_linear_parts,
)

from dense import dense_regressors
from test_gmm import factor_loading_panel, independent_columns

REL = 1e-10


def block(rng, n, p, q, n_individuals, ids=None):
    """One linear system with unsorted, repeated cluster ids and shared params.

    The ids are drawn from `ids` when given, else from range(n_individuals).
    """
    Z = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
    X = Z[:, :p] @ rng.normal(size=(p, p)) + 0.3 * rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + rng.normal(size=n)
    return MomentSystem.one_block(
        y, X, Z, rng.integers(0, n_individuals, n) if ids is None else rng.choice(ids, n),
        [Param("beta", (j,)) for j in range(p)],
    )


@st.composite
def stacked_systems(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    n_individuals = draw(st.integers(40, 120))
    blocks = [
        block(rng, draw(st.integers(60, 200)), p, p + draw(st.integers(0, 3)), n_individuals)
        for _ in range(draw(st.integers(1, 3)))
    ]
    return stack_systems(blocks), rng


def assert_same_fit(a, b):
    assert a.n_clusters == b.n_clusters
    assert a.j_dof == b.j_dof
    np.testing.assert_allclose(a.estimates, b.estimates, rtol=REL, atol=0)
    np.testing.assert_allclose(a.se, b.se, rtol=REL, atol=0)
    assert b.condition_number == pytest.approx(a.condition_number, rel=REL)
    if a.j_statistic is None:
        assert b.j_statistic is None
    else:
        assert b.j_statistic == pytest.approx(a.j_statistic, rel=REL, abs=1e-12)


def with_rows(system, rows, scale=1.0):
    """The chosen rows, their instruments passed as one dense block."""
    return MomentSystem.one_block(
        system.dependent[rows], dense_regressors(system)[rows],
        system.instruments[rows] * scale, system.cluster[rows], system.params,
    )


@given(stacked_systems())
def test_2sls_invariant_to_row_order_and_instrument_scale(case):
    system, rng = case
    base = two_stage_least_squares(system)
    assert base.n_clusters == np.unique(system.cluster).size
    perm = rng.permutation(system.n_rows)
    assert_same_fit(base, two_stage_least_squares(with_rows(system, perm)))
    scale = np.exp(rng.uniform(-7.0, 7.0, system.instruments.shape[1]))
    assert_same_fit(base, two_stage_least_squares(with_rows(system, slice(None), scale)))


@st.composite
def multi_block_systems(draw):
    """Two to four blocks. Each draws its cluster ids from its own half of the
    individuals, with more rows than ids, so some cluster repeats within every
    block and half the clusters are missing from each block."""
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    n_individuals = draw(st.integers(40, 100))
    blocks = []
    for _ in range(draw(st.integers(2, 4))):
        ids = rng.choice(n_individuals, n_individuals // 2, replace=False)
        n = draw(st.integers(60, 200))
        blocks.append(block(rng, n, p, p + draw(st.integers(0, 3)), n_individuals, ids))
    return stack_systems(blocks), rng


def permuted_within_blocks(system, rng):
    """The rows of each block permuted in place, and the cluster ids relabelled
    by a random permutation; the block structure is kept."""
    rows, blocks, reg_blocks, r0 = [], [], [], 0
    for Z, W in zip(system.instrument_blocks, system.regressor_blocks):
        perm = rng.permutation(Z.shape[0])
        blocks.append(Z[perm])
        reg_blocks.append(W[perm])
        rows.append(r0 + perm)
        r0 += Z.shape[0]
    rows = np.concatenate(rows)
    relabel = rng.permutation(system.cluster.max() + 1)
    return MomentSystem(
        dependent=system.dependent[rows], regressor_blocks=reg_blocks,
        regressor_columns=system.regressor_columns, instrument_blocks=blocks,
        cluster=relabel[system.cluster[rows]], params=system.params,
    )


@given(multi_block_systems())
def test_2sls_invariant_to_row_order_within_blocks_and_cluster_labels(case):
    system, rng = case
    r0 = 0
    for Z in system.instrument_blocks:
        ids = system.cluster[r0 : r0 + Z.shape[0]]
        r0 += Z.shape[0]
        assert np.unique(ids).size < ids.size  # a cluster repeats within the block
        assert np.setdiff1d(system.cluster, ids).size > 0  # and some are missing from it
    moved = permuted_within_blocks(system, rng)
    assert len(moved.instrument_blocks) == len(system.instrument_blocks) > 1
    assert_same_fit(two_stage_least_squares(system), two_stage_least_squares(moved))


def dense_cluster_sums(cluster, Qs, u):
    """D'(blockdiag(Qs) * u), D the row-by-cluster indicator of the sorted distinct ids."""
    ids = np.unique(cluster)
    return (cluster[:, None] == ids).astype(float).T @ (block_diag(*Qs) * u[:, None])


# Cluster-id maps that keep ids distinct: as drawn, negative, and near 2**62.
ID_MAPS = (lambda c: c, lambda c: -3 * c - 7, lambda c: 2**62 - 5 * c)


def one_block_sums(cluster, Q, u):
    """The cluster sums of Q * u as one block gives them: rows stably sorted
    by cluster, each run of one id added by `np.add.reduceat`."""
    order = np.argsort(cluster, kind="stable")
    ids = cluster[order]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    return np.add.reduceat((Q * u[:, None])[order], starts, axis=0)


@given(multi_block_systems())
def test_cluster_moment_covariance_matches_the_dense_indicator_product(case):
    """`_cluster_moment_covariance` of every block, and of the first block
    alone, counts the distinct cluster ids and gives Gc'Gc of the dense
    indicator product Gc, to 1e-12 of its largest entry, whether the
    clusters fill one chunk or several. The first block's S is H'H bit for
    bit, H being its cluster sums, which fixes the factor-loading step-2
    weight. Every block's ids are out of order."""
    system, rng = case
    moved = permuted_within_blocks(system, rng)
    sizes = [Z.shape[0] for Z in moved.instrument_blocks]
    ends = np.cumsum(sizes)
    block_rows = [slice(e - n, e) for e, n in zip(ends, sizes)]
    Qs = [rng.normal(size=(n, rng.integers(1, 4))) for n in sizes]
    u = rng.normal(size=ends[-1])
    # The same layout with distinct ids in each block, some shared across blocks.
    distinct = np.concatenate([rng.choice(2 * max(sizes), n, replace=False) for n in sizes])
    for cluster in (moved.cluster, distinct):
        for id_map in ID_MAPS:
            c = id_map(cluster.astype(np.int64))
            for k in (len(sizes), 1):
                n = ends[k - 1]
                Gc = dense_cluster_sums(c[:n], Qs[:k], u[:n])
                want = Gc.T @ Gc
                for chunk in (CLUSTER_CHUNK, 7, 1):
                    with patch.object(gmm, "CLUSTER_CHUNK", chunk):
                        S, n_clusters = _cluster_moment_covariance(
                            c[:n], block_rows[:k], Qs[:k], u[:n])
                    assert n_clusters == Gc.shape[0]
                    assert np.all(np.abs(S - want) <= 1e-12 * np.abs(want).max())
            n = ends[0]
            S, _ = _cluster_moment_covariance(c[:n], block_rows[:1], Qs[:1], u[:n])
            H = one_block_sums(c[:n], Qs[0], u[:n])
            assert np.array_equal(S, H.T @ H)


def test_shared_block_arrays_match_copies_bit_for_bit():
    """Every order of a pair holds one instrument array, factorised once; the
    fit equals that of the system with a copy per block, and the system equals
    the one stacked from single-order builds."""
    config = PanelConfig(
        variant="NonStationary", n_individuals=600, n_periods=3, n_regressors=1,
        beta=(1.0,), error_cov=((0.5, 0.2, 0.0), (0.2, 0.5, 0.2), (0.0, 0.2, 0.5)),
        seed=8, fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 1.0),
    )
    orders = ((1, 1), (2, 1), (1, 2))
    dataset = simulate(config)
    system = build_estimation_system(dataset, config, EstimatorSpec(orders=orders))
    blocks = system.instrument_blocks
    assert len(blocks) == 9 and len({id(Z) for Z in blocks}) == 3
    assert all(blocks[i] is blocks[3 * (i // 3)] for i in range(9))

    one_by_one = stack_systems([
        build_pairwise_nonstationary(dataset, t, s, k, m)
        for t, s in ((0, 1), (0, 2), (1, 2)) for k, m in orders
    ])
    for name in ("dependent", "cluster"):
        assert np.array_equal(getattr(system, name), getattr(one_by_one, name))
    assert np.array_equal(dense_regressors(system), dense_regressors(one_by_one))
    assert all(np.array_equal(a, b) for a, b in zip(blocks, one_by_one.instrument_blocks))
    assert system.params == one_by_one.params

    shared = two_stage_least_squares(system)
    copied = two_stage_least_squares(replace(system, instrument_blocks=[Z.copy() for Z in blocks]))
    for a, b in ((shared, copied), (shared, two_stage_least_squares(one_by_one))):
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.covariance, b.covariance)
        assert (a.j_statistic, a.j_dof, a.condition_number, a.n_clusters) == (
            b.j_statistic, b.j_dof, b.condition_number, b.n_clusters)


def indicator_formula_systems():
    """Three stacked blocks whose last instrument is redundant: first blocks
    that share individuals, then blocks of disjoint individuals, with ids out
    of order, so that every cluster holds one row of the whole system."""
    for one_row_clusters in (False, True):
        rng = np.random.default_rng(31)
        # The last block's last instrument is a combination of two others, so
        # the pivoted QR prunes one column; the dense formulas use the rest.
        redundant = block(rng, 200, 3, 5, 150)
        Z = redundant.instruments
        redundant = replace(
            redundant, instrument_blocks=[np.column_stack([Z, Z[:, 1] - 2.0 * Z[:, 3]])]
        )
        blocks = [block(rng, 300, 3, 6, 150), block(rng, 250, 3, 5, 150), redundant]
        if one_row_clusters:
            ids = np.split(rng.permutation(750), [300, 550])
            blocks = [replace(b, cluster=c) for b, c in zip(blocks, ids)]
        system = stack_systems(blocks)
        assert (np.unique(system.cluster).size == system.n_rows) == one_row_clusters
        yield system


def test_cluster_covariance_and_j_match_dense_indicator_formulas():
    for system in indicator_formula_systems():
        res = two_stage_least_squares(system)
        y, W, Z = system.dependent, dense_regressors(system), system.instruments[:, :-1]
        n = y.size
        ids = np.unique(system.cluster)
        D = (system.cluster[:, None] == ids[None, :]).astype(float)  # row-by-cluster

        What = Z @ np.linalg.lstsq(Z, W, rcond=None)[0]
        theta = np.linalg.lstsq(What, y, rcond=None)[0]
        u = y - W @ theta
        A_inv = np.linalg.inv(What.T @ W)
        Hu = D.T @ (What * u[:, None])
        V = A_inv @ (Hu.T @ Hu) @ A_inv.T
        Gu = D.T @ (Z * u[:, None])
        S_inv = np.linalg.inv(Gu.T @ Gu / n)
        G, g = Z.T @ W / n, Z.T @ y / n
        theta2 = np.linalg.solve(G.T @ S_inv @ G, G.T @ S_inv @ g)
        gbar = g - G @ theta2
        J = n * gbar @ S_inv @ gbar

        kept = independent_columns(system.instruments)
        Zs = system.instruments[:, kept] / _column_scale(system.instruments)[kept]
        cross = Zs.T @ (W / _column_scale(W)) / n

        assert res.n_clusters == ids.size
        assert res.j_dof == Z.shape[1] - W.shape[1]
        np.testing.assert_allclose(res.estimates, theta, rtol=REL)
        np.testing.assert_allclose(res.covariance, V, rtol=REL, atol=REL * np.abs(V).max())
        assert np.array_equal(res.covariance, res.covariance.T)
        assert res.j_statistic == pytest.approx(J, rel=REL)
        assert res.condition_number == pytest.approx(np.linalg.cond(cross), rel=REL)


def objective_from_linear_parts(system, r, Zw, Wmat):
    """The concentrated inner solve written out from copies of `shared_linear_parts`."""
    n = system.n_rows
    dep, X = (a.copy() for a in system.shared_linear_parts(r))
    G = Zw.T @ X / n
    gd = Zw.T @ dep / n
    WG = Wmat @ G
    theta = np.linalg.solve(G.T @ WG, G.T @ (Wmat @ gd))
    gbar = gd - G @ theta
    return theta, float(gbar @ (Wmat @ gbar)), gbar, G


def test_cached_objective_equals_linear_parts_bit_for_bit():
    _, system = factor_loading_panel((1.0, 1.5), seed=14, n=4000)
    Zw = _whiten_instruments(
        system.instruments[:, independent_columns(system.instruments)]
    )
    q = Zw.shape[1]
    A = np.random.default_rng(3).normal(size=(q, q))
    efficient = A @ A.T + q * np.eye(q)
    for r in (0.3, 1.0, 1.5, 7.0, 1.5):
        for Wmat in (np.eye(q), efficient):
            want = objective_from_linear_parts(system, r, Zw, Wmat)
            G, gd = project_linear_parts(system, r, Zw)
            got = concentrated_linear_solve(G, gd, Wmat, r)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]
            assert np.array_equal(got[2], want[2])
            assert np.array_equal(G, want[3])


def stacked_estimate_system(n=1000):
    """The benchmark's stacked system: NonStationary, T = 4, K = 2, orders (1, 1) and (2, 1)."""
    config = PanelConfig(
        variant="NonStationary", n_individuals=n, n_periods=4, n_regressors=2,
        beta=(1.0, -0.5),
        error_cov=((0.5, 0.2, 0.0, 0.0), (0.2, 0.5, 0.2, 0.0),
                   (0.0, 0.2, 0.5, 0.2), (0.0, 0.0, 0.2, 0.5)),
        seed=2026, fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 1.0),
    )
    return build_estimation_system(simulate(config), config,
                                   EstimatorSpec(orders=((1, 1), (2, 1))))


def test_2sls_invariant_to_ulp_column_scales_and_column_order():
    """Each distinct instrument block's columns, permuted and each moved by up
    to 2 ulp, give the same fit: the pivoted QR may then keep another of the
    default set's exactly collinear columns, which spans the same space.

    `condition_number` is left unchecked: it is that of the kept columns, so
    it moves by up to 5% here (the FOUND entry on 2SLS's kept columns,
    ROADMAP item 7)."""
    system = stacked_estimate_system()
    base = two_stage_least_squares(system)
    scale = np.maximum(np.abs(base.estimates), base.se)
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    for _ in range(10):
        moved = {}  # id of a block array -> its moved copy, shared like the array
        for Z in system.instrument_blocks:
            if id(Z) not in moved:
                perm = rng.permutation(Z.shape[1])
                moved[id(Z)] = Z[:, perm] * (1.0 + eps * rng.integers(-2, 3, Z.shape[1]))
        res = two_stage_least_squares(
            replace(system, instrument_blocks=[moved[id(Z)] for Z in system.instrument_blocks]))
        assert res.j_dof == base.j_dof
        assert np.all(np.abs(res.estimates - base.estimates) <= 1e-12 * scale)
        np.testing.assert_allclose(res.se, base.se, rtol=1e-12, atol=0)
        assert res.j_statistic == pytest.approx(base.j_statistic, rel=1e-12, abs=0)
