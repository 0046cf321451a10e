"""Property tests: a valid config with one or two fields mutated, a valid argv
with a bad `--seed`, an unknown flag or a missing flag, or a saved dataset
directory with one file corrupted, never crashes the CLI.

Every run must exit 0, 2 or 3 (and 4 for `verify`); an exit other than 0
writes exactly one stderr line of strict JSON, and exit 0 writes none. A key
that no config takes, inserted at the top level or into any object, exits 2
with a `field` that names it. Sizes drawn inside the valid range stay small
(N <= 2000, replications <= 5).
"""

import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_cli import single_json_line

from tobitiv import LogNormalDist, PanelConfig, save_dataset, simulate
from tobitiv.cli import main

_FE = {"type": "linear_index", "index_coef": 1.0, "noise_sigma": 0.5}

BASES = {
    "simulate": {
        "variant": "SlopeFE",
        "panel": {
            "n_individuals": 300, "n_periods": 2, "n_regressors": 1, "beta": [1.0],
            "error_cov": [[0.25, 0.0], [0.0, 0.375]], "fe_dist": _FE,
            "x_dist": {"type": "normal", "mu": 1.0, "sigma": 1.0},
            "z_dist": {"type": "lognormal", "mu": 0.0, "sigma": 0.25},
        },
        "master_seed": 3,
    },
    "montecarlo": {
        "variant": "IndependentErrors",
        "panel": {
            "n_individuals": 200, "n_periods": 2, "n_regressors": 2, "beta": [1.0, -0.5],
            "error_cov": [[0.25, 0.0], [0.0, 0.375]], "seed": 0, "fe_dist": _FE,
            "x_dist": {"type": "normal", "mu": 1.0, "sigma": 1.0},
        },
        "estimator": {"instruments": "levels_squares", "pairs": [[1, 0]]},
        "replications": 3,
        "sample_sizes": [200, 400],
        "master_seed": 99,
    },
    "montecarlo_factor_loading": {
        "variant": "FactorLoading",
        "panel": {
            "n_individuals": 300, "n_periods": 2, "n_regressors": 1, "beta": [1.0],
            "error_cov": [[0.25, 0.0], [0.0, 0.25]], "factor_loadings": [1.0, 1.5], "seed": 0,
            "fe_dist": _FE, "x_dist": {"type": "normal", "mu": 1.0, "sigma": 2.0},
        },
        "estimator": {"instruments": "products", "pairs": [[1, 0]]},
        "replications": 2,
        "master_seed": 1,
    },
    "montecarlo_truncated": {
        "variant": "VarianceFE",
        "panel": {
            "n_individuals": 200, "n_periods": 3, "n_regressors": 1, "beta": [1.0],
            "error_cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "seed": 0,
            "sampling": "Truncated", "fe_dist": _FE,
            "variance_fe_dist": {"type": "shifted_halfnormal", "shift": 0.25, "scale": 0.2},
            "x_dist": {"type": "normal", "mu": 1.0, "sigma": 2.0},
        },
        "estimator": {"instruments": "index_proxy", "triple": [0, 1, 2]},
        "replications": 3,
        "master_seed": 5,
    },
    "estimate": {
        "estimator": {"instruments": "default", "pairs": [[1, 0], [2, 1]],
                      "orders": [[1, 1], [2, 1]], "cross_section_order": 1},
    },
    "verify": {
        "n_points": 2, "mu_range": [-2.0, 2.0], "sigma2_range": [0.25, 4.0], "rho_max": 0.9,
        "orders": [[1, 1], [2, 1]], "tolerance": 1e-6, "quadrature_tol": 1e-7, "grid_seed": 3,
    },
}

DELETE = object()
INSERT = object()  # an unknown key, put into the top level or one of its objects

MUTATIONS = st.one_of(
    st.just(DELETE),
    st.just(INSERT),
    st.sampled_from(["text", None, [], {}, True, False, 1e308, -1e308, 1e-300, -1e-300]),
    st.integers(max_value=0),
    st.integers(min_value=2**63, max_value=2**80),
    st.integers(1, 5),
)


def paths(value, prefix=()):
    """Every path into a JSON value, through dict keys and list indices."""
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield prefix + (key,)
            yield from paths(child, prefix + (key,))


def object_paths(config):
    """The top level and every path to an object: panel, estimator, distributions."""
    yield ()
    for path in paths(config):
        value = config
        for key in path:
            value = value[key]
        if isinstance(value, dict):
            yield path


def mutated(config, path, value):
    config = copy.deepcopy(config)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return config


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A small NonStationary panel over three periods for `estimate`."""
    out = tmp_path_factory.mktemp("data")
    save_dataset(simulate(PanelConfig(
        variant="NonStationary", n_individuals=300, n_periods=3, n_regressors=1,
        beta=(1.0,), error_cov=((0.25, 0.1, 0.0), (0.1, 0.5, 0.0), (0.0, 0.0, 0.4)), seed=4,
    )), str(out))
    return str(out)


def draw_mutation(data, config, value, key="unknown_key"):
    """(`config` with `value` at a drawn path, that path). INSERT puts `key`
    into a drawn object; any other value replaces or deletes a drawn entry."""
    if value is INSERT:
        path = data.draw(st.sampled_from(list(object_paths(config)))) + (key,)
        return mutated(config, path, 1), path
    candidates = list(paths(config))
    assume(candidates)
    path = data.draw(st.sampled_from(candidates))
    return mutated(config, path, value), path


def run_config(base, config, dataset_dir, capsys):
    """`main` on `config` as the `base` command; checks the exit code and the
    stderr contract, and returns (exit code, the stderr JSON or None)."""
    command = base.split("_")[0]
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/config.json", "w") as fh:
            json.dump(config, fh)
        argv = [command, "--config", f"{tmp}/config.json", "--out", f"{tmp}/out"]
        code = main(argv + (["--data", dataset_dir] if command == "estimate" else []))
    assert code in ((0, 2, 3, 4) if command == "verify" else (0, 2, 3))
    if code == 0:
        assert capsys.readouterr().err == ""
        return code, None
    return code, single_json_line(capsys)


@pytest.mark.parametrize("base", sorted(BASES))
@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), value=MUTATIONS)
def test_one_mutated_field_exits_cleanly(base, data, value, dataset_dir, capsys):
    config, path = draw_mutation(data, BASES[base], value)
    code, error = run_config(base, config, dataset_dir, capsys)
    if value is INSERT:
        # Named as `key`, `panel.key`, `x_dist.key`, `estimator.key`, ...
        assert code == 2 and error["field"] == ".".join(path[-2:])


@pytest.mark.parametrize("base", sorted(BASES))
@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), values=st.tuples(MUTATIONS, MUTATIONS))
def test_two_mutated_fields_exit_cleanly(base, data, values, dataset_dir, capsys):
    config = BASES[base]
    # Inserting last, so that the other mutation cannot delete the inserted key.
    for i, value in enumerate(sorted(values, key=lambda v: v is INSERT)):
        config, _ = draw_mutation(data, config, value, key=f"unknown_key{i}")
    code, error = run_config(base, config, dataset_dir, capsys)
    if INSERT in values:
        assert code == 2 and error["field"]


# `--seed` values: in range, below it, at and above 2**128, and not an integer.
SEEDS = st.sampled_from([None, -1, 0, 2**128, 2**130, "x"])
# The field `--seed` replaces, and the flag whose absence is an error, per command.
SEED_FIELDS = {"simulate": "seed", "montecarlo": "master_seed", "verify": "grid_seed"}
DROPPED = {"simulate": "--config", "estimate": "--data", "montecarlo": "--config",
           "verify": "--out"}


@pytest.mark.parametrize("command", ["estimate", "montecarlo", "simulate", "verify"])
@settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=SEEDS, unknown=st.booleans(), drop=st.booleans())
def test_argv_exits_cleanly(command, seed, unknown, drop, dataset_dir, capsys):
    """The command's valid argv with a `--seed`, an unknown flag or a missing
    flag: exit 0 when every argument is valid, else exit 2 with one JSON line,
    which names the replaced seed's field when the seed alone is out of range."""
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/config.json", "w") as fh:
            json.dump(BASES[command], fh)
        flags = {"--config": f"{tmp}/config.json", "--out": f"{tmp}/out"}
        if command == "estimate":
            flags["--data"] = dataset_dir
        if drop:
            del flags[DROPPED[command]]
        argv = [command, *(token for item in flags.items() for token in item)]
        argv += ([] if seed is None else ["--seed", str(seed)]) + (["--unknown"] if unknown else [])
        code = main(argv)
    takes_seed = seed is None or command != "estimate"
    if seed in (None, 0) and takes_seed and not (unknown or drop):
        assert code == 0 and capsys.readouterr().err == ""
        return
    assert code == 2
    error = single_json_line(capsys)
    if isinstance(seed, int) and takes_seed and not (unknown or drop):
        assert error["field"] == SEED_FIELDS[command]


# Dataset directories for the corruption property: every table kind is present.
DATASETS = {
    "NonStationary": PanelConfig(
        variant="NonStationary", n_individuals=300, n_periods=3, n_regressors=2,
        beta=(1.0, -0.5), error_cov=((0.25, 0.1, 0.0), (0.1, 0.5, 0.0), (0.0, 0.0, 0.4)),
        seed=5,
    ),
    "SlopeFE": PanelConfig(
        variant="SlopeFE", n_individuals=400, n_periods=2, n_regressors=1, beta=(1.0,),
        error_cov=((0.25, 0.0), (0.0, 0.375)), seed=6, z_dist=LogNormalDist(0.0, 0.25),
    ),
}

CELLS = [np.nan, np.inf, -np.inf, 0.0, -0.0, -0.5, 1e300, -1e300, 5e-324]
META_VALUES = st.one_of(
    st.sampled_from([None, True, False, "text", [], {}, 2.0, 1e400, -1]),
    st.integers(-2, 6),
    st.sampled_from(["CrossSection", "IndependentErrors", "NonStationary", "FactorLoading",
                     "VarianceFE", "AdditiveVariance", "SlopeFE", "Bogus"]),
)


@st.composite
def table_damage(draw, raw):
    """One corruption of a .npy table's bytes: a cut at any byte, a flipped
    header byte, the table rewritten with another shape or dtype, or one cell
    set to NaN, an infinity or a negative or extreme value."""
    kind = draw(st.sampled_from(["truncate", "flip_header", "reshape", "dtype", "cell"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "flip_header":  # magic, version, length and the header text
        header_end = 10 + int.from_bytes(raw[8:10], "little")
        at = draw(st.integers(0, header_end - 1))
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1:]
    values = np.load(io.BytesIO(raw))
    if kind == "reshape":
        axis = draw(st.integers(0, values.ndim - 1))
        if draw(st.booleans()):  # one slice more, or one fewer
            values = np.concatenate([values, values.take([0], axis)], axis)
        else:
            values = values.take(range(values.shape[axis] - 1), axis)
    elif kind == "dtype":
        values = values.astype(draw(st.sampled_from([np.float32, np.int64, np.complex128,
                                                     ">f8", object])))
    else:
        values.flat[draw(st.integers(0, values.size - 1))] = draw(st.sampled_from(CELLS))
    out = io.BytesIO()
    np.save(out, values, allow_pickle=True)
    return out.getvalue()


@pytest.fixture(scope="module")
def saved_datasets(tmp_path_factory):
    out = tmp_path_factory.mktemp("datasets")
    for name, config in DATASETS.items():
        save_dataset(simulate(config), str(out / name))
    return out


@pytest.mark.parametrize("base", sorted(DATASETS))
@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_dataset_exits_cleanly(base, data, saved_datasets, capsys):
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        ds = Path(tmp) / "ds"
        shutil.copytree(saved_datasets / base, ds)
        name = data.draw(st.sampled_from(sorted(p.name for p in ds.iterdir())))
        path = ds / name
        expect = None  # the exit code the damage must give, when it fixes one
        if data.draw(st.booleans(), label="delete") and name != "meta.json":
            path.unlink()
        elif name == "meta.json":
            meta = json.loads(path.read_text())
            key = data.draw(st.sampled_from(["n_periods", "n_individuals", "has_z", "variant",
                                             "config.n_periods", "config.variant",
                                             "format_version", "n_drawn"]))
            target = meta["config"] if key.startswith("config.") else meta
            field, value = key.rpartition(".")[2], data.draw(META_VALUES)
            # Format 2 is the only one read, and a censored panel draws exactly its N
            # individuals.
            if key in ("format_version", "n_drawn") and (type(value), value) != (int, meta[key]):
                expect = 2
            target[field] = value
            path.write_text(json.dumps(meta))
        else:
            path.write_bytes(data.draw(table_damage(path.read_bytes())))
        code = main(["estimate", "--data", str(ds), "--out", f"{tmp}/out"])
    assert code == expect if expect is not None else code in (0, 2, 3)
    if code == 0:
        assert capsys.readouterr().err == ""
    else:
        single_json_line(capsys)
