"""Start-up cost: no command loads the scipy quadrature stack, the
`scipy.linalg` package or a process pool, and only the commands that solve
load scipy's LAPACK extension.

Only the univariate quadrature oracle needs `scipy.integrate` and
`scipy.special`, and only a multi-worker Monte Carlo study needs
`multiprocessing`. The solver helpers load the one extension
`scipy.linalg._flapack` on first use, never the `scipy.linalg` package,
whose import also loads `numpy.f2py` and `numpy.testing`. So `import
tobitiv`, `simulate`, `verify` and the dense instrument view of a stacked
system run without the extension, `estimate` and `montecarlo` must load it,
and no command loads the package. Each case runs in a fresh interpreter,
because this test process has loaded those modules already.
"""

import json
import os
import subprocess
import sys

import pytest

from tobitiv.cli import main
import test_cli
from test_cli import sim_config, write_config

NOT_LOADED = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.stats",
              "scipy.sparse", "scipy.linalg", "numpy.f2py", "numpy.testing", "multiprocessing")
SOLVER = "scipy.linalg._flapack"
SOLVING = ("estimate", "montecarlo")  # the commands that solve a moment system

SCRIPT = """
import json, sys
import tobitiv
argv, names = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if argv:
    from tobitiv.cli import main
    assert main(argv) == 0
print(json.dumps([name for name in names if name in sys.modules]))
"""


def run_fresh(script, *args):
    """The last line that `script` prints, run with `args` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_after(argv):
    """The NOT_LOADED modules and SOLVER, those of them in `sys.modules` after
    `import tobitiv` and `main(argv)`."""
    return json.loads(run_fresh(SCRIPT, json.dumps(argv), json.dumps([*NOT_LOADED, SOLVER])))


def command(name, tmp_path):
    if name == "import":
        return []
    if name == "simulate":
        return ["simulate", "--config", sim_config(tmp_path), "--out", str(tmp_path / "ds")]
    if name == "estimate":
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", sim_config(tmp_path), "--out", str(ds)]) == 0
        return ["estimate", "--data", str(ds), "--out", str(tmp_path / "est")]
    if name == "montecarlo":
        cfg = test_cli.TestMonteCarlo().mc_config(tmp_path, replications=2)
        return ["montecarlo", "--config", cfg, "--out", str(tmp_path / "mc"), "--workers", "1"]
    cfg = write_config(tmp_path, "v.json", {"n_points": 2, "orders": [[1, 1]]})
    return ["verify", "--config", cfg, "--out", str(tmp_path / "v")]


@pytest.mark.parametrize("name", ["import", "simulate", "estimate", "montecarlo", "verify"])
def test_command_loads_no_quadrature_or_pool_modules(tmp_path, name):
    assert loaded_after(command(name, tmp_path)) == ([SOLVER] if name in SOLVING else [])


DENSE_VIEW = f"""
import sys
from tobitiv import EstimatorSpec, PanelConfig, build_estimation_system, simulate
config = PanelConfig(variant="NonStationary", n_individuals=300, n_periods=3, n_regressors=1,
                     beta=(1.0,), error_cov=((0.25, 0.1, 0.0), (0.1, 0.5, 0.0), (0.0, 0.0, 0.4)),
                     seed=5)
system = build_estimation_system(simulate(config), config, EstimatorSpec(orders=((1, 1), (2, 1))))
assert len(system.instrument_blocks) > 1 and system.instruments.ndim == 2
print([name for name in {[*NOT_LOADED, SOLVER]!r} if name in sys.modules])
"""


def test_dense_instruments_of_a_stacked_system_load_no_solver():
    assert run_fresh(DENSE_VIEW) == "[]"


REUSE = """
import sys
from tobitiv.gmm import _lapack
lapack = _lapack()
assert "scipy.linalg" not in sys.modules
import scipy.linalg
print(scipy.linalg.lapack._flapack is lapack and scipy.linalg.lapack.dgeqp3 is lapack.dgeqp3)
"""


def test_a_later_scipy_linalg_import_reuses_the_loaded_extension():
    assert run_fresh(REUSE) == "True"
