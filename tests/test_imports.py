"""Start-up cost: no command loads the scipy quadrature stack or a process pool.

Only the univariate quadrature oracle needs `scipy.integrate` and
`scipy.special`, and only a multi-worker Monte Carlo study needs
`multiprocessing`. Each case runs in a fresh interpreter, because this test
process has loaded those modules already.
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
              "scipy.sparse", "multiprocessing")

SCRIPT = """
import json, sys
import tobitiv
argv, names = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if argv:
    from tobitiv.cli import main
    assert main(argv) == 0
print(json.dumps([name for name in names if name in sys.modules]))
"""


def loaded_after(argv):
    """The NOT_LOADED modules in `sys.modules` after `import tobitiv` and `main(argv)`."""
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argv), json.dumps(NOT_LOADED)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
    assert loaded_after(command(name, tmp_path)) == []
