"""The package runs on numpy alone: no scipy module is loaded, even after
solves that take both the closed-form and the iterative path.  And the KKT
certificate binds no name from the solver it checks."""

import json

from conftest import run_python

CHILD = """
import json, sys
import numpy as np
import crbeam.cli, crbeam.verification
from crbeam.feasibility import compute_p_low
from crbeam.pipeline import solve_scenario
from crbeam.scenario import Scenario, generate_channel
from crbeam.verification import kkt_residuals

paper = Scenario(64, 8, 100.0, np.full(8, 10.0), 1.0)
isotropic = solve_scenario(paper, generate_channel(paper, 1))
probe = Scenario(8, 2, 1.0, np.full(2, 10.0), 1.0)
channel = generate_channel(probe, 7)
scenario = Scenario(8, 2, 3.0 * compute_p_low(probe, channel).p_low, np.full(2, 10.0), 1.0)
solved = solve_scenario(scenario, channel)
kkt = kkt_residuals(solved.solution, scenario, channel)
print(json.dumps({
    "isotropic": isotropic.degenerate,
    "status": solved.solve_report.status,
    "stationarity": kkt["stationarity"],
    "scipy": sorted(name for name in sys.modules if name.startswith("scipy")),
}))
"""

CERTIFICATE_CHILD = """
import json
import crbeam.verification
print(json.dumps(sorted(
    name for name, value in vars(crbeam.verification).items()
    if getattr(value, "__module__", None) == "crbeam.rbal" or getattr(value, "__name__", None) == "crbeam.rbal"
)))
"""


def run_child(code):
    """json.loads of what `code` prints in a fresh interpreter that imports this crbeam."""
    out = run_python("-c", code)
    out.check_returncode()
    return json.loads(out.stdout)


def test_solves_load_no_scipy():
    report = run_child(CHILD)
    assert report["isotropic"] is True
    assert report["status"] == "converged"
    assert report["stationarity"] < 1e-6
    assert report["scipy"] == []


def test_certificate_binds_nothing_from_the_solver():
    assert run_child(CERTIFICATE_CHILD) == []
