"""numpy is pmmwm's only runtime dependency: scipy, which the test suite
uses as a cross-check, must not be imported by the package itself."""

import os
import subprocess
import sys

import pmmwm

SOLVE_AND_LIST_SCIPY = """
import sys
from pmmwm import FimpParams, InstanceSpec, generate, solve
g = generate(InstanceSpec(n1=16, n2=16, m=8, ubar=2, density=0.3,
                          weight_model="CONSISTENT", w_max=50, seed=1))
result = solve(g, 8, 2, FimpParams(max_iterations=3))  # uncertified: 3 iterations run
assert result.stats.iterations == 3
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_solve_imports_no_scipy():
    # A fresh interpreter, so modules the test suite imported do not count.
    src = os.path.dirname(os.path.dirname(pmmwm.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SOLVE_AND_LIST_SCIPY], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
