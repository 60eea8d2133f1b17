"""The demos run to completion against the current package.

Each demo runs as its own process with `src` on PYTHONPATH, so a
renamed export or a report field that is no longer filled fails here.
The convergence sweep in demos/05 (about 20 s) stays out.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_control_sets_and_averaging.py",
         "02_integration_and_variations.py",
         "03_pmp_certificates.py",
         "04_solve_and_certify.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                            cwd=ROOT, env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
