"""Every demo script, and the README's library tour, runs to completion
against the package in src/ with every warning raised as an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the README's first Python code block
TOUR = (ROOT / "README.md").read_text().split("```python\n", 1)[1]
TOUR = TOUR.split("```", 1)[0]


@pytest.mark.parametrize("args", [[str(p)] for p in DEMOS] + [["-c", TOUR]],
                         ids=[p.name for p in DEMOS] + ["README.md"])
def test_demo_runs(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-W", "error"] + args, cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
