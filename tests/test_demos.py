import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "01_tree_structure.py",
        "03_mechanisms.py",
        "04_improper_learner.py",
        "05_proper_learner.py",
        "06_auditing.py",
    ],
)
def test_demo_runs(demo):
    # these demos call make_subtree, optimal_composition (which imports
    # scipy.stats on first use), improper_learn and proper_learn's hooks,
    # and dp_audit on lifted and batched mechanisms
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
