import os
import subprocess
import sys
from pathlib import Path

from test_acceptance import EXAMPLE1_ENUM, EXAMPLE2_ENUM

ROOT = Path(__file__).resolve().parent.parent


def test_reproduce_examples_prints_both_showcases():
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "scripts/reproduce_examples.py", "--skip-oracle"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert EXAMPLE1_ENUM in done.stdout
    assert EXAMPLE2_ENUM in done.stdout
