"""Every demo runs to the end, with no package warning, from a clean
directory."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))

# a package warning or a RuntimeWarning is an error, as in the test suite
RUN = (
    "import runpy, sys, warnings\n"
    "from ddefloquet.errors import DdeFloquetWarning\n"
    "warnings.simplefilter('error', DdeFloquetWarning)\n"
    "warnings.simplefilter('error', RuntimeWarning)\n"
    "runpy.run_path(sys.argv[1], run_name='__main__')\n"
)


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs_without_a_warning(path, tmp_path):
    src = os.path.abspath(os.path.join(ROOT, "src"))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", RUN, os.path.abspath(path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout
    assert b"Warning" not in done.stderr, done.stderr.decode()
