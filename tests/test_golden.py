"""Byte-for-byte stdout of the demos and of ``nilcoh catalog suite``.

The files under ``tests/golden/`` hold the recorded stdout of each run.  A
change that alters one byte of it fails here; to accept a deliberate
change, rerun the command and replace its file, e.g.
``PYTHONPATH=src python demos/02_hodge_tables.py > tests/golden/02_hodge_tables.stdout``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {demo.stem: [str(demo)] for demo in (ROOT / "demos").glob("*.py")}
RUNS["catalog_suite"] = ["-m", "nilcoh.cli", "catalog", "suite"]


def test_every_golden_file_has_a_run():
    assert sorted(path.stem for path in GOLDEN.glob("*.stdout")) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_matches_golden(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *RUNS[name]],
        capture_output=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / (name + ".stdout")).read_bytes()
