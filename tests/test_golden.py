"""Byte-for-byte stdout of the demos and of the ``nilcoh catalog`` commands.

The files under ``tests/golden/`` hold the recorded stdout of each run:
every demo, ``catalog suite``, ``catalog list``, ``catalog show`` of every
named key, and ``show`` and ``suite`` of a few parametrized keys.  A change
that alters one byte of it fails here; to accept a deliberate change,
rerun the command and replace its file, e.g.
``PYTHONPATH=src python demos/02_hodge_tables.py > tests/golden/02_hodge_tables.stdout``
or ``PYTHONPATH=src python -m nilcoh.cli catalog show iwasawa > tests/golden/catalog_show_iwasawa.stdout``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nilcoh.catalog import catalog_list

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

PARAMETRIZED_KEYS = [
    "torus(5)",
    "exnilp_ones(5)",
    "exnilp(3,A=0,B=[[1,1],[1,1]])",
    "fps_skt(1,2i,0,-1/2,1+i)",
    "product(iwasawa,torus(1))",
]


def _catalog(*args):
    """The run of one ``nilcoh catalog`` command, keyed by a file-safe stem
    (``catalog show fps_skt(1,2i,...)`` -> ``catalog_show_fps_skt_1_2i_...``)."""
    stem = re.sub(r"[^A-Za-z0-9+-]+", "_", "_".join(("catalog",) + args)).strip("_")
    return stem, ["-m", "nilcoh.cli", "catalog", *args]


CATALOG_RUNS = (
    [_catalog("suite"), _catalog("list")]
    + [_catalog("show", key) for key in catalog_list() + PARAMETRIZED_KEYS]
    + [_catalog("suite", key) for key in PARAMETRIZED_KEYS]
)
RUNS = {demo.stem: [str(demo)] for demo in (ROOT / "demos").glob("*.py")}
RUNS.update(CATALOG_RUNS)


def test_every_golden_file_has_a_run():
    assert len(RUNS) == len(list((ROOT / "demos").glob("*.py"))) + len(CATALOG_RUNS)
    assert sorted(path.stem for path in GOLDEN.glob("*.stdout")) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_matches_golden(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # under ``python -O`` the runs are optimized too, so they check stdout
    # with the program's asserts stripped
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, *RUNS[name]],
        capture_output=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / (name + ".stdout")).read_bytes()
