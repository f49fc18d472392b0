import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import framescale; "
         "print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))",
         str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_import_builds_no_subset_table():
    # enumeration tables are built on first use, so importing pays for none
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import framescale; "
         "from framescale.expansion import _subset_table; "
         "print(_subset_table.cache_info().currsize)",
         str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "0"
