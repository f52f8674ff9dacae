import subprocess
import sys
from pathlib import Path

import pytest

import prs4d


def _without_runtime(csv):
    """CSV text or bytes with each row's runtime_s field left empty.

    runtime_s is the measured wall time of a record, the one column that
    two runs of the same records may differ in; every other byte, the
    header included, is kept. A CSV without that column is returned as is.
    """
    text = csv.decode() if isinstance(csv, bytes) else csv
    header, *rows = text.split("\n")
    names = header.split(",")
    if "runtime_s" in names:
        k = names.index("runtime_s")
        rows = [",".join(f[:k] + [""] + f[k + 1:]) if row else row
                for row in rows for f in [row.split(",")]]
    out = "\n".join([header, *rows])
    return out.encode() if isinstance(csv, bytes) else out


@pytest.fixture
def without_runtime():
    """Compare two runs' CSV through this: only runtime_s may differ."""
    return _without_runtime


@pytest.fixture
def fresh_python():
    """Run code in a new interpreter that imports prs4d from the source tree
    under test, and return its stdout; a non-zero exit fails the test."""
    src = str(Path(prs4d.__file__).resolve().parents[1])

    def run(code: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout
    return run
