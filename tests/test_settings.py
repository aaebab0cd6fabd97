"""The repository's pytest settings report a failing test and go on."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
'''


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    # under filterwarnings = ["error"] a warning in the hypothesis plugin's
    # report hook once ended the session with INTERNALERROR at the first
    # failing @given test, and the tests after it never ran
    (tmp_path / "test_pair.py").write_text(PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1 and "1 failed, 1 passed" in proc.stdout
