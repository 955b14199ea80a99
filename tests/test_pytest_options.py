"""The project's pytest options keep one failing @given test from ending the run."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_given_test_on_a_long_polynomial_ends_only_itself(tmp_path):
    # a falsifying MultiPoly of 2,000 terms reprs as a sum of as many
    # terms; the run must report the example, and go on to the next test
    (tmp_path / "test_long_example.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st
        from toricpke.algebra import MultiPoly

        @given(st.just(MultiPoly(1, {(k,): 1 for k in range(2000)})))
        def test_fails(p):
            assert p.is_zero()

        def test_runs_after():
            pass
    """), encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
         str(tmp_path / "test_long_example.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example: test_fails(" in run.stdout
