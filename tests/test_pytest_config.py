"""The repository's pytest settings: warnings fail tests, not the session."""
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

GENERATED_TESTS = textwrap.dedent(
    """
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(derandomize=True, database=None)
    @given(st.integers(0, 10))
    def test_failing_hypothesis_test(n):
        assert n < 5


    def test_passing_test():
        pass


    def test_numpy_warning_is_an_error():
        np.float64(1.0) / np.float64(0.0)
    """
)


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    """Hypothesis's report hook warns (mypy_extensions.TypedDict is deprecated);
    under the "error" filter alone that warning aborted the whole run with
    INTERNALERROR after the first failing hypothesis test."""
    (tmp_path / "test_generated.py").write_text(GENERATED_TESTS)
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_generated.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = completed.stdout + completed.stderr
    assert "INTERNALERROR" not in output
    assert "2 failed, 1 passed" in output
