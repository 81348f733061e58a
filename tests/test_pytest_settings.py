"""The pytest settings of this project, run on a throwaway test module."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_lets_the_run_finish(pytester):
    # A failing hypothesis test makes its plugin import libcst, which warns on import;
    # under filterwarnings = ["error"] alone that ended the run in an INTERNALERROR.
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    test_file = pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    # A new process, so the warning fires even if this one has imported libcst.
    result = pytester.runpytest_subprocess(str(test_file), "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
