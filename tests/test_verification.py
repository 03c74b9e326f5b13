import pytest

from resmono import verification as vf


@pytest.mark.parametrize("suite", sorted(vf.SUITES))
def test_invariant_suite_passes(suite, verify_case):
    verify_case(suite)
