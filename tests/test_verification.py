import pytest

from resmono import verification as vf


@pytest.mark.parametrize("suite", sorted(vf.SUITES))
def test_invariant_suite_passes(suite):
    results = vf.run_suites([suite], seed=0)
    assert results
    assert all(r.suite == suite for r in results)
    failed = [f"{r.name} ({r.detail})" for r in results if not r.ok]
    assert not failed, failed
