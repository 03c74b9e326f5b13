import pytest

from resmono import verification as vf


@pytest.fixture(scope="session")
def verify_case():
    """Assert that the cases of one ``resmono verify --seed 0`` suite pass.

    ``verify_case(suite)`` checks every case of the suite and
    ``verify_case(suite, name)`` the one named case.  Each suite runs once per
    session; its invariants and instances live only in ``resmono.verification``.
    """
    cache = {}

    def check(suite, name=None):
        if suite not in cache:
            cache[suite] = vf.run_suites([suite], seed=0)
        results = [r for r in cache[suite] if name in (None, r.name)]
        assert results, f"no case {suite}.{name}"
        assert all(r.suite == suite for r in results)
        failed = [f"{r.name} ({r.detail})" for r in results if not r.ok]
        assert not failed, failed

    return check
