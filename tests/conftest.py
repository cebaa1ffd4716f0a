import pytest


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch):
    # Keep a user-level table cache from leaking into test runs.
    monkeypatch.delenv("PEGBALL_CACHE", raising=False)


@pytest.fixture(scope="session")
def property_results():
    """The unpatched property_suite(seed=0), run once per session."""
    from pegball.verify import property_suite

    # set up before the function-scoped fixture above, so it clears the
    # cache variable itself
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("PEGBALL_CACHE", raising=False)
        return property_suite(seed=0)
