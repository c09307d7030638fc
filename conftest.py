import pytest


@pytest.fixture(autouse=True)
def no_niho_environment(monkeypatch):
    """Every test starts from the default budget and table limit: an exported
    NIHO_BUDGET or NIHO_TABLE_LIMIT would otherwise refuse the sweeps the
    tests expect to run.  A test that needs a value sets it itself."""
    monkeypatch.delenv("NIHO_BUDGET", raising=False)
    monkeypatch.delenv("NIHO_TABLE_LIMIT", raising=False)
