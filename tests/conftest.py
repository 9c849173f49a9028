import pytest


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep cache writes away from $HOME."""
    monkeypatch.setenv("POLYSTAB_CACHE", str(tmp_path / "cache"))
    yield
