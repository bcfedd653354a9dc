import pytest


@pytest.fixture(autouse=True)
def _cache_in_tmp(tmp_path, monkeypatch):
    """Point the default result cache at a file of the test's own, so a
    command run without --cache neither writes into the working directory
    nor reads a record an earlier run left there."""
    monkeypatch.setenv("TURAN_WORKBENCH_CACHE", str(tmp_path / "default_cache.jsonl"))
