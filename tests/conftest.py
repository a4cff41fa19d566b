"""Shared fixtures."""

import pytest

from rankwarp import cli, correspondence


@pytest.fixture
def ranking_cpus(monkeypatch):
    """Set the CPU count ``rank_blocks`` sees, with small chunks.

    Ranking takes chunks of 16 query blocks and the CSV writer chunks of 500
    entries.  A 16x16 grid at 2x2 blocks (64 blocks, 3072 entries at k=3)
    then ranks on two threads when the returned setter is given 2, and
    serially when it is given 1; its CSV is written in several chunks either way.
    """
    monkeypatch.setattr(correspondence, "_CHUNK", 16)
    monkeypatch.setattr(cli, "_CSV_CHUNK_ENTRIES", 500)

    def use(cpus):
        monkeypatch.setattr(correspondence, "_cpus", lambda: cpus)

    return use
