"""Shared fixtures."""

import pytest

from rankwarp import cli, correspondence


@pytest.fixture
def ranking_cpus(monkeypatch):
    """Set the CPU count that ``rank_blocks`` and the CSV writer see, with small chunks.

    Ranking takes chunks of 16 query blocks and the CSV writer chunks of 500
    entries.  A 16x16 grid at 2x2 blocks (64 blocks, 3072 entries at k=3 in
    7 chunks) then ranks and formats its CSV on two threads when the returned
    setter is given 2, and on the calling thread alone when it is given 1.
    """
    monkeypatch.setattr(correspondence, "_CHUNK", 16)
    monkeypatch.setattr(cli, "_CSV_CHUNK_ENTRIES", 500)

    def use(cpus):
        monkeypatch.setattr(correspondence, "_cpus", lambda: cpus)

    return use
