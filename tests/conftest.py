"""Shared fixtures."""

import pytest

from rankwarp import correspondence


@pytest.fixture
def ranking_cpus(monkeypatch):
    """Set the CPU count ``rank_blocks`` sees, with chunks of 16 query blocks.

    A 16x16 grid at 2x2 blocks (64 blocks) then ranks on two threads when the
    returned setter is given 2, and serially when it is given 1.
    """
    monkeypatch.setattr(correspondence, "_CHUNK", 16)

    def use(cpus):
        monkeypatch.setattr(correspondence, "_cpus", lambda: cpus)

    return use
