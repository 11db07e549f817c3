"""Shared pytest fixtures: the paper's example repositories and small helpers."""

from __future__ import annotations

import pytest

from repro.core.oracle import AlwaysUnifyOracle, RandomOracle
from repro.core.chase import ChaseConfig, ChaseEngine
from repro.fixtures import (
    genealogy_mappings,
    genealogy_repository,
    travel_database,
    travel_mappings,
    travel_repository,
)
from repro.storage.versioned import VersionedDatabase


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: takes minutes (tests/test_examples.py's synthetic workload)"
    )


@pytest.fixture
def travel():
    """A fresh copy of the Figure 2 repository: ``(database, mappings)``."""
    return travel_repository()


@pytest.fixture
def travel_db(travel):
    """The Figure 2 database alone."""
    return travel[0]


@pytest.fixture
def travel_maps(travel):
    """The Figure 2 mappings alone."""
    return travel[1]


@pytest.fixture
def travel_engine(travel):
    """A chase engine over the Figure 2 repository with a seeded random oracle."""
    database, mappings = travel
    return ChaseEngine(database, mappings, oracle=RandomOracle(seed=0))


@pytest.fixture
def genealogy():
    """The genealogy repository: ``(database, mappings)``."""
    return genealogy_repository()


@pytest.fixture
def versioned_travel(travel):
    """The Figure 2 repository loaded into a multiversion store."""
    database, mappings = travel
    store = VersionedDatabase(database.schema)
    store.load_initial(database.snapshot())
    return store, mappings


@pytest.fixture
def dying_write(monkeypatch):
    """``dying_write(nth)``: the *nth* file the durable layer writes dies half-way.

    The write keeps the first half of its data and raises ``OSError`` — the
    crash-mid-write that atomic snapshot and checkpoint files must survive.
    """
    from repro.storage import durable

    def arm(nth=1):
        opened = []

        class _DiesHalfWay:
            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def write(self, data):
                self._handle.write(data[:len(data) // 2])
                raise OSError("disk full")

        def fake_open(name, mode):
            handle = open(name, mode)
            if "w" not in mode:
                return handle
            opened.append(name)
            return _DiesHalfWay(handle) if len(opened) == nth else handle

        monkeypatch.setattr(durable, "open", fake_open, raising=False)

    return arm
