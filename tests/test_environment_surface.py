"""The runtime's environment surface: every ``REPRO_*`` variable ``src/`` reads.

ROADMAP item 2 retires these one PR at a time (oracles belong in ``tests/``,
not behind a variable), so the set below may only shrink.  A new name here is
a new dual path and needs the same case a new flag does.
"""

import pathlib
import re

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

EXPECTED = {"REPRO_TRACE", "REPRO_FLIGHT_DIR"}


def test_src_reads_exactly_the_pinned_environment_variables():
    names = set()
    for path in SRC_DIR.rglob("*.py"):
        names.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert names == EXPECTED
