"""The line classes of tools/loc.py, on a synthetic module."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "loc.py")

MODULE = '''"""Module docstring.

Second paragraph.
"""

import math  # a trailing comment keeps this a code line

# a comment line

TEXT = """a string that is
not a docstring"""


class Thing:
    """One-line class docstring."""

    def size(self):
        """Function docstring
        on two lines."""
        return math.pi  # pi
'''


@pytest.fixture
def loc():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_of_a_synthetic_module(loc):
    assert loc.count(MODULE) == {
        "total": 20, "code": 6, "docstring": 7, "comment": 1, "blank": 6
    }


def test_table_totals_each_file(loc, tmp_path):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    lines = loc.table(str(tmp_path)).splitlines()
    assert [line.split()[0] for line in lines] == ["file", "a.py", "b.py", "total"]
    assert lines[2].split()[1:] == ["3", "1", "0", "1", "1"]
    assert lines[3].split()[1:] == ["23", "7", "7", "2", "7"]
