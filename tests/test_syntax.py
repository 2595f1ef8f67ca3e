"""Every Python file of the package, its tests and its benchmark harness
parses as Python 3.10, the oldest version ``requires-python`` admits."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "perfbench")
FILES = sorted([path for name in DIRS for path in (ROOT / name).rglob("*.py")])


def test_every_directory_has_python_files():
    assert {path.relative_to(ROOT).parts[0] for path in FILES} == set(DIRS)


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
