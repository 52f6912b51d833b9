"""The package parses as the oldest Python it supports (requires-python >= 3.10)."""

import ast
from pathlib import Path

import pytest

import coexsim

SOURCES = sorted(Path(coexsim.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
