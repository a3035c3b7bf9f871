"""The output comparison tool's gap between the numbers of two reports."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture
def compare(monkeypatch):
    # the tool puts perfbench/ on the path and turns bytecode writing off;
    # both are restored after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_rounding_sign_flip_reads_as_rounding(compare):
    parent = '{"i_before": 4.0, "i_after": 3.9999999999999996, "gap": 4.440892098500626e-16}'
    change = '{"i_before": 4.0, "i_after": 4.000000000000001, "gap": -8.881784197001252e-16}'
    assert compare.relative_gap(parent, change) < 1e-12


def test_a_relative_move_reads_as_its_size(compare):
    assert compare.relative_gap('"value": 6.0', '"value": 6.000006') == pytest.approx(1e-6, rel=1e-5)
    assert compare.relative_gap('"value": -250.0', '"value": -250.00025') == pytest.approx(
        1e-6, rel=1e-5)
    assert compare.relative_gap("1 2", "1") is None
