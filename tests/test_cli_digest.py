"""How ``tools/cli_digest.py --compare`` classifies two differing outputs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
_SPEC = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)


@pytest.mark.parametrize("old, new, kind", [
    ("flow a b -> c: 0.5\n", "flow ab -> c: 0.5\n", "differs beyond numbers"),
    ("x  y\n", "x y\n", "whitespace only"),
    ('{"a": [1, 2.5], "b": "s t"}', '{\n  "a": [\n    1,\n    2.5\n  ],\n  "b": "s t"\n}\n', "same JSON value"),
    ('{"a": 1.5}', '{"a": 1.25}', "numbers only"),
    ('{"b": 1, "a": 2}', '{"a": 2, "b": 1}', "differs beyond numbers"),
])
def test_classify_names_what_differs(old, new, kind):
    assert cli_digest.classify(old, new)[0] == kind


def test_classify_gives_the_largest_relative_difference_of_changed_numbers():
    assert cli_digest.classify("p 0.25, 4\n", "p 0.5, 4\n") == ("numbers only", 0.5)
    assert cli_digest.classify("p 0.25\n", "p 0.25 \n") == ("whitespace only", None)
