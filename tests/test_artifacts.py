import ast
import json
import os
from pathlib import Path

import pytest

import econocast
from econocast.artifacts import read_json, write_json, write_text


def test_write_json_round_trip_and_format(tmp_path):
    path, data = str(tmp_path / "sub" / "data.json"), {"b": [1, 2.5], "a": None}
    write_json(path, data)
    assert Path(path).read_text() == json.dumps(data, indent=1) + "\n"
    assert read_json(path) == data
    assert os.listdir(tmp_path / "sub") == ["data.json"]


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "report.txt"
    write_text(str(path), "old\n")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write_text(str(path), "new\n")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["report.txt"]


def _file_writes(source):
    """json.dump calls, and open() calls whose mode may write."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "dump":
            yield ast.unparse(node)
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if modes and not (
                isinstance(modes[0], ast.Constant) and not set(modes[0].value) & set("wax+")
            ):
                yield ast.unparse(node)


def test_only_artifacts_writes_files():
    package = Path(econocast.__file__).parent
    found = {path.name: list(_file_writes(path.read_text())) for path in package.glob("*.py")}
    assert found.pop("artifacts.py") == ["open(tmp, 'w', encoding='utf-8')"]
    assert {name: calls for name, calls in found.items() if calls} == {}
