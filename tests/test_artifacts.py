import ast
import json
import os
from pathlib import Path

import pytest

import econocast
from econocast.artifacts import REQUIRED, JsonObject, json_text, read_json, write_tree
from econocast.mlp import TrainConfig


def test_json_text_round_trip_and_format(tmp_path):
    data = {"b": [1, 2.5], "a": None}
    assert json_text(data) == json.dumps(data, indent=1) + "\n"
    write_tree(str(tmp_path / "out"), [("sub/data.json", json_text(data))])
    assert read_json(str(tmp_path / "out" / "sub" / "data.json")) == data
    assert os.listdir(tmp_path) == ["out"] and os.listdir(tmp_path / "out") == ["sub"]


def test_failed_rename_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    out = tmp_path / "out"
    write_tree(str(out), [("report.txt", "old\n")])

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write_tree(str(out), [("report.txt", "new\n")])
    assert (out / "report.txt").read_text() == "old\n"
    assert os.listdir(out) == ["report.txt"]


def _failing(files):
    yield from files
    raise ValueError("built part way")


@pytest.mark.parametrize("directory", ["out", "a/b/out"])
def test_a_failed_first_write_makes_nothing(tmp_path, directory):
    with pytest.raises(ValueError, match="built part way"):
        write_tree(str(tmp_path / directory), _failing([("model/a.json", "{}"), ("x.txt", "x")]))
    assert os.listdir(tmp_path) == []


def test_a_failed_write_leaves_the_previous_tree_exactly(tmp_path):
    out = tmp_path / "out"
    write_tree(str(out), [("report.txt", "old\n"), ("model/a.json", "a"), ("model/b.json", "b")])
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    with pytest.raises(ValueError, match="built part way"):
        write_tree(str(out), _failing([("report.txt", "new\n"), ("model/a.json", "A")]))
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert sorted(os.listdir(out)) == ["model", "report.txt"]


def test_a_subdirectory_is_swapped_whole_and_other_entries_are_kept(tmp_path):
    out = tmp_path / "out"
    write_tree(str(out), [("keep.txt", "k"), ("model/a.json", "a"), ("model/b.json", "b")])
    write_tree(str(out), [("model/a.json", "A"), ("report.txt", "r")])
    assert sorted(os.listdir(out)) == ["keep.txt", "model", "report.txt"]
    assert os.listdir(out / "model") == ["a.json"]
    assert (out / "model" / "a.json").read_text() == "A"
    assert (out / "keep.txt").read_text() == "k"


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


def test_json_object_checks_exact_types_and_unread_keys():
    cfg = JsonObject({"learning_rate": 1, "max_epochs": 9}, "train").build(TrainConfig)
    assert cfg == TrainConfig(learning_rate=1, max_epochs=9) and type(cfg.learning_rate) is int
    with pytest.raises(ValueError, match=r"^train.max_epochs must be an integer, got True$"):
        JsonObject({"max_epochs": True}, "train").build(TrainConfig)
    with pytest.raises(ValueError, match=r"^train: learning_rate must be > 0$"):
        JsonObject({"learning_rate": 0}, "train").build(TrainConfig)
    obj = JsonObject({"a": [1, 2], "b": None, "typo": 0}, "x")
    assert obj.get("a", REQUIRED, (list,)) == (1, 2)
    assert obj.section("b", None) is None and obj.get("c", 5, (int,)) == 5
    with pytest.raises(ValueError, match=r"^missing required key 'd' in x$"):
        obj.get("d", REQUIRED, (int,))
    with pytest.raises(ValueError, match=r"^unknown key\(s\) \['typo'\] in x$"):
        obj.close()


def test_json_object_reads_null_as_absent_only_when_the_default_is_none():
    obj = JsonObject({"a": None, "b": "x", "c": None}, "x")
    assert obj.get("a", None, (int,)) is None
    with pytest.raises(ValueError, match=r"^x.b must be an integer or null, got 'x'$"):
        obj.get("b", None, (int,))
    with pytest.raises(ValueError, match=r"^x.c must be an integer, got None$"):
        obj.get("c", 5, (int,))
    with pytest.raises(ValueError, match=r"^x.c must be an integer, got None$"):
        obj.get("c", REQUIRED, (int,))


def test_only_artifacts_writes_files():
    package = Path(econocast.__file__).parent
    found = {path.name: list(_file_writes(path.read_text())) for path in package.glob("*.py")}
    assert found.pop("artifacts.py") == ["open(path, 'w', encoding='utf-8')"]
    assert {name: calls for name, calls in found.items() if calls} == {}
