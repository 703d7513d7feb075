"""How artifacts reach disk, and how values from outside are checked: a
command's files are written by one write_tree call, which replaces each
top-level file or directory whole and writes nothing for a failed run; JSON is read through
JsonObject, numbers by is_number."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import re
import shutil
import typing
from types import NoneType
from typing import Callable, Iterable, Set, Tuple

__all__ = ["json_text", "write_tree", "read_json", "is_file_stem", "is_number", "sizes",
           "JsonObject", "REQUIRED"]

_FILE_STEM = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")
REQUIRED = dataclasses.MISSING  # as a default, makes JsonObject.get require its key

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", list: "a list", dict: "an object", NoneType: "null"}


def json_text(data: object) -> str:
    """The text of every JSON artifact: one-space indents and a final newline."""
    return json.dumps(data, indent=1) + "\n"


def write_tree(directory: str, files: Iterable[Tuple[str, str]]) -> None:
    """Write each (relative path, UTF-8 text) of `files` under `directory`.

    Every file goes first into a temp directory named with the process id, in
    `directory` or, when it is absent, in its nearest existing ancestor. Only
    once all are written is `directory` made, if need be, and each top-level
    entry moved in: a file by os.replace, a subdirectory swapped in whole. If
    `files` or a write raises first, only the temp directory is removed:
    nothing else was made or changed."""
    directory = base = os.path.abspath(directory)
    while not os.path.isdir(base):
        base = os.path.dirname(base)
    tmp = os.path.join(base, f".{os.getpid()}.tmp")
    try:
        os.mkdir(tmp)
        for relpath, text in files:
            path = os.path.join(tmp, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        os.makedirs(directory, exist_ok=True)
        for name in sorted(os.listdir(tmp)):
            new, old = os.path.join(tmp, name), os.path.join(directory, name)
            if os.path.isdir(new) and os.path.isdir(old):
                os.rename(old, f"{old}.{os.getpid()}.old")
                os.rename(new, old)
                shutil.rmtree(f"{old}.{os.getpid()}.old")
            else:
                os.replace(new, old)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def read_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def is_file_stem(name: object) -> bool:
    """Whether `name` names a file in a directory without leaving it."""
    return type(name) is str and _FILE_STEM.fullmatch(name) is not None


def is_number(value: object, kind: type) -> bool:
    """Whether `value` is a `kind` (numbers.Integral or numbers.Real), never a bool.
    A plain int is both and skips the slower ABC check."""
    return type(value) is int or isinstance(value, kind) and not isinstance(value, bool)


def sizes(name: str, values: Iterable[object]) -> Tuple[int, ...]:
    """`values` as a tuple of ints: at least one, each an integer >= 1 (see
    is_number); otherwise a ValueError naming `name`."""
    out = tuple(values)
    if not out or not all(is_number(n, numbers.Integral) for n in out) or min(out) < 1:
        raise ValueError(f"{name} must be a non-empty list of integers >= 1, got {values!r}")
    return tuple(int(n) for n in out)


class JsonObject:
    """A JSON object from outside the program, read one key at a time.

    Each key is named once, where it is read, and its type is checked there
    by `type()`, so JSON `true` never passes as 1, nor 2.7 as an integer,
    nor the `NaN` or `Infinity` that `json` reads as a number.
    `close()` rejects every key that nothing read. Errors are ValueErrors
    that name the key's path, e.g. `config.train.max_epochs`."""

    def __init__(self, data: object, path: str):
        if type(data) is not dict:
            raise ValueError(f"{path} must be an object, got {data!r}")
        self.path = path
        self._data = data
        self._read: Set[str] = set()

    def get(self, key: str, default: object, types: Tuple[type, ...],
            check: Callable[[object], bool] | None = None, want: str = "") -> object:
        """The value at `key`, a list as a tuple, or `default` when the key is
        absent (REQUIRED makes it required); null reads as absent when
        `default` is None. Any other value's type must be one of `types`, and
        it must pass `check`, which `want` words."""
        self._read.add(key)
        if key not in self._data:
            if default is REQUIRED:
                raise ValueError(f"missing required key {key!r} in {self.path}")
            return default
        value = self._data[key]
        if value is None and default is None:
            return None
        bad = type(value) not in types or type(value) is float and not math.isfinite(value)
        if bad or (check and not check(value)):
            types += (NoneType,) if default is None and NoneType not in types else ()
            names = " or ".join(_TYPE_NAMES[t] for t in types if t is not int or float not in types)
            raise ValueError(f"{self.path}.{key} must be {want or names}, got {value!r}")
        return tuple(value) if type(value) is list else value

    def section(self, key: str, default: object) -> "JsonObject | None":
        """The object at `key`, or `default` (see get)."""
        data = self.get(key, default, (dict,))
        return None if data is None else JsonObject(data, f"{self.path}.{key}")

    def build(self, cls: type, **defaults: object) -> object:
        """Dataclass `cls` with each field read under its own name and typed by
        its annotation, a float field also taking an integer; `defaults`
        override the class defaults. Closes this object."""
        hints = typing.get_type_hints(cls)
        values = {}
        for f in dataclasses.fields(cls):
            types = typing.get_args(hints[f.name]) or (hints[f.name],)
            types += (int,) if float in types else ()
            values[f.name] = self.get(f.name, defaults.get(f.name, f.default), types)
        self.close()
        try:
            return cls(**values)
        except ValueError as exc:
            raise ValueError(f"{self.path}: {exc}") from exc

    def close(self) -> None:
        """Reject every key that nothing read."""
        unknown = set(self._data) - self._read
        if unknown:
            raise ValueError(f"unknown key(s) {sorted(unknown)} in {self.path}")
