"""How an artifact reaches disk, and how JSON from outside is read: each file
is written to a temp file beside it and renamed over it, so a reader sees the
old bytes or the new ones; each JSON object is read through JsonObject."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import typing
from types import NoneType
from typing import Callable, Set, Tuple

__all__ = ["write_text", "write_json", "read_json", "is_file_stem", "JsonObject", "REQUIRED"]

_FILE_STEM = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")
REQUIRED = dataclasses.MISSING  # as a default, makes JsonObject.get require its key

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object", NoneType: "null"}


def write_text(path: str, text: str) -> None:
    """Write UTF-8 text atomically, creating parent directories. The temp name
    carries the process id, so two runs into one directory do not share it."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, data: object) -> None:
    write_text(path, json.dumps(data, indent=1) + "\n")


def read_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def is_file_stem(name: object) -> bool:
    """Whether `name` names a file in a directory without leaving it."""
    return type(name) is str and _FILE_STEM.fullmatch(name) is not None


class JsonObject:
    """A JSON object from outside the program, read one key at a time.

    Each key is named once, where it is read, and its type is checked there
    by `type()`, so JSON `true` never passes as 1, nor 2.7 as an integer.
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
        absent (REQUIRED makes it required). Its type must be one of `types`,
        and a non-null value must pass `check`, which `want` words."""
        self._read.add(key)
        if key not in self._data:
            if default is REQUIRED:
                raise ValueError(f"missing required key {key!r} in {self.path}")
            return default
        value = self._data[key]
        if type(value) not in types or (value is not None and check and not check(value)):
            names = " or ".join(_TYPE_NAMES[t] for t in types if t is not int or float not in types)
            raise ValueError(f"{self.path}.{key} must be {want or names}, got {value!r}")
        return tuple(value) if type(value) is list else value

    def section(self, key: str, default: object) -> "JsonObject | None":
        """The object at `key`. Null reads as None, like an absent key, only
        when `default` is None."""
        data = self.get(key, default, (dict,) if default is not None else (dict, NoneType))
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
