"""How an artifact reaches disk: each file is written to a temp file beside
it and renamed over it, so a reader sees the old bytes or the new ones."""

from __future__ import annotations

import json
import os

__all__ = ["write_text", "write_json", "read_json"]


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
