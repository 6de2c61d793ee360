"""Deterministic number/CSV/JSON emitters for CLI artifacts.

Floats are printed with %.17g, which reconstructs any float64 exactly on
parse; CSV uses LF endings; JSON objects keep insertion order and use the
same float format. Two runs with identical inputs therefore produce
byte-identical artifacts.
"""
from __future__ import annotations

from typing import Iterable, Sequence


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _scalar(v) for v in row))
    return "\n".join(lines) + "\n"


def json_text(obj, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}"{k}": {json_text(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(_scalar(v) for v in obj) + "]"
        parts = [f"{inner}{json_text(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _scalar(obj)


def _scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(v).__name__}")
