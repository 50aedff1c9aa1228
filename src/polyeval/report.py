"""Canonical JSON reports: sorted keys, fixed float formatting.

Floats are rendered with 9 significant digits so reruns with identical
inputs and seeds produce byte-identical reports.
"""
from __future__ import annotations

import json
import math

from .errors import ValidationError


def _render(value, pieces: list[str]) -> None:
    if value is None or value is True or value is False:
        pieces.append(json.dumps(value))
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"non-finite value in report: {value!r}")
        pieces.append(format(value, ".9g"))
    elif isinstance(value, str):
        pieces.append(json.dumps(value, ensure_ascii=False))
    elif type(value) in (list, tuple):  # not a record, which is a tuple too
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(",")
            _render(item, pieces)
        pieces.append("]")
    elif isinstance(value, dict):
        pieces.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                pieces.append(",")
            if not isinstance(key, str):
                raise ValidationError(f"report keys must be strings, got {key!r}")
            pieces.append(json.dumps(key, ensure_ascii=False))
            pieces.append(":")
            _render(value[key], pieces)
        pieces.append("}")
    else:
        raise ValidationError(f"cannot render {type(value).__name__} in a report")


def render_report(report: dict) -> str:
    pieces: list[str] = []
    _render(report, pieces)
    pieces.append("\n")
    return "".join(pieces)

