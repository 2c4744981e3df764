"""Deterministic text serialization, and the one decoder of user-written JSON.

Floats in derived outputs are written with 9 significant digits so repeated
runs produce byte-identical files across platforms; NaN becomes the empty
field in CSV and null in JSON.  JSON a person reads is indented; model.json,
which only the program reads, is one compact line.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import numbers
import sys
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np


def fmt9(value) -> str:
    """9-significant-digit text for a float; empty string for missing."""
    if value is None:
        return ""
    v = float(value)
    if math.isnan(v):
        return ""
    return f"{v:.9g}"


def round9(obj):
    """Recursively round floats to 9 significant digits; NaN/inf become None.
    An object of any other type is returned as it is."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {str(k): round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round9(v) for v in obj]
    return obj  # any other object is json's to refuse


def round9_array(values) -> list:
    """round9 of a 1-D or 2-D float array, as (nested) lists."""
    a = np.asarray(values, dtype=np.float64)
    flat = [float(f"{v:.9g}") if math.isfinite(v) else None for v in a.ravel().tolist()]
    if a.ndim == 1:
        return flat
    width = a.shape[1]
    return [flat[i:i + width] for i in range(0, len(flat), width)]


def config_hash(config_doc: dict) -> str:
    """Short stable hash of a canonicalized config document."""
    canonical = json.dumps(round9(config_doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


STAMP_PREFIX = "# config_hash="


def write_csv(path: str | Path, columns: list[str], rows: list[list], cfg_hash: str):
    """CSV with a config-hash comment line; cell values already stringified."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{STAMP_PREFIX}{cfg_hash}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def read_csv(path: str | Path) -> tuple[str | None, list[str], list[tuple[int, list[str]]]]:
    """Read a CSV written by write_csv in one pass: its config-hash stamp (None
    when the first line holds none), its columns, and each row as (line number,
    cells), skipping comment and blank lines.  A row of another width than the
    header raises ValueError naming its line."""
    with open(path, "r", encoding="utf-8") as fh:
        numbered = list(enumerate(fh, 1))
    head = numbered[0][1].rstrip("\n") if numbered else ""
    stamp = head.removeprefix(STAMP_PREFIX) if head.startswith(STAMP_PREFIX) else None
    lines = [(n, line.rstrip("\n")) for n, line in numbered if not line.startswith("#")]
    columns = lines[0][1].split(",") if lines else []
    rows = []
    for lineno, line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"{path}:{lineno}: expected {len(columns)} fields, got {len(cells)}")
        rows.append((lineno, cells))
    return stamp, columns, rows


def write_json(path: str | Path, doc: dict, cfg_hash: str | None = None):
    doc = dict(doc)
    if cfg_hash is not None:
        doc["config_hash"] = cfg_hash
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(round9(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_compact_json(path: str | Path, doc: dict, cfg_hash: str):
    """write_json's document on one line, for a doc whose floats are already
    rounded (round9_array): skipping round9 and the indent lets json's C
    encoder write it."""
    text = json.dumps(
        {**doc, "config_hash": cfg_hash}, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


class DecodeError(ValueError):
    """A JSON document that does not fit its dataclass, or breaks a rule the
    dataclass checks on construction.  `key` is the top-level key or section
    at fault, or None for the document itself."""

    def __init__(self, path: tuple, message: str):
        self.path = tuple(path)
        self.key = path[0] if path else None
        self.reason = message
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        super().__init__(f"{where.lstrip('.')} {message}" if path else message)

    def __reduce__(self):
        return type(self), (self.path, self.reason)


def decode(cls, doc, default=None, path: tuple = ()):
    """The frozen dataclass `cls` from the JSON object `doc`, by the rule in README's
    "Input documents".  A key `doc` lacks takes `default`'s value, else the field's
    default (never a default_factory); `path` is where `doc` sits in the document.
    A ValueError the dataclass raises on construction is a DecodeError at `path`."""
    if not isinstance(doc, dict):
        raise DecodeError(path, f"must be a JSON object, got {doc!r}" if path
                          else f"expected a JSON object, got {type(doc).__name__}")
    hints = get_type_hints(cls)
    unknown = sorted(doc.keys() - hints.keys())
    if unknown:
        raise DecodeError(path + (unknown[0],), "is not a known key")
    values = {}
    for f in fields(cls):
        fallback = getattr(default, f.name, f.default)
        if f.name in doc:
            values[f.name] = _decode_value(hints[f.name], doc[f.name], fallback, path + (f.name,))
        elif fallback is MISSING:
            raise DecodeError(path + (f.name,), "is required")
        else:
            values[f.name] = fallback
    try:
        return cls(**values)
    except ValueError as exc:
        raise DecodeError(path, str(exc)) from exc


def _decode_value(hint, value, default, path: tuple):
    if type(None) in get_args(hint):
        if value is None:
            return None
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    if is_dataclass(hint):
        return decode(hint, value, default, path)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if get_origin(hint) is tuple:
        kind, fits = "a list", isinstance(value, list)
    elif isinstance(hint, enum.EnumMeta):
        allowed = [member.value for member in hint]
        kind, fits = f"one of {allowed}", value in allowed
    elif hint is float:
        kind, fits = "a finite number", number and abs(value) <= sys.float_info.max
    elif hint is int:
        kind, fits = "an integer", number and (isinstance(value, int) or value.is_integer())
    else:
        kind, fits = f"a {hint.__name__}", isinstance(value, hint)
    if not fits:
        raise DecodeError(path, f"must be {kind}, got {value!r}")
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return tuple(_decode_value(item, v, None, path + (i,)) for i, v in enumerate(value))
    return hint(value)
