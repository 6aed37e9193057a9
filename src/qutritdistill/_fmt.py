"""Deterministic text serialization: 17-significant-digit floats for CSV and
JSON so identical runs produce byte-identical output files."""

from __future__ import annotations

import math

import numpy as np

CSV_BLOCK = 4096  # rows per formatting call in write_csv


def sig17(x: float) -> str:
    """Render a float at 17 significant digits (shortest round-trip superset)."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    s = format(float(x), ".17g")
    return s


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return sig17(v)
    if isinstance(v, str):
        out = ['"']
        for ch in v:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ord(ch) < 0x20:
                out.append("\\u%04x" % ord(ch))
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    raise TypeError(f"unsupported scalar {type(v)!r}")


def json_dumps(obj, _level: int = 0) -> str:
    """JSON writer with sig17 float formatting, stable key order and a
    two-space indent.

    Dict keys keep insertion order (callers construct them deterministically).
    Complex numbers are not accepted; encode them as [re, im] first.
    """
    pad, end = "  " * (_level + 1), "\n" + "  " * _level
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad}{_json_scalar(str(k))}: {json_dumps(v, _level + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + end + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}{json_dumps(v, _level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + end + "]"
    if isinstance(obj, complex):
        raise TypeError("encode complex values as [re, im] pairs before dumping")
    return _json_scalar(obj)


def write_csv(path, header: list[str], rows) -> None:
    """Write numeric rows (a 2-D array, or equal-length lists of floats and
    ints) with LF endings and sig17 floats.

    The rows go through one float64 array and are written CSV_BLOCK rows per
    formatting call: "%.17g" renders every finite float exactly as sig17
    does, and integers as their digits. A block holding NaN or +-inf is
    respelled to NaN and Infinity, as sig17 writes them; finite blocks skip
    that pass.

    A grid's axis columns repeat a few values over many rows, so each column
    keeps a memo from a value's bit pattern to its "%.17g" text and formats
    each distinct value once. Keys are bits, not floats, so -0.0 and 0.0
    stay apart. A column whose memo would pass CSV_BLOCK entries drops it for
    the rest of the file and is formatted cell by cell."""
    arr = np.asarray(rows, dtype=np.float64).reshape(-1, len(header))
    memos: list[dict | None] = [{} for _ in header]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(arr), CSV_BLOCK):
            block = arr[start:start + CSV_BLOCK]
            cells = np.empty(block.shape, dtype=object)
            for j, memo in enumerate(memos):
                texts = None if memo is None else _memo_texts(memo, block[:, j])
                if texts is None:
                    memos[j] = None
                    texts = block[:, j]
                cells[:, j] = texts
            line = ",".join("%.17g" if m is None else "%s" for m in memos) + "\n"
            text = (line * len(block)) % tuple(cells.ravel().tolist())
            if not np.isfinite(block).all():
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            fh.write(text)


def _memo_texts(memo: dict, column: np.ndarray) -> np.ndarray | None:
    """The texts of column as an object array, formatting only the values
    memo lacks and adding them to it; None if memo would pass CSV_BLOCK
    entries."""
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    keys_list = keys.tolist()
    fresh = [i for i, k in enumerate(keys_list) if k not in memo]
    if len(memo) + len(fresh) > CSV_BLOCK:
        return None
    values = keys.view(np.float64).tolist()
    for i in fresh:
        memo[keys_list[i]] = format(values[i], ".17g")
    return np.array([memo[k] for k in keys_list], dtype=object)[inverse]
