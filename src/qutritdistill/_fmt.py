"""Deterministic text serialization: 17-significant-digit floats for CSV and
JSON so identical runs produce byte-identical output files. write_csv
writes a table of rows, write_grid_csv a product grid from its axes."""

from __future__ import annotations

import math

import numpy as np

CSV_BLOCK = 4096  # im points per line template in write_grid_csv


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

    The rows go through one float64 array and are formatted in one call:
    "%.17g" renders every finite float exactly as sig17 does, -0.0 as -0,
    and integers as their digits. A table holding NaN or +-inf is respelled
    to NaN and Infinity, as sig17 writes them. The tables are small (a scan
    has at most cli.MAX_SCAN_STEPS rows); grids go through write_grid_csv."""
    arr = np.asarray(rows, dtype=np.float64).reshape(-1, len(header))
    text = (",".join(["%.17g"] * len(header)) + "\n") * len(arr) % tuple(arr.ravel().tolist())
    if not np.isfinite(arr).all():
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n" + text)


def write_grid_csv(path, header: list[str], re_axis, im_axis, c_values, values) -> None:
    """Write the rows (re, im, Re c, Im c, value) of a product grid in the
    order c value, re, im, as write_csv would; values is the value column in
    that order, and every number must be finite. Each axis value is
    formatted once, into line templates of CSV_BLOCK im points with a
    "%.17g" slot for the value only. A run (one re value, one template)
    fills in its re and c texts and formats its values in one call: the
    writer holds the templates (about 50 bytes per im point) and one run."""
    re_texts = ["%.17g" % v for v in re_axis.tolist()]
    n, k = len(im_axis), 0
    # "\0" takes a run's re text, "\1" its c panel's text and value slot
    pieces = ["".join(["\0,%.17g\1" % v for v in im_axis[j:j + CSV_BLOCK].tolist()])
              for j in range(0, n, CSV_BLOCK)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for c in c_values:
            panel = [p.replace("\1", ",%.17g,%.17g,%%.17g\n" % (c.real, c.imag)) for p in pieces]
            for re_text in re_texts:
                for j, template in zip(range(k, k + n, CSV_BLOCK), panel):
                    run = values[j:min(j + CSV_BLOCK, k + n)]
                    fh.write(template.replace("\0", re_text) % tuple(run.tolist()))
                k += n
