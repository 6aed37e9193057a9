"""Deterministic text serialization: 17-significant-digit floats for CSV and
JSON so identical runs produce byte-identical output files. write_csv
writes a table of rows, write_grid_csv a product grid from its axes.

Every float is written as "%.17g" writes it; NaN and +-inf are spelled
NaN, Infinity and -Infinity, as in the JSON payloads. The value column of
a grid is formatted by _sig17_block, which gives those bytes from numpy
arithmetic, a block of values at a time:

- Exact domain: finite x with 1e-4 <= |x| < 1e17, where "%.17g" writes
  fixed notation with no exponent. Zeros, non-finite values and the rest
  go one value at a time through sig17.
- With E = floor(log10 |x|) (clipped to [-4, 16]), the 17 digits are
  N = round(|x| * 10**(16 - E)). 10**k is an exact double for
  0 <= k <= 22, so the Dekker/Veltkamp two-product gives the product
  exactly as hi + lo: each factor splits into two 26-bit halves whose
  four products are exact doubles, and no step under- or overflows in
  the domain. No longdouble is used, as its width depends on the platform.
- Rounding: from 1e16 on a double is an even integer, so N = hi +
  rint(lo) rounds half to even, as "%.17g" does. A product below 1e16 or
  an N of 10**17 or more means log10 missed E by one, or the digits carry
  into a new decade; those values go through sig17 as well.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

CSV_BLOCK = 2048  # im points per line template, and values per _sig17_block call, in write_grid_csv

_POW10 = np.array([10 ** k for k in range(21)], dtype=np.float64)  # exact doubles
# "%04d" % i for i < 10**4, and "-0." plus one digit, as native 4-byte words
_DIGITS4 = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
            % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_LEAD = np.frombuffer(b"-0.0-0.1-0.2-0.3-0.4-0.5-0.6-0.7-0.8-0.9", dtype=np.uint32)
# byte positions in a _sig17_block row: "-0." + 17 digits + NUL padding
_MINUS, _ZERO, _POINT, _DIGIT0, _NUL = 0, 1, 2, 3, 23


def _split(v):
    """Veltkamp split of a float64 array into halves of at most 26 bits."""
    t = v * 134217729.0  # 2**27 + 1
    hi = t - (t - v)
    return hi, v - hi


_POW10_HI, _POW10_LO = _split(_POW10)


@functools.cache
def _layouts() -> np.ndarray:
    """Row gather indices of every text in the exact domain, keyed by
    (negative * 21 + E + 4) * 17 + significant digits - 1."""
    table = np.full((2, 21, 17, 24), _NUL, dtype=np.uint8)
    for neg, e, kept in itertools.product((0, 1), range(-4, 17), range(1, 18)):
        digits = [_DIGIT0 + d for d in range(max(kept, e + 1))]
        if e < 0:
            body = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits
        elif kept > e + 1:
            body = digits[:e + 1] + [_POINT] + digits[e + 1:]
        else:
            body = digits
        text = [_MINUS] * neg + body
        table[neg, e + 4, kept - 1, :len(text)] = text
    table.flags.writeable = False
    return table.reshape(-1, 24)


def _digit_words(n) -> np.ndarray:
    """The rows "-0." + the 17 digits of each int64 n in [10**16, 10**17) +
    NUL padding, as (len(n), 6) native 4-byte words. The digits come from
    floor divisions by scalars, n // 10**8 and then // 10**4 of each half,
    with each remainder taken by a subtraction."""
    hi = n // 10 ** 8  # digits 0-8; lo holds digits 9-16
    lo = n - hi * 10 ** 8
    head, tail = hi // 10 ** 4, lo // 10 ** 4  # digits 0-4 and 9-12
    lead = head // 10 ** 4
    words = np.zeros((len(n), 6), dtype=np.uint32)
    words[:, 0] = _LEAD[lead]
    for col, group in enumerate((head - lead * 10 ** 4, hi - head * 10 ** 4,
                                 tail, lo - tail * 10 ** 4), start=1):
        words[:, col] = _DIGITS4[group]
    return words


def _sig17_block(values) -> list[bytes]:
    """b"%.17g" % v for each v of a float64 block, with NaN and +-inf as
    sig17 spells them (module docstring)."""
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    k = 16 - e
    hi = a * _POW10[k]  # with lo, |x| * 10**k exactly
    ah, al = _split(a)
    sh, sl = _POW10_HI[k], _POW10_LO[k]
    lo = ((ah * sh - hi) + ah * sl + al * sh) + al * sl
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (n < 10 ** 17)
    words = _digit_words(np.where(fast, n, 10 ** 16))
    row = words.view(np.uint8)
    kept = 17 - np.argmax(row[:, 19:2:-1] != ord("0"), axis=1)
    idx = np.add(_layouts()[((x < 0) * 21 + e + 4) * 17 + kept - 1],
                 np.arange(0, row.size, 24)[:, None])
    texts = row.ravel().take(idx).view("S24").ravel().tolist()
    for i in np.flatnonzero(~fast).tolist():
        texts[i] = sig17(x[i]).encode()
    return texts


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
    that order, one value per grid point. Each axis value is formatted
    once, into line templates of CSV_BLOCK im points with a value slot
    only. A run (one re value, one template) fills in its re and c texts
    and its values' texts, which _sig17_block formats CSV_BLOCK at a time:
    the writer holds the templates (about 50 bytes per im point), one run
    and one block of texts."""
    if len(values) != len(re_axis) * len(im_axis) * len(c_values):
        raise ValueError(f"{len(values)} values for a {len(re_axis)} x {len(im_axis)} grid "
                         f"on {len(c_values)} c values")
    re_texts = [sig17(v).encode() for v in re_axis.tolist()]
    im_texts = [sig17(v).encode() for v in im_axis.tolist()]
    texts = itertools.chain.from_iterable(map(
        _sig17_block, (values[j:j + CSV_BLOCK] for j in range(0, len(values), CSV_BLOCK))))
    # b"\0" takes a run's re text, b"\1" its c panel's text and value slot
    blocks = [im_texts[j:j + CSV_BLOCK] for j in range(0, len(im_texts), CSV_BLOCK)]
    pieces = [(b"".join(b"\0,%s\1" % t for t in block), len(block)) for block in blocks]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for c in c_values:
            c_text = b",%s,%s,%%s\n" % (sig17(c.real).encode(), sig17(c.imag).encode())
            panel = [(p.replace(b"\1", c_text), size) for p, size in pieces]
            for re_text in re_texts:
                for template, size in panel:
                    fh.write(template.replace(b"\0", re_text) % tuple(itertools.islice(texts, size)))
