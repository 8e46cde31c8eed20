"""The package's text codec: the float format, the one file writer and the tagged format.

A tagged file starts with '<NAME> v1 <key>=<value> <key>=<value>'; its readers'
ValueErrors name the file and the 1-based line, blank lines counted.
"""

from __future__ import annotations

import os
from itertools import chain
from pathlib import Path

import numpy as np

from . import _native

# Decimal text with the 17 significant digits that read back as the same float64.
float_text = "%.17g".__mod__


def write_lines(path, lines) -> None:
    """Write each line and a newline to a temporary file beside path, then rename it over path.

    A failure leaves path as it was.  There is no fsync; the mode is a plain write's.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_tagged(path, name: str, header: dict, body) -> None:
    """Write a tagged file: the '<name> v1 <key>=<value> ..' header line, then the body lines."""
    head = " ".join([name, "v1", *(f"{key}={value}" for key, value in header.items())])
    write_lines(path, chain([head], body))


def _read_tagged(path, name: str, keys: tuple[str, str]):
    """Split a '<name> v1 <key>=.. <key>=..' file into header location, values and body.

    Every tagged loader starts here.  The body streams as (lineno, line) per nonblank line;
    a blank line is one that str.split() splits into nothing.
    """
    lines = enumerate(Path(path).read_text().splitlines(), start=1)
    body = ((lineno, line) for lineno, line in lines if line and not line.isspace())
    lineno, head = next(body, (None, None))
    if head is None:
        raise ValueError(f"{path}: empty file")
    head = head.split()
    if len(head) != 4 or head[:2] != [name, "v1"] or not all(
        field.startswith(f"{key}=") for field, key in zip(head[2:], keys)
    ):
        expected = " ".join([name, "v1", *(f"{key}=<{key}>" for key in keys)])
        raise ValueError(f"{path}:{lineno}: expected header '{expected}', got {' '.join(head)!r}")
    return f"{path}:{lineno}", [field.split("=", 1)[1] for field in head[2:]], body


def _field(token: str, convert, valid, where: str, what: str):
    """convert(token), which valid() must accept; else a ValueError saying what it must be."""
    try:
        value = convert(token)
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise ValueError(f"{where}: {what}, got {token!r}")
    return value


def _count(token: str, what: str, where: str, low: int = 1) -> int:
    return _field(token, int, lambda v: v >= low, where, f"{what} must be an integer >= {low}")


def _row(fields: list[str], size: int, where: str) -> np.ndarray:
    """A whole line as exactly size finite float64 values."""
    try:
        values = np.array(fields, dtype=np.float64)
    except ValueError:
        values = None
    if values is None or values.size != size or not np.all(np.isfinite(values)):
        raise ValueError(f"{where}: expected {size} finite numbers, got {len(fields)} fields")
    return values


def _rows(path, block: list[tuple[int, str]], cols: int) -> np.ndarray:
    """Each (lineno, line) of block as exactly cols finite float64 values, as _row reads it.

    The compiled parser reads the lines of plain decimal tokens, with float()'s bits, and
    hands back each line it refuses, which _row reads or rejects with the ValueError naming
    its line.  Without a compiler every line goes through _row, as it does where some line
    is too short to hold cols values, so a header's cols sizes no array beyond the file.
    """
    lines = [line for _, line in block]
    text = np.frombuffer("\n".join(lines).encode(), dtype=np.uint8)
    lib = _native.library()
    # cols values and the newline after them take at least 2 cols bytes a line
    if lib is None or text.size + 1 < 2 * cols * len(lines):
        return np.array([_row(line.split(), cols, f"{path}:{lineno}") for lineno, line in block])
    out = np.empty((len(lines), cols))
    row = start = 0  # the next line to read and its first byte in text
    while row < len(lines):
        read = lib.parse_floats(text[start:], text.size - start, len(lines) - row, cols, out[row:])
        start += sum(map(len, lines[row : row + read])) + read  # the lines it read are ASCII
        row += read
        if row < len(lines):
            lineno, line = block[row]
            out[row] = _row(line.split(), cols, f"{path}:{lineno}")
            start += len(line.encode()) + 1
            row += 1
    return out


def _zeros(shape, where: str) -> np.ndarray:
    """Zeroed float64 coefficients of a header-given shape; too large a shape is a ValueError."""
    try:
        return np.zeros(shape)
    except (MemoryError, ValueError):  # numpy raises ValueError past its maximum array size
        raise ValueError(f"{where}: cannot allocate coefficients of shape {shape}") from None


def _counted(path, body, count_text: str, head: str):
    """Yield (where, fields) per body line; there must be as many as the header's count=."""
    count = _count(count_text, "count", head, low=0)
    rows = 0
    for rows, (lineno, line) in enumerate(body, start=1):
        if rows > count:
            raise ValueError(f"{path}:{lineno}: more rows than count={count}")
        yield f"{path}:{lineno}", line.split()
    if rows != count:
        raise ValueError(f"{head}: count={count} but the file has {rows} rows")


def _records(path, body, n: int, layout: dict[str, tuple[int, int]]):
    """Yield (where, tag, indices, values) per body line; reject malformed or repeated lines.

    ``layout`` maps each tag to its number of indices (each in [0, n)) and of values.
    """
    seen: set[tuple] = set()
    for lineno, line in body:
        tag, *args = line.split()
        where = f"{path}:{lineno}"
        if tag not in layout:
            raise ValueError(f"{where}: unrecognized line starting with {tag!r}")
        n_indices, n_values = layout[tag]
        if len(args) != n_indices + n_values:
            raise ValueError(
                f"{where}: a {tag} line takes {n_indices + n_values} fields, not {len(args)}"
            )
        indices = tuple(
            _field(t, int, lambda v: 0 <= v < n, where, f"an index must lie in [0, {n})")
            for t in args[:n_indices]
        )
        if (tag, indices) in seen:
            raise ValueError(f"{where}: duplicate {tag} line")
        seen.add((tag, indices))
        values = [
            _field(t, float, np.isfinite, where, "a value must be finite") for t in args[n_indices:]
        ]
        yield where, tag, indices, values
