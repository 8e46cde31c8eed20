"""The package's text codec: the float format, the one file writer and the one reader.

Files are UTF-8 text.  The reader, _Lines, streams a file through one byte buffer
of _BUFFER bytes, which grows only to hold a longer line, and numbers its lines as
Path.read_text().splitlines() does, blank lines counted.  Rows of decimal numbers
go from the buffer to the compiled parser as bytes, every whole line buffered in one
call, so no loader holds a file's text.  A tagged file starts with
'<NAME> v1 <key>=<value> <key>=<value>'; its readers' ValueErrors name the file and
the 1-based line.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import _native

# Decimal text with the 17 significant digits that read back as the same float64.
float_text = "%.17g".__mod__

_BUFFER = 256 * 1024  # the bytes _Lines reads at a time


def write_lines(path, lines) -> None:
    """Write each line and a newline to a temporary file beside path, then rename it over path.

    A failure leaves path as it was.  There is no fsync; the mode is a plain write's.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_tagged(path, name: str, header: dict, body) -> None:
    """Write a tagged file: the '<name> v1 <key>=<value> ..' header line, then the body lines."""
    head = " ".join([name, "v1", *(f"{key}={value}" for key, value in header.items())])
    write_lines(path, chain([head], body))


class _Lines:
    """A UTF-8 file's lines read through one buffer; iterating gives each nonblank (lineno, line).

    The file splits at each newline byte into pieces, and each piece's str.splitlines()
    gives its lines, so the lines are numbered as
    enumerate(Path(path).read_text().splitlines(), 1) numbers them: universal newlines,
    and \\v, \\f, \\x1c-\\x1e, U+0085, U+2028 and U+2029 end a line too.  A line is blank
    where str.split() splits it into nothing.  A byte that is not UTF-8 is a ValueError
    naming its line.  A context manager, which closes the file.
    """

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb", buffering=0)
        self._size = os.fstat(self._file.fileno()).st_size
        self._buf = bytearray(min(_BUFFER, self._size + 1))  # no larger than the file needs
        self._start = self._end = 0  # the bytes read but not yet passed are _buf[_start:_end]
        self._lineno = 0  # the lines passed, queued ones included
        self._queued: deque[tuple[int, str]] = deque()  # decoded lines not yet handed out

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def __iter__(self):
        return self

    def __next__(self) -> tuple[int, str]:
        while self._queued or self._queue_piece():
            lineno, line = self._queued.popleft()
            if line and not line.isspace():
                return lineno, line
        raise StopIteration

    def _fill(self) -> bool:
        """Move the unpassed bytes to the front and read on after them; False at the end of file.

        Where they fill the buffer, a line longer than it, the buffer doubles.
        """
        kept = self._end - self._start
        if kept == len(self._buf):
            self._buf = self._buf + bytes(kept)
        else:
            self._buf[:kept] = self._buf[self._start : self._end]
        self._start, self._end = 0, kept
        read = self._file.readinto(memoryview(self._buf)[kept:])
        self._end += read
        return read > 0

    def _whole(self, last: bool) -> int:
        """The end of the first (or the last) whole line buffered from _start; reads on for one.

        At the end of file, _end: past the unended last line, or _start where nothing is left.
        """
        while True:
            find = self._buf.rfind if last else self._buf.find
            stop = find(b"\n", self._start, self._end) + 1
            if stop or not self._fill():
                return stop or self._end

    def _queue_piece(self) -> bool:
        """Decode the next piece and queue its lines; False at the end of file."""
        stop = self._whole(last=False)
        if stop == self._start:
            return False
        piece = self._buf[self._start : stop]
        self._start = stop
        try:
            lines = piece.decode().splitlines()
        except UnicodeDecodeError as exc:
            lineno = self._lineno + len((piece[: exc.start].decode() + "x").splitlines())
            what = f"not UTF-8 text ({exc.reason}: 0x{piece[exc.start]:02x})"
            raise ValueError(f"{self.path}:{lineno}: {what}") from None
        self._queued.extend(enumerate(lines, self._lineno + 1))
        self._lineno += len(lines)
        return True

    def floats(self, rows: int, cols: int) -> np.ndarray:
        """The next rows nonblank lines, each as cols finite float64 values, as _row reads them.

        Fewer rows only where the file ends first.  The compiled parser reads the whole lines
        buffered, straight from the buffer, with float()'s bits, passing over blank lines, and
        hands back the line it refuses, which _row reads or rejects with the ValueError naming
        its line.  Without a compiler every line goes through _row, as it does where the bytes
        left in the file are too few to hold rows x cols values, so a header's rows and cols
        size no array beyond the file.
        """
        lib = _native.library()
        left = self._size - self._file.tell() + self._end - self._start
        # cols values and the newline after them take at least 2 cols bytes a line
        if lib is None or left + 1 < 2 * cols * rows:
            block = [_row(line.split(), cols, f"{self.path}:{n}") for n, line in islice(self, rows)]
            return np.array(block).reshape(-1, cols)
        out = np.empty((rows, cols))
        used = np.empty(2, dtype=np.intp)  # the bytes and the lines the parser passed
        row = 0
        while row < rows:
            if not self._queued:
                stop = self._whole(last=True)
                if stop == self._start:
                    break
                text = np.frombuffer(self._buf, np.uint8, stop - self._start, self._start)
                row += lib.parse_floats(text, text.size, rows - row, cols, out[row:], used)
                self._start += int(used[0])
                self._lineno += int(used[1])
                if row == rows or self._start == stop:
                    continue
            item = next(self, None)  # a line of the piece the parser refused
            if item is None:
                break
            out[row] = _row(item[1].split(), cols, f"{self.path}:{item[0]}")
            row += 1
        return out[:row]


@contextmanager
def _read_tagged(path, name: str, keys: tuple[str, str]):
    """Open a '<name> v1 <key>=.. <key>=..' file as its header location, values and body.

    Every tagged loader starts here.  The body is the file's _Lines past the header.
    """
    with _Lines(path) as body:
        lineno, head = next(body, (None, None))
        if head is None:
            raise ValueError(f"{path}: empty file")
        head = head.split()
        if len(head) != 4 or head[:2] != [name, "v1"] or not all(
            field.startswith(f"{key}=") for field, key in zip(head[2:], keys)
        ):
            expected = " ".join([name, "v1", *(f"{key}=<{key}>" for key in keys)])
            got = " ".join(head)
            raise ValueError(f"{path}:{lineno}: expected header '{expected}', got {got!r}")
        yield f"{path}:{lineno}", [field.split("=", 1)[1] for field in head[2:]], body


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
