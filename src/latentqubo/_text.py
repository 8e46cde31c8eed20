"""The package's text codec: the float format, the one file writer and the one reader.

Files are UTF-8 text.  Rows of float64 values are formatted in C, a whole array in one
call, with float_text's bytes.  The reader, _Lines, reads a file line by line through Python's
buffered file object and numbers its lines as Path.read_text().splitlines() does, blank
lines counted.  Rows of decimal numbers go to the compiled parser as bytes, in chunks of
whole lines, so no loader holds a file's text; rows a loader does not need are passed over by
their bytes alone.  A tagged file starts with
'<NAME> v1 <key>=<value> <key>=<value>'; its readers' ValueErrors name the file and
the 1-based line.  file_text gives a whole file's text to the INI config's own parser.
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

# Bytes of a value in the compiled formatter's output: the widest %.17g,
# -2.2250738585072014e-308, and its separator.
_VALUE_BYTES = 25

# Bytes of a parser chunk, before the rest of its last line.  Each chunk is new, so it stays
# under glibc's 128 KiB mmap threshold: freeing a bigger one raises it, so the heap holds the next.
_BUFFER = 64 * 1024


def float_rows(arr) -> str:
    """The rows of a 2-D array as text: values in float_text joined by spaces, rows by newlines.

    One call of the compiled formatter writes the whole array; without a compiler, and for an
    empty array, the rows are joined in Python, which defines the text.
    """
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    lib = _native.library()
    if lib is not None and arr.size:
        out = np.empty(_VALUE_BYTES * arr.size, dtype=np.uint8)
        written = lib.format_floats(arr, *arr.shape, out)
        if written:  # 0 where the "C" locale could not be made
            return str(out[: written - 1], "utf-8")  # decoded from the buffer, with no bytes copy
    return "\n".join(" ".join(map(float_text, row)) for row in arr)


def write_lines(path, lines) -> None:
    """Write each line and a newline to a temporary file beside path, then rename it over path.

    A failure leaves path as it was.  There is no fsync; the mode is a plain write's.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            for line in lines:  # two writes, so that a long line is not copied to add its newline
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_tagged(path, name: str, header: dict, body) -> None:
    """Write a tagged file: the '<name> v1 <key>=<value> ..' header line, then the body lines."""
    head = " ".join([name, "v1", *(f"{key}={value}" for key, value in header.items())])
    write_lines(path, chain([head], body))


class _Lines:
    """A UTF-8 file's lines; iterating gives each nonblank (lineno, line).

    The buffered file splits at each newline byte into pieces, and each piece's
    str.splitlines() gives its lines, so the lines are numbered as
    enumerate(Path(path).read_text().splitlines(), 1) numbers them: universal newlines,
    and \\v, \\f, \\x1c-\\x1e, U+0085, U+2028 and U+2029 end a line too.  A line is blank
    where str.split() splits it into nothing.  A byte that is not UTF-8 is a ValueError
    naming its line.  A context manager, which closes the file.
    """

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb")
        self._size = os.fstat(self._file.fileno()).st_size
        self._lineno = 0  # the lines passed, queued ones included
        self._queued: deque[tuple[int, str]] = deque()  # decoded lines not yet handed out

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def __iter__(self):
        return self

    def __next__(self) -> tuple[int, str]:
        while self._queued or self._queue(self._file.readline()):
            lineno, line = self._queued.popleft()
            if line and not line.isspace():
                return lineno, line
        raise StopIteration

    def _queue(self, piece: bytes) -> bool:
        """Decode a piece and queue its lines; False for the empty piece of the end of file."""
        if not piece:
            return False
        try:
            lines = piece.decode().splitlines()
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc, piece, self.path, self._lineno) from None
        self._queued.extend(enumerate(lines, self._lineno + 1))
        self._lineno += len(lines)
        return True

    def floats(self, rows: int, cols: int) -> np.ndarray:
        """The next rows nonblank lines, each as cols finite float64 values, as _row reads them.

        Fewer rows only where the file ends first.  The compiled parser reads chunks of
        _BUFFER bytes and the rest of their last line, with float()'s bits, passing over blank
        lines; the bytes it did not pass go back to the file, and _row reads the line it
        refuses or rejects it with the ValueError naming its line.  Without a compiler, on a
        file that cannot seek, or where the bytes left are too few to hold rows x cols values,
        every line goes through _row, so a header's rows and cols size no array beyond the file.
        """
        lib = _native.library()
        chunked = lib is not None and self._file.seekable()  # a pipe cannot take bytes back
        # cols values and the newline after them take at least 2 cols bytes a line
        if not chunked or self._size - self._file.tell() + 1 < 2 * cols * rows:
            block = [_row(line.split(), cols, f"{self.path}:{n}") for n, line in islice(self, rows)]
            return np.array(block).reshape(-1, cols)
        out = np.empty((rows, cols))

        def parse(text, row, used):
            return lib.parse_floats(text, text.size, rows - row, cols, out[row:], used)

        def take(row, lineno, line):
            out[row] = _row(line.split(), cols, f"{self.path}:{lineno}")

        return out[: self._chunked(rows, parse, take)]

    def skip(self, rows: int) -> int:
        """Pass the next rows nonblank lines without reading their numbers; the number passed.

        Fewer only where the file ends first.  The compiled skip_rows passes chunks as floats
        passes them, and hands back each line with a byte other than printable ASCII, a space
        or a tab, which goes through __next__, so the lines are counted and numbered, and a byte
        that is not UTF-8 rejected, as everywhere else.  Without a compiler, or on a file that
        cannot seek, every line goes through __next__.
        """
        lib = _native.library()
        if lib is None or not self._file.seekable():
            return sum(1 for _ in islice(self, rows))
        return self._chunked(rows, lambda text, row, used: lib.skip_rows(
            text, text.size, rows - row, used), lambda row, lineno, line: None)

    def _chunked(self, rows: int, kernel, take) -> int:
        """Pass up to rows nonblank lines through kernel, chunk by chunk; the number passed.

        kernel(text, row, used) passes the lines of a chunk from row on and sets used to the
        bytes and the lines it passed; the bytes it did not pass go back to the file, and
        take(row, lineno, line) takes the line it refused.
        """
        used = np.empty(2, dtype=np.intp)  # the bytes and the lines the kernel passed
        row = 0
        while row < rows:
            if not self._queued:
                chunk = self._file.read(_BUFFER) + self._file.readline()
                if not chunk:
                    break
                text = np.frombuffer(chunk, np.uint8)
                row += kernel(text, row, used)
                self._file.seek(int(used[0]) - text.size, os.SEEK_CUR)
                self._lineno += int(used[1])
                refused = used[0] < text.size
                del text, chunk  # so that the next chunk is the only one
                if row == rows or not refused:
                    continue
            item = next(self, None)  # a line of the chunk the kernel refused
            if item is None:
                break
            take(row, *item)
            row += 1
        return row


def _not_utf8(exc: UnicodeDecodeError, data: bytes, path, lineno: int) -> ValueError:
    """The ValueError for data's first byte that is not UTF-8, naming path and the byte's line,
    where lineno lines come before data."""
    lineno += len((data[: exc.start].decode() + "x").splitlines())
    return ValueError(f"{path}:{lineno}: not UTF-8 text ({exc.reason}: 0x{data[exc.start]:02x})")


def file_text(path) -> str:
    """A whole UTF-8 file's text, newlines read as Path.read_text() reads them, for the one
    format with a parser of its own, the INI config.  A byte that is not UTF-8 is a ValueError
    naming its line, as _Lines names it."""
    with open(path, "rb") as file:
        data = file.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, data, path, 0) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
