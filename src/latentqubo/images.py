"""Image set serialization: packed text grids and plain (P2) PGM files."""

from __future__ import annotations

import numpy as np

from . import _text
from ._text import _count, _counted, _read_tagged, _row, float_rows, write_tagged

__all__ = ["save_images", "load_images", "save_pgm", "load_pgm"]


def _check_images(images) -> np.ndarray:
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected (count, m, m) square images, got shape {arr.shape}")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("pixel values must lie in [0, 1]")
    return arr


def gaussian_blur(x, sigma) -> np.ndarray:
    """Gaussian filter of x with ``sigma`` per axis (a number applies to every axis).

    Gives scipy.ndimage.gaussian_filter's bits by taking its steps: per axis
    a kernel of radius int(4 sigma + 0.5), normalised by its numpy sum; the
    edges reflected (d c b a | a b c d | d c b a); each output x[i] w[r],
    then (x[i-j] + x[i+j]) w[r-j] added for j from r down to 1.  Axes with
    sigma <= 1e-15 are left as they are.
    """
    out = np.array(x, dtype=np.float64)
    for axis, s in enumerate(np.broadcast_to(np.asarray(sigma, dtype=np.float64), (out.ndim,))):
        if not s > 1e-15:
            continue
        r = int(4 * s + 0.5)
        t = np.arange(-r, r + 1)
        w = np.exp(-0.5 / (s * s) * t**2)
        w = w / w.sum()
        size = out.shape[axis]
        reflected = np.arange(-r, size + r) % (2 * size)  # the padded line's source indices
        reflected = np.where(reflected < size, reflected, 2 * size - 1 - reflected)
        padded = np.moveaxis(out.take(reflected, axis=axis), axis, -1)
        acc = padded[..., r : r + size] * w[r]
        for j in range(r, 0, -1):
            acc += (padded[..., r - j : r - j + size] + padded[..., r + j : r + j + size]) * w[r - j]
        out = np.moveaxis(acc, -1, axis)
    return np.ascontiguousarray(out)


def save_images(images, path) -> None:
    """Write a packed grid file: header line, then one image per line (m*m values)."""
    arr = _check_images(images)
    count, m = arr.shape[:2]
    body = [float_rows(arr.reshape(count, m * m))] if count else []
    write_tagged(path, "IMG", {"m": m, "count": count}, body)


def load_images(path) -> np.ndarray:
    with _read_tagged(path, "IMG", ("m", "count")) as (head, (m_text, count_text), body):
        m = _count(m_text, "m", head)
        rows = []
        for where, fields in _counted(path, body, count_text, head):
            pixels = _row(fields, m * m, where)
            if not np.all((pixels >= 0.0) & (pixels <= 1.0)):
                raise ValueError(f"{where}: pixel values must lie in [0, 1]")
            rows.append(pixels)
    return np.array(rows).reshape(-1, m, m)


def save_pgm(image, path) -> None:
    """Write one [0,1] grayscale image, (m, m) or a stack of one, as plain PGM with maxval 255."""
    images = _check_images(image)
    if len(images) != 1:
        raise ValueError(f"save_pgm writes one image, got a stack of {len(images)}")
    levels = np.rint(images[0] * 255).astype(int)
    m = levels.shape[0]
    rows = [" ".join(map(str, row)) for row in levels]
    _text.write_lines(path, ["P2", f"{m} {m}", "255", *rows])


def load_pgm(path) -> np.ndarray:
    """Read a plain (P2) PGM file as a (height, width) array scaled to [0, 1]."""
    with _text._Lines(path) as lines:
        tokens = [token for _, line in lines for token in line.split("#", 1)[0].split()]
    if tokens[:1] != ["P2"]:
        raise ValueError(f"expected a plain PGM (P2) file: {path}")
    try:
        width, height, maxval, *levels = (int(tok) for tok in tokens[1:])
    except ValueError:
        raise ValueError(f"{path}: PGM needs an integer width, height, maxval and pixels") from None
    pixels = np.array(levels, dtype=np.float64)
    if not 1 <= maxval <= 65535:  # Netpbm's range
        raise ValueError(f"{path}: PGM maxval must be from 1 to 65535, got {maxval}")
    if min(width, height) < 1 or pixels.size != width * height:
        raise ValueError(f"{path}: PGM {width}x{height} maxval {maxval} has {pixels.size} pixels")
    if not np.all((pixels >= 0) & (pixels <= maxval)):
        raise ValueError(f"{path}: PGM pixel values must lie in [0, {maxval}]")
    return (pixels / maxval).reshape(height, width)
