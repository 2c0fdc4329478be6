"""Plain PGM image input/output (binary P5 and ASCII P2, 8-bit).

Pixels are clamped to [0, 255] and rounded on write only, which
always writes maxval 255; reads return float64 grids with the file's
maxval as the dynamic range.
"""

from __future__ import annotations

import numpy as np

__all__ = ["read_pgm", "write_pgm"]

# 8-bit samples: the largest maxval read and the maxval written
MAXVAL = 255


def _read_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated header tokens, skipping
    comment lines, plus the offset just past the last token."""
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise ValueError("truncated PGM header")
        c = data[i:i + 1]
        if c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
            i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() \
                    and data[j:j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    return tokens, i


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a P5 or P2 PGM file; returns (pixels, maxval).

    ``pixels`` is a float64 array of shape (rows, cols) with entries
    in [0, maxval]; a sample outside that range is a ValueError, and
    so is a P2 raster of more or fewer than width x height samples.
    """
    with open(path, "rb") as f:
        data = f.read()
    tokens, off = _read_tokens(data, 4)
    magic = tokens[0]
    if magic not in (b"P5", b"P2"):
        raise ValueError(f"unsupported PGM magic {magic!r}")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width < 1 or height < 1:
        raise ValueError(f"PGM width and height must be at least 1, "
                         f"header says {width} {height}")
    if maxval <= 0 or maxval > MAXVAL:
        raise ValueError(f"only 8-bit PGM supported, maxval={maxval}")
    if magic == b"P5":
        raster = data[off + 1:off + 1 + width * height]
        if len(raster) < width * height:
            raise ValueError("truncated P5 raster")
        samples = np.frombuffer(raster, dtype=np.uint8)
    else:
        values = data[off:].split()
        if len(values) < width * height:
            raise ValueError("truncated P2 raster")
        # a plain PGM holds one image; P5 may hold more, so trailing
        # bytes are allowed there
        if len(values) > width * height:
            raise ValueError(f"P2 raster holds {len(values)} samples, "
                             f"more than {width} x {height}")
        # no dtype: a token beyond float range stays a Python int and
        # fails the range check instead of overflowing
        samples = np.array([int(v) for v in values])
    if not np.all((samples >= 0) & (samples <= maxval)):
        raise ValueError(f"PGM samples must lie in [0, {maxval}]")
    return samples.astype(np.float64).reshape(height, width), maxval


def write_pgm(path, pixels: np.ndarray, ascii_format: bool = False) -> None:
    """Write a float grid as P5 (default) or P2 with clamping/rounding
    to [0, MAXVAL]."""
    arr = np.asarray(pixels, dtype=np.float64)
    if arr.ndim != 2 or min(arr.shape) < 1:
        raise ValueError(f"expected a 2-D pixel array with both sides at "
                         f"least 1, got shape {arr.shape}")
    q = np.clip(np.rint(arr), 0, MAXVAL).astype(np.uint8)
    height, width = q.shape
    header = f"{'P2' if ascii_format else 'P5'}\n{width} {height}\n{MAXVAL}\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        if ascii_format:
            lines = [" ".join(str(v) for v in row) for row in q]
            f.write(("\n".join(lines) + "\n").encode("ascii"))
        else:
            f.write(q.tobytes())
