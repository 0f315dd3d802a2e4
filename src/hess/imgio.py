"""Binary PGM (P5) / PPM (P6) image I/O and the label color palette."""

from __future__ import annotations

import numpy as np

# fixed 19-entry palette for rendering predicted label maps (class id ->
# RGB); enough for every class count used here
PALETTE = np.array([
    (0, 0, 0), (128, 64, 128), (244, 35, 232), (70, 70, 70), (102, 102, 156),
    (190, 153, 153), (153, 153, 153), (250, 170, 30), (220, 220, 0),
    (107, 142, 35), (152, 251, 152), (70, 130, 180), (220, 20, 60),
    (255, 0, 0), (0, 0, 142), (0, 0, 70), (0, 60, 100), (0, 80, 100),
    (0, 0, 230),
], dtype=np.uint8)


def write_pgm(img, path):
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("PGM expects a non-empty 2-D image")
    if img.dtype != np.uint8:
        if img.min() < 0 or img.max() > 255:
            raise ValueError("PGM values must fit in 8 bits")
        img = img.astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(img.tobytes())


def read_pgm(path):
    return _read_pnm(path, b"P5", 1)[:, :, 0]


def write_ppm(img, path):
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3 or img.size == 0:
        raise ValueError("PPM expects a non-empty H*W*3 image")
    with open(path, "wb") as f:
        f.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(img.tobytes())


def read_ppm(path):
    return _read_pnm(path, b"P6", 3)


def colorize_labels(labels):
    labels = np.asarray(labels)
    return PALETTE[labels % len(PALETTE)]


def _read_pnm(path, magic, channels):
    """(H, W, channels) pixels of an 8-bit binary PNM file of at least 1x1;
    anything else is a ValueError naming the path."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(magic):
        raise ValueError(f"{path}: not a {magic.decode()} file")
    fields = []
    pos = len(magic)
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if not data[start:pos].isdigit():
            raise ValueError(f"{path}: header field {len(fields) + 1} is "
                             f"{data[start:pos]!r}, not a decimal number")
        fields.append(int(data[start:pos]))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"{path}: image size {width}x{height}, must be at least 1x1")
    if not 1 <= maxval <= 255:
        raise ValueError(f"{path}: maxval {maxval}, only 8-bit images (1..255) are read")
    size = width * height * channels
    body = data[pos + 1:pos + 1 + size]
    if len(body) != size:
        raise ValueError(f"{path}: truncated pixel data")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width, channels).copy()
