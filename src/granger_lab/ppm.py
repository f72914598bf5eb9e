"""Binary PPM (P6) heatmap rendering for phase-space planes: the rate ->
color map and the P6 writer.

Color map: rate 0 -> blue (0,0,255), 0.5 -> white, 1 -> red (255,0,0),
linear in between. The map is invertible to within 1/255; the tests hold
its inverse and a P6 reader (``tests/kernel_reference.py``) to check renders.
"""

from __future__ import annotations

import numpy as np

_MAX_PIXELS = 1 << 26  # pixels a rendered image may hold


def rate_to_rgb(rate: float) -> tuple[int, int, int]:
    t = min(max(float(rate), 0.0), 1.0)
    if t <= 0.5:
        c = round(510 * t)
        return (c, c, 255)
    c = round(510 * (1.0 - t))
    return (255, c, c)


def render_plane(plane: np.ndarray, scale: int = 1) -> np.ndarray:
    """Pixel array (H, W, 3) uint8 for a 2-D rate plane; one scale x scale
    block per cell, rows/columns in ascending axis order. An image of more
    than ``_MAX_PIXELS`` pixels is refused before anything is allocated."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    rows, cols = plane.shape
    if rows * scale * cols * scale > _MAX_PIXELS:
        raise ValueError(f"--scale {scale} gives a {rows * scale}x{cols * scale} image, "
                         f"more than {_MAX_PIXELS} pixels")
    pixels = np.empty((rows, cols, 3), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            pixels[i, j] = rate_to_rgb(plane[i, j])
    return np.kron(pixels, np.ones((scale, scale, 1), dtype=np.uint8))


def write_ppm(path: str, pixels: np.ndarray) -> None:
    h, w, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())

