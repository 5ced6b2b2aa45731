"""Shared frequency-grid / workspace caches for the spectral hot paths.

Every transform in the repository — the spectral kernels every detection
runs (:mod:`repro.core.kernels`), the Wiener–Khinchin ACF in
:mod:`repro.freq.autocorr`, the one-signal :func:`repro.freq.dft.dft` of the
figures — calls ``numpy.fft`` directly (pocketfft).  There is
no plan to keep warm: numpy builds pocketfft's plan on every call (a repeated
``np.fft.rfft`` at n = 44 861 = 113·397 costs 6–7 ms every time, 0.33 ms at
45 000), and a caching backend pays for its warmth in resident memory
(``scipy.fft``, bit-equal, +31 MB on the benchmark).  The transform length
is therefore *chosen*, not cached: :mod:`repro.trace.sampling` cuts every
window to a 5-smooth N and the ACF pads to one, where a cold plan is cheap and
Bluestein never runs.

What is cached here is what does recur: the **unit frequency grid**
``rfftfreq(n, 1.0)`` per window length (windows of one length differ in their
effective rate, so callers scale it: ``rfftfreq_grid(n) * fs``), and reusable
per-thread stacking buffers for the batched kernels.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np
from numpy.typing import NDArray

#: Upper bound on retained frequency grids (each is O(n) floats).
_MAX_CACHED_GRIDS = 64

_grid_lock = threading.Lock()
_grids: dict[int, NDArray[np.float64]] = {}
_local = threading.local()


def rfftfreq_grid(n: int) -> NDArray[np.float64]:
    """Cached single-sided unit frequency grid ``rfftfreq(n, d=1.0)`` (cycles per sample).

    The returned array is shared and marked read-only.  Bin frequencies in Hz
    are ``rfftfreq_grid(n) * fs`` — the expression the kernels and
    :func:`repro.freq.dft.dft` both use.
    """
    key = int(n)
    with _grid_lock:
        grid = _grids.get(key)
        if grid is not None:
            return grid
    grid = np.fft.rfftfreq(key, d=1.0)
    grid.setflags(write=False)
    with _grid_lock:
        if len(_grids) >= _MAX_CACHED_GRIDS:
            _grids.pop(next(iter(_grids)))
        _grids[key] = grid
    return grid


def workspace(shape: tuple[int, ...], dtype: Any = np.float64) -> NDArray[Any]:
    """A reusable per-thread scratch array of ``shape`` (contents undefined).

    The batched kernels stack many session windows per pump; reusing the
    stacking buffer keeps steady-state batches allocation-free.  Buffers are
    thread-local, so concurrent batch evaluations never share one.
    """
    cache: dict[tuple[tuple[int, ...], Any], NDArray[Any]] = getattr(_local, "buffers", None) or {}
    if not hasattr(_local, "buffers"):
        _local.buffers = cache
    key = (tuple(int(s) for s in shape), np.dtype(dtype))
    buffer = cache.get(key)
    if buffer is None:
        if len(cache) >= 16:
            cache.pop(next(iter(cache)))
        buffer = np.empty(shape, dtype=dtype)
        cache[key] = buffer
    return buffer
