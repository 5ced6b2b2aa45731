"""Shared FFT entry points / workspace cache for the spectral hot paths.

Every FFT in the repository — the offline :func:`repro.freq.dft.dft`, the
Wiener–Khinchin ACF in :mod:`repro.freq.autocorr`, and the batched
cross-session kernels in :mod:`repro.service.batch` — routes through this
module, so offline detection and the service's batch engine always share one
FFT implementation (``numpy.fft``'s pocketfft kernels, which carry their own
twiddle caches) and stay bit-identical to each other.

The module also caches **workspaces**: precomputed
:func:`numpy.fft.rfftfreq` grids keyed by ``(n, fs)`` (the same window length
and sampling rate recur on every evaluation of a session) and reusable
per-thread stacking buffers for the batched kernels, so steady-state batches
allocate nothing.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np
from numpy.typing import NDArray

#: Upper bound on retained frequency grids (each is O(n) floats).
_MAX_CACHED_GRIDS = 64

_grid_lock = threading.Lock()
_grids: dict[tuple[int, float], NDArray[np.float64]] = {}
_local = threading.local()


def rfft(x: NDArray[np.float64], n: int | None = None, *, axis: int = -1) -> NDArray[Any]:
    """Real-input FFT (1-D or batched 2-D)."""
    return np.fft.rfft(x, n=n, axis=axis)


def irfft(x: NDArray[Any], n: int, *, axis: int = -1) -> NDArray[np.float64]:
    """Inverse real FFT (1-D or batched 2-D)."""
    return np.fft.irfft(x, n=n, axis=axis)


def rfftfreq_grid(n: int, fs: float) -> NDArray[np.float64]:
    """Cached single-sided frequency grid ``rfftfreq(n, d=1/fs)``.

    The returned array is shared and marked read-only: every evaluation of a
    steady-state session asks for the same ``(n, fs)`` pair, and recomputing
    the grid was pure per-call overhead on the detection hot path.
    """
    key = (int(n), float(fs))
    with _grid_lock:
        grid = _grids.get(key)
        if grid is not None:
            return grid
    grid = np.fft.rfftfreq(int(n), d=1.0 / float(fs))
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
