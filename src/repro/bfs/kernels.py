"""Kernel selection for the shifted-BFS hot path.

The delayed-start BFS in :mod:`repro.bfs.delayed` has two interchangeable
engines for its per-round hot phases (frontier arc gathering and the CRCW
claim-resolution priority write):

- ``"python"`` — the pure-numpy reference implementation;
- ``"native"`` — the compiled C extension :mod:`repro.bfs._kernel`, built
  optionally at install time (``python setup.py build_ext --inplace``; the
  build is skipped silently when no compiler is available);
- ``"auto"`` — the native kernel when the extension imported, the numpy
  path otherwise.  This is the default everywhere.

Both engines are pinned bit-identical by the differential conformance
suite, so the switch is purely a performance knob.  Selection flows
through a :class:`contextvars.ContextVar` so the engine layer can apply a
per-request choice (``decompose(..., options={"kernel": ...})``) without
threading a parameter through every BFS call site; worker processes
resolve the context independently, so pool workers pick the kernel
per-task.  The ``REPRO_KERNEL`` environment variable seeds the default
(read once at import).
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from collections.abc import Iterator

import numpy as np

from repro.errors import ParameterError

try:  # pragma: no cover - exercised via native_available() in both states
    from repro.bfs import _kernel as _native
except ImportError:  # pragma: no cover
    _native = None

__all__ = [
    "KERNEL_CHOICES",
    "KernelScratch",
    "native_available",
    "resolve_kernel",
    "use_kernel",
]

KERNEL_CHOICES = ("auto", "python", "native")

_NO_CENTER = np.iinfo(np.int64).max


def native_available() -> bool:
    """True when the compiled extension imported successfully."""
    return _native is not None


def _validate(kernel: str) -> str:
    if kernel not in KERNEL_CHOICES:
        raise ParameterError(
            f"unknown kernel {kernel!r}; choose one of {KERNEL_CHOICES}"
        )
    return kernel


def _env_default() -> str:
    kernel = os.environ.get("REPRO_KERNEL", "auto").strip().lower() or "auto"
    # A bad env var must not brick import; surface it on first resolve.
    return kernel


_kernel_var: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_kernel", default=_env_default()
)


def resolve_kernel(kernel: str | None = None) -> str:
    """Resolve a requested kernel to a concrete engine name.

    ``None`` reads the ambient context (set by :func:`use_kernel`, seeded
    from ``REPRO_KERNEL``).  ``"auto"`` degrades silently to ``"python"``
    when the extension is missing; an explicit ``"native"`` raises a clear
    :class:`~repro.errors.ParameterError` instead so the caller learns the
    build did not happen.
    """
    if kernel is None:
        kernel = _kernel_var.get()
    kernel = _validate(kernel)
    if kernel == "auto":
        return "native" if native_available() else "python"
    if kernel == "native" and not native_available():
        raise ParameterError(
            "kernel='native' requested but the compiled extension "
            "repro.bfs._kernel is not importable; build it with "
            "`python setup.py build_ext --inplace` (requires a C compiler) "
            "or use kernel='auto' to fall back to the numpy path"
        )
    return kernel


@contextlib.contextmanager
def use_kernel(kernel: str | None) -> Iterator[str]:
    """Set the ambient kernel for the duration of a ``with`` block.

    ``None`` leaves the current context untouched (yields its resolution),
    so callers can forward an optional user choice unconditionally.
    """
    if kernel is None:
        yield resolve_kernel(None)
        return
    token = _kernel_var.set(_validate(kernel))
    try:
        yield resolve_kernel(kernel)
    finally:
        _kernel_var.reset(token)


class KernelScratch:
    """Reusable per-round scratch for the native engine's claim resolution.

    The C priority write needs per-vertex ``best_key`` / ``best_center``
    arrays.  Allocating them fresh every round would cost O(n) per round;
    this object allocates once per BFS, and the kernel restores the
    *pristine invariant* — every ``best_key`` entry ``+inf``, every
    ``best_center`` entry the ``int64 max`` no-bid sentinel — after each
    use, touching only the entries the round actually wrote.  The numpy
    engine sorts packed bids instead and needs no scratch.
    """

    __slots__ = (
        "num_vertices",
        "best_key",
        "best_center",
        "touched",
        "winners",
        "owners",
    )

    def __init__(self, num_vertices: int) -> None:
        self.num_vertices = int(num_vertices)
        self.best_key = np.full(self.num_vertices, np.inf)
        self.best_center = np.full(self.num_vertices, _NO_CENTER, dtype=np.int64)
        self.touched = np.empty(self.num_vertices, dtype=np.int64)
        self.winners = np.empty(self.num_vertices, dtype=np.int64)
        self.owners = np.empty(self.num_vertices, dtype=np.int64)

    def pristine(self) -> bool:
        """Check the invariant (test hook; O(n), not used in the hot loop)."""
        return bool(
            np.all(np.isinf(self.best_key))
            and np.all(self.best_key > 0)
            and np.all(self.best_center == _NO_CENTER)
        )


def native_module():
    """The raw extension module, or raise when unavailable (internal)."""
    if _native is None:  # pragma: no cover - requires a build-less install
        raise ParameterError("compiled kernel repro.bfs._kernel is unavailable")
    return _native
