"""Loader of the compiled bank-step kernel (``_kernel.c``).

The kernel advances a whole trial bank through one segment of a draw
block in a single call, applying the same four updates as
``estimator._advance`` plus the moment update.  It is compiled on first
use with the system C compiler and cached under the package's
``__pycache__`` (or a private temporary directory when that is not
writable), keyed by a hash of the source and the compile command.
The library holds one entry point per lane width (trials advanced side
by side in one vector); the CPU it loads on picks the widest it runs,
and every width gives the same bits.  :func:`load` returns ``None`` when
no compiler or library is available; callers then fall back to the
numpy round.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .errors import TrialDiverged
from .network import TopologyModel

_SOURCE = Path(__file__).with_name("_kernel.c")

#: No ``-march=native`` and no ``-ffast-math``, and no contraction into
#: fused multiply-adds: results are then bit-stable across machines of
#: one architecture.
COMPILE = ("gcc", "-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Lane widths of the entry points ``adle_advance_bank_<L>``: baseline,
#: AVX2 and AVX-512F.
WIDTHS = (1, 4, 8)

_log = logging.getLogger(__name__)


def _cache_dir() -> Path:
    cache = _SOURCE.parent / "__pycache__"
    try:
        cache.mkdir(exist_ok=True)
    except OSError:
        pass
    if os.access(cache, os.W_OK):
        return cache
    return Path(tempfile.mkdtemp(prefix="adle-kernel-"))


def _build() -> Path:
    """Compile the kernel unless a library for this source and command exists.

    The library is written under a temporary name and renamed into
    place, so concurrent processes never load a partial file.
    """
    key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(COMPILE).encode()).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"_kernel-{key}.so"
    if target.exists():
        return target
    fd, partial = tempfile.mkstemp(prefix="_kernel-", suffix=".so.part", dir=cache)
    os.close(fd)
    try:
        subprocess.run([*COMPILE, "-o", partial, str(_SOURCE)], check=True,
                       capture_output=True, text=True)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


class _BankArgs(ctypes.Structure):
    """``struct adle_bank`` of ``_kernel.c``, field for field."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in ("bank", "n", "m", "mx", "steps", "num_edges")]
        + [(name, ctypes.c_void_p) for name in ("x", "g", "shift", "sums", "outer", "q0", "h",
                                                "truth", "factor", "noise", "w", "edges",
                                                "active")]
        + [("failure", ctypes.c_int64 * 2)]
    )


class BankKernel:
    """The loaded library, with an entry point bound for every lane width
    this CPU runs.  Banks advance ``lanes`` trials side by side, the widest
    width (``adle_lanes``); a bank of one trial runs on one lane, its
    cheapest width."""

    def __init__(self, lib: ctypes.CDLL):
        lib.adle_lanes.argtypes = []
        lib.adle_lanes.restype = ctypes.c_int
        self.lanes = lib.adle_lanes()
        i64 = ctypes.c_int64
        self._fns = {}
        for width in WIDTHS[:WIDTHS.index(self.lanes) + 1]:
            fn = self._fns[width] = lib[f"adle_advance_bank_{width}"]
            fn.argtypes = [ctypes.POINTER(_BankArgs), i64, i64, i64]
            fn.restype = ctypes.c_int
        self._lib = lib

    def bind(self, estimates, grammians, shifts, sums, outer_sums, q0, sensing, sensed_truth,
             noise_factor, top: TopologyModel) -> "BoundBank":
        """Check a bank's state and model arrays once and bind their addresses.

        ``estimates`` (R, N, M), ``grammians`` (R, N, M, M) and the moments
        ``shifts``, ``sums`` (R, N, max_dim) and ``outer_sums``
        (R, N, max_dim, max_dim) are the state the kernel updates in place;
        ``q0`` (N, max_dim, max_dim) is the sample covariance before any
        observation, and ``sensing`` (N, max_dim, M), ``sensed_truth``
        (N, max_dim) and ``noise_factor`` (N, max_dim, max_dim) are the
        padded model of ``ObservationModel._stacked``.  The links are
        those of ``top``.  The returned bank keeps every array alive.
        """
        bank, n, m = _shape_of(estimates, "estimates", 3)
        mx = _shape_of(sensing, "sensing", 3)[1]
        arrays = {  # in the order of struct adle_bank
            "x": _check(estimates, "estimates", np.float64, (bank, n, m)),
            "g": _check(grammians, "grammians", np.float64, (bank, n, m, m)),
            "shift": _check(shifts, "shifts", np.float64, (bank, n, mx)),
            "sums": _check(sums, "sums", np.float64, (bank, n, mx)),
            "outer": _check(outer_sums, "outer_sums", np.float64, (bank, n, mx, mx)),
            "q0": _check(q0, "q0", np.float64, (n, mx, mx)),
            "h": _check(sensing, "sensing", np.float64, (n, mx, m)),
            "truth": _check(sensed_truth, "sensed_truth", np.float64, (n, mx)),
            "factor": _check(noise_factor, "noise_factor", np.float64, (n, mx, mx)),
            "edges": top.edge_array,
        }
        for arr in (estimates, grammians, shifts, sums, outer_sums):
            if not arr.flags.writeable:
                raise ValueError("the bank state arrays must be writable")
        if top.base.num_nodes != n:
            raise ValueError(f"topology has {top.base.num_nodes} nodes, state has {n} agents")
        args = _BankArgs(bank=bank, n=n, m=m, mx=mx, num_edges=top.base.num_edges,
                         **{name: arr.ctypes.data for name, arr in arrays.items()})
        return BoundBank(self._fns[1 if bank == 1 else self.lanes], args, arrays)

    def advance(self, estimates, grammians, shifts, sums, outer_sums, count: int, q0, sensing,
                sensed_truth, noise_factor, noise, start: int, stop: int, weights,
                top: TopologyModel, active) -> None:
        """Bind the bank (:meth:`bind`), then its draws
        (:meth:`BoundBank.draws`), and advance it through block steps
        ``start..stop-1`` (:meth:`BoundBank.advance`)."""
        bound = self.bind(estimates, grammians, shifts, sums, outer_sums, q0, sensing,
                          sensed_truth, noise_factor, top)
        bound.draws(noise, weights, active)
        bound.advance(count, start, stop)


class BoundBank:
    """A bank whose arrays are checked and whose addresses are bound:
    :meth:`draws` once per draw buffer, then :meth:`advance` once per
    segment, passing integers only."""

    def __init__(self, fn, args: _BankArgs, arrays: dict):
        self._fn, self._args, self._arrays = fn, args, arrays
        self._ref = ctypes.byref(args)

    def draws(self, noise, weights, active) -> None:
        """Bind the draw buffers that the next segments read.

        ``noise`` is the (R, S, N, max_dim) block of unit-variance draws
        from which the kernel forms each step's observations, ``weights``
        the (3, S) alpha, beta and gamma of its steps, and ``active`` the
        bool (R, S, E) active-edge masks of ``harness._draw_topology_block``
        over the edges ``top.edge_array``, or ``None`` when every edge is
        active at every step.  Their contents may change between segments;
        their addresses may not.
        """
        args = self._args
        steps = _shape_of(noise, "noise", 4)[1]
        _check(noise, "noise", np.float64, (args.bank, steps, args.n, args.mx))
        _check(weights, "weights", np.float64, (3, steps))
        if active is not None:
            _check(active, "active", np.bool_, (args.bank, steps, args.num_edges))
        self._arrays.update(noise=noise, w=weights, active=active)
        args.steps = steps
        args.noise, args.w = noise.ctypes.data, weights.ctypes.data
        args.active = None if active is None else active.ctypes.data

    def advance(self, count: int, start: int, stop: int) -> None:
        """Advance the bank through block steps ``start..stop-1`` in place.

        ``count`` observations have been folded into the moments before
        ``start``.  A zero pivot in a gain solve raises
        :class:`TrialDiverged` naming the earliest step it met (``count``
        plus its offset from ``start``) and the first trial, by its place
        in the bank, that met it there.
        """
        if not 0 <= start <= stop <= self._args.steps:
            raise ValueError(f"segment [{start}, {stop}) outside a block of "
                             f"{self._args.steps} steps")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        status = self._fn(self._ref, start, stop, count)
        if status == 1:
            failure = self._args.failure
            raise TrialDiverged(failure[0], failure[1], TrialDiverged.SINGULAR)
        if status != 0:
            raise MemoryError("bank-step kernel could not allocate its work space")


def _shape_of(arr, name: str, ndim: int) -> tuple[int, ...]:
    if not isinstance(arr, np.ndarray) or arr.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-d array")
    return arr.shape


def _check(arr, name: str, dtype, shape):
    if not isinstance(arr, np.ndarray) or arr.dtype != dtype:
        raise ValueError(f"{name} must be a {np.dtype(dtype)} array")
    if not arr.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


@functools.cache
def load() -> BankKernel | None:
    """The compiled kernel, built on first use; ``None`` when unavailable."""
    try:
        kernel = BankKernel(ctypes.CDLL(str(_build())))
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        _log.warning("compiled bank-step kernel unavailable, using the numpy round: %s", detail)
        return None
    _log.debug("compiled bank-step kernel runs %d trial lanes", kernel.lanes)
    return kernel
