"""Loader of the compiled library (``_kernel.c``): the bank-step kernel,
the library's one consensus+innovation round and its checkpoint
diagnostics, and the trials' random streams.

The kernel advances a whole trial bank through one segment of a draw
window in a single call, forming each step's observations from the
noise, or writes the bank's checkpoint records.  A bank is bound once,
with its state, model, links and draw buffers (``BankKernel.bind``);
both entry points then work on it in one lane scratch buffer.
:class:`Streams` are a bank's PCG64 streams, drawn by numpy's own C
distributions, which the library links from numpy's static
``libnpyrandom.a``.  The library is compiled on first use with the
system C compiler and cached under the package's ``__pycache__`` (else
in one private per-user directory under the system temporary directory,
else in a directory of its own that is removed once the library is
loaded), keyed by a hash of the source, as read when this module is
imported, the compile command and numpy's version; the loader refuses a
library whose ``struct adle_bank`` differs from ``_BankArgs``.  The
library holds one entry point per lane width (trials advanced side by
side in one vector); the CPU it loads on picks the widest it runs, and
every width gives the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import operator
import os
import shutil
import stat
import tempfile
from pathlib import Path

import numpy as np

from .errors import AdleError, TrialDiverged

try:  # hashlib would load OpenSSL, several MB, for one digest
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

_SOURCE = Path(__file__).with_name("_kernel.c")

#: numpy's static library of its C distributions, linked into the library;
#: found beside ``numpy.random`` without importing it.
NPYRANDOM = Path(np.__file__).with_name("random") / "lib" / "libnpyrandom.a"

#: ``ADLE_LAYOUT`` of ``_kernel.c``: the version of ``struct adle_bank``.
LAYOUT = 3

#: No ``-march=native`` and no ``-ffast-math``, and no contraction into
#: fused multiply-adds: results are then bit-stable across machines of
#: one architecture.  ``-fno-math-errno`` keeps the kernel's ``sqrt`` one
#: instruction (its value is the same); numpy's distributions need libm.
COMPILE = ("gcc", "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")

#: Lane widths of the entry points ``adle_advance_bank_<L>`` and
#: ``adle_checkpoint_bank_<L>``: baseline, AVX2 and AVX-512F.
WIDTHS = (1, 4, 8)

#: The hash of the source this module's ``_BankArgs`` goes with, read once,
#: at import, so that an edit made later cannot pair a new layout with the
#: old one.
_SOURCE_DIGEST = sha256(_SOURCE.read_bytes()).digest()

OK, SINGULAR, NOT_FINITE = 0, 1, 2  # status codes of the entry points

_log = logging.getLogger(__name__)


#: Suffix of a cache directory made for one process; :func:`load` removes it.
_PRIVATE = ".private"


def _cache_dir() -> Path:
    cache = _SOURCE.parent / "__pycache__"
    try:
        cache.mkdir(exist_ok=True)
    except OSError:
        pass
    if os.access(cache, os.W_OK):
        return cache
    # one directory per user, loaded from only while no one else may write to it
    shared = Path(tempfile.gettempdir()) / f"adle-kernel-{os.getuid()}"
    try:
        shared.mkdir(mode=0o700, exist_ok=True)
        info = shared.lstat()
        if stat.S_ISDIR(info.st_mode) and info.st_uid == os.getuid() and not info.st_mode & 0o022:
            return shared
    except OSError:
        pass
    return Path(tempfile.mkdtemp(prefix="adle-kernel-", suffix=_PRIVATE))


def _command(output, source) -> list[str]:
    """The compile command of the library ``output`` from ``source``."""
    return [*COMPILE, "-o", str(output), str(source), str(NPYRANDOM), "-lm"]


class _CompileFailed(Exception):
    """The library cannot be compiled: the message is the compiler's complaint,
    or names the missing input."""


def _cache_key() -> str:
    """The library's key: the source as read at import, the compile
    command, numpy's static library among its inputs, and numpy's version."""
    command = " ".join([*_command("", ""), np.__version__])
    return sha256(_SOURCE_DIGEST + command.encode()).hexdigest()[:16]


def _build() -> Path:
    """Compile the kernel unless a library for this source and command exists.

    The library is keyed by :func:`_cache_key`.  A build reads
    the source again and refuses, with an :class:`AdleError`, a source
    edited since; it compiles the bytes it read in a private directory
    and renames the library into place, so concurrent processes never
    load a partial file.  In the package's own ``__pycache__`` the
    libraries of earlier sources are removed, whether this one was built
    or found there; a shared directory is never pruned, since another
    checkout's process may be loading from it.
    """
    cache = _cache_dir()
    target = cache / f"_kernel-{_cache_key()}.so"
    if not target.exists():
        import subprocess  # the compiler is the only process the library starts

        source_bytes = _SOURCE.read_bytes()
        if sha256(source_bytes).digest() != _SOURCE_DIGEST:
            raise AdleError(f"{_SOURCE} changed after {__name__} was imported; "
                            "restart the process to build the edited kernel")
        if not NPYRANDOM.is_file():
            raise _CompileFailed(f"numpy's static library {NPYRANDOM} is missing")
        work = Path(tempfile.mkdtemp(prefix="_kernel-", suffix=".build", dir=cache))
        try:
            source = work / _SOURCE.name  # the file includes itself by this name
            source.write_bytes(source_bytes)
            done = subprocess.run(_command(work / "_kernel.so", source), capture_output=True,
                                  text=True)
            if done.returncode != 0:
                raise _CompileFailed(done.stderr or f"exit status {done.returncode}")
            os.replace(work / "_kernel.so", target)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if cache == _SOURCE.parent / "__pycache__":
        for stale in cache.glob("_kernel-*.so"):
            if stale != target:
                stale.unlink(missing_ok=True)
    return target


class _BankArgs(ctypes.Structure):
    """``struct adle_bank`` of ``_kernel.c``, field for field."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in ("bank", "n", "m", "mx", "window", "num_edges")]
        + [(name, ctypes.c_void_p) for name in ("x", "g", "shift", "sums", "outer", "q0", "h",
                                                "truth", "factor", "noise", "w", "edges",
                                                "active", "theta", "kopt", "gtarget",
                                                "scratch")]
        + [("failure", ctypes.c_int64 * 2)]
    )


_I64, _U64, _F64, _PTR = ctypes.c_int64, ctypes.c_uint64, ctypes.c_double, ctypes.c_void_p
_BANK = ctypes.POINTER(_BankArgs)

#: The library's entry points, with their argument and result types.
SIGNATURES = {
    "adle_layout": ([], _I64), "adle_bank_bytes": ([], _I64), "adle_lanes": ([], ctypes.c_int),
    "adle_scratch_vectors": ([_BANK], _I64), "adle_stream_bytes": ([], _I64),
    "adle_seed": ([_PTR, _I64, _PTR], None), "adle_advance": ([_PTR, _I64, _U64, _U64], None),
    "adle_normals": ([_PTR, _I64, _I64, _PTR, _I64], None),
    "adle_laplace": ([_PTR, _I64, _I64, _F64, _F64, _PTR, _I64], None),
    "adle_bounded": ([_PTR, _I64, _U64, _U64, _I64, _PTR, _I64, _I64], None),
    "adle_below": ([_PTR, _I64, _I64, _F64, _PTR, _I64], None),
    **{f"adle_advance_bank_{width}": ([_BANK, _I64, _I64, _I64], ctypes.c_int)
       for width in WIDTHS},
    **{f"adle_checkpoint_bank_{width}": ([_BANK, _I64, _F64, _PTR], ctypes.c_int)
       for width in WIDTHS},
}

_WIDE = ("adle_advance_bank_", "adle_checkpoint_bank_")  # one entry point per lane width


def _bind(lib: ctypes.CDLL, name: str):
    """The entry point ``name`` of ``lib``, typed by :data:`SIGNATURES`.  It
    is looked up by ``getattr``, which ctypes caches, so that later lookups
    get the typed function: ``lib[name]`` makes a new one each time."""
    fn = getattr(lib, name)
    fn.argtypes, fn.restype = SIGNATURES[name]
    return fn


class BankKernel:
    """The loaded library, its entry points typed, the bank-step ones for
    every lane width this CPU runs.  Banks advance ``lanes`` trials side by
    side, the widest width (``adle_lanes``); a bank of one trial runs on
    one lane, its cheapest width."""

    def __init__(self, lib: ctypes.CDLL):
        for name in SIGNATURES:
            if not name.startswith(_WIDE):
                _bind(lib, name)
        found = (lib.adle_layout(), lib.adle_bank_bytes())
        if found != (LAYOUT, ctypes.sizeof(_BankArgs)):
            raise AdleError(f"the compiled kernel's struct adle_bank is layout {found[0]} of "
                            f"{found[1]} bytes, but the loader's _BankArgs is layout {LAYOUT} "
                            f"of {ctypes.sizeof(_BankArgs)} bytes")
        self.lanes, self.stream_bytes = lib.adle_lanes(), lib.adle_stream_bytes()
        self._fns = {width: tuple(_bind(lib, f"{base}{width}") for base in _WIDE)
                     for width in WIDTHS[:WIDTHS.index(self.lanes) + 1]}
        self._lib = lib

    def bind(self, state, model, top, noise, weights, active) -> "BoundBank":
        """Check a bank and its draw buffers once and bind their addresses.

        ``state`` is an ``adle.estimator.NetworkState`` whose arrays carry a
        leading axis of R trials; the kernel updates its estimates,
        Grammians and moments in place.  ``model`` is the
        ``ObservationModel`` whose padded sensing, sensed truth and noise
        factors (``_stacked``) it reads, and ``top`` holds the links.  The
        draw buffers hold a window of W steps: ``noise``, the
        (R, W, N, max_dim) unit-variance draws from which the kernel forms
        each step's observations, ``weights``, the (3, W) alpha, beta and
        gamma of the steps, and ``active``, the bool (R, W, E) active-edge
        masks over ``top.edge_array``, or ``None`` when every edge is
        always active.
        Their contents may change between segments; no address may.  The
        returned bank keeps every array alive, and the lane scratch
        allocated here for both entry points.
        """
        stacked = model._stacked
        n, m, mx = model.num_agents, model.param_dim, stacked.max_dim
        bank, window = _shape_of(noise, "noise", 4)[:2]
        arrays = {  # in the order of struct adle_bank
            "x": _check(state.estimates, "estimates", np.float64, (bank, n, m)),
            "g": _check(state.grammians, "grammians", np.float64, (bank, n, m, m)),
            "shift": _check(state.obs_shifts, "obs_shifts", np.float64, (bank, n, mx)),
            "sums": _check(state.obs_sums, "obs_sums", np.float64, (bank, n, mx)),
            "outer": _check(state.obs_outer_sums, "obs_outer_sums", np.float64, (bank, n, mx, mx)),
            "q0": _check(state.initial_sample_covs, "initial_sample_covs", np.float64, (n, mx, mx)),
            "h": stacked.sensing, "truth": stacked.sensed_truth, "factor": stacked.noise_factor,
            "noise": _check(noise, "noise", np.float64, (bank, window, n, mx)),
            "w": _check(weights, "weights", np.float64, (3, window)),
            "edges": top.edge_array,
            "active": None if active is None else _check(
                active, "active", np.bool_, (bank, window, top.base.num_edges)),
        }
        if not all(arrays[name].flags.writeable for name in ("x", "g", "shift", "sums", "outer")):
            raise ValueError("the bank state arrays must be writable")
        if top.base.num_nodes != n:
            raise ValueError(f"topology has {top.base.num_nodes} nodes, state has {n} agents")
        args = _BankArgs(bank=bank, n=n, m=m, mx=mx, window=window, num_edges=top.base.num_edges,
                         **{name: None if arr is None else arr.ctypes.data
                            for name, arr in arrays.items()})
        lanes = 1 if bank == 1 else self.lanes
        # GCC's vector types assume their 64-byte alignment, which np.empty does not promise
        size = self._lib.adle_scratch_vectors(ctypes.byref(args)) * lanes * 8
        raw = np.empty(size + 64, dtype=np.uint8)
        arrays["scratch"] = raw[-raw.ctypes.data % 64:][:size]
        args.scratch = arrays["scratch"].ctypes.data
        return BoundBank(*self._fns[lanes], args, arrays, model)


class BoundBank:
    """A bank whose arrays are checked and whose addresses are bound:
    :meth:`advance` once per segment, passing integers only, and
    :meth:`checkpoint` at any step."""

    def __init__(self, advance, checkpoint, args: _BankArgs, arrays: dict, model):
        self._fn, self._checkpoint, self._args, self._arrays = advance, checkpoint, args, arrays
        self._model, self._ref = model, ctypes.byref(args)

    def advance(self, count: int, start: int, stop: int) -> None:
        """Advance the bank in place through steps ``start..stop-1`` of its
        draw window: those rows of its noise, masks and weights.

        ``count`` observations have been folded into the moments before
        ``start``.  A zero pivot in a gain solve raises
        :class:`TrialDiverged` naming the earliest step it met (``count``
        plus its offset from ``start``) and the first trial, by its place
        in the bank, that met it there.
        """
        window = self._args.window
        if not 0 <= start <= stop <= window:
            raise ValueError(f"segment [{start}, {stop}) outside the draw window [0, {window})")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if self._fn(self._ref, start, stop, count) == SINGULAR:
            failure = self._args.failure
            raise TrialDiverged(failure[0], failure[1], TrialDiverged.SINGULAR)

    def checkpoint(self, count: int, gamma: float) -> np.ndarray:
        """The (R, N + 3) records of the bank's state, which holds ``count``
        observations, at ``gamma``: per trial, the disagreement, N error norms,
        gain gap and Grammian gap.  The first call binds the model's true
        parameter, optimal gains and mean Grammian, so a model that does not
        validate raises here.  :class:`TrialDiverged` names ``count`` and the
        first trial with a non-finite estimate or Grammian, else with a zero
        pivot in a gain solve, else with a non-finite record."""
        args, model = self._args, self._model
        if args.theta is None:
            self._arrays.update(theta=np.ascontiguousarray(model.true_param),
                                kopt=model._optimal_gain_stack,
                                gtarget=model._centralized.grammian_norm)
            args.theta, args.kopt, args.gtarget = (
                self._arrays[name].ctypes.data for name in ("theta", "kopt", "gtarget"))
        out = np.empty((args.bank, args.n + 3))
        status = self._checkpoint(self._ref, count, gamma, out.ctypes.data)
        if status != OK:
            cause = TrialDiverged.SINGULAR if status == SINGULAR else TrialDiverged.NON_FINITE
            raise TrialDiverged(args.failure[0], count, cause)
        return out


class Streams:
    """A bank of random streams: numpy's PCG64 in the compiled library,
    which draws from them by numpy's own C distributions, so that stream
    ``r`` of ``Streams(seeds)`` draws exactly what
    ``np.random.default_rng(seeds[r])`` draws.  Each draw writes every
    stream's draws into its row of ``out``, one C-contiguous row per stream.

    A seed is a non-negative int or a sequence of them, seeded as numpy's
    ``SeedSequence`` seeds it (:func:`_seed_words`), or an object with
    ``generate_state``, such as a ``SeedSequence``, whose four 64-bit
    words seed its stream.
    """

    __slots__ = ("_lib", "_states", "_ptr")

    def __init__(self, seeds):
        self._alloc(len(seeds))
        words = np.array([seed.generate_state(4, np.uint64) if hasattr(seed, "generate_state")
                          else _seed_words(seed) for seed in seeds], np.uint64)
        self._lib.adle_seed(self._ptr, len(seeds), words.ctypes.data)

    def _alloc(self, rows: int) -> None:
        kernel = load()
        size = rows * kernel.stream_bytes
        raw = np.empty(size + 16, np.uint8)  # __uint128_t wants 16-byte alignment
        self._states = raw[-raw.ctypes.data % 16:][:size].reshape(rows, -1)
        self._lib, self._ptr = kernel._lib, self._states.ctypes.data

    def __len__(self) -> int:
        return len(self._states)

    def copy(self) -> "Streams":
        """An unseeded bank at this one's states and carried half-words."""
        twin = Streams.__new__(Streams)
        twin._alloc(len(self))
        twin._states[...] = self._states
        return twin

    def advance(self, delta: int) -> None:
        """Jump every stream ``delta`` outputs, modulo 2**128, dropping a
        carried half-word, as ``Generator.bit_generator.advance`` does."""
        delta = operator.index(delta) % (1 << 128)
        self._lib.adle_advance(self._ptr, len(self), delta >> 64, delta & (1 << 64) - 1)

    def normals(self, out: np.ndarray) -> np.ndarray:
        """Every stream's ``Generator.standard_normal``, into float64 ``out``."""
        self._check_out(out, np.float64)
        self._lib.adle_normals(self._ptr, len(self), out[0].size, out.ctypes.data, out.strides[0])
        return out

    def laplace(self, scale: float, out: np.ndarray) -> np.ndarray:
        """Every stream's ``Generator.laplace(0, scale)``, into float64 ``out``."""
        self._check_out(out, np.float64)
        self._lib.adle_laplace(self._ptr, len(self), out[0].size, 0.0, scale, out.ctypes.data,
                               out.strides[0])
        return out

    def picks(self, high: int, out: np.ndarray) -> np.ndarray:
        """Every stream's ``Generator.integers(0, high)``, into an unsigned
        ``out`` that holds ``high - 1``, so that a block of picks needs no
        int64 temporary."""
        if high < 1:
            raise ValueError(f"high must be at least 1, got {high}")
        if not (isinstance(out, np.ndarray) and out.dtype.kind == "u" and out.dtype.isnative
                and high - 1 <= np.iinfo(out.dtype).max):
            raise ValueError(f"out must be an unsigned integer array that holds {high - 1}")
        self._check_out(out, out.dtype)
        self._lib.adle_bounded(self._ptr, len(self), 0, high - 1, out[0].size, out.ctypes.data,
                               out.strides[0], out.itemsize)
        return out

    def below(self, p: float, out: np.ndarray) -> np.ndarray:
        """Every stream's ``Generator.random(out.shape[1:]) < p``, into a bool
        ``out``, without the uniforms."""
        self._check_out(out, np.bool_)
        self._lib.adle_below(self._ptr, len(self), out[0].size, p, out.ctypes.data, out.strides[0])
        return out

    def _check_out(self, out, dtype) -> None:
        """Refuse an ``out`` that is not one C-contiguous ``dtype`` row per stream."""
        if not isinstance(out, np.ndarray) or out.ndim < 2 or len(out) != len(self):
            raise ValueError(f"out must be an array of {len(self)} rows, one per stream")
        _check(out[0], "a row of out", dtype, out.shape[1:])


def _seed_words(entropy) -> list[int]:
    """``np.random.SeedSequence(entropy).generate_state(4, np.uint64)``, here:
    the entropy's 32-bit words (each int's, low word first) hash-mixed into
    a pool of four, from which eight 32-bit words are drawn and paired."""
    mask = 0xFFFFFFFF

    def words(value) -> list[int]:
        try:
            value = operator.index(value)
        except TypeError:  # a sequence
            return [word for item in value for word in words(item)]
        if value < 0:
            raise ValueError(f"seed entropy must be non-negative, got {value}")
        return [value >> shift & mask for shift in range(0, max(value.bit_length(), 1), 32)]

    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & mask
        value = value * const & mask
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & mask
        return result ^ result >> 16

    entropy = words(entropy)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    const, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & mask
        value = value * const & mask
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def scratch_vectors(n: int, m: int, mx: int) -> int:
    """``adle_scratch_vectors`` of ``_kernel.c``: the lane vectors of scratch
    of a bank of ``n`` agents, ``m`` parameters and ``mx`` observations."""
    return n * (3 * m + 3 * m * m + 4 * mx + mx * mx) + 2 * mx * mx + 2 * m * mx + m * m + mx


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
def load() -> BankKernel:
    """The compiled kernel, built on first use.

    Raises :class:`AdleError` naming the compile command and the
    compiler's complaint when the library cannot be built or loaded.
    """
    try:
        library = _build()
        try:
            kernel = BankKernel(ctypes.CDLL(str(library)))
        finally:
            if library.parent.name.endswith(_PRIVATE):  # loaded, or never to be
                shutil.rmtree(library.parent, ignore_errors=True)
    except (OSError, _CompileFailed) as exc:
        detail = str(exc).strip()
        command = " ".join(_command("<library>", _SOURCE))
        raise AdleError(f"cannot build the compiled bank-step kernel with `{command}`: "
                        f"{detail}") from exc
    _log.debug("compiled bank-step kernel runs %d trial lanes", kernel.lanes)
    return kernel
