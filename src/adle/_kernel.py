"""Loader of the compiled library (``_kernel.c``): the bank-step kernel,
the library's one consensus+innovation round and its checkpoint
diagnostics, and the trials' random streams.

The kernel advances a whole trial bank through one segment of steps in a
single call, computing each step's weights from the schedule, starting
each block's link draws, drawing each step's noise and links from the
trials' streams and forming the observations from the noise, and, where
asked, writes the bank's checkpoint records at the segment's last step.
A bank is bound once, with its state, model, links, schedule, streams
and horizon (``BankKernel.bind``), its link streams and one lane
scratch buffer.
:class:`Streams` are a bank's PCG64 streams, drawn by numpy's own C
distributions, which the library links from numpy's static
``libnpyrandom.a``.  The library is compiled on first use with the
system C compiler and cached under the package's ``__pycache__`` (else
in one private per-user directory under the system temporary directory,
else in a directory of its own that is removed once the library is
loaded), keyed by a hash of the source, as read when this module is
imported, the compile command and numpy's version; the loader refuses a
library whose ``struct adle_bank`` differs from ``_BankArgs`` or whose
``struct adle_stream`` is not ``STREAM_BYTES``.  The library holds one
entry point per lane width (trials advanced side by side in one vector);
the CPU it loads on picks the widest it runs, and every width gives the
same bits.
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
from .model import _LAPLACE_SCALE

try:  # hashlib would load OpenSSL, several MB, for one digest
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

_SOURCE = Path(__file__).with_name("_kernel.c")

#: numpy's static library of its C distributions, linked into the library;
#: found beside ``numpy.random`` without importing it.
NPYRANDOM = Path(np.__file__).with_name("random") / "lib" / "libnpyrandom.a"

#: ``ADLE_LAYOUT`` of ``_kernel.c``: the version of ``struct adle_bank``.
LAYOUT = 7

#: Steps of a block, at whose start the kernel moves each trial's stream
#: past the block's link draws (``block`` of ``struct adle_bank``): part of
#: the documented per-trial draw order, a block's links, then its noise.
BLOCK_STEPS = 1024

#: Bytes of a ``struct adle_stream`` of ``_kernel.c``: one stream's state.
STREAM_BYTES = 48

#: No ``-march=native`` and no ``-ffast-math``, and no contraction into
#: fused multiply-adds: results are then bit-stable across machines of
#: one architecture.  ``-fno-math-errno`` keeps the kernel's ``sqrt`` one
#: instruction (its value is the same); numpy's distributions need libm.
COMPILE = ("gcc", "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")

#: Lane widths of the entry points ``adle_advance_bank_<L>``: baseline,
#: AVX2 and AVX-512F.
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
        [(name, ctypes.c_int64) for name in ("bank", "n", "m", "mx", "num_edges", "links",
                                             "horizon", "block")]
        + [("p", ctypes.c_double), ("laplace", ctypes.c_double)]
        + [("scale", ctypes.c_double * 3), ("tau", ctypes.c_double * 3)]
        + [(name, ctypes.c_void_p) for name in ("x", "g", "shift", "sums", "outer", "q0", "h",
                                                "truth", "factor", "edges", "streams",
                                                "link_streams", "theta", "kopt", "gtarget",
                                                "scratch")]
        + [("failure", ctypes.c_int64 * 2)]
    )


_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
_BANK = ctypes.POINTER(_BankArgs)

#: The library's entry points, with their argument and result types.
SIGNATURES = {
    "adle_layout": ([], _I64), "adle_bank_bytes": ([], _I64), "adle_lanes": ([], ctypes.c_int),
    "adle_scratch_vectors": ([_BANK], _I64), "adle_stream_bytes": ([], _I64),
    "adle_seed": ([_PTR, _I64, _PTR], None),
    **{f"adle_advance_bank_{width}": ([_BANK, _I64, _I64, _PTR], ctypes.c_int)
       for width in WIDTHS},
}

_WIDE = "adle_advance_bank_"  # one entry point per lane width


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
        if lib.adle_stream_bytes() != STREAM_BYTES:
            raise AdleError(f"the compiled kernel's struct adle_stream is {lib.adle_stream_bytes()}"
                            f" bytes, but the loader's STREAM_BYTES is {STREAM_BYTES}")
        self.lanes = lib.adle_lanes()
        self._fns = {width: _bind(lib, f"{_WIDE}{width}")
                     for width in WIDTHS[:WIDTHS.index(self.lanes) + 1]}
        self._lib = lib

    def bind(self, state, model, top, schedule, streams, horizon: int) -> "BoundBank":
        """Check a bank and its streams once and bind their addresses.

        ``state`` is an ``adle.estimator.NetworkState`` whose arrays carry a
        leading axis of R trials; the kernel updates its estimates,
        Grammians and moments in place.  ``model`` is the
        ``ObservationModel`` whose padded sensing, sensed truth and noise
        factors (``_stacked``) it reads, and whose family it draws,
        ``top`` holds the links and what the kernel draws of them
        (``TopologyModel.kernel_links``), and ``schedule`` is the
        ``WeightSchedule`` whose alpha, beta and gamma the kernel computes
        at each step.  ``streams`` is a bank of R :class:`Streams`, from
        which the kernel draws each trial's unit-variance noise, and
        ``horizon`` the step no segment goes beyond.  Each trial's link
        stream, allocated here as a copy of its stream, takes the stream's
        state at each block's start, of ``BLOCK_STEPS`` steps or up to the
        horizon, while the stream moves past the block's links; the kernel
        draws each step's links from it.  The arrays' contents may change
        between segments; no address may.  The returned bank keeps every
        array alive, and the link streams and lane scratch allocated here.
        """
        stacked = model._stacked
        n, m, mx, bank = model.num_agents, model.param_dim, stacked.max_dim, len(streams)
        if not isinstance(streams, Streams):
            raise ValueError(f"streams must be a bank of {bank} Streams, one per trial")
        if not 0 <= horizon < 2**63:  # an int64 step
            raise ValueError(f"horizon {horizon} needs 0 <= horizon < 2**63")
        links = _aligned(streams._states.nbytes, 16).reshape(streams._states.shape)
        links[...] = streams._states
        arrays = {  # in the order of struct adle_bank
            "x": _check(state.estimates, "estimates", np.float64, (bank, n, m)),
            "g": _check(state.grammians, "grammians", np.float64, (bank, n, m, m)),
            "shift": _check(state.obs_shifts, "obs_shifts", np.float64, (bank, n, mx)),
            "sums": _check(state.obs_sums, "obs_sums", np.float64, (bank, n, mx)),
            "outer": _check(state.obs_outer_sums, "obs_outer_sums", np.float64, (bank, n, mx, mx)),
            "q0": _check(state.initial_sample_covs, "initial_sample_covs", np.float64, (n, mx, mx)),
            "h": stacked.sensing, "truth": stacked.sensed_truth, "factor": stacked.noise_factor,
            "edges": top.edge_array, "streams": streams._states, "link_streams": links,
        }
        if not all(arrays[name].flags.writeable for name in ("x", "g", "shift", "sums", "outer")):
            raise ValueError("the bank state arrays must be writable")
        if top.base.num_nodes != n:
            raise ValueError(f"topology has {top.base.num_nodes} nodes, state has {n} agents")
        args = _BankArgs(bank=bank, n=n, m=m, mx=mx, num_edges=top.base.num_edges,
                         links=top.kernel_links, horizon=horizon, block=BLOCK_STEPS, p=top.p,
                         laplace=0.0 if model.noise == "gaussian" else _LAPLACE_SCALE,
                         scale=(schedule.a, schedule.b, schedule.gamma0),
                         tau=(schedule.tau1, schedule.tau2, schedule.tau_gamma),
                         **{name: arr.ctypes.data for name, arr in arrays.items()})
        lanes = 1 if bank == 1 else self.lanes
        # GCC's vector types assume their 64-byte alignment, which np.empty does not promise
        size = self._lib.adle_scratch_vectors(ctypes.byref(args)) * lanes * 8
        arrays["scratch"] = _aligned(size, 64)
        args.scratch = arrays["scratch"].ctypes.data
        return BoundBank(self._fns[lanes], args, arrays, model)


class BoundBank:
    """A bank whose arrays are checked and whose addresses are bound:
    :meth:`advance` once per segment."""

    def __init__(self, advance, args: _BankArgs, arrays: dict, model):
        self._fn, self._args, self._arrays = advance, args, arrays
        self._model, self._ref = model, ctypes.byref(args)

    def advance(self, start: int, stop: int, out: np.ndarray | None = None) -> None:
        """Advance the bank in place through steps ``start..stop-1``,
        ``start`` the observations folded, at each step's weights, drawing
        its noise and links, the block's links first at a block's start;
        then, given a float64 (R, N + 3) ``out``,
        write into it each trial's records at step ``stop``: the
        disagreement, N error norms, gain gap and Grammian gap.
        The first such call binds the model's true parameter, optimal gains
        and mean Grammian, so a model that does not validate raises there.
        :class:`TrialDiverged` names a trial by its place in the bank: the
        first at the earliest zero pivot met advancing, else, at the
        records' step, the first with a non-finite estimate or Grammian,
        else with a zero pivot in a gain solve, else with a non-finite record.
        A segment that ends beyond the bound horizon raises ``ValueError``.
        """
        args = self._args
        if not 0 <= start <= stop < 2**63:  # int64 steps
            raise ValueError(f"segment [{start}, {stop}) needs 0 <= start <= stop < 2**63")
        if stop > args.horizon:
            raise ValueError(f"segment [{start}, {stop}) ends beyond the horizon {args.horizon}")
        if out is not None:
            _check(out, "out", np.float64, (args.bank, args.n + 3))
            if args.theta is None:
                model = self._model
                self._arrays.update(theta=np.ascontiguousarray(model.true_param),
                                    kopt=model._optimal_gain_stack,
                                    gtarget=model._centralized.grammian_norm)
                args.theta, args.kopt, args.gtarget = (
                    self._arrays[name].ctypes.data for name in ("theta", "kopt", "gtarget"))
        status = self._fn(self._ref, start, stop, None if out is None else out.ctypes.data)
        if status != OK:
            cause = TrialDiverged.SINGULAR if status == SINGULAR else TrialDiverged.NON_FINITE
            raise TrialDiverged(args.failure[0], args.failure[1], cause)


class Streams:
    """A bank of random streams: numpy's PCG64 in the compiled library,
    from which the kernel draws by numpy's own C distributions, so that
    stream ``r`` of ``Streams(seeds)`` draws exactly what
    ``np.random.default_rng(seeds[r])`` draws (``BankKernel.bind``).

    A seed is a non-negative int or a sequence of them, seeded as numpy's
    ``SeedSequence`` seeds it (:func:`_seed_words`), or an object with
    ``generate_state``, such as a ``SeedSequence``, whose four 64-bit
    words seed its stream.
    """

    __slots__ = ("_states",)

    def __init__(self, seeds):
        if not len(seeds):
            raise ValueError("a bank of streams needs at least one seed")
        words = np.array([seed.generate_state(4, np.uint64) if hasattr(seed, "generate_state")
                          else _seed_words(seed) for seed in seeds], np.uint64)
        # __uint128_t wants 16-byte alignment
        self._states = _aligned(len(seeds) * STREAM_BYTES, 16).reshape(len(seeds), -1)
        load()._lib.adle_seed(self._states.ctypes.data, len(seeds), words.ctypes.data)

    def __len__(self) -> int:
        return len(self._states)


def _seed_words(entropy) -> list[int]:
    """``np.random.SeedSequence(entropy).generate_state(4, np.uint64)``, here:
    the entropy's 32-bit words (each int's, low word first) hash-mixed into
    a pool of four, from which eight 32-bit words are drawn and paired."""
    mask = 0xFFFFFFFF

    def words(value) -> list[int]:
        try:
            value = operator.index(value)
        except TypeError:  # a sequence
            if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
                raise TypeError(f"a seed must be a non-negative int, a sequence of them or a "
                                f"SeedSequence, got {entropy!r}") from None
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


def _aligned(size: int, alignment: int) -> np.ndarray:
    """An uninitialized buffer of ``size`` bytes whose address ``alignment`` divides."""
    raw = np.empty(size + alignment, np.uint8)
    return raw[-raw.ctypes.data % alignment:][:size]


def scratch_vectors(n: int, m: int, mx: int) -> int:
    """``adle_scratch_vectors`` of ``_kernel.c``: the lane vectors of scratch
    of a bank of ``n`` agents, ``m`` parameters and ``mx`` observations."""
    return n * (3 * m + 3 * m * m + 5 * mx + mx * mx) + 2 * mx * mx + 2 * m * mx + m * m + mx


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
