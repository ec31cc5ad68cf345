"""Loader of the compiled library (``_kernel.c``): the bank-step kernel,
the library's one consensus+innovation round and its checkpoint
diagnostics, the trials' random streams, and the CSV text of the report
tables (:meth:`BankKernel.csv_rows`).

The kernel advances a whole trial bank through one segment of steps in a
single call, computing each step's weights from the schedule, starting each
block's link draws, drawing each step's noise and links from the trials'
streams and forming the observations from the noise, and, where asked,
writes the bank's checkpoint records at the segment's last step.  A bank is
made in one place, ``BankKernel.bind(model, top, schedule, seeds, horizon,
init)``: its state, tiled over its trials from ``initial_network_state``,
its streams and their link-stream copies and one lane scratch buffer of
``BankKernel.scratch_bytes``, which validation counts too, bound once;
``BoundBank.advance(stop, out)`` runs one segment.  The streams are numpy's
PCG64, seeded as ``np.random.default_rng`` seeds it and drawn by numpy's
own C distributions, which the library links from numpy's static
``libnpyrandom.a``.  The library is compiled on first use with the system C
compiler and cached under the package's ``__pycache__`` (else in one
private per-user directory under the system temporary directory, else in a
directory of its own that is removed once the library is loaded), keyed by
a hash of the source, as read when this module is imported, the compile
command and numpy's version; the loader refuses a library whose
``struct adle_bank`` differs from ``_BankArgs`` or whose ``struct adle_stream``
is not ``STREAM_BYTES``.  The library holds one entry point per lane width
(trials advanced side by side in one vector); the CPU it loads on picks the
widest it runs, and every width gives the same bits.
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
from .estimator import initial_network_state
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
#: instruction (its value is the same).
COMPILE = ("gcc", "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")

#: The libraries linked after numpy's static one: libm, which its distributions
#: need, and libstdc++ for its shortest round-trip ``std::to_chars`` (GCC >= 11),
#: which numpy loads already.
LIBS = ("-lm", "-lstdc++")

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
    return [*COMPILE, "-o", str(output), str(source), str(NPYRANDOM), *LIBS]


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
    "adle_csv_rows": ([_I64, _I64, _PTR, _I64, _PTR, _PTR], _I64),
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

    def bind(self, model, top, schedule, seeds, horizon: int, init=None) -> "BoundBank":
        """Make a bank of R trials, one per seed, and bind its addresses.

        Trial r's stream draws what ``np.random.default_rng(seeds[r])``
        draws: a seed is a non-negative int or a sequence of them
        (:func:`_seed_words`), or has ``generate_state``, as a
        ``SeedSequence`` has.  The bank's ``state`` is
        ``initial_network_state(model, *init)`` with a leading axis of R
        trials, which the kernel updates in place.  The kernel reads
        ``model``'s padded arrays (``_stacked``) and draws its noise
        family, draws the links that ``top.kernel_links`` names, computes
        ``schedule``'s weights at each step, and runs no segment beyond
        ``horizon``.  Each trial's link stream, a copy of its stream, takes
        the stream's state at each block's start, of ``BLOCK_STEPS`` steps
        or up to the horizon, while the stream moves past the block's
        links.  The state's contents may change between segments, though
        a segment reads only the Grammians' upper triangles; no address may.
        """
        stacked = model._stacked
        n, m, mx, bank = model.num_agents, model.param_dim, stacked.max_dim, len(seeds)
        if not bank:
            raise ValueError("a bank of streams needs at least one seed")
        if not 0 <= horizon < 2**63:  # an int64 step
            raise ValueError(f"horizon {horizon} needs 0 <= horizon < 2**63")
        if top.base.num_nodes != n:
            raise ValueError(f"topology has {top.base.num_nodes} nodes, model has {n} agents")
        words = np.array([seed.generate_state(4, np.uint64) if hasattr(seed, "generate_state")
                          else _seed_words(seed) for seed in seeds], np.uint64)
        # the streams, then their link streams; __uint128_t wants 16-byte alignment
        streams = _aligned(2 * bank * STREAM_BYTES, 16).reshape(2, bank, -1)
        self._lib.adle_seed(streams.ctypes.data, bank, words.ctypes.data)
        streams[1] = streams[0]
        state = initial_network_state(model, *(init or ()))
        for field in ("estimates", "grammians", "obs_shifts", "obs_sums", "obs_outer_sums"):
            setattr(state, field, np.repeat(getattr(state, field)[None], bank, axis=0))
        arrays = {  # in the order of struct adle_bank
            "x": state.estimates, "g": state.grammians, "shift": state.obs_shifts,
            "sums": state.obs_sums, "outer": state.obs_outer_sums,
            "q0": state.initial_sample_covs,
            "h": stacked.sensing, "truth": stacked.sensed_truth, "factor": stacked.noise_factor,
            "edges": top.edge_array, "streams": streams[0], "link_streams": streams[1],
        }
        args = _BankArgs(bank=bank, n=n, m=m, mx=mx, num_edges=top.base.num_edges,
                         links=top.kernel_links, horizon=horizon, block=BLOCK_STEPS, p=top.p,
                         laplace=0.0 if model.noise == "gaussian" else _LAPLACE_SCALE,
                         scale=(schedule.a, schedule.b, schedule.gamma0),
                         tau=(schedule.tau1, schedule.tau2, schedule.tau_gamma),
                         **{name: arr.ctypes.data for name, arr in arrays.items()})
        # GCC's vector types assume their 64-byte alignment, which np.empty does not promise
        arrays["scratch"] = _aligned(self.scratch_bytes(model, bank), 64)
        args.scratch = arrays["scratch"].ctypes.data
        return BoundBank(self._fns[self._width(bank)], args, arrays, model, state)

    def _width(self, bank: int) -> int:
        return 1 if bank == 1 else self.lanes

    def scratch_bytes(self, model, bank: int) -> int:
        """Bytes of the lane scratch that :meth:`bind` allocates for a bank of ``bank``
        trials of ``model``: ``adle_scratch_vectors`` vectors of the bank's width."""
        args = _BankArgs(n=model.num_agents, m=model.param_dim, mx=max(model.obs_dims))
        return self._lib.adle_scratch_vectors(ctypes.byref(args)) * self._width(bank) * 8

    def csv_rows(self, ints: np.ndarray, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """CSV text of a table into ``out``, a uint8 array of at least
        :func:`csv_bytes` bytes, and the part of ``out`` it fills.  Row r is
        ``ints[r]`` (int64, rows x lead) in decimal, then ``values[r]``
        (float64, rows x cols) each as ``repr(float(v))`` spells it,
        comma-joined and ended by ``\\r\\n``, as ``csv.writer`` writes them."""
        (rows, lead), (_, cols) = ints.shape, values.shape
        if not (ints.dtype == np.int64 and values.dtype == np.float64 and out.dtype == np.uint8
                and all(arr.flags.c_contiguous for arr in (ints, values, out))
                and len(values) == rows and out.size >= csv_bytes(rows, lead, cols)):
            raise ValueError(f"csv_rows needs C-contiguous int64 and float64 tables of {rows} "
                             f"rows and {csv_bytes(rows, lead, cols)} bytes of uint8 out")
        written = self._lib.adle_csv_rows(rows, lead, ints.ctypes.data, cols,
                                          values.ctypes.data, out.ctypes.data)
        return out[:written]


class BoundBank:
    """A bank whose state is made and whose addresses are bound:
    :meth:`advance` once per segment."""

    def __init__(self, advance, args: _BankArgs, arrays: dict, model, state):
        self._fn, self._args, self._arrays = advance, args, arrays
        self._model, self._ref, self.state = model, ctypes.byref(args), state

    def advance(self, stop: int, out: np.ndarray | None = None) -> None:
        """Advance the bank in place through steps ``state.step..stop-1``,
        ``state.step`` the observations folded, at each step's weights,
        drawing its noise and links, the block's links first at a block's
        start, and set ``state.step`` to ``stop``; then, given a float64
        (R, N + 3) ``out``, write into it each trial's records at step
        ``stop``: the disagreement, N error norms, gain gap and Grammian gap.
        The first such call binds the model's true parameter, optimal gains
        and mean Grammian, so a model that does not validate raises there.
        :class:`TrialDiverged` names a trial by its place in the bank: the
        first at the earliest zero pivot met advancing, else, at the
        records' step, the first with a non-finite estimate or Grammian,
        else with a zero pivot in a gain solve, else with a non-finite record.
        A segment that ends beyond the bound horizon raises ``ValueError``.
        """
        args, start = self._args, self.state.step
        if not 0 <= start <= stop < 2**63:  # int64 steps
            raise ValueError(f"segment [{start}, {stop}) needs 0 <= start <= stop < 2**63")
        if stop > args.horizon:
            raise ValueError(f"segment [{start}, {stop}) ends beyond the horizon {args.horizon}")
        if out is not None:
            shape = (args.bank, args.n + 3)
            if not (isinstance(out, np.ndarray) and out.dtype == np.float64
                    and out.flags.c_contiguous and out.shape == shape):
                raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
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
        self.state.step = stop


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


def csv_bytes(rows: int, lead: int, cols: int) -> int:
    """The bound of :meth:`BankKernel.csv_rows`' text of ``rows`` rows of
    ``lead`` ints and ``cols`` floats: 21 bytes a field of int64's minimum,
    25 one of ``-2.2250738585072014e-308``, commas and ``\\r\\n`` included."""
    return rows * (21 * lead + 25 * cols + 2)


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
