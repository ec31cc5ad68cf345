"""The compiled library under AddressSanitizer and UBSan.

The test builds ``_kernel.c`` with both sanitizers into a temporary
directory (``COMPILE``'s flags but its optimization level; the library's
own build is untouched) and runs this file as a script in a subprocess
that preloads their runtimes.  The
script drives every entry point over the shapes where an index can go
one past, and checks that a partial lane group's last trial is itself
run alone: partial lane groups, one-step and odd segments with grid steps
on their ends, the kernel's noise and link draws under every link law
and noise family, across a block's end too, ragged observation
dimensions, zero-step records calls, the failure paths and skipped
picks.  A sanitizer report fails the test.
"""

import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adle import _kernel

#: The sanitizer build: no optimization that hides a read, and every report fatal.
SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer")


def _runtime(name: str) -> Path | None:
    """The compiler's runtime library ``name``, where it has one."""
    try:
        done = subprocess.run([_kernel.COMPILE[0], f"-print-file-name={name}"],
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    path = Path(done.stdout.strip())
    return path if path.is_absolute() and path.exists() else None


def test_the_kernel_runs_clean_under_address_and_undefined_behavior_sanitizers(tmp_path):
    runtimes = [_runtime("libasan.so"), _runtime("libubsan.so")]
    if None in runtimes:
        pytest.skip("the compiler has no AddressSanitizer or UBSan runtime")
    library = tmp_path / "_kernel-sanitized.so"
    flags = [flag for flag in _kernel.COMPILE if not flag.startswith("-O")]
    build = subprocess.run([*flags, *SANITIZE, "-o", str(library), str(_kernel._SOURCE),
                            str(_kernel.NPYRANDOM), "-lm"], capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    here = Path(__file__).resolve().parent
    env = {**os.environ, "LD_PRELOAD": ":".join(map(str, runtimes)),
           "ASAN_OPTIONS": "detect_leaks=0", "UBSAN_OPTIONS": "print_stacktrace=1",
           "PYTHONPATH": os.pathsep.join([str(Path(_kernel.__file__).resolve().parents[1]),
                                          str(here), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, __file__, str(library)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0 and "Sanitizer" not in done.stderr, done.stderr[-4000:]
    assert "runtime error" not in done.stderr, done.stderr[-4000:]
    assert done.stdout.split()[-2:] == ["clean", str(EXPECTED_RUNS)], done.stdout


#: ``_run_bank`` calls of :func:`_drive`: eight models and links, four banks,
#: three grids, and a run across a block's end per link law and noise family.
EXPECTED_RUNS = 8 * 4 * 3 + 3 * 2


def _drive(library: str) -> None:
    """Run the entry points of the library at ``library``, loaded in place
    of the built one, and print the number of ``_run_bank`` calls."""
    from adle import harness
    from adle.cli import example1_model
    from adle.errors import TrialDiverged
    from adle.network import TopologyModel, cycle_graph, path_graph
    from adle.schedule import WeightSchedule
    from conftest import make_ragged_model

    _kernel._build = lambda: Path(library)
    kernel = _kernel.load()
    widths = [width for width in _kernel.WIDTHS if width <= kernel.lanes]
    schedule, runs = WeightSchedule(b=0.5), 0
    cases = [(example1_model(noise), TopologyModel(cycle_graph(5), law, 0.5))
             for law in ("static", "bernoulli", "gossip") for noise in ("gaussian", "laplace")]
    cases += [(make_ragged_model(), TopologyModel(path_graph(3), "bernoulli", 0.7)),
              (make_ragged_model("laplace"), TopologyModel(path_graph(3), "gossip"))]
    # segments of 1 step, of 37 steps, and ending on grid steps 1, 36, 37, 74 and 80
    grids = (np.arange(1, 81), np.array([37, 74, 80]), np.array([1, 36, 37, 74, 80]))
    for model, top in cases:
        for bank in (1, 7, 61, 64):
            seeds = [(bank, k) for k in range(bank)]
            for grid in grids:
                results = harness._run_bank(model, top, schedule, 80, grid, seeds)
                runs += 1
            # no dead lane draws and no lane writes past its draws: the last trial
            # is bit for bit itself run alone (but for the numpy baseline)
            alone = harness._run_bank(model, top, schedule, 80, grids[-1], seeds[-1:])
            assert all(got[-1].tobytes() == want[0].tobytes()
                       for got, want in zip(results[:5], alone)), (bank, top.law)
    for law in ("static", "bernoulli", "gossip"):  # across a block's end, into a short block
        for noise in ("gaussian", "laplace"):
            top, horizon = TopologyModel(cycle_graph(5), law, 0.5), harness.BLOCK_STEPS + 40
            harness._run_bank(example1_model(noise), top, schedule, horizon,
                              np.array([harness.BLOCK_STEPS, horizon]),
                              [(3, k) for k in range(7)])
            runs += 1

    # zero-step records calls, at every width, clean and on each failure path
    model, top = example1_model(), TopologyModel(cycle_graph(5), "bernoulli", 0.5)
    n, m = model.num_agents, model.param_dim

    def bank_state(bank):
        """A bank of ``bank`` zero states whose Grammians are the identity."""
        state = harness.initial_network_state(model)
        for field in ("estimates", "grammians", "obs_shifts", "obs_sums", "obs_outer_sums"):
            array = getattr(state, field)
            setattr(state, field, np.tile(array, (bank,) + (1,) * array.ndim))
        state.grammians[:] = np.eye(m)
        return state

    for width in widths:
        wide = copy.copy(kernel)
        wide.lanes = width
        for bank, breaks in ((1, ()), (7, ()), (11, ("nan",)), (11, ("singular",)),
                             (11, ("overflow",)), (61, ("singular", "overflow"))):
            state = bank_state(bank)
            if "nan" in breaks:
                state.grammians[bank - 1, 2, 1, 1] = np.nan
            if "singular" in breaks:
                state.grammians[bank - 2] = -np.eye(m)  # G + gamma I = 0 at gamma = 1
            if "overflow" in breaks:
                state.estimates[bank - 3, 0] = 1e300
            streams = _kernel.Streams(range(bank))
            bound = wide.bind(state, model, top, streams, streams.copy(),
                              np.array([[0.0], [0.0], [1.0]]))
            out = np.empty((bank, n + 3))
            try:
                bound.advance(3, 0, 0, out)
                assert not breaks
            except TrialDiverged:
                assert breaks

        # a zero pivot met while advancing, in a partial lane group, with records asked for
        bank, steps = 11, 8
        weights = np.zeros((3, steps + 1))
        weights[2] = np.arange(1.0, steps + 2)  # gamma 3 at step 2 meets -3 I
        state = bank_state(bank)
        state.grammians[bank - 1] = -3.0 * np.eye(m)
        streams = _kernel.Streams(range(bank))
        bound = wide.bind(state, model, top, streams, streams.copy(), weights)
        try:
            bound.advance(40, 0, steps, np.empty((bank, n + 3)))
            raise AssertionError("no zero pivot met")
        except TrialDiverged as exc:
            assert (exc.trial, exc.step, exc.cause) == (bank - 1, 42, TrialDiverged.SINGULAR)

    # the stream entry points: a jump, copies, and skipped picks
    streams = _kernel.Streams([(5, k) for k in range(3)])
    streams.advance(2**70 + 3)
    streams.copy(streams.copy())
    for count in (1, 37):
        for edges in (1, 5):  # one edge draws nothing
            streams.skip_picks(edges, count)
    print("clean", runs)


if __name__ == "__main__":
    _drive(sys.argv[1])
