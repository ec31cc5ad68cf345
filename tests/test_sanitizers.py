"""The compiled library under AddressSanitizer and UBSan.

The test builds ``_kernel.c`` with both sanitizers into a temporary
directory (``COMPILE``'s flags but its optimization level; the library's
own build is untouched) and runs this file as a script in a subprocess
that preloads their runtimes.  The
script drives every entry point over the shapes where an index can go
one past, and checks that a partial lane group's last trial is itself
run alone: partial lane groups, one-step and odd segments with grid steps
on their ends, the kernel's noise and link draws under every link law
and noise family, ragged observation dimensions, block starts by
segments that end at a block's end and that cross it into a short last
block, on five edges and on one, zero-step records calls, the failure
paths and a segment past step 2**31.  A sanitizer report fails the test.
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
#: three grids, and two runs into a short last block per link law and noise
#: family.
EXPECTED_RUNS = 8 * 4 * 3 + 3 * 2 * 2


def _drive(library: str) -> None:
    """Run the entry points of the library at ``library``, loaded in place
    of the built one, and print the number of ``_run_bank`` calls."""
    from adle import harness
    from adle.cli import example1_model
    from adle.errors import TrialDiverged
    from adle.model import ObservationModel
    from adle.network import Graph, TopologyModel, cycle_graph, path_graph
    from adle.schedule import WeightSchedule
    from conftest import make_ragged_model
    from reference import tiled_state

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
    # into a short last block, by a segment that ends at a block's end and by one across it
    horizon = harness.BLOCK_STEPS + 40
    for law in ("static", "bernoulli", "gossip"):
        for noise in ("gaussian", "laplace"):
            top = TopologyModel(cycle_graph(5), law, 0.5)
            for grid in ([harness.BLOCK_STEPS, horizon], [37, horizon]):
                harness._run_bank(example1_model(noise), top, schedule, horizon, np.array(grid),
                                  [(3, k) for k in range(7)])
                runs += 1

    # zero-step records calls, at every width, clean and on each failure path
    model, top = example1_model(), TopologyModel(cycle_graph(5), "bernoulli", 0.5)
    n, m = model.num_agents, model.param_dim

    def bank_state(bank):
        """A bank of ``bank`` zero states whose Grammians are the identity."""
        state = tiled_state(model, bank)
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
            bound = wide.bind(state, model, top, WeightSchedule(tau_gamma=0.0),
                              _kernel.Streams(range(bank)), 3)
            out = np.empty((bank, n + 3))
            try:
                bound.advance(3, 3, out)
                assert not breaks
            except TrialDiverged:
                assert breaks

        # a zero pivot met while advancing, in a partial lane group, with records asked for
        bank, steps = 11, 8
        state = bank_state(bank)
        state.grammians[bank - 1] = -0.25 * np.eye(m)  # gamma 1 / 4 at step 3 meets -I / 4
        bound = wide.bind(state, model, top, WeightSchedule(a=0.0, b=0.0, tau_gamma=1.0),
                          _kernel.Streams(range(bank)), steps)
        try:
            bound.advance(0, steps, np.empty((bank, n + 3)))
            raise AssertionError("no zero pivot met")
        except TrialDiverged as exc:
            assert (exc.trial, exc.step, exc.cause) == (bank - 1, 3, TrialDiverged.SINGULAR)
        # a segment past step 2**31, with records
        start = 2**31 + 5
        bound = wide.bind(bank_state(7), model, top, schedule, _kernel.Streams(range(7)),
                          start + 37)
        out = np.empty((7, n + 3))
        bound.advance(start, start + 37, out)
        assert np.all(np.isfinite(out))

        # block starts by bound advances under both drawing laws, on five edges
        # and on one (where a pick draws nothing): one-step segments, and one
        # across a block's end into a short last block, with records
        pair = ObservationModel((np.ones((1, 1)),) * 2, (np.eye(1),) * 2, np.zeros(1))
        for other, graph in ((model, cycle_graph(5)), (pair, Graph(2, ((0, 1),)))):
            for law in ("bernoulli", "gossip"):
                state = tiled_state(other, 7)
                bound = wide.bind(state, other, TopologyModel(graph, law, 0.5), schedule,
                                  _kernel.Streams(range(7)), horizon)
                for stop in (1, 2, horizon - 3, horizon):
                    out = np.empty((7, other.num_agents + 3))
                    bound.advance(state.step, stop, out)
                    state.step = stop
                assert np.all(np.isfinite(out))
    print("clean", runs)


if __name__ == "__main__":
    _drive(sys.argv[1])
