import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adle
from adle import _kernel, cli, harness
from adle.cli import ScenarioConfig, example1_graph, main, parse_config
from adle.errors import ParseError, ValidationError
from reference import reference_walk


#: An explicit two-agent model on the edge [0, 1].
TWO_AGENTS = {"sensing": [[[1.0, 0.0]], [[0.0, 1.0]]], "noise_cov": [[[2.0]], [[1.0]]],
              "true_param": [1.0, 2.0]}


def write_scenario(tmp_path, name="scenario.yaml", **overrides):
    doc = {
        "schema": "adle-scenario/1",
        "model": "example1",
        "topology": {"base": "example1", "law": "bernoulli", "p": 0.5},
        "schedule": {"tau2": 0.2},
        "horizon": 200,
        "num_trials": 6,
        "master_seed": 11,
        "cap_consensus_weight": True,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_preset_expands_to_ring_fixture(tmp_path):
    config = parse_config(write_scenario(tmp_path))
    model = config.model
    assert model.num_agents == 5
    assert model.param_dim == 5
    assert np.array_equal(model.sensing[2], np.array([[0.0, 1.0, 1.0, 1.0, 0.0]]))
    assert all(np.array_equal(r, np.eye(1)) for r in model.noise_cov)
    assert np.array_equal(model.true_param, np.ones(5))
    assert config.topology.base == example1_graph()
    assert config.topology.law == "bernoulli" and config.topology.p == 0.5


def test_consensus_weight_cap_rescales_b(tmp_path):
    capped = parse_config(write_scenario(tmp_path, cap_consensus_weight=True))
    assert capped.schedule.b == pytest.approx(0.5)  # pentagon max degree is 2
    uncapped = parse_config(write_scenario(tmp_path, cap_consensus_weight=False))
    assert uncapped.schedule.b == pytest.approx(1.0)


def test_invalid_schedule_reports_separation_slack(tmp_path):
    path = write_scenario(tmp_path, schedule={"tau1": 1.0, "tau2": 0.6, "eps1": 2.0})
    with pytest.raises(ValidationError) as info:
        parse_config(path)
    assert "-0.35" in str(info.value)


def test_validation_collects_multiple_errors(tmp_path):
    path = write_scenario(
        tmp_path,
        schedule={"tau1": 0.5, "tau2": 0.9},
        horizon=0,
        model={"sensing": [[[1.0, 0.0]], [[1.0, 0.0]]],
               "noise_cov": [1.0, 1.0],
               "true_param": [0.0, 0.0]},
    )
    with pytest.raises(ValidationError) as info:
        parse_config(path)
    text = str(info.value)
    assert "schedule" in text and "horizon" in text and "observable" in text


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        parse_config(tmp_path / "nope.yaml")


def test_malformed_yaml_is_a_parse_error(tmp_path, monkeypatch):
    path = tmp_path / "bad.yaml"
    for loader in (cli._LOADER, yaml.SafeLoader):  # libyaml's and PyYAML's report alike
        monkeypatch.setattr(cli, "_LOADER", loader)
        for text, line in (("schema: [unclosed\n", 2), ("schema: x\nhorizon: 1\n  seed: 2\n", 3)):
            path.write_text(text)
            with pytest.raises(ParseError) as info:
                parse_config(path)
            assert (info.value.path, info.value.line) == (str(path), line)


def test_a_key_given_twice_is_a_parse_error(tmp_path, capsys):
    # under the libyaml loader where PyYAML has it, which it has here
    assert issubclass(cli._LOADER, yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    path = tmp_path / "twice.yaml"
    head = "schema: adle-scenario/1\nmodel: example1\nnum_trials: 6\n"
    for text, key in ((head + "horizon: 100\ntopology: {law: static}\nhorizon: 200\n", "horizon"),
                      (head + "topology:\n  law: static\n  law: gossip\n", "law")):
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            parse_config(path)
        assert (info.value.path, info.value.line) == (str(path), 6)
        assert f"found duplicate key {key!r}" in str(info.value)
        assert main(["--config", str(path), "--validate-only"]) == 1
        assert f"found duplicate key {key!r}" in capsys.readouterr().err
    # keys merged in by <<, and a key given beside them, which replaces theirs
    path.write_text(head + "horizon: 200\nacceptance: {<<: &tol {efficiency_tol: 0.3}}\n"
                    "topology:\n  <<: {base: example1, law: gossip, p: 0.3}\n  law: bernoulli\n")
    config = parse_config(path)
    assert config.acceptance.efficiency_tol == 0.3
    assert (config.topology.law, config.topology.p) == ("bernoulli", 0.3)


def test_unknown_top_level_key_rejected(tmp_path):
    path = write_scenario(tmp_path, horizons=100)
    with pytest.raises(ValidationError) as info:
        parse_config(path)
    assert "horizons" in str(info.value)


def test_wrong_schema_rejected(tmp_path):
    path = write_scenario(tmp_path, schema="adle-scenario/9")
    with pytest.raises(ValidationError):
        parse_config(path)


def test_explicit_model_and_edge_list(tmp_path):
    path = write_scenario(
        tmp_path,
        model={"sensing": [[[1.0, 0.0]], [[0.0, 1.0]]],
               "noise_cov": [[[2.0]], [[1.0]]],
               "true_param": [1.0, 2.0]},
        topology={"base": [[0, 1]], "law": "static"},
    )
    config = parse_config(path)
    assert config.model.num_agents == 2
    assert config.topology.base.num_nodes == 2
    assert config.topology.law == "static"


def test_validate_only_prints_derived_quantities(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["--config", str(path), "--validate-only"]) == 0
    out = capsys.readouterr().out
    assert "Fiedler" in out
    assert "slack" in out
    assert "covariance" in out


def test_a_run_validates_its_model_once(tmp_path, monkeypatch):
    # parse_config validates the model by its cached centralized summary,
    # which the optimal gains, the baseline and the report read again
    calls, validate = [], adle.model.validate_observation_model

    def spy(model):
        calls.append(model)
        return validate(model)

    monkeypatch.setattr(adle.model, "validate_observation_model", spy)
    monkeypatch.setattr(cli, "validate_observation_model", spy, raising=False)
    config = parse_config(write_scenario(tmp_path, run_ks_test=True))
    harness.write_report(harness.run_experiment(config), tmp_path / "out", config.acceptance)
    assert calls == [config.model]


def test_bad_flag_exits_one(capsys):
    assert main(["--config", "x", "--bogus"]) == 1


def test_missing_config_flag_exits_one(capsys):
    assert main([]) == 1


def test_invalid_config_exits_one(tmp_path, capsys):
    path = write_scenario(tmp_path, schedule={"tau1": 0.5, "tau2": 0.9})
    assert main(["--config", str(path)]) == 1
    assert "schedule" in capsys.readouterr().err


def test_full_run_writes_deterministic_outputs(tmp_path, capsys):
    path = write_scenario(tmp_path, horizon=400, num_trials=8)
    out_a = tmp_path / "out_a"
    out_b = tmp_path / "out_b"
    code_a = main(["--config", str(path), "--out", str(out_a)])
    code_b = main(["--config", str(path), "--out", str(out_b)])
    assert code_a == code_b
    assert code_a in (0, 2)  # statistics may fail at toy scale; the run must not error
    names = sorted(p.name for p in out_a.iterdir())
    assert "checkpoints.csv" in names and "summary.csv" in names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_is_recorded(tmp_path):
    path = write_scenario(tmp_path, horizon=200, num_trials=4)
    outdir = tmp_path / "out"
    main(["--config", str(path), "--out", str(outdir), "--seed", "777"])
    summary = (outdir / "summary.csv").read_text()
    assert "master_seed,777" in summary


def test_seed_override_changes_outputs(tmp_path):
    path = write_scenario(tmp_path, horizon=200, num_trials=4)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["--config", str(path), "--out", str(out_a), "--seed", "1"])
    main(["--config", str(path), "--out", str(out_b), "--seed", "2"])
    assert (out_a / "checkpoints.csv").read_bytes() != (out_b / "checkpoints.csv").read_bytes()


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    path = write_scenario(tmp_path, horizon=200, num_trials=4)
    outdir = tmp_path / "from_env"
    monkeypatch.setenv("ADLE_OUT_DIR", str(outdir))
    main(["--config", str(path)])
    assert (outdir / "summary.csv").exists()


def test_trials_and_horizon_overrides(tmp_path):
    path = write_scenario(tmp_path, horizon=200, num_trials=4)
    outdir = tmp_path / "out"
    main(["--config", str(path), "--out", str(outdir), "--trials", "3", "--horizon", "120"])
    summary = (outdir / "summary.csv").read_text()
    assert "num_trials,3" in summary
    assert "horizon,120" in summary


def test_divergent_run_exits_one_and_names_the_trial(tmp_path, capsys):
    path = write_scenario(tmp_path, cap_consensus_weight=False, schedule={"b": 20.0},
                          horizon=500, num_trials=12)
    outdir = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(outdir)]) == 1
    assert "error: trial 2 diverged" in capsys.readouterr().err
    assert not (outdir / "summary.csv").exists()


def _singular_scenario(tmp_path):
    # uncapped b = 100 under gossip: trial 0's G + gamma I meets an exactly
    # zero pivot before its estimates overflow
    return write_scenario(tmp_path, topology={"base": "example1", "law": "gossip"},
                          schedule={"b": 100.0}, cap_consensus_weight=False, horizon=400,
                          num_trials=8)


def test_singular_gain_solve_names_the_trial_and_step(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["--config", str(_singular_scenario(tmp_path)), "--out", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert "error: trial 0 diverged: singular matrix in the gain solve at step 11" in err
    assert not (outdir / "summary.csv").exists()


def test_singular_gain_solve_in_the_reference_trajectory_names_the_trial_and_step(
    tmp_path, capsys, monkeypatch
):
    # the oracle's numpy round differs from the kernel in the last bits: its
    # checkpoint diagnostics at step 13 are the first solve to meet the singular matrix
    monkeypatch.setattr(harness, "_walk", reference_walk)
    outdir = tmp_path / "out"
    assert main(["--config", str(_singular_scenario(tmp_path)), "--out", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert "error: trial 0 diverged: singular matrix in the gain solve at step 13" in err
    assert not (outdir / "summary.csv").exists()


def test_ring_smoke_checkpoints_keep_their_bits(tmp_path):
    # the records come only from the kernel, the draws and repr, with no BLAS,
    # so these bits hold on every machine of this architecture
    scenario = Path(__file__).parents[1] / "demos" / "scenarios" / "ring_smoke.yaml"
    assert main(["--config", str(scenario), "--out", str(tmp_path)]) in (0, 2)
    assert hashlib.sha256((tmp_path / "checkpoints.csv").read_bytes()).hexdigest() == (
        "6de0a27861d883c2446a8897a2a65dbe8e716ba761a7ced47deb0af430921d36")


def test_module_entry_point_runs_the_command(tmp_path):
    src = str(Path(adle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cmd = [sys.executable, "-m", "adle.cli", "--config", str(tmp_path / "none.yaml")]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "none.yaml" in done.stderr


def test_a_one_worker_run_loads_neither_numpy_ma_nor_multiprocessing(tmp_path):
    # the medians are sorts, the process pool is imported only to be built,
    # subprocess only to compile the kernel, which this process has built, the
    # trials draw from the kernel's streams, not numpy.random, the kernel's
    # source is hashed without hashlib (OpenSSL), the checkpoint bound takes
    # no Fraction and argparse is imported only to parse the command line
    _kernel._build()
    src = str(Path(adle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    path = write_scenario(tmp_path, num_trials=harness.TRIALS_PER_BANK + 2, parallelism=1,
                          run_ks_test=True)
    code = ("import sys, adle, adle.cli; from adle import harness; "
            "config = adle.cli.parse_config(sys.argv[1]); "
            "harness.write_report(harness.run_experiment(config), sys.argv[2], config.acceptance); "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['numpy', 'ma'], "
            "['numpy', 'random']) or m.split('.')[0] in ('multiprocessing', 'subprocess', "
            "'hashlib', '_hashlib', 'fractions', 'decimal', '_decimal', 'argparse', "
            "'gettext')))")
    out = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out")], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "out" / "summary.csv").exists()


def test_config_is_a_plain_dataclass_surface(tmp_path):
    config = parse_config(write_scenario(tmp_path))
    assert isinstance(config, ScenarioConfig)
    assert config.require_efficiency is True
    assert config.acceptance.efficiency_tol == pytest.approx(0.20)


@pytest.mark.parametrize(
    "override, message",
    [
        ({"fit_window": "abc"}, "fit_window: could not convert"),
        ({"acceptance": {"efficiency_tol": "x"}}, "acceptance.efficiency_tol: could not convert"),
        ({"checkpoints": 5}, "checkpoints: expected a mapping"),
        ({"horizon": True}, "horizon: must be an integer, got True"),
        ({"horizon": 2.7}, "horizon: must be an integer, got 2.7"),
        ({"num_trials": True}, "num_trials: must be an integer, got True"),
        ({"init": {"estimate": [1.0, 2.0]}}, "init: estimate has 2 entries, expected 5"),
        ({"init": {"grammian": np.eye(2).tolist()}}, "init: grammian has 4 entries, expected 25"),
        ({"init": {"sample_cov": np.eye(2).tolist()}},
         "init: sample_cov has 4 entries, expected 1"),
        ({"run_ks_test": "false"}, "run_ks_test: must be true or false, got 'false'"),
        ({"require_efficiency": "no"}, "require_efficiency: must be true or false, got 'no'"),
        ({"cap_consensus_weight": "false"},
         "cap_consensus_weight: must be true or false, got 'false'"),
        ({"schedule": {"gamma0": float("inf")}}, "schedule.gamma0: must be finite, got inf"),
        ({"schedule": {"tau_gamma": 2000}},
         "schedule: the weights overflow the float range by step 200"),
        ({"init": {"estimate": [float("nan"), 0.0, 0.0, 0.0, 0.0]}},
         "init.estimate: must be finite, got [nan, 0.0, 0.0, 0.0, 0.0]"),
        ({"acceptance": {"efficiency_tol": float("nan")}},
         "acceptance.efficiency_tol: must be finite, got nan"),
        # a threshold out of range would make its gating row always pass (or never)
        ({"acceptance": {"gain_pass_fraction_min": -1}},
         "acceptance.gain_pass_fraction_min: must lie in [0, 1], got -1.0"),
        ({"acceptance": {"ks_significance": 1.5}},
         "acceptance.ks_significance: must lie in [0, 1], got 1.5"),
        ({"acceptance": {"efficiency_tol": -0.1}}, "acceptance.efficiency_tol: must be >= 0, got -0.1"),
        ({"acceptance": {"disagreement_error_ratio_max": -1}},
         "acceptance.disagreement_error_ratio_max: must be >= 0, got -1.0"),
        ({"acceptance": {"gain_rel_tol": -0.05}}, "acceptance.gain_rel_tol: must be >= 0, got -0.05"),
        ({"model": {**TWO_AGENTS, "sensing": [[[float("nan"), 0.0]], [[0.0, 1.0]]]}},
         "model: sensing[0] has a non-finite entry"),
        ({"model": {**TWO_AGENTS, "noise_cov": [[[float("nan")]], [[1.0]]]}},
         "model: noise_cov[0] has a non-finite entry"),
        ({"model": {**TWO_AGENTS, "true_param": [float("inf"), 0.0]}},
         "model: true_param has a non-finite entry"),
        ({"topology": {"base": [[0, float("inf")]]}}, "topology.base: must be an integer, got inf"),
        ({"topology": {"base": [[0, 1.7]]}}, "topology.base: must be an integer, got 1.7"),
        ({"topology": {"base": [{"a": 1}]}}, "topology.base: must be 'example1' or a list"),
        ({"topology": {"base": [[0, 1], [1, 2]]}}, "topology: 3 nodes, but the model has 5"),
        ({"output_dir": ["a", "b"]}, "output_dir: must be a string, got ['a', 'b']"),
        ({"init": {"sample_cov": -5}}, "init: sample_cov must be symmetric positive semidefinite"),
        ({"init": {"grammian": np.diag([1.0, 1.0, -1.0, 1.0, 1.0]).tolist()}},
         "init: grammian must be symmetric positive semidefinite"),
        ({"init": {"grammian": (np.eye(5) + np.eye(5, k=1)).tolist()}},
         "init: grammian must be symmetric positive semidefinite"),
        ({"model": {"preset": "example1", "foo": 1}}, "model.foo: unknown key"),
        # named keys, not ObservationModel's or example1_model's signature
        ({"model": {}}, "model.sensing: missing\n  - model.noise_cov: missing\n"
                        "  - model.true_param: missing"),
        ({"model": {"noise_cov": [[[1.0]]], "noise": "laplace"}},
         "model.sensing: missing\n  - model.true_param: missing"),
        ({"model": {"preset": "example1", "true_param": [1.0] * 5}},
         "model.true_param: not with preset example1"),
        ({"model": {"preset": "example1", **TWO_AGENTS}},
         "model.sensing: not with preset example1\n  - model.noise_cov: not with preset "
         "example1\n  - model.true_param: not with preset example1"),
        ({"model": {"sensing": [[[]]], "noise_cov": [[[1.0]]], "true_param": []},
          "topology": {"base": [], "nodes": 1}}, "model: sensing[0] has no columns"),
        ({"checkpoints": {"per_decade": 10**17}},
         "checkpoints.per_decade: 100000000000000000 exceeds the horizon 200"),
        ({"horizon": 10**6, "num_trials": 10**9, "checkpoints": {"per_decade": 10**6}},
         "checkpoints: 1000000000 trials x up to 999991 checkpoints need 99181465263 MiB"),
    ],
    ids=["fit_window_abc", "acceptance_tol_x", "checkpoints_int", "horizon_true", "horizon_2_7",
         "num_trials_true", "init_estimate_length", "init_grammian_size", "init_sample_cov_size",
         "run_ks_test_quoted_false",
         "require_efficiency_quoted_no", "cap_consensus_weight_quoted_false",
         "schedule_gamma0_inf", "schedule_tau_gamma_overflow", "init_estimate_nan",
         "acceptance_tol_nan",
         "acceptance_gain_pass_fraction_negative", "acceptance_ks_significance_above_one",
         "acceptance_efficiency_tol_negative", "acceptance_disagreement_ratio_negative",
         "acceptance_gain_rel_tol_negative", "model_sensing_nan",
         "model_noise_cov_nan", "model_true_param_inf", "topology_edge_inf",
         "topology_edge_fraction", "topology_edge_mapping", "topology_node_count",
         "output_dir_list", "init_sample_cov_negative", "init_grammian_indefinite",
         "init_grammian_asymmetric", "model_preset_unknown_key", "model_empty",
         "model_missing_matrices", "model_preset_with_true_param",
         "model_preset_with_matrices", "model_no_columns",
         "checkpoints_per_decade_huge", "checkpoint_records_beyond_memory"],
)
def test_malformed_value_is_a_collected_validation_error(tmp_path, capsys, override, message):
    path = write_scenario(tmp_path, **override)
    with pytest.raises(ValidationError) as info:
        parse_config(path)
    assert message in str(info.value)
    assert main(["--config", str(path), "--validate-only"]) == 1
    err = capsys.readouterr().err
    assert "invalid scenario configuration" in err and message in err


def _physical_memory(monkeypatch, pages):
    """Make ``os.sysconf`` report ``pages`` pages of 4 KiB."""
    sizes, sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}, os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: sizes.get(name) or sysconf(name))


def test_draw_buffers_beyond_memory_are_a_collected_validation_error(tmp_path, capsys,
                                                                      monkeypatch):
    # 800 pages of 4 KiB: one worker's bank and records table (0.2 MiB, most
    # of it the bank state and the table) fits beside the records of 1300
    # trials (21 banks), two workers' and the parent's copy of a table do not
    _physical_memory(monkeypatch, 800)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    config = parse_config(write_scenario(tmp_path, num_trials=1300, horizon=2085))
    records, bank = harness._held_bytes(config.model, 1300, 20, 2)
    assert bank == {
        "streams": 2 * 64 * 48,
        # adle_scratch_vectors at n = m = 5, mx = 1, at the loaded kernel's width
        "lane scratch": 518 * _kernel.load().lanes * 8,
        "bank state": (64 * (5 + 25 + 2 + 1) + 1) * 5 * 8,
        "records table": 20 * 64 * (5 + 3) * 8}
    assert records == (1300 * (20 * (2 * 5 + 3) + 6 * 5) + 3 * 20 * 5) * 8 + bank["records table"]
    path = write_scenario(tmp_path, num_trials=1300, horizon=2085, parallelism=2)
    assert main(["--config", str(path), "--validate-only"]) == 1
    err = capsys.readouterr().err
    assert "invalid scenario configuration" in err
    assert ("checkpoints: 1300 trials x up to 20 checkpoints need 2 MiB of records and "
            "2 workers x 0.2 MiB of bank buffers, more than 3 MiB of physical memory; "
            "the largest part is the records (3.0 MiB)") in err


#: Cgroup cases: the lines of /proc/self/cgroup (None: no such file), the
#: limit files under the mount root, and the file whose 1 MiB binds (None:
#: physical memory binds).
CGROUPS = {
    "number": ("0::/\n", {"memory.max": "1048576\n"}, "memory.max"),
    "above_physical": ("0::/\n", {"memory.max": "HUGE\n"}, None),
    "max": ("0::/\n", {"memory.max": "max\n"}, None),
    "missing": ("0::/\n", {}, None),
    "no_groups": (None, {"memory.max": "1048576\n"}, None),
    "nested_v2": ("0::/user.slice/run.scope\n",
                  {"user.slice/run.scope/memory.max": "max\n",
                   "user.slice/memory.max": "1048576\n"}, "memory.max"),
    "nested_v2_unmounted": ("0::/user.slice/run.scope\n", {"memory.max": "1048576\n"},
                            "memory.max"),
    "v1": ("12:cpu,cpuacct:/\n4:memory:/process_api/x\n0::/\n",
           {"memory/process_api/x/memory.limit_in_bytes": "1048576\n"},
           "memory.limit_in_bytes"),
    "v1_unlimited": ("4:memory:/process_api/x\n0::/\n",
                     {"memory/process_api/x/memory.limit_in_bytes": "9223372036854771712\n",
                      "memory/memory.limit_in_bytes": "9223372036854771712\n"}, None),
    "v1_unmounted": ("4:memory:/process_api/x\n",
                     {"memory/memory.limit_in_bytes": "1048576\n"}, "memory.limit_in_bytes"),
}


@pytest.mark.parametrize("case", list(CGROUPS))
def test_memory_bound_is_the_smaller_of_physical_memory_and_the_cgroup_limit(
    tmp_path, capsys, monkeypatch, case
):
    lines, files, binding = CGROUPS[case]
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    root = tmp_path / "cgroup"
    for name, content in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(content.replace("HUGE", str(2 * physical)))
    if lines is not None:
        (tmp_path / "proc_cgroup").write_text(lines)
    monkeypatch.setattr(harness, "_CGROUP_ROOT", root)
    monkeypatch.setattr(harness, "_PROC_CGROUP", tmp_path / "proc_cgroup")
    bound = f"cgroup memory ({binding})"  # 1 MiB: less than 1300 trials' 2.9 MiB of records
    assert harness._memory_limit() == ((1 << 20, bound) if binding
                                       else (physical, "physical memory"))
    path = write_scenario(tmp_path, num_trials=1300, horizon=2085)
    assert main(["--config", str(path), "--validate-only"]) == (1 if binding else 0)
    err = capsys.readouterr().err
    assert (f"more than 1 MiB of {bound}" in err) == bool(binding)


def test_an_oversized_scenario_fails_validation_before_it_allocates(tmp_path, capsys,
                                                                     monkeypatch):
    # 1 MiB of memory, less than the records of 64 trials checkpointed at
    # every step of 5000, which alone would take more than the whole call may
    _physical_memory(monkeypatch, 256)
    path = write_scenario(tmp_path, num_trials=64, horizon=5000,
                          checkpoints={"start": 1, "per_decade": 5000})
    tracemalloc.start()
    try:
        status = main(["--config", str(path), "--validate-only"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert status == 1 and "invalid scenario configuration" in err
    assert ("64 trials x up to 5000 checkpoints need 32 MiB of records and 1 workers x "
            "19.6 MiB of bank buffers, more than 1 MiB of physical memory; the largest part is "
            "the records (32.3 MiB)") in err
    assert peak < 1 << 19, peak


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "master_seed: must be >= 0, got -1"),
    (["--trials", "0"], "num_trials: must be >= 1, got 0"),
    (["--horizon", "5"], "horizon: 5 ends before the first checkpoint 10"),
], ids=["seed", "trials", "horizon"])
@pytest.mark.parametrize("validate_only", [True, False], ids=["validate_only", "run"])
def test_overrides_are_validated_with_the_file(tmp_path, capsys, flags, message, validate_only):
    path = write_scenario(tmp_path, horizon=200, num_trials=4)
    argv = ["--config", str(path), "--out", str(tmp_path / "out"), *flags]
    assert main(argv + ["--validate-only"] * validate_only) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid scenario configuration" in err and message in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValidationError, match=message):
        parse_config(path, {"master_seed": -1, "num_trials": 0, "horizon": 5})


@pytest.mark.parametrize("horizon", [10**400, 2**63], ids=["beyond_float", "beyond_int64"])
@pytest.mark.parametrize("validate_only", [True, False], ids=["validate_only", "run"])
def test_a_horizon_beyond_int64_is_a_collected_validation_error(tmp_path, capsys, horizon,
                                                               validate_only):
    # the checkpoint grid and the kernel's step counts are int64
    path = write_scenario(tmp_path, horizon=horizon, num_trials=2)
    with pytest.raises(ValidationError) as info:
        parse_config(path)
    assert info.value.errors == [f"horizon: must lie in [1, {2**63 - 1}], got {horizon}"]
    argv = ["--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv + ["--validate-only"] * validate_only) == 1
    out, err = capsys.readouterr()
    assert out == "" and "invalid scenario configuration" in err
    assert err.count("\n  - ") == 1 and "horizon: must lie in" in err
    assert main(["--config", str(write_scenario(tmp_path, horizon=200)), "--horizon",
                 str(horizon), "--validate-only"]) == 1
    assert not (tmp_path / "out").exists()


def test_a_list_output_dir_is_rejected_before_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ADLE_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(write_scenario(tmp_path, output_dir=["a", "b"]))]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "output_dir: must be a string" in err


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "demos" / "scenarios")
                                        .glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_scenarios_validate(path, capsys):
    assert main(["--config", str(path), "--validate-only"]) == 0
    assert "configuration OK" in capsys.readouterr().out


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "demos" / "scenarios")
                                        .glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_scenarios_load_alike_under_both_loaders(path):
    text = path.read_text()
    assert yaml.load(text, Loader=cli._LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


#: Every key of a scenario: the top-level keys, then ``section.key``.
SCENARIO_KEYS = [
    "schema", "model", "topology", "schedule", "horizon", "num_trials", "master_seed",
    "checkpoints", "output_dir", "require_efficiency", "run_ks_test", "parallelism",
    "fit_window", "cap_consensus_weight", "init", "acceptance",
    "model.preset", "model.sensing", "model.noise_cov", "model.true_param", "model.noise",
    "topology.base", "topology.nodes", "topology.law", "topology.p",
    *(f"schedule.{k}" for k in ("a", "b", "tau1", "tau2", "gamma0", "tau_gamma", "eps1")),
    "checkpoints.start", "checkpoints.per_decade",
    "init.estimate", "init.grammian", "init.sample_cov",
    *(f"acceptance.{k}" for k in (
        "efficiency_tol", "consistency_slope_min", "consistency_slope_max",
        "disagreement_slope_max", "disagreement_error_ratio_max", "gain_rel_tol",
        "gain_pass_fraction_min", "ks_significance")),
]
YAML_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))
YAML_VALUES = st.recursive(
    YAML_SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(SCENARIO_KEYS), value=YAML_VALUES)
def test_any_value_of_any_key_validates_or_is_rejected(tmp_path, key, value):
    doc = yaml.safe_load(write_scenario(tmp_path).read_text())
    section, _, name = key.rpartition(".")
    if section:
        spec = doc.get(section)
        doc[section] = {"preset": spec} if isinstance(spec, str) else dict(spec or {})
        doc[section][name] = value
    else:
        doc[key] = value
    path = tmp_path / "mutated.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["--config", str(path), "--validate-only"]) in (0, 1)
