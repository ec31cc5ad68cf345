"""Scenario configuration, presets, and the command-line entry point.

Scenarios are YAML files with a versioned ``schema`` field::

    schema: adle-scenario/1
    model: example1            # or explicit matrices, see below
    topology:
      base: example1           # or an edge list [[0, 1], [1, 2], ...]
      law: bernoulli           # static | bernoulli | gossip
      p: 0.5
    schedule: {a: 1.0, b: 1.0, tau1: 1.0, tau2: 0.2,
               gamma0: 1.0, tau_gamma: 0.75, eps1: 6.0}
    horizon: 50000
    num_trials: 500
    master_seed: 20260810
    cap_consensus_weight: true
    output_dir: out

The flags ``cap_consensus_weight``, ``require_efficiency`` and
``run_ks_test`` take YAML booleans only; a quoted ``"false"`` is an error.

An explicit model is a mapping with ``sensing`` (list of matrices),
``noise_cov`` (list of square matrices), ``true_param`` (vector), and an
optional ``noise`` family.  The ``example1`` preset is a five-agent ring
where agent ``n`` observes the noisy sum of parameter entries ``n-1``,
``n``, ``n+1`` (cyclically); no single agent can recover anything alone,
but the network is globally observable.

Exit status: 0 when every acceptance statistic passes, 2 when the run
completed but a statistic failed (the report is still written), 1 for
configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import harness
from .errors import AdleError, ParseError, ScheduleViolation, ValidationError
from .estimator import initial_network_state
from .model import ObservationModel, validate_observation_model
from .network import Graph, TopologyModel, cycle_graph, mean_laplacian, fiedler_value, validate_mean_connectivity
from .schedule import WeightSchedule, validate_schedule

SCHEMA = "adle-scenario/1"

_TOP_LEVEL_KEYS = {
    "schema", "model", "topology", "schedule", "horizon", "num_trials",
    "master_seed", "checkpoints", "output_dir", "require_efficiency",
    "run_ks_test", "parallelism", "fit_window", "cap_consensus_weight",
    "init", "acceptance",
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully constructed and validated experiment scenario."""

    model: ObservationModel
    topology: TopologyModel
    schedule: WeightSchedule
    horizon: int
    num_trials: int
    master_seed: int
    checkpoint_start: int = 10
    checkpoints_per_decade: int = 8
    output_dir: str | None = None
    require_efficiency: bool = True
    run_ks_test: bool = False
    parallelism: int = 1
    fit_window: float = 0.4
    cap_consensus_weight: bool = False
    init_estimate: np.ndarray | None = None
    init_grammian: np.ndarray | None = None
    init_sample_cov: np.ndarray | None = None
    acceptance: harness.AcceptanceThresholds = field(default_factory=harness.AcceptanceThresholds)


def example1_model(noise: str = "gaussian") -> ObservationModel:
    """Five agents on a ring, each observing a cyclic three-entry sum."""
    sensing = []
    noise_cov = []
    for n in range(5):
        row = np.zeros((1, 5))
        row[0, (n - 1) % 5] = row[0, n] = row[0, (n + 1) % 5] = 1.0
        sensing.append(row)
        noise_cov.append(np.eye(1))
    return ObservationModel(tuple(sensing), tuple(noise_cov), np.ones(5), noise=noise)


def example1_graph() -> Graph:
    """The pentagon (5-cycle) communication graph of the ring scenario."""
    return cycle_graph(5)


def _build_model(spec, errors: list[str]) -> ObservationModel | None:
    try:
        if spec == "example1":
            return example1_model()
        if isinstance(spec, dict):
            if spec.get("preset") == "example1":
                return example1_model(spec.get("noise", "gaussian"))
            unknown = set(spec) - {"sensing", "noise_cov", "true_param", "noise"}
            if unknown:
                raise ValueError(f"unknown model keys {sorted(unknown)}")
            return ObservationModel(
                tuple(np.asarray(h, dtype=float) for h in spec["sensing"]),
                tuple(np.atleast_2d(np.asarray(r, dtype=float)) for r in spec["noise_cov"]),
                np.asarray(spec["true_param"], dtype=float),
                noise=spec.get("noise", "gaussian"),
            )
        raise ValueError(f"model must be 'example1' or a mapping, got {type(spec).__name__}")
    except KeyError as exc:
        errors.append(f"model: missing key {exc}")
    except (ValueError, TypeError) as exc:
        errors.append(f"model: {exc}")
    return None


def _build_topology(spec, errors: list[str]) -> TopologyModel | None:
    try:
        if not isinstance(spec, dict):
            raise ValueError(f"topology must be a mapping, got {type(spec).__name__}")
        unknown = set(spec) - {"base", "nodes", "law", "p"}
        if unknown:
            raise ValueError(f"unknown topology keys {sorted(unknown)}")
        base_spec = spec.get("base", "example1")
        if base_spec in ("example1", "pentagon"):
            base = example1_graph()
        else:
            edges = tuple((int(e[0]), int(e[1])) for e in base_spec)
            nodes = int(spec.get("nodes", max((max(e) for e in edges), default=-1) + 1))
            base = Graph(nodes, edges)
        return TopologyModel(base, law=spec.get("law", "static"), p=float(spec.get("p", 1.0)))
    except (ValueError, TypeError, IndexError) as exc:
        errors.append(f"topology: {exc}")
    return None


def _build_schedule(spec, require_efficiency: bool, errors: list[str]) -> WeightSchedule | None:
    try:
        spec = spec or {}
        if not isinstance(spec, dict):
            raise ValueError(f"schedule must be a mapping, got {type(spec).__name__}")
        known = {f.name for f in dataclasses.fields(WeightSchedule)}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(f"unknown schedule keys {sorted(unknown)}")
        schedule = WeightSchedule(**{k: float(v) for k, v in spec.items()})
        return validate_schedule(schedule, require_efficiency=require_efficiency)
    except ScheduleViolation as exc:
        errors.append(f"schedule: {exc}")
    except (ValueError, TypeError) as exc:
        errors.append(f"schedule: {exc}")
    return None


def _positive_int(raw, name: str, errors: list[str], minimum: int = 1) -> int | None:
    try:
        if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
            raise ValueError(f"must be an integer, got {raw!r}")
        value = int(raw)
        if value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        return value
    except (ValueError, TypeError) as exc:
        errors.append(f"{name}: {exc}")
        return None


def _real(raw, name: str, errors: list[str]) -> float | None:
    try:
        if isinstance(raw, bool):
            raise ValueError(f"must be a number, got {raw!r}")
        return float(raw)
    except (ValueError, TypeError) as exc:
        errors.append(f"{name}: {exc}")
        return None


def _flag(raw: dict, name: str, default: bool, errors: list[str]) -> bool:
    value = raw.get(name, default)
    if not isinstance(value, bool):
        errors.append(f"{name}: must be true or false, got {value!r}")
        return default
    return value


def parse_config(path) -> ScenarioConfig:
    """Load and fully validate a scenario file.

    Raises :class:`ParseError` for unreadable or malformed YAML and
    :class:`ValidationError` carrying every validation failure at once.
    """
    try:
        with open(path) as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise ParseError(str(exc.strerror or exc), path=str(path)) from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ParseError(f"invalid YAML: {exc}", path=str(path), line=line) from exc
    if not isinstance(raw, dict):
        raise ParseError("scenario file must contain a mapping", path=str(path))

    errors: list[str] = []
    if raw.get("schema") != SCHEMA:
        errors.append(f"schema: expected {SCHEMA!r}, got {raw.get('schema')!r}")
    for key in set(raw) - _TOP_LEVEL_KEYS:
        errors.append(f"unknown top-level key {key!r}")

    require_efficiency = _flag(raw, "require_efficiency", True, errors)
    model = _build_model(raw.get("model", "example1"), errors)
    topology = _build_topology(raw.get("topology", {}), errors)
    schedule = _build_schedule(raw.get("schedule"), require_efficiency, errors)

    if model is not None:
        try:
            validate_observation_model(model)
        except AdleError as exc:
            errors.append(f"model: {exc}")
    if topology is not None:
        try:
            validate_mean_connectivity(topology)
        except AdleError as exc:
            errors.append(f"topology: {exc}")

    cap = _flag(raw, "cap_consensus_weight", False, errors)
    if cap and topology is not None and schedule is not None:
        max_degree = int(topology.base.degrees().max())
        if max_degree > 0 and schedule.b > 1.0 / max_degree:
            schedule = dataclasses.replace(schedule, b=1.0 / max_degree)

    horizon = _positive_int(raw.get("horizon", 0), "horizon", errors)
    num_trials = _positive_int(raw.get("num_trials", 0), "num_trials", errors)
    master_seed = _positive_int(raw.get("master_seed", 0), "master_seed", errors, minimum=0)

    checkpoints = raw.get("checkpoints") or {}
    if not isinstance(checkpoints, dict) or set(checkpoints) - {"start", "per_decade"}:
        errors.append("checkpoints: expected a mapping with keys start/per_decade")
        checkpoints = {}
    start = _positive_int(checkpoints.get("start", 10), "checkpoints.start", errors)
    per_decade = _positive_int(checkpoints.get("per_decade", 8), "checkpoints.per_decade", errors)
    if horizon is not None and start is not None and horizon < start:
        errors.append(f"horizon: {horizon} ends before the first checkpoint {start}")

    parallelism = _positive_int(raw.get("parallelism", 1), "parallelism", errors, minimum=0)
    fit_window = _real(raw.get("fit_window", 0.4), "fit_window", errors)
    if fit_window is not None and not 0.0 < fit_window <= 1.0:
        errors.append(f"fit_window: must lie in (0, 1], got {fit_window}")

    init = raw.get("init") or {}
    if not isinstance(init, dict) or set(init) - {"estimate", "grammian", "sample_cov"}:
        errors.append("init: expected a mapping with keys estimate/grammian/sample_cov")
        init = {}
    init_values = {}
    for key, value in init.items():
        if value is not None:
            try:
                init_values[key] = np.asarray(value, dtype=float)
            except (ValueError, TypeError) as exc:
                errors.append(f"init.{key}: {exc}")
    if model is not None and init_values:
        try:
            initial_network_state(model, **init_values)
        except ValueError as exc:
            errors.append(f"init: {exc}")

    run_ks_test = _flag(raw, "run_ks_test", False, errors)

    acceptance_raw = raw.get("acceptance") or {}
    thresholds = harness.AcceptanceThresholds()
    known = {f.name for f in dataclasses.fields(harness.AcceptanceThresholds)}
    if not isinstance(acceptance_raw, dict):
        errors.append("acceptance: expected a mapping of thresholds")
    elif set(acceptance_raw) - known:
        errors.append(f"acceptance: unknown keys {sorted(set(acceptance_raw) - known)}")
    else:
        values = {k: _real(v, f"acceptance.{k}", errors) for k, v in acceptance_raw.items()}
        if None not in values.values():
            thresholds = harness.AcceptanceThresholds(**values)

    if errors:
        raise ValidationError(errors)

    return ScenarioConfig(
        model=model,
        topology=topology,
        schedule=schedule,
        horizon=horizon,
        num_trials=num_trials,
        master_seed=master_seed,
        checkpoint_start=start,
        checkpoints_per_decade=per_decade,
        output_dir=raw.get("output_dir"),
        require_efficiency=require_efficiency,
        run_ks_test=run_ks_test,
        parallelism=parallelism,
        fit_window=fit_window,
        cap_consensus_weight=cap,
        init_estimate=init_values.get("estimate"),
        init_grammian=init_values.get("grammian"),
        init_sample_cov=init_values.get("sample_cov"),
        acceptance=thresholds,
    )


class _Parser(argparse.ArgumentParser):
    # bad flags exit 1 (not argparse's default 2), with usage on stderr
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adle",
        description="Run distributed-estimation Monte Carlo experiments from a scenario file.",
    )
    parser.add_argument("--config", required=True, help="path to the scenario YAML file")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--trials", type=int, help="override the number of trials")
    parser.add_argument("--horizon", type=int, help="override the horizon")
    parser.add_argument("--out", help="output directory (else $ADLE_OUT_DIR, else config)")
    parser.add_argument(
        "--validate-only", action="store_true",
        help="validate the scenario, print its key derived quantities, and exit",
    )
    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = parse_config(args.config)
    except AdleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.trials is not None:
        overrides["num_trials"] = args.trials
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if overrides:
        config = dataclasses.replace(config, **overrides)
    if config.num_trials < 1 or config.horizon < config.checkpoint_start:
        print("error: overrides left an unrunnable configuration", file=sys.stderr)
        return 1

    summary = validate_observation_model(config.model)
    if args.validate_only:
        print(f"configuration OK (schema {SCHEMA})")
        print(f"mean-Laplacian Fiedler value: {fiedler_value(mean_laplacian(config.topology)):.6g}")
        print(f"schedule separation slack: {config.schedule.separation_slack:.6g}")
        print("centralized asymptotic covariance:")
        print(np.array2string(summary.asymptotic_cov, precision=6, suppress_small=True))
        return 0

    outdir = args.out or os.environ.get("ADLE_OUT_DIR") or config.output_dir or "adle-out"
    try:
        print(
            f"running {config.num_trials} trials to horizon {config.horizon} "
            f"(seed {config.master_seed}, parallelism {config.parallelism or 'auto'})"
        )
        report = harness.run_experiment(config)
        stats = harness.write_report(report, outdir, config.acceptance)
    except (AdleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    width = max(len(s.name) for s in stats)
    for stat in stats:
        verdict = "PASS" if stat.passed else "FAIL"
        print(f"  {stat.name:<{width}}  {stat.value:>12.6g}  {stat.requirement:<22} {verdict}")
    print(f"report written to {outdir}")
    failed = [s for s in stats if s.gating and not s.passed]
    if failed:
        print(f"{len(failed)} acceptance statistic(s) failed")
        return 2
    return 0


def run() -> None:
    """Console-script wrapper."""
    raise SystemExit(main())


if __name__ == "__main__":
    run()
