"""Scenario files and the ``adle`` command line.

A scenario is a YAML mapping with ``schema: adle-scenario/1``; every key
it may hold is a row of ``_TOP`` or ``_SECTIONS``.  A key that is absent
or null takes the default of the field it sets, and all errors are
collected into one :class:`ValidationError`.  The README lists the keys.

Exit status: 0 when every acceptance statistic passes, 2 when the run
completed but a statistic failed (the report is still written), 1 for
configuration or runtime errors.
"""

from __future__ import annotations

import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np
import yaml

from . import harness
from .errors import AdleError, ParseError, ValidationError
from .estimator import initial_network_state
from .model import ObservationModel
from .network import Graph, TopologyModel, cycle_graph, mean_laplacian, fiedler_value, validate_mean_connectivity
from .schedule import WeightSchedule, checkpoint_bound, validate_schedule

SCHEMA = "adle-scenario/1"

class _LOADER(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """libyaml's safe loader where PyYAML has it (same documents, about 8x
    faster), refusing a key given twice in one mapping; a key merged in by
    ``<<`` may still be given."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                name = self.construct_object(key)
                if name in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {name!r}", key.start_mark)
                seen.add(name)
        return super().construct_mapping(node, deep)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully constructed and validated experiment scenario."""

    model: ObservationModel
    topology: TopologyModel
    schedule: WeightSchedule
    horizon: int
    num_trials: int
    master_seed: int = 0
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
    """Five agents on a ring, each observing a cyclic three-entry sum:
    no agent can recover any entry alone, but the network can."""
    sensing = tuple(np.roll([[1.0, 1.0, 1.0, 0.0, 0.0]], n - 1) for n in range(5))
    return ObservationModel(sensing, (np.eye(1),) * 5, np.ones(5), noise=noise)


def example1_graph() -> Graph:
    """The pentagon (5-cycle) communication graph of the ring scenario."""
    return cycle_graph(5)


def _int(raw) -> int:
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(f"must be an integer, got {raw!r}")
    return int(raw)


def _array(raw) -> np.ndarray:
    value = np.asarray(raw, dtype=float)
    if isinstance(raw, bool) or not np.isfinite(value).all():
        raise ValueError(f"must be {'a number' if isinstance(raw, bool) else 'finite'}, got {raw!r}")
    return value


def _real(raw) -> float:
    value = _array(raw)
    if value.ndim:
        raise ValueError(f"must be a number, got {raw!r}")
    return float(value)


def _edges(raw) -> tuple[tuple[int, int], ...]:
    if raw in ("example1", "pentagon"):
        return example1_graph().edges
    if not (isinstance(raw, list) and all(isinstance(e, list) and len(e) == 2 for e in raw)):
        raise ValueError(f"must be 'example1' or a list of [node, node] edges, got {raw!r}")
    return tuple((_int(n), _int(l)) for n, l in raw)


# A row: the converter of a present, non-null value (None keeps it as it
# is), the test the converted value must pass, and the requirement it states.
_REAL, _ARRAY, _AS_IS = (_real, None, ""), (_array, None, ""), (None, None, "")
_COUNT = (_int, lambda v: v >= 1, "must be >= 1")
_NATURAL = (_int, lambda v: v >= 0, "must be >= 0")
_TOLERANCE = (_real, lambda v: v >= 0.0, "must be >= 0")
_FRACTION = (_real, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_FLAG = (None, lambda v: isinstance(v, bool), "must be true or false")
_TEXT = (None, lambda v: isinstance(v, str), "must be a string")

#: Every top-level scenario key and every key of its mapping sections.
_TOP = {
    "schema": (None, lambda v: v == SCHEMA, f"expected {SCHEMA!r}"),
    # the checkpoint grid and the kernel's step counts are int64
    "horizon": (_int, lambda v: 1 <= v <= 2**63 - 1, f"must lie in [1, {2**63 - 1}]"),
    "num_trials": _COUNT, "master_seed": _NATURAL, "parallelism": _NATURAL,
    "fit_window": (_real, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "output_dir": _TEXT,
    "require_efficiency": _FLAG, "run_ks_test": _FLAG, "cap_consensus_weight": _FLAG,
}
_SECTIONS = {
    "checkpoints": {"start": _COUNT, "per_decade": _COUNT},
    "init": {"estimate": _ARRAY, "grammian": _ARRAY, "sample_cov": _ARRAY},
    # ObservationModel checks the matrices
    "model": {"preset": (None, lambda v: v == "example1", "expected 'example1'"),
              "sensing": _AS_IS, "noise_cov": _AS_IS, "true_param": _AS_IS, "noise": _TEXT},
    "topology": {"base": (_edges, None, ""), "nodes": _COUNT, "law": _TEXT, "p": _REAL},
    "schedule": dict.fromkeys((f.name for f in fields(WeightSchedule)), _REAL),
    "acceptance": {**dict.fromkeys((f.name for f in fields(harness.AcceptanceThresholds)), _REAL),
                   "efficiency_tol": _TOLERANCE, "disagreement_error_ratio_max": _TOLERANCE,
                   "gain_rel_tol": _TOLERANCE, "gain_pass_fraction_min": _FRACTION,
                   "ks_significance": _FRACTION},
}
_REQUIRED = ("schema", "horizon", "num_trials")
_ERRORS = (AdleError, ValueError, TypeError, OverflowError)


def _read(raw: dict, errors: list[str]) -> dict[str, dict | None]:
    """Convert and check every key present.  Returns the values of each
    section (``""`` is the top level); a section with an error is None."""
    values = {}
    for section, rows in (("", _TOP), *_SECTIONS.items()):
        spec = raw.get(section) if section else raw
        prefix, before = f"{section}." if section else "", len(errors)
        if section == "model" and (spec is None or isinstance(spec, str)):
            spec = {"preset": "example1" if spec is None else spec}
        if not isinstance(spec, (dict, type(None))):
            errors.append(f"{section}: expected a mapping, got {type(spec).__name__}")
        spec = spec if isinstance(spec, dict) else {}
        errors += [f"{prefix}{key}: unknown key" for key in spec
                   if key not in rows and (section or key not in _SECTIONS)]
        values[section] = converted = {}
        for key, (convert, test, requirement) in rows.items():
            if spec.get(key) is None:
                if prefix + key in _REQUIRED:
                    errors.append(f"{key}: missing")
                continue
            try:
                value = spec[key] if convert is None else convert(spec[key])
                if test is not None and not test(value):
                    raise ValueError(f"{requirement}, got {value!r}")
                converted[key] = value
            except _ERRORS as exc:
                errors.append(f"{prefix}{key}: {exc}")
        if section and len(errors) > before:
            values[section] = None
    return values


def _model(spec: dict) -> ObservationModel:
    preset = spec.pop("preset", None)
    keys = [key for key in ("sensing", "noise_cov", "true_param") if (key in spec) == bool(preset)]
    if keys:  # example1 sets all three matrices; an explicit model needs all three
        problem = "not with preset example1" if preset else "missing"
        raise ValidationError([f"model.{key}: {problem}" for key in keys])
    model = example1_model(**spec) if preset else ObservationModel(**spec)
    model._centralized  # validates it, cached for the run
    return model


def _topology(spec: dict, model: ObservationModel | None) -> TopologyModel | None:
    edges = spec.pop("base", example1_graph().edges)
    nodes = spec.pop("nodes", max((max(e) for e in edges), default=-1) + 1)
    topology = TopologyModel(Graph(nodes, edges), **spec)
    if model is None:  # node count and connectivity are checked against a valid model
        return None
    if nodes != model.num_agents:
        raise ValueError(f"{nodes} nodes, but the model has {model.num_agents} agents")
    validate_mean_connectivity(topology)
    return topology


def _schedule(spec: dict, settings: dict) -> WeightSchedule:
    schedule = validate_schedule(WeightSchedule(**spec),
                                 require_efficiency=settings["require_efficiency"])
    try:  # the powers (t + 1) ** tau grow with t and tau: the run's last is the largest
        (settings.get("horizon", 0) + 1.0) ** max(schedule.tau1, schedule.tau2, schedule.tau_gamma)
    except OverflowError:
        raise ValueError(f"the weights overflow the float range by step "
                         f"{settings['horizon']}") from None
    return schedule


def parse_config(path, overrides=None) -> ScenarioConfig:
    """Load and fully validate a scenario file.

    ``overrides`` maps top-level keys to values that replace the file's
    before validation, as ``--seed``, ``--trials`` and ``--horizon`` do.
    Raises :class:`ParseError` for unreadable or malformed YAML, :class:`ValidationError`
    carrying every validation failure at once, and the loader's :class:`AdleError`
    where the compiled kernel, whose lane width sizes the memory check, cannot be built.
    """
    try:
        with open(path) as handle:
            raw = yaml.load(handle, Loader=_LOADER)
    except OSError as exc:
        raise ParseError(str(exc.strerror or exc), path=str(path)) from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ParseError(f"invalid YAML: {exc}", path=str(path), line=line) from exc
    if not isinstance(raw, dict):
        raise ParseError("scenario file must contain a mapping", path=str(path))

    errors: list[str] = []
    values = _read({**raw, **(overrides or {})}, errors)
    names = {f.name: f.default for f in fields(ScenarioConfig)}
    settings = {name: d for name, d in names.items() if d is not MISSING}
    for section in ("", "checkpoints", "init"):
        for key, value in (values[section] or {}).items():
            name = "checkpoint_start" if key == "start" else f"{section}_{key}" if section else key
            if name in names:
                settings[name] = value

    def build(section, make):
        try:
            return None if values[section] is None else make(dict(values[section]))
        except ValidationError as exc:  # its errors name their keys
            errors.extend(exc.errors)
        except _ERRORS as exc:
            errors.append(f"{section}: {exc}")
            return None

    model = settings["model"] = build("model", _model)
    top = settings["topology"] = build("topology", lambda spec: _topology(spec, model))
    schedule = build("schedule", lambda spec: _schedule(spec, settings))
    if schedule is not None and top is not None and settings["cap_consensus_weight"]:
        max_degree = int(top.base.degrees().max())
        if max_degree > 0 and schedule.b > 1.0 / max_degree:
            schedule = replace(schedule, b=1.0 / max_degree)
    settings["schedule"] = schedule
    settings["acceptance"] = build("acceptance", lambda spec: harness.AcceptanceThresholds(**spec))
    if model is not None and values["init"]:
        build("init", lambda spec: initial_network_state(model, **spec))
    if "horizon" in settings and settings["horizon"] < settings["checkpoint_start"]:
        errors.append(f"horizon: {settings['horizon']} ends before the first checkpoint "
                      f"{settings['checkpoint_start']}")
    if "horizon" in settings and settings["checkpoints_per_decade"] > settings["horizon"]:
        errors.append(f"checkpoints.per_decade: {settings['checkpoints_per_decade']} exceeds "
                      f"the horizon {settings['horizon']}")
    if top is not None and {"horizon", "num_trials"} <= settings.keys():
        count = checkpoint_bound(settings["horizon"], settings["checkpoint_start"],
                                 settings["checkpoints_per_decade"])
        shortfall = harness._memory_shortfall(model, settings["num_trials"], count,
                                              settings["parallelism"])
        if shortfall:
            errors.append(f"checkpoints: {shortfall}")
    if errors:
        raise ValidationError(errors)
    return ScenarioConfig(**settings)


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here only: a run loads neither it nor gettext
    parser = argparse.ArgumentParser(prog="adle", description=(
        "Run distributed-estimation Monte Carlo experiments from a scenario file."))
    parser.add_argument("--config", required=True, help="path to the scenario YAML file")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--trials", type=int, help="override the number of trials")
    parser.add_argument("--horizon", type=int, help="override the horizon")
    parser.add_argument("--out", help="output directory (else $ADLE_OUT_DIR, else config)")
    parser.add_argument("--validate-only", action="store_true",
                        help="validate the scenario, print its key derived quantities, and exit")
    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # bad flags exit 1, not argparse's 2
        return 1 if exc.code else 0

    flags = {"master_seed": args.seed, "num_trials": args.trials, "horizon": args.horizon}
    try:
        config = parse_config(args.config, {k: v for k, v in flags.items() if v is not None})
    except AdleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.validate_only:
        summary = config.model._centralized
        print(f"configuration OK (schema {SCHEMA})")
        print(f"mean-Laplacian Fiedler value: {fiedler_value(mean_laplacian(config.topology)):.6g}")
        print(f"schedule separation slack: {config.schedule.separation_slack:.6g}")
        print("centralized asymptotic covariance:")
        print(np.array2string(summary.asymptotic_cov, precision=6, suppress_small=True))
        return 0

    outdir = args.out or os.environ.get("ADLE_OUT_DIR") or config.output_dir or "adle-out"
    try:
        print(f"running {config.num_trials} trials to horizon {config.horizon} "
              f"(seed {config.master_seed}, parallelism {config.parallelism or 'auto'})")
        report = harness.run_experiment(config)
        stats = harness.write_report(report, outdir, config.acceptance)
    except (AdleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    width = max(len(s.name) for s in stats)
    for stat in stats:
        print(f"  {stat.name:<{width}}  {stat.value:>12.6g}  {stat.requirement:<22} "
              f"{'PASS' if stat.passed else 'FAIL'}")
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
