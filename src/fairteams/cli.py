"""Command-line front end.

Subcommands: generate (synthetic roster), solve (one method on a roster),
evaluate (score an existing assignment), experiment (methods x seeds batch
with mean/standard-error rows).

Each option is declared once, in _OPTS, and is both a flag and a key of
the flat key=value config file passed with --config; explicit command-line
flags win over config values, which win over built-in defaults. Exit
codes: 0 success, 1 validation error, 2 I/O error (argparse reports usage
errors with its own nonzero exit).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

import numpy as np

from .core import (Assignment, Instance, TaskSpec, check_spec,
                   compact_assignment, compute_benefit_matrix)
from .datagen import (PRESETS, generate_dataset, load_instance, open_text,
                      preset_config, save_roster)
from .errors import ValidationError
from .harness import (METHODS, ExperimentConfig, default_spec,
                      evaluate_solution, metrics_csv_text, roster_label,
                      run_experiment, solve_instance, write_metrics_csv)
from .refine import RefineConfig


def _parse_requirements(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Comma-separated ints; a..b expands to the inclusive range."""
    seeds: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo, hi = token.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValidationError(f"empty seed range {token!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(token))
    return tuple(seeds)


def _parse_methods(text: str) -> tuple[str, ...]:
    methods = tuple(m.strip().lower() for m in text.split(",") if m.strip())
    for m in methods:
        if m not in METHODS:
            raise ValidationError(
                f"unknown method {m!r}; expected one of {METHODS}")
    return methods


def _flag_type(convert):
    """A parser above as an argparse type whose usage error names the value,
    not the function; a ValidationError keeps its own text."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                str(exc) if isinstance(exc, ValidationError)
                else f"invalid value {text!r}") from None
    return parse


# dest -> (converter, default, help). Each entry is both a --flag and a
# config key; a default is written as a config value and converted like one.
_SPEC_OPTS = {
    "requirements": (_parse_requirements, None,
                     "per-skill requirement sums; a single value is "
                     "broadcast to every skill (default "
                     f"{default_spec(1).requirements[0]:g} per skill)"),
    "gamma": (float, "1", "weight of average benefit"),
    "delta": (float, "1", "weight of group-benefit variance"),
    "benefit_epsilon": (float, "0", "margin a teammate must exceed in some "
                                    "skill to count as beneficial"),
}
_TEAM_COUNT = (int, None, "override the team count for random/umeans/ga")
_GAIN_EPSILON = (float, "1e-4", "smallest pass gain the refiner commits")
_SHAPE_OPTS = {
    "n": (int, "100", "number of students"),
    "skills": (int, "2", "skill dimensions"),
    "groups": (int, "2", "number of protected groups"),
}
_OPTS = {
    "generate": {
        "preset": (str.lower, "d1", "difficulty preset"),
        **_SHAPE_OPTS,
        "seed": (int, "0", "generation seed"),
        "out": (str, "roster.csv", "output roster path"),
    },
    "solve": {
        "roster": (str, None, "input roster CSV"),
        "method": (str.lower, "fern", "team-formation method"),
        "seed": (int, "0", "seed for stochastic methods"),
        "team_count": _TEAM_COUNT,
        "gain_epsilon": _GAIN_EPSILON,
        "assignment_out": (str, "assignment.csv", "output assignment path"),
        **_SPEC_OPTS,
    },
    "evaluate": {
        "roster": (str, None, "input roster CSV"),
        "assignment": (str, None, "assignment CSV to score"),
        "seed": (int, "0", "seed recorded in the metrics row"),
        **_SPEC_OPTS,
    },
    "experiment": {
        "preset": (str.lower, None, "resample this preset per seed"),
        "roster": (str, None, "fixed roster CSV instead of a preset"),
        "methods": (_parse_methods, "fern", f"subset of {','.join(METHODS)}"),
        "seeds": (_parse_seeds, "0", "seed list; A..B is inclusive"),
        "reps": (int, "10",
                 "sub-runs averaged per seed for stochastic methods"),
        **_SHAPE_OPTS,
        "team_count": _TEAM_COUNT,
        "gain_epsilon": _GAIN_EPSILON,
        "out": (str, "metrics.csv", "metrics CSV path"),
        **_SPEC_OPTS,
    },
}
_CHOICES = {"preset": sorted(PRESETS), "method": METHODS}
_METAVARS = {"requirements": "R1,R2,...", "methods": "M1,M2,...",
             "seeds": "S1,S2|A..B"}


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, line in enumerate(open_text(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{line_no}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            raise ValidationError(f"{path}:{line_no}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge CLI > config file > defaults for one subcommand."""
    config = _load_config(args.config) if args.config else {}
    specs = _OPTS[command]
    unknown = set(config) - set(specs)
    if unknown:
        # a key with a control character is quoted so the message stays
        # on one line
        names = (k if k.isprintable() else repr(k) for k in sorted(unknown))
        raise ValidationError(f"unknown config keys: {', '.join(names)}")
    out = {}
    for dest, (convert, default, _) in specs.items():
        value = getattr(args, dest)
        text = config.get(dest, default)
        if value is None and text is not None:
            try:
                value = convert(text)
            except ValidationError:
                raise
            except ValueError:  # from int, float or a parser's conversion
                raise ValidationError(
                    f"{args.config}: bad {dest} value {text!r}") from None
        out[dest] = value
    return out


def _build_task_spec(n: int, k: int, opts: dict) -> TaskSpec:
    """The spec for n students with k skills, checked by check_spec before
    any work starts."""
    reqs = opts["requirements"]
    if reqs is None:
        reqs = default_spec(k).requirements
    elif len(reqs) == 1 and k > 1:
        reqs = reqs * k
    elif len(reqs) != k:
        raise ValidationError(
            f"expected {k} requirement values, got {len(reqs)}")
    spec = TaskSpec(reqs, gamma=opts["gamma"], delta=opts["delta"],
                    benefit_epsilon=opts["benefit_epsilon"])
    check_spec(spec, n, k)
    return spec


def write_assignment(instance: Instance, assignment: Assignment,
                     path) -> None:
    """Assignment CSV: student_id,team_id in roster order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["student_id", "team_id"])
        writer.writerows(zip(instance.student_ids,
                             assignment.team_of.tolist()))


def load_assignment(path, instance: Instance) -> Assignment:
    """Parse an assignment CSV; every roster student exactly once."""
    index = {sid: i for i, sid in enumerate(instance.student_ids)}
    team_of = np.zeros(instance.n, dtype=np.int64)
    seen = np.zeros(instance.n, dtype=bool)
    reader = csv.reader(open_text(path))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{path}: empty assignment file") from None
    if header != ["student_id", "team_id"]:
        raise ValidationError(f"{path}: header must be student_id,team_id")
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValidationError(
                f"{path}:{line_no}: expected 2 fields, got {len(row)}")
        sid = row[0].strip()
        if sid not in index:
            raise ValidationError(
                f"{path}:{line_no}: unknown student_id {sid!r}")
        if seen[index[sid]]:
            raise ValidationError(
                f"{path}:{line_no}: duplicate student_id {sid!r}")
        try:
            team_of[index[sid]] = int(row[1])
        except ValueError:
            raise ValidationError(
                f"{path}:{line_no}: team_id must be an integer") from None
        except OverflowError:
            raise ValidationError(
                f"{path}:{line_no}: team_id out of range") from None
        seen[index[sid]] = True
    missing = [sid for sid, i in index.items() if not seen[i]]
    if missing:
        raise ValidationError(
            f"{path}: no assignment for {', '.join(missing[:5])}"
            + ("..." if len(missing) > 5 else ""))
    return compact_assignment(team_of)


def _cmd_generate(args) -> int:
    opts = _resolve(args, "generate")
    config = preset_config(opts["preset"], opts["n"],
                           skill_dims=opts["skills"],
                           n_groups=opts["groups"])
    instance = generate_dataset(config, seed=opts["seed"])
    save_roster(instance, opts["out"])
    print(f"wrote {instance.n} students to {opts['out']}")
    return 0


def _cmd_solve(args) -> int:
    opts = _resolve(args, "solve")
    if not opts["roster"]:
        raise ValidationError("solve requires --roster")
    instance = load_instance(opts["roster"])
    spec = _build_task_spec(instance.n, instance.k, opts)
    start = time.perf_counter()
    b = compute_benefit_matrix(instance, spec.benefit_epsilon)
    assignment = solve_instance(
        instance, spec, opts["method"], seed=opts["seed"],
        team_count=opts["team_count"], b=b,
        refine_config=RefineConfig(gain_epsilon=opts["gain_epsilon"]))
    elapsed_ms = (time.perf_counter() - start) * 1e3
    write_assignment(instance, assignment, opts["assignment_out"])
    record = evaluate_solution(instance, spec, assignment,
                               dataset=roster_label(opts["roster"]),
                               method=opts["method"], seed=opts["seed"],
                               runtime_ms=elapsed_ms, b=b)
    sys.stdout.write(metrics_csv_text([record]))
    return 0


def _cmd_evaluate(args) -> int:
    opts = _resolve(args, "evaluate")
    if not opts["roster"] or not opts["assignment"]:
        raise ValidationError("evaluate requires --roster and --assignment")
    instance = load_instance(opts["roster"])
    spec = _build_task_spec(instance.n, instance.k, opts)
    assignment = load_assignment(opts["assignment"], instance)
    record = evaluate_solution(instance, spec, assignment,
                               dataset=roster_label(opts["roster"]),
                               method="evaluate", seed=opts["seed"])
    sys.stdout.write(metrics_csv_text([record]))
    return 0


def _cmd_experiment(args) -> int:
    opts = _resolve(args, "experiment")
    if bool(opts["preset"]) == bool(opts["roster"]):
        raise ValidationError(
            "experiment requires exactly one of --preset or --roster")
    # a roster is read once, here, and handed to run_experiment
    roster = load_instance(opts["roster"]) if opts["roster"] else None
    spec = _build_task_spec(roster.n if roster else opts["n"],
                            roster.k if roster else opts["skills"], opts)
    config = ExperimentConfig(
        seeds=opts["seeds"], methods=opts["methods"],
        preset=opts["preset"], roster=opts["roster"],
        n_students=opts["n"], skill_dims=opts["skills"],
        n_groups=opts["groups"], reps=opts["reps"], spec=spec,
        team_count=opts["team_count"],
        refine_config=RefineConfig(gain_epsilon=opts["gain_epsilon"]))
    result = run_experiment(config, roster)
    if result.records:
        write_metrics_csv(result.records, opts["out"],
                          aggregates=result.aggregates)
        print(f"wrote {len(result.records)} rows "
              f"(+{len(result.aggregates)} aggregate) to {opts['out']}")
    for failure in result.failures:
        print(f"failed: {failure.dataset} {failure.method} "
              f"seed={failure.seed}: {failure.message}", file=sys.stderr)
    return 1 if result.failures else 0


_COMMANDS = {
    "generate": (_cmd_generate, "sample a synthetic roster CSV"),
    "solve": (_cmd_solve, "form teams for one roster"),
    "evaluate": (_cmd_evaluate, "score an existing assignment"),
    "experiment": (_cmd_experiment, "run a methods x seeds batch"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairteams",
        description="Skill-requirement team formation with per-group "
                    "benefit balancing.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        # default=None lets _resolve tell a flag that was not given apart
        # from one that was
        for dest, (convert, default, text) in _OPTS[command].items():
            if default is not None:
                text += f" (default {default})"
            if convert in (_parse_requirements, _parse_seeds, _parse_methods):
                convert = _flag_type(convert)
            p.add_argument("--" + dest.replace("_", "-"), type=convert,
                           choices=_CHOICES.get(dest),
                           metavar=_METAVARS.get(dest), help=text)
        p.add_argument("--config",
                       help="key=value file; flags override its entries")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
