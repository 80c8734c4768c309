"""Command-line entry points.

Subcommands: train, sweep, ensemble, stability, report. Every flag of the
subcommand that runs can be defaulted through an environment variable with
the ``SELFDISTILL_`` prefix (flag ``--teacher-size`` ->
``SELFDISTILL_TEACHER_SIZE``); explicit flags win over the environment. A
``SELFDISTILL_`` variable that names no flag of that subcommand is an error.

Exit codes: 0 success; 1 a bad flag, environment value, config, input file
or output path; 2 an error raised while running (divergence, a step worker
that cannot be forked, or any ``ValueError``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import get_type_hints

from .data import CsvSchema, SyntheticSpec, require_seed
from .distill import DistillConfig, TrainConfig
from .encoder import ModelConfig
from .errors import (
    ConfigError,
    ContractError,
    InputError,
    SelfDistillError,
    UsageError,
    check_types,
)
from .harness import (
    DEFAULT_K_GRID,
    DEFAULT_LAMBDA_GRID,
    DatasetConfig,
    ExperimentConfig,
    emit_report,
    ensemble_experiment,
    render_summary,
    run_experiment,
    stability_study,
    sweep,
)

ENV_PREFIX = "SELFDISTILL_"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1) and
    matches flags by full name only (``--seed`` is never read as ``--seeds``)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


class _CommandParser(_Parser):
    """A subcommand's parser, which takes the defaults of its own flags from
    the ``SELFDISTILL_*`` variables."""

    def parse_known_args(self, args=None, namespace=None):
        namespace = argparse.Namespace() if namespace is None else namespace
        flags = {_env_name(option[2:]): action for action in self._actions
                 for option in action.option_strings
                 if option.startswith("--") and action.dest != "help"}
        for name in sorted(os.environ):
            if not name.startswith(ENV_PREFIX):
                continue
            action = flags.get(name)
            if action is None:
                raise ConfigError(f"{name} names no flag of {self.prog!r}")
            raw = os.environ[name]
            cast = action.type or str
            if isinstance(cast, partial):   # bound to its flag's name
                cast = partial(cast.func, name)
            # a switch (nargs 0) such as --save-checkpoints takes 1/0
            value = (_env_bool(name, raw) if action.nargs == 0
                     else _parse_token(name, raw, cast))
            setattr(namespace, action.dest, value)
        return super().parse_known_args(args, namespace)


def _env_name(flag: str) -> str:
    return ENV_PREFIX + flag.upper().replace("-", "_")


def _parse_token(source: str, token: str, cast):
    """``cast(token)``; a bad token is a ConfigError naming its flag or variable."""
    try:
        return cast(token)
    except ValueError:
        raise ConfigError(f"{source}: {token!r} is not a valid "
                          f"{cast.__name__}") from None


def _env_bool(name: str, raw: str) -> bool:
    """1/true/yes -> True; empty, 0/false/no -> False."""
    value = raw.strip().lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("", "0", "false", "no"):
        return False
    raise ConfigError(f"{name}={raw!r} is not a boolean (use 1/0, true/false, yes/no)")


def _parse_teacher_size(flag: str, raw: str):
    return "all" if raw == "all" else _parse_token(flag, raw, int)


def _parse_seed(flag: str, raw: str) -> int:
    seed = _parse_token(flag, raw, int)
    require_seed(flag, seed)
    return seed


def _parse_seeds(flag: str, raw: str) -> list[int]:
    return [_parse_seed(flag, tok) for tok in raw.split(",") if tok != ""]


# The flags that set a config field: every field of the three run configs
# but n_classes, which the dataset sets. Each flag is the field name with
# dashes, or its entry in _FLAG_NAMES, and takes its default and type from
# the field unless _FLAG_OPTIONS sets them.
_CONFIG_FLAGS = {config: tuple(f.name for f in fields(config)
                               if f.name != "n_classes")
                 for config in (ModelConfig, DistillConfig, TrainConfig)}
_FLAG_NAMES = {"lam": "lambda", "dropout_p": "dropout"}
_FLAG_OPTIONS = {
    "mode": {"choices": ["baseline", "sda", "sdv"]},
    "lam": {"help": "distillation weight"},
    "teacher_size": {"type": partial(_parse_teacher_size, "--teacher-size"),
                     "help": "teacher window size K, or 'all' (sda only)"},
    "select_by": {"choices": ["final", "best_dev"]},
}


def _add_config_flags(p: _Parser, omit=()) -> None:
    """The config, dataset and output flags, less the fields in ``omit``."""
    for config, names in _CONFIG_FLAGS.items():
        hints = get_type_hints(config)
        defaults = {f.name: f.default for f in fields(config)}
        for name in names:
            if name in omit:
                continue
            flag = _FLAG_NAMES.get(name, name.replace("_", "-"))
            p.add_argument(f"--{flag}", dest=name,
                           **{"type": hints[name], "default": defaults[name],
                              **_FLAG_OPTIONS.get(name, {})})
    p.add_argument("--dataset", default="synthetic",
                   help="'synthetic', a synthetic-spec .json file, "
                        "or a train .csv/.tsv")
    # a dataset flag left at None keeps the dataset's own default, and one
    # given with a dataset that does not read it is an error
    p.add_argument("--dataset-seed",
                   type=partial(_parse_seed, "--dataset-seed"),
                   help="generation seed (synthetic and .json datasets only)")
    p.add_argument("--n-classes", type=int,
                   help="synthetic and csv datasets; a .json spec sets its own")
    p.add_argument("--eval-dataset", help="test csv (csv datasets only)")
    p.add_argument("--dev-dataset", help="optional dev csv (csv datasets only)")
    p.add_argument("--label-col", type=int, help="csv datasets only")
    p.add_argument("--text-cols",
                   help="comma-separated text column indices (csv datasets only)")
    p.add_argument("--delimiter", help="csv datasets only")
    p.add_argument("--label-base", type=int,
                   help="smallest label value in the csv; labels are rebased "
                        "to 0 (csv datasets only)")
    p.add_argument("--out", default="runs/out",
                   help="output directory for reports")


def _parse_int_list(flag: str, raw: str) -> list[int]:
    return [_parse_token(flag, tok, int) for tok in raw.split(",") if tok != ""]


def _require_file(flag: str, path: str | None) -> None:
    if path is not None and not Path(path).is_file():
        raise InputError(f"{flag}: no such file: {path}")


def _require_dir(flag: str, path: Path) -> None:
    """``path`` is a directory, or its nearest existing ancestor is one this
    process may create it in. Nothing is created, so a command that fails
    later still writes nothing."""
    for part in (path, *path.parents):
        if part.is_dir():
            if not os.access(part, os.W_OK | os.X_OK):
                raise InputError(f"{flag}: cannot write {path}: {part} is "
                                 f"not writable")
            return
        if os.path.lexists(part):
            raise InputError(f"{flag}: cannot write {path}: {part} is not "
                             f"a directory")


# The dataset flags only a csv --dataset reads, by dest.
_CSV_FLAGS = ("eval_dataset", "dev_dataset", "label_col", "text_cols",
              "delimiter", "label_base")


def _given(args, dests) -> dict:
    """The flags among ``dests`` that were given, by dest."""
    return {dest: getattr(args, dest) for dest in dests
            if getattr(args, dest) is not None}


def _dataset_config(args) -> DatasetConfig:
    name = args.dataset
    path = Path(name)
    is_spec = path.suffix == ".json"
    csv_only = list(_given(args, _CSV_FLAGS))
    if csv_only and (name == "synthetic" or is_spec):
        flag = "--" + csv_only[0].replace("_", "-")
        raise ConfigError(f"{flag} needs a csv --dataset, got {name!r}")
    if is_spec and args.n_classes is not None:
        raise ConfigError(f"--n-classes: the spec {name} sets n_classes")
    if name == "synthetic":
        spec = SyntheticSpec(**_given(args, ("n_classes",)))
    elif is_spec:
        _require_file("--dataset", name)
        try:
            raw = json.loads(path.read_text())
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"{path}: not a JSON synthetic spec: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: a synthetic spec must be a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(SyntheticSpec)})
        if unknown:
            raise ConfigError(f"{path}: unknown synthetic-spec key(s): "
                              f"{', '.join(unknown)}")
        check_types(SyntheticSpec, raw, f"{path}: synthetic-spec key ")
        spec = SyntheticSpec(**raw)
    else:
        if args.dataset_seed is not None:
            raise ConfigError(f"--dataset-seed: a csv --dataset is not "
                              f"generated, got {name!r}")
        _require_file("--dataset", name)
        _require_file("--eval-dataset", args.eval_dataset)
        _require_file("--dev-dataset", args.dev_dataset)
        given = _given(args, ("n_classes", "label_col", "delimiter",
                              "label_base"))
        if args.text_cols is not None:
            given["text_cols"] = tuple(_parse_int_list("--text-cols",
                                                       args.text_cols))
        # without --n-classes a csv takes the synthetic default class count
        schema = CsvSchema(**{"n_classes": SyntheticSpec.n_classes, **given})
        return DatasetConfig(source="csv", train_path=str(path),
                             eval_path=args.eval_dataset,
                             dev_path=args.dev_dataset, schema=schema)
    return DatasetConfig(source="synthetic", synthetic=spec,
                         **_given(args, ("dataset_seed",)))


def _build(config, args, **overrides):
    """``config`` from its flags in ``args``, where a field with no flag keeps
    its default; ``overrides`` replace some."""
    values = {name: getattr(args, name) for name in _CONFIG_FLAGS[config]
              if hasattr(args, name)}
    return config(**{**values, **overrides})


def _experiment_config(args) -> ExperimentConfig:
    dataset = _dataset_config(args)
    n_classes = (dataset.synthetic.n_classes if dataset.source == "synthetic"
                 else dataset.schema.n_classes)
    # only train takes --seed and --data-seed; the studies set their own
    seeds = {name: getattr(args, name) for name in ("seed", "data_seed")
             if hasattr(args, name)}
    return ExperimentConfig(model=_build(ModelConfig, args, n_classes=n_classes),
                            distill=_build(DistillConfig, args),
                            train=_build(TrainConfig, args), dataset=dataset,
                            **seeds)


def _parse_grid(axis: str, raw: str | None) -> list:
    if raw is None:
        return DEFAULT_LAMBDA_GRID if axis == "lambda" else DEFAULT_K_GRID
    parse = (partial(_parse_token, cast=float) if axis == "lambda"
             else _parse_teacher_size)
    return [parse("--grid", tok) for tok in raw.split(",") if tok != ""]


# Each study's run from the shared config and its own flags.
_STUDIES = {
    "sweep": lambda config, args: sweep(
        config, args.axis, _parse_grid(args.axis, args.grid), args.seeds),
    "ensemble": lambda config, args: ensemble_experiment(config, args.seeds),
    "stability": lambda config, args: stability_study(
        config, args.data_seeds, args.init_seed),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="selfdistill",
                     description="self-ensemble / self-distillation experiments")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)

    p_train = sub.add_parser("train", help="one fine-tuning run")
    _add_config_flags(p_train)
    p_train.add_argument("--seed", type=partial(_parse_seed, "--seed"),
                         default=ExperimentConfig.seed)
    p_train.add_argument("--data-seed",
                         type=partial(_parse_seed, "--data-seed"), default=None,
                         help="data-order seed (defaults to --seed)")
    p_train.add_argument(
        "--save-checkpoints", action="store_true",
        help="write a parameter checkpoint at every epoch boundary")

    p_sweep = sub.add_parser("sweep",
                             help="grid sweep over lambda or K (--mode sda|sdv)")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=["lambda", "k"], default="lambda")
    p_sweep.add_argument("--grid", default=None,
                         help="comma-separated grid values (defaults per axis)")
    p_sweep.add_argument("--seeds", type=partial(_parse_seeds, "--seeds"),
                         default="0", help="comma-separated seeds")

    p_ens = sub.add_parser("ensemble", help="voted + averaged ensembles")
    _add_config_flags(p_ens)
    p_ens.add_argument("--seeds", type=partial(_parse_seeds, "--seeds"),
                       default="0,1,2,3",
                       help="comma-separated seeds")

    p_stab = sub.add_parser("stability", help="data-order stability study")
    # stability_study builds its four strategies from lambda alone
    _add_config_flags(p_stab, omit=("mode", "teacher_size", "snapshot_every"))
    p_stab.add_argument("--data-seeds",
                        type=partial(_parse_seeds, "--data-seeds"),
                        default="0,1,2,3,4,5,6,7,8,9",
                        help="comma-separated data-order seeds")
    p_stab.add_argument("--init-seed",
                        type=partial(_parse_seed, "--init-seed"), default=0)

    p_rep = sub.add_parser("report", help="re-render stored reports")
    p_rep.add_argument("paths", nargs="+", help="report files or directories")
    p_rep.add_argument("--baseline", default=None,
                       help="baseline report for relative-change column")
    return parser


def _cmd_train(args) -> int:
    config = _experiment_config(args)
    checkpoint_dir = (Path(args.out) / "checkpoints"
                      if args.save_checkpoints else None)
    _require_dir("--out", Path(args.out))
    if checkpoint_dir is not None:
        _require_dir("--save-checkpoints", checkpoint_dir)
    result = run_experiment(config, checkpoint_dir=checkpoint_dir)
    paths = emit_report(result, args.out)
    report = result.report
    print(f"wrote {', '.join(str(p) for p in paths)}")
    if report.final_student:
        print(f"final test error {report.final_student['test_error']:.4f} "
              f"(accuracy {report.final_student['test_accuracy']:.4f}) "
              f"[{report.wall_clock_s:.1f}s]")
    return 0


def _cmd_study(args) -> int:
    config = _experiment_config(args)
    _require_dir("--out", Path(args.out))
    result = _STUDIES[args.command](config, args)
    paths = emit_report(result, args.out)
    print(f"wrote {', '.join(str(p) for p in paths)}")
    print(render_summary(args.out))
    return 0


def _cmd_report(args) -> int:
    for path in args.paths:
        print(render_summary(path, baseline_path=args.baseline))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "sweep": _cmd_study,
    "ensemble": _cmd_study,
    "stability": _cmd_study,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, UsageError, ContractError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SelfDistillError, ValueError) as exc:
        # configuration is checked before any work starts, so what is left
        # (divergence, a numpy ValueError) failed at run time
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
