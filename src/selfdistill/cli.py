"""Command-line entry points.

Subcommands: train, sweep, ensemble, stability, report. Every flag can be
defaulted through an environment variable with the ``SELFDISTILL_`` prefix
(flag ``--teacher-size`` -> ``SELFDISTILL_TEACHER_SIZE``); explicit flags
win over the environment.

Exit codes: 0 success; 1 a bad flag, environment value, config or input
file; 2 an error raised while running (divergence, or any ``ValueError``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

from .data import CsvSchema, SyntheticSpec
from .distill import DistillConfig, TrainConfig
from .encoder import ModelConfig
from .errors import (
    ConfigError,
    ContractError,
    InputError,
    SelfDistillError,
    UsageError,
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
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _env_name(flag: str) -> str:
    return ENV_PREFIX + flag.upper().replace("-", "_")


def _parse_token(source: str, token: str, cast):
    """``cast(token)``; a bad token is a ConfigError naming its flag or variable."""
    try:
        return cast(token)
    except ValueError:
        raise ConfigError(f"{source}: {token!r} is not a valid "
                          f"{cast.__name__}") from None


def _env_bool(flag: str) -> bool:
    """1/true/yes -> True; unset, empty, 0/false/no -> False."""
    name = _env_name(flag)
    raw = os.environ.get(name, "")
    value = raw.strip().lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("", "0", "false", "no"):
        return False
    raise ConfigError(f"{name}={raw!r} is not a boolean (use 1/0, true/false, yes/no)")


def _add(parser, flag: str, **kwargs):
    """add_argument with an environment-variable default."""
    name = _env_name(flag)
    raw = os.environ.get(name)
    if raw is not None:
        kwargs["default"] = _parse_token(name, raw, kwargs.get("type", str))
    parser.add_argument(f"--{flag}", **kwargs)


# The flags that set a config field, one tuple of field names per config.
# Each flag is the field name with dashes, or its entry in _FLAG_NAMES, and
# takes its default and type from the field.
_CONFIG_FLAGS = {
    ModelConfig: ("vocab_size", "max_len", "dim", "n_layers", "n_heads",
                  "ffn_dim", "dropout_p"),
    DistillConfig: ("mode", "lam", "teacher_size", "snapshot_every"),
    TrainConfig: ("epochs", "micro_batch", "accum_steps", "lr_encoder",
                  "lr_head", "warmup_prop", "weight_decay", "select_by"),
}
_FLAG_NAMES = {"lam": "lambda", "dropout_p": "dropout"}
_FLAG_OPTIONS = {
    "mode": {"choices": ["baseline", "sda", "sdv"]},
    "lam": {"help": "distillation weight"},
    "teacher_size": {"help": "teacher window size K, or 'all' (sda only)"},
    "select_by": {"choices": ["final", "best_dev"]},
}


def _add_train_flags(p: _Parser) -> None:
    for config, names in _CONFIG_FLAGS.items():
        hints = get_type_hints(config)
        defaults = {f.name: f.default for f in fields(config)}
        for name in names:
            # teacher_size (int | str) is read as text and parsed after
            cast = hints[name] if hints[name] in (int, float) else str
            _add(p, _FLAG_NAMES.get(name, name.replace("_", "-")), dest=name,
                 type=cast, default=defaults[name], **_FLAG_OPTIONS.get(name, {}))
    _add(p, "seed", type=int, default=ExperimentConfig.seed)
    _add(p, "data-seed", type=int, default=None,
         help="data-order seed (defaults to --seed)")
    _add(p, "dataset", default="synthetic",
         help="'synthetic', a synthetic-spec .json file, or a train .csv/.tsv")
    _add(p, "eval-dataset", default=None, help="test csv (csv datasets only)")
    _add(p, "dev-dataset", default=None, help="optional dev csv (csv datasets only)")
    _add(p, "dataset-seed", type=int, default=DatasetConfig.dataset_seed,
         help="generation seed for synthetic data")
    _add(p, "label-col", type=int, default=0)
    _add(p, "text-cols", default="1", help="comma-separated text column indices")
    _add(p, "n-classes", type=int, default=SyntheticSpec.n_classes)
    _add(p, "delimiter", default=",")
    _add(p, "label-base", type=int, default=0,
         help="smallest label value in the csv; labels are rebased to 0")
    _add(p, "out", default="runs/out", help="output directory for reports")
    p.add_argument("--save-checkpoints", action="store_true",
                   default=_env_bool("save-checkpoints"),
                   help="write a parameter checkpoint at every epoch boundary")


def _parse_teacher_size(flag: str, raw: str):
    return "all" if raw == "all" else _parse_token(flag, raw, int)


def _parse_int_list(flag: str, raw: str) -> list[int]:
    return [_parse_token(flag, tok, int) for tok in raw.split(",") if tok != ""]


def _require_file(flag: str, path: str | None) -> None:
    if path is not None and not Path(path).is_file():
        raise InputError(f"{flag}: no such file: {path}")


def _check_spec_types(path, raw: dict) -> None:
    """Each value must fit its SyntheticSpec field: an int field takes an
    int, a float field an int or a float, and only an optional field takes
    null. A bool is not a number here."""
    hints = get_type_hints(SyntheticSpec)
    for key, value in raw.items():
        allowed = get_args(hints[key]) or (hints[key],)
        number = (int, float) if float in allowed else int
        if value is None:
            ok = type(None) in allowed
        else:
            ok = isinstance(value, number) and not isinstance(value, bool)
        if not ok:
            expected = ("a number" if float in allowed else "an integer") + (
                " or null" if type(None) in allowed else "")
            raise ConfigError(f"{path}: synthetic-spec key {key!r} must be "
                              f"{expected}, got {value!r}")


def _dataset_config(args) -> DatasetConfig:
    name = args.dataset
    path = Path(name)
    if name == "synthetic":
        spec = SyntheticSpec(n_classes=args.n_classes)
    elif path.suffix == ".json":
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
        _check_spec_types(path, raw)
        spec = SyntheticSpec(**raw)
    else:
        _require_file("--dataset", name)
        _require_file("--eval-dataset", args.eval_dataset)
        _require_file("--dev-dataset", args.dev_dataset)
        schema = CsvSchema(
            label_col=args.label_col,
            text_cols=tuple(_parse_int_list("--text-cols", args.text_cols)),
            n_classes=args.n_classes,
            delimiter=args.delimiter,
            label_base=args.label_base,
        )
        return DatasetConfig(source="csv", train_path=str(path),
                             eval_path=args.eval_dataset,
                             dev_path=args.dev_dataset, schema=schema,
                             dataset_seed=args.dataset_seed)
    for flag, value in (("--eval-dataset", args.eval_dataset),
                        ("--dev-dataset", args.dev_dataset)):
        if value is not None:
            raise ConfigError(f"{flag} needs a csv --dataset, got {name!r}")
    return DatasetConfig(source="synthetic", synthetic=spec,
                         dataset_seed=args.dataset_seed)


def _build(config, args, **overrides):
    """``config`` from its flags in ``args``; ``overrides`` replace some."""
    values = {name: getattr(args, name) for name in _CONFIG_FLAGS[config]}
    return config(**{**values, **overrides})


def _experiment_config(args) -> ExperimentConfig:
    dataset = _dataset_config(args)
    n_classes = (dataset.synthetic.n_classes if dataset.source == "synthetic"
                 else dataset.schema.n_classes)
    model = _build(ModelConfig, args, n_classes=n_classes)
    distill = _build(DistillConfig, args, teacher_size=_parse_teacher_size(
        "--teacher-size", args.teacher_size))
    train = _build(TrainConfig, args)
    return ExperimentConfig(model=model, distill=distill, train=train,
                            dataset=dataset, seed=args.seed,
                            data_seed=args.data_seed)


def build_parser() -> _Parser:
    parser = _Parser(prog="selfdistill",
                     description="self-ensemble / self-distillation experiments")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_train = sub.add_parser("train", help="one fine-tuning run")
    _add_train_flags(p_train)

    p_sweep = sub.add_parser("sweep",
                             help="grid sweep over lambda or K (--mode sda|sdv)")
    _add_train_flags(p_sweep)
    _add(p_sweep, "axis", choices=["lambda", "k"], default="lambda")
    _add(p_sweep, "grid", default=None,
         help="comma-separated grid values (defaults per axis)")
    _add(p_sweep, "seeds", default="0", help="comma-separated seeds")

    p_ens = sub.add_parser("ensemble", help="voted + averaged ensembles")
    _add_train_flags(p_ens)
    _add(p_ens, "seeds", default="0,1,2,3", help="comma-separated seeds")

    p_stab = sub.add_parser("stability", help="data-order stability study")
    _add_train_flags(p_stab)
    _add(p_stab, "data-seeds", default="0,1,2,3,4,5,6,7,8,9",
         help="comma-separated data-order seeds")
    _add(p_stab, "init-seed", type=int, default=0)

    p_rep = sub.add_parser("report", help="re-render stored reports")
    p_rep.add_argument("paths", nargs="+", help="report files or directories")
    _add(p_rep, "baseline", default=None,
         help="baseline report for relative-change column")
    return parser


def _cmd_train(args) -> int:
    config = _experiment_config(args)
    checkpoint_dir = (Path(args.out) / "checkpoints"
                      if args.save_checkpoints else None)
    result = run_experiment(config, checkpoint_dir=checkpoint_dir)
    paths = emit_report(result, args.out)
    report = result.report
    print(f"wrote {', '.join(str(p) for p in paths)}")
    if report.final_student:
        print(f"final test error {report.final_student['test_error']:.4f} "
              f"(accuracy {report.final_student['test_accuracy']:.4f}) "
              f"[{report.wall_clock_s:.1f}s]")
    return 0


def _cmd_sweep(args) -> int:
    config = _experiment_config(args)
    if args.grid is None:
        grid = DEFAULT_LAMBDA_GRID if args.axis == "lambda" else DEFAULT_K_GRID
    elif args.axis == "lambda":
        grid = [_parse_token("--grid", tok, float)
                for tok in args.grid.split(",") if tok != ""]
    else:
        grid = [_parse_teacher_size("--grid", tok) for tok in args.grid.split(",")
                if tok != ""]
    table = sweep(config, args.axis, grid, _parse_int_list("--seeds", args.seeds))
    paths = emit_report(table, args.out)
    print(f"wrote {', '.join(str(p) for p in paths)}")
    print(render_summary(args.out))
    return 0


def _cmd_ensemble(args) -> int:
    config = _experiment_config(args)
    report = ensemble_experiment(config, _parse_int_list("--seeds", args.seeds))
    paths = emit_report(report, args.out)
    print(f"wrote {', '.join(str(p) for p in paths)}")
    print(render_summary(args.out))
    return 0


def _cmd_stability(args) -> int:
    config = _experiment_config(args)
    results = stability_study(config,
                              _parse_int_list("--data-seeds", args.data_seeds),
                              args.init_seed)
    paths = emit_report(results, args.out)
    print(f"wrote {', '.join(str(p) for p in paths)}")
    print(render_summary(args.out))
    return 0


def _cmd_report(args) -> int:
    for path in args.paths:
        print(render_summary(path, baseline_path=args.baseline))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "ensemble": _cmd_ensemble,
    "stability": _cmd_stability,
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
