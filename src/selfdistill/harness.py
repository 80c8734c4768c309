"""Experiment orchestration: single runs, ensembles, sweeps, stability
studies, and report emission.

Every experiment here is a pure function of (configs, seeds): rerunning it
writes byte-identical report files. Emission separates the canonical JSON
report from flat CSV curve files so external plotting never parses JSON.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    CsvSchema,
    SyntheticSpec,
    TaskData,
    iter_batches,
    load_csv,
    make_synthetic,
    prepare_task,
    require_seed,
)
from .distill import (
    EVAL_BATCH_SIZE,
    DistillConfig,
    TrainConfig,
    TrainResult,
    evaluate_params,
    fine_tune,
)
from .encoder import ModelConfig
from .ensemble import average_parameters, voted_predict
from .errors import ConfigError, DivergenceError, InputError
from .reporting import (
    EpochPoint,
    RunReport,
    StabilityResult,
    StepPoint,
    SweepTable,
    load_json,
    make_dir,
    save_json,
)

DEFAULT_LAMBDA_GRID = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
DEFAULT_K_GRID = [1, 2, 3, 4, 5, "all"]

def stability_strategies(lam: float = 1.0) -> list:
    """The four boxes of the stability comparison."""
    return [
        ("baseline", DistillConfig(mode="baseline")),
        ("sda_k1", DistillConfig(mode="sda", lam=lam, teacher_size=1)),
        ("sda_k5", DistillConfig(mode="sda", lam=lam, teacher_size=5)),
        ("sdv_k5", DistillConfig(mode="sdv", lam=lam, teacher_size=5)),
    ]


@dataclass(frozen=True)
class DatasetConfig:
    """Where a run's data comes from: a synthetic spec or CSV files."""

    source: str = "synthetic"            # synthetic | csv
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    dataset_seed: int = 1234
    train_path: str | None = None
    eval_path: str | None = None
    dev_path: str | None = None
    schema: CsvSchema | None = None

    def __post_init__(self):
        require_seed("dataset_seed", self.dataset_seed)
        if self.source not in ("synthetic", "csv"):
            raise ConfigError(f"unknown dataset source {self.source!r}")
        if self.source == "csv":
            if not self.train_path or not self.eval_path:
                raise ConfigError("csv datasets need train_path and eval_path")
            if self.schema is None:
                raise ConfigError("csv datasets need a column schema")

    def to_dict(self) -> dict:
        d = {"source": self.source, "dataset_seed": self.dataset_seed}
        if self.source == "synthetic":
            d["synthetic"] = asdict(self.synthetic)
        else:
            d.update({
                "train_path": self.train_path,
                "eval_path": self.eval_path,
                "dev_path": self.dev_path,
                "schema": asdict(self.schema),
            })
        return d


@dataclass
class ExperimentConfig:
    """Complete description of one run; the report echoes all of it."""

    model: ModelConfig = field(default_factory=ModelConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    seed: int = 0
    data_seed: int | None = None

    def __post_init__(self):
        require_seed("seed", self.seed)
        if self.data_seed is not None:
            require_seed("data_seed", self.data_seed)


def build_task(config: ExperimentConfig) -> TaskData:
    ds = config.dataset
    if ds.source == "synthetic":
        splits = make_synthetic(ds.synthetic, ds.dataset_seed)
    else:
        splits = {
            "train": load_csv(ds.train_path, ds.schema),
            "test": load_csv(ds.eval_path, ds.schema),
        }
        if ds.dev_path:
            splits["dev"] = load_csv(ds.dev_path, ds.schema)
    return prepare_task(splits, vocab_size=config.model.vocab_size)


def run_experiment(config: ExperimentConfig, checkpoint_dir=None) -> TrainResult:
    """Build the task from the dataset config, fine-tune once and return the
    result with its report."""
    result = fine_tune(config.model, config.distill, config.train,
                       build_task(config),
                       seed=config.seed, data_seed=config.data_seed,
                       checkpoint_dir=checkpoint_dir)
    result.report.config["dataset"] = config.dataset.to_dict()
    return result


@dataclass
class EnsembleReport:
    """Per-member reports plus voted/averaged ensemble test metrics."""

    member_reports: list[RunReport]
    voted: dict
    averaged: dict
    individual: list[dict]

    def to_dict(self) -> dict:
        return {
            "members": [r.to_dict() for r in self.member_reports],
            "voted": self.voted,
            "averaged": self.averaged,
            "individual": self.individual,
        }


def _study_task(config: ExperimentConfig) -> TaskData:
    """The task every cell of a study shares; a study compares final test
    metrics, so it needs at least one epoch, checked before any work."""
    if config.train.epochs < 1:
        raise ConfigError(f"a study compares final test metrics, so it needs "
                          f"epochs >= 1, got {config.train.epochs}")
    return build_task(config)


def ensemble_experiment(config: ExperimentConfig,
                        seeds: list[int]) -> EnsembleReport:
    """Fine-tune one model per seed; evaluate voting and averaging."""
    if not seeds:
        raise ConfigError("an ensemble needs at least one seed")
    task = _study_task(config)
    results = [fine_tune(config.model, config.distill, config.train, task,
                         seed=s, data_seed=s) for s in seeds]
    members = [r.student for r in results]

    correct = 0
    test = task.test
    for batch in iter_batches(test, task.vocab, config.model.max_len,
                              EVAL_BATCH_SIZE):
        _, labels = voted_predict(members, batch, config.model)
        correct += int((labels == batch.labels).sum())
    voted_acc = correct / len(test)
    voted = {"test_accuracy": voted_acc, "test_error": 1.0 - voted_acc}

    avg_params = average_parameters(members)
    avg_acc, avg_err = evaluate_params(avg_params, config.model, test,
                                       task.vocab)
    averaged = {"test_accuracy": avg_acc, "test_error": avg_err}
    return EnsembleReport(member_reports=[r.report for r in results],
                          voted=voted, averaged=averaged,
                          individual=[r.report.final_student for r in results])


def sweep(base_config: ExperimentConfig, axis: str, grid: list,
          seeds: list[int]) -> SweepTable:
    """One run per (grid cell, seed); cell metric is the mean over seeds.

    Each cell replaces one field of the sda or sdv ``base_config.distill``:
    ``lam`` as a number, or ``teacher_size`` as an int or ``"all"``. Cells and
    seeds are keyed by value, so a grid value or a seed given twice is a
    ConfigError before any run. A cell value the config rejects marks that
    cell failed, and a diverged run marks its seed failed; the sweep
    continues. Any other error is shared by every cell and propagates.
    """
    if axis not in ("lambda", "k"):
        raise ConfigError(f"sweep axis must be 'lambda' or 'k', got {axis!r}")
    if not grid or not seeds:
        raise ConfigError("sweep needs a non-empty grid and seed list")
    dc = base_config.distill
    if dc.mode == "baseline":
        raise ConfigError("sweep varies the teacher's lambda or K, so it needs "
                          "mode sda or sdv, not baseline")
    field_name = "lam" if axis == "lambda" else "teacher_size"
    # each value is passed as given, so that DistillConfig rejects a K such
    # as 2.5 and a bool on either axis
    if len(set(grid)) < len(grid):
        raise ConfigError(f"sweep grid repeats a value: {list(grid)}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"sweep seeds repeat a value: {list(seeds)}")
    task = _study_task(base_config)
    table = SweepTable(axis=axis, grid=list(grid), seeds=list(seeds))
    for value in grid:
        try:
            distill = replace(dc, **{field_name: value})
        except ConfigError as exc:
            table.cells[str(value)] = {"failed": str(exc), "per_seed": {}}
            continue
        per_seed: dict = {}
        errors, accuracies = [], []
        for s in seeds:
            try:
                result = fine_tune(base_config.model, distill,
                                   base_config.train, task, seed=s,
                                   data_seed=s)
                final = result.report.final_student
                per_seed[str(s)] = final
                errors.append(final["test_error"])
                accuracies.append(final["test_accuracy"])
            except DivergenceError as exc:
                per_seed[str(s)] = {"failed": str(exc)}
        cell = {"per_seed": per_seed}
        if errors:
            cell["mean_test_error"] = float(np.mean(errors))
            cell["mean_test_accuracy"] = float(np.mean(accuracies))
        else:
            cell["failed"] = "all seeds failed"
        table.cells[str(value)] = cell
    return table


def stability_study(config: ExperimentConfig, data_order_seeds: list[int],
                    fixed_init_seed: int,
                    strategies=None) -> list[StabilityResult]:
    """Vary only the data order over a fixed initialization, per strategy."""
    if len(data_order_seeds) < 2:
        raise ConfigError("stability study needs at least 2 data-order seeds")
    task = _study_task(config)
    results = []
    if strategies is None:
        strategies = stability_strategies(config.distill.lam)
    for name, distill in strategies:
        accs = []
        for ds in data_order_seeds:
            result = fine_tune(config.model, distill, config.train, task,
                               seed=fixed_init_seed, data_seed=ds)
            accs.append(result.report.final_student["test_accuracy"])
        results.append(StabilityResult.from_accuracies(
            strategy=name, data_seeds=list(data_order_seeds), accuracies=accs))
    return results


# ---------------------------------------------------------------------------
# Emission: canonical JSON + flat curve CSVs
# ---------------------------------------------------------------------------


def _write_curve(path: Path, points: list, point_type) -> Path:
    """A CSV with one column per field of ``point_type``, one row per point."""
    names = [f.name for f in fields(point_type)]
    rows = [names] + [[repr(getattr(p, n)) for n in names] for p in points]
    try:
        path.write_text("".join(",".join(r) + "\n" for r in rows),
                        encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    return path


def emit_report(obj, out_dir) -> list[Path]:
    """Write a report object under ``out_dir``; returns the file paths.

    RunReports produce report.json plus curves_epoch.csv / curves_step.csv
    (separate CE and MSE columns); sweeps and stability results produce a
    single JSON document.
    """
    out = make_dir(out_dir)
    written: list[Path] = []

    if isinstance(obj, TrainResult):
        obj = obj.report
    if isinstance(obj, RunReport):
        path = out / "report.json"
        save_json(obj.to_dict(), path)
        written.append(path)
        written += [
            _write_curve(out / "curves_epoch.csv", obj.epoch_curve, EpochPoint),
            _write_curve(out / "curves_step.csv", obj.step_curve, StepPoint),
        ]
    elif isinstance(obj, SweepTable):
        path = out / "sweep.json"
        save_json(asdict(obj), path)
        written.append(path)
    elif isinstance(obj, EnsembleReport):
        path = out / "ensemble.json"
        save_json(obj.to_dict(), path)
        written.append(path)
    elif isinstance(obj, list) and all(isinstance(r, StabilityResult) for r in obj):
        path = out / "stability.json"
        save_json({"strategies": [asdict(r) for r in obj]}, path)
        written.append(path)
    else:
        raise ConfigError(f"emit_report: unsupported object {type(obj).__name__}")
    return written


# ---------------------------------------------------------------------------
# Rendering stored reports as text summaries
# ---------------------------------------------------------------------------


def relative_error_change(baseline_error: float, error: float) -> float:
    """Relative error reduction vs a baseline (positive = improvement)."""
    if baseline_error == 0.0:
        return 0.0
    return (baseline_error - error) / baseline_error


def _report_file(path) -> Path:
    """``path`` itself, or the report file inside a report directory."""
    p = Path(path)
    if not p.is_dir():
        return p
    for candidate in ("report.json", "sweep.json", "stability.json",
                      "ensemble.json"):
        if (p / candidate).exists():
            return p / candidate
    raise InputError(f"{path}: no report files found")


def render_summary(path, baseline_path=None) -> str:
    """Human-readable table for a stored report directory or file; a run
    report's table ends with its relative error change against the final
    student of ``baseline_path``, when given."""
    base_error = None
    if baseline_path is not None:
        base_error = _read_report(
            _report_file(baseline_path),
            lambda doc: float(doc["final_student"]["test_error"]))
    p = _report_file(path)
    return "\n".join([f"# {p}", *_read_report(
        p, lambda doc: _summary_lines(doc, base_error))])


def _read_report(p: Path, read):
    """``read`` of the JSON at ``p``. A report of the wrong shape (a missing
    key, a value of the wrong type, no known layout) is an InputError that
    names ``p``."""
    doc = load_json(p)
    try:
        return read(doc)
    except KeyError as exc:
        raise InputError(f"{p}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{p}: malformed report: {exc}") from None


def _summary_lines(doc, base_error: float | None) -> list[str]:
    lines = []
    if "epoch_curve" in doc:
        lines.append("epoch  test_err  test_acc  mean_ce   mean_mse  lr")
        for pt in doc["epoch_curve"]:
            lines.append(
                f"{pt['epoch']:>5d}  {pt['test_error']:.4f}    {pt['test_accuracy']:.4f}"
                f"    {pt['mean_ce']:.4f}    {pt['mean_mse']:.4f}  {pt['lr']:.2e}"
            )
        fs = doc.get("final_student") or {}
        if fs:
            lines.append(f"final student: error={fs['test_error']:.4f} "
                         f"accuracy={fs['test_accuracy']:.4f}")
        ft = doc.get("final_teacher")
        if ft:
            lines.append(f"final teacher: error={ft['test_error']:.4f} "
                         f"accuracy={ft['test_accuracy']:.4f}")
        if base_error is not None and fs:
            delta = relative_error_change(base_error, fs["test_error"])
            lines.append(f"relative error change vs baseline: {delta:+.2%}")
    elif "cells" in doc:
        lines.append(f"axis: {doc['axis']}   seeds: {doc['seeds']}")
        lines.append("cell        mean_test_error  mean_test_accuracy")
        for value in doc["grid"]:
            cell = doc["cells"][str(value)]
            if "failed" in cell:
                lines.append(f"{value!s:<10}  FAILED: {cell['failed']}")
            else:
                lines.append(f"{value!s:<10}  {cell['mean_test_error']:.4f}"
                             f"           {cell['mean_test_accuracy']:.4f}")
    elif "strategies" in doc:
        lines.append("strategy    mean     std      min      max")
        for s in doc["strategies"]:
            m = s["summary"]
            lines.append(f"{s['strategy']:<10}  {m['mean']:.4f}   {m['std']:.4f}"
                         f"   {m['min']:.4f}   {m['max']:.4f}")
    elif "voted" in doc:
        lines.append("member final test errors: " + ", ".join(
            f"{m['test_error']:.4f}" for m in doc["individual"]))
        lines.append(f"voted    : error={doc['voted']['test_error']:.4f}")
        lines.append(f"averaged : error={doc['averaged']['test_error']:.4f}")
    else:
        raise ValueError("no epoch_curve, cells, strategies or voted key")
    return lines
