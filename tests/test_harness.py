"""Harness tests: evaluation, experiment runs, sweeps, stability, emission,
and the CLI surface (flags, env overrides, exit codes, determinism)."""

import dataclasses
import json
import os

import numpy as np
import pytest

from selfdistill import cli, distill
from selfdistill.cli import main as cli_main
from selfdistill.data import (
    CsvSchema,
    DatasetSplit,
    Example,
    SyntheticSpec,
    prepare_task,
)
from selfdistill.distill import DistillConfig, TrainConfig, evaluate_params
from selfdistill.encoder import ModelConfig, init_params
from selfdistill.errors import ConfigError, InputError
from selfdistill.harness import (
    DatasetConfig,
    ExperimentConfig,
    build_task,
    emit_report,
    ensemble_experiment,
    relative_error_change,
    render_summary,
    run_experiment,
    stability_study,
    sweep,
)
from selfdistill.reporting import RunReport, StabilityResult

MODEL = ModelConfig(vocab_size=150, max_len=12, dim=16, n_layers=1, n_heads=2,
                    ffn_dim=32, n_classes=4, dropout_p=0.1)
FAST_TRAIN = TrainConfig(epochs=2, micro_batch=8, accum_steps=1,
                         lr_encoder=5e-3, lr_head=0.25)
SMALL_DATA = DatasetConfig(
    source="synthetic",
    synthetic=SyntheticSpec(n_classes=4, vocab_span=80, tokens_per_example=8,
                            signal=0.9, label_noise=0.0, n_train=320,
                            n_test=80),
    dataset_seed=7,
)


def fast_config(**kwargs) -> ExperimentConfig:
    base = dict(model=MODEL, distill=DistillConfig(mode="baseline"),
                train=FAST_TRAIN, dataset=SMALL_DATA, seed=0)
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestEvaluate:
    def test_constant_class_zero_model(self):
        """W=0 gives uniform probabilities; argmax ties break to class 0."""
        examples = ([Example("w1 w2", 0)] * 40
                    + [Example("w3 w4", 1)] * 35
                    + [Example("w5 w6", 2)] * 25)
        split = DatasetSplit(examples=examples, n_classes=4)
        task = prepare_task({"train": split, "test": split},
                            vocab_size=MODEL.vocab_size)
        params = init_params(MODEL, seed=0)
        params["head.W"].data[...] = 0.0
        acc, err = evaluate_params(params, MODEL, split, task.vocab)
        assert acc == pytest.approx(0.40)
        assert err == pytest.approx(0.60)

    def test_accuracy_plus_error_is_one(self):
        config = fast_config()
        task = build_task(config)
        params = init_params(MODEL, seed=1)
        acc, err = evaluate_params(params, MODEL, task.test, task.vocab)
        assert acc + err == pytest.approx(1.0, abs=1e-12)

    def test_batching_invariance(self, monkeypatch):
        """Eval batches of 1 and of 64 produce identical metrics."""
        config = fast_config()
        task = build_task(config)
        params = init_params(MODEL, seed=2)
        metrics = []
        for size in (1, 64):
            monkeypatch.setattr(distill, "EVAL_BATCH_SIZE", size)
            metrics.append(evaluate_params(params, MODEL, task.test,
                                           task.vocab))
        assert metrics[0] == metrics[1]


class TestRunExperiment:
    @pytest.mark.parametrize("field", ["seed", "data_seed"])
    def test_negative_seed_is_config_error(self, field):
        with pytest.raises(ConfigError, match=f"^{field}: a seed must be >= 0"):
            fast_config(**{field: -1})

    def test_negative_dataset_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="^dataset_seed: a seed must be >= 0"):
            DatasetConfig(dataset_seed=-1)

    @pytest.mark.parametrize("field", ["seed", "data_seed"])
    @pytest.mark.parametrize("value", [1.5, True])
    def test_a_seed_that_is_not_an_integer_is_config_error(self, field,
                                                           value):
        with pytest.raises(ConfigError, match=f"^{field}: a seed must be an "
                                              f"integer, got {value!r}$"):
            fast_config(**{field: value})

    @pytest.mark.parametrize("value", [2.5, False, None])
    def test_a_dataset_seed_that_is_not_an_integer_is_config_error(self,
                                                                   value):
        with pytest.raises(ConfigError, match="^dataset_seed: a seed must be "
                                              f"an integer, got {value!r}$"):
            DatasetConfig(dataset_seed=value)

    def test_a_seed_of_none_is_config_error(self):
        with pytest.raises(ConfigError, match="^seed: a seed must be an "
                                              "integer, got None$"):
            fast_config(seed=None)

    def test_numpy_integer_and_absent_seeds_stay_valid(self):
        config = fast_config(seed=np.int64(2), data_seed=None)
        assert config.seed == 2 and config.data_seed is None
        assert DatasetConfig(dataset_seed=np.int32(7)).dataset_seed == 7

    def test_separable_run_reaches_low_error(self):
        result = run_experiment(fast_config())
        assert result.report.final_student["test_error"] < 0.05

    def test_report_roundtrip_through_disk(self, tmp_path):
        result = run_experiment(fast_config())
        emit_report(result, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc == result.report.to_dict()

    def test_report_dict_echoes_config_fields_without_wall_clock(self):
        report = run_experiment(fast_config()).report
        assert report.wall_clock_s is not None
        d = report.to_dict()
        assert "wall_clock_s" not in d
        assert set(d) | {"wall_clock_s"} == \
            {f.name for f in dataclasses.fields(RunReport)}
        for key, cls in (("model", ModelConfig), ("distill", DistillConfig),
                         ("train", TrainConfig)):
            assert set(d["config"][key]) == {f.name for f in dataclasses.fields(cls)}
        assert set(d["config"]["dataset"]["synthetic"]) == \
            {f.name for f in dataclasses.fields(SyntheticSpec)}
        csv = DatasetConfig(source="csv", train_path="a.csv", eval_path="b.csv",
                            schema=CsvSchema(label_col=0, text_cols=(1, 2),
                                             n_classes=2))
        assert set(csv.to_dict()["schema"]) == \
            {f.name for f in dataclasses.fields(CsvSchema)}

    def test_same_config_same_seed_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            emit_report(run_experiment(fast_config()), tmp_path / sub)
        for name in ("report.json", "curves_epoch.csv", "curves_step.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_curve_files_shape(self, tmp_path):
        result = run_experiment(fast_config())
        emit_report(result, tmp_path)
        epoch_lines = (tmp_path / "curves_epoch.csv").read_text().splitlines()
        assert epoch_lines[0] == "epoch,test_error,test_accuracy,mean_ce,mean_mse,lr"
        assert len(epoch_lines) == 1 + FAST_TRAIN.epochs
        step_lines = (tmp_path / "curves_step.csv").read_text().splitlines()
        assert step_lines[0] == "step,ce,mse,lr"
        assert len(step_lines) == 1 + len(result.report.step_curve)


class TestEnsembleExperiment:
    def test_single_model_degenerates(self):
        report = ensemble_experiment(fast_config(), [3])
        assert report.voted == report.individual[0]
        assert report.averaged == report.individual[0]

    def test_equal_seeds_collapse_to_single_model(self):
        report = ensemble_experiment(fast_config(), [5, 5, 5])
        assert report.voted == report.individual[0]
        assert report.averaged == report.individual[0]
        assert report.individual[0] == report.individual[1] == report.individual[2]

    def test_streaming_vote_matches_materialized_oracle(self):
        """Recompute the voted metric by materializing every probability."""
        from selfdistill.data import iter_batches
        from selfdistill.distill import fine_tune
        from selfdistill.encoder import predict_proba

        config = fast_config()
        task = build_task(config)
        members = [
            fine_tune(config.model, config.distill, config.train, task,
                      seed=s, data_seed=s).student
            for s in (0, 1)
        ]
        report = ensemble_experiment(config, [0, 1])

        correct = 0
        for batch in iter_batches(task.test, task.vocab, MODEL.max_len, 64):
            stacked = np.stack([predict_proba(m, batch, MODEL)
                                for m in members])
            pred = np.argmax(stacked.sum(axis=0), axis=1)
            correct += int((pred == batch.labels).sum())
        oracle_acc = correct / len(task.test)
        assert report.voted["test_accuracy"] == pytest.approx(oracle_acc,
                                                              abs=1e-12)

    def test_empty_seed_list(self):
        with pytest.raises(ConfigError, match="at least one seed"):
            ensemble_experiment(fast_config(), [])


class TestSweep:
    def test_baseline_mode_is_config_error_before_any_run(self, monkeypatch):
        import selfdistill.harness as harness

        def no_work(*args, **kwargs):
            raise AssertionError("sweep started work on a baseline config")

        monkeypatch.setattr(harness, "build_task", no_work)
        monkeypatch.setattr(harness, "fine_tune", no_work)
        for axis, grid in (("lambda", [1.0]), ("k", [1])):
            with pytest.raises(ConfigError, match="baseline"):
                sweep(fast_config(), axis, grid, [0])

    @pytest.mark.parametrize("axis,grid,seeds,what", [
        ("lambda", [0.5, 0.5], [0], "grid repeats"),
        ("lambda", [1, 1.0], [0], "grid repeats"),
        ("k", [1, 1.0], [0], "grid repeats"),
        ("k", ["all", 2, "all"], [0], "grid repeats"),
        ("lambda", [0.5], [0, 0], "seeds repeat"),
    ])
    def test_repeated_value_is_config_error_before_any_run(
            self, monkeypatch, axis, grid, seeds, what):
        """Cells and per-seed results are keyed by value, so a repeat would
        run twice and be reported once."""
        import selfdistill.harness as harness

        def no_work(*args, **kwargs):
            raise AssertionError("sweep started work on a repeated value")

        monkeypatch.setattr(harness, "build_task", no_work)
        monkeypatch.setattr(harness, "fine_tune", no_work)
        config = fast_config(distill=DistillConfig(mode="sda", teacher_size=2))
        with pytest.raises(ConfigError, match=f"sweep {what} a value"):
            sweep(config, axis, grid, seeds)

    def test_grid_of_one(self):
        config = fast_config(distill=DistillConfig(mode="sda", teacher_size=2))
        table = sweep(config, "lambda", [1.0], [4])
        run = run_experiment(fast_config(
            distill=DistillConfig(mode="sda", lam=1.0, teacher_size=2),
            seed=4, data_seed=4))
        cell = table.cells["1.0"]
        assert cell["mean_test_error"] == pytest.approx(
            run.report.final_student["test_error"], abs=1e-12)

    def test_lambda_zero_cell_equals_baseline(self):
        config = fast_config(distill=DistillConfig(mode="sda", teacher_size=2))
        table = sweep(config, "lambda", [0.0], [6])
        baseline = run_experiment(fast_config(seed=6, data_seed=6))
        assert table.cells["0.0"]["mean_test_error"] == \
            baseline.report.final_student["test_error"]

    def test_cell_means_recomputable_from_per_seed(self):
        config = fast_config(distill=DistillConfig(mode="sda", teacher_size=2))
        table = sweep(config, "k", [1, 2], [0, 1])
        for cell in table.cells.values():
            per_seed = [v["test_error"] for v in cell["per_seed"].values()]
            assert cell["mean_test_error"] == pytest.approx(
                float(np.mean(per_seed)), abs=1e-12)

    def test_k_axis_supports_all(self):
        config = fast_config(distill=DistillConfig(mode="sda", teacher_size=2))
        table = sweep(config, "k", ["all"], [0])
        assert "mean_test_error" in table.cells["all"]

    def test_invalid_cell_config_marks_cell_failed(self):
        # "all" is undefined for the logit-averaging teacher
        config = fast_config(distill=DistillConfig(mode="sdv", teacher_size=2))
        table = sweep(config, "k", ["all", 1], [0])
        assert "failed" in table.cells["all"]
        assert "mean_test_error" in table.cells["1"]

    @pytest.mark.parametrize("k", [2.5, True])
    def test_a_k_that_is_not_an_integer_marks_its_cell_failed(self, k):
        """2.5 is not run as K=2 (nor taken for a repeat of the cell 2), and
        True not as K=1."""
        config = fast_config(distill=DistillConfig(mode="sdv", teacher_size=3))
        table = sweep(config, "k", [k, 2], [0])
        assert table.cells[str(k)] == {
            "failed": f"DistillConfig field 'teacher_size' must be an "
                      f"integer, got {k!r}", "per_seed": {}}
        assert "mean_test_error" in table.cells["2"]

    def test_a_bool_lambda_marks_its_cell_failed(self, monkeypatch):
        """True is not run as lambda 1.0."""
        import selfdistill.harness as harness
        runs = []
        run = harness.fine_tune

        def counted(model, distill, *args, **kwargs):
            runs.append(distill.lam)
            return run(model, distill, *args, **kwargs)

        monkeypatch.setattr(harness, "fine_tune", counted)
        config = fast_config(distill=DistillConfig(mode="sda", teacher_size=2))
        table = sweep(config, "lambda", [True, 0.5], [0])
        assert table.cells["True"] == {
            "failed": "DistillConfig field 'lam' must be a number, got True",
            "per_seed": {}}
        assert runs == [0.5]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_cell_fails_before_its_seeds(self, monkeypatch,
                                                            value):
        import selfdistill.harness as harness
        runs = []
        run = harness.fine_tune

        def counted(model, distill, *args, **kwargs):
            runs.append(distill.lam)
            return run(model, distill, *args, **kwargs)

        monkeypatch.setattr(harness, "fine_tune", counted)
        config = fast_config(distill=DistillConfig(mode="sda", teacher_size=2))
        table = sweep(config, "lambda", [0.5, float(value)], [0])
        cell = table.cells[str(float(value))]
        assert cell == {"failed": "distillation weight must be finite and "
                                  f">= 0, got {float(value)}", "per_seed": {}}
        assert runs == [0.5]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_cell_recorded_and_sweep_continues(self):
        # lr 1e200 puts the head at ~1e200 after one step; the squared-error
        # term against the frozen teacher then overflows to inf
        bad_train = TrainConfig(epochs=1, micro_batch=8, accum_steps=1,
                                lr_encoder=1e200, lr_head=1e200)
        config = fast_config(train=bad_train,
                             distill=DistillConfig(mode="sda", teacher_size=1))
        table = sweep(config, "lambda", [1.0, 0.0], [0])
        cell = table.cells["1.0"]
        assert "failed" in cell
        assert "failed" in cell["per_seed"]["0"]
        assert set(table.cells) == {"1.0", "0.0"}  # sweep continued


class TestStability:
    def test_identical_data_seeds_identical_accuracies(self):
        config = fast_config()
        results = stability_study(
            config, [3, 3], 0,
            strategies=[("baseline", DistillConfig(mode="baseline"))])
        accs = results[0].accuracies
        assert accs[0] == accs[1]

    def test_summary_recomputable_from_per_seed_list(self):
        config = fast_config()
        results = stability_study(
            config, [0, 1, 2], 0,
            strategies=[("sda_k2", DistillConfig(mode="sda", teacher_size=2))])
        r = results[0]
        arr = np.array(r.accuracies)
        assert r.summary["mean"] == pytest.approx(arr.mean(), abs=1e-9)
        assert r.summary["std"] == pytest.approx(arr.std(), abs=1e-9)
        assert r.summary["min"] == pytest.approx(arr.min(), abs=1e-9)
        assert r.summary["max"] == pytest.approx(arr.max(), abs=1e-9)
        assert r.summary["median"] == pytest.approx(np.median(arr), abs=1e-9)


class TestEmission:
    def test_stability_roundtrip(self, tmp_path):
        r = StabilityResult.from_accuracies("baseline", [0, 1], [0.8, 0.9])
        emit_report([r], tmp_path)
        doc = json.loads((tmp_path / "stability.json").read_text())
        assert doc["strategies"][0]["summary"]["mean"] == pytest.approx(0.85)

    def test_render_summary_shapes(self, tmp_path):
        result = run_experiment(fast_config())
        emit_report(result, tmp_path)
        text = render_summary(tmp_path)
        assert "final student" in text

    @pytest.mark.parametrize("where", ["a file", "under a file"])
    def test_an_output_path_that_is_no_directory_is_an_input_error(
            self, tmp_path, where):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker if where == "a file" else blocker / "run"
        r = StabilityResult.from_accuracies("baseline", [0, 1], [0.8, 0.9])
        with pytest.raises(InputError, match=f"cannot create directory {out}: "):
            emit_report([r], out)
        assert blocker.read_text() == "kept\n"

    def test_a_checkpoint_directory_that_is_a_file_is_an_input_error(
            self, tmp_path):
        blocker = tmp_path / "checkpoints"
        blocker.write_text("kept\n")
        with pytest.raises(InputError, match=f"cannot create directory "
                                             f"{blocker}: "):
            run_experiment(fast_config(), checkpoint_dir=blocker)
        assert blocker.read_text() == "kept\n"

    def test_relative_error_change(self):
        assert relative_error_change(0.10, 0.08) == pytest.approx(0.2)
        assert relative_error_change(0.10, 0.12) == pytest.approx(-0.2)


SMALL_CLI_ARGS = [
    "--dataset", "synthetic", "--epochs", "1", "--micro-batch", "8",
    "--accum-steps", "1", "--vocab-size", "150", "--max-len", "12",
    "--dim", "16", "--n-layers", "1", "--n-heads", "2", "--ffn-dim", "32",
    "--lr-encoder", "3e-3", "--lr-head", "0.15",
]


class TestCli:
    def test_train_writes_reports_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--seed", "1",
                         "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "curves_epoch.csv").exists()

    @staticmethod
    def _no_work(monkeypatch):
        import selfdistill.harness as harness

        def no_work(*args, **kwargs):
            raise AssertionError("the command started work it cannot save")

        monkeypatch.setattr(harness, "build_task", no_work)
        monkeypatch.setattr(harness, "fine_tune", no_work)

    @pytest.mark.parametrize("command", ["train", "stability"])
    @pytest.mark.parametrize("where", ["a file", "under a file"])
    def test_an_out_path_that_cannot_be_a_directory_exits_1_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, where):
        self._no_work(monkeypatch)
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker if where == "a file" else blocker / "run"
        code = cli_main([command, *SMALL_CLI_ARGS, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: --out: cannot write {out}: {blocker} is not "
                       f"a directory\n")
        assert blocker.read_text() == "kept\n"

    def test_a_checkpoint_path_that_is_a_file_exits_1_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        self._no_work(monkeypatch)
        out = tmp_path / "run"
        out.mkdir()
        (out / "checkpoints").write_text("kept\n")
        code = cli_main(["train", *SMALL_CLI_ARGS, "--save-checkpoints",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: --save-checkpoints: cannot write "
                       f"{out / 'checkpoints'}: {out / 'checkpoints'} is not "
                       f"a directory\n")
        assert [p.name for p in out.iterdir()] == ["checkpoints"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="starts no worker")
    def test_a_failed_fork_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                       monkeypatch):
        def failing():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--accum-steps", "2",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: cannot start the step worker: [Errno 11] "
                       "Resource temporarily unavailable; --accum-steps 1 "
                       "runs without one\n")
        assert not (out / "report.json").exists()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists open descriptors through /proc")
    def test_a_failed_mapping_exits_2_with_one_error_line(
            self, tmp_path, capsys, monkeypatch):
        """The step worker's shared memory cannot be mapped: no child is
        forked and no pipe is left open."""
        import mmap

        def failing(*args):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        open_fds = set(os.listdir("/proc/self/fd"))
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--accum-steps", "2",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: cannot map the step worker's memory: [Errno 12] "
                       "Cannot allocate memory; --accum-steps 1 runs without "
                       "one\n")
        assert not (out / "report.json").exists()
        assert set(os.listdir("/proc/self/fd")) == open_fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_determinism_byte_identical_reports(self, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert cli_main(["train", *SMALL_CLI_ARGS, "--seed", "3",
                             "--out", str(out)]) == 0
        for name in ("report.json", "curves_epoch.csv", "curves_step.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = cli_main(["train", "--mode", "nonsense",
                         "--out", str(tmp_path)])
        assert code == 1

    def test_sdv_all_is_config_error(self, tmp_path):
        code = cli_main(["train", *SMALL_CLI_ARGS, "--mode", "sdv",
                         "--teacher-size", "all", "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path):
        code = cli_main(["train", *SMALL_CLI_ARGS, "--mode", "sda",
                         "--teacher-size", "1", "--lambda", "1.0",
                         "--lr-encoder", "1e200", "--lr-head", "1e200",
                         "--out", str(tmp_path)])
        assert code == 2

    def test_env_override(self, tmp_path, monkeypatch):
        """SELFDISTILL_EPOCHS drives the default for --epochs."""
        monkeypatch.setenv("SELFDISTILL_EPOCHS", "0")
        out = tmp_path / "envrun"
        args = list(SMALL_CLI_ARGS)
        i = args.index("--epochs")
        del args[i:i + 2]
        code = cli_main(["train", *args, "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["train"]["epochs"] == 0
        assert doc["epoch_curve"] == []

    @pytest.mark.parametrize("raw,saved", [("0", False), ("1", True)])
    def test_save_checkpoints_env_is_boolean(self, tmp_path, monkeypatch,
                                             raw, saved):
        monkeypatch.setenv("SELFDISTILL_SAVE_CHECKPOINTS", raw)
        out = tmp_path / "run"
        assert cli_main(["train", *SMALL_CLI_ARGS, "--out", str(out)]) == 0
        assert (out / "checkpoints" / "epoch_000.ckpt").exists() is saved

    def test_save_checkpoints_env_junk_is_config_error(self, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.setenv("SELFDISTILL_SAVE_CHECKPOINTS", "maybe")
        out = tmp_path / "run"
        assert cli_main(["train", *SMALL_CLI_ARGS, "--out", str(out)]) == 1
        assert "SELFDISTILL_SAVE_CHECKPOINTS" in capsys.readouterr().err
        assert not out.exists()

    def test_best_dev_without_dev_split_is_config_error(self, tmp_path):
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--select-by", "best_dev",
                         "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_missing_dataset_file_is_input_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--dataset", str(missing),
                         "--out", str(out)])
        assert code == 1
        assert f"--dataset: no such file: {missing}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--eval-dataset", "--dev-dataset"])
    def test_missing_eval_or_dev_file_is_input_error(self, tmp_path, capsys,
                                                     flag):
        train_csv = tmp_path / "train.csv"
        train_csv.write_text('0,"aaa"\n1,"bbb"\n')
        paths = {"--eval-dataset": train_csv, "--dev-dataset": train_csv}
        missing = tmp_path / "missing.csv"
        paths[flag] = missing
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--dataset", str(train_csv),
                         "--eval-dataset", str(paths["--eval-dataset"]),
                         "--dev-dataset", str(paths["--dev-dataset"]),
                         "--out", str(out)])
        assert code == 1
        assert f"{flag}: no such file: {missing}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dataset", ["synthetic", "spec.json"])
    @pytest.mark.parametrize("flag", ["--eval-dataset", "--dev-dataset"])
    def test_csv_only_flag_with_synthetic_data_is_config_error(
            self, tmp_path, capsys, dataset, flag):
        test_csv = tmp_path / "test.csv"
        test_csv.write_text('0,"aaa"\n')
        if dataset == "spec.json":
            dataset = tmp_path / "spec.json"
            dataset.write_text(json.dumps({"n_classes": 4}))
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--dataset", str(dataset),
                         flag, str(test_csv), "--out", str(out)])
        assert code == 1
        assert f"{flag} needs a csv --dataset" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dataset,flag,value", [
        *[(dataset, flag, value) for dataset in ("synthetic", "spec.json")
          for flag, value in (("--label-col", "3"), ("--text-cols", "1,2"),
                              ("--delimiter", ";"), ("--label-base", "1"))],
        ("spec.json", "--n-classes", "2"),
    ])
    def test_dataset_flag_the_source_does_not_read_is_config_error(
            self, tmp_path, capsys, dataset, flag, value):
        if dataset == "spec.json":
            dataset = tmp_path / "spec.json"
            dataset.write_text(json.dumps({"n_classes": 4}))
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--dataset", str(dataset),
                         flag, value, "--out", str(out)])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_csv_without_schema_flags_keeps_the_schema_defaults(self, tmp_path,
                                                              monkeypatch):
        TestCliFlagsFromConfigs._clear_env(monkeypatch)
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text('0,"aaa"\n')
        args = cli.build_parser().parse_args([
            "train", "--dataset", str(csv_path), "--eval-dataset", str(csv_path)])
        assert cli._dataset_config(args).schema == CsvSchema(
            label_col=0, text_cols=(1,), n_classes=4, delimiter=",",
            label_base=0)

    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_dataset_seed_with_csv_is_config_error(self, tmp_path, capsys,
                                                   monkeypatch, how):
        """A csv is read, not generated, so nothing would read the seed."""
        TestCliFlagsFromConfigs._clear_env(monkeypatch)
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text('0,"aaa"\n1,"bbb"\n')
        argv = ["train", *SMALL_CLI_ARGS, "--dataset", str(csv_path),
                "--eval-dataset", str(csv_path), "--n-classes", "2"]
        if how == "flag":
            argv += ["--dataset-seed", "7"]
        else:
            monkeypatch.setenv("SELFDISTILL_DATASET_SEED", "7")
        out = tmp_path / "run"
        assert cli_main([*argv, "--out", str(out)]) == 1
        assert "--dataset-seed" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_without_dataset_seed_reports_the_default(self, tmp_path,
                                                          monkeypatch):
        TestCliFlagsFromConfigs._clear_env(monkeypatch)
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("".join(f'{i % 2},"{"ab"[i % 2] * 3} w{i}"\n'
                                    for i in range(16)))
        out = tmp_path / "run"
        assert cli_main(["train", *SMALL_CLI_ARGS, "--dataset", str(csv_path),
                         "--eval-dataset", str(csv_path), "--n-classes", "2",
                         "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["dataset"]["dataset_seed"] == 1234

    def test_synthetic_dataset_seed_defaults_to_the_config_field(
            self, monkeypatch):
        TestCliFlagsFromConfigs._clear_env(monkeypatch)
        parse = cli.build_parser().parse_args
        assert cli._dataset_config(parse(["train"])).dataset_seed == 1234
        assert cli._dataset_config(
            parse(["train", "--dataset-seed", "7"])).dataset_seed == 7

    def test_unknown_spec_key_is_config_error(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"n_classes": 2, "bogus": 1}))
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--dataset", str(spec_file),
                         "--out", str(out)])
        assert code == 1
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec,message", [
        ({"n_classes": "4"}, "'n_classes' must be an integer, got '4'"),
        ({"signal": "0.4"}, "'signal' must be a number, got '0.4'"),
        ({"n_train": 2.5}, "'n_train' must be an integer, got 2.5"),
        ({"n_test": True}, "'n_test' must be an integer, got True"),
        ({"label_noise": None}, "'label_noise' must be a number, got None"),
    ])
    def test_wrongly_typed_spec_value_is_config_error(self, tmp_path, capsys,
                                                      spec, message):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--dataset", str(spec_file),
                         "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_spec_accepts_int_for_float_and_null_test_noise(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "n_classes": 2, "vocab_span": 40, "tokens_per_example": 6,
            "signal": 1, "label_noise": 0, "test_label_noise": None,
            "n_train": 40, "n_test": 20,
        }))
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--dataset", str(spec_file),
                         "--out", str(out)])
        assert code == 0
        spec = json.loads((out / "report.json").read_text())["config"]["dataset"]
        assert spec["synthetic"]["signal"] == 1

    @pytest.mark.parametrize("command,flag,value", [
        ("sweep", "--seeds", "1,x"),
        ("sweep", "--grid", "0,x"),
        ("stability", "--data-seeds", "0,x"),
        ("train", "--teacher-size", "x"),
    ])
    def test_unparseable_flag_token_is_config_error(self, tmp_path, capsys,
                                                    command, flag, value):
        out = tmp_path / "run"
        code = cli_main([command, *SMALL_CLI_ARGS, flag, value,
                         "--out", str(out)])
        assert code == 1
        assert f"{flag}: 'x' is not a valid" in capsys.readouterr().err
        assert not out.exists()

    def test_unparseable_env_value_is_config_error(self, tmp_path, monkeypatch,
                                                   capsys):
        monkeypatch.setenv("SELFDISTILL_EPOCHS", "two")
        assert cli_main(["train", *SMALL_CLI_ARGS, "--out", str(tmp_path)]) == 1
        assert "SELFDISTILL_EPOCHS: 'two'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,env,source", [
        (["train"], {"SELFDISTILL_TEACHER_SIZE": "x"}, "SELFDISTILL_TEACHER_SIZE"),
        (["sweep", "--mode", "sda", "--axis", "k", "--grid", "1,x"], {},
         "--grid"),
    ], ids=["env", "k-grid"])
    def test_unparseable_teacher_size_names_its_source(
            self, tmp_path, monkeypatch, capsys, argv, env, source):
        TestCliFlagsFromConfigs._clear_env(monkeypatch)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "run"
        code = cli_main([argv[0], *SMALL_CLI_ARGS, *argv[1:],
                         "--out", str(out)])
        assert code == 1
        assert f"{source}: 'x' is not a valid int" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name,content", [("spec.json", b"{not json"),
                                              ("spec.json", b'{"n_classes": "\xff"}'),
                                              ("train.csv", b"0,\xff\xfe\n")])
    def test_undecodable_dataset_file_is_exit_1(self, tmp_path, capsys,
                                                name, content):
        data = tmp_path / name
        data.write_bytes(content)
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--dataset", str(data),
                         "--eval-dataset", str(data), "--out", str(out)])
        assert code == 1
        assert str(data) in capsys.readouterr().err
        assert not out.exists()

    def test_value_error_while_training_is_runtime_error(self, tmp_path,
                                                         monkeypatch, capsys):
        import selfdistill.harness

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(selfdistill.harness, "fine_tune", broken)
        code = cli_main(["train", *SMALL_CLI_ARGS, "--out", str(tmp_path)])
        assert code == 2
        assert "could not be broadcast" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b'{"final_student": {', b"\xff\xfe",
        b'{"epoch_curve": [{}]}',
        b'{"strategies": [{"strategy": "x"}]}',
        b'{"axis": "k", "seeds": [0], "grid": [1], "cells": {}}',
        b'{"epoch_curve": [], "final_student": {"test_error": "x"}}',
        b'[{"epoch_curve": []}]',
    ])
    def test_report_on_a_corrupt_report_is_exit_1(self, tmp_path, capsys,
                                                  content):
        good = tmp_path / "run"
        assert cli_main(["train", *SMALL_CLI_ARGS, "--out", str(good)]) == 0
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "report.json").write_bytes(content)
        capsys.readouterr()
        assert cli_main(["report", str(bad)]) == 1
        assert str(bad / "report.json") in capsys.readouterr().err
        assert cli_main(["report", str(good), "--baseline", str(bad)]) == 1
        assert str(bad / "report.json") in capsys.readouterr().err

    @pytest.mark.parametrize("content,key", [
        ('{"epoch_curve": [{}]}', "'epoch'"),
        ('{"strategies": [{"strategy": "x"}]}', "'summary'"),
        ('{"axis": "k", "seeds": [0], "grid": [1], "cells": {}}', "'1'"),
    ])
    def test_report_names_the_missing_key(self, tmp_path, capsys, content,
                                          key):
        path = tmp_path / "report.json"
        path.write_text(content)
        assert cli_main(["report", str(path)]) == 1
        assert (capsys.readouterr().err
                == f"error: {path}: missing key {key}\n")

    def test_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli_main(["train", *SMALL_CLI_ARGS, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "final student" in text

    def test_csv_dataset_via_cli(self, tmp_path):
        train_csv = tmp_path / "train.csv"
        test_csv = tmp_path / "test.csv"
        rng = np.random.default_rng(0)
        for path, n in ((train_csv, 120), (test_csv, 40)):
            rows = []
            for _ in range(n):
                label = int(rng.integers(2))
                word = "aaa" if label == 0 else "bbb"
                rows.append(f'{label},"{word} {word} filler{int(rng.integers(20))}"')
            path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "csvrun"
        code = cli_main(["train", "--dataset", str(train_csv),
                         "--eval-dataset", str(test_csv),
                         "--n-classes", "2", "--label-col", "0",
                         "--text-cols", "1", "--epochs", "2",
                         "--micro-batch", "8", "--accum-steps", "1",
                         "--vocab-size", "100", "--max-len", "8",
                         "--dim", "16", "--n-layers", "1", "--n-heads", "2",
                         "--ffn-dim", "32", "--lr-encoder", "3e-3",
                         "--lr-head", "0.15", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["final_student"]["test_error"] < 0.2

    def test_sweep_subcommand(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli_main(["sweep", *SMALL_CLI_ARGS, "--mode", "sda",
                         "--teacher-size", "2", "--axis", "lambda",
                         "--grid", "0,1.0", "--seeds", "0",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert set(doc["cells"]) == {"0.0", "1.0"}
        assert "lambda" in capsys.readouterr().out

    def test_ensemble_subcommand(self, tmp_path, capsys):
        out = tmp_path / "ens"
        code = cli_main(["ensemble", *SMALL_CLI_ARGS,
                         "--seeds", "0,1", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "ensemble.json").read_text())
        assert "voted" in doc and "averaged" in doc
        assert len(doc["members"]) == 2

    def test_ensemble_has_no_member_count_flag(self, tmp_path, capsys):
        out = tmp_path / "ens"
        code = cli_main(["ensemble", *SMALL_CLI_ARGS, "--n-models", "2",
                         "--seeds", "0,1", "--out", str(out)])
        assert code == 1
        assert "--n-models" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_in_baseline_mode_exits_1(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli_main(["sweep", *SMALL_CLI_ARGS, "--axis", "lambda",
                         "--grid", "0,1.0", "--out", str(out)])
        assert code == 1
        assert "baseline" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--lr-encoder", "-0.001"), ("--lr-head", "nan"),
        ("--weight-decay", "-5"), ("--warmup-prop", "0"),
    ])
    def test_bad_optimizer_setting_exits_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, flag, value,
                         "--out", str(out)])
        assert code == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_exits_1_before_any_work(self, tmp_path, capsys,
                                                        monkeypatch, value):
        import selfdistill.harness as harness

        def no_work(*args, **kwargs):
            raise AssertionError("train started work on a non-finite lambda")

        monkeypatch.setattr(harness, "build_task", no_work)
        monkeypatch.setattr(harness, "fine_tune", no_work)
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--mode", "sda",
                         f"--lambda={value}", "--out", str(out)])
        assert code == 1
        assert "distillation weight must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--label-col", "-5"], "column indices must be >= 0"),
        (["--label-col", "-1"], "column indices must be >= 0"),
        (["--text-cols", "0,-1"], "column indices must be >= 0"),
        (["--text-cols", "0,1"], "label column 0 is also a text column"),
        (["--text-cols", "1,1"], "text columns (1, 1) repeat a column"),
        (["--delimiter", ""], "delimiter must be exactly one character"),
        (["--delimiter", "ab"], "delimiter must be exactly one character"),
    ])
    def test_bad_csv_columns_exit_1_before_any_work(self, tmp_path, capsys,
                                                     monkeypatch, flags,
                                                     message):
        import selfdistill.harness as harness

        def no_work(*args, **kwargs):
            raise AssertionError("train started work on a bad csv schema")

        monkeypatch.setattr(harness, "build_task", no_work)
        monkeypatch.setattr(harness, "fine_tune", no_work)
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text('0,"aaa"\n1,"bbb"\n')
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--dataset", str(csv_path),
                         "--eval-dataset", str(csv_path), "--n-classes", "2",
                         *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags,what", [
        (["--grid", "0.5,0.5"], "grid repeats"),
        (["--grid", "0.5", "--seeds", "0,0"], "seeds repeat"),
        (["--axis", "k", "--grid", "2,all,2"], "grid repeats"),
    ])
    def test_sweep_repeated_value_exits_1_before_any_work(
            self, tmp_path, capsys, monkeypatch, flags, what):
        import selfdistill.harness as harness

        def no_work(*args, **kwargs):
            raise AssertionError("sweep started work on a repeated value")

        monkeypatch.setattr(harness, "build_task", no_work)
        monkeypatch.setattr(harness, "fine_tune", no_work)
        out = tmp_path / "sweep"
        code = cli_main(["sweep", *SMALL_CLI_ARGS, "--mode", "sda", *flags,
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: sweep {what} a value")
        assert "Traceback" not in err
        assert not out.exists()

    def test_stability_subcommand(self, tmp_path, capsys):
        out = tmp_path / "stab"
        code = cli_main(["stability", *SMALL_CLI_ARGS,
                         "--data-seeds", "0,1", "--init-seed", "0",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "stability.json").read_text())
        names = [s["strategy"] for s in doc["strategies"]]
        assert names == ["baseline", "sda_k1", "sda_k5", "sdv_k5"]

    def test_synthetic_spec_file(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "n_classes": 2, "vocab_span": 40, "tokens_per_example": 6,
            "signal": 0.9, "label_noise": 0.0, "n_train": 80, "n_test": 40,
        }))
        out = tmp_path / "specrun"
        code = cli_main(["train", "--dataset", str(spec_file), "--epochs", "1",
                         "--micro-batch", "8", "--accum-steps", "1",
                         "--vocab-size", "100", "--max-len", "10",
                         "--dim", "16", "--n-layers", "1", "--n-heads", "2",
                         "--ffn-dim", "32", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["dataset"]["synthetic"]["n_train"] == 80


class TestCliFlagsFromConfigs:
    """The train flags are built from the config dataclasses."""

    TRAIN_OPTIONS = {
        "-h", "--help", "--mode", "--lambda", "--teacher-size",
        "--snapshot-every", "--seed", "--data-seed", "--dataset",
        "--eval-dataset", "--dev-dataset", "--dataset-seed", "--label-col",
        "--text-cols", "--n-classes", "--delimiter", "--label-base",
        "--epochs", "--micro-batch", "--accum-steps", "--lr-encoder",
        "--lr-head", "--warmup-prop", "--weight-decay", "--dropout",
        "--vocab-size", "--max-len", "--dim", "--n-layers", "--n-heads",
        "--ffn-dim", "--select-by", "--out", "--save-checkpoints",
    }

    @staticmethod
    def _clear_env(monkeypatch):
        for name in list(os.environ):
            if name.startswith("SELFDISTILL_"):
                monkeypatch.delenv(name)

    def test_defaults_equal_the_dataclass_defaults(self, monkeypatch):
        self._clear_env(monkeypatch)
        args = cli.build_parser().parse_args(["train"])
        assert cli._experiment_config(args) == ExperimentConfig()

    def test_train_option_strings(self, monkeypatch):
        self._clear_env(monkeypatch)
        parser = cli.build_parser()
        train = parser._subparsers._group_actions[0].choices["train"]
        assert len(self.TRAIN_OPTIONS) == 34
        assert set(train._option_string_actions) == self.TRAIN_OPTIONS


class TestStudyCli:
    """sweep, ensemble and stability take only the flags they read and fail
    before any work on a config no study can run."""

    CONFIG_OPTIONS = TestCliFlagsFromConfigs.TRAIN_OPTIONS - {
        "--seed", "--data-seed", "--save-checkpoints"}
    STUDY_OPTIONS = {
        "sweep": CONFIG_OPTIONS | {"--axis", "--grid", "--seeds"},
        "ensemble": CONFIG_OPTIONS | {"--seeds"},
        "stability": (CONFIG_OPTIONS - {"--mode", "--teacher-size",
                                        "--snapshot-every"})
        | {"--data-seeds", "--init-seed"},
    }

    @staticmethod
    def _no_fine_tune(monkeypatch):
        import selfdistill.harness as harness

        def no_work(*args, **kwargs):
            raise AssertionError("a study called fine_tune")

        monkeypatch.setattr(harness, "fine_tune", no_work)

    @pytest.mark.parametrize("command,count", [
        ("sweep", 32), ("ensemble", 30), ("stability", 28)])
    def test_study_option_strings(self, monkeypatch, command, count):
        TestCliFlagsFromConfigs._clear_env(monkeypatch)
        parser = cli.build_parser()
        study = parser._subparsers._group_actions[0].choices[command]
        options = self.STUDY_OPTIONS[command]
        assert len(options - {"-h", "--help"}) == count
        assert set(study._option_string_actions) == options

    @pytest.mark.parametrize("command", ["sweep", "ensemble", "stability"])
    def test_defaults_equal_the_dataclass_defaults(self, monkeypatch, command):
        TestCliFlagsFromConfigs._clear_env(monkeypatch)
        args = cli.build_parser().parse_args([command])
        assert cli._experiment_config(args) == ExperimentConfig()

    def test_train_seed_defaults(self, monkeypatch):
        TestCliFlagsFromConfigs._clear_env(monkeypatch)
        args = cli.build_parser().parse_args(["train"])
        assert args.seed == ExperimentConfig.seed
        assert args.data_seed == ExperimentConfig.data_seed

    @pytest.mark.parametrize("command,flags", [
        ("sweep", ["--seed", "3"]),
        ("sweep", ["--data-seed", "3"]),
        ("sweep", ["--save-checkpoints"]),
        ("ensemble", ["--seed", "3"]),
        ("ensemble", ["--data-seed", "1"]),
        ("ensemble", ["--save-checkpoints"]),
        ("stability", ["--seed", "3"]),
        ("stability", ["--data-seed", "1"]),
        ("stability", ["--save-checkpoints"]),
        ("stability", ["--mode", "sda"]),
        ("stability", ["--teacher-size", "3"]),
        ("stability", ["--snapshot-every", "7"]),
    ])
    def test_flag_a_study_does_not_read_exits_1(self, tmp_path, capsys,
                                                monkeypatch, command, flags):
        self._no_fine_tune(monkeypatch)
        out = tmp_path / "study"
        code = cli_main([command, *SMALL_CLI_ARGS, *flags, "--out", str(out)])
        assert code == 1
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,env", [
        ("stability", {"SELFDISTILL_SEED": "5", "SELFDISTILL_MODE": "sdv"}),
        ("stability", {"SELFDISTILL_TEACHER_SIZE": "x"}),
        ("report", {"SELFDISTILL_TYPO": "1"}),
    ], ids=["stability-seed-mode", "stability-teacher-size", "report-typo"])
    def test_variable_for_no_flag_of_the_subcommand_exits_1(
            self, tmp_path, capsys, monkeypatch, command, env):
        TestCliFlagsFromConfigs._clear_env(monkeypatch)
        self._no_fine_tune(monkeypatch)
        monkeypatch.setattr(cli, "render_summary", lambda *a, **k: "")
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "out"
        argv = ([command, str(out)] if command == "report"
                else [command, *SMALL_CLI_ARGS, "--out", str(out)])
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert f"{min(env)} names no flag of 'selfdistill {command}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("train", "--seed", "-1"),
        ("train", "--data-seed", "-1"),
        ("train", "--dataset-seed", "-1"),
        ("sweep", "--seeds", "0,-1"),
        ("ensemble", "--seeds", "0,-1"),
        ("stability", "--data-seeds", "0,-1"),
        ("stability", "--init-seed", "-1"),
    ], ids=["seed", "data-seed", "dataset-seed", "sweep-seeds",
            "ensemble-seeds", "data-seeds", "init-seed"])
    @pytest.mark.parametrize("source", ["flag", "variable"])
    def test_negative_seed_exits_1_naming_its_source(
            self, tmp_path, capsys, monkeypatch, command, flag, value, source):
        """numpy seeds no generator with a negative seed; the CLI says so
        before any run, where a sweep used to finish seed 0 first."""
        import selfdistill.harness as harness

        TestCliFlagsFromConfigs._clear_env(monkeypatch)
        self._no_fine_tune(monkeypatch)
        monkeypatch.setattr(harness, "build_task", harness.fine_tune)
        given = [flag, value]
        name = flag
        if source == "variable":
            name = cli._env_name(flag[2:])
            monkeypatch.setenv(name, value)
            given = []
        mode = ["--mode", "sda"] if command == "sweep" else []
        out = tmp_path / "out"
        code = cli_main([command, *SMALL_CLI_ARGS, *mode, *given,
                         "--out", str(out)])
        assert code == 1
        assert (f"error: {name}: a seed must be >= 0, got -1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_variables_default_only_the_running_subcommand(self, monkeypatch):
        TestCliFlagsFromConfigs._clear_env(monkeypatch)
        monkeypatch.setenv("SELFDISTILL_INIT_SEED", "3")
        parser = cli.build_parser()
        assert parser.parse_args(["stability"]).init_seed == 3
        assert parser.parse_args(["stability", "--init-seed", "4"]).init_seed == 4
        with pytest.raises(ConfigError, match="SELFDISTILL_INIT_SEED"):
            parser.parse_args(["train"])

    def test_flags_match_by_full_name_only(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli_main(["train", *SMALL_CLI_ARGS, "--lambd", "0.5",
                         "--out", str(out)])
        assert code == 1
        assert "--lambd" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("call", [
        lambda config: sweep(config, "lambda", [1.0], [0]),
        lambda config: ensemble_experiment(config, [0, 1]),
        lambda config: stability_study(config, [0, 1], 0),
    ], ids=["sweep", "ensemble", "stability"])
    def test_zero_epochs_is_config_error_before_any_work(self, monkeypatch,
                                                         call):
        import selfdistill.harness as harness

        def no_work(*args, **kwargs):
            raise AssertionError("a study started work with zero epochs")

        monkeypatch.setattr(harness, "build_task", no_work)
        monkeypatch.setattr(harness, "fine_tune", no_work)
        config = fast_config(distill=DistillConfig(mode="sda", teacher_size=2),
                             train=dataclasses.replace(FAST_TRAIN, epochs=0))
        with pytest.raises(ConfigError, match="epochs"):
            call(config)

    @pytest.mark.parametrize("command,flags", [
        ("sweep", ["--mode", "sda", "--grid", "1.0"]),
        ("ensemble", ["--seeds", "0,1"]),
        ("stability", ["--data-seeds", "0,1"]),
    ])
    def test_zero_epochs_exits_1(self, tmp_path, capsys, monkeypatch,
                                 command, flags):
        self._no_fine_tune(monkeypatch)
        out = tmp_path / "study"
        code = cli_main([command, *SMALL_CLI_ARGS, *flags, "--epochs", "0",
                         "--out", str(out)])
        assert code == 1
        assert "epochs" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_best_dev_without_dev_split_is_config_error(self):
        config = fast_config(distill=DistillConfig(mode="sda", teacher_size=2),
                             train=dataclasses.replace(FAST_TRAIN,
                                                       select_by="best_dev"))
        with pytest.raises(ConfigError, match="dev split"):
            sweep(config, "lambda", [0.0, 1.0], [0, 1])

    def test_sweep_best_dev_without_dev_split_exits_1(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli_main(["sweep", *SMALL_CLI_ARGS, "--mode", "sda",
                         "--select-by", "best_dev", "--grid", "0,1.0",
                         "--out", str(out)])
        assert code == 1
        assert "dev split" in capsys.readouterr().err
        assert not out.exists()
