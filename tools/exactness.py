"""Show that this tree writes the same files as another git revision.

    python tools/exactness.py --against REV [--expect-diff NAME ...]

REV is extracted with ``git archive REV | tar -x`` into a temporary
directory, which reads ``.git`` only and leaves no worktree behind. A fixed
matrix of ``selfdistill`` runs then executes once in REV's tree and once in
this one (uncommitted edits included). Each run is a fresh interpreter with
that tree's ``src`` first on ``PYTHONPATH`` and every ``SELFDISTILL_*``
variable removed; both trees read the same input files and write under the
same relative paths.

One line per output file is printed with its sha256 (both hashes when they
differ). The exit status is 1 if any file differs or exists on one side
only, unless ``--expect-diff`` names it (a path as printed, e.g.
``train_sda_k5/report.json``); it is 2 if a run or git fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# 250 examples; small enough for the whole matrix to take seconds per tree.
# The test split is two eval batches of 64 and 36, so a run with a step
# worker scores it in two processes.
SPEC = {"n_classes": 4, "vocab_span": 120, "tokens_per_example": 10,
        "signal": 0.8, "label_noise": 0.1, "n_train": 150, "n_test": 100}
# A sweep's outputs are test accuracies only, so its task must train well
# above chance (about 0.7 on 4 classes) for a change of numerics to show.
SWEEP_SPEC = {"n_classes": 4, "vocab_span": 60, "tokens_per_example": 10,
              "signal": 0.9, "label_noise": 0.0, "n_train": 240,
              "n_test": 100}
SHAPE = ["--vocab-size", "200", "--max-len", "16", "--dim", "16",
         "--n-layers", "2", "--n-heads", "2", "--ffn-dim", "32"]
MODEL = [*SHAPE, "--epochs", "2", "--dropout", "0.1"]
TRAIN = ["train", "--dataset", "{spec}", *MODEL, "--save-checkpoints"]
# with no dropout and a snapshot every step, the sdv teacher takes the
# student's logits as the newest snapshot's instead of computing them
TRAIN_NODROP = ["train", "--dataset", "{spec}", *SHAPE, "--epochs", "2",
                "--dropout", "0", "--save-checkpoints"]
SWEEP = ["sweep", "--dataset", "{sweep_spec}", *SHAPE, "--epochs", "3",
         "--dropout", "0.1", "--lr-encoder", "3e-3", "--lr-head", "0.15"]
# each run takes seconds; one that outlives this, say because a child
# process keeps the interpreter from exiting, fails naming the run
RUN_TIMEOUT_S = 300

# (output directory, argv); the names in braces are write_inputs' files
MATRIX = [
    ("train_baseline", TRAIN),
    ("train_sda_k5", [*TRAIN, "--mode", "sda", "--teacher-size", "5"]),
    ("train_sda_all", [*TRAIN, "--mode", "sda", "--teacher-size", "all"]),
    ("train_sdv_k5", [*TRAIN, "--mode", "sdv", "--teacher-size", "5"]),
    ("train_sdv_k3_accum3", [*TRAIN, "--mode", "sdv", "--teacher-size", "3",
                             "--accum-steps", "3"]),
    ("train_sda_k4_every2", [*TRAIN, "--mode", "sda", "--teacher-size", "4",
                             "--snapshot-every", "2"]),
    # the running mean with steps that absorb no snapshot, and steps of
    # three micro-batches, one of them in the step worker
    ("train_sda_all_every2_accum3", [*TRAIN, "--mode", "sda",
                                     "--teacher-size", "all",
                                     "--snapshot-every", "2",
                                     "--accum-steps", "3"]),
    # sdv runs with steps that absorb no snapshot
    ("train_sdv_k4_every2", [*TRAIN, "--mode", "sdv", "--teacher-size", "4",
                             "--snapshot-every", "2"]),
    ("train_sdv_k5_nodrop", [*TRAIN_NODROP, "--mode", "sdv",
                             "--teacher-size", "5"]),
    ("train_sdv_k4_every2_nodrop", [*TRAIN_NODROP, "--mode", "sdv",
                                    "--teacher-size", "4",
                                    "--snapshot-every", "2"]),
    ("train_sda_k5_nodrop", [*TRAIN_NODROP, "--mode", "sda",
                             "--teacher-size", "5"]),
    ("train_csv", ["train", "--dataset", "{train_csv}",
                   "--eval-dataset", "{test_csv}", *MODEL]),
    # the dev split is three eval batches (64, 64, 22) and the test split
    # one, so the dev evaluation carries the last step's sda snapshot
    ("train_csv_best_dev", ["train", "--dataset", "{train_csv}",
                            "--eval-dataset", "{test_csv}",
                            "--dev-dataset", "{dev_csv}", *MODEL,
                            "--mode", "sda", "--teacher-size", "3",
                            "--select-by", "best_dev"]),
    # sdv K=3 with accumulation 3 on ragged rows: each step trains two
    # micro-batches in the training process and one in the step worker,
    # and the teacher's forwards see padded keys
    ("train_csv_sdv_k3_accum3", ["train", "--dataset", "{train_csv}",
                                 "--eval-dataset", "{test_csv}", *MODEL,
                                 "--mode", "sdv", "--teacher-size", "3",
                                 "--accum-steps", "3"]),
    ("sweep_k", [*SWEEP, "--mode", "sda", "--axis", "k", "--grid", "1,all",
                 "--seeds", "0,1"]),
    ("sweep_lambda", [*SWEEP, "--mode", "sdv", "--axis", "lambda",
                      "--grid", "0,1.5"]),
    ("ensemble_sda_k3", ["ensemble", "--dataset", "{spec}", *MODEL,
                         "--mode", "sda", "--teacher-size", "3",
                         "--seeds", "0,1,2"]),
    ("stability", ["stability", "--dataset", "{spec}", *MODEL,
                   "--lambda", "0.5"]),
    # ragged csv rows in a study: giving every row row 0's mask bias
    # changes this run's ensemble.json, but leaves csv-fed stability and
    # sweep outputs (test accuracies only) byte-identical, so no other
    # study here sees padded keys
    ("ensemble_csv", ["ensemble", "--dataset", "{train_csv}",
                      "--eval-dataset", "{test_csv}", *MODEL, "--mode", "sda",
                      "--teacher-size", "3", "--seeds", "0,1"]),
]


def write_inputs(directory: Path) -> dict[str, str]:
    """The two synthetic specs and 4-class train, test and dev csv files
    (no schema flags needed). A csv row holds 1-12 words, so with CLS and
    SEP it fits ``--max-len 16`` and the rows of one batch pad, and hide,
    different keys."""
    rng = random.Random(0)
    inputs = {"spec": directory / "spec.json",
              "sweep_spec": directory / "sweep_spec.json",
              "train_csv": directory / "train.csv",
              "test_csv": directory / "test.csv",
              "dev_csv": directory / "dev.csv"}
    inputs["spec"].write_text(json.dumps(SPEC, sort_keys=True))
    inputs["sweep_spec"].write_text(json.dumps(SWEEP_SPEC, sort_keys=True))
    for key, n in (("train_csv", 120), ("test_csv", 40), ("dev_csv", 150)):
        rows = []
        for _ in range(n):
            label = rng.randrange(4)
            words = [f"c{label}w{rng.randrange(6)}" if rng.random() < 0.7
                     else f"n{rng.randrange(30)}"
                     for _ in range(rng.randint(1, 12))]
            rows.append(f'{label},"{" ".join(words)}"\n')
        inputs[key].write_text("".join(rows))
    return {key: str(path) for key, path in inputs.items()}


def extract(rev: str, dest: Path) -> None:
    """``git archive REV | tar -x -C dest``."""
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                          stdout=subprocess.PIPE) as archive:
        untar = subprocess.run(["tar", "-x", "-C", str(dest)],
                               stdin=archive.stdout)
    if archive.returncode != 0 or untar.returncode != 0:
        raise RuntimeError(f"could not extract {rev!r} with git archive")


def run_matrix(tree: Path, workdir: Path, inputs: dict[str, str]) -> Path:
    """Run every matrix entry with ``tree``'s package; outputs go to
    ``workdir/out/<name>``, which is returned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SELFDISTILL_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)
    workdir.mkdir(parents=True)
    for name, argv in MATRIX:
        cmd = [sys.executable, "-m", "selfdistill",
               *(a.format(**inputs) for a in argv), "--out", f"out/{name}"]
        try:
            done = subprocess.run(cmd, cwd=workdir, env=env,
                                  capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{name} did not finish within "
                               f"{RUN_TIMEOUT_S} s in {tree}") from None
        if done.returncode != 0:
            raise RuntimeError(f"{name} exited {done.returncode} in {tree}:\n"
                               f"{done.stderr}")
    return workdir / "out"


def sha256_files(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by its relative path."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def compare(base: Path, change: Path, expect_diff=()) -> tuple[list[str], bool]:
    """One line per file in either tree; ok unless an unexpected file differs."""
    a, b = sha256_files(base), sha256_files(change)
    lines, ok = [], True
    for name in sorted(set(a) | set(b)):
        if a.get(name) == b.get(name):
            lines.append(f"identical  {a[name]}  {name}")
            continue
        expected = name in expect_diff
        ok = ok and expected
        status = "expected" if expected else "DIFFERS"
        lines.append(f"{status:<9}  {a.get(name, '-')} -> {b.get(name, '-')}  "
                     f"{name}")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True,
                        help="git revision to compare this tree with")
    parser.add_argument("--expect-diff", action="append", default=[],
                        metavar="NAME", help="an output file allowed to differ")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="exactness-") as tmp:
        tmp = Path(tmp)
        inputs = write_inputs(tmp)
        (tmp / "rev").mkdir()
        try:
            extract(args.against, tmp / "rev")
            outs = []
            for label, tree in ((args.against, tmp / "rev"), ("this tree", ROOT)):
                started = time.perf_counter()
                outs.append(run_matrix(tree, tmp / f"run_{len(outs)}", inputs))
                print(f"# {label}: {len(MATRIX)} runs in "
                      f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines, ok = compare(*outs, expect_diff=set(args.expect_diff))
    print("\n".join(lines))
    print(f"# {'every file identical' if ok else 'FILES DIFFER'} "
          f"against {args.against}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
