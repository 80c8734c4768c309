"""The file comparison of ``tools/exactness.py``, on two hand-made output
trees (the tool's git and run steps are not exercised here)."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def exactness(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import exactness
    return exactness


def make_tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, content in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
    return root


FILES = {"train/report.json": b'{"a": 1}\n',
         "train/checkpoints/epoch_000.ckpt": bytes(range(256))}


def test_identical_trees_pass_with_one_hash_per_file(tmp_path, exactness):
    a = make_tree(tmp_path / "a", FILES)
    b = make_tree(tmp_path / "b", FILES)
    lines, ok = exactness.compare(a, b)
    assert ok
    assert len(lines) == 2
    assert all(line.startswith("identical") and len(line.split()) == 3
               for line in lines)


def test_one_byte_difference_fails_unless_expected(tmp_path, exactness):
    a = make_tree(tmp_path / "a", FILES)
    changed = dict(FILES)
    changed["train/checkpoints/epoch_000.ckpt"] = bytes(range(255)) + b"\x00"
    b = make_tree(tmp_path / "b", changed)
    lines, ok = exactness.compare(a, b)
    assert not ok
    assert [line.split()[0] for line in lines] == ["DIFFERS", "identical"]
    assert lines[0].endswith("train/checkpoints/epoch_000.ckpt")
    _, ok = exactness.compare(
        a, b, expect_diff={"train/checkpoints/epoch_000.ckpt"})
    assert ok
    _, ok = exactness.compare(a, b, expect_diff={"train/report.json"})
    assert not ok


def test_file_on_one_side_only_fails(tmp_path, exactness):
    a = make_tree(tmp_path / "a", FILES)
    b = make_tree(tmp_path / "b", {**FILES, "train/extra.csv": b"x\n"})
    lines, ok = exactness.compare(a, b)
    assert not ok
    assert "- ->" in next(line for line in lines if "extra.csv" in line)


def test_a_run_past_its_timeout_fails_naming_the_run(tmp_path, exactness,
                                                     monkeypatch):
    import subprocess

    def timing_out(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(exactness.subprocess, "run", timing_out)
    inputs = exactness.write_inputs(tmp_path)
    first = exactness.MATRIX[0][0]
    with pytest.raises(RuntimeError, match=f"^{first} did not finish within"):
        exactness.run_matrix(tmp_path, tmp_path / "work", inputs)
