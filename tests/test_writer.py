"""Every command writes through one writer: all of its outputs or none.

A failing command exits 1 with one ``error:`` line and leaves the
directory it writes into as it found it, whichever output failed. A file
written with ``--out F`` holds exactly the bytes the command prints to
stdout, and the AUCCC of a record file does not depend on its line order
or on the scale of its confidences, which the paper's threshold-free
measure promises.
"""

import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uqkit.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def members(d, split):
    return [str(d / f"{split}.member{m}.jsonl") for m in range(4)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small task, a model trained on it and an outcome file, for every writer to read."""
    d = tmp_path_factory.mktemp("inputs")
    assert main(["synth", "udist", "--out-dir", str(d), "--n-train", "20", "--n-test", "20"]) == 0
    assert main(["distill", "--train", str(d / "train.features.jsonl"), "--ensemble-dirs",
                 *members(d, "train"), "--epochs", "2", "--out", str(d / "model.json")]) == 0
    assert main(["synth", "outcomes", "--n-correct", "5", "--n-incorrect", "5",
                 "--out", str(d / "o.jsonl")]) == 0
    return d


# each writing command's arguments, given its inputs and one of its output files
WRITERS = {
    "eval --curve-out": lambda d, out: ["eval", str(d / "o.jsonl"), "--curve-out", out],
    "curve --out": lambda d, out: ["curve", str(d / "o.jsonl"), "--out", out],
    "ensemble --out": lambda d, out: ["ensemble", *members(d, "test"), "--out", out],
    "distill --train --out": lambda d, out: [
        "distill", "--train", str(d / "train.features.jsonl"),
        "--ensemble-dirs", *members(d, "train"), "--epochs", "2", "--out", out],
    "distill --predict --out": lambda d, out: [
        "distill", "--predict", "--model", str(d / "model.json"),
        "--data", str(d / "test.features.jsonl"), "--ensemble-dirs", *members(d, "test"),
        "--out", out],
    "synth outcomes --out": lambda d, out: [
        "synth", "outcomes", "--n-correct", "3", "--n-incorrect", "3", "--out", out],
    # the output file named is the first the command writes, in a directory it already holds
    "synth udist": lambda d, out: [
        "synth", "udist", "--out-dir", os.path.dirname(out), "--n-train", "5", "--n-test", "5"],
}
UDIST_TARGET = "task/train.features.jsonl"


class FailingStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def tree(root: Path) -> dict:
    """Every path under ``root`` with its bytes, its link target, or ``None`` for a directory."""
    return {
        str(p.relative_to(root)): os.readlink(p) if p.is_symlink()
        else None if p.is_dir() else p.read_bytes()
        for p in root.rglob("*")
    }


def prepare(case, command, work: Path, monkeypatch) -> str:
    """Lay out ``work`` for one failure case; return the output file to name."""
    monkeypatch.chdir(work)
    udist = command == "synth udist"
    if udist:  # an existing target, which must keep its bytes
        Path("task").mkdir()
        Path("task/test.member0.jsonl").write_text("kept\n")
    if case == "directory in the way":
        out = UDIST_TARGET if udist else "out"
        Path(out).mkdir()
    elif case == "missing parent directory":
        if udist:  # it makes its own directory, so its first file leads into a missing one
            out = UDIST_TARGET
            Path(out).symlink_to("../nodir/features.jsonl")
        else:
            out = "nodir/out"
    else:  # stdout fails: files named are existing targets that must keep their bytes
        out = "kept.csv" if command == "eval --curve-out" else "-"
        Path("kept.csv").write_text("kept\n")
        monkeypatch.setattr(sys, "stdout", FailingStdout())
    return out


CASES = [
    (case, command)
    for case in ("directory in the way", "missing parent directory", "stdout fails")
    for command in WRITERS
    if not (case == "stdout fails" and command == "synth udist")  # it writes no stdout
]


@pytest.mark.parametrize("case, command", CASES)
def test_a_failed_write_leaves_no_file_and_one_error_line(inputs, tmp_path, monkeypatch, capsys,
                                                          case, command):
    out = prepare(case, command, tmp_path, monkeypatch)
    before = tree(tmp_path)
    code, stdout, err = run(capsys, *WRITERS[command](inputs, out))
    assert code == 1
    assert err == {
        "directory in the way": f"error: cannot write {out}: it exists and is not a regular file\n",
        "missing parent directory": f"error: [Errno 2] No such file or directory: {out!r}\n",
        "stdout fails": "error: [Errno 28] No space left on device\n",
    }[case]
    assert stdout == ""
    assert tree(tmp_path) == before


def test_a_stdout_that_cannot_be_written_is_one_error_line():
    # the read end is closed before the child starts, so its first flush meets a broken pipe;
    # with Python's default buffering the failure would otherwise surface at exit
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "uqkit.cli", "synth", "outcomes", "--n-correct", "1",
             "--n-incorrect", "1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.decode() == "error: [Errno 32] Broken pipe\n"


def test_curve_out_to_stdout_is_an_error_naming_the_flag(inputs, capsys):
    code, out, err = run(capsys, "eval", str(inputs / "o.jsonl"), "--curve-out", "-")
    assert code == 1 and out == ""
    assert err.startswith("error: --curve-out: ") and err.count("\n") == 1


def device(work):
    return os.devnull


def symlink_loop(work):
    (work / "a").symlink_to("b")
    (work / "b").symlink_to("a")
    return str(work / "a")


def link_to_directory(work):
    (work / "d").mkdir()
    (work / "link").symlink_to("d")
    return str(work / "link")


@pytest.mark.parametrize("target", [device, symlink_loop, link_to_directory])
def test_a_target_that_is_not_a_regular_file_is_refused(inputs, tmp_path, capsys, target):
    out = target(tmp_path)
    before = tree(tmp_path)
    code, stdout, err = run(capsys, "curve", str(inputs / "o.jsonl"), "--out", out)
    assert code == 1 and stdout == ""
    assert err == f"error: cannot write {out}: it exists and is not a regular file\n"
    assert tree(tmp_path) == before


def test_a_symlinked_target_is_written_through(inputs, tmp_path, capsys):
    (tmp_path / "real.csv").write_text("old\n")
    (tmp_path / "link.csv").symlink_to("real.csv")
    code, _, _ = run(capsys, "curve", str(inputs / "o.jsonl"), "--out", str(tmp_path / "link.csv"))
    assert code == 0
    _, curve, _ = run(capsys, "curve", str(inputs / "o.jsonl"))
    assert os.readlink(tmp_path / "link.csv") == "real.csv"
    assert (tmp_path / "real.csv").read_text() == curve
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_train_out_dash_writes_the_model_to_stdout(inputs, tmp_path, capsys):
    argv = WRITERS["distill --train --out"](inputs, str(tmp_path / "model.json"))
    assert main(argv) == 0
    written = capsys.readouterr().err
    code, out, err = run(capsys, *argv[:-1], "-")
    assert code == 0
    assert out == (tmp_path / "model.json").read_text()
    assert err == written.replace(str(tmp_path / "model.json"), "-")


@pytest.mark.parametrize("command", ["curve --out", "ensemble --out", "distill --predict --out",
                                     "synth outcomes --out"])
def test_out_file_holds_the_stdout_bytes(inputs, tmp_path, capsys, command):
    target = tmp_path / "out"
    code, out, err = run(capsys, *WRITERS[command](inputs, str(target)))
    assert (code, out, err) == (0, "", "")
    code, out, _ = run(capsys, *WRITERS[command](inputs, "-"))
    assert code == 0 and out.encode() == target.read_bytes()


def outcome_lines(seed=5, n=300):
    """Record lines with many tied confidences and both correctness classes."""
    rng = np.random.default_rng(seed)
    conf = rng.integers(0, 21, n) / 20
    true = (rng.random(n) >= conf).astype(int)  # correct with probability conf
    return [json.dumps({"id": f"r{i}", "pred": 0, "true": int(t), "conf": float(c)})
            for i, (t, c) in enumerate(zip(true, conf))]


def report(capsys, path, lines) -> dict:
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "eval", str(path))
    assert code == 0, err
    return json.loads(out)


RANK_FIELDS = ("auccc", "n_correct", "n_incorrect", "points")


def test_line_order_leaves_the_ranking_fields_unchanged(tmp_path, capsys):
    # cross entropy and Brier sum in file order, so they are left out
    lines = outcome_lines()
    shuffled = [lines[i] for i in np.random.default_rng(1).permutation(len(lines))]
    a, b = report(capsys, tmp_path / "a.jsonl", lines), report(capsys, tmp_path / "b.jsonl",
                                                               shuffled)
    assert [a[k] for k in RANK_FIELDS] == [b[k] for k in RANK_FIELDS]


@pytest.mark.parametrize("transform", [lambda c: c ** 3, lambda c: 0.25 + c / 2,
                                       lambda c: np.sqrt(c)])
def test_a_strictly_increasing_map_of_conf_leaves_auccc_unchanged(tmp_path, capsys, transform):
    lines = outcome_lines()
    mapped = []
    for line in lines:
        row = json.loads(line)
        row["conf"] = float(transform(row["conf"]))
        mapped.append(json.dumps(row))
    a, b = report(capsys, tmp_path / "a.jsonl", lines), report(capsys, tmp_path / "b.jsonl",
                                                               mapped)
    assert (a["auccc"], a["points"]) == (b["auccc"], b["points"])
