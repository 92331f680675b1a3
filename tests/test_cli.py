import json

import numpy as np
import pytest

from uqkit import cli
from uqkit.cli import main
from uqkit.distill import ConfidenceModel
from uqkit.records import RecordFormat, parse_records
from uqkit.taskio import collect_member_paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


FEATURES = [
    {"id": "a", "features": [0.1, 0.2], "true": 0},
    {"id": "b", "features": [0.3, -0.4], "true": 1},
]
MEMBER = [
    {"id": "a", "probs": [0.8, 0.2], "pred": 0, "true": 0},
    {"id": "b", "probs": [0.3, 0.7], "pred": 1, "true": 1},
]


def changed(rows, i, **fields):
    """A copy of ``rows`` whose row ``i`` has ``fields`` replaced (``None`` drops one)."""
    out = [dict(row) for row in rows]
    out[i].update(fields)
    out[i] = {key: value for key, value in out[i].items() if value is not None}
    return out


@pytest.fixture
def mixed_file(tmp_path):
    rows = [
        {"id": "a", "pred": 0, "true": 0, "conf": 0.9, "tag": "id"},
        {"id": "b", "pred": 1, "true": 0, "conf": 0.4, "tag": "id"},
        {"id": "c", "pred": 0, "true": 0, "conf": 0.8, "tag": "id"},
        {"id": "d", "pred": 0, "conf": 0.3, "tag": "ood"},
        {"id": "e", "pred": 1, "conf": 0.7, "tag": "ood"},
    ]
    path = tmp_path / "mixed.jsonl"
    write_jsonl(path, rows)
    return path


class TestEval:
    def test_perfect_separation_reports_auccc_one(self, tmp_path, capsys):
        path = tmp_path / "perfect.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "pred": 0, "true": 0, "conf": 0.9},
                {"id": "b", "pred": 1, "true": 0, "conf": 0.2},
            ],
        )
        code, out, _ = run(capsys, "eval", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["auccc"] == 1.0
        assert payload["n_correct"] == 1
        assert {"cross_entropy", "brier", "points"} <= set(payload)

    def test_all_correct_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "allcorrect.jsonl"
        write_jsonl(path, [{"id": "a", "pred": 0, "true": 0, "conf": 0.9}])
        code, _, err = run(capsys, "eval", str(path))
        assert code == 2
        assert "degenerate" in err
        assert "all outcomes are correct" in err

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        code, _, err = run(capsys, "eval", str(path))
        assert code == 1
        assert "line 1" in err

    @pytest.mark.parametrize(
        "name, content, fragment",
        [
            ("deep.jsonl", "[" * 200_000 + "\n", "line 1: malformed JSON"),
            ("dup.jsonl", '{"id":"a","pred":0,"true":0,"conf":0.5}\n' * 2,
             "line 2: duplicate id 'a'"),
            ("dup.csv", "id,pred,true,conf,tag\n" + "a,0,0,0.5,id\n" * 2,
             "line 3: duplicate id 'a'"),
            ("big.csv", "id,pred,true,conf,tag\na,0,0,0.5," + "x" * 200_000 + "\n",
             "line 2: malformed CSV"),
            ("label.jsonl", '{"id":"a","probs":[0.6,0.4],"true":2,"conf":0.5}\n',
             "true label 2 out of range for 2 classes"),
            ("fraction.jsonl", '{"id":"a","pred":1,"true":1.7,"conf":0.9}\n'
             '{"id":"b","pred":0,"true":0.2,"conf":0.4}\n', "line 1: label 1.7 is not an integer"),
            ("object-id.jsonl", '{"id":{"k":1},"pred":0,"true":0,"conf":0.5}\n',
             "line 1: id must be a string or a number, not an object"),
            ("boolean-conf.jsonl", '{"id":"a","pred":0,"true":0,"conf":true}\n',
             "line 1: boolean where a number is expected"),
            ("huge-label.jsonl", '{"id":"a","pred":100000000000000000000,"true":0,"conf":0.5}\n',
             "line 1: record 'a': label 100000000000000000000 does not fit in 64 bits"),
            ("negative-pred.jsonl", '{"id":"a","pred":-5,"true":0,"conf":0.9}\n'
             '{"id":"b","pred":0,"true":0,"conf":0.5}\n',
             "line 1: record 'a': pred -5 out of range"),
        ],
        ids=["deep-nesting", "duplicate-id", "duplicate-id-csv", "oversized-cell", "label",
             "fractional-label", "object-id", "boolean-confidence", "huge-label", "negative-pred"],
    )
    def test_hostile_input_exits_one(self, tmp_path, capsys, name, content, fragment):
        path = tmp_path / name
        path.write_text(content)
        curve_path = tmp_path / "curve.csv"
        code, out, err = run(capsys, "eval", str(path), "--curve-out", str(curve_path))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and fragment in err
        assert not curve_path.exists()

    def test_input_format_overrides_the_file_name(self, tmp_path, capsys):
        text = "id,pred,true,conf,tag\na,0,0,0.9,id\nb,1,0,0.4,id\nc,0,0,0.8,id\n"
        (tmp_path / "x.csv").write_text(text)
        (tmp_path / "x.txt").write_text(text)
        code, want, err = run(capsys, "eval", str(tmp_path / "x.csv"))
        assert code == 0, err
        assert run(capsys, "eval", str(tmp_path / "x.txt"), "--input-format", "csv") == (0, want, "")
        code, _, err = run(capsys, "eval", str(tmp_path / "x.txt"))  # read as JSON Lines
        assert code == 1 and err.startswith("error: line 1: malformed JSON")

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "eval", "/nonexistent/path.jsonl")
        assert code == 1

    def test_standard_mode_drops_ood_records(self, mixed_file, capsys):
        code, out, _ = run(capsys, "eval", str(mixed_file), "--mode", "standard")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_correct"] + payload["n_incorrect"] == 3

    def test_ood_unified_mode_counts_ood_as_incorrect(self, mixed_file, capsys):
        code, out, _ = run(capsys, "eval", str(mixed_file), "--mode", "ood-unified")
        payload = json.loads(out)
        assert payload["n_correct"] == 2  # a, c
        assert payload["n_incorrect"] == 3  # b plus both ood records

    def test_io_auroc_mode_ignores_labels(self, mixed_file, capsys):
        code, out, _ = run(capsys, "eval", str(mixed_file), "--mode", "io-auroc")
        payload = json.loads(out)
        assert payload["n_correct"] == 3  # the id records, misclassified or not
        assert payload["n_incorrect"] == 2

    @pytest.mark.parametrize("command", ["eval", "curve"])
    @pytest.mark.parametrize("tag, kind", [
        ("id", "out-of-distribution ('ood')"), ("ood", "in-distribution")])
    def test_io_auroc_mode_names_the_kind_of_record_missing(self, tmp_path, capsys, command,
                                                           tag, kind):
        path = tmp_path / "one_kind.jsonl"
        write_jsonl(path, [{"id": "a", "pred": 0, "true": 0, "conf": 0.9, "tag": tag},
                           {"id": "b", "pred": 1, "true": 0, "conf": 0.2, "tag": tag}])
        assert run(capsys, command, str(path), "--mode", "io-auroc") == (
            2, "", f"error: degenerate outcomes: io-auroc mode: no {kind} record in input\n")
        # a missing confidence is reported first, with exit 1
        assert run(capsys, command, str(path), "--mode", "io-auroc",
                   "--confidence-source", "max-softmax") == (
            1, "", "error: record 'a': no probability vector\n")

    def test_multilabel_mode(self, tmp_path, capsys):
        path = tmp_path / "ml.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "probs": [0.9, 0.2], "truths": [1, 0]},
                {"id": "b", "probs": [0.4, 0.8], "truths": [1, 1]},
            ],
        )
        code, out, _ = run(capsys, "eval", str(path), "--mode", "multi-label")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_correct"] + payload["n_incorrect"] == 4

    # a string id keeps the file on the column reader; a numeric id sends it
    # through the per-record reader
    @pytest.mark.parametrize("first_id", ["a", 7])
    def test_multilabel_mode_drops_ood_records(self, tmp_path, capsys, first_id):
        rows = [
            {"id": first_id, "probs": [0.9, 0.2], "truths": [1, 0]},
            {"id": "b", "probs": [0.4, 0.8], "truths": [1, 1]},
            {"id": "c", "probs": [0.1, 0.7], "truths": [1, 0], "tag": "ood"},
        ]
        path = tmp_path / "ml.jsonl"
        write_jsonl(path, rows[:2])
        _, without_ood, _ = run(capsys, "eval", str(path), "--mode", "multi-label")
        write_jsonl(path, rows)
        code, out, _ = run(capsys, "eval", str(path), "--mode", "multi-label")
        assert code == 0
        assert out == without_ood
        assert json.loads(out)["n_correct"] + json.loads(out)["n_incorrect"] == 4

    @pytest.mark.parametrize("row_id", ["a", 7])
    def test_multilabel_mode_without_in_distribution_records(self, tmp_path, capsys, row_id):
        path = tmp_path / "ml.jsonl"
        write_jsonl(path, [{"id": row_id, "probs": [0.9, 0.2], "truths": [1, 0], "tag": "ood"}])
        code, out, err = run(capsys, "eval", str(path), "--mode", "multi-label")
        assert (code, out) == (1, "")
        assert err == "error: no in-distribution records in input\n"

    def test_curve_out_writes_csv(self, mixed_file, tmp_path, capsys):
        curve_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "eval", str(mixed_file), "--mode", "ood-unified",
            "--curve-out", str(curve_path),
        )
        assert code == 0
        assert curve_path.read_text().startswith("threshold,one_minus_crejr,caccr")

    def test_csv_input(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text("id,pred,true,conf,tag\na,0,0,0.9,id\nb,1,0,0.2,id\n")
        code, out, _ = run(capsys, "eval", str(path))
        assert code == 0
        assert json.loads(out)["auccc"] == 1.0


class TestCurve:
    def test_stdout_and_file_agree(self, mixed_file, tmp_path, capsys):
        code, out, _ = run(capsys, "curve", str(mixed_file), "--mode", "ood-unified")
        assert code == 0
        out_file = tmp_path / "c.csv"
        code2, _, _ = run(capsys, "curve", str(mixed_file), "--mode", "ood-unified",
                          "--out", str(out_file))
        assert code2 == 0
        assert out_file.read_text() == out

    def test_csv_blank_rows_alone_after_the_last_chunk(self, tmp_path, capsys):
        header_only = tmp_path / "header.csv"
        header_only.write_text("id,pred,true,conf,tag\n\n")
        assert run(capsys, "curve", str(header_only)) == (
            1, "", "error: no in-distribution records in input\n")
        rows = "".join(f"r{i},{i % 2},0,{i % 97 / 97},id\n" for i in range(2048))
        full_chunk = tmp_path / "full.csv"
        full_chunk.write_text("id,pred,true,conf,tag\n" + rows)
        code, want, _ = run(capsys, "curve", str(full_chunk))
        assert code == 0
        full_chunk.write_text("id,pred,true,conf,tag\n" + rows + "\n")
        assert run(capsys, "curve", str(full_chunk)) == (0, want, "")


class TestEnsemble:
    @pytest.fixture
    def member_files(self, tmp_path):
        m0 = tmp_path / "m0.jsonl"
        m1 = tmp_path / "m1.jsonl"
        write_jsonl(
            m0,
            [
                {"id": "a", "probs": [0.8, 0.2], "pred": 0, "true": 0},
                {"id": "b", "probs": [0.3, 0.7], "pred": 1, "true": 1},
            ],
        )
        write_jsonl(
            m1,
            [
                {"id": "a", "probs": [0.6, 0.4], "pred": 0, "true": 0},
                {"id": "b", "probs": [0.5, 0.5], "pred": 0, "true": 1},
            ],
        )
        return m0, m1

    def test_unit_temperature_returns_plain_mean(self, member_files, capsys):
        m0, m1 = member_files
        code, out, _ = run(capsys, "ensemble", str(m0), str(m1), "--temperature", "1")
        assert code == 0
        records = parse_records(out, RecordFormat.JSON_LINES)
        assert abs(records[0].probs[0] - 0.7) <= 1e-12
        assert abs(records[1].probs[0] - 0.4) <= 1e-12

    def test_merged_records_have_consistent_fields(self, member_files, capsys):
        m0, m1 = member_files
        code, out, _ = run(capsys, "ensemble", str(m0), str(m1), "--temperature", "3")
        records = parse_records(out, RecordFormat.JSON_LINES)
        for rec in records:
            assert rec.confidence == max(rec.probs)
            assert rec.pred_label == int(np.argmax(rec.probs))

    def test_directory_input_matches_file_inputs(self, member_files, tmp_path, capsys):
        m0, m1 = member_files
        outs = tmp_path / "out"
        outs.mkdir()
        for name, inputs in (("files", [str(m0), str(m1)]), ("dir", [str(m0.parent)])):
            code, _, err = run(capsys, "ensemble", *inputs, "--out", str(outs / name))
            assert code == 0, err
        assert (outs / "dir").read_bytes() == (outs / "files").read_bytes()

    def test_misaligned_ids_rejected(self, tmp_path, capsys):
        m0 = tmp_path / "m0.jsonl"
        m1 = tmp_path / "m1.jsonl"
        write_jsonl(m0, [{"id": "a", "probs": [0.8, 0.2], "pred": 0, "true": 0}])
        write_jsonl(m1, [{"id": "zz", "probs": [0.8, 0.2], "pred": 0, "true": 0}])
        code, _, err = run(capsys, "ensemble", str(m0), str(m1))
        assert code == 1
        assert "missing instance id" in err

    @pytest.mark.parametrize("member, message", [
        ("empty-dir", "no member record files in directory {path}"),
        ("missing.jsonl", "member path {path} does not exist"),
        ("empty.jsonl", "need at least one non-empty ensemble member"),
    ], ids=["empty-directory", "missing-path", "empty-file"])
    def test_no_member_rows_is_one_error_line(self, tmp_path, capsys, member, message):
        path = tmp_path / member
        if member == "empty-dir":
            path.mkdir()
        elif member == "empty.jsonl":
            path.write_text("")
        out = tmp_path / "merged.jsonl"
        code, stdout, err = run(capsys, "ensemble", str(path), "--out", str(out))
        assert (code, stdout, err) == (1, "", f"error: {message.format(path=path)}\n")
        assert not out.exists()

    def test_no_member_paths_given(self):
        with pytest.raises(FileNotFoundError, match="^no ensemble member files given$"):
            collect_member_paths([])


@pytest.fixture(scope="module")
def task_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("task")
    code = main(
        ["synth", "udist", "--out-dir", str(d), "--n-train", "300", "--n-test", "300",
         "--seed", "7"]
    )
    assert code == 0
    return d


def member_args(task_dir, split):
    return sorted(str(p) for p in task_dir.glob(f"{split}.member*.jsonl"))


class TestSynthCli:
    def test_outcomes_pipeline_random_model_near_half(self, tmp_path, capsys):
        path = tmp_path / "rand.jsonl"
        code, _, _ = run(
            capsys, "synth", "outcomes", "--n-correct", "3000", "--n-incorrect", "3000",
            "--seed", "1", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "eval", str(path))
        assert code == 0
        assert abs(json.loads(out)["auccc"] - 0.5) < 0.03

    def test_outcomes_respects_distributions(self, tmp_path, capsys):
        path = tmp_path / "sep.jsonl"
        code, _, _ = run(
            capsys, "synth", "outcomes", "--n-correct", "50", "--n-incorrect", "50",
            "--correct-dist", "constant:0.9", "--incorrect-dist", "constant:0.1",
            "--seed", "1", "--out", str(path),
        )
        code, out, _ = run(capsys, "eval", str(path))
        assert json.loads(out)["auccc"] == 1.0

    def test_udist_writes_all_files(self, task_dir):
        names = {p.name for p in task_dir.iterdir()}
        assert "train.features.jsonl" in names
        assert "test.features.jsonl" in names
        assert sum(1 for n in names if "member" in n) == 8

    @pytest.mark.parametrize("flag, value", [("--noise-scale", "nan"),
                                             ("--signal-strength", "inf")])
    def test_udist_nonfinite_config_writes_no_file(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "task"
        code, _, err = run(capsys, "synth", "udist", "--out-dir", str(out_dir), "--n-train", "20",
                           "--n-test", "10", flag, value)
        assert code == 1 and err.count("\n") == 1 and err.startswith("error: ")
        assert flag in err and "record" not in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_udist_overflowing_noise_scale_writes_no_file(self, tmp_path, capsys):
        out_dir = tmp_path / "task"
        code, _, err = run(capsys, "synth", "udist", "--out-dir", str(out_dir), "--n-train", "5",
                           "--n-test", "5", "--noise-scale", "1e308")
        assert code == 1 and err.count("\n") == 1 and err.startswith("error: ")
        assert "--noise-scale" in err and "--signal-strength" in err and "record" not in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_udist_with_a_directory_in_the_way_writes_no_file(self, tmp_path, capsys):
        out_dir = tmp_path / "task"
        (out_dir / "test.member2.jsonl").mkdir(parents=True)
        (out_dir / "train.features.jsonl").write_text("kept\n")
        before = sorted(p.name for p in out_dir.iterdir())
        code, _, err = run(capsys, "synth", "udist", "--out-dir", str(out_dir), "--n-train", "20",
                           "--n-test", "20")
        assert code == 1 and err.count("\n") == 1
        assert err == (f"error: cannot write {out_dir / 'test.member2.jsonl'}: "
                       "it exists and is not a regular file\n")
        assert sorted(p.name for p in out_dir.iterdir()) == before
        assert (out_dir / "train.features.jsonl").read_text() == "kept\n"

    def test_a_write_that_fails_midway_leaves_no_file(self, tmp_path):
        # a lone surrogate cannot be encoded, so the second file fails while being written
        texts = {tmp_path / "a.jsonl": "{}\n", tmp_path / "b.jsonl": "\udc80", tmp_path / "c": ""}
        with pytest.raises(UnicodeEncodeError):
            cli._emit({str(path): text for path, text in texts.items()})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--signal-strength", "1e308"),
                                             ("--noise-scale", "1e300")])
    def test_udist_large_flags_that_do_not_overflow(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "task"
        code, _, err = run(capsys, "synth", "udist", "--out-dir", str(out_dir), "--n-train", "5",
                           "--n-test", "5", flag, value)
        assert code == 0
        lines = err.splitlines()  # one per file, and no numpy warning
        assert len(lines) == 10 and all(line.startswith("wrote ") for line in lines)
        assert all(len(parse_records(path.read_bytes())) == 5
                   for path in out_dir.glob("*.member*.jsonl"))

    @pytest.mark.parametrize("flag", ["--correct-dist", "--incorrect-dist"])
    @pytest.mark.parametrize("spec", ["beta:nan,1", "beta:inf,1", "beta:1,inf"])
    def test_outcomes_nonfinite_beta_names_the_flag(self, tmp_path, capsys, flag, spec):
        path = tmp_path / "o.jsonl"
        code, _, err = run(capsys, "synth", "outcomes", "--n-correct", "2", "--n-incorrect", "2",
                           flag, spec, "--out", str(path))
        assert code == 1 and err.count("\n") == 1
        assert err.startswith(f"error: {flag}: beta parameters must be finite, got ")
        assert not path.exists()

    def test_outcomes_beta_with_tiny_shapes(self, tmp_path, capsys):
        path = tmp_path / "tiny.jsonl"
        code, _, err = run(capsys, "synth", "outcomes", "--n-correct", "3", "--n-incorrect", "3",
                           "--correct-dist", "beta:0.001,0.001", "--out", str(path))
        assert code == 0, err
        assert len(parse_records(path.read_bytes())) == 6

    def test_member_files_parse_as_records(self, task_dir):
        records = parse_records((task_dir / "train.member0.jsonl").read_bytes())
        assert len(records) == 300
        assert records[0].probs is not None


class TestDistillCli:
    def test_train_and_predict_beats_max_softmax(self, task_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code, _, err = run(
            capsys, "distill", "--train", str(task_dir / "train.features.jsonl"),
            "--ensemble-dirs", *member_args(task_dir, "train"),
            "--epochs", "60", "--seed", "0", "--out", str(model_path),
        )
        assert code == 0, err
        assert model_path.exists()
        assert "epoch 0" in err

        preds_path = tmp_path / "preds.jsonl"
        code, _, err = run(
            capsys, "distill", "--predict", "--model", str(model_path),
            "--data", str(task_dir / "test.features.jsonl"),
            "--ensemble-dirs", *member_args(task_dir, "test"),
            "--out", str(preds_path),
        )
        assert code == 0, err

        code, out, _ = run(capsys, "eval", str(preds_path), "--confidence-source", "explicit")
        distilled = json.loads(out)["auccc"]
        code, out, _ = run(capsys, "eval", str(preds_path), "--confidence-source", "max-softmax")
        baseline = json.loads(out)["auccc"]
        assert distilled > baseline

    def test_predict_requires_model_and_data(self, task_dir, capsys):
        code, _, err = run(
            capsys, "distill", "--predict",
            "--ensemble-dirs", *member_args(task_dir, "test"),
        )
        assert code == 1
        assert "--model" in err

    def test_train_requires_out(self, task_dir, capsys):
        code, _, err = run(
            capsys, "distill", "--train", str(task_dir / "train.features.jsonl"),
            "--ensemble-dirs", *member_args(task_dir, "train"),
        )
        assert code == 1
        assert "--out" in err

    def test_train_and_predict_together_are_refused(self, task_dir, tmp_path, capsys):
        out = tmp_path / "preds.jsonl"
        code, stdout, err = run(
            capsys, "distill", "--train", str(task_dir / "train.features.jsonl"), "--predict",
            "--model", str(tmp_path / "model.json"), "--data", str(task_dir / "test.features.jsonl"),
            "--ensemble-dirs", *member_args(task_dir, "test"), "--out", str(out),
        )
        assert (code, stdout, err) == (
            1, "", "error: uqkit distill: argument --predict: not allowed with argument --train\n")
        assert not out.exists()

    def test_train_or_predict_is_required(self, task_dir, tmp_path, capsys):
        out = tmp_path / "model.json"
        code, stdout, err = run(
            capsys, "distill", "--ensemble-dirs", *member_args(task_dir, "train"),
            "--out", str(out),
        )
        assert (code, stdout, err) == (
            1, "", "error: uqkit distill: one of the arguments --train --predict is required\n")
        assert not out.exists()

    def test_predict_probs_equal_ensemble_probs(self, task_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code, _, err = run(
            capsys, "distill", "--train", str(task_dir / "train.features.jsonl"),
            "--ensemble-dirs", *member_args(task_dir, "train"),
            "--epochs", "1", "--out", str(model_path),
        )
        assert code == 0, err
        for temperature in ("0.5", "3", "8"):
            code, predicted, err = run(
                capsys, "distill", "--predict", "--model", str(model_path),
                "--data", str(task_dir / "test.features.jsonl"),
                "--ensemble-dirs", *member_args(task_dir, "test"),
                "--temperature", temperature,
            )
            assert code == 0, err
            code, ensembled, err = run(
                capsys, "ensemble", *member_args(task_dir, "test"), "--temperature", temperature
            )
            assert code == 0, err
            pairs = list(zip(predicted.splitlines(), ensembled.splitlines(), strict=True))
            assert len(pairs) == 300
            for p_line, e_line in pairs:
                p_rec, e_rec = json.loads(p_line), json.loads(e_line)
                assert p_rec["id"] == e_rec["id"]
                assert p_rec["probs"] == e_rec["probs"]

    def test_ensemble_dirs_accepts_directory(self, task_dir, tmp_path, capsys):
        # a directory expands to every record file inside, including test files;
        # restrict to a directory holding the train members only
        only_train = tmp_path / "members"
        only_train.mkdir()
        for p in member_args(task_dir, "train"):
            src = task_dir / p.split("/")[-1]
            (only_train / src.name).write_bytes(src.read_bytes())
        model_path = tmp_path / "m.json"
        code, _, err = run(
            capsys, "distill", "--train", str(task_dir / "train.features.jsonl"),
            "--ensemble-dirs", str(only_train), "--epochs", "2",
            "--out", str(model_path),
        )
        assert code == 0, err


class TestMembersTheReaderAccepts:
    """A member row that ``eval`` reads is a distribution to ``ensemble`` and ``distill`` too."""

    # its exact sum lies within 1e-6 of 1, numpy's sum just past that
    EDGE_ROW = [0.03254725338205713, 0.16800034966235264, 0.14413835873949352,
                0.10097471687380824, 0.23900856640479415, 0.24333844814996475,
                0.037242320570758394, 0.034750986216771175]

    def test_row_at_the_tolerance_edge(self, tmp_path, capsys):
        rows = [{"id": "a", "probs": self.EDGE_ROW, "pred": 5, "true": 5, "conf": 0.5},
                {"id": "b", "probs": [0.125] * 8, "pred": 0, "true": 1, "conf": 0.25}]
        members = [tmp_path / "m0.jsonl", tmp_path / "m1.jsonl"]
        for path in members:
            write_jsonl(path, rows)
        feats = tmp_path / "f.jsonl"
        write_jsonl(feats, [{"id": "a", "features": [0.1, 0.2], "true": 5},
                            {"id": "b", "features": [0.3, 0.4], "true": 1}])
        model = tmp_path / "model.json"
        runs = [["eval", str(members[0])],
                ["ensemble", *map(str, members)],
                ["distill", "--train", str(feats), "--ensemble-dirs", *map(str, members),
                 "--epochs", "2", "--out", str(model)],
                ["distill", "--predict", "--model", str(model), "--data", str(feats),
                 "--ensemble-dirs", *map(str, members)]]
        for argv in runs:
            code, out, err = run(capsys, *argv)
            assert code == 0, (argv, err)
            assert "error" not in err


# a one-layer model file of 4 inputs, with the text of its weight and bias arrays filled in
MODEL_4_1 = ('{"format": "udist-model-v1", "layer_sizes": [4, 1], "activation": "tanh", '
             '"weights": [%s], "biases": [%s]}')


class TestDistillInputErrors:
    """Well-formed files with wrong contents exit 1 with one error line."""

    @pytest.fixture
    def two_class_task(self, tmp_path):
        def write(label):
            feats = tmp_path / f"feats{label}.jsonl"
            member = tmp_path / f"member{label}.jsonl"
            write_jsonl(feats, [
                {"id": "a", "features": [0.1, 0.2], "true": 0},
                {"id": "b", "features": [0.3, -0.4], "true": label},
            ])
            write_jsonl(member, [
                {"id": "a", "probs": [0.8, 0.2], "pred": 0, "true": 0},
                {"id": "b", "probs": [0.3, 0.7], "pred": 1, "true": label},
            ])
            return feats, member
        return write

    def assert_one_error_line(self, code, err, fragment):
        assert code == 1
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert fragment in err

    @pytest.mark.parametrize(
        "command, label",
        [("train", 7), ("train", -1), ("ensemble", 7), ("ensemble", -1),
         ("predict", 7), ("predict", -1)],
        ids=["7", "-1", "ensemble-7", "ensemble--1", "predict-7", "predict--1"],
    )
    def test_train_label_outside_classes(self, two_class_task, tmp_path, capsys, command,
                                         label):
        feats, member = two_class_task(label)
        out_path = tmp_path / "out"
        code, _, err = run(capsys, *self.argv(command, feats, [member], tmp_path),
                           "--out", str(out_path))
        self.assert_one_error_line(code, err, f"true label {label} out of range for 2 classes")
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["ensemble", "predict"])
    def test_id_only_a_later_member_carries(self, two_class_task, tmp_path, capsys, command):
        feats, member = two_class_task(1)
        extra = tmp_path / "extra.jsonl"
        extra.write_text(member.read_text() + '{"id":"z","probs":[0.5,0.5],"pred":0,"true":0}\n')
        out_path = tmp_path / "out"
        code, _, err = run(capsys, *self.argv(command, feats, [member, extra], tmp_path),
                           "--out", str(out_path))
        self.assert_one_error_line(code, err, "member 1: instance id 'z' is not in member 0")
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize(
        "feature_rows, member_rows, fragment",
        [
            (FEATURES, [MEMBER, changed(MEMBER, 1, probs=None)],
             "member 1: record 'b' has no probability vector"),
            (FEATURES, [MEMBER, changed(MEMBER, 1, probs=[0.2, 0.7, 0.1])],
             "member 1: record 'b' has 3 classes"),
            (FEATURES, [MEMBER, changed(MEMBER, 1, true=0)],
             "member 1: record 'b' disagrees on label or tag"),
            (FEATURES, [MEMBER, changed(MEMBER, 0, tag="ood")],
             "member 1: record 'a' disagrees on label or tag"),
            (FEATURES + [{"id": "c", "features": [0.5, 0.5], "true": 0}], [MEMBER],
             "instance 'c' missing from ensemble members"),
            (changed(FEATURES, 1, features=[0.3]), [MEMBER],
             "instance 'b' has inconsistent feature length"),
            (changed(FEATURES, 1, true=0), [MEMBER],
             "instance 'b': label disagrees with members"),
            ([], [MEMBER], "no feature records in {feats}"),
            (FEATURES[:1], [MEMBER],
             "instance 'b' of the ensemble members is missing from {feats}"),
            (changed(FEATURES, 1, features=[float("nan"), 0.2]), [MEMBER],
             "{feats}: line 2: record 'b': feature nan is not finite"),
            (changed(FEATURES, 1, features=[0.3, float("-inf")]), [MEMBER],
             "{feats}: line 2: record 'b': feature -inf is not finite"),
        ],
        ids=["no-probs", "class-count", "label", "tag", "feature-id-unknown",
             "feature-length", "feature-label", "empty-features", "member-id-unfeatured",
             "feature-nan", "feature-infinity"],
    )
    def test_alignment_faults(self, tmp_path, capsys, command, feature_rows, member_rows,
                              fragment):
        feats = tmp_path / "f.jsonl"
        write_jsonl(feats, feature_rows)
        members = [tmp_path / f"m{m}.jsonl" for m in range(len(member_rows))]
        for path, rows in zip(members, member_rows):
            write_jsonl(path, rows)
        out_path = tmp_path / "out"
        code, _, err = run(capsys, *self.argv(command, feats, members, tmp_path),
                           "--out", str(out_path))
        self.assert_one_error_line(code, err, fragment.format(feats=feats))
        assert not out_path.exists()

    def argv(self, command, feats, members, tmp_path):
        members = [str(m) for m in members]
        return {
            "train": ["distill", "--train", str(feats), "--ensemble-dirs", *members,
                      "--epochs", "1"],
            "ensemble": ["ensemble", *members],
            "predict": ["distill", "--predict", "--model", str(self.write_model(tmp_path)),
                        "--data", str(feats), "--ensemble-dirs", *members],
        }[command]

    @staticmethod
    def write_model(tmp_path):
        """A valid model for the two-feature, two-class task."""
        path = tmp_path / "valid-model.json"
        path.write_text(json.dumps({
            "format": "udist-model-v1", "layer_sizes": [4, 1], "activation": "tanh",
            "weights": [[0.0, 0.0, 0.0, 0.0]], "biases": [[0.0]],
        }))
        return path

    def test_member_records_without_labels_take_the_feature_label(self, tmp_path, capsys):
        # out-of-distribution members carry no label, so the feature file's label reaches
        # the output records, which must reject it; a negative one is not read as absent
        for label in (7, -1):
            feats, member = tmp_path / "f.jsonl", tmp_path / "m.jsonl"
            write_jsonl(feats, [{"id": "a", "features": [0.1, 0.2], "true": label}])
            write_jsonl(member, [{"id": "a", "probs": [0.8, 0.2], "tag": "ood"}])
            out_path = tmp_path / "preds.jsonl"
            code, _, err = run(
                capsys, "distill", "--predict", "--model", str(self.write_model(tmp_path)),
                "--data", str(feats), "--ensemble-dirs", str(member), "--out", str(out_path),
            )
            self.assert_one_error_line(code, err,
                                       f"true label {label} out of range for 2 classes")
            assert not out_path.exists()

    def test_overflowing_forward_pass_names_the_model(self, tmp_path, capsys):
        feats, member = tmp_path / "f.jsonl", tmp_path / "m.jsonl"
        write_jsonl(feats, [{"id": "a", "features": [3.0, 3.0], "true": 0}])
        write_jsonl(member, [{"id": "a", "probs": [0.8, 0.2], "pred": 0, "true": 0}])
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "format": "udist-model-v1", "layer_sizes": [4, 2, 1], "activation": "tanh",
            "weights": [[1e308] * 8, [0.5, 0.5]], "biases": [[0.0, 0.0], [0.0]],
        }))
        out_path = tmp_path / "preds.jsonl"
        code, _, err = run(
            capsys, "distill", "--predict", "--model", str(model_path), "--data", str(feats),
            "--ensemble-dirs", str(member), "--out", str(out_path),
        )
        self.assert_one_error_line(code, err, f"{model_path}: the model's forward pass fails "
                                              "(overflow encountered in matmul)")
        assert not out_path.exists()

    def test_saturated_model_gives_confidence_zero(self, two_class_task, tmp_path, capsys):
        # exp(1000) overflows on the way to the sigmoid's limit, which is no error
        feats, member = two_class_task(1)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "format": "udist-model-v1", "layer_sizes": [4, 1], "activation": "tanh",
            "weights": [[0.0, 0.0, 0.0, 0.0]], "biases": [[-1000.0]],
        }))
        out_path = tmp_path / "preds.jsonl"
        code, _, err = run(
            capsys, "distill", "--predict", "--model", str(model_path), "--data", str(feats),
            "--ensemble-dirs", str(member), "--out", str(out_path),
        )
        assert code == 0 and err == ""
        assert [r.confidence for r in parse_records(out_path.read_bytes())] == [0.0, 0.0]

    @pytest.mark.parametrize("bad_file", ["features", "member"])
    def test_parse_errors_name_the_file(self, two_class_task, tmp_path, capsys, bad_file):
        feats, member = two_class_task(1)
        path = {"features": feats, "member": member}[bad_file]
        path.write_text(path.read_text() + path.read_text().splitlines()[0] + "\n")
        model_path = tmp_path / "model.json"
        code, _, err = run(
            capsys, "distill", "--train", str(feats), "--ensemble-dirs", str(member),
            "--epochs", "1", "--out", str(model_path),
        )
        self.assert_one_error_line(code, err, f"{path}: line 3: duplicate id 'a'")
        assert not model_path.exists()

    @pytest.mark.parametrize("temperature", ["0", "-2", "nan"])
    def test_train_nonpositive_temperature(self, two_class_task, tmp_path, capsys, temperature):
        feats, member = two_class_task(1)
        model_path = tmp_path / "model.json"
        code, _, err = run(
            capsys, "distill", "--train", str(feats), "--ensemble-dirs", str(member),
            "--temperature-train", temperature, "--epochs", "1", "--out", str(model_path),
        )
        self.assert_one_error_line(code, err, "temperature must be positive")
        assert not model_path.exists()

    @pytest.mark.parametrize("temperature", ["inf", "1e-320"], ids=["infinite", "overflowing"])
    @pytest.mark.parametrize("command, flag", [("ensemble", "--temperature"),
                                               ("predict", "--temperature"),
                                               ("train", "--temperature-train")])
    def test_temperature_infinite_or_overflowing(self, two_class_task, tmp_path, capsys, command,
                                                 flag, temperature):
        feats, member = two_class_task(1)
        out_path = tmp_path / "out"
        code, _, err = run(capsys, *self.argv(command, feats, [member], tmp_path),
                           flag, temperature, "--out", str(out_path))
        self.assert_one_error_line(code, err, "temperature must be positive")
        assert not out_path.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_train_nonfinite_learning_rate(self, two_class_task, tmp_path, capsys, lr):
        feats, member = two_class_task(1)
        model_path = tmp_path / "model.json"
        code, _, err = run(
            capsys, "distill", "--train", str(feats), "--ensemble-dirs", str(member),
            "--lr", lr, "--epochs", "1", "--out", str(model_path),
        )
        self.assert_one_error_line(code, err, f"learning rate must be a finite number, got {lr}")
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "model_doc, fragment",
        [
            ({"format": "udist-model-v1"}, "'layer_sizes'"),
            ([1, 2], "not an object"),
            ({"format": "udist-model-v1", "layer_sizes": [4, 1], "activation": "tanh",
              "weights": [[0.0, 0.0, 0.0]], "biases": [[0.0]]}, "reshape"),
            ({"format": "udist-model-v1", "layer_sizes": [-1, 1], "activation": "tanh",
              "weights": [[0.0, 0.0, 0.0]], "biases": [[0.0]]}, "not a positive integer"),
            ("[" * 200_000, "nesting too deep"),
            ({"format": "udist-model-v1", "layer_sizes": [4, 1], "activation": "relu",
              "weights": [[0.0, 0.0, 0.0, 0.0]], "biases": [[0.0]]},
             "unsupported model activation 'relu'"),
            ({"format": "udist-model-v1", "layer_sizes": [4, 1],
              "weights": [[0.0, 0.0, 0.0, 0.0]], "biases": [[0.0]]},
             "unsupported model activation None"),
            (MODEL_4_1 % ("[0, 0, [1], 0]", "[0.0]"), "has a ragged array under 'weights'"),
            (MODEL_4_1 % ("[0.0, 0.0, 0.0]", "[0.0]"),
             "cannot reshape 3 values under 'weights' into shape (4, 1)"),
            (MODEL_4_1 % ("[0, 0, 0, 0]", "[0.0, 0.0]"),
             "cannot reshape 2 values under 'biases' into shape (1,)"),
            (MODEL_4_1 % ("[0, null, 0, 0]", "[0.0]"),
             "has non-numeric parameters under 'weights': None"),
            (MODEL_4_1 % ("[0, 0, 0, 0]", "null"),
             "has non-numeric parameters under 'biases': None"),
            (MODEL_4_1 % (f"[0, 1{'0' * 400}, 0, 0]", "[0.0]"),
             "has a number too large for float64 under 'weights'"),
            (MODEL_4_1 % ("[0, 1e400, 0, 0]", "[0.0]"),
             "has non-finite parameters under 'weights'"),
            (MODEL_4_1 % ("[0, 0, 0, 0]", "[NaN]"), "has non-finite parameters under 'biases'"),
        ],
        ids=["missing-key", "not-object", "wrong-shape", "negative-size", "deep-nesting",
             "activation-relu", "activation-missing", "ragged", "weights-size", "biases-size",
             "null", "null-array", "huge-integer", "huge-float", "nan"],
    )
    def test_predict_model_schema_errors(self, two_class_task, tmp_path, capsys, model_doc,
                                         fragment):
        feats, member = two_class_task(1)
        model_path = tmp_path / "model.json"
        model_path.write_text(model_doc if isinstance(model_doc, str) else json.dumps(model_doc))
        out_path = tmp_path / "preds.jsonl"
        code, _, err = run(
            capsys, "distill", "--predict", "--model", str(model_path), "--data", str(feats),
            "--ensemble-dirs", str(member), "--out", str(out_path),
        )
        self.assert_one_error_line(code, err, fragment)
        assert not out_path.exists()

    @pytest.mark.parametrize("weights, biases, fragment", [
        ([["0.5", "1e3", 0.0, 0.0]], [[0.0]], "under 'weights': '0.5'"),
        ([[0.0, 0.0, 0.0, 0.0]], [[True]], "under 'biases': True"),
    ], ids=["string-weights", "boolean-bias"])
    def test_predict_model_parameters_must_be_json_numbers(self, two_class_task, tmp_path,
                                                           capsys, weights, biases, fragment):
        # numpy would read "1e3" as 1000.0 and true as 1.0; the record readers reject both
        doc = json.dumps({"format": "udist-model-v1", "layer_sizes": [4, 1], "activation": "tanh",
                          "weights": weights, "biases": biases})
        with pytest.raises(ValueError, match=f"model file has non-numeric parameters {fragment}"):
            ConfidenceModel.from_json(doc)
        feats, member = two_class_task(1)
        model_path, out_path = tmp_path / "model.json", tmp_path / "preds.jsonl"
        model_path.write_text(doc)
        code, _, err = run(
            capsys, "distill", "--predict", "--model", str(model_path), "--data", str(feats),
            "--ensemble-dirs", str(member), "--out", str(out_path),
        )
        self.assert_one_error_line(code, err, fragment)
        assert not out_path.exists()

    def test_predict_nested_parameters_read_as_their_values(self, two_class_task, tmp_path,
                                                           capsys):
        # nested past the 32 dimensions numpy's flat iterator takes, one value per cell
        deep = 0.25
        for _ in range(40):
            deep = [deep]
        feats, member = two_class_task(1)
        outs = []
        for name, weights in (("flat", [0.25] * 4), ("deep", [deep] * 4)):
            model_path, out_path = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
            model_path.write_text(json.dumps({
                "format": "udist-model-v1", "layer_sizes": [4, 1], "activation": "tanh",
                "weights": [weights], "biases": [[0.0]]}))
            code, _, err = run(
                capsys, "distill", "--predict", "--model", str(model_path), "--data", str(feats),
                "--ensemble-dirs", str(member), "--out", str(out_path),
            )
            assert (code, err) == (0, "")
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]


class TestSeeds:
    """A seed outside [0, 2**64) is an error, not an alias of the seed it reduces to."""

    @pytest.mark.parametrize("seed", ["-1", str(2**64)], ids=["negative", "2**64"])
    @pytest.mark.parametrize("command", ["outcomes", "udist", "train"])
    def test_seed_outside_64_bits(self, tmp_path, capsys, command, seed):
        feats, member = tmp_path / "f.jsonl", tmp_path / "m.jsonl"
        write_jsonl(feats, FEATURES)
        write_jsonl(member, MEMBER)
        out = tmp_path / "out"
        argv = {
            "outcomes": ["synth", "outcomes", "--n-correct", "2", "--n-incorrect", "2",
                         "--out", str(out)],
            "udist": ["synth", "udist", "--out-dir", str(out), "--n-train", "2", "--n-test", "2"],
            "train": ["distill", "--train", str(feats), "--ensemble-dirs", str(member),
                      "--epochs", "1", "--out", str(out)],
        }[command]
        code, stdout, err = run(capsys, *argv, "--seed", seed)
        assert code == 1 and stdout == ""
        assert err == f"error: seed (--seed) must be an integer in [0, 2**64), got {seed}\n"
        assert not out.exists()

    def test_largest_seed_is_its_own(self, tmp_path, capsys):
        texts = []
        for seed in ("0", str(2**64 - 1)):
            code, out, _ = run(capsys, "synth", "outcomes", "--n-correct", "2",
                               "--n-incorrect", "2", "--seed", seed)
            assert code == 0
            texts.append(out)
        assert texts[0] != texts[1]


class TestDeterminism:
    def test_synth_outcomes_reruns_bit_identical(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for path in (a, b):
            code, _, _ = run(
                capsys, "synth", "outcomes", "--n-correct", "200", "--n-incorrect", "100",
                "--correct-dist", "beta:5,2", "--incorrect-dist", "uniform:0,0.8",
                "--seed", "99", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synth_udist_reruns_bit_identical(self, tmp_path, capsys):
        d1 = tmp_path / "d1"
        d2 = tmp_path / "d2"
        for d in (d1, d2):
            code = main(
                ["synth", "udist", "--out-dir", str(d), "--n-train", "50",
                 "--n-test", "20", "--seed", "5"]
            )
            assert code == 0
        capsys.readouterr()
        for p1 in sorted(d1.iterdir()):
            p2 = d2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()


class TestUsability:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_usage_error_exits_one(self, capsys):
        usage_errors = [
            ["eval"],  # missing input
            # seeds are per subcommand and the curve CSV comes from `curve`: no global flags
            ["--format", "csv", "eval", "f.jsonl"],
            ["--seed", "3", "synth", "outcomes", "--n-correct", "2", "--n-incorrect", "2"],
        ]
        for argv in usage_errors:
            assert main(argv) == 1, argv
        capsys.readouterr()

    def test_memory_error_is_one_error_line(self, monkeypatch, mixed_file, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_load_outcomes", exhausted)
        code, out, err = run(capsys, "eval", str(mixed_file))
        assert (code, out, err) == (1, "", "error: out of memory\n")

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()
