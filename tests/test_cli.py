import json

import numpy as np
import pytest

from uqkit.cli import main
from uqkit.records import RecordFormat, parse_records


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


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

    def test_curve_out_writes_csv(self, mixed_file, tmp_path, capsys):
        curve_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "eval", str(mixed_file), "--mode", "ood-unified",
            "--curve-out", str(curve_path),
        )
        assert code == 0
        assert curve_path.read_text().startswith("threshold,one_minus_crejr,caccr")

    def test_csv_format_prints_curve(self, mixed_file, capsys):
        code, out, _ = run(capsys, "--format", "csv", "eval", str(mixed_file),
                           "--mode", "ood-unified")
        assert code == 0
        assert out.startswith("threshold,one_minus_crejr,caccr")

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

    def test_misaligned_ids_rejected(self, tmp_path, capsys):
        m0 = tmp_path / "m0.jsonl"
        m1 = tmp_path / "m1.jsonl"
        write_jsonl(m0, [{"id": "a", "probs": [0.8, 0.2], "pred": 0, "true": 0}])
        write_jsonl(m1, [{"id": "zz", "probs": [0.8, 0.2], "pred": 0, "true": 0}])
        code, _, err = run(capsys, "ensemble", str(m0), str(m1))
        assert code == 1
        assert "missing instance id" in err


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

    @pytest.mark.parametrize("label", [7, -1])
    def test_train_label_outside_classes(self, two_class_task, tmp_path, capsys, label):
        feats, member = two_class_task(label)
        model_path = tmp_path / "model.json"
        code, _, err = run(
            capsys, "distill", "--train", str(feats), "--ensemble-dirs", str(member),
            "--epochs", "1", "--out", str(model_path),
        )
        self.assert_one_error_line(code, err, f"true label {label} out of range for 2 classes")
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

    @pytest.mark.parametrize(
        "model_doc, fragment",
        [
            ({"format": "udist-model-v1"}, "'layer_sizes'"),
            ([1, 2], "not an object"),
            ({"format": "udist-model-v1", "layer_sizes": [4, 1], "activation": "tanh",
              "weights": [[0.0, 0.0, 0.0]], "biases": [[0.0]]}, "reshape"),
        ],
        ids=["missing-key", "not-object", "wrong-shape"],
    )
    def test_predict_model_schema_errors(self, two_class_task, tmp_path, capsys, model_doc,
                                         fragment):
        feats, member = two_class_task(1)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_doc))
        out_path = tmp_path / "preds.jsonl"
        code, _, err = run(
            capsys, "distill", "--predict", "--model", str(model_path), "--data", str(feats),
            "--ensemble-dirs", str(member), "--out", str(out_path),
        )
        self.assert_one_error_line(code, err, fragment)
        assert not out_path.exists()


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

    def test_global_seed_flag_feeds_subcommands(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run(capsys, "--seed", "31", "synth", "outcomes", "--n-correct", "10",
            "--n-incorrect", "10", "--out", str(a))
        run(capsys, "synth", "outcomes", "--n-correct", "10",
            "--n-incorrect", "10", "--seed", "31", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestUsability:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_usage_error_exits_one(self, capsys):
        assert main(["eval"]) == 1  # missing input
        capsys.readouterr()

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()
