import csv
import io
import json

import pytest

from uqkit.records import (
    ConfidenceSource,
    DistTag,
    FeatureRecord,
    MultiLabelRecord,
    OutcomeSet,
    PredictionRecord,
    RecordError,
    RecordFormat,
    binarize_multilabel,
    derive_io_outcomes,
    derive_outcomes,
    parse_multilabel_records,
    parse_records,
    write_feature_records,
    write_records_csv,
    write_records_jsonl,
)
from uqkit.records import parse_feature_records


def rec(rid="r", pred=0, probs=None, true=0, conf=None, tag=DistTag.IN_DISTRIBUTION):
    return PredictionRecord(
        instance_id=rid, pred_label=pred, probs=probs, true_label=true,
        confidence=conf, dist_tag=tag,
    )


class TestParsing:
    def test_single_jsonl_line(self):
        line = '{"id":"a","probs":[0.7,0.3],"pred":0,"true":0,"tag":"id"}'
        records = parse_records(line.encode(), RecordFormat.JSON_LINES)
        assert len(records) == 1
        r = records[0]
        assert r.instance_id == "a"
        assert r.pred_label == 0
        assert r.probs == (0.7, 0.3)
        assert r.true_label == 0
        assert r.dist_tag is DistTag.IN_DISTRIBUTION

    def test_probability_sum_violation(self):
        line = '{"id":"a","probs":[0.7,0.4],"pred":0,"true":0}'
        with pytest.raises(RecordError, match=r"probability sum 1\.1 exceeds tolerance"):
            parse_records(line, RecordFormat.JSON_LINES)

    def test_confidence_out_of_range(self):
        line = '{"id":"a","pred":0,"true":0,"conf":1.2}'
        with pytest.raises(RecordError, match="confidence out of range"):
            parse_records(line, RecordFormat.JSON_LINES)

    def test_error_reports_line_number(self):
        text = '{"id":"a","pred":0,"true":0}\nnot json\n'
        with pytest.raises(RecordError, match="line 2"):
            parse_records(text, RecordFormat.JSON_LINES)

    def test_missing_true_label_on_id_record(self):
        with pytest.raises(RecordError, match="true label"):
            parse_records('{"id":"a","pred":0}', RecordFormat.JSON_LINES)

    def test_ood_record_may_omit_true_label(self):
        records = parse_records('{"id":"a","pred":1,"conf":0.4,"tag":"ood"}')
        assert records[0].true_label is None
        assert records[0].dist_tag is DistTag.OUT_OF_DISTRIBUTION

    def test_pred_defaults_to_first_argmax(self):
        records = parse_records('{"id":"a","probs":[0.5,0.5],"true":0}')
        assert records[0].pred_label == 0

    def test_pred_must_match_argmax(self):
        with pytest.raises(RecordError, match="argmax"):
            parse_records('{"id":"a","probs":[0.6,0.4],"pred":1,"true":0}')

    def test_tag_defaults_to_id(self):
        records = parse_records('{"id":"a","pred":0,"true":0}')
        assert records[0].dist_tag is DistTag.IN_DISTRIBUTION

    def test_unknown_tag_rejected(self):
        with pytest.raises(RecordError, match="unknown tag"):
            parse_records('{"id":"a","pred":0,"true":0,"tag":"weird"}')

    def test_need_pred_or_probs(self):
        with pytest.raises(RecordError, match="need 'pred' or 'probs'"):
            parse_records('{"id":"a","true":0}')

    def test_order_preserved(self):
        text = "\n".join(f'{{"id":"r{i}","pred":0,"true":0}}' for i in range(5))
        records = parse_records(text)
        assert [r.instance_id for r in records] == [f"r{i}" for i in range(5)]

    def test_csv_basic(self):
        text = "id,pred,true,conf,tag,p0,p1\na,0,0,0.9,id,0.7,0.3\nb,1,0,,ood,,\n"
        records = parse_records(text, RecordFormat.CSV)
        assert records[0].probs == (0.7, 0.3)
        assert records[0].confidence == 0.9
        assert records[1].probs is None
        assert records[1].confidence is None
        assert records[1].dist_tag is DistTag.OUT_OF_DISTRIBUTION

    def test_csv_bad_header(self):
        with pytest.raises(RecordError, match="header"):
            parse_records("foo,bar\n1,2\n", RecordFormat.CSV)

    def test_csv_partial_probs_rejected(self):
        text = "id,pred,true,conf,tag,p0,p1\na,0,0,,id,0.7,\n"
        with pytest.raises(RecordError, match="partial probability"):
            parse_records(text, RecordFormat.CSV)

    def test_a_format_that_is_not_a_member_is_refused(self):
        # the value of RecordFormat.JSON_LINES, not the member: read as CSV, it would parse
        with pytest.raises(ValueError, match="unknown record format: 'jsonl'"):
            parse_records('{"id":"a","pred":0,"true":0}\n', "jsonl")

    def test_invalid_utf8(self):
        with pytest.raises(RecordError, match="UTF-8"):
            parse_records(b"\xff\xfe", RecordFormat.JSON_LINES)

    def test_csv_oversized_cell_is_a_record_error(self):
        limit = csv.field_size_limit()
        text = "id,pred,true,conf,tag\na,0,0,0.5,id\nb,0,0,0.5," + "x" * (limit + 1) + "\n"
        with pytest.raises(RecordError, match="line 3: malformed CSV"):
            parse_records(text, RecordFormat.CSV)
        assert csv.field_size_limit() == limit

    def test_csv_oversized_header_cell_is_a_record_error(self):
        limit = csv.field_size_limit()
        text = "id,pred,true,conf," + "t" * (limit + 1) + "\na,0,0,0.5,id\n"
        with pytest.raises(RecordError) as raised:
            parse_records(text, RecordFormat.CSV)
        assert str(raised.value) == (
            f"line 1: malformed CSV (field larger than field limit ({limit}))")

    @pytest.mark.parametrize("stream", [io.BytesIO, io.StringIO], ids=["bytes", "text"])
    def test_file_objects_read_as_their_contents(self, stream):
        text = '{"id":"a","pred":0,"true":0,"conf":0.5}\n'
        data = text.encode() if stream is io.BytesIO else text
        assert parse_records(stream(data)) == parse_records(text) == [rec("a", conf=0.5)]

    @pytest.mark.parametrize(
        "probs, true, message",
        [((0.6, 0.4), 2, "true label 2 out of range for 2 classes"),
         ((0.6, 0.4), -1, "true label -1 out of range for 2 classes"),
         (None, -1, "true label -1 out of range")],
        ids=["too-large", "negative", "negative-no-probs"],
    )
    def test_true_label_outside_classes(self, probs, true, message):
        with pytest.raises(RecordError, match=message):
            rec(probs=probs, true=true, conf=0.5)


# one JSON Lines line per file kind: prediction records, multi-label records, features
JSONL_KINDS = {
    "records": (parse_records, '{"id":"a","pred":0,"true":0}'),
    "multi-label": (parse_multilabel_records, '{"id":"a","probs":[0.8],"truths":[1]}'),
    "features": (parse_feature_records, '{"id":"a","features":[0.5],"true":0}'),
}


@pytest.mark.parametrize("kind", sorted(JSONL_KINDS))
class TestJsonLinesReader:
    """Every JSON Lines file kind goes through the same reader and id check."""

    @pytest.mark.parametrize(
        "second, message",
        [
            (b"\xff", "input is not valid UTF-8"),
            (b"[" * 200_000, r"line 2: malformed JSON \(maximum recursion depth"),
            (b"{", r"line 2: malformed JSON \("),
            (b"[1]", "line 2: expected a JSON object"),
            (b"1" * 5000, r"line 2: malformed JSON \(Exceeds the limit"),
            # every kind's label fields at once: pred and true, truths, true
            (b'{"id":"b","pred":1.7,"true":1.7,"probs":[1.0],"truths":[1.7],"features":[0.5]}',
             "line 2: label 1.7 is not an integer"),
            # a non-finite entry in every kind's float array; 1e999 overflows to inf
            (b'{"id":"b","true":0,"probs":[NaN],"truths":[1],"features":[1e999]}',
             r"line 2: record 'b': (probability nan out of range|feature inf is not finite)"),
            # JSON booleans where every kind expects a label, then an array of numbers
            (b'{"id":"b","pred":1,"true":true,"probs":[0.0,1.0],"truths":[true],'
             b'"features":[0.5]}', "line 2: boolean where a number is expected"),
            (b'{"id":"b","pred":1,"true":1,"probs":[false,true],"truths":[0,1],'
             b'"features":[false,true]}', "line 2: boolean where a number is expected"),
            (b'{"id":{"k":1},"pred":0,"true":0,"probs":[1.0],"truths":[1],"features":[0.5]}',
             "line 2: id must be a string or a number, not an object"),
            (b'{"id":["b"],"pred":0,"true":0,"probs":[1.0],"truths":[1],"features":[0.5]}',
             "line 2: id must be a string or a number, not an array"),
            (b'{"id":true,"pred":0,"true":0,"probs":[1.0],"truths":[1],"features":[0.5]}',
             "line 2: id must be a string or a number, not a boolean"),
            # a negative pred is a record fault; the other kinds lack probs or features
            (b'{"id":"b","pred":-5,"true":0,"truths":[1],"features":[]}',
             r"line 2: (record 'b': (pred -5 out of range|empty feature vector)"
             r"|need 'id', 'probs' and 'truths')"),
        ],
        ids=["utf8", "deep", "truncated", "not-object", "long-int", "fractional-label",
             "non-finite-feature", "boolean-label", "boolean-entries", "object-id", "array-id",
             "boolean-id", "negative-pred"],
    )
    def test_malformed_line(self, kind, second, message):
        parse, line = JSONL_KINDS[kind]
        with pytest.raises(RecordError, match=message):
            parse(line.encode() + b"\n" + second + b"\n")

    def test_integer_ids_accepted(self, kind):
        parse, line = JSONL_KINDS[kind]
        assert [r.instance_id for r in parse(line.replace('"a"', "7"))] == ["7"]

    def test_integral_float_labels_accepted(self, kind):
        parse, line = JSONL_KINDS[kind]
        second = ('{"id":"b","pred":1.0,"true":1.0,"probs":[0.2,0.8],"truths":[1.0,0.0],'
                  '"features":[0.5]}')
        assert len(parse(f"{line}\n{second}\n")) == 2

    def test_duplicate_id_names_both_lines(self, kind):
        parse, line = JSONL_KINDS[kind]
        with pytest.raises(RecordError, match=r"line 3: duplicate id 'a' \(first on line 1\)"):
            parse(f"{line}\n\n{line}\n")

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"],
                             ids=["U+2028", "U+2029", "U+0085"])
    def test_unicode_line_separators_stay_inside_strings(self, kind, separator):
        parse, line = JSONL_KINDS[kind]
        rid = f"b{separator}c"
        second = line.replace('"a"', json.dumps(rid, ensure_ascii=False))
        records = parse(f"{line}\n{second}\n".encode())
        assert [r.instance_id for r in records] == ["a", rid]

    def test_crlf_line_endings(self, kind):
        parse, line = JSONL_KINDS[kind]
        second = line.replace('"a"', '"b"')
        with pytest.raises(RecordError, match=r"line 4: duplicate id 'a' \(first on line 1\)"):
            parse(f"{line}\r\n{second}\r\n\r\n{line}\r\n".encode())
        assert len(parse(f"{line}\r\n{second}\r\n")) == 2


def test_csv_duplicate_id_names_both_lines():
    text = "id,pred,true,conf,tag\na,0,0,0.5,id\nb,0,0,0.5,id\na,0,0,0.5,id\n"
    with pytest.raises(RecordError, match=r"line 4: duplicate id 'a' \(first on line 2\)"):
        parse_records(text, RecordFormat.CSV)


@pytest.mark.parametrize("build, parse, line, message", [
    (lambda: PredictionRecord("a", 1.5, None, 1, 0.5), parse_records,
     '{"id":"a","pred":1.5,"true":1,"conf":0.5}', "label 1.5 is not an integer"),
    (lambda: PredictionRecord("a", 0, None, 0.5, 0.5), parse_records,
     '{"id":"a","pred":0,"true":0.5,"conf":0.5}', "label 0.5 is not an integer"),
    (lambda: PredictionRecord("a", True, None, 1, 0.5), parse_records,
     '{"id":"a","pred":true,"true":1,"conf":0.5}', "boolean where a number is expected"),
    (lambda: PredictionRecord("a", None), parse_records, '{"id":"a"}', "need 'pred' or 'probs'"),
    (lambda: MultiLabelRecord("a", (0.5,), (1.5,)), parse_multilabel_records,
     '{"id":"a","probs":[0.5],"truths":[1.5]}', "label 1.5 is not an integer"),
    (lambda: MultiLabelRecord("a", (0.5,), (True,)), parse_multilabel_records,
     '{"id":"a","probs":[0.5],"truths":[true]}', "boolean where a number is expected"),
], ids=["fractional-pred", "fractional-true", "boolean-pred", "no-pred-or-probs",
        "fractional-truth", "boolean-truth"])
def test_record_constructors_reject_what_the_reader_rejects(build, parse, line, message):
    with pytest.raises(RecordError) as built:
        build()
    assert str(built.value) == f"record 'a': {message}"
    with pytest.raises(RecordError) as read:
        parse(line)
    assert str(read.value) == f"line 1: {message}"


def test_a_multilabel_record_without_truths_stays_a_record_error():
    with pytest.raises(RecordError, match=r"^record 'a': 1 probs vs 0 truths$"):
        MultiLabelRecord("a", (0.5,), None)


class TestRoundTrip:
    def make_records(self):
        return [
            rec("a", pred=0, probs=(0.7, 0.3), true=0, conf=0.7),
            rec("b", pred=1, probs=(0.25, 0.5, 0.25), true=2, conf=None),
            rec("c", pred=0, probs=None, true=None, conf=0.123456789012345,
                tag=DistTag.OUT_OF_DISTRIBUTION),
        ]

    def test_jsonl_round_trip(self):
        records = self.make_records()
        # 3-class and 2-class records cannot share one CSV, but JSONL is fine
        again = parse_records(write_records_jsonl(records))
        assert again == records

    def test_csv_round_trip(self):
        records = [
            rec("a", pred=0, probs=(0.7, 0.3), true=0, conf=0.7),
            rec("b", pred=0, probs=None, true=None, conf=0.123456789012345,
                tag=DistTag.OUT_OF_DISTRIBUTION),
        ]
        again = parse_records(write_records_csv(records), RecordFormat.CSV)
        assert again == records

    @pytest.mark.parametrize("write, fmt, first", [
        (write_records_jsonl, RecordFormat.JSON_LINES, 1),
        (write_records_csv, RecordFormat.CSV, 2),  # the header is line 1
    ], ids=["jsonl", "csv"])
    def test_writers_reject_repeated_ids(self, write, fmt, first):
        records = [rec("a", conf=0.5), rec("b", conf=0.5), rec("a", conf=0.25)]
        message = f"line {first + 2}: duplicate id 'a' (first on line {first})"
        with pytest.raises(RecordError) as written:
            write(records)
        assert str(written.value) == message
        # the file the writer refuses, written in two parts, and what reading it raises
        tail = write(records[2:])
        text = write(records[:2]) + (tail.split("\n", 1)[1] if fmt is RecordFormat.CSV else tail)
        with pytest.raises(RecordError) as read:
            parse_records(text, fmt)
        assert str(read.value) == message

    def test_feature_writer_rejects_repeated_ids(self):
        with pytest.raises(RecordError, match=r"^line 2: duplicate id 'a' \(first on line 1\)$"):
            write_feature_records([FeatureRecord("a", (1.0,), 0)] * 2)

    def test_csv_writer_numbers_a_row_by_the_line_it_starts_on(self):
        # an id holding a line feed is written as a quoted cell over two lines
        records = [rec("x\ny", conf=0.5), rec("z", conf=0.5), rec("z", conf=0.25)]
        message = "line 5: duplicate id 'z' (first on line 4)"
        with pytest.raises(RecordError) as written:
            write_records_csv(records)
        assert str(written.value) == message
        text = write_records_csv(records[:2]) + write_records_csv(records[2:]).split("\n", 1)[1]
        with pytest.raises(RecordError) as read:
            parse_records(text, RecordFormat.CSV)
        assert str(read.value) == message

    def test_csv_rejects_mixed_class_counts(self):
        records = [rec("a", probs=(0.7, 0.3)), rec("b", probs=(0.2, 0.3, 0.5), pred=2)]
        with pytest.raises(ValueError, match="class counts"):
            write_records_csv(records)


class TestOutcomeSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            OutcomeSet([], [])

    def test_rejects_arrays_that_are_not_one_dimensional(self):
        with pytest.raises(ValueError, match="^outcome arrays must be one-dimensional$"):
            OutcomeSet([[True, False]], [[0.9, 0.1]])
        with pytest.raises(ValueError, match="^outcome arrays must be one-dimensional$"):
            OutcomeSet([True], 0.9)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="^correct/confidence length mismatch$"):
            OutcomeSet([True, False], [0.9])

    def test_rejects_out_of_range_confidence(self):
        with pytest.raises(ValueError, match="confidence out of range"):
            OutcomeSet([True], [1.5])

    def test_entries(self):
        s = OutcomeSet([True, False], [0.9, 0.1])
        assert s.correct.tolist() == [True, False]
        assert s.confidence.tolist() == [0.9, 0.1]


class TestDeriveOutcomes:
    def test_correct_id_record(self):
        out = derive_outcomes([rec(conf=0.8)], ConfidenceSource.EXPLICIT_FIELD)
        assert out.correct.tolist() == [True]
        assert out.confidence.tolist() == [0.8]

    def test_ood_record_always_incorrect(self):
        # even a "matching" prediction on an OOD record counts as incorrect
        r = rec(pred=0, true=0, conf=0.99, tag=DistTag.OUT_OF_DISTRIBUTION)
        out = derive_outcomes([r], ConfidenceSource.EXPLICIT_FIELD)
        assert out.correct.tolist() == [False]
        assert out.confidence.tolist() == [0.99]

    def test_max_softmax_confidence_on_misclassification(self):
        r = rec(pred=0, probs=(0.6, 0.4), true=1)
        out = derive_outcomes([r], ConfidenceSource.MAX_SOFTMAX)
        assert out.correct.tolist() == [False]
        assert out.confidence.tolist() == [0.6]

    def test_missing_source_identifies_record(self):
        with pytest.raises(RecordError, match="'r7'"):
            derive_outcomes([rec("r7", conf=None)], ConfidenceSource.EXPLICIT_FIELD)

    def test_order_and_length_preserved(self):
        records = [rec(f"r{i}", conf=i / 10) for i in range(1, 8)]
        out = derive_outcomes(records, ConfidenceSource.EXPLICIT_FIELD)
        assert len(out) == len(records)
        assert out.confidence.tolist() == [i / 10 for i in range(1, 8)]


class TestDeriveIoOutcomes:
    def test_misclassified_id_record_is_positive(self):
        r = rec(pred=0, true=1, conf=0.6)
        out = derive_io_outcomes([r])
        assert out.correct.tolist() == [True]
        assert out.confidence.tolist() == [0.6]

    def test_ood_record_is_negative(self):
        r = rec(pred=0, true=None, conf=0.3, tag=DistTag.OUT_OF_DISTRIBUTION)
        out = derive_io_outcomes([r])
        assert out.correct.tolist() == [False]
        assert out.confidence.tolist() == [0.3]

    def test_all_id_input_gives_all_positive(self):
        out = derive_io_outcomes([rec("a", conf=0.2), rec("b", conf=0.9)])
        assert out.correct.all()

    def test_label_permutation_leaves_output_unchanged(self):
        records = [rec(f"r{i}", pred=i % 3, true=i % 2, conf=0.1 * i) for i in range(1, 9)]
        relabeled = [
            PredictionRecord(
                instance_id=r.instance_id, pred_label=(r.pred_label + 1) % 3,
                true_label=(r.true_label + 1) % 2, confidence=r.confidence,
                dist_tag=r.dist_tag,
            )
            for r in records
        ]
        assert derive_io_outcomes(records) == derive_io_outcomes(relabeled)


class TestBinarizeMultilabel:
    def test_two_class_example(self):
        r = MultiLabelRecord("a", (0.9, 0.1), (1, 0))
        out = binarize_multilabel([r], 0.5)
        assert out.correct.tolist() == [True, True]
        assert out.confidence.tolist() == [0.9, 0.9]

    def test_predicted_negative_truth_positive(self):
        r = MultiLabelRecord("a", (0.4,), (1,))
        out = binarize_multilabel([r], 0.5)
        assert out.correct.tolist() == [False]
        assert out.confidence.tolist() == [0.6]

    def test_boundary_uses_greater_equal(self):
        r = MultiLabelRecord("a", (0.5,), (1,))
        out = binarize_multilabel([r], 0.5)
        assert out.correct.tolist() == [True]
        assert out.confidence.tolist() == [0.5]

    def test_output_length_is_records_times_classes(self):
        records = [MultiLabelRecord(f"r{i}", (0.2, 0.6, 0.9), (0, 1, 1)) for i in range(4)]
        assert len(binarize_multilabel(records, 0.5)) == 12

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="no multi-label records"):
            binarize_multilabel([], 0.5)

    def test_threshold_range_enforced(self):
        r = MultiLabelRecord("a", (0.4,), (1,))
        with pytest.raises(ValueError, match="threshold"):
            binarize_multilabel([r], 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(RecordError, match="probs vs"):
            MultiLabelRecord("a", (0.4, 0.5), (1,))

    def test_multilabel_jsonl_parsing(self):
        text = '{"id":"a","probs":[0.8,0.2],"truths":[1,0],"tag":"id"}'
        records = parse_multilabel_records(text)
        assert records[0].per_class_probs == (0.8, 0.2)
        assert records[0].true_labels == (1, 0)
