"""Mutated input files and hostile flag values never break the CLI's exit-code contract.

Each file example takes a valid file of one kind, mutates its bytes, runs
the command that reads it and checks that the command exits 0, 1 or 2
and, when it fails, prints exactly one ``error:`` line, no traceback, and
leaves no output file or temporary behind. Each flag example runs a
command on valid tiny files with hostile values in its numeric flags and
``--*-dist`` specs, and checks the same.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uqkit import records
from uqkit.cli import main

FUZZ_EXAMPLES = 20  # per case; keeps the whole module to a few seconds

# splices that reach the parsers' edge cases: structure, non-finite and huge
# numbers, labels outside the classes, booleans, objects and arrays where numbers
# or ids belong, deep nesting, bad UTF-8, a CSV cell over the csv module's field
# size limit, and the Unicode line separators that JSON allows raw inside strings
TOKENS = [
    b"[" * 5000, b"{", b"}", b"[", b"]", b'"', b",", b":", b"\n", b"\r", b"\xff", b"\x00",
    b"NaN", b"Infinity", b"-1", b"7", b"0", b"1e999", b"1" * 5000, b"null", b"true", b"false",
    b'"ood"', b'"id"', b"[]", b"{}", b"0.5", b"x" * 140_000,
    "\u2028".encode(), "\u2029".encode(), "\u0085".encode(),
]


def jsonl(rows) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in rows).encode()


PROBS = [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6], [0.5, 0.3, 0.2]]
TRUES = [0, 2, 2, 1]
IDS = ["a", "b", "c", "d"]

RECORDS = jsonl(
    {"id": rid, "probs": p, "pred": p.index(max(p)), "true": t, "conf": 0.2 + 0.2 * i,
     "tag": "ood" if i == 3 else "id"}
    for i, (rid, p, t) in enumerate(zip(IDS, PROBS, TRUES))
)
RECORDS_CSV = (
    "id,pred,true,conf,tag,p0,p1,p2\n"
    + "".join(
        f"{rid},{p.index(max(p))},{t},{0.2 + 0.2 * i},id,{p[0]},{p[1]},{p[2]}\n"
        for i, (rid, p, t) in enumerate(zip(IDS, PROBS, TRUES))
    )
).encode()
# more lines than the reader parses at once, so splices land in any chunk
MANY_RECORDS = jsonl(
    {"id": f"r{i}", "probs": PROBS[i % 4], "pred": PROBS[i % 4].index(max(PROBS[i % 4])),
     "true": TRUES[i % 4], "conf": (i % 97) / 100}
    for i in range(2 * records._PARSE_CHUNK + 5)
)
MULTI_LABEL = jsonl(
    {"id": rid, "probs": p, "truths": [int(k == t) for k in range(3)]}
    for rid, p, t in zip(IDS, PROBS, TRUES)
)
MANY_MULTI_LABEL = jsonl(
    {"id": f"m{i}", "probs": PROBS[i % 4], "truths": [int(k == TRUES[i % 4]) for k in range(3)]}
    for i in range(2 * records._PARSE_CHUNK + 5)
)
MEMBERS = [
    jsonl({"id": rid, "probs": p, "pred": p.index(max(p)), "true": t}
          for rid, p, t in zip(IDS, rows, TRUES))
    for rows in (PROBS, PROBS[1:] + PROBS[:1])
]
FEATURES = jsonl(
    {"id": rid, "features": [0.1 * i, -0.3, 1.0], "true": t}
    for i, (rid, t) in enumerate(zip(IDS, TRUES))
)
MODEL = json.dumps({
    "format": "udist-model-v1", "layer_sizes": [6, 2, 1], "activation": "tanh",
    "weights": [[0.1 * k for k in range(-6, 6)], [0.5, -0.5]], "biases": [[0.0, 0.1], [0.2]],
}).encode()

EVAL = ["eval", "{target}", "--curve-out", "{out}"]
PREDICT = ["distill", "--predict", "--model", "{model}", "--data", "{features}",
           "--ensemble-dirs", "{member0}", "{member1}", "--out", "{out}"]
TRAIN = ["distill", "--train", "{features}", "--ensemble-dirs", "{member0}", "{member1}",
         "--epochs", "2", "--out", "{out}"]

# (file to mutate, its clean content, command line); {out} is the output file
CASES = {
    "records-jsonl": ("target.jsonl", RECORDS, EVAL + ["--mode", "ood-unified"]),
    "records-csv": ("target.csv", RECORDS_CSV, EVAL),
    "records-chunks": ("target.jsonl", MANY_RECORDS, EVAL),
    "curve": ("target.jsonl", RECORDS, ["curve", "{target}", "--mode", "ood-unified",
                                        "--out", "{out}"]),
    "records-max-softmax": ("target.jsonl", RECORDS, EVAL + ["--confidence-source",
                                                             "max-softmax"]),
    "multi-label": ("target.jsonl", MULTI_LABEL, EVAL + ["--mode", "multi-label"]),
    "multi-label-chunks": ("target.jsonl", MANY_MULTI_LABEL, EVAL + ["--mode", "multi-label"]),
    "ensemble-member": ("member0.jsonl", MEMBERS[0],
                        ["ensemble", "{member0}", "{member1}", "--out", "{out}"]),
    "features": ("features.jsonl", FEATURES, PREDICT),
    "predict-member": ("member0.jsonl", MEMBERS[0], PREDICT),
    "model": ("model.json", MODEL, PREDICT),
    "train-features": ("features.jsonl", FEATURES, TRAIN),
    "train-member": ("member0.jsonl", MEMBERS[0], TRAIN),
}
CLEAN = {"member0.jsonl": MEMBERS[0], "member1.jsonl": MEMBERS[1],
         "features.jsonl": FEATURES, "model.json": MODEL}


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """One to three splices: a token, random bytes or a copy of one of the file's lines."""
    lines = data.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 24)))
        piece = draw(st.one_of(
            st.sampled_from(TOKENS), st.binary(max_size=6), st.sampled_from(lines),
        ))
        data = data[:start] + piece + data[end:]
    return data


def run_case(case: str, data: bytes) -> int:
    name, _clean, argv = CASES[case]
    return run(argv, {**CLEAN, name: data})


def run(argv: list[str], files: dict[str, bytes]) -> int:
    """Run ``argv`` on ``files`` in a fresh directory and check the exit contract.

    ``{stem}`` in an argument is the path of the file of that stem, and
    ``{out}`` the output path.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = {Path(n).stem: Path(tmp) / n for n in files}
        for n, content in files.items():
            (Path(tmp) / n).write_bytes(content)
        out = Path(tmp) / "out"
        args = [a.format(out=out, **paths) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        err = stderr.getvalue()
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err
        if code != 0:
            # outside a test harness a warning would be one more stderr line
            assert err.startswith("error: ") and err.count("\n") == 1 and not caught, (err, caught)
        # the inputs, and the output only on success: no output or temporary left by a failure
        left = {p.name for p in Path(tmp).iterdir()}
        assert left == set(files) | ({out.name} if code == 0 else set()), left
        return code


@pytest.mark.parametrize("case", sorted(CASES))
def test_clean_file_succeeds(case):
    assert run_case(case, CASES[case][1]) == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_mutated_file_keeps_exit_contract(case):
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(data=mutations(CASES[case][1]))
    def check(data):
        run_case(case, data)

    check()


# hostile values for every numeric flag; a size flag takes only small ones and those
# that are not integers, since a huge size would run for hours
NUMBERS = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e308", str(2**64), str(-(2**63))]
SIZES = ["-1", "0", "1", "2", "3", "nan", "inf", "-inf", "1e-300", "1e308"]
SPECS = ["uniform:{0},{1}", "beta:{0},{1}", "constant:{0}"]

# (command line on valid tiny files, its numeric and spec flags and the values each draws)
FLAG_CASES = {
    "eval-multi-label": (["eval", "{multilabel}", "--mode", "multi-label", "--curve-out", "{out}"],
                         {"--threshold": NUMBERS}),
    "ensemble": (["ensemble", "{member0}", "{member1}", "--out", "{out}"],
                 {"--temperature": NUMBERS}),
    "train": (TRAIN, {"--temperature-train": NUMBERS, "--lr": NUMBERS, "--seed": NUMBERS,
                      "--epochs": SIZES, "--batch-size": SIZES}),
    "predict": (PREDICT, {"--temperature": NUMBERS}),
    "synth-outcomes": (["synth", "outcomes", "--n-correct", "2", "--n-incorrect", "2",
                        "--out", "{out}"],
                       {"--n-correct": SIZES, "--n-incorrect": SIZES, "--seed": NUMBERS,
                        "--correct-dist": SPECS, "--incorrect-dist": SPECS}),
    "synth-udist": (["synth", "udist", "--out-dir", "{out}", "--n-train", "3", "--n-test", "3"],
                    {"--n-train": SIZES, "--n-test": SIZES, "--feature-dim": SIZES,
                     "--classes": SIZES, "--members": SIZES, "--noise-scale": NUMBERS,
                     "--signal-strength": NUMBERS, "--seed": NUMBERS}),
}
FLAG_FILES = {**CLEAN, "multilabel.jsonl": MULTI_LABEL}


@st.composite
def flag_value(draw, values: list[str]) -> str:
    """One of ``values``; a spec's parameters are numbers."""
    value = draw(st.sampled_from(values))
    return value.format(*(draw(st.sampled_from(NUMBERS)) for _ in range(value.count("{"))))


@st.composite
def flag_args(draw, case: str, flag: str) -> list[str]:
    """``flag`` and a few of the command's other flags, each with a value, in either form."""
    flags = FLAG_CASES[case][1]
    others = draw(st.permutations(sorted(set(flags) - {flag})))[: draw(st.integers(0, 3))]
    args = []
    for name in [flag, *others]:
        value = draw(flag_value(flags[name]))
        args += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return args


@pytest.mark.parametrize("case, flag", [(case, flag) for case, (_, flags) in FLAG_CASES.items()
                                        for flag in flags])
def test_hostile_flag_values_keep_exit_contract(case, flag):
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(args=flag_args(case, flag))
    def check(args):
        run(FLAG_CASES[case][0] + args, FLAG_FILES)

    check()
