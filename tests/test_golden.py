"""Golden digests of the record layer's outputs, and two relations between commands.

The inputs are small record, multi-label and feature texts written out
below: canonical rows, and odd ones (numeric ids, string numbers, ragged
vectors, rows without probabilities, ``ood`` tags, CRLF line ends). Each
parsed file is written back with every writer that takes it, and ``curve``
runs on each file in every mode with each confidence source. ``synth
outcomes`` writes two more files, with uniform and with constant
confidences, and ``curve`` runs on each in every mode. The sha256 of each
output is pinned in ``DIGESTS``, or the error line where a writer or a
command refuses the file. None of these outputs takes a BLAS call or a
transcendental function, whose last bits depend on the CPU numpy runs on
or on the libm: the generator's uniform draws take integer and IEEE
arithmetic only. So the digests hold on any machine. ``eval``'s JSON is
left out: its cross entropy takes numpy's ``log``.

A second table, ``PIPELINE_DIGESTS``, pins the README pipeline (``synth
udist``, ``distill --train`` and ``--predict``, ``eval`` with each
confidence source) and ``ensemble`` of its test members. These outputs
pass through BLAS calls and numpy's CPU-dispatched kernels, so they are
asserted only where the build fingerprint (numpy's version, the dispatch
targets the CPU has, and the BLAS) matches ``PIPELINE_BUILD``; elsewhere
the test skips and names the fingerprint it saw.

A change that means to alter one of these outputs updates its digest and
says which and why.
"""

import hashlib

import numpy as np
import pytest

from uqkit.cli import main
from uqkit.records import (
    RecordFormat,
    parse_feature_records,
    parse_records,
    write_feature_records,
    write_records_csv,
    write_records_jsonl,
)

PREDICTIONS = {
    "canonical.jsonl": (
        '{"id":"a","probs":[0.7,0.2,0.1],"pred":0,"true":0,"conf":0.9,"tag":"id"}\n'
        '{"id":"b","probs":[0.1,0.6,0.3],"pred":1,"true":2,"conf":0.35,"tag":"id"}\n'
        '{"id":"c","probs":[0.25,0.25,0.5],"pred":2,"true":2,"conf":0.55,"tag":"id"}\n'
        '{"id":"d","probs":[0.4,0.45,0.15],"pred":1,"true":0,"conf":0.6,"tag":"id"}\n'
        '{"id":"e","probs":[0.05,0.05,0.9],"pred":2,"conf":0.8,"tag":"ood"}\n'
        '{"id":"f","probs":[0.8,0.1,0.1],"pred":0,"true":0,"conf":0.6,"tag":"id"}\n'
        '{"id":"g","probs":[0.3,0.3,0.4],"pred":2,"conf":0.2,"tag":"ood"}\n'
        '{"id":"h","probs":[0.2,0.7,0.1],"pred":1,"true":1,"conf":0.75,"tag":"id"}\n'
        '{"id":"i","probs":[0.5,0.3,0.2],"pred":0,"true":1,"conf":0.1,"tag":"id"}\n'
        '{"id":"j","probs":[0.15,0.15,0.7],"pred":2,"true":2,"conf":0.95,"tag":"id"}\n'
    ),
    # numeric ids, string numbers, ragged and missing probabilities, a missing
    # pred, integral float labels, a -0.0 confidence, a blank line, CRLF ends
    "odd.jsonl": (
        '{"id":7,"probs":[0.6,0.4],"true":0,"conf":0.8}\r\n'
        '{"id":"b","probs":["0.1","0.2","0.7"],"pred":"2","true":2,"conf":"0.75"}\r\n'
        '{"id":"c","pred":1,"true":0,"conf":0.3}\r\n'
        '\r\n'
        '{"id":"d","probs":[0.5,0.5],"pred":0,"true":1.0,"conf":0.6}\r\n'
        '{"id":"e","probs":[0.2,0.8],"conf":0.95,"tag":"ood"}\r\n'
        '{"id":2.5,"probs":[0.3,0.3,0.4],"pred":2.0,"true":2,"conf":-0.0}\r\n'
        '{"id":"g","pred":0,"true":0,"conf":0.65,"tag":"ood"}\r\n'
        '{"id":"h","probs":[1,0],"pred":0,"true":1,"conf":0.7,"tag":"id"}\r\n'
    ),
    "canonical.csv": (
        "id,pred,true,conf,tag,p0,p1\n"
        "a,0,0,0.9,id,0.8,0.2\n"
        "b,1,0,0.4,id,0.3,0.7\n"
        "c,0,0,0.7,id,0.6,0.4\n"
        "d,1,1,0.65,id,0.45,0.55\n"
        "e,0,,0.85,ood,0.9,0.1\n"
        "f,1,0,0.2,id,0.1,0.9\n"
        "g,1,,0.5,ood,0.25,0.75\n"
    ),
    # a quoted id holding a comma, rows without probabilities, pred or tag,
    # numeric ids, exponent and -0.0 cells, a blank line, CRLF ends
    "odd.csv": (
        "id,pred,true,conf,tag,p0,p1\r\n"
        "7,0,0,0.8,id,0.6,0.4\r\n"
        "b,1,,0.3,ood,,\r\n"
        "c,,1,0.7,,0.45,0.55\r\n"
        '"d,x",1,1,2.5e-1,id,1e-1,0.9\r\n'
        "\r\n"
        "e,0,1,0.6,id,0.5,0.5\r\n"
        "f,1,0,-0.0,id,0.3,0.7\r\n"
    ),
}

MULTILABEL = {
    "canonical.ml.jsonl": (
        '{"id":"a","probs":[0.9,0.2,0.6],"truths":[1,0,1],"tag":"id"}\n'
        '{"id":"b","probs":[0.3,0.8,0.4],"truths":[0,1,1],"tag":"id"}\n'
        '{"id":"c","probs":[0.55,0.1,0.7],"truths":[0,0,1],"tag":"id"}\n'
        '{"id":"d","probs":[0.2,0.5,0.95],"truths":[0,1,1],"tag":"ood"}\n'
        '{"id":"e","probs":[0.65,0.35,0.05],"truths":[1,1,0],"tag":"id"}\n'
    ),
    # numeric ids, string probabilities, ragged class counts, integral float
    # truths, a missing tag, a blank line, CRLF ends
    "odd.ml.jsonl": (
        '{"id":1,"probs":[0.9,"0.35"],"truths":[1,0]}\r\n'
        '{"id":"b","probs":[0.3,0.8,0.4],"truths":[0,1.0,1],"tag":"id"}\r\n'
        '\r\n'
        '{"id":"c","probs":[0.45],"truths":["1"],"tag":"ood"}\r\n'
        '{"id":4.5,"probs":[0.6,0.25,0.75],"truths":[0,0,1],"tag":"id"}\r\n'
    ),
}

FEATURES = {
    "canonical.features.jsonl": (
        '{"id":"a","features":[0.5,-1.25,3.0],"true":0}\n'
        '{"id":"b","features":[1e-05,2.5e+20,-0.0],"true":2}\n'
        '{"id":"c","features":[0.1,0.2,0.30000000000000004],"true":1}\n'
    ),
    # numeric ids, string numbers, ragged rows, an integral float label,
    # integer features, a blank line, CRLF ends
    "odd.features.jsonl": (
        '{"id":3,"features":[1,"2.5",-0.0],"true":1}\r\n'
        '\r\n'
        '{"id":"b","features":[0.125,5e-324],"true":2.0}\r\n'
        '{"id":"c","features":["-7",8.75,9.0,10],"true":0}\r\n'
    ),
}

# synth outcomes --n-correct 500 --n-incorrect 300 --seed 3, with these specs
SYNTHESIZED = {
    "synth uniform": (),
    "synth constant": ("--correct-dist", "constant:0.8", "--incorrect-dist", "constant:0.3"),
}

MODES = ("standard", "ood-unified", "io-auroc")
SOURCES = ("explicit", "max-softmax")

DIGESTS = {
    'canonical.jsonl jsonl': '2a099ac381227e3cad3480cb11e8c9d2b9232c9dd44b7a8ccd1bb87bc06244a8',
    'canonical.jsonl csv': 'dd9b3fc77c0b85d5ecda8f46bc526d4ee4aa382832e154932f8f4a25b5ec37e1',
    'canonical.jsonl curve standard explicit': 'eda3d06c7374277feb0d10fd25f9f022806217caa64c7d1df1ed50264ad9efd2',
    'canonical.jsonl curve standard max-softmax': 'b4d415bddc84b542cfcf98bfc53bcb49d15d5c676c337e520185a79cb43ea6af',
    'canonical.jsonl curve ood-unified explicit': '8f70d85d9637254ce46e9caac308776ced2c758f77ac946c524d03d0cfe5980c',
    'canonical.jsonl curve ood-unified max-softmax': '6255f5aa7d310e4e6c09b977317766c77e04044fca87779028e0e5e5f5239728',
    'canonical.jsonl curve io-auroc explicit': '11bd81fe180f0235d13e911e2c57fd47dd708aa0e461fae7a2d0755087b799e6',
    'canonical.jsonl curve io-auroc max-softmax': 'ecc8c1ba41dc72e012f840cc5d6b6473be0885123efdd74f3ac1a2849261b3fa',
    'odd.jsonl jsonl': '7bbd8af276baf32b416dbdd2d96d13db3c943ff96e1ca15c9f893a63dc21a3c6',
    'odd.jsonl csv': 'ValueError: records with differing class counts cannot share one CSV',
    'odd.jsonl curve standard explicit': '715a916b9cd3f28fa60867e070057c080d4bb08a7fbdf91aa8c411238db90b1e',
    'odd.jsonl curve standard max-softmax': "exit 1: error: record 'c': no probability vector",
    'odd.jsonl curve ood-unified explicit': 'd3630304b9145d55efc3fd5be46d95ee8746ea8c10c18444e0a89b11a1ddcfa9',
    'odd.jsonl curve ood-unified max-softmax': "exit 1: error: record 'c': no probability vector",
    'odd.jsonl curve io-auroc explicit': 'b2fd47abc387dce29cf13a5a3b9c158b7a39e34624115904cd75379f6583d8dd',
    'odd.jsonl curve io-auroc max-softmax': "exit 1: error: record 'c': no probability vector",
    'canonical.csv jsonl': '676db8890157cd8f594f70c1cea74754efcb81ece48bcc618eb067a48959f7c8',
    'canonical.csv csv': '995e6830191166e5e32a9c83e47589413f1ff3c790d983fbcbdec28693235111',
    'canonical.csv curve standard explicit': '2ddf5b378004cf44fea5f306370976be1b8878b70404d1d2e0cc49025e5c53da',
    'canonical.csv curve standard max-softmax': '5993d05804913141cd2c7c51a9462f88392a2c7b69317b4def4d32d92914f03b',
    'canonical.csv curve ood-unified explicit': 'a674dde4a8a32ada1510e1fef04575e251477f4dc9b65f8865098925bc6895a9',
    'canonical.csv curve ood-unified max-softmax': 'a406bd525e43980ba0912483d7a1ef063d3c9540a1a6b403bdf395188b9ffada',
    'canonical.csv curve io-auroc explicit': '25da0d91a7882631b6e0450460d448527c3f0db8b50a83691469bb8c4b680ef3',
    'canonical.csv curve io-auroc max-softmax': 'd82638391889bdeda1280df1a15bc7c81175e150424908a8b38070806334f797',
    'odd.csv jsonl': '778b3bdacd4fcdb548289f93699b25349ea7e9332d7b4ffb52756151436cc4af',
    'odd.csv csv': '36b783486b8676cfc8354bdf3f4b2f8269e00460f100c567740c19ada73a4566',
    'odd.csv curve standard explicit': '362824b1a995042ade6c023d70f26a49815a12f193ad7518df88b4b2c4c9b28e',
    'odd.csv curve standard max-softmax': '73e5f584453a23578c744880642cde780566212a7344738c0751655c8c047caf',
    'odd.csv curve ood-unified explicit': '749a8e91eb806541e62d3582bba2696f7af38f74f61175851eb8a217fc605a7e',
    'odd.csv curve ood-unified max-softmax': "exit 1: error: record 'b': no probability vector",
    'odd.csv curve io-auroc explicit': 'd3a961a3580e38814d815149cf8cd789cb4113f8a0731bb24f829d2d46648be1',
    'odd.csv curve io-auroc max-softmax': "exit 1: error: record 'b': no probability vector",
    'canonical.ml.jsonl curve multi-label': 'c88af4c1dcc90176955beb3199e10fcc5c78d580573ea8085b02eb4033ad1c6f',
    'odd.ml.jsonl curve multi-label': '920baba11f5e234b6d32b9446d9ad7f94ce6d5ffaef50e27cc33c9eddc02d510',
    'synth uniform': 'c2e9284a680d44fbe3d3d2951099707df9d94d7b3b34d97c38458215bfe2c7d6',
    'synth uniform curve standard': 'deb5ce8c45266459f78cc85f73541bf7a6f915b7bd4e791ffd7688b7e6eabda9',
    'synth uniform curve ood-unified': 'deb5ce8c45266459f78cc85f73541bf7a6f915b7bd4e791ffd7688b7e6eabda9',
    'synth uniform curve io-auroc': "exit 2: error: degenerate outcomes: io-auroc mode: no out-of-distribution ('ood') record in input",
    'synth constant': '64db624e7e40658b66220887cb57c00de7c8ca0f156e4f56b7d58e4723a0f228',
    'synth constant curve standard': '649a992c60e8ee2e93ef37e2367b698c53935b0a0fe925b9ab354cb1b529b4b4',
    'synth constant curve ood-unified': '649a992c60e8ee2e93ef37e2367b698c53935b0a0fe925b9ab354cb1b529b4b4',
    'synth constant curve io-auroc': "exit 2: error: degenerate outcomes: io-auroc mode: no out-of-distribution ('ood') record in input",
    'canonical.features.jsonl features': '60def70e4a855e990e93b4cea5b59230bc2774cccd15ffbfd1353184c41b1014',
    'odd.features.jsonl features': '62b2f58abb11620a3f4bf2271d9e24eddc626f99c01853066ca769492d1bf142',
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def written(write, table) -> str:
    """The sha256 of a writer's output, or the error it raises."""
    try:
        return sha(write(table))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def cli_out(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def cli_digest(capsys, *argv) -> str:
    """The sha256 of a command's output, or its exit code and error line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return sha(captured.out) if code == 0 else f"exit {code}: {captured.err.strip()}"


def outputs(tmp_path, capsys) -> dict[str, str]:
    """Every pinned output's digest, by name."""
    got = {}
    for name, text in PREDICTIONS.items():
        fmt = RecordFormat.for_path(tmp_path / name)
        table = parse_records(text.encode(), fmt)
        got[f"{name} jsonl"] = written(write_records_jsonl, table)
        got[f"{name} csv"] = written(write_records_csv, table)
        (tmp_path / name).write_bytes(text.encode())
        for mode in MODES:
            for source in SOURCES:
                got[f"{name} curve {mode} {source}"] = cli_digest(
                    capsys, "curve", str(tmp_path / name), "--mode", mode,
                    "--confidence-source", source)
    for name, text in MULTILABEL.items():
        (tmp_path / name).write_bytes(text.encode())
        got[f"{name} curve multi-label"] = cli_digest(
            capsys, "curve", str(tmp_path / name), "--mode", "multi-label")
    for name, specs in SYNTHESIZED.items():
        text = cli_out(capsys, "synth", "outcomes", "--n-correct", "500", "--n-incorrect", "300",
                       "--seed", "3", *specs)
        got[name] = sha(text)
        path = tmp_path / f"{name.replace(' ', '.')}.jsonl"
        path.write_text(text)
        for mode in MODES:
            got[f"{name} curve {mode}"] = cli_digest(capsys, "curve", str(path), "--mode", mode)
    for name, text in FEATURES.items():
        got[f"{name} features"] = written(write_feature_records,
                                          parse_feature_records(text.encode()))
    return got


def test_outputs_keep_their_digests(tmp_path, capsys):
    got = outputs(tmp_path, capsys)
    assert got.keys() == DIGESTS.keys()
    assert {name: got[name] for name in got if got[name] != DIGESTS[name]} == {}


# the build the pipeline digests were recorded on (see build_fingerprint)
PIPELINE_BUILD = {
    "numpy": "2.4.6",
    "cpu dispatch": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
    "blas": {"name": "scipy-openblas", "version": "0.3.31.188.0",
             "openblas configuration": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH "
                                       "NO_AFFINITY Haswell MAX_THREADS=64"},
}
PIPELINE_DIGESTS = {
    "model.json": "2023daba90dfe1378be0f4626e8a63228559e87587e84297726fd5038afaadc7",
    "preds.jsonl": "457d22f695ae382480ef170cb76fc7f6b4bd49056ad64117476b48fce9228d51",
    "eval explicit": "da40b22f7726b84dd6e494c6a5c69de95d0291dd93afb24fda6f17556d441e59",
    "eval max-softmax": "942b3763625bdec8060aa0cf47ed82a0f3b2deaefa09a82cd8160bd99eaf431f",
    "ensemble": "8288712bb85b8ae8f28834fa613d4be8e3ef52174a72e08c1e233222f74878fd",
}


def build_fingerprint() -> dict:
    """The numpy version, the dispatch targets this CPU has, and the BLAS's name and build."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without the dicts mode
        blas = {}
    return {
        "numpy": np.__version__,
        "cpu dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
        "blas": {key: blas.get(key) for key in PIPELINE_BUILD["blas"]},
    }


def pipeline_outputs(tmp_path, capsys) -> dict[str, str]:
    """The digests of the README pipeline's outputs and of ensemble of its test members."""
    task, model, preds = tmp_path / "task", tmp_path / "model.json", tmp_path / "preds.jsonl"
    members = {split: [str(task / f"{split}.member{m}.jsonl") for m in range(4)]
               for split in ("train", "test")}
    cli_out(capsys, "synth", "udist", "--out-dir", str(task), "--seed", "7")
    cli_out(capsys, "distill", "--train", str(task / "train.features.jsonl"),
            "--ensemble-dirs", *members["train"], "--temperature-train", "8", "--seed", "0",
            "--out", str(model))
    cli_out(capsys, "distill", "--predict", "--model", str(model),
            "--data", str(task / "test.features.jsonl"), "--ensemble-dirs", *members["test"],
            "--temperature", "3", "--out", str(preds))
    return {
        "model.json": sha(model.read_text()),
        "preds.jsonl": sha(preds.read_text()),
        **{f"eval {source}": sha(cli_out(capsys, "eval", str(preds), "--confidence-source",
                                         source)) for source in SOURCES},
        "ensemble": sha(cli_out(capsys, "ensemble", *members["test"])),
    }


def test_pipeline_outputs_keep_their_digests(tmp_path, capsys):
    fingerprint = build_fingerprint()
    if fingerprint != PIPELINE_BUILD:
        pytest.skip(f"digests recorded on another numpy build or CPU; this one is {fingerprint}")
    got = pipeline_outputs(tmp_path, capsys)
    assert {name: got[name] for name in got if got[name] != PIPELINE_DIGESTS[name]} == {}


def large_shaped(n: int = 400, k: int = 10, seed: int = 5) -> tuple[str, str]:
    """Records shaped as the benchmark's large eval input, as JSON Lines and as CSV.

    A classifier of varying skill with an informative explicit confidence;
    one record in ten is out of distribution and carries no true label.
    """
    rng = np.random.default_rng(seed)
    true = rng.integers(k, size=n)
    logits = rng.normal(size=(n, k))
    logits[np.arange(n), true] += rng.gamma(2.0, 1.0, size=n)
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = exp / exp.sum(axis=1, keepdims=True)
    ood = rng.random(n) < 0.1
    correct = (probs.argmax(axis=1) == true) & ~ood
    conf = 1.0 / (1.0 + np.exp(-(1.5 * correct - 0.75 + rng.normal(size=n))))
    jsonl, csv = [], ["id,pred,true,conf,tag," + ",".join(f"p{j}" for j in range(k))]
    for i, (row, c, o, t) in enumerate(zip(probs.tolist(), conf.tolist(), ood.tolist(),
                                          true.tolist())):
        cells, pred, tag = ",".join(map(repr, row)), row.index(max(row)), "ood" if o else "id"
        label = "" if o else str(t)
        jsonl.append(f'{{"id":"r{i:05d}","probs":[{cells}],"pred":{pred}'
                     + (f',"true":{label}' if label else "")
                     + f',"conf":{c!r},"tag":"{tag}"}}')
        csv.append(f"r{i:05d},{pred},{label},{c!r},{tag},{cells}")
    return "\n".join(jsonl) + "\n", "\n".join(csv) + "\n"


@pytest.mark.parametrize("source", ["explicit", "max-softmax"])
@pytest.mark.parametrize("mode", MODES)
def test_jsonl_and_csv_of_the_same_records_give_the_same_curve(tmp_path, capsys, mode, source):
    jsonl, csv = large_shaped()
    (tmp_path / "large.jsonl").write_text(jsonl)
    (tmp_path / "large.csv").write_text(csv)
    curves = [cli_out(capsys, "curve", str(tmp_path / name), "--mode", mode,
                      "--confidence-source", source) for name in ("large.jsonl", "large.csv")]
    assert curves[0] == curves[1] and curves[0].count("\n") > 100


@pytest.mark.parametrize("mode", MODES)
def test_eval_curve_out_writes_the_curve_bytes(tmp_path, capsys, mode):
    jsonl, _ = large_shaped()
    path = tmp_path / "large.jsonl"
    path.write_text(jsonl)
    curve = cli_out(capsys, "curve", str(path), "--mode", mode)
    cli_out(capsys, "eval", str(path), "--mode", mode, "--curve-out", str(tmp_path / "c.csv"))
    assert (tmp_path / "c.csv").read_text() == curve
