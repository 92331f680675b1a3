#!/usr/bin/env python3
"""uqkit benchmark: runs one workload through the real CLI and prints its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload udist_pipeline --seed 7 --seconds 25 --trace 0

With ``--trace 0`` every command runs as its own ``python -m uqkit.cli``
process, one at a time in a closed loop, and the run
reports end-to-end times. With ``--trace 1`` the same commands run
in-process through ``uqkit.cli.main`` with span wrappers installed, and
the run reports per-layer self times and counts. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Each command's outputs are checked by the
independent oracles in ``oracles.py``; a command that exits non-zero or
fails a check counts as failed. Per-run details (provenance, samples,
spans) go to ``.perfbench_runs/results/``.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
# fixed before numpy loads, so in-process runs and child processes do the
# same floating-point work and write byte-identical outputs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import functools
import gzip
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

import numpy as np

import gen
import oracles
import spans
from workloads import (DEFAULT_UDIST_N, LARGE_K, METRICS, PROFILES, SMOKE, UDIST_MEMBERS, WIDE_D,
                       WIDE_K, WIDE_MEMBERS, Command, Profile, criterion_script, script)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 3
LIGHT_REPEATS = 3  # runs per pass of a profile's short commands
IMPORT_PROBES = 3  # fresh-interpreter imports of uqkit alone in a traced run
COMMAND_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0  # no new pass starts past this, so a run ends within 180 s

IMPORT_PROBE = "import time; t = time.perf_counter(); import uqkit.cli; print(time.perf_counter() - t)"
LAYER_IMPORT_PROBE = "import numpy; " + IMPORT_PROBE


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONIOENCODING="utf-8")
    return env


def run_child(args: list[str], stdout: Path, stderr: Path) -> tuple[int, float]:
    """Run one process to completion; return its exit code and wall seconds.

    A process killed for running past the timeout exits with code -9. The
    timeout is a timer beside a blocking wait: ``wait(timeout=...)`` polls
    with sleeps of up to 50 ms and so would add up to that to every wall time.
    """
    with open(stdout, "wb") as out, open(stderr, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
        return code, time.perf_counter() - start


def import_seconds(probe: str, logs: Path) -> float:
    code, _ = run_child([sys.executable, "-c", probe], logs / "import.out", logs / "import.err")
    if code != 0:
        raise RuntimeError(f"import probe failed; see {logs / 'import.err'}")
    return float((logs / "import.out").read_text())


def cli_args(cmd: Command) -> list[str]:
    return [sys.executable, "-m", "uqkit.cli", *cmd.argv]


# ---------------------------------------------------------------------------
# set-up and output checks
# ---------------------------------------------------------------------------


def setup(profile: Profile, seed: int, work: Path, repeats: int):
    """Generate the inputs and warm the program up; return inputs and per-repeat seconds."""
    samples = []
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    for _ in range(repeats):
        shutil.rmtree(work / "inputs", ignore_errors=True)
        start = time.perf_counter()
        inputs = gen.make_inputs(profile, seed, work / "inputs")
        code, _ = run_child([sys.executable, "-m", "uqkit.cli", "--version"],
                            logs / "warmup.out", logs / "warmup.err")
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"warm-up failed; see {logs / 'warmup.err'}")
    return inputs, samples


def digests(out: Path, cmd: Command) -> dict[str, str]:
    files = [out / "stdout" / f"{cmd.name}.out"]
    for rel in cmd.outputs:
        path = out / rel
        files += sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files if p.exists()}


def check_outputs(profile: Profile, inputs: gen.Inputs, out: Path, commands: list[Command]):
    """Run every oracle on one pass's outputs: failures per command, and the margin."""
    task = out / "task"
    stdout = {c.name: (out / "stdout" / f"{c.name}.out").read_bytes()
              if (out / "stdout" / f"{c.name}.out").exists() else b"" for c in commands}
    fails: dict[str, list[str]] = {c.name: [] for c in commands}
    reports: dict[str, float | None] = {}
    guarded = functools.partial(guard, fails)

    fails["synth"] += guarded("synth", lambda: oracles.check_synth(out, profile.udist_n)) or []
    fails["train"] += guarded("train", lambda: oracles.check_train(out)) or []

    def predict_inputs():
        if profile.wide_n:
            return (inputs.wide_ids, inputs.wide_features, inputs.wide_members, inputs.wide_true,
                    inputs.files["wide_model.json"])
        return (*udist_test_split(task), out / "model.json")

    pin = guarded("predict", predict_inputs)
    if pin is not None:
        ids, features, members, true, model = pin
        fails["predict"] += guarded("predict", lambda: oracles.check_predict(
            out / "preds.jsonl", model, ids, features, members, true)) or []
        fails["ensemble"] += guarded("ensemble", lambda: oracles.check_ensemble(
            out / "ensemble.jsonl", ids, members, true)) or []

    evaluated = inputs.large if profile.large_n else guarded(
        "eval_explicit", lambda: oracles.read_predictions(out / "preds.jsonl"))
    if evaluated is not None:
        for name, source in (("eval_explicit", "explicit"), ("eval_maxsoftmax", "max-softmax")):
            correct, conf = oracles.standard_outcomes(evaluated, source)
            result = guarded(name, lambda: oracles.check_report(name, stdout[name], correct, conf))
            if result is not None:
                fails[name] += result[0]
                reports[name] = result[1]
        correct, conf = oracles.standard_outcomes(evaluated, "explicit")
        fails["eval_explicit"] += guarded("eval_explicit", lambda: oracles.check_curve_csv(
            "eval --curve-out", out / "eval_curve.csv", correct, conf)) or []
        correct, conf = oracles.unified_max_softmax(evaluated)
        fails["curve"] += guarded("curve", lambda: oracles.check_curve_csv(
            "curve", out / "curve.csv", correct, conf)) or []
    correct, conf = oracles.multilabel_outcomes(inputs.multilabel)
    result = guarded("eval_multilabel", lambda: oracles.check_report(
        "eval multi-label", stdout["eval_multilabel"], correct, conf))
    if result is not None:
        fails["eval_multilabel"] += result[0]

    margin = None
    if reports.get("eval_explicit") is not None and reports.get("eval_maxsoftmax") is not None:
        margin = reports["eval_explicit"] - reports["eval_maxsoftmax"]
    return fails, margin


def guard(fails: dict[str, list[str]], name: str, check):
    """Run one oracle; a malformed output fails the command's check, not the run."""
    try:
        return check()
    except Exception as exc:
        fails[name].append(f"oracle raised {type(exc).__name__}: {exc}")
        return None


def udist_test_split(task: Path):
    """Ids, features, (n, M, K) member probabilities and labels of a synth udist test split."""
    ids, features, true = oracles.read_features(task / "test.features.jsonl")
    _, members, _ = oracles.read_members(
        [task / f"test.member{m}.jsonl" for m in range(UDIST_MEMBERS)])
    return ids, features, members, true


def criterion_check(work: Path, tally: Tally) -> float | None:
    """Acceptance criterion 7 through the CLI, unmeasured; return its margin.

    The default pipeline (no seed, sizes or epochs given) must give an
    explicit AUCCC at least ``MARGIN_GATE`` above the max-softmax one. The
    gate holds on the default task only: on some seeded tasks the margin
    falls below it while every output is right, so there the margin is a
    measurement (``distill.margin``), not a check.
    """
    out, logs = work / "criterion", work / "logs"
    commands = criterion_script(out)
    codes, _, _ = child_pass(commands, None, out, logs, repeat_light=False)
    fails: dict[str, list[str]] = {c.name: [] for c in commands}
    guarded = functools.partial(guard, fails)
    fails["c7_synth"] += guarded("c7_synth", lambda: oracles.check_synth(out, DEFAULT_UDIST_N)) or []
    fails["c7_train"] += guarded("c7_train", lambda: oracles.check_train(out)) or []
    split = guarded("c7_predict", lambda: udist_test_split(out / "task"))
    if split is not None:
        fails["c7_predict"] += guarded("c7_predict", lambda: oracles.check_predict(
            out / "preds.jsonl", out / "model.json", *split)) or []
    preds = guarded("c7_eval_explicit", lambda: oracles.read_predictions(out / "preds.jsonl"))
    reports = {}
    if preds is not None:
        for name, source in (("c7_eval_explicit", "explicit"), ("c7_eval_maxsoftmax", "max-softmax")):
            correct, conf = oracles.standard_outcomes(preds, source)
            stdout = (out / "stdout" / f"{name}.out").read_bytes()
            result = guarded(name, lambda: oracles.check_report(name, stdout, correct, conf))
            if result is not None:
                fails[name] += result[0]
                reports[name] = result[1]
    margin = None
    if reports.get("c7_eval_explicit") is not None and reports.get("c7_eval_maxsoftmax") is not None:
        margin = reports["c7_eval_explicit"] - reports["c7_eval_maxsoftmax"]
        if margin < oracles.MARGIN_GATE:
            fails["c7_eval_explicit"].append(
                f"default-task distillation margin {margin:.4f} < {oracles.MARGIN_GATE}")
    for c in commands:
        tally.record(c.name, fails[c.name] + [f"exit code {code}" for code in codes[c.name] if code])
    return margin


def distilled(profile: Profile) -> bool:
    """Whether the workload's eval reads distilled predictions, so criterion 7 is checked beside it."""
    return not (profile.large_n or profile.wide_n)


class Tally:
    """Commands attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, name: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons += [f"{name}: {r}" for r in reasons]


def verify_pass(profile, inputs, out, commands, codes, reference, tally: Tally):
    """Check one pass: oracles on the first, byte-identical outputs on later ones."""
    if reference is None:
        fails, margin = check_outputs(profile, inputs, out, commands)
        reference = {c.name: digests(out, c) for c in commands}
    else:
        fails = {c.name: [] if digests(out, c) == reference[c.name]
                 else ["outputs differ from the first pass"] for c in commands}
        margin = None
    for c in commands:
        for code in codes[c.name]:
            tally.record(c.name, fails[c.name] + ([f"exit code {code}"] if code else []))
    return reference, margin


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def child_pass(commands, profile, out, logs, repeat_light=True, probe=False):
    """Run the script once as child processes; return exit codes, walls and import times.

    Short commands run again in later rounds, and an import probe follows
    each command of the first round, so that their samples spread over the
    pass instead of bunching at one moment of the machine's load.
    """
    (out / "stdout").mkdir(parents=True, exist_ok=True)
    codes, walls, imports = defaultdict(list), defaultdict(list), []
    rounds = LIGHT_REPEATS if repeat_light else 1
    for round_ in range(rounds):
        for cmd in commands:
            if round_ and cmd.metric not in profile.light:
                continue
            code, wall = run_child(cli_args(cmd), out / "stdout" / f"{cmd.name}.out",
                                   logs / f"{cmd.name}.err")
            codes[cmd.name].append(code)
            walls[cmd.name].append(wall)
            if probe and not round_:
                imports.append(import_seconds(IMPORT_PROBE, logs))
    return codes, walls, imports


def untraced_run(profile, seed, seconds, work, record):
    tally = Tally()
    inputs, setup_samples = setup(profile, seed, work, SETUP_REPEATS)
    out, logs = work / "out", work / "logs"
    commands = script(profile, seed, work / "inputs", out)
    walls, imports, measured = defaultdict(list), [], 0.0
    reference = margin = None
    while True:
        start = time.perf_counter()
        codes, pass_walls, pass_imports = child_pass(commands, profile, out, logs, probe=True)
        imports += pass_imports
        measured += time.perf_counter() - start
        for name, w in pass_walls.items():
            walls[name] += w
        if reference is None:
            reference, margin = verify_pass(profile, inputs, out, commands, codes, None, tally)
        else:
            verify_pass(profile, inputs, out, commands, codes, reference, tally)
        if measured >= seconds or measured * 2 > RUN_LIMIT_S:
            break
    # the largest child is a CLI command: warm-ups and import probes only import uqkit
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    med = {c.name: statistics.median(walls[c.name]) for c in commands}
    metrics = {f"{m}_s": (sum(med[c.name] for c in commands if c.metric == m), "s") for m in METRICS}
    metrics.update(
        total_s=(sum(med.values()), "s"),
        import_s=(statistics.median(imports), "s"),
        setup_s=(statistics.median(setup_samples), "s"),
        peak_rss_mib=(rss_kib / 1024, "MiB"),
    )
    record.update(inputs=input_digests(inputs), output_sha256=reference, setup_samples=setup_samples,
                  command_samples=dict(walls), import_samples=imports, distill_margin=margin)
    return tally, metrics


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def in_process_pass(main, commands, out, logs, tracer=None):
    """Run the script through ``main(argv)`` in this process; return codes and walls.

    A command's wall time includes redirecting its output, so that it is
    the whole traced time the spans must account for.
    """
    (out / "stdout").mkdir(parents=True, exist_ok=True)
    codes, walls = {}, {}
    for cmd in commands:
        saved = sys.stdout, sys.stderr
        start = time.perf_counter()
        with open(out / "stdout" / f"{cmd.name}.out", "w", encoding="utf-8") as sys.stdout, \
                open(logs / f"{cmd.name}.inproc.err", "a", encoding="utf-8") as sys.stderr:
            try:
                argv = list(cmd.argv)
                code = main(argv) if tracer is None else tracer.run(cmd.name, main, argv)
            except Exception:  # an escaped exception is a failed command, not a failed run
                traceback.print_exc()
                code = 1
            finally:
                sys.stdout.flush()
                sys.stdout, sys.stderr = saved
        codes[cmd.name], walls[cmd.name] = [code], time.perf_counter() - start
    return codes, walls


def load_program():
    """Import uqkit from this checkout's sources, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"uqkit.{name}") for name in spans.LAYERS}
    location = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise RuntimeError(f"uqkit was imported from {location}, not from {SRC}")
    return modules


def soften_rows(profile: Profile) -> int:
    """Rows softened for a consumer: training examples, predicted and ensembled records."""
    applied = profile.wide_n or profile.udist_n
    return profile.udist_n + 2 * applied


def layer_metrics(profile, tracer, walls, plain_walls) -> dict:
    selfs, durs, counts = defaultdict(float), defaultdict(float), defaultdict(int)
    recorded = tracer.spans
    self_main = defaultdict(float)
    for (command, name), value in spans.self_times(recorded).items():
        selfs[name] += value
        if name == "cli.main":
            self_main[command] += value
    per_command = spans.durations(recorded)
    for (_, name), value in per_command.items():
        durs[name] += value
    for (_, key), value in tracer.counts.items():
        counts[key] += value
    # named spans over the command's whole traced wall time: coverage counts cli.self
    # as one, layer_coverage leaves it out
    coverage = min(per_command[(name, "cli.main")] / wall for name, wall in walls.items())
    layer_coverage = min((per_command[(name, "cli.main")] - self_main[name]) / wall
                         for name, wall in walls.items())
    epochs = counts["distill.loop.epochs"]
    return {
        "records.parse_s": selfs["records.parse"],
        "records.parse_items": counts["records.parse.items"],
        "records.parse_bytes": counts["records.parse.bytes"],
        "records.write_s": selfs["records.write"],
        "records.write_items": counts["records.write.items"],
        "records.derive_s": selfs["records.derive"],
        "records.build_s": selfs["records.build"] + selfs["taskio.build"],
        "taskio.parse_features_s": selfs["taskio.parse_features"],
        "taskio.align_s": selfs["taskio.align"],
        "ensemble.soften_s": selfs["ensemble.average"] + selfs["ensemble.temperature"],
        "ensemble.soften_calls": counts["ensemble.temperature.calls"],
        "ensemble.soften_per_row": counts["ensemble.temperature.calls"] / soften_rows(profile),
        "rng.permutation_s": selfs["rng.permutation"],
        "rng.draws": counts["rng.draws"],
        "synth.gen_s": selfs["synth.gen"],
        "distill.init_s": selfs["distill.init"],
        "distill.cascade_s": selfs["distill.cascade"],
        "distill.grad_s": selfs["distill.grad"],
        "distill.grad_calls": counts["distill.grad.calls"],
        "distill.epoch_s": durs["distill.loop"] / epochs if epochs else 0.0,
        "distill.fit_s": durs["distill.fit"],
        "distill.forward_s": selfs["distill.forward"],
        "distill.model_io_s": selfs["distill.model_io"],
        "ccc.evaluate_s": selfs["ccc.evaluate"],
        "ccc.curve_points": counts["ccc.evaluate.curve_points"],
        "ccc.emit_json_s": selfs["ccc.emit_json"],
        "ccc.emit_csv_s": selfs["ccc.emit_csv"],
        "scoring.score_s": selfs["scoring.score"],
        "cli.self_s": selfs["cli.main"],
        "trace.coverage": coverage,
        "trace.layer_coverage": layer_coverage,
        "trace.overhead_s": sum(walls.values()) - sum(plain_walls.values()),
    }


def layer_table(tracer, walls) -> list[str]:
    """Per-command self seconds by layer.

    ``cover`` is the share of the command's wall time inside named spans,
    ``cli.self`` included; ``layers`` leaves ``cli.self`` out.
    """
    by_layer = defaultdict(float)
    recorded = tracer.spans
    for (command, name), value in spans.self_times(recorded).items():
        layer = "cli.self" if name == "cli.main" else name.split(".")[0]
        by_layer[(command, layer)] += value
    main_durations = spans.durations(recorded)
    columns = ("cli.self",) + spans.LAYERS
    lines = ["command           wall_s  cover layers " + " ".join(f"{c:>8}" for c in columns)]
    for command, wall in walls.items():
        cover = main_durations[(command, "cli.main")] / wall
        layers = cover - by_layer[(command, "cli.self")] / wall
        cells = " ".join(f"{by_layer[(command, c)]:8.3f}" for c in columns)
        lines.append(f"{command:<16} {wall:7.3f} {cover:6.1%} {layers:6.1%} {cells}")
    return lines


def traced_run(profile, seed, seconds, work, record):
    tally = Tally()
    inputs, _ = setup(profile, seed, work, 1)
    logs = work / "logs"
    ref_commands = script(profile, seed, work / "inputs", work / "ref")
    start = time.perf_counter()
    codes, _, _ = child_pass(ref_commands, profile, work / "ref", logs, repeat_light=False)
    measured = time.perf_counter() - start
    reference, margin = verify_pass(profile, inputs, work / "ref", ref_commands, codes, None, tally)
    modules = load_program()
    layer_import = [import_seconds(LAYER_IMPORT_PROBE, logs) for _ in range(IMPORT_PROBES)]
    samples = defaultdict(list)
    while True:
        start = time.perf_counter()
        plain = script(profile, seed, work / "inputs", work / "plain")
        codes, plain_walls = in_process_pass(modules["cli"].main, plain, work / "plain", logs)
        verify_pass(profile, inputs, work / "plain", plain, codes, reference, tally)
        tracer = spans.Tracer()
        traced = script(profile, seed, work / "inputs", work / "traced")
        tracer.install(modules)
        try:
            codes, walls = in_process_pass(modules["cli"].main, traced, work / "traced", logs, tracer)
        finally:
            tracer.uninstall()
        verify_pass(profile, inputs, work / "traced", traced, codes, reference, tally)
        for key, value in layer_metrics(profile, tracer, walls, plain_walls).items():
            samples[key].append(value)
        measured += time.perf_counter() - start
        if measured >= seconds or measured * 2 > RUN_LIMIT_S:
            break
    table = layer_table(tracer, walls)
    print("\n".join(table))
    metrics = {key: (statistics.median(values), UNITS.get(key, "s")) for key, values in samples.items()}
    metrics["cli.import_s"] = (statistics.median(layer_import), "s")
    metrics["distill.margin"] = (margin if margin is not None else 0.0, "auccc")
    record.update(inputs=input_digests(inputs), output_sha256=reference, layer_table=table,
                  layer_samples=dict(samples), cli_import_samples=layer_import)
    record["spans_file"] = write_spans(tracer, record["name"])
    return tally, metrics


UNITS = {
    "records.parse_items": "count", "records.parse_bytes": "bytes", "records.write_items": "count",
    "ensemble.soften_calls": "count", "ensemble.soften_per_row": "calls/row", "rng.draws": "count",
    "distill.grad_calls": "count", "ccc.curve_points": "count", "trace.coverage": "ratio",
    "trace.layer_coverage": "ratio",
}


def write_spans(tracer, name: str) -> str:
    path = RUNS / "results" / f"{name}-spans.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(asdict(s)) + "\n")
        for (command, key), value in sorted(tracer.counts.items()):
            fh.write(json.dumps({"command": command, "count": key, "value": value}) + "\n")
    return str(path.relative_to(ROOT))


# ---------------------------------------------------------------------------
# provenance and entry point
# ---------------------------------------------------------------------------


def input_digests(inputs: gen.Inputs) -> dict:
    return {name: {"bytes": p.stat().st_size, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
            for name, p in sorted(inputs.files.items())}


def provenance(workload: str, profile: Profile, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "uqkit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
               platform.processor() or None) if Path("/proc/cpuinfo").exists() else None
    return {
        "workload": workload, "seed": seed,
        "sizes": {**asdict(profile), "large_k": LARGE_K, "wide_k": WIDE_K, "wide_d": WIDE_D,
                  "wide_members": WIDE_MEMBERS},
        "git_commit": commit, "source_sha256": source.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs that check the benchmark itself in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "uqkit" / "cli.py").is_file():
        print(f"error: no uqkit sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    profile = (SMOKE if args.sizes == "smoke" else PROFILES)[args.workload]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.sizes}"
    work = RUNS / "work" / f"{name}-{os.getpid()}"
    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    record = {"name": name, "provenance": provenance(args.workload, profile, args.seed)}
    try:
        run = traced_run if args.trace else untraced_run
        tally, metrics = run(profile, args.seed, args.seconds, work, record)
        if distilled(profile):
            record["criterion7_margin"] = criterion_check(work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(attempted=tally.attempted, failed=tally.failed, failures=tally.reasons)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (RUNS / "results" / f"{name}.json").write_text(json.dumps(record, indent=1))
    for reason in tally.reasons:
        print(f"FAIL {reason}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
