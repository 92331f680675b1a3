"""Span tracing of uqkit from outside, by wrapping each layer's entry points.

Each wrapper replaces a module or class attribute as its callers look it
up (``uqkit.cli.parse_records``, ``uqkit.distill.loss_and_grads``,
``PortableRng.permutation``, ...) and records a span: command, span id,
parent span id, name, start and end in nanoseconds. Spans stay in memory
until the run writes them out. A span's self time is its duration minus
the durations of its child spans. Layers are the package modules; a
span's layer is the part of its name before the dot.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "records", "taskio", "ensemble", "distill", "rng", "synth", "ccc", "scoring")


def _parsed(args, result):
    return {"items": len(result), "bytes": len(args[0])}


def _written(args, result):
    return {"items": len(args[0])}


def _curve_points(args, result):
    return {"curve_points": len(result.curve) if hasattr(result, "curve") else len(result)}


def _calls(args, result):
    return {"calls": 1}


def _epochs(args, result):
    return {"epochs": len(result.epoch_losses)}


# (module under uqkit, attribute, span name, counter) for module-level names;
# the module is the one whose code calls the name
FUNCTIONS = [
    ("cli", "parse_records", "records.parse", _parsed),
    ("cli", "parse_multilabel_records", "records.parse", _parsed),
    ("taskio", "parse_records", "records.parse", _parsed),
    ("cli", "write_records_jsonl", "records.write", _written),
    ("cli", "derive_outcomes", "records.derive", None),
    ("cli", "derive_io_outcomes", "records.derive", None),
    ("cli", "binarize_multilabel", "records.derive", None),
    ("cli", "PredictionRecord", "records.build", None),
    ("cli", "first_argmax", "records.build", None),
    ("cli", "FeatureRecord", "taskio.build", None),
    ("cli", "parse_feature_records", "taskio.parse_features", _parsed),
    ("cli", "write_feature_records", "taskio.write_features", _written),
    ("cli", "collect_member_paths", "taskio.load", None),
    ("cli", "load_member_records", "taskio.load", None),
    ("cli", "align_members", "taskio.align", None),
    ("cli", "average_probs", "ensemble.average", None),
    ("cli", "temperature_scale", "ensemble.temperature", _calls),
    ("distill", "average_probs", "ensemble.average", None),
    ("distill", "temperature_scale", "ensemble.temperature", _calls),
    ("cli", "make_cascade_examples", "distill.cascade", None),
    ("cli", "cascade_inputs", "distill.cascade", None),
    ("cli", "train_confidence_model", "distill.fit", None),
    ("distill", "init_confidence_model", "distill.init", None),
    ("distill", "_fit", "distill.loop", _epochs),
    ("distill", "loss_and_grads", "distill.grad", _calls),
    ("cli", "gen_udist_task", "synth.gen", None),
    ("cli", "gen_outcomes", "synth.gen", None),
    ("cli", "evaluate", "ccc.evaluate", _curve_points),
    ("cli", "ccc_curve", "ccc.evaluate", _curve_points),
    ("cli", "curve_to_csv", "ccc.emit_csv", None),
    ("cli", "score_outcomes", "scoring.score", None),
    # the CLI's own steps, so that only dispatch and inline loops stay unattributed
    ("cli", "_load_outcomes", "cli.load", None),
    ("cli", "_aligned_task", "cli.align_task", None),
    ("cli", "_emit", "cli.emit", None),
]

# (module, class, attribute, span name) for methods
METHODS = [
    ("distill", "ConfidenceModel", "from_json", "distill.model_io"),
    ("distill", "ConfidenceModel", "to_json", "distill.model_io"),
    ("distill", "ConfidenceModel", "forward", "distill.forward"),
    ("ccc", "AucccReport", "to_dict", "ccc.emit_json"),
    ("rng", "PortableRng", "permutation", "rng.permutation"),
]


@dataclass(frozen=True)
class Span:
    command: str
    sid: int
    parent: int  # -1 for a command's root span
    name: str
    start_ns: int
    end_ns: int


_MISSING = object()


class _JsonProxy:
    """Stands in for the ``json`` module inside ``uqkit.cli`` with a traced ``dumps``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._raw: list[tuple | None] = []  # (command, parent, name, start, end) per span id
        self._stack = [-1]
        self._command = [""]
        self._patched: list[tuple[object, str, object]] = []
        self._draws = [0]

    def wrap(self, name: str, fn, counter=None):
        """``fn`` with a span around each call.

        The clock reads open and close the wrapper, so a span's duration
        includes its own bookkeeping (about a microsecond) and the parent's
        self time does not.
        """
        raw, stack, clock = self._raw, self._stack, time.perf_counter_ns
        append, push, pop = raw.append, stack.append, stack.pop
        counts, command = self.counts, self._command

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            sid = len(raw)
            append(None)
            push(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop()
                raw[sid] = (command[0], stack[-1], name, start, clock())
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[(command[0], f"{name}.{key}")] += value
            return result

        return traced

    def _patch(self, owner, attr: str, new, original=_MISSING) -> None:
        setattr(owner, attr, new)
        self._patched.append((owner, attr, original))

    def install(self, uqkit_modules: dict) -> None:
        """Wrap every traced entry point; ``uqkit_modules`` maps short names to modules."""
        for mod, attr, name, counter in FUNCTIONS:
            module = uqkit_modules[mod]
            original = getattr(module, attr)
            self._patch(module, attr, self.wrap(name, original, counter), original)
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(uqkit_modules[mod], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                new = classmethod(self.wrap(name, original.__func__))
            else:
                new = self.wrap(name, original)
            self._patch(cls, attr, new, original)
        cli = uqkit_modules["cli"]
        build_parser = self.wrap("cli.argparse", cli.build_parser)

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.argparse", parser.parse_args)
            return parser

        self._patch(cli, "build_parser", traced_build_parser, cli.build_parser)
        # a module global shadows the builtin for the module's own code, which
        # reaches the record fields that the commands build inline
        for builtin in (tuple, max):
            self._patch(cli, builtin.__name__, self.wrap("records.build", builtin))
        path_cls = type(cli.Path())
        file_io = {m: self.wrap("cli.io", getattr(path_cls, m))
                   for m in ("read_bytes", "read_text", "write_text")}
        self._patch(cli, "Path", type("Path", (path_cls,), file_io), cli.Path)
        self._patch(cli, "json", _JsonProxy(self.wrap("ccc.emit_json", json.dumps)), cli.json)
        rng_cls = uqkit_modules["rng"].PortableRng
        next_u64, draws = rng_cls.next_u64, self._draws

        def counted_next_u64(rng):
            draws[0] += 1
            return next_u64(rng)

        self._patch(rng_cls, "next_u64", counted_next_u64, next_u64)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def run(self, command: str, main, argv: list[str]) -> int:
        """Run ``main(argv)`` under a root span named ``cli.main``; return its exit code."""
        self._command[0] = command
        self._draws[0] = 0
        try:
            return self.wrap("cli.main", main)(argv)
        finally:
            self.counts[(command, "rng.draws")] += self._draws[0]

    @property
    def spans(self) -> list[Span]:
        """Every span recorded so far; built on demand, outside the timed commands."""
        return [Span(c, sid, *rest) for sid, (c, *rest) in enumerate(self._raw)]


def self_times(spans: list[Span]) -> dict[tuple[str, str], float]:
    """(command, span name) -> summed self seconds."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end_ns - s.start_ns
    out: dict[tuple[str, str], float] = defaultdict(float)
    for s in spans:
        out[(s.command, s.name)] += (s.end_ns - s.start_ns - child_ns[s.sid]) / 1e9
    return out


def durations(spans: list[Span]) -> dict[tuple[str, str], float]:
    """(command, span name) -> summed duration; traced names do not nest in themselves."""
    out: dict[tuple[str, str], float] = defaultdict(float)
    for s in spans:
        out[(s.command, s.name)] += (s.end_ns - s.start_ns) / 1e9
    return out
