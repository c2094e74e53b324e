"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install()` wraps the public functions listed in `TRACED` and swaps
every reference to them held by a loaded `qrewrite` module (the package
re-exports names, and `engine`, `equivalence`, `scenarios` and `cli` import
functions such as `extract_channel`, `ground` and `variable_kinds` by name).
Nothing under `src/` is edited; `uninstall()` restores the originals.

A span is one list `[name, start, end, parent, op, tag, count, error]`:
`parent` is the index of the enclosing span (-1 at top level), `op` the
benchmark operation it ran under, `tag` an argument that splits a function's
statistics (rule id, derivation name, CLI command), `count` a size the
function produced, and `error` whether it raised.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, TAG, COUNT, ERROR = range(8)


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos] if len(args) > pos else None


def _choi_bytes(args, kwargs, out):
    d = _arg(args, kwargs, 0, "kraus")[0].size
    return d * d * 16


# "<module>.<function>": (tag extractor, count extractor)
TRACED = {
    "circuit.parse": (None, None),
    "circuit.serialize": (None, None),
    "circuit.validate": (None, None),
    "sim.apply_gate": (None, None),
    "sim.run": (None, lambda a, k, out: len(out)),
    "sim.build_unitary": (None, None),
    "sim.choi_of_kraus": (None, _choi_bytes),
    "sim.make_channel": (None, None),
    "sim.extract_channel": (None, lambda a, k, out: len(out.kraus)),
    "sim.channel_of_deferred": (None, lambda a, k, out: len(out.kraus)),
    "equivalence.channel_equal": (None, None),
    "equivalence.oracle_equal": (None, None),
    "equivalence.unitary_equal": (None, None),
    "rules.variable_kinds": (None, None),
    "rules.template_side": (None, None),
    "rules.template_variables": (None, None),
    "rules.ground": (None, None),
    "rules.ground_preps": (None, None),
    "engine.find_matches": (
        lambda a, k: _arg(a, k, 1, "rule_id"), lambda a, k, out: len(out)
    ),
    "engine.rewrite_at": (None, None),
    "engine.simplify": (None, lambda a, k, out: len(out[1].steps)),
    "engine.apply_steps": (None, None),
    "scenarios.derive": (lambda a, k: _arg(a, k, 0, "name"), None),
    "cli.main": (lambda a, k: (_arg(a, k, 0, "argv") or ["?"])[0], None),
}


class Tracer:
    """Records spans while installed; `op` is set by the caller per operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, tag_of, count_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   tag_of(args, kwargs) if tag_of else None, 0, False]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if count_of:
                rec[COUNT] = count_of(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for qual, (tag_of, count_of) in TRACED.items():
            mod_name, fn_name = qual.split(".")
            fn = getattr(sys.modules[f"qrewrite.{mod_name}"], fn_name)
            wrappers[id(fn)] = self._wrap(qual, fn, tag_of, count_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qrewrite" and not mod_name.startswith("qrewrite."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _ancestor_in(spans, idx, names) -> bool:
    p = spans[idx][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


ENGINE = {"engine.find_matches", "engine.rewrite_at", "engine.simplify",
          "engine.apply_steps"}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer statistics of one traced cycle.

    `self_s` is a span's duration minus its direct children's durations
    (spans nest, so children never overlap). Every function in `TRACED`
    gets `calls` and `self_s`, zero when the cycle never called it.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    tag_self: dict[str, float] = defaultdict(float)
    main_ms: dict[str, list[float]] = defaultdict(list)
    for i, rec in enumerate(spans):
        name = rec[NAME]
        own = rec[END] - rec[START] - child[i]
        calls[name] += 1
        self_s[name] += own
        count[name] += rec[COUNT]
        errors[name] += rec[ERROR]
        if rec[TAG] is not None:
            tag_self[f"{name}.{rec[TAG]}"] += own
            if name == "cli.main":
                main_ms[rec[TAG]].append((rec[END] - rec[START]) * 1e3)

    m: dict[str, float] = {}
    for qual in TRACED:
        m[f"{qual}.calls"] = calls[qual]
        m[f"{qual}.self_s"] = self_s[qual]
    m["sim.extract_channel.kraus"] = count["sim.extract_channel"]
    m["sim.choi_of_kraus.bytes"] = count["sim.choi_of_kraus"]
    m["sim.run.branches"] = count["sim.run"]
    m["engine.find_matches.matches"] = count["engine.find_matches"]
    m["engine.simplify.steps"] = count["engine.simplify"]
    rejected = errors["engine.rewrite_at"]
    m["engine.rewrite_at.rejected"] = rejected
    m["engine.rewrite_at.reject_ratio"] = (
        rejected / calls["engine.rewrite_at"] if calls["engine.rewrite_at"] else 0.0
    )
    for key, val in tag_self.items():
        if key.startswith(("engine.find_matches.", "scenarios.derive.")):
            m[f"{key}.self_s"] = val
    for command, ms in main_ms.items():
        m[f"cli.main_ms.{command}"] = statistics.median(ms)

    # Oracle probes: each probe runs both circuits once under oracle_equal.
    oracle_runs = sum(
        1 for i, rec in enumerate(spans)
        if rec[NAME] == "sim.run" and _ancestor_in(spans, i, {"equivalence.oracle_equal"})
    )
    verdicts = calls["equivalence.oracle_equal"]
    m["equivalence.oracle.probes_per_verdict"] = (
        oracle_runs / 2 / verdicts if verdicts else 0.0
    )

    # Share of engine time spent verifying: extract_channel and
    # channel_equal spans nested under an engine span, over the time of
    # outermost engine spans.
    engine_total = verify = 0.0
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        if rec[NAME] in ENGINE and not _ancestor_in(spans, i, ENGINE):
            engine_total += dur
        elif rec[NAME] in ("sim.extract_channel", "equivalence.channel_equal") and \
                _ancestor_in(spans, i, ENGINE):
            verify += dur
    m["engine.verify_share"] = verify / engine_total if engine_total else 0.0
    return m
