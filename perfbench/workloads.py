"""The four benchmark workloads.

Each workload turns a seed into a fixed cycle of operations. The timed loop
replays whole cycles, so every run sees the same mix of operations. An
operation is an `Op`: `run` is the timed call; `digest` turns its output into
a comparable value outside the timed region; `check` is a cheap correctness
test applied to every execution; `reference` is an independent, expensive
check applied once per operation after the timed phase. No check reuses the
code path the workload times: verified derivations are checked against the
target circuit and the probe oracle, unverified rewrites against the oracle,
equivalence verdicts against the answer fixed when the pair was built, and
CLI runs by exit code and output.
"""
from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qrewrite as qr
import qrewrite.cli
import gen

# Derivation name -> (steps, target scenario), from the paper's scripts.
DERIVATIONS = {
    "TeleportFromTransfer": (15, "Teleportation"),
    "DenseFromCopy": (11, "DenseFull"),
    "GateTeleportFromTeleport": (35, "GateTeleportation"),
}


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    digest: Callable[[object], object] = lambda out: out
    check: Callable[[object], bool] = lambda d: True
    reference: Callable[[object], bool] | None = None
    kernel: str = "python"  # the calibration kernel that shares its bottleneck


class Workload:
    """Base: `build` generates inputs from the seed and the op cycle."""

    name = ""
    peak_rss_of_children = False
    # calibration kernels its ops use (run.Speed); the first scales set-up
    kernels: tuple[str, ...] = ("python",)

    def __init__(self, seed: int, root: str, tiny: bool = False):
        self.seed, self.root, self.tiny = seed, root, tiny
        self.ops: list[Op] = []
        self.warm: list[Op] = []  # run once per set-up, untimed

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        for op in self.warm:
            op.run()

    def trace_ops(self) -> list[Op]:
        """Ops replayed under the tracer; in-process for every workload."""
        return self.ops

    def layer_extras(self, latencies: dict[str, list[float]]) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def _derive_op(name: str, verify: bool) -> Op:
    steps, target_name = DERIVATIONS[name]
    target = qr.make(target_name)
    want = True if verify else None
    return Op(
        f"derive:{name}:{'verified' if verify else 'unverified'}",
        lambda: qr.derive(name, verify=verify),
        lambda tr: (tuple(s.verified for s in tr.steps), tr.start,
                    tuple(s.circuit for s in tr.steps)),
        lambda d: len(d[0]) == steps and all(v is want for v in d[0])
        and d[2][-1] == target,
        lambda d: qr.oracle_equal(d[1], d[2][-1]),
    )


class DeriveVerified(Workload):
    """The paper's three derivations and greedy simplification, every step
    channel-verified."""

    name = "derive-verified"

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        corpus = gen.mixed_corpus(rng, 3 if self.tiny else 48)
        simplify_ops = [self._simplify_op(k, c) for k, c in enumerate(corpus)]
        per = len(simplify_ops) // 3
        self.ops = []
        for k, name in enumerate(DERIVATIONS):
            self.ops.append(_derive_op(name, verify=True))
            self.ops.extend(simplify_ops[k * per : (k + 1) * per])
        self.warm = self.ops[:5]

    @staticmethod
    def _simplify_op(k: int, c) -> Op:
        return Op(
            f"simplify:{k}:verified",
            lambda: qr.simplify(c, verify=True),
            lambda out: (out[0], tuple(s.verified for s in out[1].steps)),
            lambda d: all(v is True for v in d[1]),
            lambda d: qr.oracle_equal(c, d[0]),
        )


def sweep(c):
    """Every rule in both directions: all matches, each applied unverified,
    then an unverified greedy simplification. Rejected matches give None."""
    outs = []
    for rule_id in qr.RULES:
        for direction in ("forward", "backward"):
            for m in qr.find_matches(c, rule_id, direction):
                try:
                    outs.append(qr.rewrite_at(c, m))
                except qr.RewriteError:
                    outs.append(None)
    final, _ = qr.simplify(c, verify=False)
    return tuple(outs), final


class RewriteUnverified(Workload):
    """Rule matching and rewriting with no simulation."""

    name = "rewrite-unverified"

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        corpus = gen.mixed_corpus(rng, 1 if self.tiny else 24)
        self.ops = [self._sweep_op(k, c) for k, c in enumerate(corpus)]
        self.ops += [_derive_op(name, verify=False) for name in DERIVATIONS]
        self.warm = self.ops[:3]

    @staticmethod
    def _sweep_op(k: int, c) -> Op:
        def reference(d) -> bool:
            # ~700 rewrites per circuit: the oracle would take ~15 ms each,
            # so rewrites are checked by channel equality (the verification
            # path, untimed here) and the simplified circuit by the oracle.
            outs, final = d
            start = qr.extract_channel(c)
            return all(o is None or qr.channel_equal(start, qr.extract_channel(o))
                       for o in outs) and qr.oracle_equal(c, final)

        return Op(f"sweep:{k}", lambda: sweep(c), check=lambda d: bool(d[0]),
                  reference=reference)


def _verdict(mode: str, a, b) -> bool:
    if mode == "channel":
        return qr.channel_equal(qr.extract_channel(a), qr.extract_channel(b))
    if mode == "oracle":
        return qr.oracle_equal(a, b)
    if mode == "unitary":
        return qr.unitary_equal(qr.build_unitary(a), qr.build_unitary(b))
    return qr.channel_equal(qr.channel_of_deferred(a), qr.channel_of_deferred(b))


MEMORY_BOUND_BYTES = 8 * 2**20


class EquivLadder(Workload):
    """Equivalence verdicts on equal and unequal pairs up a size ladder."""

    name = "equiv-ladder"
    kernels = ("python", "memory")
    TINY_LADDER = (gen.Rung("pure", 3), gen.Rung("pure", 7), gen.Rung("half", 4))

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        rungs = self.TINY_LADDER if self.tiny else gen.LADDER
        pairs, self.refused = gen.ladder_pairs(rng, rungs)
        # warm-up: every mode on the smallest rung of each kind
        smallest = {}
        for p in pairs:
            smallest.setdefault(p.rung.kind, p.rung)
        self.ops, self.warm = [], []
        for p in pairs:
            kind = "equal" if p.equal else "unequal"
            for mode in p.rung.modes:
                # Channel and deferred verdicts on a rung whose Choi matrix
                # is over MEMORY_BOUND_BYTES stream arrays that no core's
                # cache holds; every other verdict is interpreter-bound.
                op = Op(
                    f"verdict:{mode}:{p.rung.name}:{kind}",
                    lambda mode=mode, p=p: _verdict(mode, p.a, p.b),
                    bool,
                    lambda v, want=p.equal: v == want,
                    kernel="memory" if mode in ("channel", "deferred")
                    and p.rung.choi_bytes >= MEMORY_BOUND_BYTES else "python",
                )
                self.ops.append(op)
                if p.rung in smallest.values():
                    self.warm.append(op)

    def layer_extras(self, latencies):
        by_case: dict[str, list[float]] = {}
        for label, vals in latencies.items():
            _, mode, rung, _ = label.split(":")
            by_case.setdefault(f"equivalence.verdict_ms.{mode}.{rung}", []).extend(vals)
        return {k: statistics.median(v) * 1e3 for k, v in by_case.items()}


CLI_CODE = "import sys; from qrewrite.cli import entry; sys.argv[0] = 'qrewrite'; entry()"
SHOTS = 1000


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def child_seconds(root: str, statement: str) -> float:
    """Wall time of `statement` measured inside a fresh interpreter."""
    code = (f"import time; t = time.perf_counter(); {statement}; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(root),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


class CliCold(Workload):
    """One fresh `qrewrite` process per operation, on generated files."""

    name = "cli-cold"
    peak_rss_of_children = True
    kernels = ("process", "python")  # traced ops run in-process

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.work = os.path.join(self.root, "perfbench", ".work",
                                 f"{self.name}-{self.seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        rung = gen.Rung("half", 6)
        eq_a, eq_b = gen.ladder_pair(rng, rung, equal=True)
        ne_a, ne_b = gen.ladder_pair(rng, rung, equal=False)
        shots_c = gen.mixed_circuit(rng, 4, with_input=False)
        self.simp_c = gen.mixed_circuit(rng, 5)
        files = {"eq_a": eq_a, "eq_b": eq_b, "ne_a": ne_a, "ne_b": ne_b,
                 "shots": shots_c, "simp": self.simp_c}
        path = {}
        for key, c in files.items():
            path[key] = os.path.join(self.work, f"{key}.qc")
            with open(path[key], "w", encoding="utf-8") as fh:
                fh.write(qr.serialize(c) + "\n")
        seed = str(self.seed)
        self.commands = [
            ("check-equal", ["check", path["eq_a"], path["eq_b"], "--mode", "channel"],
             lambda rc, out: rc == 0 and out.startswith("equivalent (channel)")),
            ("demo", ["demo", "gateteleportation"],
             lambda rc, out: rc == 0 and out.count("VERIFIED") == 36),
            ("check-unequal", ["check", path["ne_a"], path["ne_b"], "--mode", "channel"],
             lambda rc, out: rc == 4 and out.startswith("not equivalent (channel)")),
            ("run-shots", ["run", path["shots"], "--shots", str(SHOTS), "--seed", seed],
             lambda rc, out: rc == 0 and _shot_total(out) == SHOTS),
            ("simplify", ["simplify", path["simp"]],
             lambda rc, out: rc == 0 and "\nfinal:\n" in out),
        ]
        self.ops = [self._op(*cmd, self._spawn) for cmd in self.commands]
        self.warm = self.ops[:1]

    def _op(self, name, argv, ok, runner) -> Op:
        reference = None
        if name == "simplify":
            reference = lambda d: qr.oracle_equal(  # noqa: E731
                self.simp_c, qr.parse(d[1].split("\nfinal:\n", 1)[1]))
        return Op(f"cli:{name}", lambda: runner(argv), check=lambda d: ok(*d),
                  reference=reference,
                  kernel="process" if runner == self._spawn else "python")

    def _spawn(self, argv) -> tuple[int, str]:
        out = subprocess.run([sys.executable, "-c", CLI_CODE, *argv],
                             env=child_env(self.root), cwd=self.work,
                             capture_output=True, text=True, timeout=120)
        return out.returncode, out.stdout

    @staticmethod
    def _in_process(argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = qrewrite.cli.main(list(argv))
        return rc, buf.getvalue()

    def trace_ops(self) -> list[Op]:
        return [self._op(*cmd, self._in_process) for cmd in self.commands]

    def layer_extras(self, latencies):
        reps = 2 if self.tiny else 5
        interp = [self._wall(["-c", "pass"]) for _ in range(reps)]
        imports = [child_seconds(self.root, "import qrewrite.cli") for _ in range(reps)]
        return {"cli.interp_start_ms": statistics.median(interp) * 1e3,
                "cli.import_ms": statistics.median(imports) * 1e3}

    def _wall(self, args) -> float:
        t = time.perf_counter()
        subprocess.run([sys.executable, *args], env=child_env(self.root),
                       capture_output=True, timeout=120, check=True)
        return time.perf_counter() - t

    def close(self) -> None:
        if hasattr(self, "work"):
            shutil.rmtree(self.work, ignore_errors=True)
            with contextlib.suppress(OSError):  # still used by another run
                os.rmdir(os.path.dirname(self.work))


def _shot_total(out: str) -> int:
    return sum(int(line.rsplit("\t", 1)[1]) for line in out.splitlines() if "\t" in line)


WORKLOADS = {w.name: w for w in (DeriveVerified, RewriteUnverified, EquivLadder, CliCold)}
