"""Benchmark entry point for qrewrite.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the program from its
`src/` directory. One client runs a closed loop in this process (for
`cli-cold`, one child process at a time): whole cycles of the workload's
operations are replayed until the next cycle would overrun `--seconds`, and
at least two cycles always run; from the second cycle on, an op cheaper
than 100 ms runs up to ten times per cycle, spread through the cycle.

Times are reported at a fixed reference machine speed. On a shared host the
same op runs up to 2x slower for seconds to minutes at a time, when
neighbours load the core; no estimator inside one run removes a slow spell
longer than the run. So fixed calibration kernels, which do not touch
qrewrite, are timed between every two ops, and each op time is scaled by
its kernel's reference time over the kernel's time around it (see
Speed): a reported ms is a wall-clock ms on a core where the kernels take
their reference times. Raw wall-clock times are kept in the full record. An
op's latency is the median of its scaled times; latency percentiles are
taken over the cycle's ops, and throughput is ops per second of a cycle at
those latencies. Set-up (a fresh import, input generation and warm-up) is
repeated, scaled the same way, and its median reported.

With `--trace 0` it reports the end-to-end metrics named in BENCHMARK.json;
with `--trace 1` it alternates untraced and traced cycles and reports the
per-layer metrics. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. A fuller record (metrics,
environment, refused ladder rungs, per-op latencies) is written to
`perfbench/results/` or `--out`, with the spans of a traced run's first
traced cycle beside it (`[name, start, end, parent, op, tag, count, error]`
per line, see spans.py);
`perfbench/compare.py` summarises and compares such records.
"""
from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy is imported, here and in child
# processes. The program's matrices are small: with a second BLAS thread on
# a 2-CPU host, each call's thread hand-off made op times bimodal (up to 2x).
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 7
MIN_CYCLES = 2  # untraced; a traced run's one pair is two cycles
MIN_OP_S, MAX_REPS = 0.1, 10  # untraced: repeat an op up to 10x to fill 100 ms
# Calibration kernels: their times on an idle core of a 2-vCPU Intel Xeon
# VM (the reference speed), and the runs per probe; see Speed.
CAL_REF_S = {"python": 0.001, "memory": 0.0015, "process": 0.016}
CAL_REPS = {"python": 3, "memory": 5, "process": 1}


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        self.a, self.b = a, b


def python_kernel() -> int:
    """Fixed pure-Python work that does not touch qrewrite: tuple keys,
    dict updates, small objects, str() and a keyed sort."""
    d: dict[tuple[int, int], int] = {}
    for i in range(1000):
        o = _Pair((i % 37, i % 11), i)
        d[o.a] = d.get(o.a, 0) + len(str(o.a))
    return len(sorted(d.items(), key=lambda kv: (kv[1], kv[0])))


class MemoryKernel:
    """Fixed numpy streaming work on 8 MiB arrays, larger than a core's L2
    cache, so its speed follows the shared cache and memory bandwidth."""

    def __init__(self) -> None:
        import numpy

        self.a = numpy.ones(1 << 19, dtype=complex)
        self.b = numpy.empty_like(self.a)

    def __call__(self) -> complex:
        import numpy

        numpy.multiply(self.a, 1.0001, out=self.b)
        return self.b.sum()


PROCESS_KERNEL_CODE = "d = {}\nfor i in range(20000): d[i % 97] = str(i)"


def process_kernel() -> None:
    """A fresh interpreter that does a little pure-Python work and exits:
    process creation, start-up and interpreted code, as in a `cli-cold` op."""
    import subprocess

    subprocess.run([sys.executable, "-S", "-I", "-c", PROCESS_KERNEL_CODE], check=True)


class Speed:
    """The host's current speed, from timings of calibration kernels.

    On a shared host the same op runs up to 2x slower for seconds to
    minutes at a time while neighbours load the core. Interpreter-bound
    work slows the most (about 2x), work streaming large arrays the least
    (about 1.3x), and a fresh process in between. Each op names the kernel
    that shares its bottleneck (`Op.kernel`: "python", "memory" for an op
    that streams arrays larger than MEMORY_BOUND_BYTES, "process" for one
    that starts a process); its time is scaled by that kernel's reference
    time over the mean of the kernel's times probed just before and after
    it.
    """

    def __init__(self, kernels=("python",)) -> None:
        make = {"python": lambda: python_kernel, "memory": MemoryKernel,
                "process": lambda: process_kernel}
        self.kernels = {k: make[k]() for k in kernels}
        self.probes: dict[str, list[float]] = {k: [] for k in kernels}
        for kernel in self.kernels.values():
            kernel()

    def probe(self, kernel: str) -> float:
        """Median time of CAL_REPS runs of a kernel, with the collector off
        so that the program's heap does not enter the measure."""
        run = self.kernels[kernel]
        times = []
        gc.disable()
        try:
            for _ in range(CAL_REPS[kernel]):
                t0 = time.perf_counter()
                run()
                times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self.probes[kernel].append(statistics.median(times))
        return self.probes[kernel][-1]

    def factor(self, kernel: str, before: float) -> float:
        """Probe again; the scale for a time taken since the `before` probe."""
        return 2 * CAL_REF_S[kernel] / (before + self.probe(kernel))


class ProgramMissing(RuntimeError):
    """The checkout holds no importable qrewrite sources."""


def import_program():
    """Import qrewrite from this checkout's `src/`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qrewrite", "__init__.py")):
        raise ProgramMissing(f"no qrewrite sources under {SRC}")
    sys.path.insert(0, SRC)
    import qrewrite

    if not os.path.abspath(qrewrite.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"qrewrite imported from {qrewrite.__file__}, not {SRC}")
    return qrewrite


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "seed": seed,
        "machine": platform.machine(),
    }


class Tally:
    """Per-op executions, failures, latencies and first digests, keyed by
    cycle kind (0 untraced, 1 traced) and op index."""

    def __init__(self) -> None:
        # scaled to the reference speed, and raw wall-clock
        self.by_label: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.raw: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.runs: dict[tuple[int, int], int] = defaultdict(int)
        self.fails: dict[tuple[int, int], int] = defaultdict(int)
        self.first: dict[tuple[int, int], object] = {}
        self.reported: set[str] = set()

    def fail(self, op, exc: BaseException | None) -> None:
        if op.label in self.reported:
            return
        self.reported.add(op.label)
        print(f"FAILED {op.label}", file=sys.stderr)
        if exc is not None:
            traceback.print_exception(exc, file=sys.stderr)


def run_op(op, slot: tuple[int, int], tally: Tally) -> float:
    """Run, time and check one op; returns its latency in seconds."""
    err = None
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed op is counted, the run goes on
        err = exc
    dt = time.perf_counter() - t0
    ok = False
    if err is None:
        try:
            d = op.digest(out)
            ok = bool(op.check(d))
            if ok and slot in tally.first:
                ok = d == tally.first[slot]  # ops are deterministic
            elif ok:
                tally.first[slot] = d
        except Exception as exc:
            err = exc
    tally.runs[slot] += 1
    if not ok:
        tally.fails[slot] += 1
        tally.fail(op, err)
    return dt


def run_cycle(ops, tally: Tally, speed: Speed, key: int = 0, tracer=None,
              reps: dict[int, int] | None = None) -> float:
    """Run every op once in order; returns the summed raw op latencies.

    With `reps` (untraced runs), the first cycle sets each op's repetition
    count from its latency, so an op cheaper than MIN_OP_S runs up to
    MAX_REPS times per later cycle, its runs spread evenly through the cycle
    rather than back to back. Each op runs between two probes of its
    calibration kernel, and its time is scaled by them; the probe after an
    op is the probe before the next one when both use the same kernel.
    """
    order = list(range(len(ops)))
    if reps:
        n = len(ops)
        slots = [((k + (i + 0.5) / n) / reps[i], i) for i in order for k in range(reps[i])]
        order = [i for _, i in sorted(slots)]
    total = 0.0
    prev = None  # the kernel probed last, right after the previous op
    for i in order:
        if tracer is not None:
            tracer.op = i
        kernel = ops[i].kernel
        if kernel != prev:
            speed.probe(kernel)
        before, prev = speed.probes[kernel][-1], kernel
        dt = run_op(ops[i], (key, i), tally)
        tally.by_label[key][ops[i].label].append(dt * speed.factor(kernel, before))
        tally.raw[key][ops[i].label].append(dt)
        total += dt
        if reps is not None and len(reps) < len(ops):
            reps[i] = max(1, min(MAX_REPS, math.ceil(MIN_OP_S / max(dt, 1e-9))))
    return total


def check_references(ops_by_key: dict, tally: Tally) -> None:
    """Independent checks, once per op, on the first digest it produced."""
    verdicts: dict[int, tuple[object, bool]] = {}
    for (key, i), d in tally.first.items():
        op = ops_by_key[key][i]
        if op.reference is None:
            continue
        err = None
        if i in verdicts and verdicts[i][0] == d:
            ok = verdicts[i][1]  # traced and untraced cycles ran the same op
        else:
            try:
                ok = bool(op.reference(d))
            except Exception as exc:
                ok, err = False, exc
            verdicts[i] = (d, ok)
        if not ok:
            tally.fails[(key, i)] = tally.runs[(key, i)]
            tally.fail(op, err)


def measure_setup(wl, child_seconds, speed: Speed) -> list[float]:
    """Set-up times, each scaled by the workload's first kernel."""
    kernel = wl.kernels[0]
    times = []
    for _ in range(SETUP_REPS):
        before = speed.probe(kernel)
        t_import = child_seconds(ROOT, "import qrewrite")
        t0 = time.perf_counter()
        wl.build()
        try:
            wl.warm_up()
        except Exception:  # the timed ops will count the failure
            pass
        times.append((t_import + time.perf_counter() - t0) * speed.factor(kernel, before))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: str | None = None, tiny: bool = False) -> dict:
    import spans
    import workloads

    spec = load_spec()
    # One CPU for this process and its children, so that an op and the
    # probes that scale it run on the same core. The last one: the first
    # tends to take more of the host's interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = workloads.WORKLOADS[name](seed, ROOT, tiny)
    try:
        speed = Speed(wl.kernels)
        setup_times = measure_setup(wl, workloads.child_seconds, speed)
        tally = Tally()
        pairs: list[tuple[float, float]] = []
        traced_metrics: list[dict] = []
        first_tracer = None
        cycles = 0
        reps: dict[int, int] = {}
        ops = wl.trace_ops() if trace else wl.ops
        ops_by_key = {0: ops, 1: ops}
        start = time.perf_counter()
        while True:
            u = run_cycle(ops, tally, speed, reps=None if trace else reps)
            if trace:
                tracer = spans.Tracer()
                with tracer:
                    t = run_cycle(ops, tally, speed, 1, tracer)
                pairs.append((u, t))
                traced_metrics.append(spans.layer_metrics(tracer.spans))
                first_tracer = first_tracer or tracer
            cycles += 1
            if cycles < MIN_CYCLES and not trace:
                continue
            if (time.perf_counter() - start) * (cycles + 1) / cycles > seconds:
                break
        check_references(ops_by_key, tally)

        attempted = sum(tally.runs.values())
        failed = sum(tally.fails.values())
        metrics: dict[str, float] = {}
        if not trace:
            lat = [statistics.median(v) for v in tally.by_label[0].values()]
            deciles = statistics.quantiles(lat, n=10, method="inclusive")
            who = resource.RUSAGE_CHILDREN if wl.peak_rss_of_children else resource.RUSAGE_SELF
            metrics = {
                "setup_s": statistics.median(setup_times),
                "throughput_ops_s": len(lat) / sum(lat),
                "latency_p50_ms": deciles[4] * 1e3,
                "latency_p90_ms": deciles[8] * 1e3,
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
                "ok_ratio": 1 - failed / attempted,
            }
            wanted = spec["end_to_end"]
        else:
            for key in traced_metrics[0]:
                metrics[key] = statistics.median(m.get(key, 0) for m in traced_metrics)
            metrics.update(wl.layer_extras(tally.by_label[0]))
            metrics["trace.overhead_ratio"] = statistics.median(u / t for u, t in pairs)
            wanted = spec["per_layer"]
        result = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "env": environment(seed),
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                        for m in wanted},
            "samples": sum(len(v) for v in tally.by_label[0].values()),
            "op_ms": {label: {"median": statistics.median(v) * 1e3,
                              "raw_median": statistics.median(tally.raw[0][label]) * 1e3,
                              "raw_best": min(tally.raw[0][label]) * 1e3,
                              "n": len(v)} for label, v in tally.by_label[0].items()},
            "calibration_s": {k: {"reference": CAL_REF_S[k], "median": statistics.median(p),
                                  "min": min(p), "max": max(p), "n": len(p)}
                              for k, p in speed.probes.items() if p},
            "cycles": cycles,
            "setup_reps_s": setup_times,
            "refused": [{"rung": r.name, "choi_bytes": r.choi_bytes}
                        for r in getattr(wl, "refused", [])],
        }
    finally:
        wl.close()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        if trace:
            first_tracer.write(stem + ".spans.jsonl")
    return result


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "results"),
                    help="directory for the full result record and spans")
    args = ap.parse_args(argv)
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.out, tiny)
    print(f"workload {res['workload']} seed {res['seed']} trace {res['trace']}: "
          f"{res['samples']} samples in {res['cycles']} cycles, env {json.dumps(res['env'])}")
    for r in res["refused"]:
        print(f"refused rung {r['rung']}: Choi matrix {r['choi_bytes']} bytes")
    for key, m in res["metrics"].items():
        print(f"  {key} = {m['value']} {m['unit']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
