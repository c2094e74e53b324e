"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest perfbench/tests -q

Runs every workload at tiny size, and injects faulty checkers by patching
attributes inside the test process only.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

qrewrite = run.import_program()
import workloads  # noqa: E402

SPEC = run.load_spec()


def _main(argv, tmp_path) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main([*argv, "--out", str(tmp_path)], tiny=True)
    return rc, buf.getvalue()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_unit(workload, trace, tmp_path):
    rc, out = _main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)], tmp_path)
    assert rc == 0
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"  {m['name']} = " in out
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
    record = tmp_path / f"{workload}-seed3-trace{trace}.json"
    env = json.loads(record.read_text())["env"]
    assert {"git_sha", "python", "numpy", "nproc", "blas_threads", "seed"} <= set(env)


def test_refused_rungs_are_listed_not_run():
    wl = workloads.EquivLadder(3, ROOT, tiny=True)
    wl.build()
    assert [(r.name, r.choi_bytes) for r in wl.refused] == [("pure7", 4 * 2**30)]
    assert not any(":pure7:" in op.label for op in wl.ops)
    res = _tiny("equiv-ladder")
    assert res["refused"] == [{"rung": "pure7", "choi_bytes": 4 * 2**30}]


def test_ops_name_the_kernel_that_shares_their_bottleneck():
    wl = workloads.EquivLadder(3, ROOT)
    wl.build()
    memory = {tuple(op.label.split(":")[1:3]) for op in wl.ops if op.kernel == "memory"}
    assert memory == {("channel", "pure5"), ("channel", "pure6"),
                      ("channel", "half10"), ("deferred", "half10")}
    assert {op.kernel for op in wl.ops} == set(wl.kernels)
    cli = workloads.CliCold(3, ROOT, tiny=True)
    try:
        cli.build()
        assert {op.kernel for op in cli.ops} == {"process"}
        assert {op.kernel for op in cli.trace_ops()} == {"python"}
    finally:
        cli.close()


def _tiny(workload: str) -> dict:
    return run.run_workload(workload, 5, 0.01, False, None, tiny=True)


def test_wrong_verdict_is_counted(monkeypatch):
    # A channel checker that calls every pair equal: the unequal pairs of
    # the channel and deferred modes (3 of 12 tiny-ladder ops) now fail.
    monkeypatch.setattr(qrewrite, "channel_equal", lambda a, b, atol=0: True)
    res = _tiny("equiv-ladder")
    assert res["correct"] is False
    wrong = ("verdict:channel:pure3:unequal", "verdict:channel:half4:unequal",
             "verdict:deferred:half4:unequal")
    assert res["failed"] == sum(res["op_ms"][label]["n"] for label in wrong)
    ok = res["metrics"]["ok_ratio"]["value"]
    assert ok == pytest.approx(1 - res["failed"] / res["attempted"])


def test_raising_checker_is_counted(monkeypatch):
    def boom(a, b, atol=0):
        raise RuntimeError("checker failure")

    monkeypatch.setattr(qrewrite.engine, "channel_equal", boom)
    res = _tiny("derive-verified")
    assert res["correct"] is False
    # every verified derivation raises; simplify ops with no step do not
    assert res["failed"] >= 3
    assert res["metrics"]["ok_ratio"]["value"] < 1


def test_wrong_reference_fails_every_execution(monkeypatch):
    monkeypatch.setattr(qrewrite, "oracle_equal", lambda a, b, atol=0: False)
    res = _tiny("derive-verified")
    assert res["failed"] == res["attempted"]


def test_no_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "derive-verified",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
