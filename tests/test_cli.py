"""CLI: subcommands, exit codes, output formats, determinism."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qrewrite

from qrewrite.cli import (
    EXIT_NOT_EQUIV,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VERIFY,
    format_complex,
    main,
    parse_ket,
)
from qrewrite import engine, scenarios, sim
from qrewrite.circuit import MAX_WIRES, serialize
from qrewrite.engine import VerificationError
from qrewrite.scenarios import derive, make

BELL_MEASURE = """qubits 2
cbits 2
PREP q0 0
PREP q1 0
H q0
CNOT q0 q1
MEASURE q0 c0
MEASURE q1 c1
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_format_complex():
    assert format_complex(1 + 0j) == "1+0i"
    assert format_complex(-0.5 - 0.25j) == "-0.5-0.25i"
    assert format_complex(1e-15 + 1j) == "0+1i"
    assert format_complex(math.sqrt(0.5) + 0j).startswith("0.70710678")


def test_parse_ket():
    assert list(parse_ket("|01>", 2)) == [0, 1, 0, 0]
    assert list(parse_ket("|01⟩", 2)) == [0, 1, 0, 0]
    assert list(parse_ket("0,1", 1)) == [0, 1]
    amp = parse_ket("1,1", 1)
    assert abs(amp[0] - math.sqrt(0.5)) < 1e-12
    # a trailing "i" is the imaginary unit
    half = math.sqrt(0.5)
    assert np.allclose(parse_ket("1,1i", 1), [half, half * 1j])
    assert np.allclose(parse_ket("1+1i,0", 1), [half + half * 1j, 0])
    with pytest.raises(ValueError):
        parse_ket("|0>", 2)


def test_run_branch_table(files, capsys):
    path = files("bell.qc", BELL_MEASURE)
    assert main(["run", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("c0=0 c1=0\tp=0.5")
    assert out[1].startswith("c0=1 c1=1\tp=0.5")


def test_run_requires_input_for_input_wires(files, capsys):
    path = files("w.qc", "qubits 1\ncbits 0\nINPUT q0\nX q0\n")
    assert main(["run", path]) == EXIT_USAGE
    assert main(["run", path, "--input", "|1>"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("1+0i,0+0i")


def test_run_shots_reproducible_and_convergent(files, capsys):
    path = files("bell.qc", BELL_MEASURE)
    n = 4096
    assert main(["run", path, "--shots", str(n), "--seed", "0"]) == 0
    first = capsys.readouterr().out
    counts = {
        line.split("\t")[0]: int(line.split("\t")[1])
        for line in first.strip().splitlines()
    }
    freq = counts["c0=0 c1=0"] / n
    assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / n)
    assert main(["run", path, "--shots", str(n), "--seed", "0"]) == 0
    assert capsys.readouterr().out == first


TRANSFER = "qubits 2\ncbits 1\nINPUT q0\nPREP q1 0\nCNOT q0 q1\nMEASURE q1 c0\n"


@pytest.mark.parametrize(
    "flag, value", [("--shots", "100000000000000000000"), ("--shots", "-3"), ("--seed", "-1")]
)
def test_run_count_out_of_range_is_a_usage_error(files, capsys, flag, value):
    path = files("a.qc", TRANSFER)
    # refused as the arguments are read: a missing file is never opened
    for file in (path, path + ".missing"):
        assert main(["run", file, "--input", "|1>", flag, value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: expected an integer in 0..2^63-1" in captured.err


def test_run_takes_zero_shots_and_seed(files, capsys):
    path = files("a.qc", TRANSFER)
    assert main(["run", path, "--input", "|1>", "--shots", "0", "--seed", "0"]) == 0
    assert capsys.readouterr().out == "c0=1\tp=1\t0+0i,0+0i,0+0i,1+0i\n"
    assert main(["run", path, "--input", "|1>", "--shots", "5", "--seed", "0"]) == 0
    assert capsys.readouterr().out == "c0=1\t5\n"


def test_unitary_output(files, capsys):
    path = files("x.qc", "qubits 1\ncbits 0\nX q0\n")
    assert main(["unitary", path]) == 0
    assert capsys.readouterr().out == "0+0i,1+0i\n1+0i,0+0i\n"


def test_unitary_rejects_measurement(files, capsys):
    path = files("m.qc", "qubits 1\ncbits 1\nMEASURE q0 c0\n")
    assert main(["unitary", path]) == EXIT_USAGE


def test_check_swap_unitary(files, capsys):
    a = files("swap.qc", serialize(make("XorSwap")) + "\n")
    b = files("altswap.qc", serialize(make("AltSwap")) + "\n")
    assert main(["check", a, b, "--mode", "unitary"]) == 0


def test_check_teleport_channel(files, capsys):
    a = files("teleport.qc", serialize(make("Teleportation")) + "\n")
    b = files("wire.qc", "qubits 1\ncbits 0\nINPUT q0\n")
    assert main(["check", a, b, "--mode", "channel"]) == 0
    assert main(["check", a, b, "--mode", "oracle"]) == 0


def test_check_phase_mode(files, capsys):
    # ZXZX = -I: equal to identity only up to global phase
    a = files("zxzx.qc", "qubits 1\ncbits 0\nZ q0\nX q0\nZ q0\nX q0\n")
    b = files("id1.qc", "qubits 1\ncbits 0\n")
    assert main(["check", a, b, "--mode", "unitary"]) == EXIT_NOT_EQUIV
    capsys.readouterr()
    assert main(["check", a, b, "--mode", "phase"]) == 0


def test_check_not_equivalent_prints_probe(files, capsys):
    a = files("x.qc", "qubits 1\ncbits 0\nINPUT q0\nX q0\n")
    b = files("id.qc", "qubits 1\ncbits 0\nINPUT q0\n")
    assert main(["check", a, b, "--mode", "unitary"]) == EXIT_NOT_EQUIV
    out = capsys.readouterr().out
    assert "distinguishing probe: basis |0>" in out


def test_check_oracle_builds_the_probe_set_once(files, capsys, monkeypatch):
    from qrewrite import equivalence

    blocks = []
    probe_columns = equivalence.probe_columns
    monkeypatch.setattr(
        equivalence,
        "probe_columns",
        lambda n_in, start, stop: blocks.append((start, stop)) or probe_columns(n_in, start, stop),
    )
    x = files("x.qc", "qubits 1\ncbits 0\nINPUT q0\nX q0\n")
    ident = files("id.qc", "qubits 1\ncbits 0\nINPUT q0\n")
    assert main(["check", x, ident, "--mode", "oracle"]) == EXIT_NOT_EQUIV
    assert capsys.readouterr().out == (
        "not equivalent (oracle)\ndistinguishing probe: basis |0>\n"
    )
    # probe 0 decides the unequal pair, so no block past it is built
    assert blocks == [(0, 1)]
    blocks.clear()
    assert main(["check", ident, ident, "--mode", "oracle"]) == 0
    assert capsys.readouterr().out == "equivalent (oracle)\n"
    # probe 0, then the other 24 probes of one input wire in one block
    assert blocks == [(0, 1), (1, 25)]


def test_check_channel_verdict_stands_when_the_probe_is_refused(files, capsys, monkeypatch):
    # an unequal pair of 8 output qubits, mixed by a discarded wire entangled
    # with q0, whose one output density (4^8 entries, 1 MiB) is over the
    # budget: the channel verdict prints without a probe
    preps = "qubits 9\ncbits 0\nDISCARD q8\n" + "".join(f"PREP q{w} 0\n" for w in range(9))
    a = files("a.qc", preps + "H q0\nCNOT q0 q8\n")
    b = files("b.qc", preps + "X q0\nCNOT q0 q8\n")
    monkeypatch.setattr(sim, "BYTE_BUDGET", 64 << 10)
    assert main(["check", a, b, "--mode", "channel"]) == EXIT_NOT_EQUIV
    assert capsys.readouterr().out == "not equivalent (channel)\n"
    assert main(["check", a, b, "--mode", "oracle"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: output density needs 1048576 bytes")


def test_check_oracle_decides_a_pure_pair_without_a_density(files, capsys, monkeypatch):
    # the same pair with no discarded wire has pure outputs: its rows are
    # compared, and no density is formed, at the same budget
    preps = "qubits 8\ncbits 0\n" + "".join(f"PREP q{w} 0\n" for w in range(8))
    a = files("a.qc", preps + "H q0\n")
    b = files("b.qc", preps + "X q0\n")
    monkeypatch.setattr(sim, "BYTE_BUDGET", 64 << 10)
    assert main(["check", a, b, "--mode", "oracle"]) == EXIT_NOT_EQUIV
    assert capsys.readouterr().out == "not equivalent (oracle)\ndistinguishing probe: scalar input\n"


def test_check_channel_oversized_is_a_usage_error(files, capsys):
    wide = "qubits 30\ncbits 0\n" + "".join(f"INPUT q{w}\n" for w in range(30))
    a = files("a.qc", wide + "H q0\n")
    b = files("b.qc", wide + "X q0\n")
    assert main(["check", a, b, "--mode", "channel"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_check_oracle_oversized_is_refused_before_probe_zero(files, capsys):
    wide = "qubits 30\ncbits 0\n" + "".join(f"INPUT q{w}\n" for w in range(30))
    a = files("a.qc", wide + "H q0\n")
    b = files("b.qc", wide + "X q0\n")
    assert main(["check", a, b, "--mode", "oracle"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: probe state needs")


@pytest.mark.parametrize("spec", ["nan,1", "1e400,0", "0,-1e400j", "inf,0"])
def test_run_input_with_a_non_finite_amplitude_is_a_usage_error(files, capsys, spec):
    with pytest.raises(ValueError, match="non-finite"):
        parse_ket(spec, 1)
    path = files("m.qc", "qubits 1\ncbits 1\nINPUT q0\nMEASURE q0 c0\n")
    assert main(["run", path, "--input", spec]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input state has a non-finite amplitude\n"


@pytest.mark.parametrize("spec", ["1e200,1e200", "1e-200,1e-200", "1.7e308,1.7e308"])
def test_run_input_scaled_far_from_one_runs_as_plus(files, capsys, spec):
    # the norm is taken after dividing by the largest part, so it neither
    # overflows nor underflows (a numpy warning would fail the test)
    assert np.allclose(parse_ket(spec, 1), [math.sqrt(0.5)] * 2)
    path = files("m.qc", "qubits 1\ncbits 1\nINPUT q0\nMEASURE q0 c0\n")
    assert main(["run", path, "--input", spec]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in out] == ["c0=0", "c0=1"]
    assert all("p=0.5" in line for line in out)


@pytest.mark.parametrize(
    "spec, amplitudes", [("3e-310,4e-310", [0.6, 0.8]), ("4e-310i,-3e-310", [0.8j, -0.6])]
)
def test_run_input_of_subnormal_amplitudes_is_scaled_exactly(files, capsys, spec, amplitudes):
    # the float view is divided by the largest part: a complex division by
    # a subnormal scale overflows, and the state became NaN
    assert np.allclose(parse_ket(spec, 1), amplitudes, rtol=0, atol=1e-15)
    path = files("h.qc", "qubits 1\ncbits 0\nINPUT q0\nH q0\n")
    assert main(["run", path, "--input", spec]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("-\tp=1\t")


@pytest.mark.parametrize("spec", ["||1>", "|1>>", "|1⟩⟩", "|>1>", "|1", "|"])
def test_a_basis_label_is_one_bar_the_bits_and_one_closing_bracket(files, capsys, spec):
    with pytest.raises(ValueError, match="bad basis label"):
        parse_ket(spec, 1)
    path = files("m.qc", "qubits 1\ncbits 1\nINPUT q0\nMEASURE q0 c0\n")
    assert main(["run", path, "--input", spec]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: bad basis label {spec!r} for 1 wires\n"


def test_run_input_over_the_budget_is_a_usage_error(files, capsys):
    path = files("wide.qc", "qubits 40\ncbits 0\nH q0\n")
    assert main(["run", path, "--input", "|" + "0" * 40 + ">"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: input state needs")


def test_header_over_the_wire_limit_is_a_parse_error(files, capsys):
    path = files("huge.qc", f"qubits 1\ncbits {MAX_WIRES + 1}\nH q0\n")
    assert main(["run", path]) == EXIT_PARSE
    assert "line 2: cbits" in capsys.readouterr().err


def test_rewrite_list_and_apply(files, capsys):
    path = files("hh.qc", "qubits 1\ncbits 0\nINPUT q0\nH q0\nH q0\n")
    assert main(["rewrite", path, "--rule", "R1_InverseCancel", "--list"]) == 0
    listing = capsys.readouterr().out
    assert listing.startswith("0: R1_InverseCancel")
    assert main(["rewrite", path, "--rule", "R1_InverseCancel", "--site", "0"]) == 0
    out = capsys.readouterr().out
    assert "VERIFIED" in out and "H q0" not in out


def test_rewrite_backward(files, capsys):
    path = files(
        "defer.qc",
        "qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nCNOT q0 q1\nMEASURE q0 c0\n",
    )
    assert main(["rewrite", path, "--rule", "R3_DeferMeasure", "--backward", "--list"]) == 0
    assert "R3_DeferMeasure backward" in capsys.readouterr().out
    assert main(["rewrite", path, "--rule", "R3_DeferMeasure", "--backward", "--site", "0"]) == 0
    out = capsys.readouterr().out
    assert "CX c0 q1" in out and "VERIFIED" in out


def test_rewrite_lists_no_match_it_cannot_apply(files, capsys):
    # R5 needs a third qubit for its ancilla: no match is listed without one
    path = files("cnot.qc", "qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nCNOT q0 q1\n")
    assert main(["rewrite", path, "--rule", "R5_DistributeCNOT", "--list"]) == 0
    assert capsys.readouterr().out == "no matches\n"


def test_rewrite_list_over_the_match_bound_is_a_usage_error(files, capsys, monkeypatch):
    path = files("h.qc", "qubits 4\ncbits 0\nH q0\n")
    monkeypatch.setattr(engine, "MAX_MATCHES", 3)
    assert main(["rewrite", path, "--rule", "R1_InverseCancel", "--backward", "--list"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: insertion search needs")


def test_rewrite_unknown_rule(files, capsys):
    path = files("hh.qc", "qubits 1\ncbits 0\nINPUT q0\nH q0\nH q0\n")
    assert main(["rewrite", path, "--rule", "R99_Bogus", "--list"]) == EXIT_USAGE


def test_simplify_prints_trace(files, capsys):
    path = files("xx.qc", "qubits 1\ncbits 0\nINPUT q0\nX q0\nX q0\n")
    assert main(["simplify", path]) == 0
    out = capsys.readouterr().out
    assert "VERIFIED" in out
    # the final circuit has an empty body
    assert out.strip().splitlines()[-1] == "INPUT q0"
    assert "X q0" not in out.split("final:")[1]


def test_failed_verification_exit_code(files, capsys, monkeypatch):
    # fail the window check on the step's match, the one check of a
    # verified step
    monkeypatch.setattr("qrewrite.engine._window_equal", lambda a, b, m: False)
    path = files("hh.qc", "qubits 1\ncbits 0\nINPUT q0\nH q0\nH q0\n")
    for argv in (
        ["demo", "teleportation"],
        ["simplify", path],
        ["rewrite", path, "--rule", "R1_InverseCancel", "--site", "0"],
    ):
        assert main(argv) == EXIT_VERIFY
        assert capsys.readouterr().err.startswith("verification failed:")


def test_parse_error_exit_code(files, capsys):
    path = files("bad.qc", "qubits 1\ncbits 0\nFROB q0\n")
    assert main(["run", path]) == EXIT_PARSE
    assert "line 3" in capsys.readouterr().err


def test_check_read_before_write_is_a_parse_error(files, capsys):
    a = files("a.qc", "qubits 1\ncbits 1\nINPUT q0\nCX c0 q0\n")
    b = files("b.qc", "qubits 1\ncbits 0\nINPUT q0\n")
    assert main(["check", a, b]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 4: classical wire c0 is read before it is written" in err


def test_check_role_on_undeclared_wire_is_a_parse_error(files, capsys):
    a = files("a.qc", "qubits 1\ncbits 0\nDISCARD q5\nH q0\n")
    assert main(["check", a, a]) == EXIT_PARSE
    assert "undeclared wire q5" in capsys.readouterr().err


def test_check_declaration_error_names_its_line(files, capsys):
    a = files("a.qc", "qubits 2\ncbits 0\nINPUT q0\nPREP q0 0\nH q0\n")
    b = files("b.qc", "qubits 2\ncbits 0\nINPUT q0\n")
    assert main(["check", a, b]) == EXIT_PARSE
    assert "line 4: prep on an input wire q0" in capsys.readouterr().err


def test_derivation_missing_its_target_is_a_verification_failure(capsys, monkeypatch):
    src, steps, target = scenarios._SCRIPTS["DenseFromCopy"]
    monkeypatch.setitem(scenarios._SCRIPTS, "DenseFromCopy", (src, steps[:-1], target))
    with pytest.raises(VerificationError, match="DenseFromCopy"):
        derive("DenseFromCopy")
    assert main(["demo", "densecoding"]) == EXIT_VERIFY
    assert "DenseFromCopy did not reach" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["run", "/nonexistent/x.qc"]) == EXIT_PARSE


def test_unreadable_input_is_an_error_not_a_traceback(tmp_path, capsys):
    # a directory in place of a circuit file raises IsADirectoryError
    for argv in (["run", str(tmp_path)], ["check", str(tmp_path), str(tmp_path)]):
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: [Errno")


WIDE_UNITARY = "qubits 7\ncbits 0\n" + "".join(f"INPUT q{w}\n" for w in range(7)) + "H q0\n"


@pytest.mark.parametrize("text", [None, WIDE_UNITARY], ids=["short", "long"])
def test_a_closed_standard_output_is_a_usage_error_without_a_message(
    files, capsys, monkeypatch, text
):
    # `qrewrite ... | head -1`: the reader has closed the pipe, so a write
    # raises BrokenPipeError; short output raises when `main` flushes it,
    # the 128 rows of a 7-qubit unitary while they are printed. It is not
    # an input file error (exit 2), and nothing is left to fail at exit
    argv = ["demo", "swap"] if text is None else ["unitary", files("wide.qc", text)]
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as out, monkeypatch.context() as m:
        m.setattr(sys, "stdout", out)
        assert main(argv) == EXIT_USAGE
        out.write("after the command\n")
        out.flush()  # raises unless the pipe was pointed at devnull
    assert capsys.readouterr().err == ""


def test_a_byte_order_mark_is_read_past(tmp_path, capsys):
    path = tmp_path / "bom.qc"
    path.write_bytes(b"\xef\xbb\xbfqubits 1\ncbits 0\nINPUT q0\nX q0\nX q0\n")
    assert main(["simplify", str(path)]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "INPUT q0"


def test_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


@pytest.mark.parametrize("name", ["teleportation", "densecoding", "gateteleportation", "swap"])
def test_demos_exit_zero_and_verified(name, capsys):
    assert main(["demo", name]) == 0
    out = capsys.readouterr().out
    assert "VERIFIED" in out
    assert "FAILED" not in out


def test_demo_deterministic_across_processes(files):
    # the children import the same qrewrite as this process
    src = os.path.dirname(os.path.dirname(qrewrite.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-m", "qrewrite.cli", "demo", "densecoding"]
    a = subprocess.run(cmd, capture_output=True, text=True, env=env)
    b = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert a.returncode == 0 and a.stdout == b.stdout
