"""CLI: subcommands, exit codes, output formats, determinism."""
import math
import os
import subprocess
import sys

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
from qrewrite import scenarios
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
    assert list(parse_ket("0,1", 1)) == [0, 1]
    amp = parse_ket("1,1", 1)
    assert abs(amp[0] - math.sqrt(0.5)) < 1e-12
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

    calls = []
    probe_states = equivalence.probe_states
    monkeypatch.setattr(
        equivalence, "probe_states", lambda n_in: calls.append(n_in) or probe_states(n_in)
    )
    x = files("x.qc", "qubits 1\ncbits 0\nINPUT q0\nX q0\n")
    ident = files("id.qc", "qubits 1\ncbits 0\nINPUT q0\n")
    assert main(["check", x, ident, "--mode", "oracle"]) == EXIT_NOT_EQUIV
    assert capsys.readouterr().out == (
        "not equivalent (oracle)\ndistinguishing probe: basis |0>\n"
    )
    assert calls == [1]
    assert main(["check", ident, ident, "--mode", "oracle"]) == 0
    assert capsys.readouterr().out == "equivalent (oracle)\n"
    assert calls == [1, 1]


def test_check_channel_oversized_is_a_usage_error(files, capsys):
    wide = "qubits 30\ncbits 0\n" + "".join(f"INPUT q{w}\n" for w in range(30))
    a = files("a.qc", wide + "H q0\n")
    b = files("b.qc", wide + "X q0\n")
    assert main(["check", a, b, "--mode", "channel"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


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
    monkeypatch.setattr("qrewrite.engine.channel_equal", lambda a, b: False)
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
