"""Circuit IR: parsing, serialization, validation, structural queries."""
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrewrite.circuit import (
    FIELD_KINDS,
    MNEMONICS,
    WRITES,
    CircuitError,
    ClassicalCtrl,
    Gate1,
    Gate2,
    Measure,
    ParseError,
    WireRef,
    circuit,
    parse,
    serialize,
    supports_disjoint,
    touched,
    wire_state_before,
)
from qrewrite.scenarios import SCENARIO_NAMES, make
from qrewrite.sim import build_unitary

from util import random_circuit

README = Path(__file__).resolve().parent.parent / "README.md"

# two input qubits and two written classical wires; the instruction after
# it is on line 7
_PREFIX = "qubits 2\ncbits 3\nINPUT q0\nINPUT q1\nMEASURE q0 c0\nMEASURE q1 c1\n"


def _operands(cls) -> list[str]:
    """Valid operand tokens for `cls` after `_PREFIX`: distinct qubits,
    c0/c1 for classical reads and c2 for the classical write."""
    qs, cs = iter(("q0", "q1")), iter(("c0", "c1"))
    return [
        next(qs) if kind == "q" else "c2" if name == WRITES.get(cls) else next(cs)
        for name, kind in FIELD_KINDS[cls]
    ]


def test_parse_basic():
    c = parse("qubits 2\ncbits 0\nH q0\nCNOT q0 q1")
    assert c.num_qubits == 2 and c.num_cbits == 0
    assert c.body == (Gate1("H", 0), Gate2("CNOT", 0, 1))


def test_parse_comments_and_blank_lines():
    c = parse("# header\nqubits 1\n\ncbits 0\nX q0  # flip\n")
    assert c.body == (Gate1("X", 0),)


def test_parse_double_assignment_is_error():
    with pytest.raises(ParseError, match="^line 4: .*assigned twice"):
        parse("qubits 1\ncbits 1\nMEASURE q0 c0\nMEASURE q0 c0")


def test_parse_undeclared_wire():
    with pytest.raises(ParseError, match="^line 3: .*undeclared wire q5"):
        parse("qubits 2\ncbits 0\nH q5")
    with pytest.raises(ParseError, match="^line 5: .*undeclared wire q7") as err:
        parse("qubits 1\ncbits 0\nH q0\n# comment\nH q7")
    assert err.value.line == 5


def test_role_on_undeclared_wire_is_error():
    with pytest.raises(ParseError, match="undeclared wire q5"):
        parse("qubits 1\ncbits 0\nDISCARD q5\nH q0")
    with pytest.raises(ParseError, match="undeclared wire c3"):
        parse("qubits 1\ncbits 0\nREPORT c3")
    with pytest.raises(CircuitError, match="undeclared wire q5"):
        circuit(1, 0, [], q_roles={5: "discard"})
    with pytest.raises(CircuitError, match="undeclared wire c0"):
        circuit(1, 0, [], c_roles={0: "report"})
    with pytest.raises(CircuitError, match="undeclared wire q-1"):
        circuit(1, 0, [], q_roles={-1: "output"})


def test_parse_prep_on_input():
    with pytest.raises(ParseError, match="prep on an input wire"):
        parse("qubits 1\ncbits 0\nINPUT q0\nPREP q0 0")


def test_parse_syntax_error_reports_line():
    with pytest.raises(ParseError, match="line 3"):
        parse("qubits 1\ncbits 0\nFROB q0")
    # every mnemonic with one operand too many, one too few, and each
    # operand in turn of the other wire kind
    flip = {"q": "c", "c": "q"}
    for mnemonic, (cls, _) in MNEMONICS.items():
        ops = _operands(cls)
        wrong = [ops + ["q0"], ops[:-1]]
        for i, tok in enumerate(ops):
            wrong.append(ops[:i] + [flip[tok[0]] + tok[1:]] + ops[i + 1 :])
        for operands in wrong:
            line = " ".join([mnemonic, *operands])
            with pytest.raises(ParseError, match="^line 7: "):
                parse(_PREFIX + line)


def test_read_before_write_is_error():
    with pytest.raises(ParseError, match="^line 4: .*c0 is read before it is written"):
        parse("qubits 1\ncbits 1\nINPUT q0\nCX c0 q0")
    with pytest.raises(ParseError, match="^line 5: .*c1 is read before it is written"):
        parse("qubits 1\ncbits 3\nINPUT q0\nMEASURE q0 c0\nXOR c0 c1 c2\nMEASURE q0 c1")
    with pytest.raises(CircuitError, match="c0 is read before it is written"):
        circuit(1, 1, [ClassicalCtrl("CZC", 0, 0), Measure(0, 0)])


def test_parse_missing_header():
    with pytest.raises(ParseError, match="qubits"):
        parse("cbits 0\nqubits 1")


def test_parse_declaration_after_body():
    with pytest.raises(ParseError, match="declaration after"):
        parse("qubits 2\ncbits 0\nH q0\nPREP q1 0")


def test_parse_malformed_declaration():
    with pytest.raises(ParseError, match="line 3"):
        parse("qubits 2\ncbits 0\nINPUT q0 q1\nH q0")
    with pytest.raises(ParseError, match="line 3"):
        parse("qubits 2\ncbits 0\nPREP q0\nH q0")


def test_gate2_same_wire_rejected():
    with pytest.raises(CircuitError, match="control equals target") as err:
        circuit(2, 0, [Gate1("H", 0), Gate2("CNOT", 1, 1)])
    assert err.value.index == 1
    with pytest.raises(ParseError, match="^line 4: .*control equals target"):
        parse("qubits 2\ncbits 0\nH q0\nCZ q1 q1")


def test_xor_double_assignment_rejected():
    with pytest.raises(ParseError, match="^line 4: .*assigned twice"):
        parse("qubits 1\ncbits 2\nMEASURE q0 c0\nXOR c0 c0 c0")


def test_mnemonic_table():
    for mnemonic, (cls, kind) in MNEMONICS.items():
        assert cls in FIELD_KINDS, mnemonic
        text = _PREFIX + " ".join([mnemonic, *_operands(cls)])
        c = parse(text)  # validate accepts the entry's kind
        assert type(c.body[-1]) is cls and getattr(c.body[-1], "kind", None) == kind
        assert serialize(c) == text
        assert parse(serialize(c)) == c
    with pytest.raises(CircuitError, match="unknown instruction"):
        circuit(2, 0, [Gate1("CNOT", 0)])
    with pytest.raises(CircuitError, match="unknown instruction"):
        circuit(2, 0, [Gate2("CX", 0, 1)])


def test_readme_format_example_parses():
    section = README.read_text(encoding="utf-8").split("## Circuit file format", 1)[1]
    example = section.split("```\n", 2)[1]
    c = parse(example)
    assert {type(instr) for instr in c.body} == set(FIELD_KINDS)


def test_serialize_single_x():
    assert serialize(circuit(1, 0, [Gate1("X", 0)])) == "qubits 1\ncbits 0\nX q0"


def test_serialize_bell_generator():
    assert serialize(make("BellGenerator")) == "qubits 2\ncbits 0\nH q0\nCNOT q0 q1"


def test_serialize_empty_three_qubits():
    assert serialize(circuit(3, 0, [])) == "qubits 3\ncbits 0"


def test_roundtrip_scenarios():
    for name in SCENARIO_NAMES:
        c = make(name)
        assert parse(serialize(c)) == c, name


def test_roundtrip_random_circuits():
    rng = np.random.default_rng(7)
    for _ in range(40):
        c = random_circuit(rng)
        assert parse(serialize(c)) == c


def test_roundtrip_role_annotations():
    text = (
        "qubits 2\ncbits 1\nINPUT q0\nPREP q1 0\nOUTPUT q0\nDISCARD q1\n"
        "REPORT c0\nMEASURE q0 c0"
    )
    c = parse(text)
    assert c.q_roles == ("output", "discard")
    assert c.c_roles == ("report",)
    assert parse(serialize(c)) == c


def test_declaration_order_independent():
    base = "qubits 3\ncbits 1\nINPUT q0\nBELL q1 q2\nDISCARD q0\nCNOT q0 q1\nMEASURE q1 c0"
    c = parse(base)
    shuffled = (
        "qubits 3\ncbits 1\nDISCARD q0\nBELL q1 q2\nINPUT q0\nCNOT q0 q1\nMEASURE q1 c0"
    )
    assert parse(shuffled) == c


def test_default_roles():
    c = parse("qubits 2\ncbits 1\nPREP q0 0\nPREP q1 0\nMEASURE q0 c0")
    assert c.q_roles == ("discard", "output")  # measured wire defaults to discard
    assert c.c_roles == ("scratch",)


def test_supports_disjoint_examples():
    assert supports_disjoint(Gate1("H", 0), Gate1("X", 1))
    assert not supports_disjoint(Gate2("CNOT", 0, 1), Gate2("CZ", 1, 2))
    assert not supports_disjoint(Measure(0, 0), ClassicalCtrl("CX", 0, 1))


_instr = st.one_of(
    st.builds(Gate1, st.sampled_from(["H", "X", "Z"]), st.integers(0, 3)),
    st.builds(
        lambda k, c, t: Gate2(k, c, t if t != c else (c + 1) % 4),
        st.sampled_from(["CNOT", "CZ"]),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    st.builds(Measure, st.integers(0, 3), st.integers(0, 2)),
    st.builds(
        ClassicalCtrl, st.sampled_from(["CX", "CZC"]), st.integers(0, 2), st.integers(0, 3)
    ),
)


@given(_instr, _instr)
@settings(max_examples=60, deadline=None)
def test_supports_disjoint_symmetric(i1, i2):
    assert supports_disjoint(i1, i2) == supports_disjoint(i2, i1)


def test_disjoint_gates_commute_exactly():
    # the unitaries built from [i1, i2] and [i2, i1] are bitwise identical
    rng = np.random.default_rng(3)
    gates = [Gate1(k, w) for k in ("H", "X", "Z") for w in range(4)] + [
        Gate2(k, c, t)
        for k in ("CNOT", "CZ")
        for c in range(4)
        for t in range(4)
        if c != t
    ]
    pairs = 0
    while pairs < 50:
        i1, i2 = rng.choice(len(gates), size=2)
        g1, g2 = gates[i1], gates[i2]
        if not supports_disjoint(g1, g2):
            continue
        u12 = build_unitary(circuit(4, 0, [g1, g2]))
        u21 = build_unitary(circuit(4, 0, [g2, g1]))
        assert np.array_equal(u12, u21)
        pairs += 1


def test_wire_state_tracker():
    c = parse("qubits 2\ncbits 0\nPREP q0 0\nPREP q1 +\nH q0\nX q1\nCNOT q0 q1")
    assert wire_state_before(c, 0, 0) == "zero"
    assert wire_state_before(c, 0, 1) == "plus"  # after H
    assert wire_state_before(c, 1, 2) == "plus"  # X fixes |+>
    assert wire_state_before(c, 0, 3) is None  # after CNOT: unknown
    assert wire_state_before(c, 1, 3) is None


def test_touched_scans_only_its_range():
    c = parse("qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nH q0\nMEASURE q1 c0\nCX c0 q0")
    q0, q1, c0 = WireRef("q", 0), WireRef("q", 1), WireRef("c", 0)
    assert touched(c, q0) and touched(c, q1) and touched(c, c0)
    assert not touched(c, q0, 1, 2)  # only MEASURE q1 c0 is in range
    assert touched(c, c0, 1, 2) and not touched(c, c0, 1, 2, skip=(1,))
    assert touched(c, c0, 2)  # read by CX
    assert not touched(c, q1, 2)
    assert not touched(c, q0, stop=0)
