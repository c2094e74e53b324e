"""Circuit IR: parsing, serialization, validation, structural queries."""
from pathlib import Path

import numpy as np
import pytest

from qrewrite.circuit import (
    FIELD_KINDS,
    MAX_WIRES,
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
    touched,
    wire_state_before,
)
from qrewrite.engine import find_matches
from qrewrite.rules import RULES
from qrewrite.scenarios import SCENARIO_NAMES, make
from qrewrite.sim import build_unitary

from util import linear_state_before, linear_touched, random_circuit

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


@pytest.mark.parametrize(
    "text, line, error",
    [
        ("INPUT q0\nPREP q0 0", 4, "prep on an input wire q0"),
        ("PREP q0 0\n# comment\nINPUT q0\nOUTPUT q0", 5, "prep on an input wire q0"),
        ("PREP q0 0\nPREP q0 +", 4, "wire q0 has more than one prep directive"),
        ("BELL q0 q1\nPREP q1 0", 4, "wire q1 has more than one prep directive"),
        ("BELL q1 q1", 3, "BELL prep must pair two distinct wires"),
        ("INPUT q0\nDISCARD q5", 4, "role for undeclared wire q5"),
        ("REPORT c3", 3, "role for undeclared wire c3"),
        ("INPUT q7", 3, "reference to undeclared wire q7"),
        ("INPUT q0\nBELL q1 q9", 4, "reference to undeclared wire q9"),
    ],
)
def test_declaration_errors_name_their_line(text, line, error):
    # the line at fault is the last declaration naming the rejected wire
    with pytest.raises(ParseError) as err:
        parse(f"qubits 2\ncbits 0\n{text}\nH q0")
    assert err.value.line == line and str(err.value) == f"line {line}: {error}"


def test_a_repeated_input_is_a_parse_error_naming_its_line():
    # `serialize` writes each input once, so a repeated INPUT line would
    # not round-trip; it is refused as a repeated role or prep is
    with pytest.raises(ParseError) as err:
        parse("qubits 2\ncbits 0\nINPUT q1\nINPUT q0\n# comment\nINPUT q1\nH q0")
    assert err.value.line == 6 and str(err.value) == "line 6: input q1 declared twice"
    text = "qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nH q0"
    assert serialize(parse(text)).splitlines() == text.splitlines()


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


def test_readme_rules_list_every_rule_form():
    # one line per rule and variant: "<id> [<variant>]: <pattern> => <replacement>"
    lines = []
    for rule in RULES.values():
        for variant, (pattern, replacement) in rule.templates.items():
            label = rule.id if variant == "default" else f"{rule.id} [{variant}]"
            lines.append(f"{label}: {pattern or '(empty)'} => {replacement or '(empty)'}")
    section = README.read_text(encoding="utf-8").split("## Rules\n", 1)[1]
    listing = section.split("```\n", 2)[1]
    assert listing == "\n".join(lines) + "\n"


def test_readme_library_sketch_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})
    assert capsys.readouterr().out.endswith("qubits 1\ncbits 0\nINPUT q0\n")


@pytest.mark.parametrize(
    "text, error",
    [
        (f"qubits {MAX_WIRES + 1}\ncbits 0", f"line 1: qubits {MAX_WIRES + 1} is over"),
        (f"qubits 1\ncbits {MAX_WIRES + 1}", f"line 2: cbits {MAX_WIRES + 1} is over"),
        ("qubits \u00b2\ncbits 0", "line 1: expected 'qubits N'"),
        ("qubits \u0664\ncbits 0", "line 1: expected 'qubits N'"),  # an Arabic-Indic 4
        ("qubits 4\ncbits \u0660", "line 2: expected 'cbits M'"),
    ],
)
def test_parse_rejects_bad_header_counts(text, error):
    parse(f"qubits {MAX_WIRES}\ncbits {MAX_WIRES}")  # the limit itself is allowed
    with pytest.raises(ParseError, match=error):
        parse(text)


@pytest.mark.parametrize(
    "text, line",
    [
        ("qubits " + "9" * 5000 + "\ncbits 0", 1),
        ("qubits 2\ncbits 0\nINPUT q0\nH q" + "9" * 5000, 4),
    ],
    ids=["header", "operand"],
)
def test_parse_rejects_a_number_too_long_for_int(text, line):
    # Python's `int` refuses a string of more than 4,300 digits with a bare
    # ValueError; the parser names the line instead
    with pytest.raises(ParseError, match=f"^line {line}: a number of 5000 digits") as exc:
        parse(text)
    assert exc.value.line == line


@pytest.mark.parametrize(
    "text, line",
    [
        ("qubits 4\ncbits 0\nINPUT q\u0663\nH q3", 3),
        ("qubits 4\ncbits 0\nINPUT q3\nH q\u0663", 4),
        ("qubits 1\ncbits 1\nINPUT q0\nMEASURE q0 c\u0660", 4),
    ],
    ids=["declaration", "gate", "cbit"],
)
def test_parse_reads_wire_indices_in_ascii_digits_only(text, line):
    # `str.isdecimal` takes Arabic-Indic digits too, and `int` reads them,
    # so "q\u0663" parsed as q3 and serialized as "q3": not the text read
    with pytest.raises(ParseError, match=f"^line {line}: expected ") as exc:
        parse(text)
    assert exc.value.line == line


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
        if not find_matches(circuit(4, 0, [g1, g2]), "Commute"):
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


def test_indexed_queries_equal_linear_scans():
    rng = np.random.default_rng(515)
    for _ in range(25):
        c = random_circuit(rng, max_qubits=4, max_cbits=3, max_instructions=12)
        n = len(c.body)
        refs = [WireRef("q", w) for w in range(c.num_qubits)]
        refs += [WireRef("c", w) for w in range(c.num_cbits)]
        skips = [(), tuple(int(j) for j in rng.choice(n + 1, size=min(n, 2), replace=False))]
        for wire in refs:
            for start in range(n + 1):
                for stop in [None, *range(start, n + 1)]:
                    for skip in skips:
                        assert touched(c, wire, start, stop, skip) == linear_touched(
                            c, wire, start, stop, skip
                        ), (serialize(c), wire, start, stop, skip)
        for w in range(c.num_qubits):
            for pos in range(n + 1):
                assert wire_state_before(c, w, pos) == linear_state_before(c, w, pos)


def test_touched_scans_only_its_range():
    c = parse("qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nH q0\nMEASURE q1 c0\nCX c0 q0")
    q0, q1, c0 = WireRef("q", 0), WireRef("q", 1), WireRef("c", 0)
    assert touched(c, q0) and touched(c, q1) and touched(c, c0)
    assert not touched(c, q0, 1, 2)  # only MEASURE q1 c0 is in range
    assert touched(c, c0, 1, 2) and not touched(c, c0, 1, 2, skip=(1,))
    assert touched(c, c0, 2)  # read by CX
    assert not touched(c, q1, 2)
    assert not touched(c, q0, stop=0)
