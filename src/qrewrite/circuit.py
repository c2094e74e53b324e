"""Quantum circuit IR: wires, instructions, preparations, roles, text format.

The representation is deliberately small: five instruction kinds over
integer-indexed quantum and classical wires, plus preparation directives
(|0>, |+>, shared Bell pair) and role annotations used by the channel
semantics (input / output / discard for qubits, report / scratch for
classical bits).

Conventions:
    - qubit 0 is the most significant bit of a basis index
      (|q0 q1> -> index 2*q0 + q1)
    - classical wires are single-assignment
    - measurement is projective and non-destructive (the wire persists)
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

GATE1_KINDS = ("H", "X", "Z")
GATE2_KINDS = ("CNOT", "CZ")
CCTRL_KINDS = ("CX", "CZC")  # classically controlled X / Z


class CircuitError(ValueError):
    """Invalid circuit structure."""


class ParseError(CircuitError):
    """Circuit text that does not conform to the format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class WireRef(NamedTuple):
    kind: str  # "q" | "c"
    index: int

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class Gate1:
    kind: str  # H | X | Z
    target: int


@dataclass(frozen=True)
class Gate2:
    kind: str  # CNOT | CZ
    control: int
    target: int


@dataclass(frozen=True)
class Measure:
    target: int  # quantum wire
    result: int  # classical wire


@dataclass(frozen=True)
class ClassicalCtrl:
    kind: str  # CX | CZC
    control: int  # classical wire
    target: int  # quantum wire


@dataclass(frozen=True)
class ClassicalXor:
    a: int
    b: int
    out: int


Instruction = Union[Gate1, Gate2, Measure, ClassicalCtrl, ClassicalXor]

# wire-kind of each instruction field, used for support sets and unification
FIELD_KINDS: dict[type, tuple[tuple[str, str], ...]] = {
    Gate1: (("target", "q"),),
    Gate2: (("control", "q"), ("target", "q")),
    Measure: (("target", "q"), ("result", "c")),
    ClassicalCtrl: (("control", "c"), ("target", "q")),
    ClassicalXor: (("a", "c"), ("b", "c"), ("out", "c")),
}


def wires(instr: Instruction) -> frozenset[WireRef]:
    """All quantum and classical wires touched by an instruction."""
    return frozenset(
        WireRef(kind, getattr(instr, name)) for name, kind in FIELD_KINDS[type(instr)]
    )


def written_cbit(instr: Instruction) -> int | None:
    """Classical wire assigned by the instruction, if any."""
    if isinstance(instr, Measure):
        return instr.result
    if isinstance(instr, ClassicalXor):
        return instr.out
    return None


def supports_disjoint(i1: Instruction, i2: Instruction) -> bool:
    """True iff the two instructions touch disjoint wire sets (then they commute)."""
    return not (wires(i1) & wires(i2))


@dataclass(frozen=True)
class PrepDecl:
    """Preparation directive: kind "zero"/"plus" on one wire, "bell" on a pair."""

    kind: str
    wires: tuple[int, ...]


def prep_zero(w: int) -> PrepDecl:
    return PrepDecl("zero", (w,))


def prep_plus(w: int) -> PrepDecl:
    return PrepDecl("plus", (w,))


def prep_bell(a: int, b: int) -> PrepDecl:
    return PrepDecl("bell", (min(a, b), max(a, b)))


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    num_cbits: int
    preps: tuple[PrepDecl, ...]
    inputs: frozenset[int]
    body: tuple[Instruction, ...]
    q_roles: tuple[str, ...]  # per qubit: "output" | "discard"
    c_roles: tuple[str, ...]  # per cbit: "report" | "scratch"

    # -- derived views -------------------------------------------------
    def prep_of(self, w: int) -> PrepDecl | None:
        for p in self.preps:
            if w in p.wires:
                return p
        return None

    @property
    def measured(self) -> frozenset[int]:
        return frozenset(i.target for i in self.body if isinstance(i, Measure))

    @property
    def effective_inputs(self) -> tuple[int, ...]:
        """Input wires for run/channel purposes: declared inputs plus unprepped wires."""
        prepped = {w for p in self.preps for w in p.wires}
        return tuple(
            w for w in range(self.num_qubits) if w in self.inputs or w not in prepped
        )

    @property
    def output_wires(self) -> tuple[int, ...]:
        return tuple(w for w in range(self.num_qubits) if self.q_roles[w] == "output")

    @property
    def discard_wires(self) -> tuple[int, ...]:
        return tuple(w for w in range(self.num_qubits) if self.q_roles[w] == "discard")

    @property
    def report_cbits(self) -> tuple[int, ...]:
        return tuple(w for w in range(self.num_cbits) if self.c_roles[w] == "report")


def circuit(
    num_qubits: int,
    num_cbits: int,
    body: Iterable[Instruction],
    *,
    preps: Iterable[PrepDecl] = (),
    inputs: Iterable[int] = (),
    q_roles: dict[int, str] | None = None,
    c_roles: dict[int, str] | None = None,
) -> Circuit:
    """Build a validated circuit, applying default roles.

    Default quantum role is discard for measured wires and output otherwise;
    default classical role is scratch.
    """
    body = tuple(body)
    preps = tuple(sorted(preps, key=lambda p: p.wires))
    measured = {i.target for i in body if isinstance(i, Measure)}
    roles_q = []
    for w in range(num_qubits):
        default = "discard" if w in measured else "output"
        roles_q.append((q_roles or {}).get(w, default))
    roles_c = [(c_roles or {}).get(w, "scratch") for w in range(num_cbits)]
    c = Circuit(
        num_qubits,
        num_cbits,
        preps,
        frozenset(inputs),
        body,
        tuple(roles_q),
        tuple(roles_c),
    )
    validate(c)
    return c


def validate(c: Circuit) -> None:
    """Raise CircuitError on any violated structural invariant."""
    if c.num_qubits < 0 or c.num_cbits < 0:
        raise CircuitError("negative wire count")

    def check_q(w: int) -> None:
        if not 0 <= w < c.num_qubits:
            raise CircuitError(f"reference to undeclared wire q{w}")

    def check_c(w: int) -> None:
        if not 0 <= w < c.num_cbits:
            raise CircuitError(f"reference to undeclared wire c{w}")

    seen_prep: set[int] = set()
    for p in c.preps:
        if p.kind in ("zero", "plus"):
            if len(p.wires) != 1:
                raise CircuitError("single-wire prep must name one wire")
        elif p.kind == "bell":
            if len(p.wires) != 2 or p.wires[0] == p.wires[1]:
                raise CircuitError("BELL prep must pair two distinct wires")
        else:
            raise CircuitError(f"unknown prep kind {p.kind!r}")
        for w in p.wires:
            check_q(w)
            if w in seen_prep:
                raise CircuitError(f"wire q{w} has more than one prep directive")
            seen_prep.add(w)
        if set(p.wires) & c.inputs:
            raise CircuitError(f"prep on an input wire q{p.wires[0]}")
    for w in c.inputs:
        check_q(w)

    assigned: set[int] = set()
    for instr in c.body:
        for name, kind in FIELD_KINDS[type(instr)]:
            (check_q if kind == "q" else check_c)(getattr(instr, name))
        if isinstance(instr, Gate1) and instr.kind not in GATE1_KINDS:
            raise CircuitError(f"unknown gate {instr.kind!r}")
        if isinstance(instr, Gate2):
            if instr.kind not in GATE2_KINDS:
                raise CircuitError(f"unknown gate {instr.kind!r}")
            if instr.control == instr.target:
                raise CircuitError("two-qubit gate control equals target")
        if isinstance(instr, ClassicalCtrl) and instr.kind not in CCTRL_KINDS:
            raise CircuitError(f"unknown classically controlled gate {instr.kind!r}")
        w = written_cbit(instr)
        if w is not None:
            if w in assigned:
                raise CircuitError(f"classical wire c{w} assigned twice")
            assigned.add(w)
    if len(c.q_roles) != c.num_qubits or len(c.c_roles) != c.num_cbits:
        raise CircuitError("role table has wrong length")
    for r in c.q_roles:
        if r not in ("output", "discard"):
            raise CircuitError(f"bad quantum role {r!r}")
    for r in c.c_roles:
        if r not in ("report", "scratch"):
            raise CircuitError(f"bad classical role {r!r}")


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------

_Q = re.compile(r"^q(\d+)$")
_C = re.compile(r"^c(\d+)$")


def _qref(tok: str, line: int) -> int:
    m = _Q.match(tok)
    if not m:
        raise ParseError(f"expected quantum wire, got {tok!r}", line)
    return int(m.group(1))


def _cref(tok: str, line: int) -> int:
    m = _C.match(tok)
    if not m:
        raise ParseError(f"expected classical wire, got {tok!r}", line)
    return int(m.group(1))


def parse(text: str) -> Circuit:
    """Parse circuit source text into a validated Circuit.

    Format (one item per line, "#" starts a comment):
        qubits N
        cbits M
        INPUT q<i> | PREP q<i> 0 | PREP q<i> + | BELL q<i> q<j>
        OUTPUT q<i> | DISCARD q<i> | REPORT c<i> | SCRATCH c<i>
        H q<i> | X q<i> | Z q<i> | CNOT q<c> q<t> | CZ q<c> q<t>
        MEASURE q<i> c<j> | CX c<j> q<i> | CZC c<j> q<i> | XOR c<a> c<b> c<o>

    Declarations may appear in any order before the first body instruction.
    """
    lines: list[tuple[int, list[str]]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((ln, stripped.split()))

    if len(lines) < 2:
        raise ParseError("missing 'qubits N' / 'cbits M' header")
    (ln1, head1), (ln2, head2) = lines[0], lines[1]
    if len(head1) != 2 or head1[0] != "qubits" or not head1[1].isdigit():
        raise ParseError("expected 'qubits N'", ln1)
    if len(head2) != 2 or head2[0] != "cbits" or not head2[1].isdigit():
        raise ParseError("expected 'cbits M'", ln2)
    num_qubits, num_cbits = int(head1[1]), int(head2[1])

    preps: list[PrepDecl] = []
    inputs: set[int] = set()
    q_roles: dict[int, str] = {}
    c_roles: dict[int, str] = {}
    body: list[Instruction] = []

    def declaration(ln: int, toks: list[str]) -> None:
        op = toks[0]
        if op == "INPUT" and len(toks) == 2:
            inputs.add(_qref(toks[1], ln))
        elif op == "PREP" and len(toks) == 3:
            w = _qref(toks[1], ln)
            if toks[2] == "0":
                preps.append(prep_zero(w))
            elif toks[2] == "+":
                preps.append(prep_plus(w))
            else:
                raise ParseError(f"unknown prep state {toks[2]!r}", ln)
        elif op == "BELL" and len(toks) == 3:
            preps.append(prep_bell(_qref(toks[1], ln), _qref(toks[2], ln)))
        elif op in ("OUTPUT", "DISCARD") and len(toks) == 2:
            w = _qref(toks[1], ln)
            if w in q_roles:
                raise ParseError(f"role of q{w} declared twice", ln)
            q_roles[w] = op.lower()
        elif op in ("REPORT", "SCRATCH") and len(toks) == 2:
            w = _cref(toks[1], ln)
            if w in c_roles:
                raise ParseError(f"role of c{w} declared twice", ln)
            c_roles[w] = op.lower()
        else:
            raise ParseError(f"syntax error: {' '.join(toks)!r}", ln)

    def instruction(ln: int, toks: list[str]) -> Instruction:
        op = toks[0]
        if op in GATE1_KINDS and len(toks) == 2:
            return Gate1(op, _qref(toks[1], ln))
        if op in GATE2_KINDS and len(toks) == 3:
            return Gate2(op, _qref(toks[1], ln), _qref(toks[2], ln))
        if op == "MEASURE" and len(toks) == 3:
            return Measure(_qref(toks[1], ln), _cref(toks[2], ln))
        if op in CCTRL_KINDS and len(toks) == 3:
            return ClassicalCtrl(op, _cref(toks[1], ln), _qref(toks[2], ln))
        if op == "XOR" and len(toks) == 4:
            return ClassicalXor(
                _cref(toks[1], ln), _cref(toks[2], ln), _cref(toks[3], ln)
            )
        raise ParseError(f"syntax error: {' '.join(toks)!r}", ln)

    DECL_OPS = {"INPUT", "PREP", "BELL", "OUTPUT", "DISCARD", "REPORT", "SCRATCH"}
    in_body = False
    for ln, toks in lines[2:]:
        if toks[0] in DECL_OPS:
            if in_body:
                raise ParseError("declaration after first body instruction", ln)
            declaration(ln, toks)
        else:
            in_body = True
            body.append(instruction(ln, toks))

    try:
        return circuit(
            num_qubits,
            num_cbits,
            body,
            preps=preps,
            inputs=inputs,
            q_roles=q_roles,
            c_roles=c_roles,
        )
    except ParseError:
        raise
    except CircuitError as exc:
        raise ParseError(str(exc)) from exc


def serialize(c: Circuit) -> str:
    """Canonical text for a circuit; parse(serialize(c)) is structurally equal to c.

    Role lines are emitted only where they differ from the defaults.
    """
    out = [f"qubits {c.num_qubits}", f"cbits {c.num_cbits}"]
    for w in sorted(c.inputs):
        out.append(f"INPUT q{w}")
    for p in c.preps:
        if p.kind == "zero":
            out.append(f"PREP q{p.wires[0]} 0")
        elif p.kind == "plus":
            out.append(f"PREP q{p.wires[0]} +")
        else:
            out.append(f"BELL q{p.wires[0]} q{p.wires[1]}")
    measured = c.measured
    for w in range(c.num_qubits):
        default = "discard" if w in measured else "output"
        if c.q_roles[w] != default:
            out.append(f"{c.q_roles[w].upper()} q{w}")
    for w in range(c.num_cbits):
        if c.c_roles[w] != "scratch":
            out.append(f"REPORT c{w}")
    for instr in c.body:
        out.append(instruction_text(instr))
    return "\n".join(out)


def instruction_text(instr: Instruction) -> str:
    if isinstance(instr, Gate1):
        return f"{instr.kind} q{instr.target}"
    if isinstance(instr, Gate2):
        return f"{instr.kind} q{instr.control} q{instr.target}"
    if isinstance(instr, Measure):
        return f"MEASURE q{instr.target} c{instr.result}"
    if isinstance(instr, ClassicalCtrl):
        return f"{instr.kind} c{instr.control} q{instr.target}"
    return f"XOR c{instr.a} c{instr.b} c{instr.out}"


def touched(
    c: Circuit,
    wire: WireRef,
    start: int = 0,
    stop: int | None = None,
    skip: tuple[int, ...] = (),
) -> bool:
    """True if an instruction at a body index in start..stop-1, other than
    those in `skip`, touches the wire (reads, writes or acts on it)."""
    body = c.body
    stop = len(body) if stop is None else stop
    return any(j not in skip and wire in wires(body[j]) for j in range(start, stop))


_STATE_TABLE = {
    "X": {"zero": "one", "one": "zero", "plus": "plus", "minus": "minus"},
    "Z": {"zero": "zero", "one": "one", "plus": "minus", "minus": "plus"},
    "H": {"zero": "plus", "plus": "zero", "one": "minus", "minus": "one"},
}


def wire_state_before(c: Circuit, w: int, pos: int) -> str | None:
    """Statically tracked single-qubit state of wire w just before body index pos.

    Tracks the prep state through single-qubit gates only (up to global
    phase); any multi-qubit interaction, measurement or classical control
    on the wire makes the state unknown (None).
    """
    p = c.prep_of(w)
    if p is None or p.kind == "bell":
        return None
    state: str | None = p.kind
    wire = WireRef("q", w)
    for instr in c.body[:pos]:
        if wire not in wires(instr):
            continue
        if isinstance(instr, Gate1) and state is not None:
            state = _STATE_TABLE[instr.kind][state]
        else:
            return None
    return state
