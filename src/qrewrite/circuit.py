"""Quantum circuit IR: wires, instructions, preparations, roles, text format.

The representation is deliberately small: five instruction kinds over
integer-indexed quantum and classical wires, plus preparation directives
(|0>, |+>, shared Bell pair) and role annotations used by the channel
semantics (input / output / discard for qubits, report / scratch for
classical bits).

Conventions:
    - qubit 0 is the most significant bit of a basis index
      (|q0 q1> -> index 2*q0 + q1)
    - classical wires are single-assignment, and are read only after
      they are written
    - measurement is projective and non-destructive (the wire persists)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

class CircuitError(ValueError):
    """Invalid circuit structure; `index` is the body index of the
    instruction at fault, if one is."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


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
# the classical wire field an instruction writes; every other "c" field is read
WRITES: dict[type, str] = {Measure: "result", ClassicalXor: "out"}

# The instruction set: mnemonic -> (class, kind field or None). An
# instruction's operands are its class's FIELD_KINDS slots, in order.
MNEMONICS: dict[str, tuple[type, str | None]] = {
    "H": (Gate1, "H"),
    "X": (Gate1, "X"),
    "Z": (Gate1, "Z"),
    "CNOT": (Gate2, "CNOT"),
    "CZ": (Gate2, "CZ"),
    "MEASURE": (Measure, None),
    "CX": (ClassicalCtrl, "CX"),  # classically controlled X
    "CZC": (ClassicalCtrl, "CZC"),  # classically controlled Z
    "XOR": (ClassicalXor, None),
}
# text of each (class, kind) entry, a str.format template over the fields
_TEXT = {
    entry: " ".join([name, *(f"{k}{{{f}}}" for f, k in FIELD_KINDS[entry[0]])])
    for name, entry in MNEMONICS.items()
}


def wires(instr: Instruction) -> frozenset[WireRef]:
    """All quantum and classical wires touched by an instruction."""
    return frozenset(
        WireRef(kind, getattr(instr, name)) for name, kind in FIELD_KINDS[type(instr)]
    )


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

    def __post_init__(self) -> None:
        validate(self)

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
    """Build a circuit, applying default roles.

    Default quantum role is discard for measured wires and output otherwise;
    default classical role is scratch. A role for an undeclared wire is a
    CircuitError.
    """
    for kind, roles, size in (("q", q_roles, num_qubits), ("c", c_roles, num_cbits)):
        for w in roles or {}:
            if not 0 <= w < size:
                raise CircuitError(f"role for undeclared wire {kind}{w}")
    body = tuple(body)
    preps = tuple(sorted(preps, key=lambda p: p.wires))
    measured = {i.target for i in body if isinstance(i, Measure)}
    roles_q = []
    for w in range(num_qubits):
        default = "discard" if w in measured else "output"
        roles_q.append((q_roles or {}).get(w, default))
    roles_c = [(c_roles or {}).get(w, "scratch") for w in range(num_cbits)]
    return Circuit(
        num_qubits,
        num_cbits,
        preps,
        frozenset(inputs),
        body,
        tuple(roles_q),
        tuple(roles_c),
    )


def validate(c: Circuit) -> None:
    """Raise CircuitError on any violated structural invariant; an error in
    an instruction carries its body index.

    `Circuit` runs this on construction, so every Circuit satisfies it.
    """
    size = {"q": c.num_qubits, "c": c.num_cbits}
    if c.num_qubits < 0 or c.num_cbits < 0:
        raise CircuitError("negative wire count")

    def check_q(w: int) -> None:
        if not 0 <= w < c.num_qubits:
            raise CircuitError(f"reference to undeclared wire q{w}")

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

    written: set[int] = set()
    for k, instr in enumerate(c.body):
        cls = type(instr)
        if (cls, getattr(instr, "kind", None)) not in _TEXT:
            raise CircuitError(f"unknown instruction {instr!r}", k)
        out = WRITES.get(cls)
        for name, kind in FIELD_KINDS[cls]:
            w = getattr(instr, name)
            if not 0 <= w < size[kind]:
                raise CircuitError(f"reference to undeclared wire {kind}{w}", k)
            if kind == "c" and name != out and w not in written:
                raise CircuitError(
                    f"classical wire c{w} is read before it is written", k
                )
        if cls is Gate2 and instr.control == instr.target:
            raise CircuitError("two-qubit gate control equals target", k)
        if out is not None:
            w = getattr(instr, out)
            if w in written:
                raise CircuitError(f"classical wire c{w} assigned twice", k)
            written.add(w)
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

def _ref(tok: str, kind: str, line: int) -> int:
    """Index of wire token `tok` ("q3", "c0"), which must be of `kind`."""
    if tok[:1] != kind or not tok[1:].isdecimal():
        name = "quantum" if kind == "q" else "classical"
        raise ParseError(f"expected {name} wire, got {tok!r}", line)
    return int(tok[1:])


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
    body: list[tuple[int, Instruction]] = []  # (source line, instruction)

    def declaration(ln: int, toks: list[str]) -> None:
        op = toks[0]
        if op == "INPUT" and len(toks) == 2:
            inputs.add(_ref(toks[1], "q", ln))
        elif op == "PREP" and len(toks) == 3:
            w = _ref(toks[1], "q", ln)
            if toks[2] == "0":
                preps.append(prep_zero(w))
            elif toks[2] == "+":
                preps.append(prep_plus(w))
            else:
                raise ParseError(f"unknown prep state {toks[2]!r}", ln)
        elif op == "BELL" and len(toks) == 3:
            preps.append(prep_bell(_ref(toks[1], "q", ln), _ref(toks[2], "q", ln)))
        elif op in ("OUTPUT", "DISCARD") and len(toks) == 2:
            w = _ref(toks[1], "q", ln)
            if w in q_roles:
                raise ParseError(f"role of q{w} declared twice", ln)
            q_roles[w] = op.lower()
        elif op in ("REPORT", "SCRATCH") and len(toks) == 2:
            w = _ref(toks[1], "c", ln)
            if w in c_roles:
                raise ParseError(f"role of c{w} declared twice", ln)
            c_roles[w] = op.lower()
        else:
            raise ParseError(f"syntax error: {' '.join(toks)!r}", ln)

    def instruction(ln: int, toks: list[str]) -> Instruction:
        cls, kind = MNEMONICS.get(toks[0], (None, None))
        slots = FIELD_KINDS.get(cls)
        if slots is None or len(toks) != len(slots) + 1:
            raise ParseError(f"syntax error: {' '.join(toks)!r}", ln)
        operands = [_ref(tok, wire, ln) for tok, (_, wire) in zip(toks[1:], slots)]
        return cls(*operands) if kind is None else cls(kind, *operands)

    DECL_OPS = {"INPUT", "PREP", "BELL", "OUTPUT", "DISCARD", "REPORT", "SCRATCH"}
    in_body = False
    for ln, toks in lines[2:]:
        if toks[0] in DECL_OPS:
            if in_body:
                raise ParseError("declaration after first body instruction", ln)
            declaration(ln, toks)
        else:
            in_body = True
            body.append((ln, instruction(ln, toks)))

    try:
        return circuit(
            num_qubits,
            num_cbits,
            [instr for _, instr in body],
            preps=preps,
            inputs=inputs,
            q_roles=q_roles,
            c_roles=c_roles,
        )
    except CircuitError as exc:
        line = None if exc.index is None else body[exc.index][0]
        raise ParseError(str(exc), line) from exc


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
    return _TEXT[type(instr), getattr(instr, "kind", None)].format_map(vars(instr))


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
