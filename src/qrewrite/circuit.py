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

from bisect import bisect_left
from collections.abc import Callable, Collection, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Union

class CircuitError(ValueError):
    """Invalid circuit structure; `index` is the body index of the
    instruction at fault, if one is, and `wire` the declared wire at fault,
    if a declaration is."""

    def __init__(
        self, message: str, index: int | None = None, wire: WireRef | None = None
    ):
        self.index = index
        self.wire = wire
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
# largest wire count a header may declare, far above what the simulator's
# budget or the engine's searches can handle, so a header alone cannot
# exhaust memory
MAX_WIRES = 4096
# text of each (class, kind) entry, a str.format template over the fields
_TEXT = {
    entry: " ".join([name, *(f"{k}{{{f}}}" for f, k in FIELD_KINDS[entry[0]])])
    for name, entry in MNEMONICS.items()
}


@lru_cache(maxsize=1 << 12)
def wires(instr: Instruction) -> frozenset[WireRef]:
    """All quantum and classical wires touched by an instruction. Equal
    instructions share one set (instructions are frozen, so hashable), so
    a circuit's wire index holds one set per distinct instruction."""
    return frozenset(
        WireRef(kind, getattr(instr, name)) for name, kind in FIELD_KINDS[type(instr)]
    )


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


# an instruction's opcode: its class and kind, a `MNEMONICS` entry
Opcode = tuple[type, Union[str, None]]


def opcode(instr: Instruction) -> Opcode:
    return type(instr), getattr(instr, "kind", None)


class WireIndex(NamedTuple):
    """A circuit body indexed by wire and by opcode: each body index's wire
    set, and each wire's and each opcode's body positions in ascending
    order (wires nothing touches and opcodes the body lacks are absent),
    which the matcher (`engine._find_sites`) walks."""

    wires: tuple[frozenset[WireRef], ...]
    positions: dict[WireRef, list[int]]
    ops: dict[Opcode, list[int]]


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
    @cached_property
    def wire_index(self) -> WireIndex:
        """The body indexed by wire and by opcode, built on first use (a
        circuit that is never searched never builds it)."""
        body_wires = tuple(map(wires, self.body))
        positions: dict[WireRef, list[int]] = {}
        ops: dict[Opcode, list[int]] = {}
        for k, instr in enumerate(self.body):
            # `opcode(instr)` inline, and a list made only for a new key
            # (`setdefault` makes one per call): every searched circuit
            # builds this
            key = type(instr), getattr(instr, "kind", None)
            at = ops.get(key)
            if at is None:
                ops[key] = [k]
            else:
                at.append(k)
            for w in body_wires[k]:
                at = positions.get(w)
                if at is None:
                    positions[w] = [k]
                else:
                    at.append(k)
        return WireIndex(body_wires, positions, ops)

    @cached_property
    def _prep_by_wire(self) -> dict[int, PrepDecl]:
        return {w: p for p in self.preps for w in p.wires}

    def prep_of(self, w: int) -> PrepDecl | None:
        return self._prep_by_wire.get(w)

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
                raise CircuitError(
                    f"role for undeclared wire {kind}{w}", wire=WireRef(kind, w)
                )
    body = tuple(body)
    preps = tuple(sorted(preps, key=lambda p: p.wires))
    measured = {i.target for i in body if isinstance(i, Measure)}
    defaults = _default_q_roles(num_qubits, measured)
    roles_q = [(q_roles or {}).get(w, default) for w, default in enumerate(defaults)]
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


def _default_q_roles(num_qubits: int, measured: set[int] | frozenset[int]) -> list[str]:
    """Discard for a measured wire, output for any other."""
    return ["discard" if w in measured else "output" for w in range(num_qubits)]


def validate(c: Circuit) -> None:
    """Raise CircuitError on any violated structural invariant; an error in
    an instruction carries its body index.

    `Circuit` runs this on construction (so `circuit`, `parse` and
    `dataclasses.replace` do), and every Circuit satisfies it. It runs three
    checks over the whole circuit: the declarations (`_check_declarations`),
    each instruction on its own (`_check_instruction`) and the classical
    order (`_check_order`). A rewrite's output is built by `_splice`
    instead, which runs the same three over only what the rewrite changes.
    """
    if c.num_qubits < 0 or c.num_cbits < 0:
        raise CircuitError("negative wire count")
    _check_declarations(c)
    size = {"q": c.num_qubits, "c": c.num_cbits}
    written: set[int] = set()
    for k, instr in enumerate(c.body):
        _check_instruction(k, instr, size)
        _check_order(k, instr, written)
    if len(c.q_roles) != c.num_qubits or len(c.c_roles) != c.num_cbits:
        raise CircuitError("role table has wrong length")
    for r in c.q_roles:
        if r not in ("output", "discard"):
            raise CircuitError(f"bad quantum role {r!r}")
    for r in c.c_roles:
        if r not in ("report", "scratch"):
            raise CircuitError(f"bad classical role {r!r}")


def _check_declarations(c: Circuit) -> None:
    """Preps well formed, on declared non-input wires, at most one per
    wire; inputs declared."""

    def declared(message: str, w: int) -> CircuitError:
        return CircuitError(message, wire=WireRef("q", w))

    def check_q(w: int) -> None:
        if not 0 <= w < c.num_qubits:
            raise declared(f"reference to undeclared wire q{w}", w)

    seen_prep: set[int] = set()
    for p in c.preps:
        if p.kind in ("zero", "plus"):
            if len(p.wires) != 1:
                raise CircuitError("single-wire prep must name one wire")
        elif p.kind == "bell":
            if len(p.wires) != 2 or p.wires[0] == p.wires[1]:
                raise declared("BELL prep must pair two distinct wires", p.wires[0])
        else:
            raise CircuitError(f"unknown prep kind {p.kind!r}")
        for w in p.wires:
            check_q(w)
            if w in seen_prep:
                raise declared(f"wire q{w} has more than one prep directive", w)
            seen_prep.add(w)
            if w in c.inputs:
                raise declared(f"prep on an input wire q{w}", w)
    for w in c.inputs:
        check_q(w)


def _check_instruction(k: int, instr: Instruction, size: dict[str, int]) -> None:
    """The instruction at body index k is of a known kind, names declared
    wires (`size`: wire count by kind) and, if a `Gate2`, two distinct ones."""
    cls = type(instr)
    if (cls, getattr(instr, "kind", None)) not in _TEXT:
        raise CircuitError(f"unknown instruction {instr!r}", k)
    for name, kind in FIELD_KINDS[cls]:
        w = getattr(instr, name)
        if not 0 <= w < size[kind]:
            raise CircuitError(f"reference to undeclared wire {kind}{w}", k)
    if cls is Gate2 and instr.control == instr.target:
        raise CircuitError("two-qubit gate control equals target", k)


def _check_order(
    k: int, instr: Instruction, written: set[int], scope: Collection[int] | None = None
) -> None:
    """Single assignment and read-after-write at body index k, along the
    classical wires in `scope` (every one if None). `written` holds the
    wires written before k, and gains the one the instruction writes."""
    cls = type(instr)
    out = WRITES.get(cls)
    for name, kind in FIELD_KINDS[cls]:
        w = getattr(instr, name)
        if kind == "c" and name != out and w not in written:
            if scope is None or w in scope:
                raise CircuitError(
                    f"classical wire c{w} is read before it is written", k
                )
    if out is not None:
        w = getattr(instr, out)
        if scope is None or w in scope:
            if w in written:
                raise CircuitError(f"classical wire c{w} assigned twice", k)
            written.add(w)


@lru_cache(maxsize=1 << 12)
def _instructions_fit(new: tuple[Instruction, ...], num_qubits: int, num_cbits: int) -> bool:
    """Whether every instruction of `new` passes `_check_instruction` in a
    circuit of these wire counts. The check reads nothing else, so this is
    memoized, exactly: a rewrite's replacement, grounded once per form and
    binding (`rules.RuleForm._ground_dst`), is checked once per size."""
    size = {"q": num_qubits, "c": num_cbits}
    try:
        for instr in new:
            _check_instruction(0, instr, size)
    except CircuitError:
        return False
    return True


def _splice(
    c: Circuit,
    pos: int,
    end: int,
    new: Sequence[Instruction],
    kept: Sequence[Instruction],
    num_cbits: int,
    preps: tuple[PrepDecl, ...] | None,
    cbits: Collection[int],
) -> Circuit:
    """A rewrite's output: `c` with body[pos:end] replaced by the
    instructions `new` followed by `kept` (instructions of body[pos:end]),
    scratch cbits appended up to `num_cbits`, and the preps replaced by
    `preps` unless it is None.

    `c` is valid, so only what the splice can change is checked, by the
    code `validate` runs: each instruction of `new` (once per tuple and
    wire counts, `_instructions_fit`); the declarations, if
    the preps change; and the classical order along the wires in `cbits`.
    The caller names there every classical wire that a removed or a new
    instruction touches. No other one can change order, because `kept`
    moves only past removed and new instructions (or, in a swap, past an
    instruction that shares no wire with it).
    """
    body = c.body[:pos] + tuple(new) + tuple(kept) + c.body[end:]
    # set field by field, in order, as the dataclass `__init__` does: that
    # keeps the compact attribute storage instances share
    out, put = object.__new__(Circuit), object.__setattr__
    put(out, "num_qubits", c.num_qubits)
    put(out, "num_cbits", num_cbits)
    put(out, "preps", c.preps if preps is None else preps)
    put(out, "inputs", c.inputs)
    put(out, "body", body)
    put(out, "q_roles", c.q_roles)
    put(out, "c_roles", c.c_roles + ("scratch",) * (num_cbits - c.num_cbits))
    if preps is not None:
        _check_declarations(out)
    new = tuple(new)
    if new and not _instructions_fit(new, c.num_qubits, num_cbits):
        size = {"q": c.num_qubits, "c": num_cbits}
        for k, instr in enumerate(new, start=pos):
            _check_instruction(k, instr, size)  # raises at the first at fault
    if cbits:
        written: set[int] = set()
        for k, instr in enumerate(body):
            _check_order(k, instr, written, cbits)
    return out


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------

def ascii_digits(text: str) -> bool:
    """True if `text` is one or more ASCII digits, the only numbers the
    text format and the CLI read (`str.isdecimal` also takes other
    scripts' digits, which would not serialize back as written)."""
    return text.isascii() and text.isdecimal()


def _ref(tok: str, kind: str) -> int:
    """Index of wire token `tok` ("q3", "c0"), which must be of `kind`."""
    if tok[:1] != kind or not ascii_digits(tok[1:]):
        name = "quantum" if kind == "q" else "classical"
        raise ParseError(f"expected {name} wire, got {tok!r}")
    return _number(tok[1:])


def _number(digits: str, line: int | None = None) -> int:
    try:  # `int` reads at most `sys.get_int_max_str_digits()` digits
        return int(digits)
    except ValueError:
        raise ParseError(f"a number of {len(digits)} digits is too long to read", line) from None


# state token of a PREP statement -> prep kind
_PREP_STATES = {"0": "zero", "+": "plus"}
_PREP_TOKENS = {kind: token for token, kind in _PREP_STATES.items()}


def read_statement(
    toks: Sequence[str], ref: Callable[[str, str], object]
) -> Instruction | PrepDecl:
    """The instruction (a `MNEMONICS` entry) or prep (`PREP`, `BELL`) that
    a statement's tokens state, each operand read by `ref(token, kind)`
    with kind "q" or "c": wire indices in a circuit file (`_ref`), variable
    names in a rule template. A malformed statement is a ParseError with
    no line."""
    op = toks[0]
    if op == "PREP" and len(toks) == 3:
        w = ref(toks[1], "q")
        if toks[2] not in _PREP_STATES:
            raise ParseError(f"unknown prep state {toks[2]!r}")
        return PrepDecl(_PREP_STATES[toks[2]], (w,))
    if op == "BELL" and len(toks) == 3:
        return prep_bell(ref(toks[1], "q"), ref(toks[2], "q"))
    cls, kind = MNEMONICS.get(op, (None, None))
    slots = FIELD_KINDS.get(cls)
    if slots is None or len(toks) != len(slots) + 1:
        raise ParseError(f"syntax error: {' '.join(toks)!r}")
    operands = [ref(tok, wire) for tok, (_, wire) in zip(toks[1:], slots)]
    return cls(*operands) if kind is None else cls(kind, *operands)


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
    if len(head1) != 2 or head1[0] != "qubits" or not ascii_digits(head1[1]):
        raise ParseError("expected 'qubits N'", ln1)
    if len(head2) != 2 or head2[0] != "cbits" or not ascii_digits(head2[1]):
        raise ParseError("expected 'cbits M'", ln2)
    num_qubits, num_cbits = _number(head1[1], ln1), _number(head2[1], ln2)
    for ln, (word, count), n in ((ln1, head1, num_qubits), (ln2, head2, num_cbits)):
        if n > MAX_WIRES:
            raise ParseError(f"{word} {count} is over the limit of {MAX_WIRES}", ln)

    preps: list[PrepDecl] = []
    inputs: set[int] = set()
    q_roles: dict[int, str] = {}
    c_roles: dict[int, str] = {}
    body: list[tuple[int, Instruction]] = []  # (source line, instruction)
    # the line of the last INPUT, PREP or BELL naming each wire, else of its
    # role: the line at fault when validation rejects that wire
    decl_line: dict[WireRef, int] = {}

    def declaration(ln: int, toks: list[str]) -> None:
        op = toks[0]
        if op in ("OUTPUT", "DISCARD", "REPORT", "SCRATCH") and len(toks) == 2:
            kind = "q" if op in ("OUTPUT", "DISCARD") else "c"
            w = _ref(toks[1], kind)
            roles = q_roles if kind == "q" else c_roles
            if w in roles:
                raise ParseError(f"role of {kind}{w} declared twice")
            roles[w] = op.lower()
            decl_line.setdefault(WireRef(kind, w), ln)
            return
        if op == "INPUT" and len(toks) == 2:
            named = (_ref(toks[1], "q"),)
            if named[0] in inputs:
                raise ParseError(f"input q{named[0]} declared twice")
            inputs.update(named)
        else:
            # a PREP or BELL, else a syntax error
            prep = read_statement(toks, _ref)
            preps.append(prep)
            named = prep.wires
        for w in named:
            decl_line[WireRef("q", w)] = ln

    DECL_OPS = {"INPUT", "PREP", "BELL", "OUTPUT", "DISCARD", "REPORT", "SCRATCH"}
    in_body = False
    for ln, toks in lines[2:]:
        try:
            if toks[0] not in DECL_OPS:
                in_body = True
                body.append((ln, read_statement(toks, _ref)))
            elif in_body:
                raise ParseError("declaration after first body instruction")
            else:
                declaration(ln, toks)
        except ParseError as exc:
            raise ParseError(str(exc), ln) from None

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
        if exc.index is not None:
            line = body[exc.index][0]
        else:
            line = decl_line.get(exc.wire)
        raise ParseError(str(exc), line) from exc


def serialize(c: Circuit) -> str:
    """Canonical text for a circuit; parse(serialize(c)) is structurally equal to c.

    Role lines are emitted only where they differ from the defaults.
    """
    out = [f"qubits {c.num_qubits}", f"cbits {c.num_cbits}"]
    for w in sorted(c.inputs):
        out.append(f"INPUT q{w}")
    for p in c.preps:
        if p.kind == "bell":
            out.append(f"BELL q{p.wires[0]} q{p.wires[1]}")
        else:
            out.append(f"PREP q{p.wires[0]} {_PREP_TOKENS[p.kind]}")
    for w, default in enumerate(_default_q_roles(c.num_qubits, c.measured)):
        if c.q_roles[w] != default:
            out.append(f"{c.q_roles[w].upper()} q{w}")
    for w in range(c.num_cbits):
        if c.c_roles[w] != "scratch":
            out.append(f"REPORT c{w}")
    for instr in c.body:
        out.append(instruction_text(instr))
    return "\n".join(out)


def instruction_text(instr: Instruction) -> str:
    return _TEXT[opcode(instr)].format_map(vars(instr))


def touched(
    c: Circuit,
    wire: WireRef,
    start: int = 0,
    stop: int | None = None,
    skip: Collection[int] = (),
) -> bool:
    """True if an instruction at a body index in start..stop-1, other than
    those in `skip`, touches the wire (reads, writes or acts on it)."""
    at = c.wire_index.positions.get(wire, ())
    stop = len(c.body) if stop is None else stop
    for k in range(bisect_left(at, start), len(at)):
        if at[k] >= stop:
            return False
        if at[k] not in skip:
            return True
    return False


_STATE_TABLE = {
    "X": {"zero": "one", "one": "zero", "plus": "plus", "minus": "minus"},
    "Z": {"zero": "zero", "one": "one", "plus": "minus", "minus": "plus"},
    "H": {"zero": "plus", "plus": "zero", "one": "minus", "minus": "one"},
}


def wire_state_before(c: Circuit, w: int, pos: int) -> str | None:
    """Statically tracked single-qubit state of wire w just before body index pos.

    Tracks the prep state through single-qubit gates only (up to global
    phase); any multi-qubit interaction, measurement or classical control
    on the wire makes the state unknown (None). The one query for a wire's
    known state: the R1 conditions and the engine's window tier read it,
    and its names key the vectors in `sim.STATE_VECTORS`.
    """
    p = c.prep_of(w)
    if p is None or p.kind == "bell":
        return None
    state = p.kind
    for j in c.wire_index.positions.get(WireRef("q", w), ()):
        if j >= pos:
            break
        instr = c.body[j]
        if not isinstance(instr, Gate1):
            return None
        state = _STATE_TABLE[instr.kind][state]
    return state
