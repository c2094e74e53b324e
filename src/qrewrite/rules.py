"""Catalog of rewrite rules: local pattern -> replacement pairs with
applicability conditions.

Twelve cataloged equivalences (inverse cancellation, null controls and
targets, CZ symmetry, CNOT/CZ interchange, CNOT reversal corollaries,
deferred measurement, XOR substitution, distributed CNOT, CNOT mirror,
parallel-to-lambda) plus structural engine rules (adjacent commutations,
discarded-wire cleanup, measurement insertion on discarded wires, Bell
preparation folding) that the derivation scripts rely on.

Each rule is stated once, as data. Its `templates` table maps each variant
to a pattern and a replacement, each a small circuit in the text format
of circuit files with variable names for wires and ";" between
statements: `"H w; H w"`, or `"PREP a +; PREP b 0; CNOT a b"` for a side
that needs preps. Each template is read once, by the statement reader
that `circuit.parse` uses (`circuit.read_statement`), so the circuit
language is one table, `circuit.MNEMONICS`; a malformed template is a
`ParseError` naming its rule. A rule's `condition` is a static, syntactic
check of the circuit around an occurrence, stated as ordered
`(variable, test)` pairs that must all pass. Each test looks at one
variable's wire (for example "this wire is provably in |+> here", or
"nothing outside the match touches this classical wire"). A test sees
where the occurrence sits and which body indices it matched, never the
direction, the variant or another variable's wire, so one condition serves
both directions of a rule, and the engine can filter each variable's
candidate wires on its own before it binds them together.

Each rule is compiled once, at import, into one `RuleForm` per direction
and variant (`FORMS`, looked up through `rule_forms`): the matched ("src")
and produced ("dst") sides as instruction and prep templates, the
variables each side needs, their wire kinds and the rule's allowed
aliases. The engine and the tests read these records; grounding a
template with a binding map gives concrete instructions.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .circuit import (
    FIELD_KINDS,
    Circuit,
    Instruction,
    Measure,
    Opcode,
    ParseError,
    PrepDecl,
    WireRef,
    opcode,
    prep_bell,
    read_statement,
    touched,
    wire_state_before,
)

Bindings = Mapping[str, object]
# a parsed template: its instructions and its preps, in order
Side = tuple[tuple[Instruction, ...], tuple[PrepDecl, ...]]
# test(c, pos, matched, wire) -> reason or None: `pos` is the first matched
# index or the insertion position, `matched` the matched body indices (empty
# for an insertion), `wire` the wire its variable binds; it reads no other
# variable's wire
WireTest = Callable[[Circuit, int, tuple[int, ...], int], "str | None"]
# a rule's condition: (variable, test) pairs, all of which must pass, in order
Condition = tuple[tuple[str, WireTest], ...]


def _parse_template(rule_id: str, text: str) -> Side:
    """A template's instructions and preps; its operands stay variable names."""
    instrs: list[Instruction] = []
    preps: list[PrepDecl] = []
    for stmt in text.split(";"):
        toks = stmt.split()
        if not toks:
            continue
        try:
            item = read_statement(toks, lambda tok, kind: tok)
        except ParseError as exc:
            raise ParseError(f"rule {rule_id}: {exc}") from None
        (preps if isinstance(item, PrepDecl) else instrs).append(item)
    return tuple(instrs), tuple(preps)


@dataclass(frozen=True)
class RewriteRule:
    id: str
    # variant -> (pattern, replacement), each circuit text over variable names
    templates: Mapping[str, tuple[str, str]]
    condition: Condition = ()
    # pairs of quantum variables allowed to bind the same wire
    alias_ok: frozenset[frozenset[str]] = field(default_factory=frozenset)

    @property
    def variants(self) -> tuple[str, ...]:
        return tuple(self.templates)

    @cached_property
    def sides(self) -> dict[str, tuple[Side, Side]]:
        """Each variant's parsed pattern and replacement, read once."""
        return {
            variant: (_parse_template(self.id, p), _parse_template(self.id, r))
            for variant, (p, r) in self.templates.items()
        }


def _provably(state: str, reason: str) -> WireTest:
    """A test that the quantum wire is provably in `state` ("zero" or
    "plus") just before the occurrence."""

    def test(c, pos, matched, w) -> str | None:
        return None if wire_state_before(c, w, pos) == state else reason

    return test


def _cbit_unused(reason: str) -> WireTest:
    """A test that the classical wire is not reported (a new cbit is
    scratch) and that nothing outside the match touches it."""

    def test(c, pos, matched, r) -> str | None:
        if r < c.num_cbits and c.c_roles[r] == "report":
            return "classical wire has role report"
        return reason if touched(c, WireRef("c", r), skip=matched) else None

    return test


def _r4_measured_operand(c, pos, matched, bw) -> str | None:
    if c.q_roles[bw] != "discard":
        return "measured operand b must have role discard"
    # b's measurement is the matched Measure that targets b
    i_m2 = next(
        j for j in matched if isinstance(c.body[j], Measure) and c.body[j].target == bw
    )
    if touched(c, WireRef("q", bw), i_m2 + 1, skip=matched):
        return "wire b is used after its measurement"
    return None


def _discarded_from_here(used: str) -> WireTest:
    """A test that the quantum wire is discarded and that nothing outside
    the match touches it from the occurrence on (`used` if something does)."""

    def test(c, pos, matched, w) -> str | None:
        if c.q_roles[w] != "discard":
            return "wire must have role discard"
        if touched(c, WireRef("q", w), pos, skip=matched):
            return used
        return None

    return test


def _untouched_before(c, pos, matched, w) -> str | None:
    if touched(c, WireRef("q", w), stop=pos):
        return "pair wires are touched before the fold point"
    return None


# Rule I: null gates
R1_INVERSE = RewriteRule("R1_InverseCancel", {
    "H": ("H w; H w", ""),
    "X": ("X w; X w", ""),
    "Z": ("Z w; Z w", ""),
    "CNOT": ("CNOT c t; CNOT c t", ""),
    "CZ": ("CZ c t; CZ c t", ""),
})
R1_TARGET_PLUS = RewriteRule(
    "R1_TargetPlus",
    {"default": ("CNOT c t", "")},
    condition=(("t", _provably("plus", "target wire is not provably |+> at this point")),),
)
R1_CONTROL_ZERO = RewriteRule(
    "R1_ControlZero",
    {"CNOT": ("CNOT c t", ""), "CZ": ("CZ c t", "")},
    condition=(("c", _provably("zero", "control wire is not provably |0> at this point")),),
)

# Rule II: control reversal and corollaries
R2_CZ_FLIP = RewriteRule("R2_CZFlip", {"default": ("CZ a b", "CZ b a")})
R2_CNOT_VIA_CZ = RewriteRule(
    "R2_CNOTviaCZ", {"default": ("CNOT c t", "H t; CZ c t; H t")}
)
R2_CNOT_REVERSAL = RewriteRule(
    "R2_CNOTReversal", {"default": ("H c; H t; CNOT c t; H c; H t", "CNOT t c")}
)
R2_H_MIRROR = RewriteRule(
    "R2_HMirror", {"default": ("H c; H t; CNOT c t", "CNOT t c; H c; H t")}
)

# Rule III: deferred measurement
R3_DEFER = RewriteRule("R3_DeferMeasure", {
    "cX": ("MEASURE m r; CX r t", "CNOT m t; MEASURE m r"),
    "cZ": ("MEASURE m r; CZC r t", "CZ m t; MEASURE m r"),
})

# Rule IV: quantum-classical substitution (CNOT -> XOR)
R4_XOR_SUBST = RewriteRule(
    "R4_XorSubstitute",
    {
        "cX": (
            "CNOT a b; MEASURE a r1; MEASURE b r2; CX r2 t",
            "MEASURE a r1; MEASURE b r2; XOR r1 r2 r3; CX r3 t",
        ),
        "cZ": (
            "CNOT a b; MEASURE a r1; MEASURE b r2; CZC r2 t",
            "MEASURE a r1; MEASURE b r2; XOR r1 r2 r3; CZC r3 t",
        ),
    },
    condition=(
        ("b", _r4_measured_operand),
        ("r2", _cbit_unused("classical wire r2 has readers outside the match")),
        ("r3", _cbit_unused("classical wire r3 is not fresh")),
    ),
)

# Rule V: distributed CNOT
R5_DISTRIBUTE = RewriteRule("R5_DistributeCNOT", {
    "i": ("CNOT c t", "CNOT c a; CNOT a t; CNOT c a; CNOT a t"),
    "ii": ("CNOT c t", "CNOT a t; CNOT c a; CNOT a t; CNOT c a"),
})

# Rule VI: CNOT mirror (chained CNOTs reflect off the long CNOT a c, which
# the variant's digit places)
R6_MIRROR = RewriteRule("R6_CNOTMirror", {
    "A0": ("CNOT a b; CNOT b c", "CNOT a c; CNOT b c; CNOT a b"),
    "A1": ("CNOT a b; CNOT b c", "CNOT b c; CNOT a c; CNOT a b"),
    "A2": ("CNOT a b; CNOT b c", "CNOT b c; CNOT a b; CNOT a c"),
    "B0": ("CNOT b c; CNOT a b", "CNOT a c; CNOT a b; CNOT b c"),
    "B1": ("CNOT b c; CNOT a b", "CNOT a b; CNOT a c; CNOT b c"),
    "B2": ("CNOT b c; CNOT a b", "CNOT a b; CNOT b c; CNOT a c"),
})

# Rule VII: parallel to lambda
R7_LAMBDA = RewriteRule(
    "R7_ParallelToLambda",
    {"default": ("CNOT c t1; CNOT c t2", "CNOT t1 t2; CNOT c t1; CNOT t1 t2")},
)

# Structural engine rules
CONTROLS_COMMUTE = RewriteRule(
    "ControlsCommute", {"default": ("CNOT c a; CNOT c b", "CNOT c b; CNOT c a")}
)
TARGETS_COMMUTE = RewriteRule(
    "TargetsCommute", {"default": ("CNOT a t; CNOT b t", "CNOT b t; CNOT a t")}
)
CZ_CONTROL_COMMUTE = RewriteRule(
    "CzControlCommute",
    {
        "cz_first": ("CZ x y; CNOT a t", "CNOT a t; CZ x y"),
        "cnot_first": ("CNOT a t; CZ x y", "CZ x y; CNOT a t"),
    },
    # the CZ may share the CNOT's control wire (both preserve its basis),
    # never its target
    alias_ok=frozenset({frozenset({"a", "x"}), frozenset({"a", "y"})}),
)
DISCARDED_TAIL = RewriteRule(
    "DiscardedWireTail",
    {"H": ("H w", ""), "X": ("X w", ""), "Z": ("Z w", "")},
    condition=(("w", _discarded_from_here("wire is used again later")),),
)
MEASURE_DISCARDED = RewriteRule(
    "MeasureDiscarded",
    {"default": ("", "MEASURE w r")},
    condition=(
        ("w", _discarded_from_here("wire is used again after the measurement point")),
        ("r", _cbit_unused("classical result wire is read or assigned elsewhere")),
    ),
)
BELL_PREP_FOLD = RewriteRule(
    "BellPrepFold",
    {
        "hcnot": ("PREP a 0; PREP b 0; H a; CNOT a b", "BELL a b"),
        "plus": ("PREP a +; PREP b 0; CNOT a b", "BELL a b"),
    },
    condition=(("a", _untouched_before), ("b", _untouched_before)),
)
# "Commute" (adjacent disjoint-support swap) is handled specially by the
# engine; it is listed here so rule ids are uniform and CLI-visible.
COMMUTE = RewriteRule("Commute", {"default": ("", "")})

CATALOG = (
    R1_INVERSE,
    R1_TARGET_PLUS,
    R1_CONTROL_ZERO,
    R2_CZ_FLIP,
    R2_CNOT_VIA_CZ,
    R2_CNOT_REVERSAL,
    R2_H_MIRROR,
    R3_DEFER,
    R4_XOR_SUBST,
    R5_DISTRIBUTE,
    R6_MIRROR,
    R7_LAMBDA,
)
STRUCTURAL = (
    CONTROLS_COMMUTE,
    TARGETS_COMMUTE,
    CZ_CONTROL_COMMUTE,
    DISCARDED_TAIL,
    MEASURE_DISCARDED,
    BELL_PREP_FOLD,
    COMMUTE,
)
CATALOG_IDS = tuple(r.id for r in CATALOG)
STRUCTURAL_IDS = tuple(r.id for r in STRUCTURAL)
RULES: dict[str, RewriteRule] = {r.id: r for r in CATALOG + STRUCTURAL}


def template_side(rule: RewriteRule, direction: str, which: str, variant: str) -> Side:
    """A variant's parsed matched ("src") or produced ("dst") side."""
    pattern, replacement = rule.sides[variant]
    return pattern if (which == "src") == (direction == "forward") else replacement


def template_variables(side: Side) -> tuple[str, ...]:
    """Variable names of a template: its instructions' wire slots in order,
    then its prep wires."""
    instrs, preps = side
    slots = [getattr(i, name) for i in instrs for name, _ in FIELD_KINDS[type(i)]]
    return tuple(dict.fromkeys(slots + [w for p in preps for w in p.wires]))


def variable_kinds(rule: RewriteRule) -> dict[str, str]:
    """Map each variable of a rule to its wire kind ("q" or "c"); a variable
    in slots of both kinds is a ParseError naming the rule."""
    kinds: dict[str, str] = {}
    for pair in rule.sides.values():
        for instrs, preps in pair:
            slots = [(w, "q") for p in preps for w in p.wires] + [
                (getattr(i, name), kind) for i in instrs for name, kind in FIELD_KINDS[type(i)]
            ]
            for var, kind in slots:
                if kinds.setdefault(var, kind) != kind:
                    raise ParseError(
                        f"rule {rule.id}: variable {var!r} names both a quantum"
                        " and a classical wire"
                    )
    return kinds


def ground(
    instrs: Sequence[Instruction], bindings: Bindings, cbits: Bindings | None = None
) -> list[Instruction]:
    """Substitute variables with bound wires; the maps must be total. Given
    `cbits`, classical slots are renamed by it, apart from the qubits."""
    maps = {"q": bindings, "c": bindings if cbits is None else cbits}
    out = []
    for instr in instrs:
        cls = type(instr)
        ws = [maps[k][getattr(instr, f)] for f, k in FIELD_KINDS[cls]]
        kind = getattr(instr, "kind", None)
        out.append(cls(*ws) if kind is None else cls(kind, *ws))
    return out


def ground_preps(preps: list[PrepDecl], bindings: Bindings) -> list[PrepDecl]:
    grounded = ((p.kind, [bindings[w] for w in p.wires]) for p in preps)
    return [prep_bell(*ws) if k == "bell" else PrepDecl(k, tuple(ws)) for k, ws in grounded]


# ----------------------------------------------------------------------
# Compiled rule forms
# ----------------------------------------------------------------------

DIRECTIONS = ("forward", "backward")
_GROUND_MEMO_SIZE = 1024  # binding tuples whose grounded `dst` a form keeps


@dataclass(frozen=True)
class RuleForm:
    """One rule in one direction and variant, with its templates grounded
    to variable names.

    `src` is the side a match finds in the circuit, `dst` the side a rewrite
    splices in (pattern and replacement forward, swapped backward). A form
    with an empty `src` is applied by insertion. `src_vars` and `dst_vars`
    are the variables each side needs, instruction slots first, then prep
    wires; `dst_vars` missing from `src_vars` are fresh wires a rewrite
    allocates. `src_ops` counts each opcode `src` holds, so a search can
    pass over a body that holds fewer. `_rank` is the variant's place in
    the rule's declaration order, by which `find_matches` orders matches
    at one site.

    A rewrite grounds `dst` once per form and binding tuple
    (`_ground_dst`): the form keeps a memo from the wires bound to
    `dst_vars`, in that order, to the grounded instructions, which are
    immutable, so every rewrite with those wires shares them. The memo
    belongs to this object, so a copy made by `dataclasses.replace` starts
    empty, and it holds at most `_GROUND_MEMO_SIZE` tuples.
    """

    rule: str
    direction: str
    variant: str
    src: tuple[Instruction, ...]
    dst: tuple[Instruction, ...]
    src_preps: tuple[PrepDecl, ...]
    dst_preps: tuple[PrepDecl, ...]
    src_vars: tuple[str, ...]
    dst_vars: tuple[str, ...]
    kinds: Mapping[str, str]
    alias_ok: frozenset[frozenset[str]]
    condition: Condition
    src_ops: tuple[tuple[Opcode, int], ...]
    _rank: int = 0
    _dst_memo: dict[tuple[int, ...], tuple[Instruction, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _ground_dst(self, bindings: Bindings) -> tuple[Instruction, ...]:
        """`ground(self.dst, bindings)` as a tuple, from the memo when the
        wires bound to `dst_vars` were grounded before; bindings must
        bind every `dst` variable."""
        key = tuple(map(bindings.__getitem__, self.dst_vars))
        memo = self._dst_memo
        dst = memo.get(key)
        if dst is None:
            if len(memo) >= _GROUND_MEMO_SIZE:
                del memo[next(iter(memo))]  # the oldest entry
            dst = memo[key] = tuple(ground(self.dst, bindings))
        return dst

    def clash(self, bindings: Bindings, var: str, wire: object) -> str | None:
        """A variable other than `var` that `bindings` binds to `wire`, of
        var's kind, and that the rule does not allow to alias it."""
        kind = self.kinds[var]
        for other, val in bindings.items():
            if (
                val == wire
                and other != var
                and self.kinds.get(other) == kind
                and frozenset((other, var)) not in self.alias_ok
            ):
                return other
        return None

    def binding_error(self, bindings: Bindings) -> str | None:
        """Why `bindings` cannot bind this form, or None.

        Every variable must belong to the rule and every `src` variable must
        be bound; variables of one kind bind distinct wires unless the rule
        allows them to alias.
        """
        for var in bindings:
            if var not in self.kinds:
                return f"unknown variable {var!r}"
        for var in self.src_vars:
            if var not in bindings:
                return f"missing binding for {var!r}"
        for var in sorted(bindings):
            other = self.clash(bindings, var, bindings[var])
            if other is not None:
                a, b = sorted((var, other))
                return f"non-injective binding: {a!r} and {b!r}"
        return None


def _compile(rule: RewriteRule, direction: str) -> dict[str, RuleForm]:
    kinds = variable_kinds(rule)
    forms = {}
    for rank, variant in enumerate(rule.templates):
        src = template_side(rule, direction, "src", variant)
        dst = template_side(rule, direction, "dst", variant)
        forms[variant] = RuleForm(
            rule.id, direction, variant, src[0], dst[0], src[1], dst[1],
            template_variables(src), template_variables(dst), kinds,
            rule.alias_ok, rule.condition, tuple(Counter(map(opcode, src[0])).items()), rank,
        )
    return forms


# (rule id, direction) -> variant -> form, variants in declaration order
FORMS: dict[tuple[str, str], dict[str, RuleForm]] = {
    (rule.id, direction): _compile(rule, direction)
    for rule in RULES.values()
    for direction in DIRECTIONS
}


def rule_forms(rule_id: str, direction: str) -> dict[str, RuleForm]:
    """The compiled forms of a rule in one direction, keyed by variant in
    declaration order."""
    forms = FORMS.get((rule_id, direction))
    if forms is None:
        if rule_id not in RULES:
            raise KeyError(f"unknown rule id {rule_id!r}")
        raise ValueError(
            f"unknown direction {direction!r}; expected one of {DIRECTIONS}"
        )
    return forms

