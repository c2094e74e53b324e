"""Catalog of rewrite rules: local pattern -> replacement pairs with
applicability conditions.

Twelve cataloged equivalences (inverse cancellation, null controls and
targets, CZ symmetry, CNOT/CZ interchange, CNOT reversal corollaries,
deferred measurement, XOR substitution, distributed CNOT, CNOT mirror,
parallel-to-lambda) plus structural engine rules (adjacent commutations,
discarded-wire cleanup, measurement insertion on discarded wires, Bell
preparation folding) that the derivation scripts rely on.

Each rule is stated once, as data: its pattern and replacement are
template functions of the variant alone, whose wire slots hold variable
names (`lambda v: [Gate1(v, "w"), Gate1(v, "w")]`), and its `condition`
is a static, syntactic check of the circuit around an occurrence, stated
as ordered `(variable, test)` pairs that must all pass. Each test looks at
one variable's wire (for example "this wire is provably in |+> here", or
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

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .circuit import (
    FIELD_KINDS,
    Circuit,
    ClassicalCtrl,
    ClassicalXor,
    Gate1,
    Gate2,
    Instruction,
    Measure,
    PrepDecl,
    WireRef,
    prep_plus,
    prep_zero,
    touched,
    wire_state_before,
)

Bindings = Mapping[str, object]
TemplateFn = Callable[[str], list[Instruction]]
PrepFn = Callable[[str], list[PrepDecl]]
# test(c, pos, matched, wire) -> reason or None: `pos` is the first matched
# index or the insertion position, `matched` the matched body indices (empty
# for an insertion), `wire` the wire its variable binds; it reads no other
# variable's wire
WireTest = Callable[[Circuit, int, tuple[int, ...], int], "str | None"]
# a rule's condition: (variable, test) pairs, all of which must pass, in order
Condition = tuple[tuple[str, WireTest], ...]


@dataclass(frozen=True)
class RewriteRule:
    id: str
    pattern: TemplateFn
    replacement: TemplateFn
    variants: tuple[str, ...] = ("default",)
    prep_pattern: PrepFn | None = None
    prep_replacement: PrepFn | None = None
    condition: Condition = ()
    # pairs of quantum variables allowed to bind the same wire
    alias_ok: frozenset[frozenset[str]] = field(default_factory=frozenset)

    @property
    def pure_gate(self) -> bool:
        """Sound in any context: no condition, no preps on either side, and
        only `Gate1` and `Gate2` instructions in every variant."""
        return (
            not (self.condition or self.prep_pattern or self.prep_replacement)
            and all(
                isinstance(instr, (Gate1, Gate2))
                for v in self.variants
                for fn in (self.pattern, self.replacement)
                for instr in fn(v)
            )
        )


# ----------------------------------------------------------------------
# Rule I: null gates
# ----------------------------------------------------------------------


def _inverse_pattern(v: str) -> list[Instruction]:
    if v in ("H", "X", "Z"):
        return [Gate1(v, "w"), Gate1(v, "w")]
    return [Gate2(v, "c", "t"), Gate2(v, "c", "t")]


R1_INVERSE = RewriteRule(
    id="R1_InverseCancel",
    pattern=_inverse_pattern,
    replacement=lambda v: [],
    variants=("H", "X", "Z", "CNOT", "CZ"),
)


def _plus_target(c, pos, matched, t) -> str | None:
    if wire_state_before(c, t, pos) != "plus":
        return "target wire is not provably |+> at this point"
    return None


R1_TARGET_PLUS = RewriteRule(
    id="R1_TargetPlus",
    pattern=lambda v: [Gate2("CNOT", "c", "t")],
    replacement=lambda v: [],
    condition=(("t", _plus_target),),
)


def _zero_control(c, pos, matched, w) -> str | None:
    if wire_state_before(c, w, pos) != "zero":
        return "control wire is not provably |0> at this point"
    return None


R1_CONTROL_ZERO = RewriteRule(
    id="R1_ControlZero",
    pattern=lambda v: [Gate2(v, "c", "t")],
    replacement=lambda v: [],
    variants=("CNOT", "CZ"),
    condition=(("c", _zero_control),),
)

# ----------------------------------------------------------------------
# Rule II: control reversal and corollaries
# ----------------------------------------------------------------------

R2_CZ_FLIP = RewriteRule(
    id="R2_CZFlip",
    pattern=lambda v: [Gate2("CZ", "a", "b")],
    replacement=lambda v: [Gate2("CZ", "b", "a")],
)

R2_CNOT_VIA_CZ = RewriteRule(
    id="R2_CNOTviaCZ",
    pattern=lambda v: [Gate2("CNOT", "c", "t")],
    replacement=lambda v: [Gate1("H", "t"), Gate2("CZ", "c", "t"), Gate1("H", "t")],
)

R2_CNOT_REVERSAL = RewriteRule(
    id="R2_CNOTReversal",
    pattern=lambda v: [
        Gate1("H", "c"),
        Gate1("H", "t"),
        Gate2("CNOT", "c", "t"),
        Gate1("H", "c"),
        Gate1("H", "t"),
    ],
    replacement=lambda v: [Gate2("CNOT", "t", "c")],
)

R2_H_MIRROR = RewriteRule(
    id="R2_HMirror",
    pattern=lambda v: [Gate1("H", "c"), Gate1("H", "t"), Gate2("CNOT", "c", "t")],
    replacement=lambda v: [Gate2("CNOT", "t", "c"), Gate1("H", "c"), Gate1("H", "t")],
)

# ----------------------------------------------------------------------
# Rule III: deferred measurement
# ----------------------------------------------------------------------

R3_DEFER = RewriteRule(
    id="R3_DeferMeasure",
    pattern=lambda v: [
        Measure("m", "r"),
        ClassicalCtrl("CX" if v == "cX" else "CZC", "r", "t"),
    ],
    replacement=lambda v: [
        Gate2("CNOT" if v == "cX" else "CZ", "m", "t"),
        Measure("m", "r"),
    ],
    variants=("cX", "cZ"),
)

# ----------------------------------------------------------------------
# Rule IV: quantum-classical substitution (CNOT -> XOR)
# ----------------------------------------------------------------------


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


R4_XOR_SUBST = RewriteRule(
    id="R4_XorSubstitute",
    pattern=lambda v: [
        Gate2("CNOT", "a", "b"),
        Measure("a", "r1"),
        Measure("b", "r2"),
        ClassicalCtrl("CX" if v == "cX" else "CZC", "r2", "t"),
    ],
    replacement=lambda v: [
        Measure("a", "r1"),
        Measure("b", "r2"),
        ClassicalXor("r1", "r2", "r3"),
        ClassicalCtrl("CX" if v == "cX" else "CZC", "r3", "t"),
    ],
    variants=("cX", "cZ"),
    condition=(
        ("b", _r4_measured_operand),
        ("r2", _cbit_unused("classical wire r2 has readers outside the match")),
        ("r3", _cbit_unused("classical wire r3 is not fresh")),
    ),
)

# ----------------------------------------------------------------------
# Rule V: distributed CNOT
# ----------------------------------------------------------------------


def _r5_replacement(v: str) -> list[Instruction]:
    ca, at = Gate2("CNOT", "c", "a"), Gate2("CNOT", "a", "t")
    return [ca, at, ca, at] if v == "i" else [at, ca, at, ca]


R5_DISTRIBUTE = RewriteRule(
    id="R5_DistributeCNOT",
    pattern=lambda v: [Gate2("CNOT", "c", "t")],
    replacement=_r5_replacement,
    variants=("i", "ii"),
)

# ----------------------------------------------------------------------
# Rule VI: CNOT mirror (chained CNOTs reflect off a long CNOT)
# ----------------------------------------------------------------------

_AB = Gate2("CNOT", "a", "b")
_BC = Gate2("CNOT", "b", "c")
_AC = Gate2("CNOT", "a", "c")  # the long CNOT


def _r6_replacement(v: str) -> list[Instruction]:
    base = [_BC, _AB] if v[0] == "A" else [_AB, _BC]
    base.insert(int(v[1]), _AC)
    return base


R6_MIRROR = RewriteRule(
    id="R6_CNOTMirror",
    pattern=lambda v: [_AB, _BC] if v[0] == "A" else [_BC, _AB],
    replacement=_r6_replacement,
    variants=("A0", "A1", "A2", "B0", "B1", "B2"),
)

# ----------------------------------------------------------------------
# Rule VII: parallel to lambda
# ----------------------------------------------------------------------

R7_LAMBDA = RewriteRule(
    id="R7_ParallelToLambda",
    pattern=lambda v: [Gate2("CNOT", "c", "t1"), Gate2("CNOT", "c", "t2")],
    replacement=lambda v: [
        Gate2("CNOT", "t1", "t2"),
        Gate2("CNOT", "c", "t1"),
        Gate2("CNOT", "t1", "t2"),
    ],
)

# ----------------------------------------------------------------------
# Structural engine rules
# ----------------------------------------------------------------------

CONTROLS_COMMUTE = RewriteRule(
    id="ControlsCommute",
    pattern=lambda v: [Gate2("CNOT", "c", "a"), Gate2("CNOT", "c", "b")],
    replacement=lambda v: [Gate2("CNOT", "c", "b"), Gate2("CNOT", "c", "a")],
)

TARGETS_COMMUTE = RewriteRule(
    id="TargetsCommute",
    pattern=lambda v: [Gate2("CNOT", "a", "t"), Gate2("CNOT", "b", "t")],
    replacement=lambda v: [Gate2("CNOT", "b", "t"), Gate2("CNOT", "a", "t")],
)


def _cz_cnot_pattern(v: str) -> list[Instruction]:
    cz, cnot = Gate2("CZ", "x", "y"), Gate2("CNOT", "a", "t")
    return [cz, cnot] if v == "cz_first" else [cnot, cz]


CZ_CONTROL_COMMUTE = RewriteRule(
    id="CzControlCommute",
    pattern=_cz_cnot_pattern,
    replacement=lambda v: _cz_cnot_pattern(v)[::-1],
    variants=("cz_first", "cnot_first"),
    # the CZ may share the CNOT's control wire (both preserve its basis),
    # never its target
    alias_ok=frozenset({frozenset({"a", "x"}), frozenset({"a", "y"})}),
)


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


DISCARDED_TAIL = RewriteRule(
    id="DiscardedWireTail",
    pattern=lambda v: [Gate1(v, "w")],
    replacement=lambda v: [],
    variants=("H", "X", "Z"),
    condition=(("w", _discarded_from_here("wire is used again later")),),
)


MEASURE_DISCARDED = RewriteRule(
    id="MeasureDiscarded",
    pattern=lambda v: [],
    replacement=lambda v: [Measure("w", "r")],
    condition=(
        ("w", _discarded_from_here("wire is used again after the measurement point")),
        ("r", _cbit_unused("classical result wire is read or assigned elsewhere")),
    ),
)


def _untouched_before(c, pos, matched, w) -> str | None:
    if touched(c, WireRef("q", w), stop=pos):
        return "pair wires are touched before the fold point"
    return None


BELL_PREP_FOLD = RewriteRule(
    id="BellPrepFold",
    pattern=lambda v: (
        [Gate1("H", "a"), Gate2("CNOT", "a", "b")]
        if v == "hcnot"
        else [Gate2("CNOT", "a", "b")]
    ),
    replacement=lambda v: [],
    variants=("hcnot", "plus"),
    prep_pattern=lambda v: [
        prep_zero("a") if v == "hcnot" else prep_plus("a"),
        prep_zero("b"),
    ],
    prep_replacement=lambda v: [PrepDecl("bell", ("a", "b"))],
    condition=(("a", _untouched_before), ("b", _untouched_before)),
)

# "Commute" (adjacent disjoint-support swap) is handled specially by the
# engine; it is listed here so rule ids are uniform and CLI-visible.
COMMUTE = RewriteRule(
    id="Commute",
    pattern=lambda v: [],
    replacement=lambda v: [],
)

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


def template_side(
    rule: RewriteRule, direction: str, which: str
) -> tuple[TemplateFn, PrepFn | None]:
    """Template functions for the matched ("src") or produced ("dst") side."""
    forward = direction == "forward"
    take_pattern = (which == "src") == forward
    if take_pattern:
        return rule.pattern, rule.prep_pattern
    return rule.replacement, rule.prep_replacement


def template_variables(instrs: list[Instruction]) -> tuple[str, ...]:
    """Variable names (the wire slots) of a template, in order."""
    seen: list[str] = []
    for instr in instrs:
        for name, _ in FIELD_KINDS[type(instr)]:
            val = getattr(instr, name)
            if val not in seen:
                seen.append(val)
    return tuple(seen)


def variable_kinds(rule: RewriteRule) -> dict[str, str]:
    """Map each variable of a rule to its wire kind ("q" or "c")."""
    kinds: dict[str, str] = {}
    for variant in rule.variants:
        for fn in (rule.pattern, rule.replacement):
            for instr in fn(variant):
                for name, kind in FIELD_KINDS[type(instr)]:
                    kinds[getattr(instr, name)] = kind
        for prep_fn in (rule.prep_pattern, rule.prep_replacement):
            if prep_fn is None:
                continue
            for p in prep_fn(variant):
                for w in p.wires:
                    kinds[w] = "q"
    return kinds


def ground(instrs: list[Instruction], bindings: Bindings) -> list[Instruction]:
    """Substitute variables with bound wires; bindings must be total."""
    out = []
    for instr in instrs:
        cls = type(instr)
        ws = [bindings[getattr(instr, f)] for f, _ in FIELD_KINDS[cls]]
        kind = getattr(instr, "kind", None)
        out.append(cls(*ws) if kind is None else cls(kind, *ws))
    return out


def ground_preps(preps: list[PrepDecl], bindings: Bindings) -> list[PrepDecl]:
    out = []
    for p in preps:
        ws = tuple(bindings[w] for w in p.wires)
        if p.kind == "bell":
            ws = (min(ws), max(ws))
        out.append(PrepDecl(p.kind, ws))
    return out


# ----------------------------------------------------------------------
# Compiled rule forms
# ----------------------------------------------------------------------

DIRECTIONS = ("forward", "backward")


@dataclass(frozen=True)
class RuleForm:
    """One rule in one direction and variant, with its templates grounded
    to variable names.

    `src` is the side a match finds in the circuit, `dst` the side a rewrite
    splices in (pattern and replacement forward, swapped backward). A form
    with an empty `src` is applied by insertion. `src_vars` and `dst_vars`
    are the variables each side needs, instruction slots first, then prep
    wires; `dst_vars` missing from `src_vars` are fresh wires a rewrite
    allocates.
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


def _side(
    rule: RewriteRule, direction: str, which: str, variant: str
) -> tuple[tuple[Instruction, ...], tuple[PrepDecl, ...], tuple[str, ...]]:
    fn, prep_fn = template_side(rule, direction, which)
    tpl = tuple(fn(variant))
    preps = tuple(prep_fn(variant)) if prep_fn is not None else ()
    prep_vars = tuple(w for p in preps for w in p.wires)
    return tpl, preps, tuple(dict.fromkeys(template_variables(tpl) + prep_vars))


def _compile(rule: RewriteRule, direction: str) -> dict[str, RuleForm]:
    kinds = variable_kinds(rule)
    forms = {}
    for variant in rule.variants:
        src, src_preps, src_vars = _side(rule, direction, "src", variant)
        dst, dst_preps, dst_vars = _side(rule, direction, "dst", variant)
        forms[variant] = RuleForm(
            rule.id, direction, variant, src, dst, src_preps, dst_preps,
            src_vars, dst_vars, kinds, rule.alias_ok, rule.condition,
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

