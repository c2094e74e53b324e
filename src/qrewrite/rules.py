"""Catalog of rewrite rules: local pattern -> replacement pairs with
applicability conditions.

Twelve cataloged equivalences (inverse cancellation, null controls and
targets, CZ symmetry, CNOT/CZ interchange, CNOT reversal corollaries,
deferred measurement, XOR substitution, distributed CNOT, CNOT mirror,
parallel-to-lambda) plus structural engine rules (adjacent commutations,
discarded-wire cleanup, measurement insertion on discarded wires, Bell
preparation folding) that the derivation scripts rely on.

Patterns and replacements are declared as template functions of a binding
map and a variant; a rule's `condition` is a static, syntactic predicate on
the circuit at the match site (for example "this wire is provably in |+>
here").

Each rule is compiled once, at import, into one `RuleForm` per direction
and variant (`FORMS`, looked up through `rule_forms`): the matched ("src")
and produced ("dst") sides as instruction and prep templates whose wire
slots hold variable names, the variables each side needs, their wire kinds
and the rule's allowed aliases. The engine, `instantiate` and the tests
read these records; grounding a template with a binding map gives concrete
instructions.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
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
    prep_plus,
    prep_zero,
    read_cbits,
    touched_at_or_after,
    touched_before,
    wire_state_before,
    written_cbit,
)

Bindings = Mapping[str, object]
TemplateFn = Callable[[Bindings, str], list[Instruction]]
PrepFn = Callable[[Bindings, str], list[PrepDecl]]
ConditionFn = Callable[[Circuit, tuple[int, ...], Bindings, str, str], "str | None"]


@dataclass(frozen=True)
class RewriteRule:
    id: str
    pattern: TemplateFn
    replacement: TemplateFn
    variants: tuple[str, ...] = ("default",)
    pure_gate: bool = False
    prep_pattern: PrepFn | None = None
    prep_replacement: PrepFn | None = None
    condition: ConditionFn | None = None
    # pairs of quantum variables allowed to bind the same wire
    alias_ok: frozenset[frozenset[str]] = field(default_factory=frozenset)


class _Idents(dict):
    """Binding map that returns the key itself: grounds a template into
    a template (used to discover which variables a rule mentions)."""

    def __missing__(self, key):
        return key


IDENT = _Idents()


# ----------------------------------------------------------------------
# Rule I: null gates
# ----------------------------------------------------------------------


def _inverse_pattern(b: Bindings, v: str) -> list[Instruction]:
    if v in ("H", "X", "Z"):
        return [Gate1(v, b["w"]), Gate1(v, b["w"])]
    return [Gate2(v, b["c"], b["t"]), Gate2(v, b["c"], b["t"])]


R1_INVERSE = RewriteRule(
    id="R1_InverseCancel",
    pattern=_inverse_pattern,
    replacement=lambda b, v: [],
    variants=("H", "X", "Z", "CNOT", "CZ"),
    pure_gate=True,
)


def _target_plus_cond(c, site, b, v, direction) -> str | None:
    if wire_state_before(c, b["t"], site[0]) != "plus":
        return "target wire is not provably |+> at this point"
    return None


R1_TARGET_PLUS = RewriteRule(
    id="R1_TargetPlus",
    pattern=lambda b, v: [Gate2("CNOT", b["c"], b["t"])],
    replacement=lambda b, v: [],
    condition=_target_plus_cond,
)


def _control_zero_cond(c, site, b, v, direction) -> str | None:
    if wire_state_before(c, b["c"], site[0]) != "zero":
        return "control wire is not provably |0> at this point"
    return None


R1_CONTROL_ZERO = RewriteRule(
    id="R1_ControlZero",
    pattern=lambda b, v: [Gate2(v, b["c"], b["t"])],
    replacement=lambda b, v: [],
    variants=("CNOT", "CZ"),
    condition=_control_zero_cond,
)

# ----------------------------------------------------------------------
# Rule II: control reversal and corollaries
# ----------------------------------------------------------------------

R2_CZ_FLIP = RewriteRule(
    id="R2_CZFlip",
    pattern=lambda b, v: [Gate2("CZ", b["a"], b["b"])],
    replacement=lambda b, v: [Gate2("CZ", b["b"], b["a"])],
    pure_gate=True,
)

R2_CNOT_VIA_CZ = RewriteRule(
    id="R2_CNOTviaCZ",
    pattern=lambda b, v: [Gate2("CNOT", b["c"], b["t"])],
    replacement=lambda b, v: [
        Gate1("H", b["t"]),
        Gate2("CZ", b["c"], b["t"]),
        Gate1("H", b["t"]),
    ],
    pure_gate=True,
)

R2_CNOT_REVERSAL = RewriteRule(
    id="R2_CNOTReversal",
    pattern=lambda b, v: [
        Gate1("H", b["c"]),
        Gate1("H", b["t"]),
        Gate2("CNOT", b["c"], b["t"]),
        Gate1("H", b["c"]),
        Gate1("H", b["t"]),
    ],
    replacement=lambda b, v: [Gate2("CNOT", b["t"], b["c"])],
    pure_gate=True,
)

R2_H_MIRROR = RewriteRule(
    id="R2_HMirror",
    pattern=lambda b, v: [
        Gate1("H", b["c"]),
        Gate1("H", b["t"]),
        Gate2("CNOT", b["c"], b["t"]),
    ],
    replacement=lambda b, v: [
        Gate2("CNOT", b["t"], b["c"]),
        Gate1("H", b["c"]),
        Gate1("H", b["t"]),
    ],
    pure_gate=True,
)

# ----------------------------------------------------------------------
# Rule III: deferred measurement
# ----------------------------------------------------------------------


def _r3_pattern(b: Bindings, v: str) -> list[Instruction]:
    kind = "CX" if v == "cX" else "CZC"
    return [Measure(b["m"], b["r"]), ClassicalCtrl(kind, b["r"], b["t"])]


def _r3_replacement(b: Bindings, v: str) -> list[Instruction]:
    kind = "CNOT" if v == "cX" else "CZ"
    return [Gate2(kind, b["m"], b["t"]), Measure(b["m"], b["r"])]


R3_DEFER = RewriteRule(
    id="R3_DeferMeasure",
    pattern=_r3_pattern,
    replacement=_r3_replacement,
    variants=("cX", "cZ"),
)

# ----------------------------------------------------------------------
# Rule IV: quantum-classical substitution (CNOT -> XOR)
# ----------------------------------------------------------------------


def _r4_pattern(b: Bindings, v: str) -> list[Instruction]:
    kind = "CX" if v == "cX" else "CZC"
    return [
        Gate2("CNOT", b["a"], b["b"]),
        Measure(b["a"], b["r1"]),
        Measure(b["b"], b["r2"]),
        ClassicalCtrl(kind, b["r2"], b["t"]),
    ]


def _r4_replacement(b: Bindings, v: str) -> list[Instruction]:
    kind = "CX" if v == "cX" else "CZC"
    return [
        Measure(b["a"], b["r1"]),
        Measure(b["b"], b["r2"]),
        ClassicalXor(b["r1"], b["r2"], b["r3"]),
        ClassicalCtrl(kind, b["r3"], b["t"]),
    ]


def _r4_condition(c, site, b, v, direction) -> str | None:
    bw, r2 = b["b"], b["r2"]
    r3 = b.get("r3")
    if c.q_roles[bw] != "discard":
        return "measured operand b must have role discard"
    i_m2 = site[2] if direction == "forward" else site[1]
    if touched_at_or_after(c, bw, i_m2 + 1, skip=site):
        return "wire b is used after its measurement"
    for j, instr in enumerate(c.body):
        if j in site:
            continue
        if r2 in read_cbits(instr):
            return "classical wire r2 has readers outside the match"
        if isinstance(r3, int):
            if r3 in read_cbits(instr) or r3 == written_cbit(instr):
                return "classical wire r3 is not fresh"
    return None


R4_XOR_SUBST = RewriteRule(
    id="R4_XorSubstitute",
    pattern=_r4_pattern,
    replacement=_r4_replacement,
    variants=("cX", "cZ"),
    condition=_r4_condition,
)

# ----------------------------------------------------------------------
# Rule V: distributed CNOT
# ----------------------------------------------------------------------


def _r5_replacement(b: Bindings, v: str) -> list[Instruction]:
    c, t, a = b["c"], b["t"], b["a"]
    if v == "i":
        return [
            Gate2("CNOT", c, a),
            Gate2("CNOT", a, t),
            Gate2("CNOT", c, a),
            Gate2("CNOT", a, t),
        ]
    return [
        Gate2("CNOT", a, t),
        Gate2("CNOT", c, a),
        Gate2("CNOT", a, t),
        Gate2("CNOT", c, a),
    ]


R5_DISTRIBUTE = RewriteRule(
    id="R5_DistributeCNOT",
    pattern=lambda b, v: [Gate2("CNOT", b["c"], b["t"])],
    replacement=_r5_replacement,
    variants=("i", "ii"),
    pure_gate=True,
)

# ----------------------------------------------------------------------
# Rule VI: CNOT mirror (chained CNOTs reflect off a long CNOT)
# ----------------------------------------------------------------------


def _r6_pattern(b: Bindings, v: str) -> list[Instruction]:
    ab = Gate2("CNOT", b["a"], b["b"])
    bc = Gate2("CNOT", b["b"], b["c"])
    return [ab, bc] if v[0] == "A" else [bc, ab]


def _r6_replacement(b: Bindings, v: str) -> list[Instruction]:
    ab = Gate2("CNOT", b["a"], b["b"])
    bc = Gate2("CNOT", b["b"], b["c"])
    long = Gate2("CNOT", b["a"], b["c"])
    base = [bc, ab] if v[0] == "A" else [ab, bc]
    base.insert(int(v[1]), long)
    return base


R6_MIRROR = RewriteRule(
    id="R6_CNOTMirror",
    pattern=_r6_pattern,
    replacement=_r6_replacement,
    variants=("A0", "A1", "A2", "B0", "B1", "B2"),
    pure_gate=True,
)

# ----------------------------------------------------------------------
# Rule VII: parallel to lambda
# ----------------------------------------------------------------------

R7_LAMBDA = RewriteRule(
    id="R7_ParallelToLambda",
    pattern=lambda b, v: [
        Gate2("CNOT", b["c"], b["t1"]),
        Gate2("CNOT", b["c"], b["t2"]),
    ],
    replacement=lambda b, v: [
        Gate2("CNOT", b["t1"], b["t2"]),
        Gate2("CNOT", b["c"], b["t1"]),
        Gate2("CNOT", b["t1"], b["t2"]),
    ],
    pure_gate=True,
)

# ----------------------------------------------------------------------
# Structural engine rules
# ----------------------------------------------------------------------

CONTROLS_COMMUTE = RewriteRule(
    id="ControlsCommute",
    pattern=lambda b, v: [
        Gate2("CNOT", b["c"], b["a"]),
        Gate2("CNOT", b["c"], b["b"]),
    ],
    replacement=lambda b, v: [
        Gate2("CNOT", b["c"], b["b"]),
        Gate2("CNOT", b["c"], b["a"]),
    ],
    pure_gate=True,
)

TARGETS_COMMUTE = RewriteRule(
    id="TargetsCommute",
    pattern=lambda b, v: [
        Gate2("CNOT", b["a"], b["t"]),
        Gate2("CNOT", b["b"], b["t"]),
    ],
    replacement=lambda b, v: [
        Gate2("CNOT", b["b"], b["t"]),
        Gate2("CNOT", b["a"], b["t"]),
    ],
    pure_gate=True,
)


def _cz_cnot_pattern(b: Bindings, v: str) -> list[Instruction]:
    cz = Gate2("CZ", b["x"], b["y"])
    cnot = Gate2("CNOT", b["a"], b["t"])
    return [cz, cnot] if v == "cz_first" else [cnot, cz]


def _cz_cnot_replacement(b: Bindings, v: str) -> list[Instruction]:
    return list(reversed(_cz_cnot_pattern(b, v)))


CZ_CONTROL_COMMUTE = RewriteRule(
    id="CzControlCommute",
    pattern=_cz_cnot_pattern,
    replacement=_cz_cnot_replacement,
    variants=("cz_first", "cnot_first"),
    pure_gate=True,
    # the CZ may share the CNOT's control wire (both preserve its basis),
    # never its target
    alias_ok=frozenset({frozenset({"a", "x"}), frozenset({"a", "y"})}),
)


def _tail_cond(c, site, b, v, direction) -> str | None:
    w = b["w"]
    if c.q_roles[w] != "discard":
        return "wire must have role discard"
    after = site[0] + 1 if direction == "forward" else site[0]
    if touched_at_or_after(c, w, after, skip=site if direction == "forward" else ()):
        return "wire is used again later"
    return None


DISCARDED_TAIL = RewriteRule(
    id="DiscardedWireTail",
    pattern=lambda b, v: [Gate1(v, b["w"])],
    replacement=lambda b, v: [],
    variants=("H", "X", "Z"),
    condition=_tail_cond,
)


def _measure_discarded_cond(c, site, b, v, direction) -> str | None:
    w = b["w"]
    r = b.get("r")
    if c.q_roles[w] != "discard":
        return "wire must have role discard"
    after = site[0] if direction == "forward" else site[0] + 1
    if touched_at_or_after(c, w, after, skip=() if direction == "forward" else site):
        return "wire is used again after the measurement point"
    if isinstance(r, int):
        for j, instr in enumerate(c.body):
            if j in site and direction == "backward":
                continue
            if r in read_cbits(instr):
                return "classical result wire is read"
            if direction == "forward" and r == written_cbit(instr):
                return "classical result wire is already assigned"
    return None


MEASURE_DISCARDED = RewriteRule(
    id="MeasureDiscarded",
    pattern=lambda b, v: [],
    replacement=lambda b, v: [Measure(b["w"], b["r"])],
    condition=_measure_discarded_cond,
)


def _fold_pattern(b: Bindings, v: str) -> list[Instruction]:
    if v == "hcnot":
        return [Gate1("H", b["a"]), Gate2("CNOT", b["a"], b["b"])]
    return [Gate2("CNOT", b["a"], b["b"])]


def _fold_prep_pattern(b: Bindings, v: str) -> list[PrepDecl]:
    first = prep_zero(b["a"]) if v == "hcnot" else prep_plus(b["a"])
    return [first, prep_zero(b["b"])]


def _fold_cond(c, site, b, v, direction) -> str | None:
    if touched_before(c, (b["a"], b["b"]), site[0]):
        return "pair wires are touched before the fold point"
    return None


BELL_PREP_FOLD = RewriteRule(
    id="BellPrepFold",
    pattern=_fold_pattern,
    replacement=lambda b, v: [],
    variants=("hcnot", "plus"),
    prep_pattern=_fold_prep_pattern,
    prep_replacement=lambda b, v: [PrepDecl("bell", (b["a"], b["b"]))],
    condition=_fold_cond,
)

# "Commute" (adjacent disjoint-support swap) is handled specially by the
# engine; it is listed here so rule ids are uniform and CLI-visible.
COMMUTE = RewriteRule(
    id="Commute",
    pattern=lambda b, v: [],
    replacement=lambda b, v: [],
    pure_gate=True,
)

CATALOG_IDS = (
    "R1_InverseCancel",
    "R1_TargetPlus",
    "R1_ControlZero",
    "R2_CZFlip",
    "R2_CNOTviaCZ",
    "R2_CNOTReversal",
    "R2_HMirror",
    "R3_DeferMeasure",
    "R4_XorSubstitute",
    "R5_DistributeCNOT",
    "R6_CNOTMirror",
    "R7_ParallelToLambda",
)

STRUCTURAL_IDS = (
    "Commute",
    "ControlsCommute",
    "TargetsCommute",
    "CzControlCommute",
    "DiscardedWireTail",
    "MeasureDiscarded",
    "BellPrepFold",
)

RULES: dict[str, RewriteRule] = {
    r.id: r
    for r in (
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
        CONTROLS_COMMUTE,
        TARGETS_COMMUTE,
        CZ_CONTROL_COMMUTE,
        DISCARDED_TAIL,
        MEASURE_DISCARDED,
        BELL_PREP_FOLD,
        COMMUTE,
    )
}


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
    """Variable names (string-valued wire slots) of a template, in order."""
    seen: list[str] = []
    for instr in instrs:
        for name, _ in FIELD_KINDS[type(instr)]:
            val = getattr(instr, name)
            if isinstance(val, str) and val not in seen:
                seen.append(val)
    return tuple(seen)


def variable_kinds(rule: RewriteRule) -> dict[str, str]:
    """Map each variable of a rule to its wire kind ("q" or "c")."""
    kinds: dict[str, str] = {}
    for variant in rule.variants:
        for fn in (rule.pattern, rule.replacement):
            for instr in fn(IDENT, variant):
                for name, kind in FIELD_KINDS[type(instr)]:
                    val = getattr(instr, name)
                    if isinstance(val, str):
                        kinds[val] = kind
        for prep_fn in (rule.prep_pattern, rule.prep_replacement):
            if prep_fn is None:
                continue
            for p in prep_fn(IDENT, variant):
                for w in p.wires:
                    if isinstance(w, str):
                        kinds[w] = "q"
    return kinds


def ground(instrs: list[Instruction], bindings: Bindings) -> list[Instruction]:
    """Substitute variables with bound wires; bindings must be total."""
    out = []
    for instr in instrs:
        subs = {}
        for name, _ in FIELD_KINDS[type(instr)]:
            val = getattr(instr, name)
            if isinstance(val, str):
                if val not in bindings:
                    raise KeyError(f"missing binding for variable {val!r}")
                subs[name] = bindings[val]
        out.append(dc_replace(instr, **subs) if subs else instr)
    return out


def ground_preps(preps: list[PrepDecl], bindings: Bindings) -> list[PrepDecl]:
    out = []
    for p in preps:
        ws = tuple(bindings[w] if isinstance(w, str) else w for w in p.wires)
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
    condition: ConditionFn | None

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

    def binding_error(self, bindings: Bindings, complete: bool) -> str | None:
        """Why `bindings` cannot bind this form, or None.

        Every variable must belong to the rule and every `src` variable must
        be bound (with `complete`, every `dst` variable too); variables of
        one kind bind distinct wires unless the rule allows them to alias.
        """
        for var in bindings:
            if var not in self.kinds:
                return f"unknown variable {var!r}"
        for var in self.src_vars:
            if var not in bindings:
                return f"missing binding for {var!r}"
        if complete:
            for var in self.dst_vars:
                if var not in bindings:
                    return f"missing fresh wire binding for {var!r}"
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
    tpl = tuple(fn(IDENT, variant))
    preps = tuple(prep_fn(IDENT, variant)) if prep_fn is not None else ()
    prep_vars = tuple(w for p in preps for w in p.wires if isinstance(w, str))
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


def instantiate(
    rule_id: str,
    bindings: Bindings,
    variant: str | None = None,
    direction: str = "forward",
) -> tuple[list[Instruction], list[Instruction]]:
    """Concrete (pattern, replacement) instruction lists for a rule, swapped
    for the backward direction.

    Bindings must be total and injective on quantum variables (up to the
    rule's declared aliases); fresh wires introduced by the replacement
    (R4's r3, R5's ancilla) must be supplied.
    """
    forms = rule_forms(rule_id, direction)
    variant = variant or next(iter(forms))
    if variant not in forms:
        raise ValueError(f"unknown variant {variant!r} for {rule_id}")
    form = forms[variant]
    reason = form.binding_error(bindings, complete=True)
    if reason is not None:
        raise ValueError(reason)
    return ground(form.src, bindings), ground(form.dst, bindings)
