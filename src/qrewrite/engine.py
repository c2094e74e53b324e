"""Rewrite engine: match rules modulo disjoint-support commutation, apply
rewrites with optional channel verification, simplify greedily, record
derivation traces, and defer measurements (Rule III canonical form).

A match names a rule, direction and variant, which select one compiled
`RuleForm` (`rules.rule_forms`); its templates, variables, kinds and
aliases drive matching, checking and rewriting alike.

`_occurrences` is the one search for where a form applies: adjacent
disjoint pairs for `Commute`, the pattern occurrences `_find_sites`
gathers (its instructions may be interleaved with others that touch no
wire of a later one, so commuting gathers them at the first index), and
every position and injective binding for an insertion (empty `src`).
`find_matches` keeps those that pass `_context_error` (preps and the
rule's condition). `rewrite_at` checks every match, found or hand-built,
on one path: `_check_applicable` (bindings, site shape, then the search
restricted to the site), fresh-wire allocation, `_context_error`. So a
bad match is a `RewriteError`, never a wrong rewrite. One splice puts
the replacement at the occurrence's position, after gathering the matched
instructions there (an insertion gathers none); `Commute` swaps.

Verified steps of `rewrite_at`, `apply_steps` and `simplify` pass one check
(`_step_check`): the step's circuit is channel-equal to the start.
`defer_measurements` only applies `Commute` and `R3_DeferMeasure` forward
matches, so `sim.channel_of_deferred` on its result cross-checks both.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import permutations

from .circuit import (
    FIELD_KINDS,
    Circuit,
    Gate1,
    Gate2,
    ClassicalCtrl,
    Instruction,
    Measure,
    WireRef,
    serialize,
    supports_disjoint,
    touched,
    wires,
)
from .equivalence import channel_equal
from .rules import RuleForm, ground, ground_preps, rule_forms
from .sim import extract_channel


class RewriteError(ValueError):
    """Match cannot be applied (stale site, failed condition, no fresh wire)."""


class VerificationError(RuntimeError):
    """A rewrite step failed its channel-equality check."""


@dataclass(frozen=True)
class Match:
    """A located rule occurrence: ordered body indices plus variable bindings
    (an insertion's site is its position, or empty for the end of the body)."""

    rule: str
    direction: str = "forward"
    site: tuple[int, ...] = ()
    bindings: tuple[tuple[str, int], ...] = ()
    variant: str = "default"

    @property
    def binding_map(self) -> dict[str, int]:
        return dict(self.bindings)

    def label(self) -> str:
        parts = [self.rule]
        if self.direction != "forward":
            parts.append("backward")
        if self.variant != "default":
            parts.append(f"[{self.variant}]")
        parts.append(f"@ {self.site}")
        if self.bindings:
            parts.append(
                "{" + ", ".join(f"{k}={v}" for k, v in sorted(self.bindings)) + "}"
            )
        return " ".join(parts)


def match(
    rule: str,
    direction: str = "forward",
    site: tuple[int, ...] = (),
    bindings: dict[str, int] | None = None,
    variant: str | None = None,
) -> Match:
    forms = rule_forms(rule, direction)
    return Match(
        rule,
        direction,
        tuple(site),
        tuple(sorted((bindings or {}).items())),
        variant or next(iter(forms)),
    )


# ----------------------------------------------------------------------
# Matching
# ----------------------------------------------------------------------


def _unify(
    tpl: Instruction, instr: Instruction, bindings: dict[str, int], form: RuleForm
) -> dict[str, int] | None:
    # a gate's kind is its one field that is not a wire slot; a template's
    # wire slots all hold variable names
    kind = getattr(tpl, "kind", None)
    if type(tpl) is not type(instr) or getattr(instr, "kind", None) != kind:
        return None
    new = bindings
    for name, _ in FIELD_KINDS[type(tpl)]:
        want = getattr(tpl, name)
        have = getattr(instr, name)
        if want in new:
            if new[want] != have:
                return None
            continue
        if form.clash(new, want, have) is not None:
            return None
        if new is bindings:
            new = dict(bindings)
        new[want] = have
    return new if new is not bindings else dict(bindings)


def _find_sites(
    c: Circuit,
    form: RuleForm,
    site: tuple[int, ...] | None = None,
    bindings: dict[str, int] | None = None,
) -> list[tuple[tuple[int, ...], dict[str, int]]]:
    """All gatherable occurrences of the form's `src` side in body order,
    only at the indices `site` and extending `bindings` if these are given.
    The one definition of an occurrence, for found and hand-built sites."""
    body = c.body
    tpl = form.src
    results: list[tuple[tuple[int, ...], dict[str, int]]] = []

    def extend(slot: int, pos: int, picked: list[int], skipped, bindings) -> None:
        if slot == len(tpl):
            results.append((tuple(picked), bindings))
            return
        sk = skipped
        at = None if site is None else site[slot]
        for j in range(pos, len(body)):
            # instructions before the first matched index are not interleaved;
            # afterwards, a candidate must avoid every skipped instruction
            if (at is None or j == at) and (slot == 0 or not (wires(body[j]) & sk)):
                b2 = _unify(tpl[slot], body[j], bindings, form)
                if b2 is not None:
                    extend(slot + 1, j + 1, picked + [j], sk, b2)
            if at is not None and j >= at:
                break
            if slot > 0:
                sk = sk | wires(body[j])

    extend(0, 0, [], frozenset(), bindings or {})
    return results


def _anchor(
    c: Circuit, form: RuleForm, site: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """An occurrence's position and its matched indices (none for an insertion)."""
    if form.src:
        return site[0], site
    return (site[0] if site else len(c.body)), ()


def _occurrences(
    c: Circuit,
    form: RuleForm,
    site: tuple[int, ...] | None = None,
    bindings: dict[str, int] | None = None,
) -> Iterator[tuple[tuple[int, ...], dict[str, int]]]:
    """Every occurrence of the form in `c` as (site, bindings), by first
    index; with `site` and `bindings`, only the one they name, if it is
    one (a named insertion keeps its checked, maybe partial, bindings)."""
    body = c.body
    if form.rule == "Commute":
        for i in range(len(body) - 1) if site is None else site:
            if 0 <= i < len(body) - 1 and supports_disjoint(body[i], body[i + 1]):
                yield (i,), {}
    elif form.src:
        yield from _find_sites(c, form, site, bindings)
    elif site is not None:
        if 0 <= _anchor(c, form, site)[0] <= len(body):
            yield site, bindings or {}
    else:
        qvars = [v for v in form.dst_vars if form.kinds[v] == "q"]
        cvars = [v for v in form.dst_vars if form.kinds[v] == "c"]
        for pos in range(len(body) + 1):
            for qs in permutations(range(c.num_qubits), len(qvars)):
                for cs in permutations(range(c.num_cbits), len(cvars)):
                    yield (pos,), dict(zip(qvars, qs)) | dict(zip(cvars, cs))


def find_matches(c: Circuit, rule_id: str, direction: str = "forward") -> list[Match]:
    """All rule occurrences, ordered left to right by first matched index.

    Conditional rules only report sites whose static condition holds.
    Unknown rule ids raise KeyError, unknown directions ValueError.
    """
    forms = rule_forms(rule_id, direction)
    # a swap reads the same both ways, so a `Commute` match says forward
    said = "forward" if rule_id == "Commute" else direction
    out = [
        Match(rule_id, said, site, tuple(sorted(bindings.items())), form.variant)
        for form in forms.values()
        for site, bindings in _occurrences(c, form)
        # the search checked the rest of what `_check_applicable` checks
        if _context_error(c, form, site, bindings) is None
    ]
    variants = list(forms)
    out.sort(key=lambda m: (m.site, variants.index(m.variant), m.bindings))
    return out


# ----------------------------------------------------------------------
# Rewriting
# ----------------------------------------------------------------------


def _allocate_fresh(
    c: Circuit, form: RuleForm, bindings: dict[str, int]
) -> tuple[dict[str, int], int]:
    """Bind replacement-only variables; returns bindings and new cbit count."""
    kinds = form.kinds
    num_cbits = c.num_cbits
    b = dict(bindings)
    for var in form.dst_vars:
        if var in b:
            continue
        taken = {v for k, v in b.items() if kinds.get(k) == kinds[var]}
        if kinds[var] == "q":
            free = [w for w in range(c.num_qubits) if w not in taken]
            if not free:
                raise RewriteError(f"fresh-wire allocation failure for {var!r}")
            b[var] = free[0]
        else:
            b[var] = next(
                (
                    w for w in range(num_cbits)
                    if w not in taken and not touched(c, WireRef("c", w))
                ),
                num_cbits,
            )
            num_cbits = max(num_cbits, b[var] + 1)
    return b, num_cbits


def _check_applicable(c: Circuit, form: RuleForm, m: Match) -> str | None:
    """None if the match names an occurrence of its form in `c`, else the
    reason it does not: its bindings fit the form and name declared wires,
    its site has the form's shape, and `_occurrences`, restricted to the
    site and seeded with the bindings, finds it."""
    bindings = m.binding_map
    reason = form.binding_error(bindings, complete=False)
    if reason is not None:
        return reason
    for var, wire in m.bindings:
        kind = form.kinds[var]
        if not 0 <= wire < (c.num_qubits if kind == "q" else c.num_cbits):
            return f"binding of {var!r} to undeclared wire {kind}{wire}"
    if form.src:
        if len(m.site) != len(form.src):
            return "site length does not match pattern"
    elif len(m.site) > 1 or (m.rule == "Commute" and not m.site):
        return "site must be a single index"
    if next(_occurrences(c, form, m.site, bindings), None) is None:
        return "site is not a gatherable occurrence of the pattern"
    return None


def _context_error(
    c: Circuit, form: RuleForm, site: tuple[int, ...], bindings: dict[str, int]
) -> str | None:
    """Why the circuit around an occurrence rules it out (a required prep
    is missing or the rule's condition fails), or None. The one caller of
    a rule's condition, which gets the occurrence's `_anchor`."""
    if form.src_preps:
        for p in ground_preps(form.src_preps, bindings):
            if p not in c.preps:
                return f"required prep {p} not present"
    if form.condition is None:
        return None
    pos, matched = _anchor(c, form, site)
    return form.condition(c, pos, matched, bindings)


def rewrite_at(c: Circuit, m: Match, verify: bool = False) -> Circuit:
    """Apply a match: gather the matched instructions at the occurrence's
    position and splice in the instantiated replacement (a `Commute` match
    swaps its two instructions). Preps and roles carry over. Unknown rule
    ids raise KeyError, unknown directions ValueError."""
    form = rule_forms(m.rule, m.direction).get(m.variant)
    reason = _check_applicable(c, form, m) if form else f"unknown variant {m.variant!r}"
    if reason is None:
        bindings, num_cbits = _allocate_fresh(c, form, m.binding_map)
        reason = _context_error(c, form, m.site, bindings)
    if reason is not None:
        raise RewriteError(f"{m.rule}: {reason}")

    body = list(c.body)
    if m.rule == "Commute":
        i = m.site[0]
        body[i : i + 2] = body[i + 1], body[i]
    else:
        pos, matched = _anchor(c, form, m.site)
        end = matched[-1] + 1 if matched else pos
        skipped = [body[j] for j in range(pos, end) if j not in matched]
        body[pos:end] = ground(form.dst, bindings) + skipped

    preps = list(c.preps)
    if form.src_preps or form.dst_preps:
        for p in ground_preps(form.src_preps, bindings):
            preps.remove(p)
        preps.extend(ground_preps(form.dst_preps, bindings))

    new = Circuit(
        c.num_qubits,
        num_cbits,
        tuple(sorted(preps, key=lambda p: p.wires)),
        c.inputs,
        tuple(body),
        c.q_roles,
        c.c_roles + ("scratch",) * (num_cbits - c.num_cbits),
    )
    if verify:
        _step_check(c, True)(m, new)
    return new


# ----------------------------------------------------------------------
# Derivation traces
# ----------------------------------------------------------------------


@dataclass
class TraceStep:
    label: str
    applied: Match | None
    circuit: Circuit
    verified: bool | None  # None when verification was off; never False


@dataclass
class DerivationTrace:
    start: Circuit
    steps: list[TraceStep]

    @property
    def final(self) -> Circuit:
        return self.steps[-1].circuit if self.steps else self.start

    def render(self) -> str:
        out = ["step 0: initial", _indent(serialize(self.start))]
        for k, step in enumerate(self.steps, start=1):
            tag = "" if step.verified is None else "  VERIFIED"
            out.append(f"step {k}: {step.label}{tag}")
            out.append(_indent(serialize(step.circuit)))
        return "\n".join(out)


def _indent(text: str) -> str:
    return "\n".join("    " + line for line in text.splitlines())


def _step_check(start: Circuit, verify: bool) -> Callable[[Match, Circuit], TraceStep]:
    """A recorder of steps from `start` as `TraceStep`s; with `verify`, a step
    whose circuit is not channel-equal to `start` raises `VerificationError`."""
    start_channel = extract_channel(start) if verify else None

    def step(m: Match, new: Circuit) -> TraceStep:
        if start_channel is None:
            return TraceStep(m.label(), m, new, None)
        if not channel_equal(start_channel, extract_channel(new)):
            raise VerificationError(f"step {m.label()} broke channel equality")
        return TraceStep(m.label(), m, new, True)

    return step


def apply_steps(c: Circuit, steps: list[Match], verify: bool = True) -> DerivationTrace:
    """Apply a scripted sequence of matches, verifying each against the start."""
    trace = DerivationTrace(c, [])
    check = _step_check(c, verify)
    for m in steps:
        trace.steps.append(check(m, rewrite_at(trace.final, m)))
    return trace


# ----------------------------------------------------------------------
# Greedy simplification
# ----------------------------------------------------------------------

_SIMPLIFY_PRIORITY = (
    ("R1_InverseCancel", "forward"),
    ("R1_ControlZero", "forward"),
    ("R1_TargetPlus", "forward"),
    ("R3_DeferMeasure", "backward"),
    ("R4_XorSubstitute", "forward"),
)


def gate_measure(c: Circuit) -> tuple[int, int, int]:
    """Lexicographic cost: quantum gates, classically controlled gates, length."""
    q = sum(isinstance(i, (Gate1, Gate2)) for i in c.body)
    cc = sum(isinstance(i, ClassicalCtrl) for i in c.body)
    return (q, cc, len(c.body))


def simplify(c: Circuit, verify: bool = True) -> tuple[Circuit, DerivationTrace]:
    """Greedy fixpoint of the null-gate and classical-substitution rules.

    Deterministic: fixed rule priority, leftmost match first, and the first
    match found is committed. Each priority form's replacement counts less
    than its pattern by `gate_measure` and needs no fresh qubit, so every
    step applies and strictly reduces the measure, and the loop terminates.
    """
    trace = DerivationTrace(c, [])
    check = _step_check(c, verify)
    while True:
        c = trace.final
        found = (m for rule in _SIMPLIFY_PRIORITY for m in find_matches(c, *rule))
        m = next(found, None)
        if m is None:
            return c, trace
        trace.steps.append(check(m, rewrite_at(c, m)))


# ----------------------------------------------------------------------
# Rule III canonicalization (measurement deferral)
# ----------------------------------------------------------------------


def defer_measurements(c: Circuit) -> Circuit:
    """Rule III canonical form: move measurements right, leftmost movable
    one first, by engine rewrites only, until none moves.

    A measurement becomes the quantum control of a classically controlled
    gate reading its result (`R3_DeferMeasure` forward) and passes any other
    disjoint instruction (`Commute`). It stops at another measurement, at a
    reuse of its wire, at an XOR reading its result, or at a reader that
    targets the measured wire. Only if every measurement reaches the end is
    the result the gates-then-measurements form `channel_of_deferred` reads.
    """
    while True:
        r3 = {m.site: m for m in find_matches(c, "R3_DeferMeasure")}
        for i in range(len(c.body) - 1):
            if not isinstance(c.body[i], Measure) or isinstance(c.body[i + 1], Measure):
                continue
            try:
                c = rewrite_at(c, r3.get((i, i + 1), Match("Commute", site=(i,))))
            except RewriteError:
                continue
            break
        else:
            return c
