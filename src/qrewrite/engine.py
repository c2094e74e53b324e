"""Rewrite engine: match rules modulo disjoint-support commutation, apply
rewrites with optional channel verification, simplify greedily, and record
derivation traces.

The engine reads each rule through its compiled forms (`rules.rule_forms`):
a match names a rule, direction and variant, which select one `RuleForm`,
and its `src` templates, variables, kinds and aliases drive matching,
checking and rewriting alike. Hand-built matches pass the same checks as
found ones (`_check_applicable`), so a malformed or aliased binding is a
`RewriteError`, never a wrong rewrite.

Matching is subsequence-based: the instructions of a pattern may be
interleaved with others, provided each interleaved instruction touches
wires disjoint from every later matched instruction, so the matched
subsequence can be gathered contiguously at its first index by commuting.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace as dc_replace
from itertools import permutations

from .circuit import (
    Circuit,
    Gate1,
    Gate2,
    ClassicalCtrl,
    ClassicalXor,
    Instruction,
    Measure,
    read_cbits,
    serialize,
    supports_disjoint,
    validate,
    wires,
    written_cbit,
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
    """A located rule occurrence: ordered body indices plus variable bindings.

    For insertion-style applications (empty matched side) `site` holds the
    single insertion position.
    """

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
    if type(tpl) is not type(instr):
        return None
    new = bindings
    for f in fields(tpl):
        want = getattr(tpl, f.name)
        have = getattr(instr, f.name)
        if f.name == "kind":
            if want != have:
                return None
            continue
        if isinstance(want, str):
            if want in new:
                if new[want] != have:
                    return None
                continue
            if form.clash(new, want, have) is not None:
                return None
            if new is bindings:
                new = dict(bindings)
            new[want] = have
        elif want != have:
            return None
    return new if new is not bindings else dict(bindings)


def _find_sites(
    c: Circuit, form: RuleForm
) -> list[tuple[tuple[int, ...], dict[str, int]]]:
    """All gatherable occurrences of the form's `src` side in body order."""
    body = c.body
    tpl = form.src
    results: list[tuple[tuple[int, ...], dict[str, int]]] = []

    def extend(slot: int, pos: int, picked: list[int], skipped, bindings) -> None:
        if slot == len(tpl):
            results.append((tuple(picked), bindings))
            return
        sk = skipped
        for j in range(pos, len(body)):
            # instructions before the first matched index are not interleaved;
            # afterwards, a candidate must avoid every skipped instruction
            if slot == 0 or not (wires(body[j]) & sk):
                b2 = _unify(tpl[slot], body[j], bindings, form)
                if b2 is not None:
                    extend(slot + 1, j + 1, picked + [j], sk, b2)
            if slot > 0:
                sk = sk | wires(body[j])

    extend(0, 0, [], frozenset(), {})
    return results


def _insertion_matches(c: Circuit, form: RuleForm) -> list[Match]:
    qvars = [v for v in form.dst_vars if form.kinds[v] == "q"]
    cvars = [v for v in form.dst_vars if form.kinds[v] == "c"]
    out: list[Match] = []
    for pos in range(len(c.body) + 1):
        for qs in permutations(range(c.num_qubits), len(qvars)):
            for cs in permutations(range(c.num_cbits), len(cvars)):
                b = dict(zip(qvars, qs)) | dict(zip(cvars, cs))
                m = Match(
                    form.rule, form.direction, (pos,), tuple(sorted(b.items())),
                    form.variant,
                )
                if _check_applicable(c, m, allow_fresh=False) is None:
                    out.append(m)
    return out


def find_matches(c: Circuit, rule_id: str, direction: str = "forward") -> list[Match]:
    """All rule occurrences, ordered left to right by first matched index.

    Conditional rules only report sites whose static condition holds.
    Unknown rule ids raise KeyError, unknown directions ValueError.
    """
    forms = rule_forms(rule_id, direction)
    if rule_id == "Commute":
        return [
            Match("Commute", "forward", (i,))
            for i in range(len(c.body) - 1)
            if supports_disjoint(c.body[i], c.body[i + 1])
        ]
    out: list[Match] = []
    for form in forms.values():
        if not form.src:
            out.extend(_insertion_matches(c, form))
            continue
        for site, bindings in _find_sites(c, form):
            m = Match(
                rule_id, direction, site, tuple(sorted(bindings.items())),
                form.variant,
            )
            if _check_applicable(c, m, allow_fresh=True) is None:
                out.append(m)
    variants = list(forms)
    out.sort(key=lambda m: (m.site, variants.index(m.variant), m.bindings))
    return out


# ----------------------------------------------------------------------
# Rewriting
# ----------------------------------------------------------------------


def _gather_ok(c: Circuit, site: tuple[int, ...]) -> bool:
    matched = [(j, wires(c.body[j])) for j in site]
    lo, hi = site[0], site[-1]
    for j in range(lo, hi + 1):
        if j in site:
            continue
        skipped = wires(c.body[j])
        if any(skipped & w for k, w in matched if k > j):
            return False
    return True


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
        if kinds[var] == "q":
            taken = {v for k, v in b.items() if kinds.get(k) == "q"}
            free = [w for w in range(c.num_qubits) if w not in taken]
            if not free:
                raise RewriteError(f"fresh-wire allocation failure for {var!r}")
            b[var] = free[0]
        else:
            used = set()
            for instr in c.body:
                used |= read_cbits(instr)
                w = written_cbit(instr)
                if w is not None:
                    used.add(w)
            used |= {v for k, v in b.items() if kinds.get(k) == "c"}
            free = [w for w in range(num_cbits) if w not in used]
            if free:
                b[var] = free[0]
            else:
                b[var] = num_cbits
                num_cbits += 1
    return b, num_cbits


def _check_applicable(c: Circuit, m: Match, allow_fresh: bool) -> str | None:
    """None if the match applies cleanly, else the reason it does not.

    Unknown rule ids raise KeyError, unknown directions ValueError.
    """
    form = rule_forms(m.rule, m.direction).get(m.variant)
    if form is None:
        return f"unknown variant {m.variant!r}"
    if m.rule == "Commute":
        if len(m.site) != 1:
            return "commute site must be a single index"
        i = m.site[0]
        if not (0 <= i < len(c.body) - 1):
            return "commute site out of range"
        if not supports_disjoint(c.body[i], c.body[i + 1]):
            return "adjacent instructions share support"
        return None
    bindings = m.binding_map
    reason = form.binding_error(bindings, complete=not allow_fresh)
    if reason is not None:
        return reason
    for var, wire in m.bindings:
        kind = form.kinds[var]
        if not 0 <= wire < (c.num_qubits if kind == "q" else c.num_cbits):
            return f"binding of {var!r} to undeclared wire {kind}{wire}"
    if form.src:
        if len(m.site) != len(form.src):
            return "site length does not match pattern"
        if any(not 0 <= j < len(c.body) for j in m.site) or list(m.site) != sorted(
            set(m.site)
        ):
            return "site indices invalid"
        for j, want in zip(m.site, ground(form.src, bindings)):
            if c.body[j] != want:
                return f"instruction at {j} does not match pattern"
        if not _gather_ok(c, m.site):
            return "interleaved instructions block gathering"
    else:
        if len(m.site) > 1:
            return "insertion site must be a single index"
        pos = m.site[0] if m.site else len(c.body)
        if not 0 <= pos <= len(c.body):
            return "insertion position out of range"
    if form.src_preps:
        for p in ground_preps(form.src_preps, bindings):
            if p not in c.preps:
                return f"required prep {p} not present"
    if form.condition is not None:
        pos_site = m.site if m.site else (len(c.body),)
        return form.condition(c, pos_site, bindings, m.variant, m.direction)
    return None


def rewrite_at(c: Circuit, m: Match, verify: bool = False) -> Circuit:
    """Apply a match: gather the matched instructions at the first site index
    and splice in the instantiated replacement. Preps and roles carry over.
    """
    reason = _check_applicable(c, m, allow_fresh=True)
    if reason is not None:
        raise RewriteError(f"{m.rule}: {reason}")
    if m.rule == "Commute":
        i = m.site[0]
        body = list(c.body)
        body[i], body[i + 1] = body[i + 1], body[i]
        new = dc_replace(c, body=tuple(body))
        validate(new)
        return _verified(c, new, verify)

    form = rule_forms(m.rule, m.direction)[m.variant]
    bindings, num_cbits = _allocate_fresh(c, form, m.binding_map)

    # re-check the condition with fresh variables bound
    if form.condition is not None:
        pos_site = m.site if m.site else (len(c.body),)
        reason = form.condition(c, pos_site, bindings, m.variant, m.direction)
        if reason is not None:
            raise RewriteError(f"{m.rule}: {reason}")

    replacement = ground(form.dst, bindings)
    body = list(c.body)
    if form.src:
        lo, hi = m.site[0], m.site[-1]
        skipped = [body[j] for j in range(lo, hi + 1) if j not in m.site]
        body = body[:lo] + replacement + skipped + body[hi + 1 :]
    else:
        pos = m.site[0] if m.site else len(body)
        body = body[:pos] + replacement + body[pos:]

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
    validate(new)
    return _verified(c, new, verify)


def _verified(old: Circuit, new: Circuit, verify: bool) -> Circuit:
    if verify and not channel_equal(extract_channel(old), extract_channel(new)):
        raise VerificationError("rewrite is not channel-preserving")
    return new


# ----------------------------------------------------------------------
# Derivation traces
# ----------------------------------------------------------------------


@dataclass
class TraceStep:
    label: str
    applied: Match | None
    circuit: Circuit
    verified: bool | None  # None when verification was off


@dataclass
class DerivationTrace:
    start: Circuit
    steps: list[TraceStep]

    @property
    def final(self) -> Circuit:
        return self.steps[-1].circuit if self.steps else self.start

    def render(self) -> str:
        def tag(v: bool | None) -> str:
            return "" if v is None else ("  VERIFIED" if v else "  FAILED")

        out = ["step 0: initial", _indent(serialize(self.start))]
        for k, step in enumerate(self.steps, start=1):
            out.append(f"step {k}: {step.label}{tag(step.verified)}")
            out.append(_indent(serialize(step.circuit)))
        return "\n".join(out)


def _indent(text: str) -> str:
    return "\n".join("    " + line for line in text.splitlines())


def apply_steps(c: Circuit, steps: list[Match], verify: bool = True) -> DerivationTrace:
    """Apply a scripted sequence of matches, verifying each against the start."""
    trace = DerivationTrace(c, [])
    start_channel = extract_channel(c) if verify else None
    current = c
    for m in steps:
        current = rewrite_at(current, m, verify=False)
        ok: bool | None = None
        if verify:
            ok = channel_equal(start_channel, extract_channel(current))
            if not ok:
                trace.steps.append(TraceStep(m.label(), m, current, False))
                raise VerificationError(f"step {m.label()} broke channel equality")
        trace.steps.append(TraceStep(m.label(), m, current, ok))
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


def _next_steps(c: Circuit) -> list[tuple[Match, Circuit]] | None:
    for rule_id, direction in _SIMPLIFY_PRIORITY:
        for m in find_matches(c, rule_id, direction):
            try:
                new = rewrite_at(c, m)
            except RewriteError:
                continue
            if gate_measure(new) < gate_measure(c):
                return [(m, new)]
    # R3 forward only when the deferred CNOT enables cancellations that
    # reduce the overall cost
    for m in find_matches(c, "R3_DeferMeasure", "forward"):
        try:
            t = rewrite_at(c, m)
        except RewriteError:
            continue
        seq = [(m, t)]
        while True:
            cancels = find_matches(t, "R1_InverseCancel", "forward")
            if not cancels:
                break
            t = rewrite_at(t, cancels[0])
            seq.append((cancels[0], t))
        if gate_measure(t) < gate_measure(c):
            return seq
    return None


def simplify(c: Circuit, verify: bool = True) -> tuple[Circuit, DerivationTrace]:
    """Greedy fixpoint of the null-gate and classical-substitution rules.

    Deterministic: fixed rule priority, leftmost match first. Every committed
    step strictly reduces (quantum gates, classically controlled gates,
    instruction count), so the loop terminates.
    """
    trace = DerivationTrace(c, [])
    start_channel = extract_channel(c) if verify else None
    current = c
    while True:
        steps = _next_steps(current)
        if steps is None:
            break
        for m, new in steps:
            ok: bool | None = None
            if verify:
                ok = channel_equal(start_channel, extract_channel(new))
                if not ok:
                    trace.steps.append(TraceStep(m.label(), m, new, False))
                    raise VerificationError(f"simplify step {m.label()} unsound")
            trace.steps.append(TraceStep(m.label(), m, new, ok))
            current = new
    return current, trace


# ----------------------------------------------------------------------
# Rule III canonicalization (measurement deferral)
# ----------------------------------------------------------------------


def defer_measurements(c: Circuit) -> Circuit:
    """Push measurements past the classically controlled gates they feed
    (turning those gates quantum), then bubble all measurements to the end.

    This is the Rule III canonical form used by the deferred-measurement
    cross-check; it fails if a measured wire is reused quantumly before a
    reader or a result feeds a classical XOR.
    """
    body = list(c.body)
    progress = True
    while progress:
        progress = False
        for i, instr in enumerate(body):
            if not isinstance(instr, Measure):
                continue
            mw, r = instr.target, instr.result
            for j in range(i + 1, len(body)):
                ins = body[j]
                if isinstance(ins, ClassicalCtrl) and ins.control == r:
                    between_ok = all(
                        mw not in {w.index for w in wires(body[k]) if w.kind == "q"}
                        and r not in read_cbits(body[k])
                        for k in range(i + 1, j)
                    )
                    if not between_ok:
                        break
                    kind = "CNOT" if ins.kind == "CX" else "CZ"
                    body = (
                        body[:i]
                        + body[i + 1 : j]
                        + [Gate2(kind, mw, ins.target), Measure(mw, r)]
                        + body[j + 1 :]
                    )
                    progress = True
                    break
                if isinstance(ins, ClassicalXor) and r in (ins.a, ins.b):
                    break
            if progress:
                break
    moved = True
    while moved:
        moved = False
        for i in range(len(body) - 1):
            if (
                isinstance(body[i], Measure)
                and not isinstance(body[i + 1], Measure)
                and supports_disjoint(body[i], body[i + 1])
            ):
                body[i], body[i + 1] = body[i + 1], body[i]
                moved = True
    new = dc_replace(c, body=tuple(body))
    validate(new)
    return new
