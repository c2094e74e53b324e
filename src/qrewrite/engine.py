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
the positions and injective bindings of an insertion (empty `src`). Both
read the circuit's wire index (`Circuit.wire_index`) rather than each
instruction's wires. A rule's condition is a list of tests, each on one
variable's wire (`rules.WireTest`), so one filter, `_wires_for`, decides
which wire a variable may take: the declared wires of its kind that carry
the prep `src_preps` requires and pass its tests at the occurrence. An
insertion search takes the position-free part (`_prepped_wires`) once per
variable and runs only the tests at each position; there it takes
injective tuples of those wires, so it never enumerates a binding a test
refuses, and where every variable's wires equal the previous position's
it reuses the tuples already enumerated. It counts the tuples before it
builds them, and refuses to list more than `MAX_MATCHES` in one call.
`_admit` is the one admission check of an occurrence: it binds each
fresh wire a rewrite needs (a `dst` variable left unbound) to the first
wire the filter offers that the match has not bound (a cbit with none
takes a new one), checks the required preps and runs the condition's
tests, in order, on the complete bindings.
`find_matches` keeps the occurrences `_admit` accepts, so every match it
finds applies, and each match carries what `_admit` returned for the
circuit object it was found on. An insertion form with no condition is
admitted once per bindings dict the search shares among positions, since
`_admit` reads the position only through the condition's tests. `rewrite_at` applies such a match to that
very circuit without checking it again; every other match, hand-built or
found on another circuit, is checked by `_check_applicable` (bindings,
site shape, then the search restricted to the site), then `_admit`. So a
bad match is a `RewriteError`, never a wrong rewrite. The replacement is
grounded once per form and binding tuple (`RuleForm._ground_dst`, a memo
on the form bounded by `rules._GROUND_MEMO_SIZE`), and rewrites with the
same wires share its immutable instructions. One splice
(`circuit._splice`) puts the replacement at the occurrence's position,
after gathering the matched instructions there (an insertion gathers
none); `Commute` swaps. The output differs from its valid input only in
that window, the preps and new scratch cbits, so the splice checks only
those, with the code `circuit.validate` runs on a whole circuit (a
grounded replacement once per pair of wire counts).

Verified steps of `rewrite_at`, `apply_steps` and `simplify` pass one
check (`_step_check`) in two tiers, decided from the circuits before and
after the step alone, not from the match. The window tier
(`_window_equal`) diffs the two bodies and decides the window they differ
in on its own, exactly in any context, reports included: a window of
gates by its two small isometries (`_gates_equal_on`), any other, one
that measures, reads or writes a cbit, changes a prep or traces a qubit
out, by the channels of two small window circuits
(`_window_circuits_equal`), so the local identities of Rules III and IV
are decided once per local form. A step it cannot tell is checked by
channel equality of the whole circuit with the start, whose channel is
extracted at the first step that needs it.
`defer_measurements` only applies found `Commute` and `R3_DeferMeasure`
forward matches, so `sim.channel_of_deferred` on its result cross-checks both.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import prod
from typing import NamedTuple

from .circuit import (
    FIELD_KINDS,
    Circuit,
    CircuitError,
    Gate1,
    Gate2,
    ClassicalCtrl,
    Instruction,
    Measure,
    WireRef,
    _splice,
    circuit,
    prep_plus,
    prep_zero,
    serialize,
    touched,
    wire_state_before,
    wires,
)
from .equivalence import channel_equal, unitary_equal
from .rules import RuleForm, ground_preps, rule_forms
from .sim import STATE_VECTORS, _apply_gates, _product_state, _require_budget, extract_channel


MAX_MATCHES = 1 << 18  # most matches one `find_matches` call may list


class RewriteError(ValueError):
    """Match cannot be applied (stale site, failed condition, no fresh wire)."""


class VerificationError(RuntimeError):
    """A rewrite step failed its channel-equality check."""


class _Admitted(NamedTuple):
    """What `_admit` returned for a found match, and the circuit it was
    found on."""

    circuit: Circuit
    form: RuleForm
    bindings: dict[str, int]  # complete: fresh wires bound
    num_cbits: int


@dataclass(frozen=True)
class Match:
    """A located rule occurrence: ordered body indices plus variable bindings
    (an insertion's site is its position, or empty for the end of the body).

    A match `find_matches` returns also carries its admission for the
    circuit it was found on; this takes no part in equality, hashing or
    repr, and a copy (`dataclasses.replace`) or a hand-built match has none.
    """

    rule: str
    direction: str = "forward"
    site: tuple[int, ...] = ()
    bindings: tuple[tuple[str, int], ...] = ()
    variant: str = "default"
    _admitted: _Admitted | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
    body, body_wires = c.body, c.wire_index.wires
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
            if (at is None or j == at) and (slot == 0 or not (body_wires[j] & sk)):
                b2 = _unify(tpl[slot], body[j], bindings, form)
                if b2 is not None:
                    extend(slot + 1, j + 1, picked + [j], sk, b2)
            if at is not None and j >= at:
                break
            if slot > 0:
                sk = sk | body_wires[j]

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
    listed: int = 0,
) -> Iterator[tuple[tuple[int, ...], dict[str, int]]]:
    """Every occurrence of the form in `c` as (site, bindings), by first
    index; with `site` and `bindings`, only the one they name, if it is
    one (a named insertion keeps its checked, maybe partial, bindings).
    Insertions at different positions may share one bindings dict, which
    the caller does not change. An insertion search raises `RewriteError`
    before it builds the candidate tuples that take its count, after the
    `listed` matches found before it, over `MAX_MATCHES`."""
    body = c.body
    if form.rule == "Commute":
        body_wires = c.wire_index.wires
        for i in range(len(body) - 1) if site is None else site:
            if 0 <= i < len(body) - 1 and not (body_wires[i] & body_wires[i + 1]):
                yield (i,), {}
    elif form.src:
        yield from _find_sites(c, form, site, bindings)
    elif site is not None:
        if 0 <= _anchor(c, form, site)[0] <= len(body):
            yield site, bindings or {}
    else:
        qvars = [v for v in form.dst_vars if form.kinds[v] == "q"]
        cvars = [v for v in form.dst_vars if form.kinds[v] == "c"]
        names, n = qvars + cvars, len(qvars)
        prepped = [_prepped_wires(c, form, v) for v in names]
        last, found = None, []
        for pos in range(len(body) + 1):
            ok = [_wires_for(c, form, v, pos, (), ws) for v, ws in zip(names, prepped)]
            if ok != last:
                # some variable's tests admit other wires here than before
                last, found, size = ok, None, prod(map(len, ok))
            listed += size
            if listed > MAX_MATCHES:
                raise RewriteError(
                    f"insertion search needs at least {listed} bindings, "
                    f"over the limit of {MAX_MATCHES}"
                )
            if found is None:
                found = [
                    dict(zip(names, qs + cs))
                    for qs in _injective(ok[:n])
                    for cs in _injective(ok[n:])
                ]
            for bindings in found:
                yield (pos,), bindings


def _prepped_wires(c: Circuit, form: RuleForm, var: str) -> list[int]:
    """The declared wires of `var`'s kind that carry the prep `src_preps`
    requires of it, which `_wires_for` filters by its tests. It reads no
    position, so an insertion search takes it once per variable."""
    ws = list(range(c.num_qubits if form.kinds[var] == "q" else c.num_cbits))
    for p in form.src_preps:
        if var in p.wires:
            ws = [w for w in ws if getattr(c.prep_of(w), "kind", None) == p.kind]
    return ws


def _wires_for(
    c: Circuit, form: RuleForm, var: str, pos: int, matched: tuple[int, ...], ws: list[int]
) -> list[int]:
    """The declared wires `var` may take at an occurrence anchored at `pos`
    with matched indices `matched`: those of its kind that carry the prep
    `src_preps` requires of it (`ws`, from `_prepped_wires`) and pass its
    condition's tests. The caller does not change the list it gets."""
    for v, test in form.condition:
        if v == var:
            ws = [w for w in ws if test(c, pos, matched, w) is None]
    return ws


def _injective(choices: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """Tuples with one entry from each list, no two entries equal."""
    for ws in product(*choices):
        if len(set(ws)) == len(ws):
            yield ws


def _admit(
    c: Circuit, form: RuleForm, site: tuple[int, ...], bindings: dict[str, int]
) -> tuple[str | None, dict[str, int], int]:
    """Admit an occurrence: bind each unbound `dst` variable to the first
    wire `_wires_for` offers it that the match has not bound (a cbit with
    none takes a new one), check the required preps, then run the rule's
    condition, which is called nowhere else, on the complete bindings at
    the occurrence's `_anchor`. Returns the reason it refuses (None if it
    admits), the complete bindings and the new cbit count."""
    pos, matched = _anchor(c, form, site)
    b, num_cbits = dict(bindings), c.num_cbits
    for var in form.dst_vars:
        if var in b:
            continue
        kind = form.kinds[var]
        taken = {w for v, w in b.items() if form.kinds[v] == kind}
        ws = _wires_for(c, form, var, pos, matched, _prepped_wires(c, form, var))
        free = [w for w in ws if w not in taken]
        if free:
            b[var] = free[0]
        elif kind == "q":
            return f"fresh-wire allocation failure for {var!r}", b, num_cbits
        else:
            b[var], num_cbits = num_cbits, num_cbits + 1
    if form.src_preps:
        for p in ground_preps(form.src_preps, b):
            if p not in c.preps:
                return f"required prep {p} not present", b, num_cbits
    for var, test in form.condition:
        reason = test(c, pos, matched, b[var])
        if reason is not None:
            return reason, b, num_cbits
    return None, b, num_cbits


def find_matches(c: Circuit, rule_id: str, direction: str = "forward") -> list[Match]:
    """All rule occurrences, ordered left to right by first matched index.

    Conditional rules only report sites whose static condition holds.
    Unknown rule ids raise KeyError, unknown directions ValueError.
    """
    forms = rule_forms(rule_id, direction)
    # a swap reads the same both ways, so a `Commute` match says forward
    said = "forward" if rule_id == "Commute" else direction
    out = []
    for form in forms.values():
        # `_admit` reads the position only through the condition's tests, so
        # an insertion form with none admits a bindings dict, which the search
        # shares among positions, once (the dict is kept, so its id is not
        # reused within this call)
        once = {} if not (form.src or form.condition or rule_id == "Commute") else None
        for site, bindings in _occurrences(c, form, listed=len(out)):
            entry = None if once is None else once.get(id(bindings))
            if entry is None:
                # the search checked the rest of what `_check_applicable` checks
                reason, complete, num_cbits = _admit(c, form, site, bindings)
                key = admission = None
                if reason is None:
                    key = tuple(sorted(bindings.items()))
                    admission = _Admitted(c, form, complete, num_cbits)
                entry = bindings, key, admission
                if once is not None:
                    once[id(bindings)] = entry
            _, key, admission = entry
            if admission is not None:
                m = Match(rule_id, said, site, key, form.variant)
                object.__setattr__(m, "_admitted", admission)
                out.append(m)
    out.sort(key=lambda m: (m.site, m._admitted.form._rank, m.bindings))
    return out


# ----------------------------------------------------------------------
# Rewriting
# ----------------------------------------------------------------------


def _check_applicable(c: Circuit, form: RuleForm, m: Match) -> str | None:
    """None if the match names an occurrence of its form in `c`, else the
    reason it does not: its bindings fit the form and name declared wires,
    its site has the form's shape, and `_occurrences`, restricted to the
    site and seeded with the bindings, finds it."""
    bindings = m.binding_map
    reason = form.binding_error(bindings)
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


def rewrite_at(c: Circuit, m: Match, verify: bool = False) -> Circuit:
    """Apply a match: gather the matched instructions at the occurrence's
    position and splice in the instantiated replacement (a `Commute` match
    swaps its two instructions). Preps and roles carry over. A match that
    `find_matches` found on `c` itself applies without a second check;
    any other is checked first. Unknown rule ids raise KeyError, unknown
    directions ValueError."""
    if m._admitted is not None and m._admitted.circuit is c:
        _, form, bindings, num_cbits = m._admitted
    else:
        form = rule_forms(m.rule, m.direction).get(m.variant)
        reason = _check_applicable(c, form, m) if form else f"unknown variant {m.variant!r}"
        if reason is None:
            reason, bindings, num_cbits = _admit(c, form, m.site, m.binding_map)
        if reason is not None:
            raise RewriteError(f"{m.rule}: {reason}")

    if m.rule == "Commute":
        # the two instructions are disjoint: no wire's order changes
        i = m.site[0]
        pos, end, dst, skipped = i, i + 2, [], [c.body[i + 1], c.body[i]]
    else:
        pos, matched = _anchor(c, form, m.site)
        end = matched[-1] + 1 if matched else pos
        skipped = [c.body[j] for j in range(pos, end) if j not in matched]
        dst = form._ground_dst(bindings)

    preps = None
    if form.src_preps or form.dst_preps:
        preps = list(c.preps)
        for p in ground_preps(form.src_preps, bindings):
            preps.remove(p)
        preps.extend(ground_preps(form.dst_preps, bindings))
        preps = tuple(sorted(preps, key=lambda p: p.wires))
    # the matched and inserted instructions touch only bound wires
    cbits = [w for v, w in bindings.items() if form.kinds[v] == "c"]
    new = _splice(c, pos, end, dst, skipped, num_cbits, preps, cbits)
    if verify:
        _step_check(c, True)(m, new)
    return new


# ----------------------------------------------------------------------
# Derivation traces
# ----------------------------------------------------------------------


@dataclass
class TraceStep:
    label: str
    circuit: Circuit
    verified: bool | None  # None when verification was off; never False
    # the check that accepted the step: "window" or "channel" (None if off)
    tier: str | None = None


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


def _window_equal(a: Circuit, b: Circuit) -> bool:
    """True if the window where the bodies of `a` and `b` differ shows
    them equal in any context they share: same channel, same joint law of
    the reports and the outputs. False if it cannot tell, not a proof that
    they differ.

    The window is what is left of the two bodies after their longest common
    prefix and then their longest common suffix. The qubit count, inputs
    and qubit roles must be identical. An empty window, or a swap of two
    instructions with disjoint wires, is equal if the declarations are
    identical too.

    A window of gates on both sides, under identical declarations and with
    no qubit traced out (below), is equal if its two isometries agree up
    to one global phase: on its qubits S, a wire is fixed if
    `wire_state_before` knows its state at the window (|0>, |1>, |+> or
    |->, up to a global phase), so the state there is a product of the
    fixed wires' states and a state of everything else, on every branch and
    input column. A wire's phase is a scalar shared by both sides. It is
    decided by `_gates_equal_on` from its local form: its gates on local
    qubits numbered in order of first appearance, and each local qubit's
    state.

    Any other window (one that measures, reads or writes a cbit, changes
    a prep, or acts on a traced qubit) becomes two small window circuits,
    one per side, whose channels `_window_circuits_equal` compares:
    - a qubit whose state `wire_state_before` knows enters in that state,
      a qubit whose prep the two sides declare differently enters as its
      side's prep, and every other qubit is an input;
    - a cbit written before the window is an input qubit measured into it,
      so each of its values is checked;
    - a cbit the window writes is copied to an output qubit if it is a
      report or the suffix reads it, and is summed out otherwise;
    - a discarded qubit that nothing after the window touches is traced
      out there, as it is at the end.
    The declarations may differ only in scratch cbits that one side
    appends, and in preps on wires that nothing before the window touches
    (BellPrepFold): those wires are in their preps' states there,
    uncorrelated with every other wire. Any other difference, or a window
    circuit that is not a valid circuit (a copied cbit only one side
    writes), cannot tell.

    This is sound: at the window the joint state is classical on the cbits
    and arbitrary, entanglement included, on the input qubits. Equal window
    channels (equal Choi matrices) mean that, for every value of the cbits
    the window reads, both windows leave the same state on the qubits and
    cbits anything after them reads. The prefix and the suffix are shared,
    so the whole channel and the joint law of the reports are equal. An
    isometry or window circuit over `sim.BYTE_BUDGET` raises
    `SimulationError` before it is built.

    Each verdict depends on nothing but the window's local form: its
    instructions with qubits and cbits numbered, each kind on its own, in
    order of first appearance (then changed preps' wires), and each wire's
    descriptor (its state or prep and whether it is traced; whether a cbit
    is read, copied or summed out). Both sides share one numbering, so the
    same form on other wires or at another step has the same verdict, and
    both memos are exact. The budget check runs here, before the lookup,
    on every call, so a hit is refused over budget just as a miss is.
    """
    if (a.num_qubits, a.inputs, a.q_roles) != (b.num_qubits, b.inputs, b.q_roles):
        return False
    x, y = a.body, b.body
    n = min(len(x), len(y))
    p = 0
    while p < n and x[p] == y[p]:
        p += 1
    s = 0
    while s < n - p and x[-1 - s] == y[-1 - s]:
        s += 1
    old, new = x[p : len(x) - s], y[p : len(y) - s]
    after = len(x) - s  # where the suffix starts in `a`
    same = (a.num_cbits, a.preps, a.c_roles) == (b.num_cbits, b.preps, b.c_roles)
    if same and not old and not new:
        return True
    if same and len(old) == 2 and new == old[::-1] and not (wires(old[0]) & wires(old[1])):
        return True
    qs: dict[int, int] = {}
    cs: dict[int, int] = {}
    for instr in old + new:
        for name, kind in FIELD_KINDS[type(instr)]:
            local = qs if kind == "q" else cs
            local.setdefault(getattr(instr, name), len(local))
    changed = []
    if a.preps != b.preps:
        pa, pb = a._prep_by_wire, b._prep_by_wire
        changed = sorted(w for w in pa.keys() | pb.keys() if pa.get(w) != pb.get(w))
    for w in changed:
        if w not in pa or w not in pb or touched(a, WireRef("q", w), stop=p):
            return False
        qs.setdefault(w, len(qs))
    short, long = sorted((a, b), key=lambda c: c.num_cbits)
    shared, added = long.c_roles[: short.num_cbits], long.c_roles[short.num_cbits :]
    if shared != short.c_roles or "report" in added:
        return False
    traced = {
        w for w in qs if a.q_roles[w] == "discard" and not touched(a, WireRef("q", w), after)
    }
    states = tuple("prep" if w in changed else wire_state_before(a, w, p) for w in qs)
    old, new = _relabel(old, qs, cs), _relabel(new, qs, cs)
    if same and not cs and not traced:
        _require_budget((1 << len(states)) << states.count(None), "prepared state")
        return _gates_equal_on(old, new, states)
    cbits = tuple(
        "read" if touched(a, WireRef("c", r), stop=p)
        else "copied" if long.c_roles[r] == "report" or touched(a, WireRef("c", r), after)
        else "summed"
        for r in cs
    )
    qubits = tuple(
        (state, "discard" if w in traced else "output") for w, state in zip(qs, states)
    )
    read, copied = cbits.count("read"), cbits.count("copied")
    inputs = states.count(None) + read
    _require_budget((1 << (len(qs) + read + copied)) << inputs, "prepared state")
    preps_a, preps_b = (
        tuple(sorted(
            ground_preps([prep for prep in c.preps if prep.wires[0] in changed], qs),
            key=lambda prep: prep.wires,
        ))
        for c in (a, b)
    )
    return _window_circuits_equal(old, new, qubits, cbits, preps_a, preps_b)


def _relabel(instrs: tuple[Instruction, ...], qs: dict[int, int], cs: dict[int, int]) -> tuple:
    """`instrs` with each qubit w renamed `qs[w]` and each cbit r `cs[r]`."""
    out = []
    for instr in instrs:
        cls = type(instr)
        ws = [(qs if k == "q" else cs)[getattr(instr, f)] for f, k in FIELD_KINDS[cls]]
        kind = getattr(instr, "kind", None)
        out.append(cls(*ws) if kind is None else cls(kind, *ws))
    return tuple(out)


_WINDOW_MEMO_SIZE = 4096  # distinct window forms whose verdicts each memo keeps


@lru_cache(maxsize=_WINDOW_MEMO_SIZE)
def _gates_equal_on(old: tuple, new: tuple, states: tuple) -> bool:
    """Whether gates `old` and `new` on local qubits 0..k-1 agree up to one
    global phase on the fixed part: qubit j in `sim.STATE_VECTORS[states[j]]`,
    or arbitrary where `states[j]` is None. The fixed part is the product
    state (`sim._product_state`), qubit 0 most significant, of those
    one-qubit states, with the arbitrary qubits as its input register in
    their basis; `_window_equal` checks its size before the memo lookup."""
    free = [j for j, state in enumerate(states) if state is None]
    known = [((j,), STATE_VECTORS[state]) for j, state in enumerate(states) if state is not None]
    fixed = _product_state(len(states), free, known)
    return unitary_equal(
        _apply_gates(fixed, old), _apply_gates(fixed, new), up_to_phase=True
    )


@lru_cache(maxsize=_WINDOW_MEMO_SIZE)
def _window_circuits_equal(
    old: tuple, new: tuple, qubits: tuple, cbits: tuple, preps_a: tuple, preps_b: tuple
) -> bool:
    """Whether window circuits running `old` and `new`, on local qubits
    0..k-1 and local cbits, have equal channels (`channel_equal`, within
    `CHANNEL_ATOL`); False if either is not a valid circuit.

    `qubits[j]` is local qubit j's (state, role): a state name of
    `sim.STATE_VECTORS`, made by a |0> or |+> prep and X or Z; "prep",
    for its side's prep in `preps_a` or `preps_b`; or None, for an input.
    Its role is "discard" where it is traced out. `cbits[r]` is local cbit
    r's use: "read" (an input qubit after the local ones, measured into r
    first), "copied" (`CX r` onto a fresh |0> output qubit after the
    inputs, last) or "summed". `_window_equal` checks the size of the
    prepared state before the memo lookup."""
    k = len(qubits)
    read = [r for r, use in enumerate(cbits) if use == "read"]
    copied = [r for r, use in enumerate(cbits) if use == "copied"]
    preps, head, roles = [], [], {}
    for j, (state, role) in enumerate(qubits):
        roles[j] = role
        if state in ("zero", "one"):
            preps.append(prep_zero(j))
        elif state in ("plus", "minus"):
            preps.append(prep_plus(j))
        if state in ("one", "minus"):
            head.append(Gate1("X" if state == "one" else "Z", j))
    for j, r in enumerate(read, start=k):
        head.append(Measure(j, r))
    tail = []
    for j, r in enumerate(copied, start=k + len(read)):
        preps.append(prep_zero(j))
        tail.append(ClassicalCtrl("CX", r, j))
    channels = []
    for body, side in ((old, preps_a), (new, preps_b)):
        try:
            c = circuit(
                k + len(read) + len(copied), len(cbits), head + list(body) + tail,
                preps=preps + list(side), q_roles=roles,
            )
        except CircuitError:
            return False
        channels.append(extract_channel(c))
    return channel_equal(*channels)


def _step_check(start: Circuit, verify: bool) -> Callable[[Match, Circuit], TraceStep]:
    """A recorder of steps from `start` as `TraceStep`s. With `verify`, each
    step's circuit is checked against the step before it by `_window_equal`,
    and, where that cannot tell, its channel against the start's, which is
    extracted at the first step that needs it; a step that fails both raises
    `VerificationError`. Every earlier step was accepted, so either check
    shows the step equal to `start`."""
    if not verify:
        return lambda m, new: TraceStep(m.label(), new, None)
    prev, start_channel = start, None

    def step(m: Match, new: Circuit) -> TraceStep:
        nonlocal prev, start_channel
        if _window_equal(prev, new):
            tier = "window"
        else:
            if start_channel is None:
                start_channel = extract_channel(start)
            if not channel_equal(start_channel, extract_channel(new)):
                raise VerificationError(f"step {m.label()} broke channel equality")
            tier = "channel"
        prev = new
        return TraceStep(m.label(), new, True, tier)

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
    one first, by found matches only, until none moves.

    A measurement at i takes the `R3_DeferMeasure` forward match at
    (i, i + 1) if there is one, becoming the quantum control of the
    classically controlled gate that reads its result, else the `Commute`
    match at i, passing a disjoint instruction. It stops at another
    measurement, at a reuse of its wire, at an XOR reading its result, or
    at a reader that targets the measured wire. Only if every measurement
    reaches the end is the result the gates-then-measurements form
    `channel_of_deferred` reads.
    """
    while True:
        found = {
            m.site: m for rule in ("Commute", "R3_DeferMeasure") for m in find_matches(c, rule)
        }
        for i in range(len(c.body) - 1):
            if isinstance(c.body[i], Measure) and not isinstance(c.body[i + 1], Measure):
                m = found.get((i, i + 1)) or found.get((i,))
                if m is not None:
                    c = rewrite_at(c, m)
                    break
        else:
            return c
